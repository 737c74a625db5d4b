//! Register-blocked, autovectorization-friendly matrix kernels.
//!
//! These slice-level kernels are the only place in the workspace that
//! multiplies matrices, reduces an `O(d)` vector to a scalar or applies
//! the optimizer's update; [`Matrix`](crate::Matrix) methods, [`Adam`]
//! and every layer above them route here. Eight design rules, the first
//! three driven by profiles of the paper-sized (203→128→89→62→60)
//! training step on AVX2/AVX-512 hardware, the next two by the 256-client
//! screening round (`46 953`-coordinate deltas), the sixth by the fused
//! network's training step (`70 830` parameters, twelve tensors), the
//! seventh by the same screening round once its uploads are `TopK{0.05}`
//! deltas (95 % of every row exactly `+0.0`), the last by two packed
//! matmul paths that lost to the loop they copied for:
//!
//! [`Adam`]: crate::Adam
//!
//! 1. **Write into caller-owned buffers.** The seed implementation
//!    allocated (and zeroed) a fresh output for every product; at batch 32
//!    that is three allocations per layer per step. Every kernel here takes
//!    `out: &mut [f32]` so the training loop can run allocation-free.
//! 2. **Register-block the output; contract each group sum.**
//!    [`matmul_into`] computes a 4-row × 4-k block per pass: four loaded
//!    `b` rows meet four output rows in 16 independent products feeding
//!    four separate chains, which amortizes loads across rows (the seed's
//!    one-row-at-a-time loop was load-port bound) and breaks the add
//!    latency chain. A 1-, 2- or 3-row remainder is one block of that
//!    many rows (`accumulate_rows`), accumulated in a local `R × NC` tile
//!    that aliases nothing, so its loops carry no runtime overlap checks:
//!    the served micro-batch runs one forward pass per pinned snapshot,
//!    4.6 rows on average, with over a quarter of its rows in 2- or 3-row
//!    remainders, and every `serve_tcp` pass is one row. On the paper
//!    layers (203→128→89→62→60, one pinned core) running those
//!    remainders as blocks took a 2-row forward pass 3.67 → 2.61 µs per
//!    row and a 3-row one 3.61 → 2.31 (the 4-row block runs 1.9); the
//!    tile took 2- and 3-row passes a further ×0.81–0.88 and ×0.85–0.91
//!    and left a 1-row pass level (×0.95–1.00) with the hand-written
//!    1-row loop it replaced. Rows are independent, so which block a row
//!    shares a pass with moves no bit (pinned by
//!    `every_row_of_a_product_is_that_row_computed_alone`). Each group of
//!    four reduction steps is summed as one multiply and three fused
//!    multiply-adds,
//!    `a₃·v₃ + (a₂·v₂ + (a₁·v₁ + a₀·v₀))` (`group_sum`; each `mul_add`
//!    rounds `a·v + s` once), and the group sum is added to the output with
//!    one plain add; the `k mod 4` tail adds `a·v` singly. `f32::mul_add`
//!    is correctly rounded on every target, so a result is the same bit
//!    for bit on every CPU, with or without an FMA unit — only the speed
//!    depends on one (a `vfmadd` per lane where `target-cpu` has FMA, a
//!    library call where it has not). The compiler still never contracts
//!    on its own: the three fused steps are the only ones, and
//!    `safeloc_lint`'s `det-fused-arith` rule keeps `mul_add` out of every
//!    other production file. Contracting changed output bits, so it landed
//!    under `safeloc-bench`'s tolerance contract (`tolerance.rs`: within
//!    `γ_k·Σ|a||b|` of an f64 product and no further from it than the
//!    parent's separately rounded groups; training drift from the seed
//!    path below the parent's; the golden defense verdicts unchanged).
//!    It took `benchmark/`'s `nn.matmul_l1_us` 23.2 → 19.9 µs,
//!    `nn.tmatmul_l1_us` 26.1 → 20.6 and a fused training step
//!    (`core.train_step_us`) 292 → 249 (medians of five traced pairs on
//!    one pinned core). The fully sequential form, `o = a.mul_add(v, o)`
//!    per step, is ruled out: an underflowing negative product can leave
//!    `o` at `−0.0`, which breaks rule 7's lemma (an accumulator that is
//!    never `−0.0`; pinned by
//!    `an_underflowing_negative_product_leaves_no_negative_zero`), and it
//!    measured no faster end to end.
//!    [`matmul_transposed_into`] and [`transposed_matmul_into`] transpose
//!    once and run the same kernel.
//! 3. **Block columns for L1.** Column ranges are walked in `NC`-sized
//!    blocks so the four active `b` rows and the output block stay
//!    L1-resident across the reduction.
//! 4. **Reduce in fixed lanes.** `iter().map(..).sum::<f32>()` is one
//!    strict-order add chain: it cannot vectorize, and runs at the FP-add
//!    latency (~4 cycles per float). [`dot`], [`sum_squares`],
//!    [`squared_distance`] and [`squared_distance_scaled`] instead keep
//!    `LANES` independent partial sums — element `i` always lands in lane
//!    `i mod LANES` — and fold them in one fixed order. The lane count is a
//!    constant of the algorithm, *not* the machine's vector width: the
//!    compiler maps the lanes onto whatever registers the target has, but
//!    which elements meet in which partial sum never changes, so a result
//!    is identical for every target CPU and every thread count (threads
//!    only ever split *rows* between reductions, never one reduction). No
//!    `cfg(target_feature)`, no runtime dispatch, no scalar twin.
//! 5. **Block long reductions.** [`matmul_into`] walks `k` in `KC`-row
//!    blocks, outermost, so each block of `b` is swept by every output row
//!    before the next one is touched: a tall `b` (the latent stages'
//!    `46 953 × 32` projection, 6 MB) streams from memory once per call
//!    instead of once per output row block. `KC` is a multiple of 4, so a
//!    block's 4-step reduction groups *are* the un-blocked loop's groups
//!    and every output element adds them in the same ascending order:
//!    blocking is bitwise invisible for every `k` (pinned by
//!    `k_blocking_is_bitwise_identical_to_the_unblocked_loop`), and the
//!    paper shapes (`k ≤ 203 < KC`) are a single block running the loop
//!    nest they always ran.
//! 6. **Element-wise updates take slices, never containers.**
//!    [`adam_update`] receives the parameter, gradient and both moment
//!    buffers as four slice *arguments*, asserts their lengths equal once
//!    and walks them zipped. The loop it replaced sat inside
//!    `Adam::step_stream`'s visitor closure and indexed the moments
//!    through `&mut Vec<f32>` borrowed there: nothing told the compiler
//!    that a store to `m[i]` leaves a `Vec`'s own pointer and length (or
//!    another of the four buffers) alone, so it reloaded and re-checked
//!    them per element and the divide/sqrt chain stayed scalar — 4.3 ns
//!    per parameter, 39 % of a fused training step at batch 32 and 54 %
//!    at batch 16. Slice arguments carry the no-alias guarantee into the
//!    loop wherever it is inlined; the kernel runs 0.9 ns per parameter.
//!    Every element still gets the *same* bits as the scalar loop's IEEE
//!    operations in the *same* order — `m / bc1`, `v / bc2`,
//!    `lr·m̂ / (√v̂ + eps)` — with no `mul_add` and no `rsqrt`, so each
//!    vector lane computes exactly what the scalar loop did and trained
//!    models are bit-identical (pinned by
//!    `adam_update_is_bitwise_identical_to_the_indexed_loop`; the parent's
//!    loop survives only as that test's oracle and as `SeedAdam` in
//!    `safeloc_bench`'s test-only `naive` module). The last divide and the
//!    square root are true IEEE operations; the two divides by the bias
//!    corrections are **reciprocal products** — `r = 1 / f64(bc)` once per
//!    call, then `(f64(x)·r) as f32` per element, which vectorizes as a
//!    widen, a multiply and a narrow where a divide is a long-latency
//!    unit's (79 → 65–67 µs a step over the fused network's 70 830
//!    parameters). *Lemma (reciprocal products):* for finite `b` with
//!    `0 < |b| < 2` — every bias correction `1 − βᵗ` lies in `(0, 1]` —
//!    and every `f32` `a`, `RN32(RN64(a·RN64(1/b))) = RN32(a/b)`. The
//!    product is two `f64` roundings, within 2⁻⁵¹ (relative) of `a/b`,
//!    and never leaves `f64`'s normal range. `a/b` is never an `f32`
//!    rounding midpoint: a normal-range midpoint has 25 significant bits,
//!    which a quotient of two 24-bit significands cannot have, and it lies
//!    at least 2⁻⁴⁹ (relative) from every one; a subnormal-range midpoint
//!    is an odd multiple of 2⁻¹⁵⁰, which `a/b` (`a` a multiple of 2⁻¹⁴⁹)
//!    can equal only if `b` carries a factor of 2 beyond its odd part —
//!    `|b| ≥ 2`, where such a tie *is* split (pinned by
//!    `a_divisor_of_two_or_more_can_split_a_subnormal_tie`) — and
//!    otherwise lies at least 2⁻¹⁷⁴ (absolute) or 2⁻²⁴ (relative) away,
//!    where the error is below 2⁻¹⁷⁷. So no midpoint separates the
//!    product from the quotient and both round to the same `f32`; zeros,
//!    infinities and NaNs (payloads too) come out the same. Pinned by
//!    `bias_correction_products_round_like_the_divides` under proptest
//!    over raw bit patterns and the specials, and by its `#[ignore]`d
//!    exhaustive twin over all 2³² `a` (CI's release-profile kernel
//!    oracles). One rule departs from the scalar loop's bits, the
//!    **flush**: a new first moment with `|m′| < f32::MIN_POSITIVE` is
//!    stored as `+0.0` (one compare and one select, inside the same
//!    vector loop; NaN compares false and passes through; `v` is never
//!    flushed). A weight whose gradient turned exactly zero — a dead
//!    ReLU's — decays `m ← 0.9·m` until `0.9·m` rounds back to `m` at
//!    four subnormal ulps, never reaching zero, and from then on every
//!    `β₁·m`, `m / bc1` and `lr·m̂` of that element takes a microcode
//!    assist, at every step, for good: a third of the fused network's
//!    moments end the paper's pretraining there and a training step costs
//!    ×2.7. Flushing moves no parameter bit. *Lemma (one step, any
//!    state with `v ≥ 0`, `0 < bc1`, `0 < eps`):* against the un-flushed
//!    formulas, `v′` is equal bit for bit (it never reads `m`); `m′` is
//!    the un-flushed `m′` flushed; and where that `m′` was flushed, the
//!    update the un-flushed formulas subtract is at most
//!    `U = (lr·(MIN_POSITIVE / bc1)) / eps` in magnitude — each of the
//!    three operations is monotone and the denominator `√v̂ + eps` is at
//!    least `eps` — which is under a quarter ulp of any `|p| > 2²⁵·U`, so
//!    `p − u` rounds back to `p`, the value the flushed kernel stores
//!    (`p − 0`): `p′` is equal bit for bit. At or below that bound
//!    (`≈ 4e-26` at `lr = 1e-3`, `eps = 1e-8`, `bc1 → 1`; `×10` at the
//!    first step) the two differ by at most `2U` (`≈ 2e-33`). Pinned by
//!    `flushing_the_first_moment_moves_no_parameter_bit_above_the_bound`
//!    under proptest with the bound computed from each step's own
//!    scalars, and over whole trainings by `safeloc-bench`'s trajectory
//!    oracles (2 000 steps of the paper's pretraining on both networks:
//!    parameters and `v` equal `to_bits`, `m` equal to the seed's
//!    flushed, the seed side holding thousands of subnormal moments and
//!    this kernel none).
//! 7. **A support kernel is its dense kernel with the `+0.0` terms left
//!    out — nothing else moves.** [`support_sum_squares`],
//!    [`support_dot`], [`support_dot_pair`], [`support_axpy`],
//!    [`SupportColumns::dots_after`] and [`support_matmul_into`] take a
//!    vector as its *support*: strictly ascending indices plus the values
//!    there, every other element being exactly `+0.0`. Each reproduces the
//!    arithmetic of its dense twin over the densified vector bit for bit:
//!    a support element still lands in lane `i mod LANES`, in index order,
//!    and the lanes fold by the same halving ([`support_dot_pair`] is two
//!    [`support_dot`]s sharing one walk of the support, each sum in lanes
//!    of its own; [`SupportColumns::dots_after`] is one row's [`dot`]s with
//!    every later row of a column-inverted block, each in lanes of its own,
//!    with only the products both supports hold added); a projection still
//!    adds one contracted `a₃v₃ + (a₂v₂ + (a₁v₁ + a₀v₀))` group sum (rule
//!    2) per 4-aligned group, in ascending order, `KC`-blocked the same
//!    way. What is skipped is a term `+0.0 · y = ±0.0` (or a group of
//!    four of them) added to an accumulator that started at `+0.0`: in
//!    round-to-nearest `x + y` is `−0.0` only when *both* operands are,
//!    so such an accumulator is never `−0.0`, and adding `±0.0` to
//!    anything else returns it unchanged — the skipped add was the
//!    identity. *Inside* a group the same fact is a lemma about partial
//!    sums: leave the non-members' `±0.0` terms out of the group sum and
//!    the two running sums are, after every step, either equal bit for
//!    bit or both zeros. A fused step `a.mul_add(v, s)` rounds the exact
//!    `a·v + s` once. A non-member's (`a = +0.0`, `v` finite) exact value
//!    is `s` itself: a non-zero sum stays as it is and a zero sum a zero.
//!    A member's step on two zeros of either sign rounds the exact `a·v`
//!    alone — the bits `a * v` rounds to, an underflowing product
//!    included (it rounds to a zero of its own sign either way) — so both
//!    sums become that product, or a zero if it is one; on two equal sums
//!    it gives equal results. The group's leading `a₀ * v₀` is the same
//!    step on a zero. So a member-only group sum `G′` and the dense `G`
//!    differ at most in the sign of a zero, and `o += G′` lands on the
//!    bits of `o += G` because `o` is never `−0.0` (it is only ever
//!    touched by a plain add). [`support_matmul_into`] spends it on
//!    the case that pays — a group's *lone* member adds `a·v` over one
//!    `b` row instead of four: 92 % of the non-empty groups of a
//!    uniformly 5 %-dense row, 75 % where a sixth of the columns hold
//!    three quarters of the support, and ×0.56 on the 256-row projection
//!    (8.9 → 5.0 ms). Member-only sums of two and three
//!    (`a₃v₃ + a₁v₁`, one expression — adding members to `o` one by one
//!    rounds differently) hold by the same lemma and
//!    measured level, 4.3–4.9 against 4.1–5.0 ms, so those groups are
//!    still evaluated whole. (The one operand that breaks all of this is
//!    a non-finite `y`, `0 · ∞ = NaN`; callers hand these kernels finite
//!    dense operands, `RoundContext` stores every row dense in the
//!    rounds where it cannot promise that, and [`SupportColumns`] does not
//!    index a row that holds one.) Pinned `to_bits` against the dense
//!    kernels under proptest, including supports in the `d mod 32` and
//!    `d mod 4` tails and the projection at every output tile width
//!    (`support_matmul_at_every_tile_width`), the column-inverted dots
//!    over raw bit patterns, supports that collide in one lane and
//!    non-finite rows (`safeloc-fl`'s
//!    `cosine_over_supports_matches_the_dense_cosine_on_raw_bits`), and —
//!    the products proptest never draws: `±0.0` members, signed-zero and
//!    underflowing products, every member pattern of a group — by
//!    `support_groups_match_the_dense_groups_on_every_member_pattern`.
//! 8. **A hot loop reads its operands only through slice arguments.** An
//!    operand the kernel reaches through a thread-local `RefCell` — a
//!    packing slab borrowed inside the call — costs the loop its no-alias
//!    proof: nothing tells the compiler that a store to `out` leaves the
//!    slab alone. Measured twice on packed copies of `b`, each running the
//!    same multiply-adds in the same order as the direct loop (so the bits
//!    were never in question): a `KC`-blocked packed path ran 7.6 MAC/ns
//!    against the direct loop's 19.6 at the latent projection's `n = 32`,
//!    and the packed path [`matmul_into`] used to take for `m ≥ 16`,
//!    `k·n ≥ 4096` — every batch-32 training layer — ran those shapes at
//!    12.5–21.8 GFLOP/s where the direct loop runs 15.9–30.0; deleting it
//!    took `nn.matmul_l1_us` ×0.50 (99 → 50 µs). Scratch is fine when it
//!    is handed to the kernel as a slice argument, as the transposing
//!    wrappers hand theirs to [`matmul_into`]; a packed variant taking its
//!    slab that way got the proof back and measured mixed to level against
//!    the direct loop (×0.6–1.7 and ×0.90–1.08 by shape in two sets of
//!    runs), so `b` is read in place.
//!
//! The seed kernel's `a == 0.0` skip is deliberately gone: it helped only
//! on artificially sparse inputs and costs a branch per multiply on the
//! dense activations real training produces.
//!
//! Measured against the seed loops (kept as test references in
//! `safeloc_bench`'s test-only `naive` module) at batch 32 on the paper
//! shapes, [`matmul_into`] ran 2.1–3.0× faster, [`transposed_matmul_into`]
//! ~2.2× and [`matmul_transposed_into`] ~7× (medians of six runs on one
//! pinned core). `benchmark/`'s `nn.matmul_l1_us` / `nn.tmatmul_l1_us`
//! are the kernels' perf record.

/// Column block size (floats). Four `b` row blocks (4 × 128 × 4 B = 2 KiB)
/// plus four output row blocks stay comfortably L1-resident.
const NC: usize = 128;

/// Reduction block size for [`matmul_into`] and [`support_matmul_into`].
/// A multiple of 4, so block edges coincide with the kernel's 4-step
/// reduction groups and blocking never moves a group boundary; at least
/// 256, so every paper-network shape (`k ≤ 203`) is a single block.
/// 1 024 rather than 256: a block of the latent stages' 32-wide projection
/// (128 KB) stays L2-resident, and each support row visits a block — a
/// tile loaded and stored, its members' cursor resumed — a quarter as
/// often. On `round_screen`'s own 231 support rows, the projection
/// evicted between calls as the op evicts it, the support product ran
/// ×0.86 (4.96 → 4.27 ms, one pinned core, medians of 41); the dense
/// product over 231 rows read ×0.95.
const KC: usize = 1024;
const _: () = assert!(
    KC.is_multiple_of(4),
    "a k-block edge would split a reduction group"
);

/// `out[m×n] = a[m×k] · b[k×n]`, accumulating from zero.
///
/// The reduction is walked in `KC`-row blocks, outermost (design rule 5
/// in the module docs), each block through the direct kernel, which reads
/// `b` in place: a `KC`-row block of `b` is cache-resident as it is, and
/// every operand reaches the loop as a slice argument (design rule 8).
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths do not match the shapes.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "lhs size mismatch");
    debug_assert_eq!(b.len(), k * n, "rhs size mismatch");
    debug_assert_eq!(out.len(), m * n, "out size mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        accumulate_direct(out, &a[k0..], k, &b[k0 * n..(k0 + kb) * n], m, kb, n);
    }
}

/// The un-blocked direct kernel over the whole reduction — the oracle the
/// k-blocked path is pinned against.
#[cfg(test)]
fn matmul_into_direct(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    accumulate_direct(out, a, k, b, m, k, n);
}

/// The direct kernel over one reduction block:
/// `out[m×n] += a[m×k] · b[k×n]`, where row `i` of `a` is
/// `a[i·lda..i·lda + k]` (a `k`-column window of an `lda`-wide matrix).
/// `b` rows are read in place, `n`-strided per column block — optimal
/// while the block of `b` fits in cache.
fn accumulate_direct(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    // Main loop: 4 output rows × 4 reduction steps per pass.
    while i + 4 <= m {
        let (ar0, ar1) = (
            &a[i * lda..i * lda + k],
            &a[(i + 1) * lda..(i + 1) * lda + k],
        );
        let (ar2, ar3) = (
            &a[(i + 2) * lda..(i + 2) * lda + k],
            &a[(i + 3) * lda..(i + 3) * lda + k],
        );
        for j0 in (0..n).step_by(NC) {
            let jlen = NC.min(n - j0);
            // Split the four output rows into disjoint mutable windows.
            let (head01, tail23) = out.split_at_mut((i + 2) * n);
            let (head0, tail1) = head01.split_at_mut((i + 1) * n);
            let (head2, tail3) = tail23.split_at_mut(n);
            let o0 = &mut head0[i * n + j0..i * n + j0 + jlen];
            let o1 = &mut tail1[j0..j0 + jlen];
            let o2 = &mut head2[j0..j0 + jlen];
            let o3 = &mut tail3[j0..j0 + jlen];
            let mut kk = 0;
            while kk + 4 <= k {
                let b0 = &b[kk * n + j0..kk * n + j0 + jlen];
                let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + jlen];
                let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + jlen];
                let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + jlen];
                let [a0, a1, a2, a3] =
                    [ar0, ar1, ar2, ar3].map(|ar| [ar[kk], ar[kk + 1], ar[kk + 2], ar[kk + 3]]);
                for j in 0..jlen {
                    let v = [b0[j], b1[j], b2[j], b3[j]];
                    o0[j] += group_sum(a0, v);
                    o1[j] += group_sum(a1, v);
                    o2[j] += group_sum(a2, v);
                    o3[j] += group_sum(a3, v);
                }
                kk += 4;
            }
            while kk < k {
                let b0 = &b[kk * n + j0..kk * n + j0 + jlen];
                for j in 0..jlen {
                    let v = b0[j];
                    o0[j] += ar0[kk] * v;
                    o1[j] += ar1[kk] * v;
                    o2[j] += ar2[kk] * v;
                    o3[j] += ar3[kk] * v;
                }
                kk += 1;
            }
        }
        i += 4;
    }
    // Row tail (< 4 rows): one block of that many rows.
    match m - i {
        3 => accumulate_rows::<3>(out, a, lda, b, i, k, n),
        2 => accumulate_rows::<2>(out, a, lda, b, i, k, n),
        1 => accumulate_rows::<1>(out, a, lda, b, i, k, n),
        _ => {}
    }
}

/// Output rows `i..i + R` of [`accumulate_direct`] as one block, for the
/// 1-, 2- and 3-row remainders. Per `NC` column block the `R` output rows
/// are copied into a local `R × NC` tile, every 4-step group of the
/// reduction is added to it in ascending order (one `group_sum` per row
/// and group, each `b` value loaded once for all `R` rows), then the
/// `k mod 4` singles, and the tile is copied back. Each output element
/// gets the same adds in the same order as in the 4-row block, so which
/// block a row runs in moves no bit. The tile aliases neither operand, so
/// the inner loops carry no runtime overlap checks. Kept out of line, so
/// the 4-row nest compiles as it did without it; the 4-row block stays
/// hand-written because it measured ×1.03–1.23 slower as an instance of
/// this one (crates/README.md, "measured and left alone").
#[inline(never)]
fn accumulate_rows<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: &[f32],
    i: usize,
    k: usize,
    n: usize,
) {
    let ar: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * lda..(i + r) * lda + k]);
    let mut tile = [[0.0f32; NC]; R];
    for j0 in (0..n).step_by(NC) {
        let jlen = NC.min(n - j0);
        for (r, row) in tile.iter_mut().enumerate() {
            row[..jlen].copy_from_slice(&out[(i + r) * n + j0..(i + r) * n + j0 + jlen]);
        }
        let mut kk = 0;
        while kk + 4 <= k {
            let b0 = &b[kk * n + j0..kk * n + j0 + jlen];
            let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + jlen];
            let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + jlen];
            let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + jlen];
            let a_group = ar.map(|ar| [ar[kk], ar[kk + 1], ar[kk + 2], ar[kk + 3]]);
            for j in 0..jlen {
                let v = [b0[j], b1[j], b2[j], b3[j]];
                for r in 0..R {
                    tile[r][j] += group_sum(a_group[r], v);
                }
            }
            kk += 4;
        }
        while kk < k {
            let b0 = &b[kk * n + j0..kk * n + j0 + jlen];
            for j in 0..jlen {
                let v = b0[j];
                for r in 0..R {
                    tile[r][j] += ar[r][kk] * v;
                }
            }
            kk += 1;
        }
        for (r, row) in tile.iter().enumerate() {
            out[(i + r) * n + j0..(i + r) * n + j0 + jlen].copy_from_slice(&row[..jlen]);
        }
    }
}

/// One 4-step reduction group, `a₀v₀ + a₁v₁ + a₂v₂ + a₃v₃`, contracted:
/// one multiply and three fused multiply-adds,
/// `a₃·v₃ + (a₂·v₂ + (a₁·v₁ + a₀·v₀))` with each step rounded once (design
/// rule 2 in the module docs). Every product kernel adds its groups
/// through this one expression, so the dense rows, the row tail and the
/// support kernel's whole groups agree bit for bit.
#[inline(always)]
fn group_sum(a: [f32; 4], v: [f32; 4]) -> f32 {
    a[3].mul_add(v[3], a[2].mul_add(v[2], a[1].mul_add(v[1], a[0] * v[0])))
}

thread_local! {
    /// Reusable transpose scratch for [`matmul_transposed_into`]. Held per
    /// thread so parallel client training never contends, and retained
    /// across calls so the warm training step stays allocation-free.
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// `out[m×r] = a[m×k] · b[r×k]ᵀ`.
///
/// Dot-product formulations of this product (the seed's approach) are
/// latency-bound: every output element walks a full row pair with one
/// accumulator chain, and profiles put them ~6× behind the register-blocked
/// [`matmul_into`] at equal FLOPs. So this kernel materializes `bᵀ` once
/// into a thread-local scratch (`transpose_into`) — an `O(r·k)` cost that is
/// `batch`× smaller than the `O(m·k·r)` product — and runs the fast kernel.
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths do not match the shapes.
pub fn matmul_transposed_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, r: usize) {
    debug_assert_eq!(a.len(), m * k, "lhs size mismatch");
    debug_assert_eq!(b.len(), r * k, "rhs size mismatch");
    debug_assert_eq!(out.len(), m * r, "out size mismatch");
    if m == 0 || r == 0 {
        out.fill(0.0);
        return;
    }
    TRANSPOSE_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize(k * r, 0.0);
        transpose_into(&mut scratch, b, r, k);
        matmul_into(out, a, &scratch, m, k, r);
    });
}

/// `out[k×n] = a[m×k]ᵀ · b[m×n]`.
///
/// The shared `m` dimension is the *batch* at the weight-gradient call
/// sites (`dW = xᵀ·grad`), so a direct rank-`m` accumulation rewrites the
/// whole `k×n` output `m/4` times — punishing at small batches. Instead
/// `aᵀ` is materialized once into the thread-local scratch
/// (`transpose_into`, `O(m·k)`, batch-independent per element of `out`)
/// and the register-blocked [`matmul_into`] runs with the output written
/// exactly once.
///
/// # Panics
///
/// Panics (in debug builds) if the slice lengths do not match the shapes.
pub fn transposed_matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "lhs size mismatch");
    debug_assert_eq!(b.len(), m * n, "rhs size mismatch");
    debug_assert_eq!(out.len(), k * n, "out size mismatch");
    if m == 0 || k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    TRANSPOSE_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.resize(k * m, 0.0);
        transpose_into(&mut scratch, a, m, k);
        matmul_into(out, &scratch, b, k, m, n);
    });
}

/// Tile edge of [`transpose_into`]: an 8×8 `f32` tile is eight 256-bit
/// rows, 256 bytes.
const TILE: usize = 8;

/// `dst[cols×rows] = src[rows×cols]ᵀ` — the one transpose in the crate.
///
/// Full 8×8 tiles are copied through a fixed `[[f32; 8]; 8]`: eight
/// contiguous source row reads, then eight contiguous destination row
/// writes, so both sides move whole tile rows and the element swap stays
/// inside the fixed-size tile. The 32×32 element-by-element tiling this
/// replaced took ~1.3–1.6× as long on the paper's weight shapes (128×89:
/// ~11–14 → ~9–11 µs, 89×203: ~22–27 → ~16 µs on one pinned core). The
/// ragged right and bottom edges (fewer than eight columns or rows) are
/// scalar loops. A transpose only moves values, so no bit of any product
/// that reads it depends on how it is tiled.
///
/// # Panics
///
/// Panics if either slice is not `rows · cols` long.
pub(crate) fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "source size mismatch");
    assert_eq!(dst.len(), src.len(), "destination size mismatch");
    let (full_rows, full_cols) = (rows - rows % TILE, cols - cols % TILE);
    for r0 in (0..full_rows).step_by(TILE) {
        for c0 in (0..full_cols).step_by(TILE) {
            let mut tile = [[0.0f32; TILE]; TILE];
            for (i, row) in tile.iter_mut().enumerate() {
                row.copy_from_slice(&src[(r0 + i) * cols + c0..][..TILE]);
            }
            for j in 0..TILE {
                let out = &mut dst[(c0 + j) * rows + r0..][..TILE];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = tile[i][j];
                }
            }
        }
        for r in r0..r0 + TILE {
            for c in full_cols..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
    }
    for r in full_rows..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Independent accumulators per fixed-lane reduction. A constant of the
/// *algorithm*, not the machine's vector width: it fixes which elements
/// meet in which partial sum, so a result never depends on the CPU the
/// crate was built for (design rule 4 in the module docs).
const LANES: usize = 32;

/// `Σ term(a[i], b[i])` with the fixed-lane layout every reduction kernel
/// shares: lane `l` adds the terms of elements `l, l + LANES, l + 2·LANES,
/// …` in index order (a ragged tail lands in the leading lanes like any
/// other element), then the lanes fold by halving — `lane[l] += lane[l +
/// w]` for `w = LANES/2, …, 1`. That order is the contract
/// (`reductions_follow_the_documented_lane_layout`).
#[inline(always)]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    assert_eq!(a.len(), b.len(), "reduction operands differ in length");
    let mut lanes = [0.0f32; LANES];
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    for (x, y) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            lanes[l] += term(x[l], y[l]);
        }
    }
    for (lane, (&x, &y)) in lanes.iter_mut().zip(a_tail.iter().zip(b_tail)) {
        *lane += term(x, y);
    }
    fold_lanes(lanes)
}

/// The halving fold every fixed-lane reduction ends in.
#[inline(always)]
fn fold_lanes(mut lanes: [f32; LANES]) -> f32 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            lanes[l] += lanes[l + width];
        }
    }
    lanes[0]
}

/// Dot product `Σ a[i]·b[i]`, reduced in fixed lanes (design rule 4 in the
/// module docs).
///
/// # Panics
///
/// Panics if the slices differ in length (as do the kernels below).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| x * y)
}

/// Sum of squares `Σ a[i]²` — bitwise `dot(a, a)`.
pub fn sum_squares(a: &[f32]) -> f32 {
    lane_sum(a, a, |x, _| x * x)
}

/// Squared Euclidean distance `Σ (a[i] − b[i])²`.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| {
        let d = x - y;
        d * d
    })
}

/// Squared Euclidean distance between scaled vectors,
/// `Σ (sa·a[i] − sb·b[i])²` — the distance between clip-scaled deltas,
/// without materializing either.
pub fn squared_distance_scaled(a: &[f32], sa: f32, b: &[f32], sb: f32) -> f32 {
    lane_sum(a, b, |x, y| {
        let d = sa * x - sb * y;
        d * d
    })
}

/// `Σ term(i, v)` over a support, in [`lane_sum`]'s layout: the term of
/// element `i` is added to lane `i mod LANES` — in index order, because
/// the indices ascend — and the lanes fold by the same halving. The terms
/// the dense kernel adds for the elements in between are `±0.0` and leave
/// their lanes unchanged (design rule 7 in the module docs).
#[inline(always)]
fn support_lane_sum(indices: &[u32], values: &[f32], term: impl Fn(usize, f32) -> f32) -> f32 {
    assert_eq!(
        indices.len(),
        values.len(),
        "support indices and values differ in length"
    );
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "support indices must ascend strictly"
    );
    let mut lanes = [0.0f32; LANES];
    for (&i, &v) in indices.iter().zip(values) {
        let i = i as usize;
        lanes[i % LANES] += term(i, v);
    }
    fold_lanes(lanes)
}

/// [`sum_squares`] of the vector whose elements are `values` at the
/// strictly ascending `indices` and `+0.0` everywhere else — bit for bit,
/// in time proportional to the support (design rule 7 in the module
/// docs).
///
/// # Panics
///
/// Panics if `indices` and `values` differ in length (as do the support
/// kernels below).
pub fn support_sum_squares(indices: &[u32], values: &[f32]) -> f32 {
    support_lane_sum(indices, values, |_, v| v * v)
}

/// [`dot`] of the support vector (see [`support_sum_squares`]) with the
/// dense, finite `other` — bit for bit.
///
/// # Panics
///
/// Panics if an index is `≥ other.len()`.
pub fn support_dot(indices: &[u32], values: &[f32], other: &[f32]) -> f32 {
    support_lane_sum(indices, values, |i, v| v * other[i])
}

/// `(support_dot(indices, values, a), support_dot(indices, values, b))`
/// in one walk of the support — bit for bit: each of the two sums keeps
/// [`support_dot`]'s lanes, in the same layout and the same order, so a
/// 2-means pass reads a row once for both centroids (design rule 7 in the
/// module docs).
///
/// # Panics
///
/// Panics if `a` and `b` differ in length, or if an index is `≥` it.
pub fn support_dot_pair(indices: &[u32], values: &[f32], a: &[f32], b: &[f32]) -> (f32, f32) {
    assert_eq!(
        indices.len(),
        values.len(),
        "support indices and values differ in length"
    );
    assert_eq!(a.len(), b.len(), "dot-pair operands differ in length");
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "support indices must ascend strictly"
    );
    let (mut lanes_a, mut lanes_b) = ([0.0f32; LANES], [0.0f32; LANES]);
    for (&i, &v) in indices.iter().zip(values) {
        let i = i as usize;
        lanes_a[i % LANES] += v * a[i];
        lanes_b[i % LANES] += v * b[i];
    }
    (fold_lanes(lanes_a), fold_lanes(lanes_b))
}

/// The supports of a block's rows indexed by column — the operand of
/// [`dots_after`](Self::dots_after), which takes one row's [`dot`]s with
/// every later row, bit for bit, in time proportional to the products the
/// two supports share.
///
/// A row's support is its elements that are not `+0.0` bit for bit (a
/// `−0.0` is a member). Column `c` lists `(row, value)` for every held row
/// with a member at `c`, rows ascending, and each member records its own
/// position in its column, so a row finds the later rows that share a
/// column without a cursor. A row is held only while it is finite (`0 · ∞`
/// is NaN, not a skippable zero) and its support is at most `max_len`
/// long; the caller takes [`dot`] for any pair with a row not held. Every
/// buffer is overwritten by [`rebuild`](Self::rebuild), so an index reused
/// across blocks allocates only to grow.
#[derive(Debug, Default)]
pub struct SupportColumns {
    /// Whether row `r` is held.
    held: Vec<bool>,
    /// Row `r`'s members are `members[row_starts[r]..row_starts[r + 1]]`
    /// (an empty range for a row not held).
    row_starts: Vec<u32>,
    /// Each member's column and its position in `entries`, row after row,
    /// columns ascending within a row.
    members: Vec<(u32, u32)>,
    /// Each member's value, in `members`' order.
    values: Vec<f32>,
    /// Column `c`'s members are `entries[col_starts[c]..col_starts[c + 1]]`.
    col_starts: Vec<u32>,
    /// `(row, value)`, column after column, rows ascending within one.
    entries: Vec<(u32, f32)>,
    /// Each column's fill cursor while `entries` is filled.
    cursors: Vec<u32>,
}

/// Elements per mask of [`SupportColumns::rebuild`]'s scan: one bit each
/// of a `u64`.
const SUPPORT_SCAN_CHUNK: usize = 64;

/// One task's lane accumulators for [`SupportColumns::dots_after`]:
/// `LANES` partial sums per row of the block.
#[derive(Debug, Default)]
pub struct PairLanes(Vec<[f32; LANES]>);

impl SupportColumns {
    /// Indexes the `d`-long `rows` (see the type docs), holding each row
    /// that is finite with a support of at most `max_len` elements.
    ///
    /// # Panics
    ///
    /// Panics if a row is not `d` long, or if the columns, the rows or the
    /// held supports' members cannot be numbered in a `u32`.
    pub fn rebuild<'r>(&mut self, d: usize, rows: impl Iterator<Item = &'r [f32]>, max_len: usize) {
        assert!(u32::try_from(d).is_ok(), "columns are numbered in a u32");
        self.held.clear();
        self.row_starts.clear();
        self.row_starts.push(0);
        self.members.clear();
        self.values.clear();
        // `col_starts[c + 1]` counts column `c`'s members until the
        // prefix sum below.
        self.col_starts.clear();
        self.col_starts.resize(d + 1, 0);
        for row in rows {
            assert_eq!(row.len(), d, "every row of an indexed block is d long");
            let start = self.members.len();
            // One mask bit per element: the test vectorizes, and only the
            // members are walked. A row is given up on once it is past
            // `max_len`.
            for (chunk, xs) in row.chunks(SUPPORT_SCAN_CHUNK).enumerate() {
                let mut members = (xs.iter().enumerate()).fold(0u64, |mask, (e, v)| {
                    mask | (u64::from(v.to_bits() != 0) << e)
                });
                while members != 0 {
                    let e = members.trailing_zeros() as usize;
                    members &= members - 1;
                    self.members
                        .push(((chunk * SUPPORT_SCAN_CHUNK + e) as u32, 0));
                    self.values.push(xs[e]);
                }
                if self.members.len() - start > max_len {
                    break;
                }
            }
            let held =
                self.members.len() - start <= max_len && !has_non_finite(&self.values[start..]);
            if held {
                for &(c, _) in &self.members[start..] {
                    self.col_starts[c as usize + 1] += 1;
                }
            } else {
                self.members.truncate(start);
                self.values.truncate(start);
            }
            self.held.push(held);
            let end = u32::try_from(self.members.len()).expect("fewer than u32::MAX members");
            self.row_starts.push(end);
        }
        for c in 0..d {
            self.col_starts[c + 1] += self.col_starts[c];
        }
        // Rows are filled in ascending order, so every column lists its
        // rows ascending.
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.col_starts[..d]);
        self.entries.clear();
        self.entries.resize(self.members.len(), (0, 0.0));
        for (r, at) in self.row_starts.windows(2).enumerate() {
            let (r, at) = (
                u32::try_from(r).expect("rows are numbered in a u32"),
                at[0] as usize..at[1] as usize,
            );
            for (member, &v) in self.members[at.clone()].iter_mut().zip(&self.values[at]) {
                let cursor = &mut self.cursors[member.0 as usize];
                member.1 = *cursor;
                self.entries[*cursor as usize] = (r, v);
                *cursor += 1;
            }
        }
    }

    /// Whether row `r` of the block is held (see the type docs).
    pub fn holds(&self, r: usize) -> bool {
        self.held[r]
    }

    /// `out[b − a − 1] = dot(row a, row b)` for every later row `b` of the
    /// block, bit for bit [`dot`] over the two rows — a row not held
    /// counting as all `+0.0`, so the caller overwrites those pairs.
    /// `lanes` need not be zeroed: it is the task's scratch.
    ///
    /// Each of `a`'s members, in ascending column order, adds its product
    /// with every later row's member in that column to the lane its column
    /// falls in, `acc[b][c mod LANES] += vₐ·v_b`, and each row's lanes fold
    /// by the halving every fixed-lane reduction ends in. That is [`dot`]'s
    /// lane layout with the terms left out where either row is `+0.0` — a
    /// term `±0.0` added to a lane that started at `+0.0` and so is never
    /// `−0.0` — and IEEE multiplication is commutative, so which row drives
    /// does not matter (design rule 7 in the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `rows − a − 1` long.
    pub fn dots_after(&self, a: usize, lanes: &mut PairLanes, out: &mut [f32]) {
        let rows = self.held.len();
        assert_eq!(out.len(), rows - a - 1, "one dot per later row");
        if lanes.0.len() < rows {
            lanes.0.resize(rows, [0.0; LANES]);
        }
        let acc = &mut lanes.0[..rows];
        acc[a + 1..].fill([0.0; LANES]);
        let at = self.row_starts[a] as usize..self.row_starts[a + 1] as usize;
        for (&(c, q), &va) in self.members[at.clone()].iter().zip(&self.values[at]) {
            let lane = c as usize % LANES;
            let later = q as usize + 1..self.col_starts[c as usize + 1] as usize;
            for &(b, vb) in &self.entries[later] {
                acc[b as usize][lane] += va * vb;
            }
        }
        for (o, row_lanes) in out.iter_mut().zip(&acc[a + 1..]) {
            *o = fold_lanes(*row_lanes);
        }
    }
}

/// `acc[i] += weight · v` over the support: what the dense
/// `acc[i] += weight · x[i]` sweep does to an accumulator that is never
/// `−0.0` (one that started at `+0.0`), for a positive or negative finite
/// `weight` — the elements in between would add `±0.0`.
///
/// # Panics
///
/// Panics if an index is `≥ acc.len()`.
pub fn support_axpy(acc: &mut [f32], weight: f32, indices: &[u32], values: &[f32]) {
    assert_eq!(
        indices.len(),
        values.len(),
        "support indices and values differ in length"
    );
    for (&i, &v) in indices.iter().zip(values) {
        acc[i as usize] += weight * v;
    }
}

/// `out[m×n] = a[m×k] · b[k×n]` where row `r` of `a` is the support
/// vector `rows[r] = (indices, values)` (see [`support_sum_squares`]) —
/// bit for bit what [`matmul_into`] computes for the densified `a` and a
/// finite `b`, in time proportional to the supports.
///
/// The dense kernel adds, per output element, one contracted
/// `a₃v₃ + (a₂v₂ + (a₁v₁ + a₀v₀))` group per four reduction steps
/// (groups start at multiples of 4; the last `k mod 4` steps add singly),
/// ascending. This kernel skips the groups that are all `+0.0`, adds a
/// group's *lone* member as its own product `a₁v₁` — where the dense kernel
/// adds `0·v₃ + (0·v₂ + (a₁v₁ + 0·v₀))`, which differs from it at most in
/// the sign of a zero, and that the accumulator cannot see (the lemma of
/// design rule 7 in the module docs) — over one `b` row instead of four,
/// and evaluates a group of two or more members whole, zeros included, the
/// same expression over the same operands. It walks `k` in the same
/// `KC`-row blocks, outermost, so a block of a tall `b` is swept by every
/// row while it is cache-resident, and a row's visit to a block adds its
/// members to a local 32-wide tile of its output row — loaded and stored
/// once per visit, kept in registers across the members where the dense
/// kernel's row would be reloaded and stored per member (a width that is
/// not a multiple of 32 takes narrower tiles for the rest, each a walk of
/// the members of its own). The tile took the latent stages' 46 953 × 32
/// projection of 231 rows ×0.65–0.76 on uniformly 5 %-dense rows and
/// ×0.74–0.78 on `round_screen`'s own rows (one pinned core, 41
/// alternating samples a side, both in 256-row blocks; 1 024-row blocks
/// take it ×0.86 further with the projection evicted between calls).
///
/// # Panics
///
/// Panics if an index is `≥ k`, or (in debug builds) if the slice lengths
/// do not match the shapes.
pub fn support_matmul_into(
    out: &mut [f32],
    rows: &[(&[u32], &[f32])],
    b: &[f32],
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n, "rhs size mismatch");
    debug_assert_eq!(out.len(), rows.len() * n, "out size mismatch");
    for (indices, values) in rows {
        assert_eq!(
            indices.len(),
            values.len(),
            "support indices and values differ in length"
        );
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "support indices must ascend strictly"
        );
        // Checked here, before any early return: an `n = 0` product reads
        // no `b` row that would catch a stray index.
        assert!(
            indices.iter().fold(0, |max, &i| max.max(i as usize + 1)) <= k,
            "support index out of range for a reduction of length {k}"
        );
    }
    out.fill(0.0);
    if n == 0 {
        return;
    }
    // Steps below `grouped` belong to 4-step groups, the rest add singly.
    let grouped = k - k % 4;
    let mut cursors = vec![0usize; rows.len()];
    for k_end in (0..k).step_by(KC).map(|k0| (k0 + KC).min(k)) {
        for ((&(indices, values), cursor), o) in
            rows.iter().zip(&mut cursors).zip(out.chunks_exact_mut(n))
        {
            let row = Members {
                indices,
                values,
                start: *cursor,
                k_end,
                grouped,
            };
            // 32-wide tiles, then at most one of each narrower width.
            let mut j0 = 0;
            while j0 < n {
                let (next, width) = match n - j0 {
                    32.. => (add_to_tile::<32>(o, j0, &row, b, n), 32),
                    16.. => (add_to_tile::<16>(o, j0, &row, b, n), 16),
                    8.. => (add_to_tile::<8>(o, j0, &row, b, n), 8),
                    4.. => (add_to_tile::<4>(o, j0, &row, b, n), 4),
                    2.. => (add_to_tile::<2>(o, j0, &row, b, n), 2),
                    _ => (add_to_tile::<1>(o, j0, &row, b, n), 1),
                };
                (*cursor, j0) = (next, j0 + width);
            }
        }
    }
}

/// One support row's members in one `KC` block of [`support_matmul_into`]:
/// from `start` on, those whose index is below `k_end`. A 4-step group
/// never straddles a block edge (`KC` is a multiple of 4).
struct Members<'r> {
    indices: &'r [u32],
    values: &'r [f32],
    start: usize,
    k_end: usize,
    /// Steps below this belong to 4-step groups, the rest add singly.
    grouped: usize,
}

/// Adds `row`'s members to the output columns `j0..j0 + W` of its output
/// row `o`, in a local `W`-wide tile loaded and stored once: its width a
/// constant, the tile stays in registers across the members. Returns the
/// cursor past the block.
#[inline(always)]
fn add_to_tile<const W: usize>(
    o: &mut [f32],
    j0: usize,
    row: &Members<'_>,
    b: &[f32],
    n: usize,
) -> usize {
    let window: &mut [f32; W] = (&mut o[j0..j0 + W]).try_into().expect("W columns");
    let mut tile = *window;
    let next = row.add_to(&mut tile, b, n, j0);
    *window = tile;
    next
}

impl Members<'_> {
    /// The members' terms over `b`'s columns `j0..j0 + W`, added to
    /// `tile`: a member alone in its 4-step group, or in the `k mod 4`
    /// tail, adds `a·v` over one `b` row; a group of two or more adds its
    /// [`group_sum`] over the group's four `b` rows (one contiguous slice),
    /// zeros included — in ascending order, as [`support_matmul_into`]
    /// documents.
    #[inline(always)]
    fn add_to<const W: usize>(&self, tile: &mut [f32; W], b: &[f32], n: usize, j0: usize) -> usize {
        let (indices, values) = (self.indices, self.values);
        let mut c = self.start;
        while c < indices.len() && (indices[c] as usize) < self.k_end {
            let i = indices[c] as usize;
            let g0 = i - i % 4;
            // Alone in its group, a member adds its own product like a
            // step of the `k mod 4` tail: one `b` row instead of four.
            let alone = (indices.get(c + 1)).is_none_or(|&next| next as usize >= g0 + 4);
            if i >= self.grouped || alone {
                let (a0, b0): (f32, &[f32; W]) = (
                    values[c],
                    b[i * n + j0..][..W].try_into().expect("W columns"),
                );
                for j in 0..W {
                    tile[j] += a0 * b0[j];
                }
                c += 1;
                continue;
            }
            let mut a = [0.0f32; 4];
            while c < indices.len() && (indices[c] as usize) < g0 + 4 {
                a[indices[c] as usize - g0] = values[c];
                c += 1;
            }
            // Spelled out: an array `map` over fallible conversions stays
            // an out-of-line call that spills the tile.
            let group = &b[g0 * n..(g0 + 4) * n];
            let columns = |step: usize| -> &[f32; W] {
                group[step * n + j0..][..W].try_into().expect("W columns")
            };
            let (v0, v1, v2, v3) = (columns(0), columns(1), columns(2), columns(3));
            for j in 0..W {
                tile[j] += group_sum(a, [v0[j], v1[j], v2[j], v3[j]]);
            }
        }
        c
    }
}

/// One Adam step's scalars, fixed for every element of every tensor:
/// the hyper-parameters and the step's two bias corrections
/// (`bc1 = 1 − β₁ᵗ`, `bc2 = 1 − β₂ᵗ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator offset ε.
    pub eps: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bc1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bc2: f32,
}

/// Adam's element-wise update of one parameter tensor `p` with gradient
/// `g` and moment estimates `m`, `v` (design rule 6 in the module docs):
///
/// ```text
/// m ← flush(β₁·m + (1 − β₁)·g)     flush(x) = 0 if |x| < MIN_POSITIVE, else x
/// v ← β₂·v + ((1 − β₂)·g)·g
/// p ← p − (lr·(m / bc1)) / (√(v / bc2) + ε)
/// ```
///
/// Every element gets exactly the bits of these IEEE operations in
/// exactly this order, so the result does not depend on how many elements
/// share a vector register. The divides by the bias corrections run as
/// products with their `f64` reciprocals, taken once per call, which
/// round to the divides' bits (design rule 6's lemma); the square root
/// and the third divide are true IEEE operations. The flush is a compare
/// and a select (NaN compares false and passes through); it moves no
/// parameter bit above the bound design rule 6 states.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn adam_update(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], step: &AdamStep) {
    assert_eq!(g.len(), p.len(), "gradient and parameter lengths differ");
    assert_eq!(
        m.len(),
        p.len(),
        "first-moment and parameter lengths differ"
    );
    assert_eq!(
        v.len(),
        p.len(),
        "second-moment and parameter lengths differ"
    );
    let AdamStep {
        lr,
        beta1,
        beta2,
        eps,
        bc1,
        bc2,
    } = *step;
    let (r1, r2) = (reciprocal(bc1), reciprocal(bc2));
    for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let m_new = beta1 * *m + (1.0 - beta1) * g;
        *m = if m_new.abs() < f32::MIN_POSITIVE {
            0.0
        } else {
            m_new
        };
        *v = beta2 * *v + (1.0 - beta2) * g * g;
        let m_hat = times_reciprocal(*m, r1);
        let v_hat = times_reciprocal(*v, r2);
        *p -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// `1 / b` in `f64`: the factor [`times_reciprocal`] divides by `b` with.
fn reciprocal(b: f32) -> f64 {
    1.0 / f64::from(b)
}

/// `a / b` for `r = reciprocal(b)`, as a double-width product rounded
/// once to `f32`. For `0 < |b| < 2` it is the bits of `a / b` for every
/// `a`, zeros, infinities and NaN payloads included (design rule 6).
#[inline(always)]
fn times_reciprocal(a: f32, r: f64) -> f32 {
    (f64::from(a) * r) as f32
}

/// Elements per early-exit check of [`has_non_finite`].
const NON_FINITE_CHUNK: usize = 1024;

/// `true` if any element is NaN or ±Inf. Branch-free inside a
/// 1024-element chunk (an integer max over the sign-stripped bit patterns,
/// which vectorizes), with one early-exit test per chunk.
pub fn has_non_finite(a: &[f32]) -> bool {
    const ABS: u32 = 0x7FFF_FFFF;
    const EXPONENT: u32 = 0x7F80_0000;
    a.chunks(NON_FINITE_CHUNK).any(|chunk| {
        let max_abs_bits = chunk.iter().fold(0, |m, v| m.max(v.to_bits() & ABS));
        max_abs_bits >= EXPONENT
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Straightforward triple loop, used as the oracle.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, salt: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
                ((x % 2000) as f32 - 1000.0) / 250.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                "index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_reference_over_shape_grid() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3), // row tail + reduction tail
            (8, 8, 8),
            (6, 9, 2),      // 4-block plus 2-row tail
            (3, 300, 5),    // long reduction
            (4, 17, 130),   // crosses the NC block boundary
            (32, 203, 128), // paper layer 1 shape
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut out = vec![f32::NAN; m * n];
            matmul_into(&mut out, &a, &b, m, k, n);
            assert_close(&out, &reference(&a, &b, m, k, n));
        }
    }

    #[test]
    fn empty_dimensions_yield_zeros() {
        let mut out: Vec<f32> = vec![];
        matmul_into(&mut out, &[], &[], 0, 5, 0);
        assert!(out.is_empty());
        let mut out = vec![1.0f32; 6];
        // k == 0: product of (2x0)·(0x3) is the 2x3 zero matrix.
        matmul_into(&mut out, &[], &[], 2, 0, 3);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transposed_variants_match_reference() {
        for &(m, k, r) in &[(1, 1, 1), (3, 5, 4), (6, 130, 9), (2, 7, 6), (32, 89, 62)] {
            let a = fill(m * k, 3);
            let b = fill(r * k, 4);
            // a · bᵀ  ==  reference(a, transpose(b)).
            let mut bt = vec![0.0f32; k * r];
            for i in 0..r {
                for j in 0..k {
                    bt[j * r + i] = b[i * k + j];
                }
            }
            let mut out = vec![f32::NAN; m * r];
            matmul_transposed_into(&mut out, &a, &b, m, k, r);
            assert_close(&out, &reference(&a, &bt, m, k, r));
        }
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 4), (130, 6, 9), (7, 6, 2), (32, 62, 60)] {
            let a = fill(m * k, 5);
            let b = fill(m * n, 6);
            // aᵀ · b  ==  reference(transpose(a), b).
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for j in 0..k {
                    at[j * m + i] = a[i * k + j];
                }
            }
            let mut out = vec![f32::NAN; k * n];
            transposed_matmul_into(&mut out, &a, &b, m, k, n);
            assert_close(&out, &reference(&at, &b, k, m, n));
        }
    }

    /// `t[c·rows + r] = x[r·cols + c]`, one element at a time.
    fn plain_transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// The transposing wrappers only move values before the one product
    /// kernel runs, so each must equal that kernel on the plainly
    /// transposed operand bit for bit — on shapes straddling the 8-tile
    /// edges and on the paper layers.
    #[test]
    fn transposing_wrappers_are_bitwise_their_matmul() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 9, 5),
            (8, 8, 8),
            (9, 17, 3),
            (32, 62, 60),
            (32, 89, 203),
            (32, 203, 128),
            (203, 32, 128),
        ] {
            let a = fill(m * k, 13);
            let b_rows = fill(n * k, 14);
            let mut wrapped = vec![f32::NAN; m * n];
            matmul_transposed_into(&mut wrapped, &a, &b_rows, m, k, n);
            let mut direct = vec![f32::NAN; m * n];
            matmul_into(&mut direct, &a, &plain_transpose(&b_rows, n, k), m, k, n);
            assert_eq!(bits(&wrapped), bits(&direct), "a·bᵀ at {m}x{k}x{n}");

            let b = fill(m * n, 15);
            let mut wrapped = vec![f32::NAN; k * n];
            transposed_matmul_into(&mut wrapped, &a, &b, m, k, n);
            let mut direct = vec![f32::NAN; k * n];
            matmul_into(&mut direct, &plain_transpose(&a, m, k), &b, k, m, n);
            assert_eq!(bits(&wrapped), bits(&direct), "aᵀ·b at {m}x{k}x{n}");

            let mut t = vec![f32::NAN; m * k];
            transpose_into(&mut t, &a, m, k);
            let plain = plain_transpose(&a, m, k);
            assert_eq!(bits(&t), bits(&plain), "transpose of {m}x{k}");
        }
    }

    /// Blocking the reduction must be bitwise invisible: below, at, just
    /// past and far past the block edge (with and without a `k % 4` tail),
    /// for row counts that take the 4-row main loop, the row tail and both.
    #[test]
    fn k_blocking_is_bitwise_identical_to_the_unblocked_loop() {
        for k in [1, 3, 203, KC - 1, KC, KC + 1, 2 * KC + 5] {
            for m in [1, 3, 4, 17] {
                for n in [5, 32, 130] {
                    let a = fill(m * k, 11);
                    let b = fill(k * n, 12);
                    let mut blocked = vec![f32::NAN; m * n];
                    matmul_into(&mut blocked, &a, &b, m, k, n);
                    let mut unblocked = vec![0.0f32; m * n];
                    matmul_into_direct(&mut unblocked, &a, &b, m, k, n);
                    assert!(
                        blocked == unblocked,
                        "k-blocked and un-blocked kernels diverged bitwise at {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    /// Rows are independent: every row of a product equals that row's
    /// product computed alone, bit for bit, whichever block it shares a
    /// pass with — the 4-row block or a 1-, 2- or 3-row tail block — on
    /// every `k mod 4` tail, past a `KC` edge, at one `NC` column block
    /// and across two edges of them. And a row computed alone is the
    /// documented sum, element by element: `group_sum` per 4-step group in
    /// ascending order, each added with one plain add, then the `k mod 4`
    /// singles. This is what makes a served micro-batch answer exactly
    /// what one offline `predict` of each request would.
    #[test]
    fn every_row_of_a_product_is_that_row_computed_alone() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let by_groups = |a_row: &[f32], b: &[f32], n: usize| -> Vec<f32> {
            let whole = a_row.len() - a_row.len() % 4;
            (0..n)
                .map(|j| {
                    let col = |kk: usize| b[kk * n + j];
                    let mut o = 0.0f32;
                    for (g, a) in a_row[..whole].chunks_exact(4).enumerate() {
                        let v = [col(4 * g), col(4 * g + 1), col(4 * g + 2), col(4 * g + 3)];
                        o += group_sum([a[0], a[1], a[2], a[3]], v);
                    }
                    for (kk, &a) in a_row.iter().enumerate().skip(whole) {
                        o += a * col(kk);
                    }
                    o
                })
                .collect()
        };
        for m in 1..=9 {
            for k in [1, 3, 4, 7, 203, KC + 5] {
                for n in [1, 5, NC, 2 * NC + 3] {
                    let a = fill(m * k, 17);
                    let b = fill(k * n, 18);
                    let mut out = vec![f32::NAN; m * n];
                    matmul_into(&mut out, &a, &b, m, k, n);
                    for (r, (a_row, out_row)) in a.chunks(k).zip(out.chunks(n)).enumerate() {
                        let mut alone = vec![f32::NAN; n];
                        matmul_into(&mut alone, a_row, &b, 1, k, n);
                        assert_eq!(bits(out_row), bits(&alone), "row {r} of {m}x{k}x{n}");
                        if m == 1 {
                            let summed = by_groups(a_row, &b, n);
                            assert_eq!(bits(&alone), bits(&summed), "1x{k}x{n} by groups");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_matches_naive() {
        for len in [0, 1, 3, 4, 7, 64, 203] {
            let a = fill(len, 7);
            let b = fill(len, 8);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-3 * (1.0 + naive.abs()));
        }
    }

    /// The lane layout spelled out in scalar code: term `i` is added to
    /// lane `i mod LANES` in index order, then lanes fold by halving.
    fn lane_layout(terms: impl Iterator<Item = f32>) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for (i, term) in terms.enumerate() {
            lanes[i % LANES] += term;
        }
        let mut width = LANES / 2;
        while width >= 1 {
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
            width /= 2;
        }
        lanes[0]
    }

    /// The fold order is the contract: every reduction kernel must equal
    /// the scalar spelling of the lane layout bit for bit, at every tail
    /// shape and at the paper model's width.
    #[test]
    fn reductions_follow_the_documented_lane_layout() {
        let pairs = |len: usize| (fill(len, 21), fill(len, 22));
        for len in (0..=4 * LANES + 3).chain([2048, 46_953]) {
            let (a, b) = pairs(len);
            let zip = || a.iter().zip(&b);
            assert_eq!(
                dot(&a, &b).to_bits(),
                lane_layout(zip().map(|(x, y)| x * y)).to_bits(),
                "dot, len {len}"
            );
            assert_eq!(
                sum_squares(&a).to_bits(),
                lane_layout(a.iter().map(|x| x * x)).to_bits(),
                "sum_squares, len {len}"
            );
            assert_eq!(sum_squares(&a).to_bits(), dot(&a, &a).to_bits());
            assert_eq!(
                squared_distance(&a, &b).to_bits(),
                lane_layout(zip().map(|(x, y)| (x - y) * (x - y))).to_bits(),
                "squared_distance, len {len}"
            );
            assert_eq!(
                squared_distance_scaled(&a, 0.3, &b, 1.7).to_bits(),
                lane_layout(zip().map(|(x, y)| {
                    let d = 0.3 * x - 1.7 * y;
                    d * d
                }))
                .to_bits(),
                "squared_distance_scaled, len {len}"
            );
            // Unit scales are exact: the scaled kernel degenerates to the
            // plain one.
            assert_eq!(
                squared_distance_scaled(&a, 1.0, &b, 1.0).to_bits(),
                squared_distance(&a, &b).to_bits()
            );
        }
    }

    /// Worst-case rounding of a fixed-lane sum of `len` terms against the
    /// exact (f64) sum: each term carries a few roundings of its own, its
    /// lane adds `⌈len / LANES⌉` times and the fold `log2(LANES)` times,
    /// every step within half an ulp of the running magnitude — so
    /// `|got − exact| ≤ (⌈len / LANES⌉ + log2(LANES) + 4) · ε · Σ|termᵢ|`.
    fn error_bound(len: usize, sum_abs_terms: f64) -> f64 {
        let depth = len.div_ceil(LANES) + LANES.ilog2() as usize + 4;
        depth as f64 * f64::from(f32::EPSILON) * sum_abs_terms
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every kernel against a straight-line f64 reference, at every
        /// length up to four full lane sweeps plus a ragged tail.
        #[test]
        fn reductions_match_an_f64_reference_within_the_stated_bound(
            a in prop::collection::vec(-100.0f32..100.0, 4 * LANES + 3),
            b in prop::collection::vec(-100.0f32..100.0, 4 * LANES + 3),
            sa in 0.0f32..1.0,
            sb in 0.0f32..1.0,
        ) {
            for len in 0..=a.len() {
                let (a, b) = (&a[..len], &b[..len]);
                let wide = || a.iter().zip(b).map(|(&x, &y)| (f64::from(x), f64::from(y)));
                let check = |name: &str, got: f32, terms: Vec<f64>| {
                    let exact: f64 = terms.iter().sum();
                    let bound = error_bound(len, terms.iter().map(|t| t.abs()).sum());
                    prop_assert!(
                        (f64::from(got) - exact).abs() <= bound,
                        "{} at len {}: {} vs {} (bound {})", name, len, got, exact, bound
                    );
                    Ok(())
                };
                check("dot", dot(a, b), wide().map(|(x, y)| x * y).collect())?;
                check("sum_squares", sum_squares(a), wide().map(|(x, _)| x * x).collect())?;
                check(
                    "squared_distance",
                    squared_distance(a, b),
                    wide().map(|(x, y)| (x - y) * (x - y)).collect(),
                )?;
                let (wa, wb) = (f64::from(sa), f64::from(sb));
                check(
                    "squared_distance_scaled",
                    squared_distance_scaled(a, sa, b, sb),
                    wide().map(|(x, y)| (wa * x - wb * y).powi(2)).collect(),
                )?;
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn reductions_reject_mismatched_lengths() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    /// The support `(indices, values)` of `dense`'s first `len` elements:
    /// everything that is not `+0.0` bit for bit (an explicit `-0.0` is a
    /// support element like any other).
    fn support_of(dense: &[f32]) -> (Vec<u32>, Vec<f32>) {
        dense
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(i, &v)| (i as u32, v))
            .unzip()
    }

    /// A row for the support-kernel tests: `values` where `keep[i] <
    /// density`, `+0.0` elsewhere, with every seventh kept element an
    /// explicit `-0.0`.
    fn sparsify(values: &[f32], keep: &[f32], density: f32) -> Vec<f32> {
        values
            .iter()
            .zip(keep)
            .enumerate()
            .map(|(i, (&v, &k))| match (k < density, i % 7) {
                (false, _) => 0.0,
                (true, 0) => -0.0,
                (true, _) => v,
            })
            .collect()
    }

    /// Two k-blocks, four full lane sweeps and a ragged tail that is
    /// ragged for the lanes (`% 32 = 3`) and for the projection's 4-step
    /// groups (`% 4 = 3`) alike.
    const SUPPORT_DIM: usize = 2 * KC + 4 * LANES + 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Design rule 7: each support kernel equals its dense twin over
        /// the densified row, `to_bits`, at every density from empty to
        /// full and at lengths that end in every kind of tail.
        #[test]
        fn support_kernels_match_the_dense_kernels_bitwise(
            values in prop::collection::vec(-100.0f32..100.0, 3 * SUPPORT_DIM),
            keep in prop::collection::vec(0.0f32..1.0, 3 * SUPPORT_DIM),
            other in prop::collection::vec(-100.0f32..100.0, SUPPORT_DIM),
            projection in prop::collection::vec(-1.0f32..1.0, SUPPORT_DIM * 9),
            density in 0.0f32..0.3,
            weight in -1.0f32..1.0,
        ) {
            for len in [0, 1, 3, 4, 5, LANES - 1, LANES, LANES + 1, KC + 1, SUPPORT_DIM - 3, SUPPORT_DIM] {
                // Three rows per length: empty, random and full support.
                let rows: Vec<Vec<f32>> = [0.0, density, 2.0]
                    .iter()
                    .zip(values.chunks(SUPPORT_DIM).zip(keep.chunks(SUPPORT_DIM)))
                    .map(|(&density, (v, k))| sparsify(&v[..len], &k[..len], density))
                    .collect();
                let supports: Vec<(Vec<u32>, Vec<f32>)> = rows.iter().map(|r| support_of(r)).collect();
                prop_assert!(supports[0].0.is_empty());
                prop_assert!(len == 0 || supports[2].0.len() == len);
                let other = &other[..len];
                let other_reversed: Vec<f32> = other.iter().rev().copied().collect();
                let mut dense_acc = vec![0.0f32; len];
                let mut support_acc = vec![0.0f32; len];
                for (row, (indices, vals)) in rows.iter().zip(&supports) {
                    prop_assert_eq!(
                        support_sum_squares(indices, vals).to_bits(),
                        sum_squares(row).to_bits(),
                        "sum_squares, len {}", len
                    );
                    prop_assert_eq!(
                        support_dot(indices, vals, other).to_bits(),
                        dot(row, other).to_bits(),
                        "dot, len {}", len
                    );
                    // The 2-means pass: both centroids in one walk.
                    let (x, y) = support_dot_pair(indices, vals, other, &other_reversed);
                    prop_assert_eq!(
                        (x.to_bits(), y.to_bits()),
                        (
                            support_dot(indices, vals, other).to_bits(),
                            support_dot(indices, vals, &other_reversed).to_bits()
                        ),
                        "dot pair, len {}", len
                    );
                    // The 2-means recentre: members accumulate in order.
                    for (c, v) in dense_acc.iter_mut().zip(row) {
                        *c += weight * v;
                    }
                    support_axpy(&mut support_acc, weight, indices, vals);
                    prop_assert!(same_bits(&support_acc, &dense_acc), "axpy, len {}", len);
                }
                for n in [1, 9] {
                    let b: Vec<f32> = projection.chunks(9).take(len).flat_map(|r| &r[..n]).copied().collect();
                    // Five to seven rows: the dense kernel's 4-row block and
                    // its 1-, 2- and 3-row tails.
                    for m in 5..=7 {
                        let picks = &[1, 0, 2, 1, 1, 2, 0][..m];
                        let a: Vec<f32> = picks.iter().flat_map(|&r| rows[r].iter().copied()).collect();
                        let mut dense_out = vec![f32::NAN; m * n];
                        matmul_into(&mut dense_out, &a, &b, m, len, n);
                        let support_rows: Vec<(&[u32], &[f32])> = picks
                            .iter()
                            .map(|&r| (supports[r].0.as_slice(), supports[r].1.as_slice()))
                            .collect();
                        let mut support_out = vec![f32::NAN; m * n];
                        support_matmul_into(&mut support_out, &support_rows, &b, len, n);
                        prop_assert!(
                            same_bits(&support_out, &dense_out),
                            "matmul, len {}, n {}, rows {}", len, n, m
                        );
                    }
                }
            }
        }
    }

    /// Rows of [`support_matmul_at_every_tile_width`]'s products: the dense
    /// kernel's 4-row block and a 3-row tail.
    const TILE_ROWS: usize = 7;
    /// Its reduction: two `KC` blocks and a `k mod 4 = 3` tail.
    const TILE_K: usize = KC + 64 + 3;
    const TILE_GROUPS: usize = TILE_K / 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// [`support_matmul_into`] against [`matmul_into`] over the
        /// densified rows, `to_bits`, at output widths of one tile, one
        /// tile and a column, two tiles, and widths that take every
        /// narrower tile. Each 4-step group's members follow a drawn
        /// pattern — row 0 runs through all 15 non-empty ones in order —
        /// and every ninth member is `−0.0`; the `k mod 4` tail draws its
        /// members too.
        #[test]
        fn support_matmul_at_every_tile_width(
            patterns in prop::collection::vec(0usize..16, TILE_ROWS * TILE_GROUPS),
            tails in prop::collection::vec(0usize..8, TILE_ROWS),
            values in prop::collection::vec(-100.0f32..100.0, TILE_ROWS * TILE_K),
            b in prop::collection::vec(-1.0f32..1.0, TILE_K * 64),
        ) {
            let a: Vec<f32> = (0..TILE_ROWS * TILE_K)
                .map(|at| {
                    let (r, i) = (at / TILE_K, at % TILE_K);
                    let member = match (r, i / 4) {
                        (_, g) if g == TILE_GROUPS => tails[r] >> (i % 4) & 1 == 1,
                        (0, g) => (g % 15 + 1) >> (i % 4) & 1 == 1,
                        (r, g) => patterns[r * TILE_GROUPS + g] >> (i % 4) & 1 == 1,
                    };
                    match (member, at % 9) {
                        (false, _) => 0.0,
                        (true, 0) => -0.0,
                        (true, _) => values[at],
                    }
                })
                .collect();
            let supports: Vec<(Vec<u32>, Vec<f32>)> = a.chunks(TILE_K).map(support_of).collect();
            let rows: Vec<(&[u32], &[f32])> = supports
                .iter()
                .map(|(indices, values)| (indices.as_slice(), values.as_slice()))
                .collect();
            for n in [1, 3, 31, 32, 33, 64] {
                let b: Vec<f32> = b.chunks(64).flat_map(|row| &row[..n]).copied().collect();
                let mut dense = vec![f32::NAN; TILE_ROWS * n];
                matmul_into(&mut dense, &a, &b, TILE_ROWS, TILE_K, n);
                let mut support = vec![f32::NAN; TILE_ROWS * n];
                support_matmul_into(&mut support, &rows, &b, TILE_K, n);
                prop_assert!(same_bits(&support, &dense), "n {}", n);
            }
        }
    }

    /// Design rule 7's lemma on the operands proptest never draws (its
    /// values come from `−100..100` and `−1..1`, so no product is ever
    /// `±0.0`): every non-empty member pattern of a 4-step group, with
    /// members that are `−0.0`, `b` entries that are `+0.0`, `−0.0` and
    /// negative, products that underflow to a zero of either sign, groups
    /// arriving at an accumulator that is still `+0.0` (the first, and
    /// every one after it when `quiet` makes the leading members `−0.0`),
    /// a reduction of two `KC` blocks (so a group ends on the block edge
    /// and the next starts on it) and a `k mod 4 = 3` tail carrying the
    /// pattern's low bits.
    ///
    /// Mutation note: a kernel that adds the members of a two-member
    /// group to `o` *one by one* (`*o += a0 * v0; *o += a1 * v1;`)
    /// re-associates the group sum and must — and, tried, does — fail this
    /// test; only a member that is alone in its group may add singly.
    #[test]
    fn support_groups_match_the_dense_groups_on_every_member_pattern() {
        const TINY: f32 = 1e-30; // TINY · TINY underflows to ±0.0
        let member_values = [
            -0.0,
            1.5,
            TINY,
            -2.25,
            3.0e-3,
            -TINY,
            1.0,
            4.470_348_4e-8,
            7.0,
            -0.0,
            0.3,
        ];
        let b_values = [
            0.75, -0.0, TINY, -1.25, 0.0, 1.0, -TINY, 0.1, -3.0, 1.0e-3, 0.0, 2.0, -0.0,
        ];
        let k = KC + 8 + 3;
        // Five to seven rows: the dense kernel's 4-row block and its 1-, 2-
        // and 3-row tails.
        for rows in 5..=7 {
            for pattern in 1usize..16 {
                for quiet in [0, 3] {
                    // Row `r`, step `i`: a member where the pattern has bit
                    // `i mod 4`, `-0.0` throughout the first `quiet` groups.
                    let a: Vec<f32> = (0..rows * k)
                        .map(|at| match (at / k, at % k) {
                            (_, i) if pattern >> (i % 4) & 1 == 0 => 0.0,
                            (_, i) if i < 4 * quiet => -0.0,
                            (r, i) => member_values[(3 * i + r) % member_values.len()],
                        })
                        .collect();
                    let supports: Vec<(Vec<u32>, Vec<f32>)> = a.chunks(k).map(support_of).collect();
                    let support_rows: Vec<(&[u32], &[f32])> = supports
                        .iter()
                        .map(|(indices, values)| (indices.as_slice(), values.as_slice()))
                        .collect();
                    assert!(supports.iter().all(|(indices, _)| !indices.is_empty()));
                    for n in [1, 9, 32] {
                        let b: Vec<f32> = (0..k * n)
                            .map(|at| b_values[(5 * (at / n) + 7 * (at % n)) % b_values.len()])
                            .collect();
                        let mut dense_out = vec![f32::NAN; rows * n];
                        matmul_into(&mut dense_out, &a, &b, rows, k, n);
                        let mut support_out = vec![f32::NAN; rows * n];
                        support_matmul_into(&mut support_out, &support_rows, &b, k, n);
                        assert!(
                            same_bits(&support_out, &dense_out),
                            "pattern {pattern:04b}, quiet {quiet}, n {n}, rows {rows}"
                        );
                        assert!(dense_out.iter().all(|v| v.is_finite()));
                    }
                }
            }
        }
    }

    /// The invariant rule 7's lemma stands on — an output element is never
    /// `−0.0` — against the one product that could break it: a lone
    /// member whose product underflows to `−0.0`, at every position of a
    /// group and in the `k mod 4` tail, as the element's first and only
    /// contribution. The group sum may be `−0.0`; the plain `o += G`
    /// turns it into `+0.0`, in both kernels. (Accumulating straight into
    /// `o` with `o = a.mul_add(v, o)` leaves `o` at `−0.0` here, and a
    /// later non-member step of the dense kernel, `+0·v + −0.0 = +0.0`,
    /// makes the two kernels disagree.)
    #[test]
    fn an_underflowing_negative_product_leaves_no_negative_zero() {
        const TINY: f32 = 1e-30;
        for k in [4, 8, 7] {
            for member in 0..k {
                let mut a = vec![0.0f32; k];
                a[member] = -TINY;
                let n = 3;
                let b: Vec<f32> = (0..k * n)
                    .map(|at| if at / n == member { TINY } else { 1.0 })
                    .collect();
                let mut dense = vec![f32::NAN; n];
                matmul_into(&mut dense, &a, &b, 1, k, n);
                let (indices, values) = support_of(&a);
                let mut support = vec![f32::NAN; n];
                support_matmul_into(&mut support, &[(&indices, &values)], &b, k, n);
                for (kernel, out) in [("dense", &dense), ("support", &support)] {
                    assert!(
                        out.iter().all(|v| v.to_bits() == 0),
                        "{kernel}, k {k}, member {member}: {out:?} is not +0.0"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn support_dot_rejects_an_index_past_the_operand() {
        support_dot(&[1, 4], &[1.0, 2.0], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn support_dot_pair_rejects_an_index_past_the_operands() {
        support_dot_pair(&[1, 4], &[1.0, 2.0], &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn support_axpy_rejects_an_index_past_the_accumulator() {
        support_axpy(&mut [0.0; 4], 0.5, &[4], &[1.0]);
    }

    /// Past `k` in the grouped range and in the `k mod 4` tail alike.
    #[test]
    #[should_panic(expected = "out of range")]
    fn support_matmul_rejects_an_index_past_the_reduction() {
        let mut out = [0.0; 2];
        support_matmul_into(&mut out, &[(&[6], &[1.0])], &[1.0; 12], 6, 2);
    }

    /// An empty output (`n = 0`) reads no `b` row, and the index is
    /// rejected all the same.
    #[test]
    #[should_panic(expected = "out of range")]
    fn support_matmul_rejects_an_index_past_the_reduction_when_n_is_zero() {
        support_matmul_into(&mut [], &[(&[6], &[1.0])], &[], 6, 0);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn support_kernels_reject_mismatched_supports() {
        support_sum_squares(&[0, 1], &[1.0]);
    }

    /// The parent's update loop, verbatim: one index into four separately
    /// bounds-checked buffers. The oracle [`adam_update`] is pinned to.
    fn adam_update_indexed(
        ps: &mut [f32],
        gs: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        step: &AdamStep,
    ) {
        let (lr, beta1, beta2, eps) = (step.lr, step.beta1, step.beta2, step.eps);
        let (bc1, bc2) = (step.bc1, step.bc2);
        for i in 0..ps.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * gs[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * gs[i] * gs[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            ps[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Step `t` of an `Adam::new(lr)` run, bias corrections as
    /// `Adam::step_stream` computes them.
    fn adam_step(lr: f32, t: i32) -> AdamStep {
        let (beta1, beta2) = (0.9f32, 0.999f32);
        AdamStep {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            bc1: 1.0 - beta1.powi(t),
            bc2: 1.0 - beta2.powi(t),
        }
    }

    /// Step `t`'s gradient: ordinary values with the edge classes mixed in
    /// by position, rotating so every element meets every class — `±0`,
    /// values whose squares are subnormal (`1e-20` scale) or flush to zero
    /// (`1e-22` scale), and `1e6`-scale outliers.
    fn edge_gradients(len: usize, t: usize) -> Vec<f32> {
        let mut g = fill(len, 40 + t as u64);
        for (i, x) in g.iter_mut().enumerate() {
            match (i + t) % 11 {
                0 => *x = 0.0,
                1 => *x = -0.0,
                2 => *x *= 1e-20,
                3 => *x *= 1e-22,
                4 => *x *= 1e6,
                _ => {}
            }
        }
        g
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The rule [`adam_update`] applies to a new first moment.
    fn flush(x: f32) -> f32 {
        if x.abs() < f32::MIN_POSITIVE {
            0.0
        } else {
            x
        }
    }

    fn flushed(m: &[f32]) -> Vec<f32> {
        m.iter().copied().map(flush).collect()
    }

    /// `steps` consecutive updates of the kernel and the indexed oracle on
    /// one gradient stream, compared after every step: parameters and
    /// second moments bit for bit, the kernel's first moments against the
    /// oracle's flushed. From step 6 on the gradient of every element
    /// `dead` selects is exactly `±0.0`. Returns both first-moment buffers
    /// `(kernel, oracle)` as they stand at the end.
    fn run_against_the_indexed_loop(
        len: usize,
        steps: usize,
        dead: impl Fn(usize) -> bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut p = fill(len, 41);
        let (mut m, mut v) = (vec![0.0f32; len], vec![0.0f32; len]);
        let (mut p_ref, mut m_ref, mut v_ref) = (p.clone(), m.clone(), v.clone());
        for t in 1..=steps {
            let mut g = edge_gradients(len, t);
            if t > 5 {
                for (i, x) in g.iter_mut().enumerate().filter(|(i, _)| dead(*i)) {
                    *x = if (i + t).is_multiple_of(2) { 0.0 } else { -0.0 };
                }
            }
            let step = adam_step(1e-3, t as i32);
            adam_update(&mut p, &g, &mut m, &mut v, &step);
            adam_update_indexed(&mut p_ref, &g, &mut m_ref, &mut v_ref, &step);
            assert!(same_bits(&p, &p_ref), "p, len {len}, step {t}");
            assert!(same_bits(&m, &flushed(&m_ref)), "m, len {len}, step {t}");
            assert!(same_bits(&v, &v_ref), "v, len {len}, step {t}");
        }
        assert!(!has_non_finite(&p), "len {len}");
        (m, m_ref)
    }

    /// Each vector lane must compute exactly what the scalar loop did:
    /// parameters and second moments equal the indexed oracle's bit for
    /// bit after every step, first moments equal the oracle's flushed, at
    /// every length around the vector widths and at the paper model's
    /// largest tensor and flat width — and through the stuck regime, where
    /// the oracle's first moments *are* subnormal and the kernel's are
    /// zero.
    #[test]
    fn adam_update_is_bitwise_identical_to_the_indexed_loop() {
        // The subnormal path is exercised, not just intended.
        assert!(edge_gradients(64, 1)
            .iter()
            .any(|g| ((1.0 - 0.999f32) * g * g).is_subnormal()));
        for len in (0..=67).chain([25_984, 46_953]) {
            run_against_the_indexed_loop(len, 60, |_| false);
        }
        // A dead unit's weights: five live steps, then a gradient of
        // exactly ±0.0. `0.9ᵗ` takes a `1e6`-scale moment below
        // `MIN_POSITIVE` within ~960 steps, and it never leaves: `0.9·m`
        // rounds back to `m` at four subnormal ulps.
        let dead = |i: usize| i.is_multiple_of(3);
        for len in [1, 8, 33, 67] {
            let (m, m_ref) = run_against_the_indexed_loop(len, 1200, dead);
            for i in (0..len).filter(|&i| dead(i)) {
                assert!(m_ref[i].is_subnormal(), "oracle m[{i}] = {:e}", m_ref[i]);
                assert_eq!(m[i].to_bits(), 0, "kernel m[{i}] = {:e}", m[i]);
            }
        }
    }

    /// Equal bit for bit, or both NaN (which payload a NaN carries out of
    /// an addition of two is the compiler's operand order, not the
    /// kernel's contract).
    fn same_float(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Design rule 6's one-step lemma, element by element, from the state
    /// `(p, g, m, v)` with `v ≥ 0`: against the un-flushed parent formulas
    /// (`adam_update_indexed`), `v′` is equal bit for bit, `m′` is the
    /// parent's flushed, and `p′` is equal bit for bit unless the parent's
    /// `m′` was flushed *and* `|p| ≤ 2²⁵·U`, where it is within `2U`.
    /// `U = (lr·(MIN_POSITIVE / bc1)) / eps`, evaluated in `f32` as the
    /// kernel would, bounds the update the parent subtracts there: each
    /// of its operations is monotone and its denominator is at least
    /// `eps`.
    fn check_one_step_lemma(
        step: &AdamStep,
        p: &[f32],
        g: &[f32],
        m: &[f32],
        v: &[f32],
    ) -> Result<(), TestCaseError> {
        let (mut p_got, mut m_got, mut v_got) = (p.to_vec(), m.to_vec(), v.to_vec());
        adam_update(&mut p_got, g, &mut m_got, &mut v_got, step);
        let (mut p_ref, mut m_ref, mut v_ref) = (p.to_vec(), m.to_vec(), v.to_vec());
        adam_update_indexed(&mut p_ref, g, &mut m_ref, &mut v_ref, step);
        let u_max = f64::from(step.lr * (f32::MIN_POSITIVE / step.bc1) / step.eps);
        let bound = f64::from(1u32 << 25) * u_max;
        for i in 0..p.len() {
            let state = format!(
                "[{i}] p {:e} g {:e} m {:e} v {:e}, {step:?}",
                p[i], g[i], m[i], v[i]
            );
            prop_assert!(
                same_float(v_got[i], v_ref[i]),
                "v′ {:e} vs {:e} at {}",
                v_got[i],
                v_ref[i],
                state
            );
            prop_assert!(
                same_float(m_got[i], flush(m_ref[i])),
                "m′ {:e} vs parent {:e} at {}",
                m_got[i],
                m_ref[i],
                state
            );
            let was_flushed = m_ref[i].abs() < f32::MIN_POSITIVE;
            if was_flushed && f64::from(p[i].abs()) <= bound {
                let gap = (f64::from(p_got[i]) - f64::from(p_ref[i])).abs();
                prop_assert!(
                    gap <= 2.0 * u_max,
                    "p′ {:e} vs {:e} (2U = {:e}) at {}",
                    p_got[i],
                    p_ref[i],
                    2.0 * u_max,
                    state
                );
            } else {
                prop_assert!(
                    same_float(p_got[i], p_ref[i]),
                    "p′ {:e} vs {:e} (bound {:e}) at {}",
                    p_got[i],
                    p_ref[i],
                    bound,
                    state
                );
            }
        }
        Ok(())
    }

    /// Elements per lemma case: every first-moment class meets every
    /// gradient class and every parameter class once.
    const LEMMA_LEN: usize = 8 * 5 * 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lemma over ordinary states with the edge classes laid over
        /// them by position: first moments that are `±0.0`, subnormal,
        /// NaN, or sit where `β₁·m` lands on either side of
        /// `MIN_POSITIVE`; gradients that are `±0.0`, subnormal or
        /// `1e6`-scale; parameters that are `±0.0` or straddle the bound
        /// (`≈ 4e-27 … 8e-23` over these learning rates); second moments
        /// that are zero or subnormal.
        #[test]
        fn flushing_the_first_moment_moves_no_parameter_bit_above_the_bound(
            p in prop::collection::vec(-100.0f32..100.0, LEMMA_LEN),
            g in prop::collection::vec(-100.0f32..100.0, LEMMA_LEN),
            m in prop::collection::vec(-100.0f32..100.0, LEMMA_LEN),
            v in prop::collection::vec(0.0f32..1e4, LEMMA_LEN),
            lr in 1e-4f32..0.2,
            t in 1i32..=2000,
        ) {
            let largest_subnormal = f32::from_bits(f32::MIN_POSITIVE.to_bits() - 1);
            let m: Vec<f32> = m
                .iter()
                .enumerate()
                .map(|(i, &x)| match i % 8 {
                    0 => x,
                    1 => 0.0,
                    2 => -0.0,
                    3 => f32::from_bits(1).copysign(x),
                    4 => largest_subnormal.copysign(x),
                    5 => f32::NAN,
                    6 => x * 1e-37,
                    _ => (f32::MIN_POSITIVE / 0.9).copysign(x),
                })
                .collect();
            let g: Vec<f32> = g
                .iter()
                .enumerate()
                .map(|(i, &x)| match i / 8 % 5 {
                    0 => x,
                    1 => 0.0,
                    2 => -0.0,
                    3 => x * 1e-40,
                    _ => x * 1e6,
                })
                .collect();
            let p: Vec<f32> = p
                .iter()
                .enumerate()
                .map(|(i, &x)| match i / 40 % 5 {
                    0 => x,
                    1 => 0.0,
                    2 => -0.0,
                    3 => x * 1e-26,
                    _ => x * 1e-23,
                })
                .collect();
            let v: Vec<f32> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| match i % 7 {
                    0 => 0.0,
                    1 => x * 1e-44,
                    _ => x,
                })
                .collect();
            prop_assert!(m.iter().any(|x| x.is_subnormal()) && v.iter().any(|x| x.is_subnormal()));
            check_one_step_lemma(&adam_step(lr, t), &p, &g, &m, &v)?;
        }
    }

    /// The threshold is strict: a first moment landing exactly on
    /// `MIN_POSITIVE` is a normal number and is kept; one ulp below is
    /// flushed.
    #[test]
    fn a_first_moment_landing_on_min_positive_is_kept() {
        let step = AdamStep {
            beta1: 0.5,
            ..adam_step(1e-3, 7)
        };
        let largest_subnormal = f32::from_bits(f32::MIN_POSITIVE.to_bits() - 1);
        let m = [
            2.0 * f32::MIN_POSITIVE,
            -2.0 * f32::MIN_POSITIVE,
            2.0 * largest_subnormal,
        ];
        let (p, g, v) = ([1.0f32, -1e-30, 0.0], [0.0f32, -0.0, 0.0], [0.5f32; 3]);
        check_one_step_lemma(&step, &p, &g, &m, &v).expect("lemma");
        let (mut p, mut m, mut v) = (p, m, v);
        adam_update(&mut p, &g, &mut m, &mut v, &step);
        assert_eq!(m[0].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert_eq!(m[1].to_bits(), (-f32::MIN_POSITIVE).to_bits());
        assert_eq!(m[2].to_bits(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One update from an arbitrary optimizer state against the same
        /// formulas in f64. With `ε = f32::EPSILON`, `S_m = |β₁m| + |(1−β₁)g|`,
        /// `S_v = β₂v + (1−β₂)g²`, `D = √(v′/bc2) + eps` and
        /// `A = (lr/bc1)·S_m / D` (the update's size without cancellation
        /// in `m′`), counting half an ulp per f32 operation gives
        /// `|m′ − exact| ≤ 2ε·S_m`, `|v′ − exact| ≤ 3ε·S_v` and
        /// `|p′ − exact| ≤ 8ε·(|p| + A)`. The input ranges keep every
        /// intermediate normal, where that rounding model holds.
        #[test]
        fn adam_update_matches_an_f64_reference_within_the_stated_bound(
            p in prop::collection::vec(-100.0f32..100.0, 67),
            g in prop::collection::vec(-100.0f32..100.0, 67),
            m in prop::collection::vec(-100.0f32..100.0, 67),
            v in prop::collection::vec(0.0f32..1e4, 67),
            lr in 1e-4f32..1e-1,
            t in 1i32..2000,
        ) {
            let step = adam_step(lr, t);
            let (mut p_got, mut m_got, mut v_got) = (p.clone(), m.clone(), v.clone());
            adam_update(&mut p_got, &g, &mut m_got, &mut v_got, &step);
            let eps32 = f64::from(f32::EPSILON);
            let [lr, beta1, beta2, eps, bc1, bc2] =
                [step.lr, step.beta1, step.beta2, step.eps, step.bc1, step.bc2].map(f64::from);
            for i in 0..p.len() {
                let [p, g, m, v] = [p[i], g[i], m[i], v[i]].map(f64::from);
                let m_exact = beta1 * m + (1.0 - beta1) * g;
                let v_exact = beta2 * v + (1.0 - beta2) * g * g;
                let denom = (v_exact / bc2).sqrt() + eps;
                let p_exact = p - lr * (m_exact / bc1) / denom;
                let s_m = (beta1 * m).abs() + ((1.0 - beta1) * g).abs();
                let spread = lr / bc1 * s_m / denom;
                prop_assert!(
                    (f64::from(m_got[i]) - m_exact).abs() <= 2.0 * eps32 * s_m,
                    "m[{}]: {} vs {}", i, m_got[i], m_exact
                );
                prop_assert!(
                    (f64::from(v_got[i]) - v_exact).abs() <= 3.0 * eps32 * v_exact,
                    "v[{}]: {} vs {}", i, v_got[i], v_exact
                );
                prop_assert!(
                    (f64::from(p_got[i]) - p_exact).abs() <= 8.0 * eps32 * (p.abs() + spread),
                    "p[{}]: {} vs {}", i, p_got[i], p_exact
                );
            }
        }
    }

    /// One update over zeroed buffers of the given lengths.
    fn adam_update_with_lengths(p: usize, g: usize, m: usize, v: usize) {
        let (mut p, g) = (vec![0.0; p], vec![0.0; g]);
        let (mut m, mut v) = (vec![0.0; m], vec![0.0; v]);
        adam_update(&mut p, &g, &mut m, &mut v, &adam_step(1e-3, 1));
    }

    #[test]
    #[should_panic(expected = "gradient and parameter lengths differ")]
    fn adam_update_rejects_a_short_gradient() {
        adam_update_with_lengths(3, 2, 3, 3);
    }

    #[test]
    #[should_panic(expected = "first-moment and parameter lengths differ")]
    fn adam_update_rejects_a_short_first_moment() {
        adam_update_with_lengths(3, 3, 2, 3);
    }

    /// The parent indexed `v[i]` without ever checking `v.len()`.
    #[test]
    #[should_panic(expected = "second-moment and parameter lengths differ")]
    fn adam_update_rejects_a_short_second_moment() {
        adam_update_with_lengths(3, 3, 3, 2);
    }

    /// The operands `a` among `a_bits` (raw `f32` bit patterns) whose
    /// reciprocal product with `b` differs from `a / b` in any bit, NaN
    /// payloads included.
    fn product_mismatches(b: f32, a_bits: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let r = reciprocal(b);
        a_bits
            .into_iter()
            .filter(|&bits| {
                let a = f32::from_bits(bits);
                times_reciprocal(a, r).to_bits() != (a / b).to_bits()
            })
            .collect()
    }

    /// `1 − βᵗ` for both of `Adam::new`'s betas.
    fn bias_corrections_at(t: i32) -> [f32; 2] {
        let step = adam_step(1e-3, t);
        [step.bc1, step.bc2]
    }

    /// The operands a raw-bits draw almost never hits, both signs: zero,
    /// the three smallest and the largest subnormal, `MIN_POSITIVE`,
    /// `MAX`, infinity, and quiet and signalling NaNs with empty, low and
    /// full payloads.
    fn special_operands() -> Vec<u32> {
        let magnitudes = [
            0,
            1,
            2,
            3,
            f32::MIN_POSITIVE.to_bits() - 1,
            f32::MIN_POSITIVE.to_bits(),
            f32::MAX.to_bits(),
            f32::INFINITY.to_bits(),
            0x7FC0_0000,
            0x7FC0_0001,
            0x7FFF_FFFF,
            0x7F80_0001,
            0x7FA0_0000,
            0x7FBF_FFFF,
        ];
        let sign = 0x8000_0000;
        magnitudes.iter().flat_map(|&m| [m, m | sign]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Design rule 6's reciprocal lemma: for every bias correction of
        /// `Adam::new`'s betas over the first 10 000 steps, and for an
        /// arbitrary positive finite divisor below 2, the product with the
        /// `f64` reciprocal has the divide's bits — for raw bit patterns
        /// of `a` (NaNs of every payload among them) and the specials.
        #[test]
        fn bias_correction_products_round_like_the_divides(
            a in prop::collection::vec(0u32..=u32::MAX, 64),
            b in prop::collection::vec(1u32..2.0f32.to_bits(), 16),
        ) {
            let a: Vec<u32> = a.into_iter().chain(special_operands()).collect();
            let mut divisors: Vec<f32> = (1..=10_000).flat_map(bias_corrections_at).collect();
            divisors.extend(b.into_iter().map(f32::from_bits));
            divisors.sort_by(f32::total_cmp);
            divisors.dedup();
            for b in divisors {
                let bad = product_mismatches(b, a.iter().copied());
                prop_assert!(bad.is_empty(), "b {:e}: a bits {:x?}", b, bad);
            }
        }
    }

    /// The twin of the proptest above over every `f32` `a`, against the
    /// bias corrections of both betas at four steps. ~75 s in the
    /// release profile.
    #[test]
    #[ignore = "walks all 2³² operands eight times; run with --release -- --ignored"]
    fn bias_correction_products_round_like_the_divides_for_every_operand() {
        for t in [1, 2, 3, 40] {
            for b in bias_corrections_at(t) {
                let bad = product_mismatches(b, 0..=u32::MAX);
                assert!(bad.is_empty(), "t {t}, b {b:e}: {} operands", bad.len());
            }
        }
    }

    /// The lemma's `|b| < 2` is needed: `0x272e5 / 24 690` is exactly
    /// `6.5 · 2⁻¹⁴⁹`, a subnormal midpoint the divide rounds to even while
    /// the product, a hair above it, rounds up.
    #[test]
    fn a_divisor_of_two_or_more_can_split_a_subnormal_tie() {
        let (a, b) = (f32::from_bits(0x272e5), 24_690.0f32);
        assert_eq!((a / b).to_bits(), 6);
        assert_eq!(times_reciprocal(a, reciprocal(b)).to_bits(), 7);
        assert_eq!(product_mismatches(b, [0x272e5]), [0x272e5]);
    }

    /// A lone NaN / ±Inf must be found wherever it sits — first, last, and
    /// both sides of every chunk boundary — and nothing else may trip it.
    #[test]
    fn has_non_finite_finds_a_lone_bad_value_at_every_chunk_edge() {
        let len = 3 * NON_FINITE_CHUNK + 17;
        let mut v = fill(len, 31);
        v[7] = f32::MAX;
        v[8] = f32::MIN_POSITIVE / 2.0; // subnormal
        v[9] = -0.0;
        assert!(!has_non_finite(&v));
        assert!(!has_non_finite(&[]));
        let mut edges = vec![0, len - 1];
        for boundary in (NON_FINITE_CHUNK..len).step_by(NON_FINITE_CHUNK) {
            edges.extend([boundary - 1, boundary]);
        }
        for &at in &edges {
            for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let clean = std::mem::replace(&mut v[at], bad);
                assert!(has_non_finite(&v), "missed {bad} at index {at}");
                v[at] = clean;
            }
        }
        assert!(!has_non_finite(&v));
    }
}
