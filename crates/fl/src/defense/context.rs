//! The shared, lazily-built quantities one defense round computes once.
//!
//! Every screening stage and combiner reads the same per-round facts —
//! update deltas, their norms, pairwise distances. Before the pipeline
//! redesign each monolithic aggregator recomputed its own copy (Krum its
//! distance set, clustering its delta flattening, the latent filter its
//! own delta-flatten pass). A [`RoundContext`] owns all of them behind
//! lazy cells: the first stage that needs a quantity pays for it, every
//! later stage reads it for free, and compositions like
//! `cluster → latent-screen` share one delta pass instead of two.
//!
//! # Exact vs. sampled screening distances
//!
//! Rounds of up to [`EXACT_SCREEN_MAX`] updates use the exact distance
//! paths — every pair over every coordinate, bitwise-pinned by
//! `tests/round_lifecycle.rs` (every paper-scale cohort is far below the
//! threshold). Larger rounds switch to a *sampled* estimate: each delta is
//! reduced to a deterministic stride subsample of
//! [`SCREEN_SAMPLE_DIM`] coordinates laid out as one contiguous `n × d′`
//! block, pairwise distances are computed blockwise on it, and squared-L2
//! values are rescaled by `d/d′` (cosine needs no rescale — both norms
//! shrink together). No RNG is involved, so sampled rounds stay
//! bitwise-identical for any thread count. This keeps Krum/Cluster-style
//! screening `O(n²·d′)` instead of `O(n²·d)` at city-scale cohorts.
//!
//! The sampled block reads its coordinates *in place or through the
//! view*. The stride is resolved to `(tensor, offset)` once; a row whose
//! support already sits in a built delta view (see below) is filled from
//! there — each support entry that a pick samples written into a zeroed
//! row, the stored `LM − GM` being the very subtraction the in-place read
//! performs and every pick outside the support `x − x = +0.0` — and every
//! other row subtracts only its `d′` picked elements where they lie,
//! strided across the 188 KB LM. Either way there is no delta pass and
//! the `n × d` block is never materialized. The block *uses* a view, it
//! never *asks* for one: stage zero of every pipeline has built it before
//! any stage can want a distance, so pipelines fill sparse rows at wire
//! density (2–3 k contiguous support entries looked up instead of 2 048
//! cache misses), while a bare context that is only ever asked for
//! distances does not pay a discovery pass to save a gather. Clip-scaled
//! distances ([`RoundContext::with_squared_l2_scaled`], what Krum ranks
//! once a stage has clipped anything) obey the same exact / sampled split;
//! an attacker who gets itself clipped cannot push the server back onto
//! the `O(n²·d)` path. The sampled cosine matrix takes each pair's dot
//! product over the block's own supports
//! ([`DistanceMatrix::cosine_over_supports_into`]), bit for bit the dense
//! one.
//!
//! # Dense vs. sparse rows
//!
//! City-scale rounds ship `TopK` deltas, and the server re-materializes
//! each as a full LM — so `LM − GM` is exactly `+0.0` on 95 % of a row's
//! coordinates, and an `n × d` block of such rows is 48 MB of zeros swept
//! from DRAM by every stage. [`RoundContext::delta_rows`] is therefore the
//! one way to read deltas, and each of its rows is stored the way the row
//! turned out: a plain `d`-long slice, or its *support* — the coordinates
//! where `LM.to_bits() != GM.to_bits()`, as `(index, LM − GM, LM)` — when
//! that is at most ⅛ of the row (the measured break-even; discovery stops
//! at the first coordinate past it, so a dense row costs what it always
//! did plus an eighth of one comparison pass). The choice is per row: one
//! dense upload among sparse ones is one dense row.
//!
//! *Discovered, never declared.* The support is found by comparing bits,
//! in the pass that would otherwise have built the block.
//! [`ClientUpdate::repr`](crate::ClientUpdate) is what the client *says*
//! it sent; no stage, combiner or line of this module reads it. An update
//! that claims `TopK` and differs everywhere is a dense row; a `Dense`
//! upload that happens to move few coordinates is a sparse one.
//!
//! *Bitwise invisible.* Where the bits agree and the GM is finite,
//! `x − x` is `+0.0`. Every consumer is a sum that starts at `+0.0`: a
//! norm's or a dot's lane, a 2-means centroid coordinate, a projected
//! feature. In round-to-nearest `x + y` is `−0.0` only when *both*
//! operands are, so such an accumulator is never `−0.0`, and adding a
//! `+0.0 · y = ±0.0` term — or a 4-step projection group of them — to
//! anything else returns it unchanged: the adds the support kernels skip
//! were identities (`safeloc_nn::kernels`, design rule 7). Coordinates
//! that differ only as `−0.0` vs `+0.0` differ in bits, so they are *in*
//! the support and go through the arithmetic like any other value. The
//! coordinate-wise combiners see a sparse row's column entry as the GM's
//! own value there (it *is* that value, bit for bit) and sort only what
//! differs. The two cases where a skipped term would not have been `±0.0`
//! — a non-finite GM coordinate (`x − x = NaN`) and a finite LM whose
//! delta overflows (`0 · ∞ = NaN` once it reaches a centroid) — are
//! detected in the discovery pass and store the whole round dense.
//! `fl/src/defense/oracles.rs` pins view == dense block, decisions and GM,
//! `to_bits`.
//!
//! The dense rows' block is built when a stage first *reads* a dense row:
//! a round that only asks which rows are sparse (the non-finite guard, the
//! coordinate-wise combiners) never materializes it.
//!
//! # Buffer reuse
//!
//! The dense rows' delta block (48 MB at 256 dense paper-sized updates),
//! the sparse rows' compact buffers, the `n × d′` sampled block (2 MB at
//! 256 updates, 8 MB at 1 024) and the
//! O(n²) distance triangles are the round's largest screening
//! allocations; a [`DistanceScratch`] carries them across rounds
//! ([`RoundContext::with_scratch`] → [`RoundContext::reclaim_scratch`]),
//! so steady-state rounds reallocate — and page-fault — nothing. Reuse
//! never changes a value: every buffer is cleared or fully overwritten
//! before it is read, so warm-scratch rounds are bitwise-identical to cold
//! ones whatever the previous round's size or model width.

use crate::defense::rows::{DeltaRows, RowBuffers};
use crate::defense::DistanceMatrix;
use crate::update::ClientUpdate;
use rayon::prelude::*;
use safeloc_nn::{kernels, Matrix, NamedParams};
use std::borrow::Cow;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Largest round screened through the exact distance paths; bigger rounds
/// use the deterministic coordinate subsample (see the module docs).
pub const EXACT_SCREEN_MAX: usize = 64;

/// Coordinate budget per update for sampled screening distances.
pub const SCREEN_SAMPLE_DIM: usize = 2048;
const _: () = assert!(
    SCREEN_SAMPLE_DIM < u16::MAX as usize,
    "`sampled_delta_block` numbers the picks in a `u16`"
);

/// Reusable buffers for the per-round delta view (the dense rows' block
/// and the sparse rows' compact `(index, LM − GM, LM)` buffers), the
/// sampled block and the O(n²) distance triangles, carried across rounds
/// by the owning pipeline.
/// Deliberately not `Clone`: the buffers are a cache, and a cloned
/// pipeline starts cold rather than copying tens of megabytes of recycled
/// block.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    delta_rows: RowBuffers,
    sampled: Vec<f32>,
    squared_l2: Vec<f32>,
    squared_l2_scaled: Vec<f32>,
    cosine: Vec<f32>,
}

#[cfg(test)]
impl DistanceScratch {
    /// Total elements held across the recycled buffers (0 for a cold
    /// scratch).
    pub(crate) fn capacity(&self) -> usize {
        [
            &self.sampled,
            &self.squared_l2,
            &self.squared_l2_scaled,
            &self.cosine,
        ]
        .iter()
        .map(|b| b.capacity())
        .sum::<usize>()
            + self.delta_rows.capacity()
    }
}

/// The `n × d′` stride-subsampled delta block sampled screening computes
/// distances on.
struct SampledDeltas {
    block: Matrix,
    /// `d / d′` — the unbiased rescale for sampled squared distances.
    scale: f32,
}

/// Read-only facts about one aggregation round, built lazily and shared by
/// every [`DefenseStage`](crate::defense::DefenseStage) and
/// [`Combiner`](crate::defense::Combiner) in a pipeline.
///
/// The context never mutates updates; stages record their conclusions in
/// the round's [`Verdicts`](crate::defense::Verdicts) instead.
pub struct RoundContext<'a> {
    global: &'a NamedParams,
    updates: &'a [&'a ClientUpdate],
    delta_rows: OnceLock<DeltaRows<'a>>,
    raw_norms: OnceLock<Vec<f32>>,
    squared_l2: OnceLock<DistanceMatrix>,
    cosine: OnceLock<DistanceMatrix>,
    sampled: OnceLock<SampledDeltas>,
    scratch: Mutex<DistanceScratch>,
    /// Screen through the exact distance paths at any round size: set
    /// from [`screening_exactly`] at construction, test builds only.
    #[cfg(test)]
    exact_forced: bool,
}

#[cfg(test)]
thread_local! {
    static EXACT_FORCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`RoundContext`] built on this thread screening
/// through the exact distance paths, whatever its size — the reference
/// the sampled paths above [`EXACT_SCREEN_MAX`] are compared against. Not
/// a knob: test builds only.
#[cfg(test)]
pub(crate) fn screening_exactly<R>(f: impl FnOnce() -> R) -> R {
    EXACT_FORCED.with(|forced| forced.set(true));
    let out = f();
    EXACT_FORCED.with(|forced| forced.set(false));
    out
}

impl<'a> RoundContext<'a> {
    /// Wraps one round's global model and updates — everything that
    /// arrived, finite or not: stage zero rejects, the context never
    /// filters.
    pub fn new(global: &'a NamedParams, updates: &'a [&'a ClientUpdate]) -> Self {
        Self::with_scratch(global, updates, DistanceScratch::default())
    }

    /// [`new`](Self::new), reusing a previous round's buffers.
    pub fn with_scratch(
        global: &'a NamedParams,
        updates: &'a [&'a ClientUpdate],
        scratch: DistanceScratch,
    ) -> Self {
        Self {
            global,
            updates,
            delta_rows: OnceLock::new(),
            raw_norms: OnceLock::new(),
            squared_l2: OnceLock::new(),
            cosine: OnceLock::new(),
            sampled: OnceLock::new(),
            scratch: Mutex::new(scratch),
            #[cfg(test)]
            exact_forced: EXACT_FORCED.with(std::cell::Cell::get),
        }
    }

    /// Whether the distances are exact (rounds of up to
    /// [`EXACT_SCREEN_MAX`] updates) or sampled (see the module docs).
    fn exact(&self) -> bool {
        #[cfg(test)]
        if self.exact_forced {
            return true;
        }
        self.updates.len() <= EXACT_SCREEN_MAX
    }

    /// Dismantles the context, handing its buffers back for the next
    /// round.
    pub fn reclaim_scratch(self) -> DistanceScratch {
        // A poisoned lock is recovered, not propagated: see `lock_scratch`.
        let mut scratch = self
            .scratch
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(rows) = self.delta_rows.into_inner() {
            scratch.delta_rows = rows.into_buffers();
        }
        if let Some(sampled) = self.sampled.into_inner() {
            scratch.sampled = sampled.block.into_vec();
        }
        if let Some(m) = self.squared_l2.into_inner() {
            scratch.squared_l2 = m.into_values();
        }
        if let Some(m) = self.cosine.into_inner() {
            scratch.cosine = m.into_values();
        }
        scratch
    }

    /// The current global model.
    pub fn global(&self) -> &NamedParams {
        self.global
    }

    /// The round's updates, in cohort order.
    pub fn updates(&self) -> &[&ClientUpdate] {
        self.updates
    }

    /// Number of updates in the round.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when the round carries no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The update deltas `LM_i − GM`, row `i` for update `i` — the one way
    /// stages and combiners read them. Each row is stored dense or as its
    /// support, whichever it turned out to be; the first caller pays for
    /// the discovery pass (see "Dense vs. sparse rows" in the module docs).
    pub fn delta_rows(&self) -> &DeltaRows<'a> {
        self.delta_rows.get_or_init(|| {
            let buffers = std::mem::take(&mut self.lock_scratch().delta_rows);
            DeltaRows::discover(self.global, self.updates, buffers)
        })
    }

    /// L2 norm of each update's delta (the magnitude a norm-bounding stage
    /// screens, and the quantity a boost attack inflates).
    pub fn raw_norms(&self) -> &[f32] {
        self.raw_norms.get_or_init(|| {
            let rows = self.delta_rows();
            (0..rows.len())
                .map(|i| rows.row(i).sum_squares().sqrt())
                .collect()
        })
    }

    /// Pairwise squared-L2 distances between update parameters — the
    /// matrix Krum scores against, computed once per round. Exact up to
    /// [`EXACT_SCREEN_MAX`] updates, a `d/d′`-rescaled blockwise estimate
    /// on the coordinate subsample above it (see the module docs).
    pub fn squared_l2(&self) -> &DistanceMatrix {
        self.squared_l2.get_or_init(|| {
            let scratch = std::mem::take(&mut self.lock_scratch().squared_l2);
            if self.exact() {
                return DistanceMatrix::squared_l2_into(self.updates, scratch);
            }
            let s = self.sampled();
            DistanceMatrix::build_into(self.updates.len(), scratch, |i, j| {
                kernels::squared_distance(s.block.row(i), s.block.row(j)) * s.scale
            })
        })
    }

    /// Runs `read` on the pairwise squared-L2 distances between
    /// *clip-scaled* deltas, `‖sᵢ·δᵢ − sⱼ·δⱼ‖²` — what a selection rule
    /// ranks once a stage has clipped anything (see
    /// [`DistanceMatrix::squared_l2_scaled`]). Same exact / sampled split
    /// as [`squared_l2`](Self::squared_l2). Not cached — the scales are the
    /// caller's — but built into a recycled buffer that goes back to the
    /// scratch when `read` returns.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one scale per update.
    pub fn with_squared_l2_scaled<R>(
        &self,
        scales: &[f32],
        read: impl FnOnce(&DistanceMatrix) -> R,
    ) -> R {
        assert_eq!(scales.len(), self.len(), "one clip scale per update");
        let scratch = std::mem::take(&mut self.lock_scratch().squared_l2_scaled);
        let distances = if self.exact() {
            DistanceMatrix::squared_l2_scaled_into(&self.delta_rows().to_block(), scales, scratch)
        } else {
            let s = self.sampled();
            DistanceMatrix::build_into(self.updates.len(), scratch, |i, j| {
                let (a, b) = (s.block.row(i), s.block.row(j));
                kernels::squared_distance_scaled(a, scales[i], b, scales[j]) * s.scale
            })
        };
        let out = read(&distances);
        self.lock_scratch().squared_l2_scaled = distances.into_values();
        out
    }

    /// Pairwise cosine distances between update deltas — the metric the
    /// clustering split groups by. Exact up to [`EXACT_SCREEN_MAX`]
    /// updates, blockwise on the coordinate subsample above it (cosine
    /// needs no rescale — both norms shrink with the sample).
    pub fn cosine(&self) -> &DistanceMatrix {
        self.cosine.get_or_init(|| {
            let scratch = std::mem::take(&mut self.lock_scratch().cosine);
            if self.exact() {
                DistanceMatrix::cosine_into(&self.delta_rows().to_block(), scratch)
            } else {
                DistanceMatrix::cosine_over_supports_into(&self.sampled().block, scratch)
            }
        })
    }

    /// The scratch buffers. A poisoned lock is recovered rather than
    /// propagated: every buffer is cleared or fully overwritten before it
    /// is read, so whatever a panicking round left behind is harmless —
    /// and one stage's panic must not turn every later round of the
    /// pipeline into a panic.
    fn lock_scratch(&self) -> MutexGuard<'_, DistanceScratch> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `n × d′` subsampled delta block, built once into the recycled
    /// buffer by [`sampled_delta_block`] — through the delta view if a
    /// stage has built one, never asking for it.
    fn sampled(&self) -> &SampledDeltas {
        self.sampled.get_or_init(|| {
            let buffer = std::mem::take(&mut self.lock_scratch().sampled);
            let view = self.delta_rows.get();
            let block = sampled_delta_block(self.global, self.updates, view, buffer);
            SampledDeltas {
                scale: self.global.num_params().max(1) as f32 / block.cols() as f32,
                block,
            }
        })
    }

    /// Update `i`'s parameters after applying a clip scale: the raw LM for
    /// `scale >= 1`, otherwise `GM + scale · (LM − GM)` (the norm-bounded
    /// update a clipping stage admits). Borrows in the unclipped fast path
    /// so canonical single-rule pipelines stay allocation-identical to the
    /// monoliths they replaced.
    pub fn effective_params(&self, i: usize, scale: f32) -> Cow<'_, NamedParams> {
        if scale >= 1.0 {
            Cow::Borrowed(&self.updates[i].params)
        } else {
            let mut p = self.global.scale(1.0 - scale);
            p.axpy(scale, &self.updates[i].params);
            Cow::Owned(p)
        }
    }
}

/// The `n × d′` stride subsample of the round's deltas, row `i` holding
/// `(LM_i − GM)[⌊j·d/d′⌋]` for `j < d′ = min(d, SCREEN_SAMPLE_DIM)` — a
/// deterministic stride, so two runs, at any thread count, sample
/// identical coordinates. The stride is resolved to `(tensor, offset)`
/// once; no delta pass is made and no `n × d` block built.
///
/// A row that `view` stores as a support is filled from it: every support
/// entry a pick samples writes its stored `LM − GM` — the subtraction the
/// in-place read would perform — into a row of zeros, which is what
/// `x − x` gives for a finite GM at every other pick. Any other row (no
/// view, or a dense one) subtracts its `d′` picked elements in place.
/// The two arms give the same bits; `view` — the delta view of this
/// `global` and these `updates`, if one has been built — only says where a
/// sparse row is cheaper to read. `buffer` is reused for the block.
///
/// # Panics
///
/// Panics if an update's architecture differs from the GM's, or if `view`
/// has another shape than the round.
fn sampled_delta_block(
    global: &NamedParams,
    updates: &[&ClientUpdate],
    view: Option<&DeltaRows<'_>>,
    buffer: Vec<f32>,
) -> Matrix {
    let num_params = global.num_params();
    let d = num_params.max(1);
    let d_prime = d.min(SCREEN_SAMPLE_DIM);
    // The stride, resolved once to `(flat index, tensor, offset, GM
    // value)`. Empty only for a zero-parameter model (`d` was clamped to
    // 1), whose "delta" samples as zero.
    let gm: Vec<&[f32]> = global.iter().map(|(_, t)| t.as_slice()).collect();
    let (mut tensor, mut start) = (0, 0);
    let picks: Vec<(usize, usize, usize, f32)> = (0..d_prime.min(num_params))
        .map(|j| {
            let flat = j * d / d_prime;
            while flat >= start + gm[tensor].len() {
                start += gm[tensor].len();
                tensor += 1;
            }
            (flat, tensor, flat - start, gm[tensor][flat - start])
        })
        .collect();
    assert!(
        view.is_none_or(|rows| (rows.len(), rows.dim()) == (updates.len(), num_params)),
        "the view is of another round"
    );
    let supports: Vec<Option<(&[u32], &[f32])>> = (0..updates.len())
        .map(|i| view.and_then(|rows| rows.delta_support(i)))
        .collect();
    let from_view = supports.iter().flatten().count();
    // det: telemetry only — which way the rows were read.
    crate::metrics::fl_metrics().on_sampled_block(from_view, updates.len() - from_view);
    // For the rows read off the view: flat index → 1 + the pick that
    // samples it, 0 where none does. A support is looked up element by
    // element — a load and a rarely-taken branch each, where a two-cursor
    // merge against the stride mispredicts on most of them.
    let mut pick_of = Vec::new();
    if from_view > 0 {
        pick_of = vec![0u16; num_params];
        for (j, &(flat, ..)) in picks.iter().enumerate() {
            pick_of[flat] = j as u16 + 1;
        }
    }
    // Zeroed, not just sized: a row filled from its support writes only
    // the picks it holds.
    let mut rows = buffer;
    rows.clear();
    rows.resize(updates.len() * d_prime, 0.0);
    let mut per_update: Vec<_> = (rows.chunks_mut(d_prime).zip(updates))
        .zip(&supports)
        .collect();
    per_update.par_iter_mut().for_each(|((row, u), support)| {
        assert!(u.params.same_arch(global), "delta: architecture mismatch");
        if let Some((indices, deltas)) = support {
            for (&e, &delta) in indices.iter().zip(*deltas) {
                if let Some(j) = usize::from(pick_of[e as usize]).checked_sub(1) {
                    row[j] = delta;
                }
            }
        } else {
            let lm: Vec<&[f32]> = u.params.iter().map(|(_, t)| t.as_slice()).collect();
            for (slot, &(_, tensor, offset, gm_value)) in row.iter_mut().zip(&picks) {
                *slot = lm[tensor][offset] - gm_value;
            }
        }
    });
    Matrix::from_vec(updates.len(), d_prime, rows).expect("n·d′ elements by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::test_support::{
        attacked_cohort, delta_block, params, reencoded, shaped, update, WIDE_SHAPES,
    };
    use crate::defense::{ClusterAggregator, DeltaRow};

    /// Row `i` of the view, densified.
    fn dense_row(ctx: &RoundContext<'_>, i: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; ctx.delta_rows().dim()];
        ctx.delta_rows().row(i).write_to(&mut out);
        out
    }

    #[test]
    fn deltas_and_norms_match_direct_computation() {
        let g = params(&[1.0, 1.0], &[0.0]);
        let u = [
            update(0, &[2.0, 1.0], &[0.0]),
            update(1, &[1.0, 4.0], &[3.0]),
        ];
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        assert_eq!(ctx.len(), 2);
        assert_eq!(dense_row(&ctx, 0), [1.0, 0.0, 0.0]);
        assert_eq!(dense_row(&ctx, 1), [0.0, 3.0, 3.0]);
        let expected: f32 = (9.0f32 + 9.0).sqrt();
        assert!((ctx.raw_norms()[1] - expected).abs() < 1e-6);
        // Distance matrices agree with the direct constructors.
        assert_eq!(*ctx.squared_l2(), DistanceMatrix::squared_l2(&refs));
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// However a row is stored, every way of reading it gives the dense
    /// block's bits: densified, its norm, a dot product, its projection —
    /// in a round above and a round below the exact-screening threshold.
    #[test]
    fn the_delta_view_reads_like_the_dense_block_bitwise() {
        for n in [EXACT_SCREEN_MAX + 6, 9] {
            let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 31);
            // 5 % supports; one upload left dense, one that moved nothing.
            let mut u = reencoded(&g, &dense, crate::DeltaSpec::TopK { fraction: 0.05 });
            u[2] = dense[2].clone();
            u[4].params = g.clone();
            let refs: Vec<&ClientUpdate> = u.iter().collect();
            let ctx = RoundContext::new(&g, &refs);
            let (rows, block) = (ctx.delta_rows(), delta_block(&g, &refs));
            assert_eq!((rows.len(), rows.dim()), (n, g.num_params()));
            assert_eq!(rows.dense_rows(), 1);
            assert!(matches!(rows.row(2), DeltaRow::Dense(_)));
            assert!(matches!(rows.row(4), DeltaRow::Support { indices: [], .. }));
            assert!(same_bits(rows.to_block().as_slice(), block.as_slice()));
            let other = dense[0].params.flatten().into_vec();
            for i in 0..n {
                let (row, expected) = (rows.row(i), block.row(i));
                assert!(same_bits(&dense_row(&ctx, i), expected), "row {i}");
                assert_eq!(
                    row.sum_squares().to_bits(),
                    kernels::sum_squares(expected).to_bits(),
                    "row {i}"
                );
                assert_eq!(
                    ctx.raw_norms()[i].to_bits(),
                    kernels::sum_squares(expected).sqrt().to_bits()
                );
                assert_eq!(
                    row.dot(&other).to_bits(),
                    kernels::dot(expected, &other).to_bits(),
                    "row {i}"
                );
            }
            assert_eq!(ctx.raw_norms()[4], 0.0);
            let projection =
                Matrix::from_fn(g.num_params(), 7, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
            let every: Vec<usize> = (0..n).collect();
            assert!(same_bits(
                rows.project(&projection, &every).as_slice(),
                block.matmul(&projection).as_slice()
            ));
            // The exact paths read the view densified.
            if n <= EXACT_SCREEN_MAX {
                assert_eq!(*ctx.cosine(), DistanceMatrix::cosine(&block));
            }
        }
    }

    /// Projecting only some rows gives each of them the bits the full
    /// projection gives it: every row, the active rows of a screened round
    /// (some of both kinds left out), sparse rows alone, one of two dense
    /// rows, both dense rows without the sparse ones, rows out of order,
    /// and none.
    #[test]
    fn projecting_some_rows_gives_them_the_full_projections_bits() {
        let n = EXACT_SCREEN_MAX + 6;
        let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 37);
        let mut u = reencoded(&g, &dense, crate::DeltaSpec::TopK { fraction: 0.05 });
        (u[2], u[9]) = (dense[2].clone(), dense[9].clone());
        u[4].params = g.clone();
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let rows = ctx.delta_rows();
        assert_eq!(rows.dense_rows(), 2);
        let projection =
            Matrix::from_fn(g.num_params(), 9, |r, c| ((r * 9 + c) as f32 * 0.23).cos());
        let every: Vec<usize> = (0..n).collect();
        let full = rows.project(&projection, &every);
        let subsets: [Vec<usize>; 7] = [
            every.clone(),
            (0..n).filter(|i| i % 10 != 3 && *i != 7).collect(),
            (0..n).filter(|&i| i != 2 && i != 9).collect(),
            vec![0, 9, 11],
            vec![2, 9],
            vec![40, 9, 4, 2, 1],
            Vec::new(),
        ];
        for picked in subsets {
            let some = rows.project(&projection, &picked);
            assert_eq!(some.shape(), (picked.len(), 9));
            for (r, &i) in picked.iter().enumerate() {
                assert!(same_bits(some.row(r), full.row(i)), "row {i} of {picked:?}");
            }
        }
    }

    /// An exact round and a sampled one, each through buffers a previous
    /// round left behind — the sampled block's among them.
    #[test]
    fn warm_scratch_rounds_are_bitwise_identical_to_cold_ones() {
        let tiny_g = params(&[0.5, -0.5], &[0.1]);
        let tiny: Vec<ClientUpdate> = (0..6)
            .map(|i| {
                let v = i as f32 * 0.3 - 1.0;
                update(i, &[v, -v], &[v * 0.5])
            })
            .collect();
        let n = EXACT_SCREEN_MAX + 6;
        let (wide_g, wide) = attacked_cohort(n, &WIDE_SHAPES, 19);
        for (g, u, sampled) in [(tiny_g, tiny, 0), (wide_g, wide, n * SCREEN_SAMPLE_DIM)] {
            let refs: Vec<&ClientUpdate> = u.iter().collect();
            let mut scales = vec![1.0; refs.len()];
            (scales[1], scales[3]) = (0.5, 0.25);

            let cold = RoundContext::new(&g, &refs);
            let cold_l2 = cold.squared_l2().to_bits();
            let cold_cos = cold.cosine().to_bits();
            let cold_deltas = delta_block(&g, &refs);
            assert_eq!(*cold.delta_rows().to_block(), cold_deltas);
            let cold_scaled = cold.with_squared_l2_scaled(&scales, DistanceMatrix::to_bits);
            let scratch = cold.reclaim_scratch();
            assert!(scratch.capacity() > 0, "nothing was handed back");
            assert!(
                scratch.sampled.capacity() >= sampled,
                "the sampled block was dropped, not handed back"
            );
            // What the block is rebuilt over must not matter.
            let mut scratch = scratch;
            scratch.sampled.fill(f32::NAN);

            let warm = RoundContext::with_scratch(&g, &refs, scratch);
            assert_eq!(warm.squared_l2().to_bits(), cold_l2, "warm L2 diverged");
            assert_eq!(warm.cosine().to_bits(), cold_cos, "warm cosine diverged");
            assert_eq!(
                *warm.delta_rows().to_block(),
                cold_deltas,
                "warm delta block diverged"
            );
            // Twice: the second build reuses the buffer the first gave back.
            for _ in 0..2 {
                assert_eq!(
                    warm.with_squared_l2_scaled(&scales, DistanceMatrix::to_bits),
                    cold_scaled,
                    "warm scaled L2 diverged"
                );
            }
        }
    }

    /// A stage that panics while it holds the scratch lock must not turn
    /// the rest of the round — or any later round off the same buffers —
    /// into a panic.
    #[test]
    fn a_poisoned_scratch_lock_is_recovered() {
        let g = params(&[0.5, -0.5], &[0.1]);
        let u: Vec<ClientUpdate> = (0..4)
            .map(|i| update(i, &[i as f32, 1.0], &[0.5]))
            .collect();
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let expected = ctx.squared_l2().clone();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = ctx.scratch.lock().expect("not poisoned yet");
                panic!("a stage panicked mid-build (expected by this test)");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(ctx.scratch.is_poisoned());
        let cosine = ctx.cosine().clone();
        let next = RoundContext::with_scratch(&g, &refs, ctx.reclaim_scratch());
        assert_eq!(*next.squared_l2(), expected);
        assert_eq!(*next.cosine(), cosine);
    }

    /// A reference for the sampled block: the parent implementation's full
    /// `LM − GM` pass per update, flattened, then strided.
    fn delta_pass_sample(g: &NamedParams, u: &ClientUpdate) -> Vec<f32> {
        let flat = u.params.delta(g).flatten().into_vec();
        let d_prime = flat.len().min(SCREEN_SAMPLE_DIM);
        (0..d_prime)
            .map(|j| flat[j * flat.len() / d_prime])
            .collect()
    }

    /// Sampled rounds read their `d′` coordinates in place; the values —
    /// and so every sampled distance, plain, cosine and clip-scaled — must
    /// be the ones the delta pass produced, and none of it may
    /// materialize the `n × d` block.
    #[test]
    fn sampled_distances_match_the_delta_pass_reference_bitwise() {
        let n = 96;
        let (g, u) = attacked_cohort(n, &WIDE_SHAPES, 17);
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let rows: Vec<Vec<f32>> = u.iter().map(|u| delta_pass_sample(&g, u)).collect();
        let d = g.num_params();
        assert!(
            d > SCREEN_SAMPLE_DIM,
            "the fixture must be a proper subsample"
        );
        let rescale = d as f32 / SCREEN_SAMPLE_DIM as f32;
        // One boosted update clipped, as `NormClip` would leave the round.
        let mut scales = vec![1.0f32; n];
        scales[3] = 0.3;

        let ctx = RoundContext::new(&g, &refs);
        let expected_l2 = DistanceMatrix::build(n, |i, j| {
            kernels::squared_distance(&rows[i], &rows[j]) * rescale
        });
        let expected_scaled = DistanceMatrix::build(n, |i, j| {
            kernels::squared_distance_scaled(&rows[i], scales[i], &rows[j], scales[j]) * rescale
        });
        let expected_cos = DistanceMatrix::cosine(&Matrix::from_rows(&rows));
        assert_eq!(*ctx.squared_l2(), expected_l2);
        assert_eq!(*ctx.cosine(), expected_cos);
        ctx.with_squared_l2_scaled(&scales, |m| assert_eq!(*m, expected_scaled));
        assert!(
            ctx.delta_rows.get().is_none(),
            "a sampled distance asked for the delta view"
        );
    }

    /// A narrower model: `d = 1950`, below the sample budget, so every
    /// coordinate is a pick — each tensor's first and last among them.
    const NARROW_SHAPES: [(usize, usize); 3] = [(30, 50), (1, 50), (50, 8)];

    /// The sampled block filled from the view's supports against the one
    /// subtracted in place, over a proper subsample and over the identity
    /// one: sparse rows, a dense row, a row that moved nothing, and a row
    /// of corner cases — a `−0.0` delta on a pick, a `+0.0` delta that is
    /// in the support all the same, and an entry on the first and the last
    /// coordinate of every tensor. Blocks, and all three distance matrices,
    /// must agree bit for bit with each other and with the delta-pass
    /// reference; neither arm may build the dense block, and a context
    /// nobody asked for a view still must not build one.
    #[test]
    fn the_sampled_block_reads_the_same_through_the_view_as_in_place() {
        for shapes in [&WIDE_SHAPES[..], &NARROW_SHAPES[..]] {
            let n = EXACT_SCREEN_MAX + 6;
            let (mut g, dense) = attacked_cohort(n, shapes, 29);
            let d = g.num_params();
            let d_prime = d.min(SCREEN_SAMPLE_DIM);
            // Two picks whose GM value is a zero, one of each sign.
            let (minus_pick, plus_pick) = (10 * d / d_prime, 11 * d / d_prime);
            let mut flat = g.flatten().into_vec();
            (flat[minus_pick], flat[plus_pick]) = (0.0, -0.0);
            g = shaped(&g, &flat);
            let mut u = reencoded(&g, &dense, crate::DeltaSpec::TopK { fraction: 0.05 });
            u[2] = dense[2].clone();
            u[4].params = g.clone();
            // `−0.0 − 0.0 = −0.0` and `0.0 − −0.0 = +0.0`, both in the
            // support; then every tensor's edges.
            let mut corners = flat.clone();
            (corners[minus_pick], corners[plus_pick]) = (-0.0, 0.0);
            let mut edge = 0;
            for (_, t) in g.iter() {
                corners[edge] += 0.5;
                corners[edge + t.len() - 1] -= 0.25;
                edge += t.len();
            }
            u[6].params = shaped(&g, &corners);
            let refs: Vec<&ClientUpdate> = u.iter().collect();

            let with_view = RoundContext::new(&g, &refs);
            let rows = with_view.delta_rows();
            assert_eq!(rows.dense_rows(), 1);
            assert!(rows.delta_support(2).is_none() && rows.delta_support(6).is_some());
            let in_place = sampled_delta_block(&g, &refs, None, Vec::new());
            // Into a dirty buffer: the view arm relies on its rows being zeroed.
            let through_view =
                sampled_delta_block(&g, &refs, Some(rows), vec![7.0; n * d_prime + 5]);
            assert_eq!(in_place.shape(), (n, d_prime));
            assert!(same_bits(through_view.as_slice(), in_place.as_slice()));
            for (i, u) in u.iter().enumerate() {
                assert!(
                    same_bits(in_place.row(i), &delta_pass_sample(&g, u)),
                    "row {i}"
                );
            }
            assert_eq!(in_place.row(6)[10].to_bits(), (-0.0f32).to_bits());
            assert_eq!(in_place.row(6)[11].to_bits(), 0.0f32.to_bits());
            assert!(in_place.row(4).iter().all(|v| v.to_bits() == 0));

            let plain = RoundContext::new(&g, &refs);
            let mut scales = vec![1.0f32; n];
            scales[3] = 0.3;
            assert_eq!(
                with_view.squared_l2().to_bits(),
                plain.squared_l2().to_bits()
            );
            assert_eq!(with_view.cosine().to_bits(), plain.cosine().to_bits());
            assert_eq!(
                with_view.with_squared_l2_scaled(&scales, DistanceMatrix::to_bits),
                plain.with_squared_l2_scaled(&scales, DistanceMatrix::to_bits)
            );
            assert!(same_bits(
                with_view.sampled().block.as_slice(),
                in_place.as_slice()
            ));
            assert!(
                !rows.dense_block_is_built(),
                "a sampled distance read a dense row of the view"
            );
            assert!(
                plain.delta_rows.get().is_none(),
                "a sampled distance asked for the delta view"
            );
        }
    }

    /// Up to the threshold the clip-scaled distances are the exact
    /// all-coordinate ones, bit for bit what `Krum` computed before the
    /// split existed.
    #[test]
    fn scaled_distances_at_the_threshold_are_the_exact_ones_bitwise() {
        let n = EXACT_SCREEN_MAX;
        let (g, u) = attacked_cohort(n, &WIDE_SHAPES, 23);
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let mut scales = vec![1.0f32; n];
        scales[3] = 0.3;
        let ctx = RoundContext::new(&g, &refs);
        let exact = DistanceMatrix::squared_l2_scaled(&delta_block(&g, &refs), &scales);
        ctx.with_squared_l2_scaled(&scales, |m| assert_eq!(*m, exact));
    }

    /// Large rounds over a model no wider than the sample budget: the
    /// stride subsample is the identity, so the sampled estimate must
    /// agree with the exact metric (up to f32 summation order).
    #[test]
    fn sampled_distances_match_exact_when_the_sample_covers_every_coordinate() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let n = EXACT_SCREEN_MAX + 3;
        let u: Vec<ClientUpdate> = (0..n)
            .map(|i| {
                let v = (i as f32 * 0.137).sin();
                update(i, &[v, v * 0.5], &[-v])
            })
            .collect();
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let sampled_l2 = ctx.squared_l2();
        let sampled_cos = ctx.cosine();
        let exact_l2 = DistanceMatrix::squared_l2(&refs);
        let exact_cos = DistanceMatrix::cosine(&Matrix::from_rows(
            &refs
                .iter()
                .map(|r| r.params.delta(&g).flatten().into_vec())
                .collect::<Vec<_>>(),
        ));
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (sampled_l2.get(i, j) - exact_l2.get(i, j)).abs() < 1e-5,
                    "L2 ({i},{j}): {} vs {}",
                    sampled_l2.get(i, j),
                    exact_l2.get(i, j)
                );
                assert!(
                    (sampled_cos.get(i, j) - exact_cos.get(i, j)).abs() < 1e-5,
                    "cos ({i},{j}): {} vs {}",
                    sampled_cos.get(i, j),
                    exact_cos.get(i, j)
                );
            }
        }
    }

    #[test]
    fn rounds_at_the_threshold_take_the_exact_path_bitwise() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u: Vec<ClientUpdate> = (0..EXACT_SCREEN_MAX)
            .map(|i| {
                let v = (i as f32 * 0.731).cos();
                update(i, &[v, -v], &[v * 2.0])
            })
            .collect();
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        assert_eq!(
            *ctx.squared_l2(),
            DistanceMatrix::squared_l2(&refs),
            "threshold rounds must stay on the exact, pinned path"
        );
    }

    #[test]
    fn effective_params_borrows_unclipped_and_interpolates_clipped() {
        let g = params(&[0.0], &[0.0]);
        let u = [update(0, &[4.0], &[8.0])];
        let refs: Vec<&ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        assert!(matches!(ctx.effective_params(0, 1.0), Cow::Borrowed(_)));
        let half = ctx.effective_params(0, 0.5);
        assert_eq!(half.get("layer0.w").unwrap().get(0, 0), 2.0);
        assert_eq!(half.get("layer0.b").unwrap().get(0, 0), 4.0);
    }

    /// The 2-means seed pair the cluster stage picks from `pairwise`: the
    /// most distant pair over every row (the stage runs after
    /// `NonFiniteGuard` and `NormClip`, which reject nobody here), the
    /// first one found on a tie.
    fn seed_pair(pairwise: &DistanceMatrix, n: usize) -> (usize, usize, f32) {
        let mut best = (0, 1, f32::NEG_INFINITY);
        for i in 0..n {
            for j in i + 1..n {
                if pairwise.get(i, j) > best.2 {
                    best = (i, j, pairwise.get(i, j));
                }
            }
        }
        best
    }

    /// One row of [`the_sampled_seeding_splits_where_the_exact_one_does`]'s
    /// table: the cohort, both seed pairs with their distances, the exact
    /// distance of the sampled pair and the largest sampled-vs-exact gap.
    struct Seeding {
        n: usize,
        seed: u64,
        sampled: (usize, usize, f32),
        exact: (usize, usize, f32),
        exact_at_sampled: f32,
        largest_gap: f32,
    }

    /// `round_screen`'s cohort in miniature, `TopK{0.05}` as it reaches
    /// the server, seeded by the sampled cosine matrix (the public
    /// 2 048-pick stride) and by the exact one over every coordinate.
    fn seedings() -> Vec<Seeding> {
        let mut rows = Vec::new();
        for n in [128, 256] {
            for seed in 40..44 {
                let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, seed);
                let u = reencoded(&g, &dense, crate::DeltaSpec::TopK { fraction: 0.05 });
                let refs: Vec<&ClientUpdate> = u.iter().collect();
                let ctx = RoundContext::new(&g, &refs);
                let exact = DistanceMatrix::cosine(&ctx.delta_rows().to_block());
                let sampled = ctx.cosine();
                let largest_gap = (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .map(|(i, j)| (sampled.get(i, j) - exact.get(i, j)).abs())
                    .fold(0.0f32, f32::max);
                let (i, j, d) = seed_pair(sampled, n);
                rows.push(Seeding {
                    n,
                    seed,
                    sampled: (i, j, d),
                    exact: seed_pair(&exact, n),
                    exact_at_sampled: exact.get(i, j),
                    largest_gap,
                });
            }
        }
        println!("| n | seed | sampled pair (d) | exact pair (d) | exact d of sampled pair | largest gap | sampled ≥ τ | exact ≥ τ |");
        let threshold = ClusterAggregator::default().separation_threshold;
        for r in &rows {
            let ((si, sj, sd), (ei, ej, ed)) = (r.sampled, r.exact);
            println!(
                "| {} | {} | ({si}, {sj}) {sd:.4} | ({ei}, {ej}) {ed:.4} | {:.4} | {:.4} | {} | {} |",
                r.n,
                r.seed,
                r.exact_at_sampled,
                r.largest_gap,
                sd >= threshold,
                ed >= threshold
            );
        }
        rows
    }

    /// ROADMAP item 2(a), first step: how far the sampled seeding of
    /// 2-means is from the exact one. Whether to split at all — the seed
    /// pair's distance against the separation threshold — must agree.
    #[test]
    fn the_sampled_seeding_splits_where_the_exact_one_does() {
        let threshold = ClusterAggregator::default().separation_threshold;
        for r in seedings() {
            assert_eq!(
                r.sampled.2 >= threshold,
                r.exact.2 >= threshold,
                "n {}, seed {}: the sampled and the exact seeding disagree on splitting",
                r.n,
                r.seed
            );
        }
    }

    /// ROADMAP item 2's finding, kept as the assertion it fails: the
    /// sampled seeding does *not* pick the exact seed pair. Measured (PR
    /// 26; `cargo test -p safeloc-fl --lib seeding -- --ignored
    /// --nocapture` prints the table): it agrees on 1 of 8 cohorts (n 128,
    /// seed 41). Every pair either picks is one boosted attacker against
    /// one honest row; the exact distance of the sampled pair sits
    /// 0.008–0.059 below the exact maximum (1.2895–1.3483 against
    /// 1.3320–1.3589), the largest sampled-vs-exact entry is off by
    /// 0.085–0.135, and both clear the 0.15 separation threshold by a factor
    /// of ~9 — the split, and so every verdict, is the same.
    #[test]
    #[ignore = "ROADMAP item 2: the sampled stride picks another seed pair than the exact path"]
    fn the_sampled_seeding_picks_the_exact_seed_pair() {
        for r in seedings() {
            assert_eq!(
                (r.sampled.0, r.sampled.1),
                (r.exact.0, r.exact.1),
                "n {}, seed {}",
                r.n,
                r.seed
            );
        }
    }

    /// Ranks of `x` (ties share their mean rank).
    fn ranks(x: &[f32]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..x.len()).collect();
        order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
        let mut ranks = vec![0.0; x.len()];
        let mut at = 0;
        while at < order.len() {
            let tie = order[at..]
                .iter()
                .take_while(|&&i| x[i] == x[order[at]])
                .count();
            for &i in &order[at..at + tie] {
                ranks[i] = at as f64 + (tie - 1) as f64 / 2.0;
            }
            at += tie;
        }
        ranks
    }

    /// Spearman's rank correlation of two equally long score lists.
    fn spearman(x: &[f32], y: &[f32]) -> f64 {
        let (rx, ry) = (ranks(x), ranks(y));
        let mean = (x.len() as f64 - 1.0) / 2.0;
        let (mut xy, mut xx, mut yy) = (0.0, 0.0, 0.0);
        for (a, b) in rx.iter().zip(&ry) {
            xy += (a - mean) * (b - mean);
            xx += (a - mean) * (a - mean);
            yy += (b - mean) * (b - mean);
        }
        xy / (xx * yy).sqrt()
    }

    /// One row of the exact-vs-sampled verdict comparison.
    struct Agreement {
        pipeline: &'static str,
        n: usize,
        seed: u64,
        /// Updates whose verdict (accepted, or the rejecting rule)
        /// differs between the two paths.
        flipped: Vec<usize>,
        /// Updates accepted by the sampled path, then the exact one.
        accepted: [Vec<usize>; 2],
        /// Per rule, Spearman's ρ between the two paths' scores over the
        /// updates both rejected by it.
        rank_correlation: Vec<(String, f64)>,
    }

    /// `round_screen`'s pipeline and the two Krum pipelines — every
    /// pipeline that reads a sampled distance above `EXACT_SCREEN_MAX`
    /// (the cosine matrix, the squared-L2 matrix, the clip-scaled one) —
    /// run on `round_screen`'s cohort in miniature, `TopK{0.05}`, through
    /// the sampled paths and through the exact ones.
    fn agreements() -> Vec<Agreement> {
        use crate::defense::{
            DefensePipeline, Krum, LatentFilterAggregator, NonFiniteGuard, NormClip, TrimmedMean,
        };
        use crate::{Aggregator, UpdateDecision};
        let build = |pipeline: &str, n: usize| match pipeline {
            "screen" => DefensePipeline::new(
                "screen",
                vec![
                    Box::new(NonFiniteGuard),
                    Box::new(NormClip::default()),
                    Box::new(ClusterAggregator::default()),
                    Box::new(LatentFilterAggregator::new(0x5AFE)),
                ],
                Box::new(TrimmedMean::new(0.1)),
            ),
            "krum" => DefensePipeline::krum(n / 10),
            _ => DefensePipeline::new(
                "clip+krum",
                vec![Box::new(NormClip::default())],
                Box::new(Krum::new(n / 10)),
            ),
        };
        let mut rows = Vec::new();
        for n in [128, 256] {
            for seed in 40..44 {
                let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, seed);
                let u = reencoded(&g, &dense, crate::DeltaSpec::TopK { fraction: 0.05 });
                for pipeline in ["screen", "krum", "clip+krum"] {
                    let sampled = build(pipeline, n).aggregate(&g, &u).decisions;
                    let exact =
                        screening_exactly(|| build(pipeline, n).aggregate(&g, &u).decisions);
                    let verdict = |d: &UpdateDecision| match d {
                        UpdateDecision::Accepted { .. } => None,
                        UpdateDecision::Rejected { rule, score } => Some((rule.clone(), *score)),
                    };
                    let (sampled, exact): (Vec<_>, Vec<_>) = (
                        sampled.iter().map(verdict).collect(),
                        exact.iter().map(verdict).collect(),
                    );
                    let flipped = (0..n)
                        .filter(|&i| {
                            sampled[i].as_ref().map(|v| &v.0) != exact[i].as_ref().map(|v| &v.0)
                        })
                        .collect();
                    let accepted = [&sampled, &exact]
                        .map(|path| (0..n).filter(|&i| path[i].is_none()).collect());
                    let mut rules: Vec<String> = exact
                        .iter()
                        .flatten()
                        .map(|(rule, _)| rule.clone())
                        .collect();
                    rules.sort();
                    rules.dedup();
                    let rank_correlation = rules
                        .into_iter()
                        .map(|rule| {
                            let (x, y): (Vec<f32>, Vec<f32>) = (sampled.iter().zip(&exact))
                                .filter_map(|pair| match pair {
                                    (Some((a, x)), Some((b, y))) if *a == rule && *b == rule => {
                                        Some((*x, *y))
                                    }
                                    _ => None,
                                })
                                .unzip();
                            let rho = if x.len() < 2 { 1.0 } else { spearman(&x, &y) };
                            (rule, rho)
                        })
                        .collect();
                    rows.push(Agreement {
                        pipeline,
                        n,
                        seed,
                        flipped,
                        accepted,
                        rank_correlation,
                    });
                }
            }
        }
        println!("| pipeline | n | seed | flipped verdicts | score rank correlation (ρ) |");
        for r in &rows {
            let rho: Vec<String> = (r.rank_correlation.iter())
                .map(|(rule, rho)| format!("{rule} {rho}"))
                .collect();
            println!(
                "| {} | {} | {} | {:?} | {} |",
                r.pipeline,
                r.n,
                r.seed,
                r.flipped,
                rho.join(", ")
            );
        }
        rows
    }

    /// ROADMAP item 2(a): above `EXACT_SCREEN_MAX`, `round_screen`'s
    /// pipeline decides through the sampled cosine matrix exactly what it
    /// decides through the exact one — the same verdict for every update,
    /// the same scores (ρ = 1 per rule: both stages score against the
    /// full deltas once the split agrees) — and sampled Krum, like exact
    /// Krum, never selects an attacker. `--nocapture` prints the table.
    #[test]
    fn the_sampled_paths_screen_as_the_exact_ones_do() {
        for r in agreements() {
            let at = format!("{} n {}, seed {}", r.pipeline, r.n, r.seed);
            if r.pipeline == "screen" {
                assert!(
                    r.flipped.is_empty(),
                    "{at}: verdicts differ on {:?}",
                    r.flipped
                );
                for (rule, rho) in &r.rank_correlation {
                    assert_eq!(*rho, 1.0, "{at}: {rule} scores rank differently");
                }
            }
            for accepted in &r.accepted {
                assert!(
                    accepted.iter().all(|i| i % 10 != 3),
                    "{at}: an attacker was accepted ({accepted:?})"
                );
            }
        }
    }

    /// ROADMAP item 2's second finding, kept as the assertion it fails:
    /// Krum does not select the same update through the sampled
    /// squared-L2 matrix as through the exact one. Measured
    /// (`cargo test -p safeloc-fl --lib the_sampled_krum -- --ignored
    /// --nocapture` prints the table): on all 8 cohorts (n 128 / 256,
    /// seeds 40–43, `TopK{0.05}`) and with or without a norm clip in
    /// front, the two paths select different honest updates — two flipped
    /// verdicts per cohort, the same pair for `krum` and `clip+krum` —
    /// and the Krum scores of the updates both reject rank-correlate at
    /// only ρ = 0.54–0.61. Neither path ever selects an attacker
    /// (`the_sampled_paths_screen_as_the_exact_ones_do`).
    #[test]
    #[ignore = "ROADMAP item 2: sampled Krum selects another honest update than exact Krum"]
    fn the_sampled_krum_selects_the_exact_update() {
        for r in agreements().iter().filter(|r| r.pipeline != "screen") {
            assert!(
                r.flipped.is_empty(),
                "{} n {}, seed {}: sampled and exact verdicts differ on {:?}",
                r.pipeline,
                r.n,
                r.seed,
                r.flipped
            );
        }
    }
}
