//! The tolerance contract a change that moves output bits is held to.
//!
//! "Bit-identical to the parent" is the rule for restructuring. Arithmetic
//! that is as accurate in another order, or more accurate, cannot meet it,
//! so such a change is held to four checks instead, written here once and
//! reused by every later bit-changing change:
//!
//! 1. **Accuracy.** Every element of a product is within the classical
//!    forward-error bound `γ_k·Σ|a||b|` of the exact (f64) product, with
//!    `γ_k = k·u / (1 − k·u)` and `u = 2⁻²⁴` ([`gamma`]). That bound holds
//!    for any order of `k − 1` additions and `k` multiplications, fused or
//!    not, so it holds for the parent loop and the changed kernel alike;
//!    on the products of one fused training step ([`FUSED_STEP_SHAPES`])
//!    the changed kernel's mean and largest `|err| / bound`
//!    ([`bound_use`]) must also be no larger than the parent's. The parent
//!    loop is kept verbatim as [`parent_matmul_into`], a reference only,
//!    like [`SeedAdam`](crate::naive::SeedAdam).
//! 2. **Drift.** The paper classifier trained from one init through
//!    production code stays within twice the parent's relative parameter
//!    distance from the same run through [`naive::train_step`] — the seed
//!    products and the seed optimizer, which no change touches — after 10
//!    and after 100 steps.
//! 3. **Verdicts.** The accepted set and the rejecting rule of every
//!    update, for the default SAFELOC, FEDLS-latent and `round_screen`
//!    pipelines on `attacked_cohort`, equal a golden table pinned at the
//!    parent. A flip is reported and argued, never re-pinned silently.
//! 4. **Quality.** `benchmark/`'s `mean_error_m` stays inside its
//!    `BENCHMARK.json` bound on every workload; the values are recorded in
//!    the change's CHANGES.md entry. (That check runs `benchmark/`, not a
//!    test here.)
//!
//! Checks 1–3 are this module's tests:
//! `cargo test [--release] -q -p safeloc-bench --lib tolerance`. The
//! module is compiled for tests only; `naive.rs`'s tests read the bound
//! from it too.
//!
//! [`naive::train_step`]: crate::naive::train_step

/// Unit roundoff of `f32` round-to-nearest: `2⁻²⁴`.
const UNIT_ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;

/// `γ_k = k·u / (1 − k·u)`: the relative forward-error bound of a
/// length-`k` dot product evaluated in any order, as a fraction of
/// `Σ|a||b|`.
///
/// # Panics
///
/// Panics if `k·u ≥ 1`, where the bound says nothing.
pub(crate) fn gamma(k: usize) -> f64 {
    let ku = k as f64 * UNIT_ROUNDOFF;
    assert!(ku < 1.0, "γ_k is unbounded at k = {k}");
    ku / (1.0 - ku)
}

/// The `(m, k, n)` of every batch-32 product in one fused training step:
/// forward `x·W`, weight gradient `xᵀ·g` and input gradient `g·Wᵀ` of the
/// encoder (203→128→89→62), decoder (62→89→203) and classifier head
/// (62→60), with no input gradient for the two layers that read the
/// network's input or the latent code first (`enc0`, `dec0`).
pub(crate) const FUSED_STEP_SHAPES: [(usize, usize, usize); 16] = [
    (32, 203, 128),
    (203, 32, 128),
    (32, 128, 89),
    (128, 32, 89),
    (32, 89, 128),
    (32, 89, 62),
    (89, 32, 62),
    (32, 62, 89),
    (32, 62, 89),
    (62, 32, 89),
    (32, 89, 203),
    (89, 32, 203),
    (32, 203, 89),
    (32, 62, 60),
    (62, 32, 60),
    (32, 60, 62),
];

/// Column block of [`parent_matmul_into`] (the parent's `NC`).
const NC: usize = 128;
/// Reduction block of [`parent_matmul_into`] (the parent's `KC`).
const KC: usize = 256;

/// `out[m×n] = a[m×k] · b[k×n]` exactly as `safeloc_nn::kernels::matmul_into`
/// computed it before its group sums were fused: `KC`-blocked, 4 × 4
/// register blocks, each 4-step group summed as the left-associated
/// `((a₀v₀ + a₁v₁) + a₂v₂) + a₃v₃` of separately rounded products and
/// added to the output, the `k mod 4` tail added singly. A reference for
/// the tolerance contract only; nothing in production calls it.
///
/// # Panics
///
/// Panics if the slice lengths do not match the shapes.
pub(crate) fn parent_matmul_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(out.len(), m * n, "out size mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    for k0 in (0..k).step_by(KC) {
        let kb = KC.min(k - k0);
        parent_accumulate(out, &a[k0..], k, &b[k0 * n..(k0 + kb) * n], m, kb, n);
    }
}

/// The parent's direct kernel over one reduction block, verbatim.
fn parent_accumulate(
    out: &mut [f32],
    a: &[f32],
    lda: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
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
                for j in 0..jlen {
                    let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                    o0[j] += ar0[kk] * v0 + ar0[kk + 1] * v1 + ar0[kk + 2] * v2 + ar0[kk + 3] * v3;
                    o1[j] += ar1[kk] * v0 + ar1[kk + 1] * v1 + ar1[kk + 2] * v2 + ar1[kk + 3] * v3;
                    o2[j] += ar2[kk] * v0 + ar2[kk + 1] * v1 + ar2[kk + 2] * v2 + ar2[kk + 3] * v3;
                    o3[j] += ar3[kk] * v0 + ar3[kk + 1] * v1 + ar3[kk + 2] * v2 + ar3[kk + 3] * v3;
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
    while i < m {
        let a_row = &a[i * lda..i * lda + k];
        for j0 in (0..n).step_by(NC) {
            let jlen = NC.min(n - j0);
            let o_row = &mut out[i * n + j0..i * n + j0 + jlen];
            let mut kk = 0;
            while kk + 4 <= k {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let b0 = &b[kk * n + j0..kk * n + j0 + jlen];
                let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + j0 + jlen];
                let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + j0 + jlen];
                let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + j0 + jlen];
                for j in 0..jlen {
                    o_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                kk += 4;
            }
            while kk < k {
                let av = a_row[kk];
                let b_row = &b[kk * n + j0..kk * n + j0 + jlen];
                for j in 0..jlen {
                    o_row[j] += av * b_row[j];
                }
                kk += 1;
            }
        }
        i += 1;
    }
}

/// How much of the accuracy bound a computed product spends: the mean and
/// the largest `|out − exact| / (γ_k·Σ|a||b|)` over its elements, `exact`
/// the product of the `f32` operands in `f64`. Every element is within
/// the bound iff `max ≤ 1`; an element whose bound is zero (all its terms
/// are zeros) counts as `0` when it is a zero and as `∞` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoundUse {
    /// Mean `|err| / bound` over the elements.
    pub(crate) mean: f64,
    /// Largest `|err| / bound`.
    pub(crate) max: f64,
}

/// [`BoundUse`] of `out` as the product `a[m×k] · b[k×n]`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the shapes.
pub(crate) fn bound_use(
    out: &[f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> BoundUse {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(out.len(), m * n, "out size mismatch");
    let gamma_k = gamma(k);
    let (mut sum, mut max) = (0.0f64, 0.0f64);
    for i in 0..m {
        for j in 0..n {
            let (mut exact, mut magnitude) = (0.0f64, 0.0f64);
            for p in 0..k {
                let term = f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                exact += term;
                magnitude += term.abs();
            }
            let err = (f64::from(out[i * n + j]) - exact).abs();
            let used = match (err == 0.0, magnitude == 0.0) {
                (true, _) => 0.0,
                (false, true) => f64::INFINITY,
                (false, false) => err / (gamma_k * magnitude),
            };
            sum += used;
            max = max.max(used);
        }
    }
    BoundUse {
        mean: sum / (m * n).max(1) as f64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{self, SeedAdam};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use safeloc::SaliencyAggregator;
    use safeloc_fl::defense::test_support::{attacked_cohort, reencoded, WIDE_SHAPES};
    use safeloc_fl::defense::{
        ClusterAggregator, LatentFilterAggregator, NonFiniteGuard, NormClip, TrimmedMean,
    };
    use safeloc_fl::{Aggregator, ClientUpdate, DefensePipeline, DeltaSpec, UpdateDecision};
    use safeloc_nn::kernels::matmul_into;
    use safeloc_nn::{
        gather_labels, gather_rows, shuffled_batches, Activation, Adam, HasParams, Sequential,
        Workspace,
    };
    use std::collections::BTreeMap;

    fn uniform(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Both kernels' bound use on one product.
    fn both(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (BoundUse, BoundUse) {
        let mut out = vec![f32::NAN; m * n];
        parent_matmul_into(&mut out, a, b, m, k, n);
        let parent = bound_use(&out, a, b, m, k, n);
        matmul_into(&mut out, a, b, m, k, n);
        (parent, bound_use(&out, a, b, m, k, n))
    }

    /// Check 1 on the products of a fused training step: both kernels
    /// inside `γ_k·Σ|a||b|` everywhere; the production kernel spending no
    /// more of it than the parent loop in the mean of every product, and
    /// in the mean and at the worst element of the step's sixteen products
    /// pooled. (The worst element of *one* product is an extreme value of
    /// one draw: the kernel's is the higher on two shapes, 32×89×128 and
    /// 32×89×203, and the lower or equal on the other fourteen.)
    /// `--nocapture` prints the table.
    #[test]
    fn products_stay_inside_the_bound_and_no_less_accurate_than_the_parent() {
        let pool = |uses: &[(usize, BoundUse)]| {
            let elements: usize = uses.iter().map(|&(count, _)| count).sum();
            let sum: f64 = uses.iter().map(|&(count, u)| count as f64 * u.mean).sum();
            let max = uses.iter().map(|&(_, u)| u.max).fold(0.0, f64::max);
            BoundUse {
                mean: sum / elements as f64,
                max,
            }
        };
        let (mut parents, mut kernels) = (Vec::new(), Vec::new());
        println!("| m×k×n | parent mean | parent max | kernel mean | kernel max |");
        for (salt, &(m, k, n)) in (0..).zip(FUSED_STEP_SHAPES.iter()) {
            let (a, b) = (uniform(m * k, 2 * salt), uniform(k * n, 2 * salt + 1));
            let (parent, kernel) = both(&a, &b, m, k, n);
            println!(
                "| {m}×{k}×{n} | {:.4} | {:.4} | {:.4} | {:.4} |",
                parent.mean, parent.max, kernel.mean, kernel.max
            );
            assert!(
                parent.max <= 1.0,
                "parent loop past the bound at {m}×{k}×{n}"
            );
            assert!(kernel.max <= 1.0, "kernel past the bound at {m}×{k}×{n}");
            assert!(
                kernel.mean <= parent.mean,
                "{m}×{k}×{n}: kernel {kernel:?} against parent {parent:?}"
            );
            parents.push((m * n, parent));
            kernels.push((m * n, kernel));
        }
        let (parent, kernel) = (pool(&parents), pool(&kernels));
        println!(
            "| pooled | {:.4} | {:.4} | {:.4} | {:.4} |",
            parent.mean, parent.max, kernel.mean, kernel.max
        );
        assert!(
            kernel.mean <= parent.mean && kernel.max <= parent.max,
            "pooled: kernel {kernel:?} against parent {parent:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Check 1's bound on drawn shapes — both row paths, every
        /// `k mod 4` tail, two `KC` blocks — and drawn magnitudes.
        #[test]
        fn every_product_stays_inside_the_bound(
            m in 1usize..10,
            k in 1usize..300,
            n in 1usize..40,
            scale in 1e-3f32..1e3,
            seed in 0u64..1_000_000,
        ) {
            let a: Vec<f32> = uniform(m * k, seed).iter().map(|v| v * scale).collect();
            let b = uniform(k * n, seed + 1);
            let (parent, kernel) = both(&a, &b, m, k, n);
            prop_assert!(parent.max <= 1.0, "parent {:?} at {}×{}×{}", parent, m, k, n);
            prop_assert!(kernel.max <= 1.0, "kernel {:?} at {}×{}×{}", kernel, m, k, n);
        }
    }

    /// `‖θ − θ_seed‖ / ‖θ_seed‖` over every parameter, in `f64`.
    fn relative_distance(model: &Sequential, seed_model: &Sequential) -> f64 {
        let flat = |s: &Sequential| s.snapshot().flatten().into_vec();
        let (x, y) = (flat(model), flat(seed_model));
        let (mut gap, mut norm) = (0.0f64, 0.0f64);
        for (&x, &y) in x.iter().zip(&y) {
            gap += (f64::from(x) - f64::from(y)).powi(2);
            norm += f64::from(y).powi(2);
        }
        (gap / norm).sqrt()
    }

    /// The paper classifier (203 → 128 → 89 → 62 → 60) trained on paper
    /// building 1's survey split at batch 32, Adam at 1e-3, once through
    /// production code and once through the seed path; the relative
    /// distance between the two after each of `checkpoints` steps.
    fn drift_from_the_seed_path(checkpoints: &[usize]) -> Vec<f64> {
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        let train =
            BuildingDataset::generate(Building::paper(1), &DatasetConfig::paper(), 1).server_train;
        let dims = [train.x.cols(), 128, 89, 62, 60];
        let mut seed_model = Sequential::mlp(&dims, Activation::Relu, 7);
        let mut model = seed_model.clone();
        let (mut seed_opt, mut opt) = (SeedAdam::new(1e-3), Adam::new(1e-3));
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut batches = Vec::new();
        let mut drift = Vec::new();
        let last = checkpoints.iter().copied().max().unwrap_or(0);
        for step in 1..=last {
            if batches.is_empty() {
                batches = shuffled_batches(train.x.rows(), 32, &mut rng);
                batches.reverse();
            }
            let batch = batches.pop().expect("refilled above");
            let x = gather_rows(&train.x, &batch);
            let labels = gather_labels(&train.labels, &batch);
            naive::train_step(&mut seed_model, &x, &labels, &mut seed_opt);
            model.train_batch_with(&x, &labels, &mut opt, &mut ws);
            if checkpoints.contains(&step) {
                drift.push(relative_distance(&model, &seed_model));
            }
        }
        drift
    }

    /// The parent's drift after 10 and 100 steps, measured on the parent
    /// tree (separately rounded group sums) with this module's
    /// [`drift_from_the_seed_path`]. The values are exact: every kernel's
    /// bits are the same on every CPU and in every profile.
    const PARENT_DRIFT: [f64; 2] = [2.0396894499145363e-7, 3.079248660955728e-7];

    /// Check 2: production training stays within twice the parent's
    /// distance from the seed path. `--nocapture` prints both sides.
    #[test]
    fn training_drifts_from_the_seed_path_within_twice_the_parent() {
        let drift = drift_from_the_seed_path(&[10, 100]);
        let rows = || {
            [10, 100]
                .into_iter()
                .zip(drift.iter().copied())
                .zip(PARENT_DRIFT)
        };
        for ((steps, now), parent) in rows() {
            println!("{steps} steps: drift {now:e} (parent {parent:e})");
        }
        for ((steps, now), parent) in rows() {
            assert!(
                now <= 2.0 * parent,
                "{steps} steps: drift {now:e} is past twice the parent's {parent:e}"
            );
        }
    }

    /// `round_screen`'s defended pipeline (`benchmark/`'s, seed and trim
    /// included).
    fn round_screen_pipeline() -> DefensePipeline {
        DefensePipeline::new(
            "non-finite+norm-clip+cluster+latent+trimmed-mean",
            vec![
                Box::new(NonFiniteGuard),
                Box::new(NormClip::default()),
                Box::new(ClusterAggregator::default()),
                Box::new(LatentFilterAggregator::new(0x5AFE_10C0)),
            ],
            Box::new(TrimmedMean::new(0.1)),
        )
    }

    /// One round's verdicts: the rejected ids grouped by rule, rules in
    /// name order, ids ascending (everything not listed was accepted).
    fn verdicts(
        pipeline: &mut DefensePipeline,
        g: &safeloc_nn::NamedParams,
        u: &[ClientUpdate],
    ) -> String {
        let mut by_rule: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let out = pipeline.aggregate(g, u);
        for (i, decision) in out.decisions.iter().enumerate() {
            if let UpdateDecision::Rejected { rule, .. } = decision {
                by_rule.entry(rule.as_str()).or_default().push(i);
            }
        }
        if by_rule.is_empty() {
            return "none".to_string();
        }
        let rules: Vec<String> = by_rule
            .iter()
            .map(|(rule, ids)| {
                let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
                format!("{rule} {}", ids.join(","))
            })
            .collect();
        rules.join("; ")
    }

    /// Check 3's table: each pipeline, fresh, screens the same cohort for
    /// two rounds (the second fits the latent stage's autoencoder on the
    /// first round's accepted rows), one line per cohort.
    fn verdict_table() -> Vec<String> {
        let mut lines = Vec::new();
        for n in [40, 128, 256] {
            for seed in 40..44 {
                let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, seed);
                let topk = reencoded(&g, &dense, DeltaSpec::TopK { fraction: 0.05 });
                for (repr, updates) in [("dense", &dense), ("topk", &topk)] {
                    let pipelines: [(&str, DefensePipeline); 3] = [
                        ("safeloc", SaliencyAggregator::default().into_pipeline()),
                        ("fedls", DefensePipeline::latent(seed)),
                        ("screen", round_screen_pipeline()),
                    ];
                    for (name, mut pipeline) in pipelines {
                        let first = verdicts(&mut pipeline, &g, updates);
                        let second = verdicts(&mut pipeline, &g, updates);
                        lines.push(format!("{name} n{n} s{seed} {repr}: {first} | {second}"));
                    }
                }
            }
        }
        lines
    }

    /// The table, pinned at the parent (separately rounded group sums);
    /// the fused group sums reproduce every line. In the parent's own
    /// verdicts, FEDLS's second round — the autoencoder fitted on the
    /// first round's accepted rows — lets some attackers through on 13 of
    /// the 24 cohorts; the contract pins what the pipelines decide, not
    /// what they should.
    const GOLDEN_VERDICTS: &[&str] = &[
        "safeloc n40 s40 dense: none | none",
        "fedls n40 s40 dense: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s40 dense: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s40 topk: none | none",
        "fedls n40 s40 topk: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s40 topk: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s41 dense: none | none",
        "fedls n40 s41 dense: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s41 dense: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s41 topk: none | none",
        "fedls n40 s41 topk: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s41 topk: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s42 dense: none | none",
        "fedls n40 s42 dense: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s42 dense: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s42 topk: none | none",
        "fedls n40 s42 topk: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s42 topk: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s43 dense: none | none",
        "fedls n40 s43 dense: latent 3,13,23,33 | latent 3,13,23,33",
        "screen n40 s43 dense: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n40 s43 topk: none | none",
        "fedls n40 s43 topk: latent 3,13,23,33 | latent 3,13",
        "screen n40 s43 topk: cluster 3,13,23,33; latent 7 | cluster 3,13,23,33; latent 7",
        "safeloc n128 s40 dense: none | none",
        "fedls n128 s40 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,83,93,103,123",
        "screen n128 s40 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s40 topk: none | none",
        "fedls n128 s40 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,33,43,53,63,83,103,113,123",
        "screen n128 s40 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s41 dense: none | none",
        "fedls n128 s41 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,83,93,103,113,123",
        "screen n128 s41 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s41 topk: none | none",
        "fedls n128 s41 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,93,113",
        "screen n128 s41 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s42 dense: none | none",
        "fedls n128 s42 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,83,93,103,113,123",
        "screen n128 s42 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s42 topk: none | none",
        "fedls n128 s42 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,23,33,43,53,63,73,113,123",
        "screen n128 s42 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s43 dense: none | none",
        "fedls n128 s43 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,83,93,103,113,123",
        "screen n128 s43 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n128 s43 topk: none | none",
        "fedls n128 s43 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123 | latent 3,13,23,33,43,53,63,73,83,93,103",
        "screen n128 s43 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123; latent 7",
        "safeloc n256 s40 dense: none | none",
        "fedls n256 s40 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,23,33,43,53,63,73,83,93,103,123,133,143,153,163,173,183,193,203,213,233,243,253",
        "screen n256 s40 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s40 topk: none | none",
        "fedls n256 s40 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,43,53,63,83,103,113,123,133,143,153,163,193,203,223,233,243,253",
        "screen n256 s40 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s41 dense: none | none",
        "fedls n256 s41 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,23,33,43,53,63,83,93,103,113,123,133,143,153,163,173,183,193,203,223,233,243,253",
        "screen n256 s41 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7,105",
        "safeloc n256 s41 topk: none | none",
        "fedls n256 s41 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,23,33,43,63,73,83,93,103,113,133,143,153,163,173,183,193,203,213,243",
        "screen n256 s41 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s42 dense: none | none",
        "fedls n256 s42 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253",
        "screen n256 s42 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s42 topk: none | none",
        "fedls n256 s42 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 13,23,33,43,53,63,73,113,123,133,153,163,173,183,193,203,213,223,233,253",
        "screen n256 s42 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s43 dense: none | none",
        "fedls n256 s43 dense: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253",
        "screen n256 s43 dense: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
        "safeloc n256 s43 topk: none | none",
        "fedls n256 s43 topk: latent 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253 | latent 3,13,23,33,43,53,63,73,83,93,103,133,153,163,183,213,223,233,243,253",
        "screen n256 s43 topk: cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7 | cluster 3,13,23,33,43,53,63,73,83,93,103,113,123,133,143,153,163,173,183,193,203,213,223,233,243,253; latent 7",
];

    /// Check 3: every verdict equals the parent's.
    #[test]
    fn verdicts_on_the_attacked_cohort_are_the_parents() {
        let table = verdict_table();
        for line in &table {
            println!("{line:?},");
        }
        assert_eq!(table.len(), GOLDEN_VERDICTS.len(), "cell count");
        for (now, parent) in table.iter().zip(GOLDEN_VERDICTS) {
            assert_eq!(now, parent, "a verdict flipped");
        }
    }
}
