//! Differential oracles for the screening path.
//!
//! The fast screening path (cached norms in 2-means, one kernel call per
//! projection, the sampled block read in place, a recycled delta block)
//! promises the *same bits* as the straightforward implementations it
//! replaced. Those implementations live on here, test-only, as the
//! references the promise is checked against: on an attacked cohort above
//! [`EXACT_SCREEN_MAX`] the full
//! `NonFiniteGuard → NormClip → cluster → latent → TrimmedMean` pipeline
//! must reach identical decisions — rule, accepted set, score bits — and a
//! bit-identical GM either way. (The delta-pass reference for the sampled
//! block sits next to it in `context.rs`.)

use super::*;
use crate::aggregate::test_support::{attacked_cohort, WIDE_SHAPES};
use crate::aggregate::{ClusterAggregator, Krum, LatentFilterAggregator};
use crate::report::UpdateDecision;
use safeloc_nn::Matrix;

/// The cluster stage before norms were cached: every cosine distance
/// recomputes both operands' norms (six sweeps per update per pass), over
/// per-update row copies.
#[derive(Clone)]
struct ReferenceCluster {
    separation_threshold: f32,
}

fn cos_dist(a: &Matrix, b: &Matrix) -> f32 {
    let (dot, na, nb) = (a.flat_dot(b), a.l2_norm(), b.l2_norm());
    if na == 0.0 || nb == 0.0 {
        1.0
    } else {
        1.0 - dot / (na * nb)
    }
}

impl DefenseStage for ReferenceCluster {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        let n = active.len();
        if n <= 2 {
            return;
        }
        let deltas: Vec<Matrix> = ctx.deltas().iter_rows().map(Matrix::row_vector).collect();
        let pairwise = ctx.cosine();
        let mut best = (active[0], active[1], f32::NEG_INFINITY);
        for (slot, &i) in active.iter().enumerate() {
            for &j in &active[slot + 1..] {
                let d = pairwise.get(i, j);
                if d > best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (ca, cb, separation) = best;
        if separation < self.separation_threshold {
            return;
        }
        let mut centroids = [deltas[ca].clone(), deltas[cb].clone()];
        let mut assignment = vec![0usize; n];
        for _ in 0..10 {
            let mut changed = false;
            for (slot, &i) in active.iter().enumerate() {
                let d = &deltas[i];
                let side = if cos_dist(d, &centroids[0]) <= cos_dist(d, &centroids[1]) {
                    0
                } else {
                    1
                };
                changed |= assignment[slot] != side;
                assignment[slot] = side;
            }
            for (side, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<&Matrix> = active
                    .iter()
                    .zip(&assignment)
                    .filter(|(_, &a)| a == side)
                    .map(|(&i, _)| &deltas[i])
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mut acc = members[0].scale(0.0);
                for m in &members {
                    acc.axpy(1.0 / members.len() as f32, m);
                }
                *centroid = acc;
            }
            if !changed {
                break;
            }
        }
        let count_a = assignment.iter().filter(|&&a| a == 0).count();
        let majority = usize::from(count_a * 2 < n);
        for (&i, &a) in active.iter().zip(&assignment) {
            if a != majority {
                verdicts.reject(i, "cluster", cos_dist(&deltas[i], &centroids[majority]));
            }
        }
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The latent stage before the block projection: one `1 × d` row product
/// per active update, each streaming the whole projection.
#[derive(Clone)]
struct ReferenceLatent(LatentFilterAggregator);

impl DefenseStage for ReferenceLatent {
    fn name(&self) -> &'static str {
        "latent"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.is_empty() {
            return;
        }
        let projection = self.0.projection_for(ctx.global().num_params());
        let raw_rows = active
            .iter()
            .map(|&i| {
                Matrix::row_vector(ctx.deltas().row(i))
                    .matmul(projection)
                    .into_vec()
            })
            .collect();
        self.0.screen_features(raw_rows, &active, verdicts);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

const SEED: u64 = 0x5AFE;
const TRIM: f32 = 0.1;

/// `round_screen`'s stage list.
fn screening_pipeline() -> DefensePipeline {
    DefensePipeline::new(
        "fast",
        vec![
            Box::new(NonFiniteGuard),
            Box::new(NormClip::default()),
            Box::new(ClusterAggregator::default()),
            Box::new(LatentFilterAggregator::new(SEED)),
        ],
        Box::new(TrimmedMean::new(TRIM)),
    )
}

fn reference_pipeline() -> DefensePipeline {
    DefensePipeline::new(
        "reference",
        vec![
            Box::new(NonFiniteGuard),
            Box::new(NormClip::default()),
            Box::new(ReferenceCluster {
                separation_threshold: ClusterAggregator::default().separation_threshold,
            }),
            Box::new(ReferenceLatent(LatentFilterAggregator::new(SEED))),
        ],
        Box::new(TrimmedMean::new(TRIM)),
    )
}

/// Every float of an outcome as its bit pattern, so `-0.0 != 0.0` and a
/// NaN equals itself: decisions `(accepted, rule, weight-or-score bits)`
/// and the GM's coordinates.
fn bits(out: &AggregationOutcome) -> (Vec<(bool, &str, u32)>, Vec<u32>) {
    let decisions = out
        .decisions
        .iter()
        .map(|d| match d {
            UpdateDecision::Accepted { weight } => (true, "", weight.to_bits()),
            UpdateDecision::Rejected { rule, score } => (false, rule.as_str(), score.to_bits()),
        })
        .collect();
    let gm = out
        .params
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (decisions, gm)
}

fn rejected_by<'a>(out: &'a AggregationOutcome, rule: &'a str) -> impl Iterator<Item = usize> + 'a {
    out.decisions
        .iter()
        .enumerate()
        .filter(move |(_, d)| matches!(d, UpdateDecision::Rejected { rule: r, .. } if r == rule))
        .map(|(i, _)| i)
}

#[test]
fn fast_screening_matches_the_reference_implementations_bitwise() {
    let n = 96;
    assert!(n > EXACT_SCREEN_MAX);
    let (mut fast, mut reference) = (screening_pipeline(), reference_pipeline());
    // Three rounds: the latent stage scores by median distance while its
    // benign history is short and by autoencoder afterwards.
    for round in 0..3 {
        let (g, u) = attacked_cohort(n, &WIDE_SHAPES, 40 + round);
        let got = fast.aggregate(&g, &u);
        let expected = reference.aggregate(&g, &u);
        assert_eq!(bits(&got), bits(&expected), "round {round} diverged");
        // Not vacuously: the boosted outliers are the cluster stage's
        // minority, the loud honest update the latent stage's outlier.
        assert_eq!(
            rejected_by(&got, "cluster").collect::<Vec<_>>(),
            (3..n).step_by(10).collect::<Vec<_>>(),
            "round {round}"
        );
        assert_eq!(rejected_by(&got, "latent").collect::<Vec<_>>(), [7]);
    }
}

/// A narrower model for the width change: `d = 1950`, below the sample
/// budget, so the sampled block is the whole delta.
const NARROW_SHAPES: [(usize, usize); 3] = [(30, 50), (1, 50), (50, 8)];

/// One pipeline through growing, shrinking and re-shaped rounds must give,
/// round for round, what a pipeline with cold buffers gives: no stale
/// delta rows, no stale triangle entries. The cold twin is a clone taken
/// before the round — same rule state, and (asserted) an empty scratch.
#[test]
fn recycled_buffers_never_change_an_outcome() {
    let clipped_krum = DefensePipeline::new(
        "norm-clip+krum",
        vec![Box::new(NormClip::default())],
        Box::new(Krum::new(13)),
    );
    for mut warm in [screening_pipeline(), clipped_krum] {
        let rounds = [
            (96, &WIDE_SHAPES[..]),
            (70, &WIDE_SHAPES[..]),
            (130, &WIDE_SHAPES[..]),
            (96, &NARROW_SHAPES[..]),
            (40, &WIDE_SHAPES[..]),
        ];
        for (round, (n, shapes)) in rounds.into_iter().enumerate() {
            let (g, u) = attacked_cohort(n, shapes, 60 + round as u64);
            let mut cold = warm.clone();
            assert_eq!(
                cold.scratch.capacity(),
                0,
                "a cloned pipeline copied the recycled buffers"
            );
            let expected = cold.aggregate(&g, &u);
            let got = warm.aggregate(&g, &u);
            assert_eq!(
                bits(&got),
                bits(&expected),
                "{}: round {round} ({n} updates) diverged",
                warm.label()
            );
            assert!(warm.scratch.capacity() >= n * g.num_params());
        }
    }
}
