//! FEDCC-style clustering: group updates by similarity, keep the majority
//! cluster — now a screening [`DefenseStage`] of the defense-pipeline API.

use crate::defense::{DefenseStage, DeltaRow, RoundContext, Verdicts};
use safeloc_nn::kernels;

/// Clustering defense following the paper's §II summary of FEDCC:
/// "clustering techniques to group LMs based on gradient similarity,
/// allowing it to detect and exclude poisoned updates".
///
/// The update deltas (LM − GM, from the round's shared
/// [`RoundContext::delta_rows`]) are split by 2-means with cosine distance;
/// the minority cluster is rejected with rule `"cluster"` and the cosine
/// distance to the kept centroid as score, leaving the majority for the
/// pipeline's combiner (a [`UniformMean`](crate::defense::UniformMean) in
/// the canonical FEDCC composition,
/// [`DefensePipeline::cluster`](crate::defense::DefensePipeline::cluster)).
/// When the two clusters are nearly indistinguishable (no attack), or the
/// round is too small to cluster meaningfully (≤ 2 survivors), everything
/// is kept.
///
/// The known failure mode — reproduced in Fig. 6 — is that under strong
/// *backdoor* perturbations honest heterogeneous clients scatter enough
/// that legitimate updates land in the minority cluster and get dropped.
#[derive(Debug, Clone, Copy)]
pub struct ClusterAggregator {
    /// Minimum cosine separation between centroids for the split to count
    /// as an attack; below this everything is kept.
    pub separation_threshold: f32,
}

impl ClusterAggregator {
    /// Creates the stage with the given separation threshold.
    pub fn new(separation_threshold: f32) -> Self {
        Self {
            separation_threshold,
        }
    }
}

impl Default for ClusterAggregator {
    fn default() -> Self {
        Self::new(0.15)
    }
}

/// A 2-means centroid with its L2 norm, taken once per pass instead of
/// once per distance.
struct Centroid {
    values: Vec<f32>,
    norm: f32,
}

impl Centroid {
    /// A centroid sitting on `row`, one of `dim`-long deltas.
    fn at(row: DeltaRow<'_>, dim: usize) -> Self {
        let mut values = vec![0.0; dim];
        row.write_to(&mut values);
        let norm = kernels::sum_squares(&values).sqrt();
        Self { values, norm }
    }

    /// Cosine distance in `[0, 2]` to a delta whose L2 norm and dot
    /// product with the centroid the caller already holds (0 similarity
    /// when either norm is 0).
    fn cos_dist(&self, dot: f32, row_norm: f32) -> f32 {
        if row_norm == 0.0 || self.norm == 0.0 {
            1.0
        } else {
            1.0 - dot / (row_norm * self.norm)
        }
    }

    /// Replaces the centroid with the mean of `members` (kept as is when
    /// there are none).
    fn recenter(&mut self, members: &[DeltaRow<'_>]) {
        if members.is_empty() {
            return;
        }
        let weight = 1.0 / members.len() as f32;
        self.values.fill(0.0);
        for member in members {
            member.add_scaled_to(&mut self.values, weight);
        }
        self.norm = kernels::sum_squares(&self.values).sqrt();
    }
}

impl DefenseStage for ClusterAggregator {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        let n = active.len();
        if n <= 2 {
            // Too few to cluster meaningfully; keep everything.
            return;
        }

        // Deterministic 2-means seeding: the active pair with maximal
        // cosine distance becomes the initial centroids. All pairwise
        // cosine distances come from the shared round matrix (computed
        // once, in parallel) instead of a bespoke O(n²·d) double loop.
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
            // No meaningful split — keep everyone.
            return;
        }

        // Each pass sweeps every delta once, for both centroids' dots: the
        // delta norms are the round's cached `raw_norms`, the centroid
        // norms are taken once per re-centring.
        let (deltas, norms) = (ctx.delta_rows(), ctx.raw_norms());
        let mut centroids = [ca, cb].map(|i| Centroid::at(deltas.row(i), deltas.dim()));
        let mut assignment = vec![0u8; n];
        let mut passes = 0;
        for pass in 1..=10 {
            passes = pass;
            let mut changed = false;
            let [a, b] = &centroids;
            for (slot, &i) in active.iter().enumerate() {
                let (dot_a, dot_b) = deltas.row(i).dot_pair(&a.values, &b.values);
                let nearer_a = a.cos_dist(dot_a, norms[i]) <= b.cos_dist(dot_b, norms[i]);
                let side = if nearer_a { 0 } else { 1 };
                if assignment[slot] != side {
                    assignment[slot] = side;
                    changed = true;
                }
            }
            // A settled split is not re-centred: the same members, in the
            // same order and at the same weight, would rebuild the very
            // centroids it holds, bit for bit. (Settled in pass 1, the split
            // is everyone on side `a` — nobody is rejected, so the seeds it
            // still holds are never read.)
            if !changed {
                break;
            }
            for (side, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<DeltaRow<'_>> = active
                    .iter()
                    .zip(&assignment)
                    .filter(|(_, &a)| usize::from(a) == side)
                    .map(|(&i, _)| deltas.row(i))
                    .collect();
                centroid.recenter(&members);
            }
        }
        // det: telemetry only — nothing reads the gauge back.
        crate::metrics::fl_metrics().on_cluster_passes(passes);

        let count_a = assignment.iter().filter(|&&a| a == 0).count();
        let majority: u8 = if count_a * 2 >= n { 0 } else { 1 };
        let kept = &centroids[usize::from(majority)];
        for (&i, &a) in active.iter().zip(&assignment) {
            if a != majority {
                let score = kept.cos_dist(deltas.row(i).dot(&kept.values), norms[i]);
                verdicts.reject(i, "cluster", score);
            }
        }
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::defense::DefensePipeline;
    use crate::report::UpdateDecision;
    use crate::Aggregator;

    fn cluster() -> DefensePipeline {
        DefensePipeline::cluster(ClusterAggregator::default().separation_threshold)
    }

    #[test]
    fn majority_cluster_wins() {
        let g = params(&[0.0, 0.0], &[0.0]);
        // Four honest updates pointing one way, two poisoned the other way.
        let u = vec![
            update(0, &[1.0, 0.1], &[0.0]),
            update(1, &[1.1, 0.0], &[0.0]),
            update(2, &[0.9, 0.05], &[0.0]),
            update(3, &[1.0, -0.05], &[0.0]),
            update(4, &[-5.0, 5.0], &[0.0]),
            update(5, &[-5.2, 5.1], &[0.0]),
        ];
        let out = cluster().aggregate(&g, &u);
        let w0 = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.8..=1.2).contains(&w0), "poisoned cluster won: {w0}");
        // The two poisoned updates are the rejected minority, scored far
        // from the kept centroid.
        assert_eq!(out.accepted(), 4);
        for d in &out.decisions[4..] {
            match d {
                UpdateDecision::Rejected { rule, score } => {
                    assert_eq!(rule, "cluster");
                    assert!(*score > 0.5, "minority score too close: {score}");
                }
                other => panic!("poisoned update accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn homogeneous_updates_all_aggregate() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[0.0]),
            update(1, &[1.01], &[0.0]),
            update(2, &[0.99], &[0.0]),
        ];
        let out = cluster().aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((w - 1.0).abs() < 0.05);
        assert_eq!(out.accepted(), 3);
    }

    #[test]
    fn two_or_fewer_updates_average() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[0.0]), update(1, &[4.0], &[0.0])];
        let out = cluster().aggregate(&g, &u);
        assert!((out.params.get("layer0.w").unwrap().get(0, 0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[5.0], &[5.0]);
        assert_eq!(cluster().aggregate(&g, &[]).params, g);
    }

    #[test]
    fn ties_keep_the_first_cluster() {
        // 2 vs 2: majority rule keeps cluster 0 (count_a * 2 >= n).
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[0.0]),
            update(1, &[1.0], &[0.0]),
            update(2, &[-1.0], &[0.0]),
            update(3, &[-1.0], &[0.0]),
        ];
        let out = cluster().aggregate(&g, &u);
        assert!(!out.params.has_non_finite());
        assert_eq!(out.accepted() + out.rejected(), 4);
    }

    /// A composition the monolith could never express: the cluster screen
    /// feeding Krum selection instead of a mean — the minority cluster is
    /// gone before Krum scores, so its colluders cannot vote for each
    /// other.
    #[test]
    fn cluster_screen_composes_with_krum_selection() {
        use crate::defense::Krum;
        let g = params(&[0.0, 0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0, 0.1], &[0.0]),
            update(1, &[1.1, 0.0], &[0.0]),
            update(2, &[0.9, 0.05], &[0.0]),
            update(3, &[-5.0, 5.0], &[0.0]),
            update(4, &[-5.2, 5.1], &[0.0]),
        ];
        let mut p = DefensePipeline::new(
            "cluster+krum",
            vec![Box::new(ClusterAggregator::default())],
            Box::new(Krum::new(1)),
        );
        let out = p.aggregate(&g, &u);
        assert_eq!(out.accepted(), 1, "Krum selects one of the kept cluster");
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.8..=1.2).contains(&w), "selected from the minority: {w}");
        // Both rules appear in the decision trail.
        let rules: Vec<&str> = out
            .decisions
            .iter()
            .filter_map(|d| match d {
                UpdateDecision::Rejected { rule, .. } => Some(rule.as_str()),
                _ => None,
            })
            .collect();
        assert!(rules.contains(&"cluster") && rules.contains(&"krum"));
    }
}
