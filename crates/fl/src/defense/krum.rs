//! Krum (Blanchard et al. / El Mhamdi et al.): select the single update
//! closest to its peers — the earliest FL indoor-localization defense the
//! paper cites as [22], now a selecting [`Combiner`] of the
//! defense-pipeline API.

use crate::defense::DistanceMatrix;
use crate::defense::{Combiner, RoundContext, Verdicts};
use safeloc_nn::NamedParams;

/// Krum selection: the next GM is the one surviving LM whose summed
/// squared distance to its `n - f - 2` nearest surviving peers is
/// smallest, where `f` is the assumed number of Byzantine clients.
///
/// Robust to a minority of arbitrary updates, but discards the
/// collaborative signal of every non-selected client — the paper's §II
/// criticism ("fails to incorporate collaborative learning from all
/// clients"). The decision trail makes that visible: one update is
/// accepted with weight 1, every other is rejected with its Krum score.
/// Selection ranks the updates aggregation would actually apply: in the
/// common unclipped round, distances come from the round's shared
/// [`RoundContext::squared_l2`] matrix; once any stage has clipped an
/// update, distances are recomputed over the clip-scaled deltas
/// ([`RoundContext::with_squared_l2_scaled`], exact or sampled by the same
/// round-size split) so a boosted attacker cannot first be shrunk to the
/// benign norm scale and then still be ranked — and selected — at its
/// unclipped magnitude. The returned GM honors the selected update's clip
/// scale either way.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Assumed number of malicious clients.
    pub assumed_byzantine: usize,
}

impl Krum {
    /// Krum assuming `f` Byzantine clients.
    pub fn new(f: usize) -> Self {
        Self {
            assumed_byzantine: f,
        }
    }
}

impl Default for Krum {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Krum scores over one distance matrix: per active update, the sum of
/// its `k` smallest distances to the other active updates. Returns the
/// scores (parallel to `active`) and the update with the smallest one
/// (the first on ties).
fn rank(distances: &DistanceMatrix, active: &[usize], k: usize) -> (Vec<f32>, usize) {
    let mut scores = Vec::with_capacity(active.len());
    let mut best = (f32::INFINITY, active[0]);
    let mut dists = Vec::with_capacity(active.len().saturating_sub(1));
    for &i in active {
        dists.clear();
        for &j in active {
            if j != i {
                dists.push(distances.get(i, j));
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let score: f32 = dists.iter().take(k).sum();
        scores.push(score);
        if score < best.0 {
            best = (score, i);
        }
    }
    (scores, best.1)
}

impl Combiner for Krum {
    fn name(&self) -> &'static str {
        "krum"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        if active.len() == 1 {
            verdicts.set_weight(active[0], 1.0);
            return verdicts.effective(ctx, active[0]).into_owned();
        }
        // Number of closest neighbours to score against.
        let k = active
            .len()
            .saturating_sub(self.assumed_byzantine + 2)
            .max(1);
        // One symmetric distance pass for the whole round, shared with any
        // other distance-reading stage. The seed recomputed all O(n²)
        // distances per candidate — O(n³·d) total; this is O(n²·d/2) once.
        // If an upstream stage clipped anything, score the clip-scaled
        // deltas instead — the updates aggregation will actually apply.
        let (scores, selected) = if active.iter().any(|&i| verdicts.scale(i) < 1.0) {
            let scales: Vec<f32> = (0..ctx.len()).map(|i| verdicts.scale(i)).collect();
            ctx.with_squared_l2_scaled(&scales, |distances| rank(distances, &active, k))
        } else {
            rank(ctx.squared_l2(), &active, k)
        };
        for (&i, score) in active.iter().zip(scores) {
            if i == selected {
                verdicts.set_weight(i, 1.0);
            } else {
                verdicts.reject(i, "krum", score);
            }
        }
        verdicts.effective(ctx, selected).into_owned()
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
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

    fn krum(f: usize) -> DefensePipeline {
        DefensePipeline::krum(f)
    }

    #[test]
    fn selects_the_consensus_update() {
        let g = params(&[0.0], &[0.0]);
        // Three near-identical honest updates and one outlier.
        let u = vec![
            update(0, &[1.0], &[1.0]),
            update(1, &[1.1], &[1.0]),
            update(2, &[0.9], &[1.0]),
            update(3, &[50.0], &[-50.0]),
        ];
        let out = krum(1).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.8..=1.2).contains(&w), "picked the outlier: {w}");
        // Exactly one accepted; the outlier's rejection score dwarfs the
        // honest ones'.
        assert_eq!(out.accepted(), 1);
        assert_eq!(out.rejected(), 3);
        let outlier_score = match &out.decisions[3] {
            UpdateDecision::Rejected { rule, score } => {
                assert_eq!(rule, "krum");
                *score
            }
            other => panic!("outlier accepted: {other:?}"),
        };
        assert!(outlier_score > 100.0, "outlier score {outlier_score}");
    }

    #[test]
    fn single_update_is_returned_as_is() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[3.0], &[4.0])];
        let out = krum(1).aggregate(&g, &u);
        assert_eq!(out.params, u[0].params);
        assert_eq!(out.accepted(), 1);
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[7.0], &[8.0]);
        assert_eq!(krum(1).aggregate(&g, &[]).params, g);
    }

    #[test]
    fn ignores_non_finite_outliers() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[1.0]),
            update(1, &[f32::INFINITY], &[0.0]),
            update(2, &[1.05], &[1.0]),
        ];
        let out = krum(1).aggregate(&g, &u);
        assert!(!out.params.has_non_finite());
        assert!(!out.decisions[1].is_accepted());
    }

    #[test]
    fn resists_minority_collusion() {
        // Krum's guarantee needs n >= 2f + 3; with f = 2 that is n >= 7.
        let g = params(&[0.0], &[0.0]);
        let mut u: Vec<_> = (0..5)
            .map(|i| update(i, &[1.0 + i as f32 * 0.02], &[0.0]))
            .collect();
        u.push(update(5, &[10.0], &[0.0]));
        u.push(update(6, &[10.0], &[0.0]));
        let out = krum(2).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!(w < 2.0, "collusion won: {w}");
    }

    #[test]
    fn below_guarantee_threshold_collusion_can_win() {
        // Documents the boundary: with n = 5 < 2f + 3 two identical
        // colluders have zero mutual distance and Krum selects them.
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[0.0]),
            update(1, &[1.02], &[0.0]),
            update(2, &[0.98], &[0.0]),
            update(3, &[10.0], &[0.0]),
            update(4, &[10.0], &[0.0]),
        ];
        let out = krum(2).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!(w > 2.0, "expected the documented failure mode, got {w}");
    }

    /// The composition the monolith could never express: norm-bounding
    /// before selection defuses the boosted colluders that beat bare Krum
    /// below its n ≥ 2f + 3 guarantee.
    #[test]
    fn norm_clip_rescues_krum_below_the_guarantee_threshold() {
        use crate::defense::NormClip;
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[0.0]),
            update(1, &[1.02], &[0.0]),
            update(2, &[0.98], &[0.0]),
            update(3, &[10.0], &[0.0]),
            update(4, &[10.0], &[0.0]),
        ];
        let mut clipped = DefensePipeline::new(
            "norm-clip+krum",
            vec![Box::new(NormClip::new(1.5))],
            Box::new(Krum::new(2)),
        );
        let out = clipped.aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!(w < 2.0, "clipped colluders still replaced the model: {w}");
    }

    /// Regression for the documented Krum-after-clip gap: selection used
    /// to rank *unclipped* distances even after a `NormClip` stage, so an
    /// attacker who parked just inside the clip cap — while clipping
    /// dragged the honest tail onto the cap sphere near it — won the
    /// unclipped ranking and was selected. Scoring the clip-scaled deltas
    /// (what aggregation actually applies) rejects it.
    #[test]
    fn krum_selection_sees_clipped_deltas() {
        use crate::defense::NormClip;
        let g = params(&[0.0, 0.0], &[0.0]);
        // Honest spread along one axis; the attacker sits just off-axis at
        // the round's lower-median norm (= the clip cap), n = 5, f = 1.
        let u = vec![
            update(0, &[2.0, 0.0], &[0.0]),
            update(1, &[8.0, 0.0], &[0.0]),
            update(2, &[14.0, 0.0], &[0.0]),
            update(3, &[20.0, 0.0], &[0.0]),
            update(4, &[11.0, 2.0], &[0.0]),
        ];

        // Bare Krum takes the bait: unclipped, the attacker is the most
        // central update (k = 2 nearest at 13 + 13 = 26 vs 49 for every
        // honest client) — the geometry the gap is about.
        let bare = krum(1).aggregate(&g, &u);
        assert!(
            bare.decisions[4].is_accepted(),
            "geometry no longer baits bare Krum; the regression test is vacuous"
        );

        // NormClip(1.0) caps at the lower-median norm (the attacker's own
        // ≈ 11.18): clients 2 and 3 get dragged onto the cap sphere at
        // [11.18, 0], right next to the attacker. Before the fix Krum
        // still ranked the unclipped points and selected the attacker.
        let mut clipped = DefensePipeline::new(
            "norm-clip+krum",
            vec![Box::new(NormClip::new(1.0))],
            Box::new(Krum::new(1)),
        );
        let out = clipped.aggregate(&g, &u);
        assert!(
            !out.decisions[4].is_accepted(),
            "attacker survived Krum selection after clipping"
        );
        // The winner is a clipped honest update sitting at the cap.
        let w = out.params.get("layer0.w").unwrap();
        assert!(
            (w.get(0, 0) - 11.18034).abs() < 1e-3 && w.get(0, 1) == 0.0,
            "unexpected selected GM: [{}, {}]",
            w.get(0, 0),
            w.get(0, 1)
        );
    }

    /// Regression for the clipped-Krum cost cliff: one clipped update used
    /// to send a round of any size through an exact all-pairs pass over
    /// all `d` coordinates — the attacker chose the server's cost. Above
    /// `EXACT_SCREEN_MAX` the clip-scaled distances now come from the
    /// sampled block (pinned bitwise against the stride reference in
    /// `defense/context.rs`), and on a cohort with a clear consensus they
    /// select what the exact rule selects.
    #[test]
    fn clipped_large_rounds_select_what_the_exact_rule_selects() {
        use crate::defense::test_support::{attacked_cohort, delta_block, WIDE_SHAPES};
        use crate::defense::{DefenseStage, NormClip, EXACT_SCREEN_MAX};
        let n = 96;
        assert!(n > EXACT_SCREEN_MAX);
        let (g, mut u) = attacked_cohort(n, &WIDE_SHAPES, 5);
        // A clear consensus: update 0 sits at the mean of the unboosted
        // updates, half as far from each of them as they are from each
        // other.
        let benign: Vec<NamedParams> = u
            .iter()
            .filter(|u| u.client_id % 10 != 3 && u.client_id != 7)
            .map(|u| u.params.clone())
            .collect();
        u[0].params = NamedParams::mean(&benign);
        let f = n / 10;

        // The exact rule, as `combine` ran it for every round size before
        // the split: all pairs over all `d` clip-scaled coordinates.
        let refs: Vec<&crate::ClientUpdate> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let mut verdicts = Verdicts::new(n);
        NormClip::default().screen(&ctx, &mut verdicts);
        let scales: Vec<f32> = (0..n).map(|i| verdicts.scale(i)).collect();
        assert!(
            scales[3] < 1.0 && scales[7] < 1.0 && scales[0] == 1.0,
            "the fixture no longer clips its boosted updates"
        );
        let exact = DistanceMatrix::squared_l2_scaled(&delta_block(&g, &refs), &scales);
        let (_, expected) = rank(&exact, &verdicts.active_indices(), n - f - 2);
        assert_eq!(expected, 0, "the exact rule misses the planted consensus");

        let mut clipped = DefensePipeline::new(
            "norm-clip+krum",
            vec![Box::new(NormClip::default())],
            Box::new(Krum::new(f)),
        );
        let out = clipped.aggregate(&g, &u);
        assert_eq!(out.accepted(), 1);
        assert!(
            out.decisions[expected].is_accepted(),
            "sampled clipped Krum diverged from the exact selection"
        );
        assert_eq!(out.params, u[expected].params);
    }
}
