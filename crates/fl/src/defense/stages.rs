//! Generic screening stages usable in any pipeline composition.

use crate::defense::NON_FINITE_RULE;
use crate::defense::{DefenseStage, RoundContext, Verdicts};

/// Stage zero of every pipeline: rejects updates carrying NaN/Inf weights
/// with rule [`NON_FINITE_RULE`], so one crashed or actively hostile
/// client cannot poison the GM with non-finite arithmetic.
///
/// [`DefensePipeline::new`](crate::defense::DefensePipeline::new) puts it
/// at the head of every stage list (a list that already starts with it is
/// left alone), so this — not a filter in front of the pipeline — is where
/// a non-finite update meets the defense: the rejection is a verdict like
/// any other, the update stays in the round's [`RoundContext`] at its
/// position, and every later stage and the combiner pass over it because
/// they only read active updates. Its wall time and rejection count are
/// the first entry of the pipeline's stage telemetry.
///
/// It reads the round's delta view rather than sweeping every parameter:
/// a row stored as a support is non-finite iff one of its stored LM values
/// is (everywhere else it *is* the GM, which the view checked once), a
/// dense row is swept whole
/// ([`DeltaRows::lm_has_non_finite`](crate::defense::DeltaRows::lm_has_non_finite)).
/// As the first stage to ask for the view it pays for the discovery pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonFiniteGuard;

impl DefenseStage for NonFiniteGuard {
    fn name(&self) -> &'static str {
        NON_FINITE_RULE
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let rows = ctx.delta_rows();
        for i in 0..rows.len() {
            if verdicts.is_active(i) && rows.lm_has_non_finite(i) {
                verdicts.reject(i, NON_FINITE_RULE, 1.0);
            }
        }
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(*self)
    }
}

/// Norm bounding (the classic defense against boosted model-replacement
/// attacks): caps every update's delta norm at `multiple ×` the round's
/// benign norm scale, shrinking — never rejecting — oversized updates.
///
/// The reference scale is the *lower median* of the active updates'
/// delta norms: boost attacks only ever inflate norms, so when a
/// contaminated round has an even split the smaller middle value is the
/// benign one. An update whose norm exceeds `multiple × reference` gets
/// clip scale `reference · multiple / norm`, i.e. its effective update
/// becomes `GM + scale · (LM − GM)` at exactly the cap. Any positive
/// `multiple` is honored as written — values below 1 shrink even
/// sub-median updates toward the GM; non-positive values disable the
/// stage (nothing is clipped) rather than zeroing the round.
#[derive(Debug, Clone, Copy)]
pub struct NormClip {
    /// Cap as a multiple of the round's lower-median delta norm
    /// (non-positive disables clipping).
    pub multiple: f32,
}

impl NormClip {
    /// Clips at `multiple ×` the round's lower-median delta norm.
    pub fn new(multiple: f32) -> Self {
        Self { multiple }
    }
}

impl Default for NormClip {
    fn default() -> Self {
        // A model-replacement attacker boosts by n_clients / n_attackers,
        // ≥ 3 for any minority attacker in the paper's fleets.
        Self::new(3.0)
    }
}

impl DefenseStage for NormClip {
    fn name(&self) -> &'static str {
        "norm-clip"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.len() < 2 {
            // A lone update defines its own scale; nothing to bound
            // against.
            return;
        }
        self.clip_to_norms(ctx.raw_norms(), &active, verdicts);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(*self)
    }
}

impl NormClip {
    /// The stage proper, past the norms: clips the `active` updates
    /// against their lower-median `norms[i]`.
    pub(crate) fn clip_to_norms(&self, norms: &[f32], active: &[usize], verdicts: &mut Verdicts) {
        let mut active_norms: Vec<f32> = active.iter().map(|&i| norms[i]).collect();
        active_norms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let reference = active_norms[(active_norms.len() - 1) / 2];
        let cap = self.multiple * reference;
        if cap <= 0.0 {
            // A non-positive multiple, or a degenerate round whose
            // lower-median norm is 0 (most updates identical to the GM):
            // decline to clip rather than zeroing every update.
            return;
        }
        for &i in active {
            if norms[i] > cap {
                verdicts.clip(i, cap / norms[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::defense::{DefensePipeline, UniformMean};
    use crate::Aggregator;

    #[test]
    fn non_finite_guard_rejects_only_bad_updates() {
        let g = params(&[0.0], &[0.0]);
        let u = [update(0, &[1.0], &[1.0]), update(1, &[f32::NAN], &[0.0])];
        let refs: Vec<_> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let mut v = Verdicts::new(2);
        NonFiniteGuard.screen(&ctx, &mut v);
        assert_eq!(v.active_indices(), vec![0]);
    }

    #[test]
    fn norm_clip_caps_the_boosted_update_and_spares_honest_ones() {
        let g = params(&[0.0, 0.0], &[0.0]);
        // Three honest updates around norm ~1.4, one 100x boost.
        let u = vec![
            update(0, &[1.0, 1.0], &[0.0]),
            update(1, &[1.1, 0.9], &[0.0]),
            update(2, &[0.9, 1.1], &[0.0]),
            update(3, &[100.0, 100.0], &[0.0]),
        ];
        let mut p = DefensePipeline::new(
            "norm-clip+mean",
            vec![Box::new(NormClip::new(3.0))],
            Box::new(UniformMean),
        );
        let out = p.aggregate(&g, &u);
        // Nothing is rejected — clipping is a soft defense.
        assert_eq!(out.accepted(), 4);
        // The mean sits near the honest consensus instead of being dragged
        // to ~25 by the boosted update: its contribution is capped at 3x
        // the benign norm.
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!(w < 2.0, "boosted update dragged the mean to {w}");
        assert!(w > 0.9, "honest signal lost: {w}");
    }

    /// Spec-swept multiples must mean what they say: a sub-1 multiple
    /// shrinks even sub-median updates, and a non-positive multiple
    /// disables the stage — neither silently degenerates into another
    /// configuration's behavior.
    #[test]
    fn norm_clip_honors_sub_one_and_non_positive_multiples() {
        let g = params(&[0.0], &[0.0]);
        let u = [
            update(0, &[1.0], &[0.0]),
            update(1, &[2.0], &[0.0]),
            update(2, &[4.0], &[0.0]),
        ];
        let refs: Vec<_> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        // Lower-median norm is 2; multiple 0.5 caps at 1: the norm-1
        // update is untouched, the others shrink to exactly the cap.
        let mut v = Verdicts::new(3);
        NormClip::new(0.5).screen(&ctx, &mut v);
        assert_eq!(v.scale(0), 1.0);
        assert!((v.scale(1) - 0.5).abs() < 1e-6);
        assert!((v.scale(2) - 0.25).abs() < 1e-6);
        // Non-positive multiple: no clipping at all.
        let mut v = Verdicts::new(3);
        NormClip::new(0.0).screen(&ctx, &mut v);
        assert!((0..3).all(|i| v.scale(i) == 1.0));
    }

    #[test]
    fn norm_clip_leaves_homogeneous_rounds_untouched() {
        let g = params(&[0.0], &[0.0]);
        let u = [update(0, &[1.0], &[0.0]), update(1, &[1.1], &[0.0])];
        let refs: Vec<_> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let mut v = Verdicts::new(2);
        NormClip::default().screen(&ctx, &mut v);
        assert_eq!(v.scale(0), 1.0);
        assert_eq!(v.scale(1), 1.0);
    }

    #[test]
    fn norm_clip_ignores_zero_norm_rounds() {
        let g = params(&[1.0], &[1.0]);
        let u = [
            update(0, &[1.0], &[1.0]),
            update(1, &[1.0], &[1.0]),
            update(2, &[9.0], &[1.0]),
        ];
        let refs: Vec<_> = u.iter().collect();
        let ctx = RoundContext::new(&g, &refs);
        let mut v = Verdicts::new(3);
        NormClip::default().screen(&ctx, &mut v);
        // Lower-median norm is 0 (two updates identical to the GM): the
        // cap degenerates and the stage declines to clip rather than
        // zeroing every update.
        assert_eq!(v.scale(2), 1.0);
    }
}
