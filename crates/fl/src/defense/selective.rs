//! FEDHIL-style selective weight aggregation, now a tensor-level
//! [`Combiner`] of the defense-pipeline API.

use crate::defense::{Combiner, RoundContext, Verdicts};
use safeloc_nn::NamedParams;
use std::borrow::Cow;

/// Selective per-tensor aggregation, following the paper's §II summary of
/// FEDHIL: "a domain-specific selective weight aggregation technique that
/// averages only specific weight tensors to mitigate bias from individual
/// clients".
///
/// Only the *upper* (classifier-side) fraction of tensor positions is
/// federated-averaged across the surviving updates; the lower
/// feature-extraction tensors keep the global model's values. The
/// rationale in FEDHIL is heterogeneity: early layers absorb
/// device-specific bias and are better kept stable, while the shared
/// classifier layers carry the collaborative signal.
///
/// This reproduces FEDHIL's Fig. 1 asymmetry exactly: label-flipping
/// poison lives in the aggregated classifier tensors and passes through
/// (3.9× mean error growth — *worse* than FEDLOC's 3.5×), while backdoor
/// poison that corrupts feature layers is partially blocked (3.25× vs.
/// FEDLOC's 6.5×). The defense is tensor-level, never update-level, so it
/// rejects nothing — which is why it composes naturally behind screening
/// stages that do.
#[derive(Debug, Clone, Copy)]
pub struct SelectiveAggregator {
    /// Fraction of tensor positions (from the output side) that are
    /// aggregated; the rest keep the GM values.
    pub aggregate_fraction: f32,
}

impl SelectiveAggregator {
    /// Creates the combiner averaging the top `aggregate_fraction` of
    /// tensors.
    pub fn new(aggregate_fraction: f32) -> Self {
        Self { aggregate_fraction }
    }
}

impl Default for SelectiveAggregator {
    fn default() -> Self {
        Self::new(0.5)
    }
}

impl Combiner for SelectiveAggregator {
    fn name(&self) -> &'static str {
        "selective"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let global = ctx.global();
        let n_tensors = global.len();
        let k = ((self.aggregate_fraction.clamp(0.0, 1.0)) * n_tensors as f32).ceil() as usize;
        let first_aggregated = n_tensors - k.min(n_tensors);
        let scale = 1.0 / active.len() as f32;
        let sources: Vec<Cow<'_, NamedParams>> =
            active.iter().map(|&i| verdicts.effective(ctx, i)).collect();

        let mut out = global.clone();
        for (idx, (name, tensor)) in out.iter_mut().enumerate() {
            if idx < first_aggregated {
                continue; // feature-side tensor: keep the GM values
            }
            let mut acc = tensor.scale(0.0);
            for p in &sources {
                acc.axpy(scale, p.get(name).expect("architectures match"));
            }
            *tensor = acc;
        }
        for &i in &active {
            verdicts.set_weight(i, scale);
        }
        out
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::defense::DefensePipeline;
    use crate::Aggregator;

    fn selective(fraction: f32) -> DefensePipeline {
        DefensePipeline::selective(fraction)
    }

    #[test]
    fn upper_tensors_aggregate_lower_keep_gm() {
        // params() builds [layer0.w, layer0.b]; with fraction 0.5 only the
        // second tensor (bias, classifier side) is aggregated.
        let g = params(&[1.0], &[1.0]);
        let u = vec![update(0, &[5.0], &[3.0]), update(1, &[9.0], &[5.0])];
        let out = selective(0.5).aggregate(&g, &u);
        assert_eq!(
            out.params.get("layer0.w").unwrap().get(0, 0),
            1.0,
            "feature tensor changed"
        );
        assert_eq!(
            out.params.get("layer0.b").unwrap().get(0, 0),
            4.0,
            "classifier tensor not averaged"
        );
        assert_eq!(out.accepted(), 2, "selective never rejects whole updates");
    }

    #[test]
    fn fraction_one_is_fedavg() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[2.0]), update(1, &[4.0], &[4.0])];
        let out = selective(1.0).aggregate(&g, &u);
        assert_eq!(out.params.get("layer0.w").unwrap().get(0, 0), 3.0);
        assert_eq!(out.params.get("layer0.b").unwrap().get(0, 0), 3.0);
    }

    #[test]
    fn fraction_zero_keeps_gm() {
        let g = params(&[1.0], &[2.0]);
        let u = vec![update(0, &[9.0], &[9.0])];
        let out = selective(0.0).aggregate(&g, &u);
        assert_eq!(out.params, g);
    }

    #[test]
    fn identical_updates_are_a_fixed_point() {
        let g = params(&[2.0], &[3.0]);
        let u = vec![
            ClientUpdate::new(0, g.clone(), 1),
            ClientUpdate::new(1, g.clone(), 1),
        ];
        let out = selective(0.5).aggregate(&g, &u);
        assert_eq!(out.params, g);
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[1.0], &[1.0]);
        assert_eq!(selective(0.5).aggregate(&g, &[]).params, g);
    }

    #[test]
    fn classifier_side_poison_passes_feature_poison_blocked() {
        // Documents the FEDHIL asymmetry the paper's Fig. 1 shows.
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[0.0], &[0.0]),
            update(1, &[30.0], &[30.0]), // poisons both tensors
        ];
        let out = selective(0.5).aggregate(&g, &u);
        assert_eq!(
            out.params.get("layer0.w").unwrap().get(0, 0),
            0.0,
            "feature poison leaked"
        );
        assert_eq!(
            out.params.get("layer0.b").unwrap().get(0, 0),
            15.0,
            "classifier poison blocked"
        );
    }

    #[test]
    fn non_finite_updates_dropped() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[1.0], &[1.0]), update(1, &[f32::NAN], &[1.0])];
        let out = selective(1.0).aggregate(&g, &u);
        assert!(!out.params.has_non_finite());
        assert_eq!(out.params.get("layer0.w").unwrap().get(0, 0), 1.0);
        assert_eq!(out.rejected(), 1);
    }

    use crate::update::ClientUpdate;
}
