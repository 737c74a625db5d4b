//! Federated averaging (McMahan et al.) — FEDLOC's aggregation rule,
//! now the sample-weighted-mean [`Combiner`] of the defense-pipeline API.

use crate::defense::{Combiner, RoundContext, Verdicts};
use safeloc_nn::NamedParams;

/// Sample-weighted federated averaging: the next GM is the weighted mean
/// of the surviving LMs, each weighted by its sample-count share. As the
/// whole defense ([`DefensePipeline::fedavg`](crate::defense::DefensePipeline::fedavg),
/// no screening stages) this is FEDLOC's rule — no defense whatsoever,
/// which is why FEDLOC collapses under poisoning in Figs. 1 and 6. Behind
/// screening stages it is the vanilla terminal most layered defenses end
/// in.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl Combiner for FedAvg {
    fn name(&self) -> &'static str {
        "sample-mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let updates = ctx.updates();
        let total: f32 = active
            .iter()
            .map(|&i| updates[i].num_samples.max(1) as f32)
            .sum();
        let mut acc = ctx.global().scale(0.0);
        for &i in &active {
            let w = updates[i].num_samples.max(1) as f32 / total;
            acc.axpy(w, verdicts.effective(ctx, i).as_ref());
            verdicts.set_weight(i, w);
        }
        acc
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
    use crate::report::UpdateDecision;
    use crate::{Aggregator, ClientUpdate};

    fn fedavg() -> DefensePipeline {
        DefensePipeline::fedavg()
    }

    #[test]
    fn equal_weights_average() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u = vec![
            update(0, &[2.0, 0.0], &[1.0]),
            update(1, &[0.0, 4.0], &[3.0]),
        ];
        let out = fedavg().aggregate(&g, &u);
        assert_eq!(out.params.get("layer0.w").unwrap().as_slice(), &[1.0, 2.0]);
        assert_eq!(out.params.get("layer0.b").unwrap().as_slice(), &[2.0]);
        assert_eq!(out.accepted(), 2);
    }

    #[test]
    fn sample_counts_weight_the_mean_and_the_decisions() {
        let g = params(&[0.0], &[0.0]);
        let mut a = update(0, &[0.0], &[0.0]);
        let mut b = update(1, &[4.0], &[4.0]);
        a.num_samples = 30;
        b.num_samples = 10;
        let out = fedavg().aggregate(&g, &[a, b]);
        assert!((out.params.get("layer0.w").unwrap().get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(
            out.decisions[0],
            UpdateDecision::Accepted { weight: 0.75 },
            "decision must record the sample share"
        );
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[1.0, 2.0], &[3.0]);
        let out = fedavg().aggregate(&g, &[]);
        assert_eq!(out.params, g);
        assert!(out.decisions.is_empty());
    }

    #[test]
    fn non_finite_updates_are_dropped() {
        let g = params(&[0.0], &[0.0]);
        let good = update(0, &[2.0], &[2.0]);
        let bad = update(1, &[f32::NAN], &[0.0]);
        let out = fedavg().aggregate(&g, &[good, bad]);
        assert_eq!(out.params.get("layer0.w").unwrap().as_slice(), &[2.0]);
        assert!(!out.params.has_non_finite());
        assert_eq!(out.rejected(), 1);
    }

    #[test]
    fn identical_updates_are_a_fixed_point() {
        let g = params(&[1.0, -1.0], &[0.5]);
        let u = vec![
            ClientUpdate::new(0, g.clone(), 5),
            ClientUpdate::new(1, g.clone(), 5),
        ];
        assert_eq!(fedavg().aggregate(&g, &u).params, g);
    }
}
