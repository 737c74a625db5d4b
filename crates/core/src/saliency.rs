//! Saliency-map based aggregation (paper §IV.B, Eqs. 6–9) — SAFELOC's
//! terminal [`Combiner`] in the defense-pipeline API.
//!
//! For every weight tensor of every surviving local model, the server
//! computes the elementwise deviation from the global model (Eq. 6), maps
//! it through the inverse-deviation saliency `S = 1 / (1 + |ΔW|)` (Eq. 7,
//! values in `(0, 1]`), and uses `S` to shrink the influence of heavily
//! deviating weights before aggregation (Eqs. 8–9).
//!
//! Eq. 9 as printed (`W'_GM = W_GM + W_Adj`) has no fixed point — with
//! identical models it doubles the weights — so two readings are provided:
//!
//! * [`AggregationMode::Normalized`] (default):
//!   `W'_GM = W_GM + mean_i(S_i ∘ (W_LM,i − W_GM))`. The saliency gates the
//!   *update direction*; identical models are a fixed point, and the
//!   elementwise step is bounded by `|Δ|/(1+|Δ|) < 1`, which is exactly the
//!   bounded-influence property the paper claims.
//! * [`AggregationMode::Literal`]: Eq. 9 as printed, applied to the mean
//!   adjusted LM and damped by ½ so identical models remain a fixed point:
//!   `W'_GM = (W_GM + mean_i(S_i ∘ W_LM,i)) / 2`.
//!
//! Saliency is a *soft* defense: it rejects nothing, so as a combiner it
//! accepts every surviving update with its mean elementwise saliency as
//! the acceptance weight. [`SaliencyAggregator::into_pipeline`] wraps it
//! into the stage-less canonical pipeline SAFELOC deploys; any screening
//! stage (norm clipping, a history screen) can be composed in front of it
//! from a scenario spec.

use rayon::prelude::*;
use safeloc_fl::defense::{Combiner, DefensePipeline, RoundContext, Verdicts};
use safeloc_nn::{Matrix, NamedParams};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Interpretation of Eq. 9 (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Saliency-gated delta aggregation (default, convergent).
    Normalized,
    /// The printed equation, damped to have a fixed point.
    Literal,
}

/// Elementwise saliency matrix `S = 1 / (1 + k·|lm − gm|)` (Eqs. 6–7).
///
/// `sharpness` (`k`) rescales the deviation into the regime where Eq. 7
/// discriminates: the equation as printed assumes deviations of order 1,
/// while Adam-trained local updates deviate by O(0.1) per weight — at that
/// scale `1/(1+ΔW) ≈ 0.9` and poisoned tensors would pass almost untouched.
/// `k = 10` maps a 0.1-deviation to the saliency the paper's Eq. 7 assigns
/// a deviation of 1.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn saliency_matrix(lm: &Matrix, gm: &Matrix, sharpness: f32) -> Matrix {
    lm.sub(gm).map(move |d| 1.0 / (1.0 + sharpness * d.abs()))
}

/// SAFELOC's server-side aggregation rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaliencyAggregator {
    /// Eq. 9 interpretation.
    pub mode: AggregationMode,
    /// Deviation rescaling `k` in `S = 1/(1 + k·|ΔW|)` (see
    /// [`saliency_matrix`]).
    pub sharpness: f32,
}

impl SaliencyAggregator {
    /// Creates the combiner with the default sharpness of 10.
    pub fn new(mode: AggregationMode) -> Self {
        Self {
            mode,
            sharpness: 10.0,
        }
    }

    /// Overrides the deviation sharpness.
    pub fn with_sharpness(mut self, sharpness: f32) -> Self {
        self.sharpness = sharpness;
        self
    }

    /// Display label, distinguishing the Eq. 9 readings.
    pub fn label(&self) -> &'static str {
        match self.mode {
            AggregationMode::Normalized => "Saliency",
            AggregationMode::Literal => "Saliency(Literal)",
        }
    }

    /// The canonical SAFELOC pipeline: no screening stages, saliency
    /// combining. This is what [`SafeLoc`](crate::SafeLoc) deploys.
    pub fn into_pipeline(self) -> DefensePipeline {
        DefensePipeline::new(self.label(), Vec::new(), Box::new(self))
    }
}

impl Default for SaliencyAggregator {
    fn default() -> Self {
        Self::new(AggregationMode::Normalized)
    }
}

impl Combiner for SaliencyAggregator {
    fn name(&self) -> &'static str {
        "saliency"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let sources: Vec<Cow<'_, NamedParams>> =
            active.iter().map(|&i| verdicts.effective(ctx, i)).collect();
        let global = ctx.global();
        let n = sources.len() as f32;
        // Tensors are independent, so the per-tensor saliency-gate-and-
        // average work fans out across threads; names() fixes the order so
        // results are identical for any thread count. Each tensor's pass
        // also sums the saliency it just computed per update, so the
        // decision weights below reuse the aggregation work instead of a
        // second full pass over the parameters.
        let names: Vec<&str> = global.names();
        let mode = self.mode;
        let sharpness = self.sharpness;
        let per_tensor: Vec<(Matrix, Vec<f64>)> = names
            .par_iter()
            .map(|name| {
                let gm = global.get(name).expect("same arch");
                let mut saliency_sums = vec![0.0f64; sources.len()];
                let next = match mode {
                    AggregationMode::Normalized => {
                        // W' = W_GM + mean_i( S_i ∘ (W_LM,i − W_GM) )
                        let mut acc = gm.scale(0.0);
                        for (p, sum) in sources.iter().zip(&mut saliency_sums) {
                            let lm = p.get(name).expect("same arch");
                            let s = saliency_matrix(lm, gm, sharpness);
                            *sum += s.as_slice().iter().map(|&v| v as f64).sum::<f64>();
                            let gated = s.hadamard(&lm.sub(gm));
                            acc.axpy(1.0 / n, &gated);
                        }
                        acc.add_assign(gm);
                        acc
                    }
                    AggregationMode::Literal => {
                        // W' = ( W_GM + mean_i( S_i ∘ W_LM,i ) ) / 2
                        let mut acc = gm.scale(0.0);
                        for (p, sum) in sources.iter().zip(&mut saliency_sums) {
                            let lm = p.get(name).expect("same arch");
                            let s = saliency_matrix(lm, gm, sharpness);
                            *sum += s.as_slice().iter().map(|&v| v as f64).sum::<f64>();
                            acc.axpy(1.0 / n, &s.hadamard(lm));
                        }
                        let mut next = gm.add(&acc);
                        next.scale_assign(0.5);
                        next
                    }
                };
                (next, saliency_sums)
            })
            .collect();
        let mut totals = vec![0.0f64; sources.len()];
        for (_, sums) in &per_tensor {
            for (t, s) in totals.iter_mut().zip(sums) {
                *t += s;
            }
        }
        // Saliency is a *soft* defense: no update is ever rejected
        // outright. The decision trail records each update's mean
        // elementwise saliency as its acceptance weight — honest updates
        // sit near 1, heavily deviating (poisoned) updates near 0 — which
        // is what reports use to show suppression.
        let num_params = global.num_params().max(1) as f64;
        for (&i, sum) in active.iter().zip(totals) {
            verdicts.set_weight(i, (sum / num_params) as f32);
        }
        names
            .into_iter()
            .map(str::to_string)
            .zip(per_tensor.into_iter().map(|(t, _)| t))
            .collect()
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_fl::{Aggregator, ClientUpdate, UpdateDecision};

    fn params(w: &[f32]) -> NamedParams {
        NamedParams::new(vec![(
            "w".into(),
            Matrix::from_vec(1, w.len(), w.to_vec()).unwrap(),
        )])
    }

    fn update(id: usize, w: &[f32]) -> ClientUpdate {
        ClientUpdate::new(id, params(w), 10)
    }

    fn saliency(mode: AggregationMode) -> DefensePipeline {
        SaliencyAggregator::new(mode).into_pipeline()
    }

    fn default_saliency() -> DefensePipeline {
        SaliencyAggregator::default().into_pipeline()
    }

    #[test]
    fn saliency_values_in_unit_interval() {
        let lm = Matrix::row_vector(&[0.0, 1.0, -3.0, 100.0]);
        let gm = Matrix::row_vector(&[0.0, 0.0, 0.0, 0.0]);
        // sharpness 1 = the paper's Eq. 7 exactly.
        let s = saliency_matrix(&lm, &gm, 1.0);
        assert!(
            (s.get(0, 0) - 1.0).abs() < 1e-6,
            "zero deviation -> saliency 1"
        );
        assert!((s.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((s.get(0, 2) - 0.25).abs() < 1e-6);
        assert!(s.get(0, 3) < 0.01, "huge deviation -> tiny saliency");
        assert!(s.as_slice().iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn sharpness_rescales_deviations() {
        let lm = Matrix::row_vector(&[0.1]);
        let gm = Matrix::row_vector(&[0.0]);
        let soft = saliency_matrix(&lm, &gm, 1.0).get(0, 0);
        let sharp = saliency_matrix(&lm, &gm, 10.0).get(0, 0);
        assert!((soft - 1.0 / 1.1).abs() < 1e-6);
        assert!(
            (sharp - 0.5).abs() < 1e-6,
            "k=10 maps 0.1 deviation to S=0.5"
        );
    }

    #[test]
    fn identical_updates_are_a_fixed_point_normalized() {
        let g = params(&[1.0, -2.0, 0.5]);
        let u = vec![
            ClientUpdate::new(0, g.clone(), 1),
            ClientUpdate::new(1, g.clone(), 1),
        ];
        let out = default_saliency().aggregate(&g, &u);
        assert_eq!(out.params, g);
    }

    #[test]
    fn identical_updates_are_a_fixed_point_literal() {
        let g = params(&[1.0]);
        // S = 1 for identical, so S∘W_LM = 1*1 = 1, mean = 1,
        // W' = (1 + 1)/2 = 1. Fixed point holds.
        let u = vec![ClientUpdate::new(0, g.clone(), 1)];
        let out = saliency(AggregationMode::Literal).aggregate(&g, &u);
        let w = out.params.get("w").unwrap().get(0, 0);
        assert!((w - 1.0).abs() < 1e-6, "literal fixed point broken: {w}");
    }

    #[test]
    fn small_honest_updates_pass_almost_unchanged() {
        let g = params(&[0.0]);
        let u = vec![update(0, &[0.1])];
        let out = default_saliency().aggregate(&g, &u);
        let w = out.params.get("w").unwrap().get(0, 0);
        // S = 1/(1 + 10·0.1) = 0.5; step = 0.05 = 50% of the honest delta.
        assert!(
            (w - 0.05).abs() < 1e-3,
            "honest update over-suppressed: {w}"
        );
    }

    #[test]
    fn large_poisoned_updates_are_bounded() {
        let g = params(&[0.0]);
        let u = vec![update(0, &[1000.0])];
        let out = default_saliency().aggregate(&g, &u);
        let w = out.params.get("w").unwrap().get(0, 0);
        // Elementwise influence bound: |Δ|/(1+k|Δ|) < 1/k.
        assert!(w < 0.1, "poisoned step not bounded: {w}");
        assert!(w > 0.099, "bound should be tight for huge deltas: {w}");
    }

    #[test]
    fn poisoned_minority_is_damped_relative_to_fedavg() {
        let g = params(&[0.0]);
        let honest = [0.1f32, 0.12, 0.09, 0.11, 0.1];
        let mut updates: Vec<ClientUpdate> = honest
            .iter()
            .enumerate()
            .map(|(i, &w)| update(i, &[w]))
            .collect();
        updates.push(update(9, &[50.0])); // attacker
        let out = default_saliency().aggregate(&g, &updates);
        let w = out.params.get("w").unwrap().get(0, 0);
        // FedAvg would land at (0.52/6 of sum…) ≈ 8.42; saliency keeps the
        // step near the honest consensus plus a bounded attacker residue.
        let fedavg = (honest.iter().sum::<f32>() + 50.0) / 6.0;
        assert!(
            w < fedavg / 10.0,
            "saliency barely better than FedAvg: {w} vs {fedavg}"
        );
        assert!(w < 0.1, "aggregate drifted: {w}");
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[3.0]);
        assert_eq!(default_saliency().aggregate(&g, &[]).params, g);
        assert_eq!(
            saliency(AggregationMode::Literal).aggregate(&g, &[]).params,
            g
        );
    }

    #[test]
    fn non_finite_updates_are_dropped() {
        let g = params(&[0.0]);
        let u = vec![update(0, &[0.2]), update(1, &[f32::NAN])];
        let out = default_saliency().aggregate(&g, &u);
        assert!(!out.params.has_non_finite());
        assert_eq!(out.rejected(), 1);
    }

    /// Stage zero rejects in place what a filter in front of the pipeline
    /// used to remove: rounds mixing NaN, ±∞ and finite updates give the
    /// survivors' round bit for bit — the GM, and every survivor's weight
    /// at its own position (the `safeloc-fl` oracles pin the same for the
    /// six pipelines that live there).
    #[test]
    fn non_finite_updates_leave_the_survivors_round_bitwise() {
        let d = 40;
        let lm = |i: usize, salt: f32| -> Vec<f32> {
            (0..d)
                .map(|e| ((i * d + e) as f32 * 0.37 + salt).sin() * 0.1)
                .collect()
        };
        for n in [4, 9, 64] {
            for mode in [AggregationMode::Normalized, AggregationMode::Literal] {
                let g = params(&lm(n, 0.5));
                let mut u: Vec<ClientUpdate> = (0..n).map(|i| update(i, &lm(i, 0.0))).collect();
                let bad = [
                    (0, f32::NAN),
                    (n / 2, f32::INFINITY),
                    (n - 1, f32::NEG_INFINITY),
                ];
                for (slot, value) in bad {
                    u[slot].params.iter_mut().next().unwrap().1.as_mut_slice()[slot % d] = value;
                }
                let survivors: Vec<ClientUpdate> = (u.iter())
                    .filter(|u| !u.params.has_non_finite())
                    .cloned()
                    .collect();
                assert_eq!(survivors.len(), n - bad.len());
                let got = saliency(mode).aggregate(&g, &u);
                let expected = saliency(mode).aggregate(&g, &survivors);
                let bits = |p: &NamedParams| -> Vec<u32> {
                    p.flatten().as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&got.params), bits(&expected.params), "n {n}, {mode:?}");
                let mut survivor = expected.decisions.iter();
                for (u, decision) in u.iter().zip(&got.decisions) {
                    if u.params.has_non_finite() {
                        assert!(matches!(
                            decision,
                            UpdateDecision::Rejected { rule, .. }
                                if rule == safeloc_fl::defense::NON_FINITE_RULE
                        ));
                    } else {
                        assert_eq!(Some(decision), survivor.next(), "n {n}, {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn decision_weights_expose_attacker_suppression() {
        let g = params(&[0.0, 0.0]);
        let u = vec![update(0, &[0.05, 0.05]), update(1, &[40.0, -40.0])];
        let out = default_saliency().aggregate(&g, &u);
        let weight = |d: &UpdateDecision| match d {
            UpdateDecision::Accepted { weight } => *weight,
            other => panic!("saliency never rejects, got {other:?}"),
        };
        let honest = weight(&out.decisions[0]);
        let attacker = weight(&out.decisions[1]);
        assert!(honest > 0.6, "honest saliency weight {honest}");
        assert!(attacker < 0.01, "attacker saliency weight {attacker}");
    }

    #[test]
    fn labels_distinguish_modes() {
        assert_eq!(
            SaliencyAggregator::default().into_pipeline().label(),
            "Saliency"
        );
        assert_eq!(
            SaliencyAggregator::new(AggregationMode::Literal)
                .into_pipeline()
                .label(),
            "Saliency(Literal)"
        );
    }
}
