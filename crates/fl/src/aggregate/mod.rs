//! Server-side aggregation: the [`Aggregator`] contract, the shared
//! guard, and the rule building blocks defense pipelines compose.
//!
//! An [`Aggregator`] turns the current global model plus a set of client
//! updates into an [`AggregationOutcome`]: the next global model *and* a
//! per-update decision trail (accepted with what weight / rejected by which
//! rule with what score) that [`RoundReport`](crate::RoundReport)s are
//! built from.
//!
//! Since the defense-pipeline redesign the only production implementor is
//! [`DefensePipeline`](crate::defense::DefensePipeline): an ordered list
//! of screening stages plus one terminal combiner. The paper's rules live
//! here as those building blocks — [`FedAvg`], [`Krum`] and
//! [`SelectiveAggregator`] are combiners, [`ClusterAggregator`],
//! [`LatentFilterAggregator`] and [`HistoryScreen`] are screening stages
//! (SAFELOC's saliency combiner lives in the `safeloc` crate) — and the
//! canonical compositions (`DefensePipeline::fedavg()`, `::krum(f)`, …)
//! reproduce the monolithic aggregators they replaced bit for bit.
//!
//! Implementors provide [`Aggregator::aggregate_filtered`], which is only
//! ever called with a non-empty, all-finite update set. The two invariants
//! every rule used to duplicate — "an empty round must not corrupt the GM"
//! and "NaN/Inf updates are dropped before the rule sees them" — live once,
//! in [`aggregate_or_clone`], behind the provided
//! [`Aggregator::aggregate`] entry point.

mod cluster;
mod distance;
mod fedavg;
mod krum;
mod latent;
mod selective;

pub use cluster::ClusterAggregator;
pub use distance::DistanceMatrix;
pub use fedavg::FedAvg;
pub use krum::Krum;
pub use latent::{HistoryScreen, LatentFilterAggregator};
pub use selective::SelectiveAggregator;

use crate::report::{AggregationOutcome, StageTelemetry, UpdateDecision};
use crate::update::ClientUpdate;
use safeloc_nn::NamedParams;

/// Rule name recorded on updates the shared guard drops for NaN/Inf
/// weights.
pub const NON_FINITE_RULE: &str = "non-finite";

/// A server-side aggregation rule.
pub trait Aggregator: Send {
    /// The core rule: produces the next global model and one
    /// [`UpdateDecision`] per update.
    ///
    /// Called only through [`Aggregator::aggregate`], which guarantees
    /// `updates` is non-empty and free of non-finite weights — rules do not
    /// re-implement those guards. The returned `decisions` must parallel
    /// `updates`.
    fn aggregate_filtered(
        &mut self,
        global: &NamedParams,
        updates: &[&ClientUpdate],
    ) -> AggregationOutcome;

    /// Strategy name for reports (a pipeline's composition label).
    fn name(&self) -> &str;

    /// Boxed clone, so servers holding `Box<dyn Aggregator>` are clonable
    /// (the bench harness clones pretrained frameworks across scenarios).
    fn clone_box(&self) -> Box<dyn Aggregator>;

    /// Drains the per-stage telemetry of the most recent
    /// [`Aggregator::aggregate`] call — rejection counts and wall time by
    /// stage name, combiner last. Engines fold it into the round's
    /// [`RoundReport`](crate::RoundReport). The default (for aggregators
    /// without internal stages) is empty; telemetry lives outside
    /// [`AggregationOutcome`] so outcome equality stays meaningful in
    /// determinism tests while wall clocks vary run to run.
    fn take_stage_telemetry(&mut self) -> Vec<StageTelemetry> {
        Vec::new()
    }

    /// The guarded entry point every round goes through: filters
    /// non-finite updates, returns the global model unchanged when nothing
    /// usable remains, and delegates to
    /// [`Aggregator::aggregate_filtered`] otherwise. Do not override.
    fn aggregate(&mut self, global: &NamedParams, updates: &[ClientUpdate]) -> AggregationOutcome {
        aggregate_or_clone(self, global, updates)
    }
}

impl Clone for Box<dyn Aggregator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The shared empty-round / non-finite guard (usable on `dyn Aggregator`,
/// where the provided [`Aggregator::aggregate`] is not):
///
/// 1. updates with NaN/Inf weights are rejected up front (one crashed or
///    actively hostile client cannot poison the GM with non-finite
///    arithmetic),
/// 2. if no update survives — every client dropped out, or every update
///    was non-finite — the next GM is `global.clone()`, bit for bit,
/// 3. otherwise the rule runs on the survivors and its decisions are
///    scattered back to input positions.
pub fn aggregate_or_clone<A: Aggregator + ?Sized>(
    rule: &mut A,
    global: &NamedParams,
    updates: &[ClientUpdate],
) -> AggregationOutcome {
    let mut finite: Vec<&ClientUpdate> = Vec::with_capacity(updates.len());
    let mut finite_slots: Vec<usize> = Vec::with_capacity(updates.len());
    let mut decisions: Vec<UpdateDecision> = Vec::with_capacity(updates.len());
    for (slot, u) in updates.iter().enumerate() {
        if u.params.has_non_finite() {
            decisions.push(UpdateDecision::Rejected {
                rule: NON_FINITE_RULE.to_string(),
                score: 1.0,
            });
        } else {
            // Placeholder, overwritten by the rule's decision below.
            decisions.push(UpdateDecision::Accepted { weight: 0.0 });
            finite_slots.push(slot);
            finite.push(u);
        }
    }
    if finite.is_empty() {
        return AggregationOutcome {
            params: global.clone(),
            decisions,
        };
    }
    let inner = rule.aggregate_filtered(global, &finite);
    assert_eq!(
        inner.decisions.len(),
        finite.len(),
        "{} returned {} decisions for {} updates",
        rule.name(),
        inner.decisions.len(),
        finite.len()
    );
    for (slot, decision) in finite_slots.into_iter().zip(inner.decisions) {
        decisions[slot] = decision;
    }
    AggregationOutcome {
        params: inner.params,
        decisions,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use safeloc_nn::Matrix;

    /// A tiny two-tensor snapshot for aggregator tests.
    pub fn params(w: &[f32], b: &[f32]) -> NamedParams {
        NamedParams::new(vec![
            (
                "layer0.w".into(),
                Matrix::from_vec(1, w.len(), w.to_vec()).unwrap(),
            ),
            (
                "layer0.b".into(),
                Matrix::from_vec(1, b.len(), b.to_vec()).unwrap(),
            ),
        ])
    }

    pub fn update(id: usize, w: &[f32], b: &[f32]) -> ClientUpdate {
        ClientUpdate::new(id, params(w, b), 10)
    }

    /// The `n × d` block of flattened deltas `LM_i − GM` every stage swept
    /// before rows could be stored as supports — the dense reference the
    /// delta view is pinned against.
    pub fn delta_block(global: &NamedParams, updates: &[&ClientUpdate]) -> Matrix {
        let rows: Vec<Vec<f32>> = updates
            .iter()
            .map(|u| u.params.delta(global).flatten().into_vec())
            .collect();
        Matrix::from_rows(&rows)
    }

    /// `updates` as they reach the server when every client compresses
    /// with `spec`: `GM + decode(encode(LM − GM))`, carrying the repr.
    pub fn reencoded(
        g: &NamedParams,
        updates: &[ClientUpdate],
        spec: crate::DeltaSpec,
    ) -> Vec<ClientUpdate> {
        updates
            .iter()
            .map(|u| {
                let delta = u.params.delta(g).flatten().into_vec();
                let (repr, decoded) = crate::DeltaCompressor::new(spec).compress(&delta);
                let mut params = g.clone();
                params.add_flat(&decoded);
                ClientUpdate::with_repr(u.client_id, params, u.num_samples, repr)
            })
            .collect()
    }

    /// Tensor shapes of [`attacked_cohort`]'s default model: four tensors,
    /// `d = 3070 >` [`SCREEN_SAMPLE_DIM`](crate::defense::SCREEN_SAMPLE_DIM),
    /// so the stride subsample is a proper subset crossing tensor edges.
    pub const WIDE_SHAPES: [(usize, usize); 4] = [(40, 60), (1, 60), (60, 10), (1, 10)];

    /// `round_screen`'s fixture in miniature: a GM over `shapes` and `n`
    /// updates `GM + δᵢ` sharing one honest direction plus per-client
    /// noise. Every tenth update (`i % 10 == 3`) is a ×10-boosted
    /// label-direction outlier (`δ = −10·honest`), and update 7 is an
    /// honest one at 4× the benign norm: past `NormClip`'s default cap, so
    /// clipped, in the majority cluster, and the latent stage's outlier.
    pub fn attacked_cohort(
        n: usize,
        shapes: &[(usize, usize)],
        seed: u64,
    ) -> (NamedParams, Vec<ClientUpdate>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tensor = |scale: f32, (rows, cols): (usize, usize)| {
            Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
        };
        let named = |tensors: Vec<Matrix>| -> NamedParams {
            tensors
                .into_iter()
                .enumerate()
                .map(|(t, m)| (format!("t{t}"), m))
                .collect()
        };
        let global = named(shapes.iter().map(|&s| tensor(0.5, s)).collect());
        let honest = named(shapes.iter().map(|&s| tensor(0.05, s)).collect());
        let updates = (0..n)
            .map(|i| {
                let mut delta = named(shapes.iter().map(|&s| tensor(0.02, s)).collect());
                delta.axpy(1.0, &honest);
                let boost = match i {
                    7 => 4.0,
                    _ if i % 10 == 3 => -10.0,
                    _ => 1.0,
                };
                let mut lm = global.clone();
                lm.axpy(boost, &delta);
                ClientUpdate::new(i, lm, 10)
            })
            .collect();
        (global, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{params, update};
    use super::*;
    use crate::defense::DefensePipeline;

    #[test]
    fn guard_scatters_decisions_back_to_input_positions() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[f32::NAN], &[0.0]),
            update(1, &[2.0], &[2.0]),
            update(2, &[f32::INFINITY], &[0.0]),
            update(3, &[4.0], &[4.0]),
        ];
        let out = DefensePipeline::fedavg().aggregate(&g, &u);
        assert_eq!(out.decisions.len(), 4);
        assert!(matches!(
            &out.decisions[0],
            UpdateDecision::Rejected { rule, .. } if rule == NON_FINITE_RULE
        ));
        assert!(out.decisions[1].is_accepted());
        assert!(!out.decisions[2].is_accepted());
        assert!(out.decisions[3].is_accepted());
        assert_eq!(out.params.get("layer0.w").unwrap().get(0, 0), 3.0);
    }

    #[test]
    fn guard_clones_global_when_nothing_survives() {
        let g = params(&[7.0], &[8.0]);
        let u = vec![update(0, &[f32::NAN], &[0.0])];
        let out = DefensePipeline::fedavg().aggregate(&g, &u);
        assert_eq!(out.params, g);
        assert_eq!(out.accepted(), 0);
    }
}
