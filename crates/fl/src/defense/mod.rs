//! The server-side defense: screening stages, a terminal combiner, and
//! the one entry point outside updates go through.
//!
//! The paper's defenses — and the wider robust-aggregation literature
//! (Krum, trimmed mean, coordinate-wise median, norm bounding) — all
//! decompose into the same phases:
//!
//! 0. **Validate**: a [`NonFiniteGuard`] is *stage zero of every
//!    pipeline* ([`DefensePipeline::new`] puts it at the head of the stage
//!    list unless the caller's list already starts with it). An update
//!    carrying a NaN or an infinity is rejected with rule
//!    [`NON_FINITE_RULE`] before any other stage looks at the round — an
//!    ordinary stage, timed and counted in [`StageTelemetry`] like the
//!    rest, reading the round's delta view instead of sweeping every
//!    parameter.
//! 1. **Screen**: look at the round's updates (through a shared
//!    [`RoundContext`]) and write per-update [`Verdicts`] — reject
//!    outliers with a named rule and score, or cap their influence with a
//!    clip scale. Stages only ever touch updates that are still active, so
//!    a rejected update's NaNs never reach a statistic.
//! 2. **Combine**: turn the surviving updates into the next global model
//!    and assign each survivor its acceptance weight. A round nobody
//!    survives — empty, or every update rejected — leaves the GM as it
//!    was, bit for bit.
//!
//! A [`DefensePipeline`] is that ordered list of [`DefenseStage`]s
//! followed by one [`Combiner`], so arbitrary compositions
//! (`norm-clip → Krum-select`, `latent-screen → history-screen → mean`, …)
//! are values instead of new types. The paper's rules are the building
//! blocks, all in this module: [`FedAvg`], [`Krum`] and
//! [`SelectiveAggregator`] (FEDHIL) are combiners; [`ClusterAggregator`]
//! (FEDCC), [`LatentFilterAggregator`] (FEDLS) and the opt-in
//! [`HistoryScreen`] are screening stages; [`NormClip`], [`TrimmedMean`]
//! and [`CoordinateMedian`] open the robust-aggregation literature's
//! compositions (SAFELOC's saliency combiner lives in the `safeloc`
//! crate). The six paper rules are canonical pipelines
//! ([`DefensePipeline::fedavg`] and friends) that reproduce the monolithic
//! aggregators they replaced bit for bit.
//!
//! Every engine holds a concrete [`DefensePipeline`] (through
//! [`ServerRound`](crate::ServerRound)). [`Aggregator`] is a leftover with
//! one implementor and two methods, [`Aggregator::aggregate`] and
//! [`Aggregator::take_stage_telemetry`]: the frozen `benchmark/` crate
//! calls exactly those through it. The trait, and the `…Aggregator` names
//! two of the stages and one combiner still carry from the days each was
//! a monolithic aggregator, go when ROADMAP item 7(c) updates `benchmark/`
//! in the same change.
//!
//! Fang et al. 2020 (arXiv:1911.11815) show single defenses fall to
//! adaptive model poisoning; the point of this API is that layered
//! defenses are now a spec-file concern (`scenarios/*.json` via
//! `safeloc-bench`'s `DefenseSpec`), not a new Rust type per combination.
//!
//! # Example
//!
//! ```
//! use safeloc_fl::defense::{DefensePipeline, NormClip};
//! use safeloc_fl::{Aggregator, ClientUpdate, Krum};
//! use safeloc_nn::{Matrix, NamedParams};
//!
//! // Norm-bound every update to 3x the round median, then Krum-select.
//! let mut defense = DefensePipeline::new(
//!     "norm-clip+krum",
//!     vec![Box::new(NormClip::new(3.0))],
//!     Box::new(Krum::new(1)),
//! );
//! let gm = NamedParams::new(vec![("w".into(), Matrix::row_vector(&[0.0]))]);
//! let honest = |id, v| {
//!     ClientUpdate::new(
//!         id,
//!         NamedParams::new(vec![("w".into(), Matrix::row_vector(&[v]))]),
//!         10,
//!     )
//! };
//! let updates = vec![honest(0, 1.0), honest(1, 1.1), honest(2, 0.9), honest(3, 500.0)];
//! let out = defense.aggregate(&gm, &updates);
//! assert_eq!(out.accepted(), 1, "Krum selects exactly one update");
//! assert!(out.params.get("w").unwrap().get(0, 0) < 2.0);
//! ```

mod context;
#[cfg(test)]
mod oracles;
mod robust;
mod rows;
mod stages;
#[cfg(test)]
pub(crate) mod test_support;
mod verdicts;

pub use crate::aggregate::cluster::ClusterAggregator;
pub use crate::aggregate::distance::DistanceMatrix;
pub use crate::aggregate::fedavg::FedAvg;
pub use crate::aggregate::krum::Krum;
pub use crate::aggregate::latent::{HistoryScreen, LatentFilterAggregator};
pub use crate::aggregate::selective::SelectiveAggregator;
pub use context::{
    sampled_delta_block, DistanceScratch, RoundContext, EXACT_SCREEN_MAX, SCREEN_SAMPLE_DIM,
};
pub use robust::{CoordinateMedian, TrimmedMean, UniformMean};
pub use rows::{DeltaRow, DeltaRows};
pub use stages::{NonFiniteGuard, NormClip};
pub use verdicts::Verdicts;

use crate::report::{AggregationOutcome, StageTelemetry};
use crate::update::ClientUpdate;
use safeloc_nn::NamedParams;
use std::time::Instant;

/// Rule name recorded on updates stage zero rejects for NaN/Inf weights.
pub const NON_FINITE_RULE: &str = "non-finite";

/// A round's defense as the frozen `benchmark/` crate calls it: the
/// current global model plus the round's updates in, an
/// [`AggregationOutcome`] — the next global model *and* a per-update
/// decision trail (accepted with what weight / rejected by which rule with
/// what score) — out. [`DefensePipeline`] is the only implementor (see the
/// module docs for why the trait is still here).
pub trait Aggregator {
    /// Screens and combines one round. `updates` is whatever arrived —
    /// possibly nothing, possibly NaN-ridden; the returned `decisions`
    /// parallel it, and a round nobody survives returns `global.clone()`.
    fn aggregate(&mut self, global: &NamedParams, updates: &[ClientUpdate]) -> AggregationOutcome;

    /// Drains the per-stage telemetry of the most recent
    /// [`Aggregator::aggregate`] call — rejection counts and wall time by
    /// stage name, stage zero first, combiner last. Engines fold it into
    /// the round's [`RoundReport`](crate::RoundReport). Telemetry lives
    /// outside [`AggregationOutcome`] so outcome equality stays meaningful
    /// in determinism tests while wall clocks vary run to run.
    fn take_stage_telemetry(&mut self) -> Vec<StageTelemetry>;
}

/// A screening stage of a [`DefensePipeline`]: reads the shared
/// [`RoundContext`] and writes per-update [`Verdicts`] (rejections and
/// clip scales). Stages never produce a model — that is the
/// [`Combiner`]'s job — and they must only touch updates that are still
/// active.
///
/// Stages may be stateful across rounds (the latent filter accumulates a
/// benign history); state must stay deterministic for a fixed seed.
pub trait DefenseStage: Send {
    /// Stage name, used for the rejection-telemetry trail.
    fn name(&self) -> &'static str;

    /// Screens the round: inspect `ctx`, reject or clip in `verdicts`.
    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts);

    /// Boxed clone, so pipelines (and the frameworks holding them) stay
    /// clonable.
    fn clone_stage(&self) -> Box<dyn DefenseStage>;
}

impl Clone for Box<dyn DefenseStage> {
    fn clone(&self) -> Self {
        self.clone_stage()
    }
}

/// The terminal phase of a [`DefensePipeline`]: folds the surviving
/// updates into the next global model and records each survivor's
/// acceptance weight in the verdicts. A combiner may also reject
/// (Krum-select accepts exactly one update and scores the rest out).
///
/// Called only with at least one active verdict; an empty or
/// all-rejected round short-circuits to `GM.clone()` in the pipeline
/// itself.
pub trait Combiner: Send {
    /// Combiner name, used for the telemetry trail.
    fn name(&self) -> &'static str;

    /// Produces the next global model from the active updates.
    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams;

    /// Boxed clone.
    fn clone_combiner(&self) -> Box<dyn Combiner>;
}

impl Clone for Box<dyn Combiner> {
    fn clone(&self) -> Self {
        self.clone_combiner()
    }
}

/// An ordered stage list plus a terminal combiner — the composable form
/// every server-side defense now takes (see the module docs).
pub struct DefensePipeline {
    label: String,
    stages: Vec<Box<dyn DefenseStage>>,
    combiner: Box<dyn Combiner>,
    last_telemetry: Vec<StageTelemetry>,
    /// Delta-view and distance buffers reused across rounds — reuse is
    /// bitwise-neutral (see [`DistanceScratch`]).
    scratch: DistanceScratch,
}

impl Clone for DefensePipeline {
    /// Clones the rules and their state; the clone's scratch starts cold
    /// (frameworks clone pipelines freely, and a warm scratch is tens of
    /// megabytes of cache that reuse never needs copied).
    fn clone(&self) -> Self {
        Self {
            label: self.label.clone(),
            stages: self.stages.clone(),
            combiner: self.combiner.clone(),
            last_telemetry: self.last_telemetry.clone(),
            scratch: DistanceScratch::default(),
        }
    }
}

impl std::fmt::Debug for DefensePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefensePipeline")
            .field("label", &self.label)
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("combiner", &self.combiner.name())
            .finish()
    }
}

impl DefensePipeline {
    /// Builds a pipeline with a display label (reports print it as the
    /// rule name). Stage zero is always the non-finite check: a
    /// [`NonFiniteGuard`] is put at the head of `stages` unless the list
    /// already starts with a stage of that name.
    pub fn new(
        label: impl Into<String>,
        mut stages: Vec<Box<dyn DefenseStage>>,
        combiner: Box<dyn Combiner>,
    ) -> Self {
        if stages.first().map(|s| s.name()) != Some(NON_FINITE_RULE) {
            stages.insert(0, Box::new(NonFiniteGuard));
        }
        Self {
            label: label.into(),
            stages,
            combiner,
            last_telemetry: Vec::new(),
            scratch: DistanceScratch::default(),
        }
    }

    /// The pipeline's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Stage names in execution order, combiner last.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.stages.iter().map(|s| s.name()).collect();
        names.push(self.combiner.name());
        names
    }

    // ----------------------------------------------- canonical pipelines
    //
    // The six paper rules as stage compositions (behind stage zero). Each
    // reproduces the monolithic aggregator it replaced bitwise
    // (`tests/round_lifecycle.rs` pins the full-participation
    // trajectories).

    /// FEDLOC's rule: no screening, sample-weighted federated averaging.
    pub fn fedavg() -> Self {
        Self::new("FedAvg", Vec::new(), Box::new(FedAvg))
    }

    /// The Krum baseline: no screening, Krum selection assuming `f`
    /// Byzantine clients.
    pub fn krum(f: usize) -> Self {
        Self::new("Krum", Vec::new(), Box::new(Krum::new(f)))
    }

    /// FEDCC's rule: majority-cluster screening, then a uniform mean of
    /// the kept cluster.
    pub fn cluster(separation_threshold: f32) -> Self {
        Self::new(
            "Cluster",
            vec![Box::new(ClusterAggregator::new(separation_threshold))],
            Box::new(UniformMean),
        )
    }

    /// FEDLS's rule: latent-space anomaly screening, then a uniform mean
    /// of the survivors.
    pub fn latent(seed: u64) -> Self {
        Self::new(
            "LatentFilter",
            vec![Box::new(LatentFilterAggregator::new(seed))],
            Box::new(UniformMean),
        )
    }

    /// The opt-in FEDLS variant closing the small-but-≥3-round gap: the
    /// latent screen followed by a benign-history screen, so a boosted
    /// attacker hiding inside a 3-update round's own z-test is still
    /// checked against the accumulated history (the ROADMAP small-cohort
    /// follow-up). Not the pinned default — select it from a scenario
    /// spec.
    pub fn latent_with_history(seed: u64) -> Self {
        Self::new(
            "LatentFilter+History",
            vec![
                Box::new(LatentFilterAggregator::new(seed)),
                Box::new(HistoryScreen::new(seed)),
            ],
            Box::new(UniformMean),
        )
    }

    /// FEDHIL's rule: no screening, selective per-tensor aggregation.
    pub fn selective(aggregate_fraction: f32) -> Self {
        Self::new(
            "Selective",
            Vec::new(),
            Box::new(SelectiveAggregator::new(aggregate_fraction)),
        )
    }
}

impl Aggregator for DefensePipeline {
    /// The front door: the context is built over *everything* that
    /// arrived, stage zero rejects what is not finite, and every later
    /// stage and the combiner read only what is still active.
    fn aggregate(&mut self, global: &NamedParams, updates: &[ClientUpdate]) -> AggregationOutcome {
        let updates: Vec<&ClientUpdate> = updates.iter().collect();
        let ctx = RoundContext::with_scratch(global, &updates, std::mem::take(&mut self.scratch));
        let mut verdicts = Verdicts::new(updates.len());
        let mut telemetry = Vec::with_capacity(self.stages.len() + 1);
        for stage in &mut self.stages {
            let rejected_before = verdicts.rejected_count();
            // det: wall_ms is telemetry only — no screening decision or
            // model value ever reads it, so trajectories stay bitwise.
            let start = Instant::now();
            stage.screen(&ctx, &mut verdicts);
            telemetry.push(StageTelemetry {
                stage: stage.name().to_string(),
                rejections: verdicts.rejected_count() - rejected_before,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
        let rejected_before = verdicts.rejected_count();
        // det: aggregation wall_ms is telemetry only, as above.
        let start = Instant::now();
        let params = if verdicts.active_count() == 0 {
            // Nothing arrived, or every update was screened out — all
            // non-finite, say: the GM survives unchanged, bit for bit.
            global.clone()
        } else {
            self.combiner.combine(&ctx, &mut verdicts)
        };
        telemetry.push(StageTelemetry {
            stage: self.combiner.name().to_string(),
            rejections: verdicts.rejected_count() - rejected_before,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
        // Feed the trail into the process-global registry here, at the
        // layer that produced it: callers that never drain
        // `take_stage_telemetry` (ad-hoc aggregations, engines without
        // report plumbing) would otherwise silently lose the stage
        // timings and rejection counts.
        for stage in &telemetry {
            crate::metrics::fl_metrics().on_stage(stage);
        }
        self.last_telemetry = telemetry;
        self.scratch = ctx.reclaim_scratch();
        AggregationOutcome {
            params,
            decisions: verdicts.into_decisions(),
        }
    }

    fn take_stage_telemetry(&mut self) -> Vec<StageTelemetry> {
        std::mem::take(&mut self.last_telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::report::UpdateDecision;

    #[test]
    fn composed_pipeline_reports_per_stage_rejections() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0, 1.0], &[0.1]),
            update(1, &[1.1, 0.9], &[0.1]),
            update(2, &[0.9, 1.1], &[0.1]),
            update(3, &[f32::NAN, 0.0], &[0.0]),
        ];
        let mut p = DefensePipeline::new(
            "guard+krum",
            vec![Box::new(NonFiniteGuard)],
            Box::new(Krum::new(1)),
        );
        let out = p.aggregate(&g, &u);
        assert_eq!(out.accepted(), 1);
        let telemetry = p.take_stage_telemetry();
        // Stage zero owns the NaN update's rejection; Krum scores the
        // three survivors: [non-finite: 1, Krum: 2].
        assert_eq!(telemetry.len(), 2);
        assert_eq!(telemetry[0].stage, "non-finite");
        assert_eq!(telemetry[0].rejections, 1);
        assert_eq!(telemetry[1].stage, "krum");
        assert_eq!(telemetry[1].rejections, 2);
        assert!(telemetry.iter().all(|t| t.wall_ms >= 0.0));
        // take_* drains.
        assert!(p.take_stage_telemetry().is_empty());
    }

    #[test]
    fn all_rejected_round_clones_the_global_model() {
        struct RejectAll;
        impl DefenseStage for RejectAll {
            fn name(&self) -> &'static str {
                "reject-all"
            }
            fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
                for i in 0..ctx.len() {
                    verdicts.reject(i, "reject-all", 1.0);
                }
            }
            fn clone_stage(&self) -> Box<dyn DefenseStage> {
                Box::new(RejectAll)
            }
        }
        let g = params(&[7.0], &[8.0]);
        let u = vec![update(0, &[1.0], &[1.0])];
        let mut p = DefensePipeline::new("wall", vec![Box::new(RejectAll)], Box::new(UniformMean));
        let out = p.aggregate(&g, &u);
        assert_eq!(out.params, g);
        assert!(matches!(
            &out.decisions[0],
            UpdateDecision::Rejected { rule, .. } if rule == "reject-all"
        ));
    }

    #[test]
    fn canonical_labels_and_stage_names() {
        assert_eq!(DefensePipeline::fedavg().label(), "FedAvg");
        assert_eq!(
            DefensePipeline::krum(1).stage_names(),
            vec!["non-finite", "krum"]
        );
        assert_eq!(
            DefensePipeline::latent_with_history(0).stage_names(),
            vec!["non-finite", "latent", "history-screen", "mean"]
        );
        let dbg = format!("{:?}", DefensePipeline::cluster(0.15));
        assert!(dbg.contains("Cluster") && dbg.contains("cluster"));
    }

    /// Stage zero is there whether or not the caller wrote it down — once.
    #[test]
    fn every_pipeline_starts_with_one_non_finite_stage() {
        let canonical = [
            DefensePipeline::fedavg(),
            DefensePipeline::krum(1),
            DefensePipeline::cluster(0.15),
            DefensePipeline::latent(0),
            DefensePipeline::latent_with_history(0),
            DefensePipeline::selective(0.5),
        ];
        let explicit = DefensePipeline::new(
            "guard+clip+mean",
            vec![Box::new(NonFiniteGuard), Box::new(NormClip::default())],
            Box::new(UniformMean),
        );
        assert_eq!(
            explicit.stage_names(),
            vec!["non-finite", "norm-clip", "mean"]
        );
        for p in canonical.iter().chain([&explicit]) {
            let names = p.stage_names();
            assert_eq!(names[0], NON_FINITE_RULE, "{}", p.label());
            let guards = names.iter().filter(|&&s| s == NON_FINITE_RULE).count();
            assert_eq!(guards, 1, "{}", p.label());
        }
    }

    #[test]
    fn decisions_stay_at_input_positions_around_rejected_updates() {
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
    fn an_all_non_finite_round_clones_the_global_model() {
        let g = params(&[7.0], &[8.0]);
        let u = vec![update(0, &[f32::NAN], &[0.0])];
        let out = DefensePipeline::fedavg().aggregate(&g, &u);
        assert_eq!(out.params, g);
        assert_eq!(out.accepted(), 0);
    }

    #[test]
    fn reused_distance_scratch_never_changes_an_outcome() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0, 1.0], &[0.1]),
            update(1, &[1.1, 0.9], &[0.1]),
            update(2, &[0.9, 1.1], &[0.1]),
            update(3, &[9.0, -9.0], &[4.0]),
        ];
        // A warm pipeline (scratch from round 1) must produce bitwise the
        // same round-2 outcome as a cold one.
        let mut warm = DefensePipeline::krum(1);
        let _ = warm.aggregate(&g, &u);
        let mut cold = DefensePipeline::krum(1);
        assert_eq!(warm.aggregate(&g, &u), cold.aggregate(&g, &u));
    }

    #[test]
    fn pipelines_clone_with_their_rules() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[2.0]), update(1, &[4.0], &[4.0])];
        let mut a = DefensePipeline::fedavg();
        let mut b = a.clone();
        assert_eq!(a.aggregate(&g, &u), b.aggregate(&g, &u));
        assert_eq!(b.label(), "FedAvg");
    }
}
