//! Shared experiment plumbing: scales, their configurations and the
//! paper's evaluation protocol every suite cell, test and example measures
//! with ([`evaluate_errors`]).

use safeloc::SafeLocConfig;
use safeloc_dataset::{Building, BuildingDataset};
use safeloc_fl::{Framework, ServerConfig};

/// Experiment scale, selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test: one small building, short training, coarse grids.
    Quick,
    /// Scaled-down-but-converged defaults: fewer pretraining epochs, and a
    /// client learning rate raised so a few rounds drift as far as the
    /// paper's long deployment (`ServerConfig::default_scale`).
    Default,
    /// The paper's §V.A configuration (700 epochs, 10 rounds) — hours.
    Full,
}

/// Scale and master seed of a suite run (the `suite` binary's `--quick`,
/// `--full` and `--seed N`).
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Server configuration for the baselines at this scale.
    pub fn server_config(&self) -> ServerConfig {
        match self.scale {
            Scale::Quick => ServerConfig {
                pretrain_epochs: 60,
                ..ServerConfig::default_scale(self.seed)
            },
            Scale::Default => ServerConfig::default_scale(self.seed),
            Scale::Full => ServerConfig::paper(self.seed),
        }
    }

    /// SAFELOC configuration at this scale.
    pub fn safeloc_config(&self) -> SafeLocConfig {
        match self.scale {
            Scale::Quick => SafeLocConfig {
                pretrain_epochs: 60,
                ..SafeLocConfig::default_scale(self.seed)
            },
            Scale::Default => SafeLocConfig::default_scale(self.seed),
            Scale::Full => SafeLocConfig::paper(self.seed),
        }
    }

    /// Federated rounds per scenario.
    pub fn rounds(&self) -> usize {
        match self.scale {
            Scale::Quick => 4,
            Scale::Default => 8,
            Scale::Full => 10,
        }
    }
}

/// Buildings per scale: `Quick` uses only Building 5 (the smallest: 90 RPs,
/// 78 APs); the other scales use all five paper buildings.
pub fn default_buildings(scale: Scale) -> Vec<Building> {
    match scale {
        Scale::Quick => vec![Building::paper(5)],
        _ => Building::paper_all(),
    }
}

/// Per-sample localization errors in meters
/// ([`Building::label_error_m`]) of `framework` over the non-training
/// devices' test sets (the paper's evaluation protocol).
pub fn evaluate_errors(framework: &dyn Framework, data: &BuildingDataset) -> Vec<f32> {
    let mut errors = Vec::new();
    for (_, set) in data.eval_sets() {
        let pred = framework.predict(&set.x);
        errors.extend(
            pred.iter()
                .zip(&set.labels)
                .map(|(&p, &t)| data.building.label_error_m(p, t)),
        );
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AttackSpec, ErrorStats, FrameworkSpec, NetworkSpec, ParticipationMode, ParticipationSpec,
        ScenarioCell, ScenarioSpec, SuiteRunner,
    };
    use safeloc_attacks::Attack;
    use safeloc_dataset::DatasetConfig;
    use safeloc_fl::{Client, FlSession, RoundReport};

    fn tiny_dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3)
    }

    /// A one-cell SAFELOC suite at `--quick` over [`tiny_dataset`]. The
    /// tiny dataset has three devices and the last one trains on the
    /// server, so an attacked cell compromises client 1.
    fn tiny_cell(attack: AttackSpec, rounds: usize) -> (SuiteRunner, ScenarioCell) {
        let mut spec = ScenarioSpec::new("harness", vec![FrameworkSpec::Safeloc], vec![attack]);
        spec.buildings = vec![3];
        spec.rounds = rounds;
        let cfg = HarnessConfig {
            scale: Scale::Quick,
            seed: 3,
        };
        let runner = SuiteRunner::new(cfg, spec).with_dataset_builder(|_, _, _| tiny_dataset());
        let cell = runner.cells().remove(0);
        (runner, cell)
    }

    #[test]
    fn scales_pick_buildings() {
        assert_eq!(default_buildings(Scale::Quick).len(), 1);
        assert_eq!(default_buildings(Scale::Default).len(), 5);
        assert_eq!(default_buildings(Scale::Full).len(), 5);
    }

    #[test]
    fn full_scale_uses_paper_epochs() {
        let cfg = HarnessConfig {
            scale: Scale::Full,
            seed: 0,
        };
        assert_eq!(cfg.server_config().pretrain_epochs, 700);
        assert_eq!(cfg.safeloc_config().pretrain_epochs, 700);
        assert_eq!(cfg.rounds(), 10);
    }

    #[test]
    fn scenario_runner_produces_errors_for_every_eval_sample() {
        let (mut runner, cell) = tiny_cell(AttackSpec::of(Attack::label_flip(0.5)), 1);
        let run = runner.run_cell(&cell);
        assert_eq!(run.error, None);
        assert_eq!(run.reports.len(), 1);
        let data = tiny_dataset();
        let expected: usize = data.eval_sets().iter().map(|(_, s)| s.len()).sum();
        assert_eq!(run.errors.len(), expected);
        assert!(run.stats().mean.is_finite());
    }

    /// A cell under a lossy network and a churning cohort runs exactly the
    /// rounds a hand-rolled loop runs: sample the plan, degrade it through
    /// the fault shim, run the framework. So does a bare session with the
    /// shim as its plan transform, and it publishes every degraded round.
    #[test]
    fn degraded_session_matches_a_hand_rolled_network_loop() {
        use safeloc_fl::{ModelPublisher, RoundPlan};
        use safeloc_nn::NamedParams;
        use std::sync::{Arc, Mutex};

        struct Recorder(Arc<Mutex<Vec<(RoundReport, NamedParams)>>>);
        impl ModelPublisher for Recorder {
            fn publish_round(&mut self, report: &RoundReport, global: &NamedParams) {
                self.0
                    .lock()
                    .unwrap()
                    .push((report.clone(), global.clone()));
            }
        }

        let (mut runner, mut cell) = tiny_cell(AttackSpec::clean(), 6);
        cell.participation = ParticipationSpec {
            mode: ParticipationMode::UniformK { k: 2 },
            dropout: 0.0,
            straggle: 0.0,
        };
        cell.network = NetworkSpec {
            latency_ms_mean: 40.0,
            latency_ms_std: 30.0,
            drop_probability: 0.2,
            slow_reader_probability: 0.2,
            deadline_ms: 60.0,
            ..NetworkSpec::ideal()
        };
        let data = tiny_dataset();
        let template = runner.framework(&cell);
        let fault = cell.network.fault(cell.network_seed(3));
        let (deadline_ms, rounds) = (cell.network.deadline_ms, cell.rounds);
        let fleet = || Client::from_dataset(&data, cell.scenario_seed(3));
        let sampler = || cell.participation.sampler(&fleet(), cell.sampler_seed(3));

        // The reference: the loop the harness used to hand-roll.
        let mut reference = template.clone_box();
        let mut clients = fleet();
        let mut plans: Vec<RoundPlan> = Vec::new();
        let mut expected: Vec<RoundReport> = Vec::new();
        for round in 0..rounds {
            let plan = sampler().plan(round, clients.len());
            let degraded = fault.degrade_plan(&plan, round as u64, deadline_ms);
            expected.push(reference.run_round(&mut clients, &degraded));
            plans.push(degraded);
        }
        let lost: usize = expected.iter().map(|r| r.dropped() + r.straggled()).sum();
        assert!(lost > 0, "the profile degraded nothing: {plans:?}");

        let published = Arc::new(Mutex::new(Vec::new()));
        let mut session = FlSession::builder(template.clone_box())
            .clients(fleet())
            .sampler(sampler())
            .plan_transform(Box::new(move |round, plan| {
                fault.degrade_plan(&plan, round as u64, deadline_ms)
            }))
            .publisher(Box::new(Recorder(published.clone())))
            .build();
        let reports = session.run(rounds);

        // Wall-clock fields aside, report for report and GM bit for bit.
        let outcomes = |reports: &[RoundReport]| -> Vec<_> {
            reports
                .iter()
                .map(|r| (r.round, r.clients.clone()))
                .collect()
        };
        assert_eq!(outcomes(&reports), outcomes(&expected));
        assert_eq!(
            session.framework().global_params(),
            reference.global_params()
        );
        let published = published.lock().unwrap();
        let seen: Vec<RoundReport> = published.iter().map(|(r, _)| r.clone()).collect();
        assert_eq!(seen, reports, "publisher missed a degraded round");
        assert_eq!(published.last().unwrap().1, reference.global_params());

        let run = runner.run_cell(&cell);
        assert_eq!(outcomes(&run.reports), outcomes(&expected));
        assert_eq!(run.errors, evaluate_errors(reference.as_ref(), &data));
    }

    #[test]
    fn clean_scenario_beats_random_guessing() {
        let (mut runner, cell) = tiny_cell(AttackSpec::clean(), 1);
        let errors = runner.run_cell(&cell).errors;
        let stats = ErrorStats::from_errors(&errors);
        // Random guessing on the tiny serpentine floor is ~2.5 m mean.
        assert!(stats.mean < 2.5, "clean mean error {}", stats.mean);
    }
}
