//! Shared experiment plumbing: scales, the scenario fleet and the session
//! runner every suite cell goes through.

use safeloc::SafeLocConfig;
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{Building, BuildingDataset};
use safeloc_fl::{Client, CohortSampler, FlSession, Framework, RoundReport, ServerConfig};
use safeloc_metrics::localization_errors;
use safeloc_wire::FaultProfile;

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

/// Command-line configuration shared by every bench binary.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Parses `--quick`, `--full` and `--seed N` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut scale = Scale::Default;
        let mut seed = 42;
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" => scale = Scale::Full,
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed requires an integer"));
                }
                other => panic!("unknown argument {other:?} (expected --quick/--full/--seed N)"),
            }
            i += 1;
        }
        Self { scale, seed }
    }

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

    /// The buildings evaluated at this scale.
    pub fn buildings(&self) -> Vec<Building> {
        default_buildings(self.scale)
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

/// One attack scenario: which attack, which clients are compromised, and
/// how many federated rounds run before evaluation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The attack; `None` is the clean baseline.
    pub attack: Option<Attack>,
    /// Indices of compromised clients (the paper compromises the HTC U11).
    pub attacker_ids: Vec<usize>,
    /// Federated rounds before evaluation.
    pub rounds: usize,
    /// Scenario seed (clients/injectors derive their streams from it).
    pub seed: u64,
    /// Attacker update-boost factor; `None` = `n_clients / n_attackers`
    /// (model replacement, shared across colluders), `Some(1.0)` =
    /// honest-magnitude data poisoning only.
    pub boost: Option<f32>,
    /// Colluding attackers share one poison stream (identical flip
    /// choices), so their updates push coherently instead of cancelling.
    /// Matters only with several attackers (Fig. 7).
    pub coherent: bool,
}

/// Errors plus the per-round telemetry a scenario session produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-sample localization errors (meters) over the five non-training
    /// devices' held-out test sets.
    pub errors: Vec<f32>,
    /// One report per federated round, in order.
    pub reports: Vec<RoundReport>,
}

/// The fleet for a scenario: clients with the scenario's attackers wired
/// in (model-replacement boost shared across colluders).
pub fn scenario_fleet(data: &BuildingDataset, scenario: &Scenario) -> Vec<Client> {
    let mut clients = Client::from_dataset(data, scenario.seed);
    // Model-replacement boost: k colluding attackers share the n× factor so
    // their combined mass steers a plain mean exactly once.
    let boost = scenario
        .boost
        .unwrap_or(clients.len() as f32 / scenario.attacker_ids.len().max(1) as f32);
    if let Some(attack) = &scenario.attack {
        for &id in &scenario.attacker_ids {
            if id < clients.len() {
                let stream = if scenario.coherent {
                    scenario.seed ^ 0xC0117DE
                } else {
                    scenario.seed ^ ((id as u64 + 1) << 24)
                };
                clients[id].injector =
                    Some(PoisonInjector::new(attack.clone(), stream).with_boost(boost));
            }
        }
    }
    clients
}

/// Drives `rounds` session rounds of `framework` over a prebuilt fleet
/// under simulated network conditions and evaluates the result: every
/// round's sampled cohort plan is replayed through the wire crate's
/// fault-injection shim ([`FaultProfile::degrade_plan`], installed as the
/// session's plan transform) before the framework runs it, so a would-be
/// connection drop becomes
/// [`Availability::DropsOut`](safeloc_fl::Availability::DropsOut) and a
/// slow reader — or a latency draw beyond `deadline_ms` — becomes
/// [`Availability::Straggles`](safeloc_fl::Availability::Straggles).
/// Network conditions thereby sweep like any other scenario axis without
/// paying per-cell process spawns.
///
/// [`FaultProfile::ideal`] returns every plan untouched (`deadline_ms` is
/// then unused), so cells without the network axis stay bitwise identical
/// to the pre-axis engine.
pub fn run_fleet_with_network(
    framework: Box<dyn Framework>,
    data: &BuildingDataset,
    clients: Vec<Client>,
    rounds: usize,
    sampler: CohortSampler,
    fault: &FaultProfile,
    deadline_ms: f64,
) -> ScenarioOutcome {
    let fault = *fault;
    let mut session = FlSession::builder(framework)
        .clients(clients)
        .sampler(sampler)
        .plan_transform(Box::new(move |round, plan| {
            fault.degrade_plan(&plan, round as u64, deadline_ms)
        }))
        .build();
    session.run(rounds);
    let (framework, reports) = session.into_parts();
    ScenarioOutcome {
        errors: evaluate_errors(framework.as_ref(), data),
        reports,
    }
}

/// Localization errors of `framework` over the non-training devices' test
/// sets (the paper's evaluation protocol).
pub fn evaluate_errors(framework: &dyn Framework, data: &BuildingDataset) -> Vec<f32> {
    let mut errors = Vec::new();
    for (_, set) in data.eval_sets() {
        let pred = framework.predict(&set.x);
        errors.extend(localization_errors(&data.building, &pred, &set.labels));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc::SafeLoc;
    use safeloc_dataset::DatasetConfig;
    use safeloc_metrics::ErrorStats;

    fn tiny_dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3)
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
        let data = tiny_dataset();
        let mut f = SafeLoc::new(
            data.building.num_aps(),
            data.building.num_rps(),
            safeloc::SafeLocConfig::tiny(),
        );
        f.pretrain(&data.server_train);
        let scenario = Scenario {
            attack: Some(Attack::label_flip(0.5)),
            attacker_ids: vec![1],
            rounds: 1,
            seed: 3,
            boost: None,
            coherent: false,
        };
        let errors = run_fleet_with_network(
            f.clone_box(),
            &data,
            scenario_fleet(&data, &scenario),
            scenario.rounds,
            CohortSampler::full(),
            &FaultProfile::ideal(),
            0.0,
        )
        .errors;
        let expected: usize = data.eval_sets().iter().map(|(_, s)| s.len()).sum();
        assert_eq!(errors.len(), expected);
        let stats = ErrorStats::from_errors(&errors);
        assert!(stats.mean.is_finite());
    }

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

        let data = tiny_dataset();
        let mut template = SafeLoc::new(
            data.building.num_aps(),
            data.building.num_rps(),
            safeloc::SafeLocConfig::tiny(),
        );
        template.pretrain(&data.server_train);
        let fault = FaultProfile::latency(40.0, 30.0, 5)
            .with_drops(0.2)
            .with_slow_readers(0.2);
        let (deadline_ms, rounds) = (60.0, 6);
        let sampler = || CohortSampler::uniform(2, 9);
        let fleet = || Client::from_dataset(&data, 3);

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
        session.run(rounds);

        // Wall-clock fields aside, report for report and GM bit for bit.
        let outcomes = |reports: &[RoundReport]| -> Vec<_> {
            reports
                .iter()
                .map(|r| (r.round, r.clients.clone()))
                .collect()
        };
        assert_eq!(outcomes(session.reports()), outcomes(&expected));
        assert_eq!(
            session.framework().global_params(),
            reference.global_params()
        );
        let published = published.lock().unwrap();
        let seen: Vec<RoundReport> = published.iter().map(|(r, _)| r.clone()).collect();
        assert_eq!(seen, session.reports(), "publisher missed a degraded round");
        assert_eq!(published.last().unwrap().1, reference.global_params());

        let harness = run_fleet_with_network(
            template.clone_box(),
            &data,
            fleet(),
            rounds,
            sampler(),
            &fault,
            deadline_ms,
        );
        assert_eq!(outcomes(&harness.reports), outcomes(&expected));
        assert_eq!(harness.errors, evaluate_errors(reference.as_ref(), &data));
    }

    #[test]
    fn clean_scenario_beats_random_guessing() {
        let data = tiny_dataset();
        let mut f = SafeLoc::new(
            data.building.num_aps(),
            data.building.num_rps(),
            safeloc::SafeLocConfig::tiny(),
        );
        f.pretrain(&data.server_train);
        let clean = Scenario {
            attack: None,
            attacker_ids: vec![],
            rounds: 1,
            seed: 3,
            boost: None,
            coherent: false,
        };
        let errors = run_fleet_with_network(
            f.clone_box(),
            &data,
            scenario_fleet(&data, &clean),
            clean.rounds,
            CohortSampler::full(),
            &FaultProfile::ideal(),
            0.0,
        )
        .errors;
        let stats = ErrorStats::from_errors(&errors);
        // Random guessing on the tiny serpentine floor is ~2.5 m mean.
        assert!(stats.mean < 2.5, "clean mean error {}", stats.mean);
    }
}
