//! Integration: the round-lifecycle API is a pure superset of the seed
//! engine. For every one of the seven frameworks (SAFELOC + six
//! baselines):
//!
//! * a full-participation `FlSession` reproduces the seed trajectory of
//!   manually driven full-participation `run_round` calls **bitwise**,
//! * reports carry a complete, consistent per-client outcome trail,
//! * partial participation trains exactly the sampled cohort.

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_baselines::{fedcc, fedhil, fedloc, fedls, krum, Onlad};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceProfile};
use safeloc_fl::{
    Availability, Client, ClientOutcome, CohortSampler, FlSession, Framework, RoundPlan,
    ServerConfig,
};

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(31), &DatasetConfig::tiny(), 31)
}

/// All seven frameworks of the paper's comparison, pretrained.
fn all_seven(data: &BuildingDataset) -> Vec<Box<dyn Framework>> {
    let (aps, rps) = (data.building.num_aps(), data.building.num_rps());
    let cfg = ServerConfig::tiny();
    let mut frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(SafeLoc::new(aps, rps, SafeLocConfig::tiny())),
        Box::new(Onlad::new(aps, rps, cfg)),
        Box::new(fedls(aps, rps, cfg)),
        Box::new(fedcc(aps, rps, cfg)),
        Box::new(fedhil(aps, rps, cfg)),
        Box::new(fedloc(aps, rps, cfg)),
        Box::new(krum(aps, rps, cfg)),
    ];
    for f in &mut frameworks {
        f.pretrain(&data.server_train);
    }
    frameworks
}

fn attacked_fleet(data: &BuildingDataset) -> Vec<Client> {
    let mut clients = Client::from_dataset(data, 31);
    let last = clients.len() - 1;
    clients[last].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 31).with_boost(3.0));
    clients
}

#[test]
fn full_participation_session_reproduces_manual_rounds_bitwise_for_all_seven() {
    let data = dataset();
    let rounds = 2;
    for template in all_seven(&data) {
        // Seed path: full-participation `run_round`s driven by hand,
        // exactly the shape pre-session code ran.
        let mut legacy = template.clone_box();
        let mut clients = attacked_fleet(&data);
        let plan = RoundPlan::full(clients.len());
        for _ in 0..rounds {
            legacy.run_round(&mut clients, &plan);
        }

        // New path: a session with the default (full) sampler.
        let mut session = FlSession::builder(template.clone_box())
            .clients(attacked_fleet(&data))
            .build();
        let reports = session.run(rounds);

        assert_eq!(
            session.framework().global_params(),
            legacy.global_params(),
            "{}: full-participation session diverged from manual full rounds",
            template.name()
        );
        // Full participation: every client appears in every report and
        // every update is either accepted or rejected by a named rule.
        for report in &reports {
            assert_eq!(report.clients.len(), session.fleet_len());
            assert_eq!(report.participants(), report.clients.len());
            assert_eq!(report.dropped() + report.straggled(), 0);
            assert_eq!(report.framework, template.name());
        }
    }
}

#[test]
fn reports_expose_defense_decisions_per_framework() {
    let data = dataset();
    for template in all_seven(&data) {
        let mut session = FlSession::builder(template.clone_box())
            .clients(attacked_fleet(&data))
            .build();
        let reports = session.run(2);
        for report in &reports {
            for c in &report.clients {
                match &c.outcome {
                    ClientOutcome::Trained { weight } => {
                        assert!(
                            weight.is_finite() && *weight >= 0.0,
                            "{}: bad acceptance weight {weight}",
                            template.name()
                        );
                    }
                    ClientOutcome::Rejected { rule, score } => {
                        assert!(
                            !rule.is_empty() && score.is_finite(),
                            "{}: rejection without rule/score",
                            template.name()
                        );
                    }
                    other => panic!("{}: full participation produced {other:?}", template.name()),
                }
            }
        }
        // Exactly one malicious client participated each round.
        let attacker_rounds = reports
            .iter()
            .filter(|r| r.clients.iter().any(|c| c.malicious))
            .count();
        assert_eq!(attacker_rounds, 2, "{}", template.name());
    }
}

#[test]
fn krum_reports_reject_the_boosted_attacker() {
    let data = dataset();
    let (aps, rps) = (data.building.num_aps(), data.building.num_rps());
    let mut f = krum(aps, rps, ServerConfig::tiny());
    f.pretrain(&data.server_train);
    let mut session = FlSession::builder(Box::new(f))
        .clients(attacked_fleet(&data))
        .build();
    session.run(3);
    let rate = session
        .attacker_rejection_rate()
        .expect("attacker participates under full participation");
    assert!(
        rate > 0.6,
        "Krum rejected the boosted label-flipper in only {:.0}% of rounds",
        rate * 100.0
    );
}

#[test]
fn partial_participation_trains_exactly_the_sampled_cohort() {
    let data = dataset();
    for template in all_seven(&data) {
        let mut session = FlSession::builder(template.clone_box())
            .clients(Client::from_dataset(&data, 31))
            .sampler(CohortSampler::uniform(2, 5))
            .build();
        let reports = session.run(2);
        for report in &reports {
            assert_eq!(
                report.clients.len(),
                2,
                "{}: cohort size not honored",
                template.name()
            );
            assert_eq!(report.accepted() + report.rejected(), 2);
        }
    }
}

/// Regression for the fig8 participation-sweep collapse: FEDLS's latent
/// filter used to accept every update of any round smaller than its
/// 3-update guard, so a single boosted attacker sampled into a cohort of
/// two bypassed the defense entirely. With benign history accumulated from
/// earlier full rounds, the small round is now screened against it: the
/// attacker is rejected and the honest cohort member still trains.
#[test]
fn fedls_small_cohort_rejects_the_boosted_attacker() {
    // The paper's six-phone fleet at tiny sample counts: full rounds need
    // enough honest updates for the round-local filter to keep the benign
    // history clean.
    let cfg = DatasetConfig {
        devices: DeviceProfile::paper_fleet(),
        ..DatasetConfig::tiny()
    };
    let data = BuildingDataset::generate(Building::tiny(8), &cfg, 8);
    let mut f = fedls(
        data.building.num_aps(),
        data.building.num_rps(),
        ServerConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 8);
    let attacker = DeviceProfile::ATTACKER_DEVICE;
    clients[attacker].injector =
        Some(PoisonInjector::new(Attack::label_flip(1.0), 8).with_boost(6.0));

    let full = RoundPlan::full(clients.len());
    for _ in 0..3 {
        f.run_round(&mut clients, &full);
    }

    // The collapse shape: a cohort of two — one honest client, the attacker.
    let plan = RoundPlan::new(vec![
        (0, Availability::Participates),
        (attacker, Availability::Participates),
    ]);
    let report = f.run_round(&mut clients, &plan);
    assert_eq!(report.participants(), 2);
    let attacker_report = report
        .clients
        .iter()
        .find(|c| c.malicious)
        .expect("attacker in cohort");
    assert!(
        matches!(attacker_report.outcome, ClientOutcome::Rejected { .. }),
        "small-cohort attacker passed FEDLS: {:?}",
        attacker_report.outcome
    );
    let honest = report
        .clients
        .iter()
        .find(|c| !c.malicious)
        .expect("honest client in cohort");
    assert!(
        matches!(honest.outcome, ClientOutcome::Trained { .. }),
        "honest small-cohort update rejected: {:?}",
        honest.outcome
    );
}

#[test]
fn cohort_membership_does_not_perturb_other_clients_training() {
    // Client 0 participates in both runs; the *other* cohort members
    // differ. Client 0's contribution — and thus a FedAvg-of-one GM — must
    // be identical, because per-client seed streams are independent of
    // cohort shape.
    let data = dataset();
    let (aps, rps) = (data.building.num_aps(), data.building.num_rps());
    let run = |extra: usize| {
        let mut f = fedloc(aps, rps, ServerConfig::tiny());
        f.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 31);
        let plan = RoundPlan::new(vec![
            (0, safeloc_fl::Availability::Participates),
            (extra, safeloc_fl::Availability::DropsOut),
        ]);
        let report = f.run_round(&mut clients, &plan);
        assert_eq!(report.accepted(), 1);
        f.global_params()
    };
    assert_eq!(
        run(1),
        run(2),
        "a dropped-out peer changed another client's training stream"
    );
}
