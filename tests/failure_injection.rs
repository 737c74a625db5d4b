//! Integration: failure injection — the federated pipeline must survive
//! dropped clients, empty rounds, NaN-weight updates and degenerate data.

use safeloc::{SafeLoc, SafeLocConfig, SaliencyAggregator};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, FingerprintSet};
use safeloc_fl::{
    Aggregator, Availability, Client, ClientUpdate, DefensePipeline, Framework, RoundPlan,
    SequentialFlServer, ServerConfig, UpdateDecision,
};
use safeloc_nn::{Matrix, NamedParams};

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(13), &DatasetConfig::tiny(), 13)
}

/// The six paper rules as their canonical pipeline compositions — the
/// shared guard contract must hold for every one of them.
fn all_aggregators() -> Vec<DefensePipeline> {
    vec![
        DefensePipeline::fedavg(),
        DefensePipeline::krum(1),
        DefensePipeline::selective(0.5),
        DefensePipeline::cluster(0.15),
        DefensePipeline::latent(0),
        SaliencyAggregator::default().into_pipeline(),
        DefensePipeline::latent_with_history(0),
    ]
}

#[test]
fn every_aggregator_survives_an_empty_round() {
    let gm = NamedParams::new(vec![(
        "w".into(),
        Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap(),
    )]);
    for mut agg in all_aggregators() {
        let out = agg.aggregate(&gm, &[]);
        assert_eq!(
            out.params,
            gm,
            "{} corrupted the GM on an empty round",
            agg.label()
        );
        assert!(out.decisions.is_empty());
    }
}

#[test]
fn every_aggregator_rejects_all_nan_updates() {
    let gm = NamedParams::new(vec![(
        "w".into(),
        Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap(),
    )]);
    let nan_update = ClientUpdate::new(
        0,
        NamedParams::new(vec![(
            "w".into(),
            Matrix::from_vec(1, 3, vec![f32::NAN, f32::INFINITY, 0.0]).unwrap(),
        )]),
        10,
    );
    for mut agg in all_aggregators() {
        let out = agg.aggregate(&gm, std::slice::from_ref(&nan_update));
        assert!(
            !out.params.has_non_finite(),
            "{} let NaN weights into the GM",
            agg.label()
        );
        // The shared guard owns this rule: the GM is untouched and the
        // decision trail names the rejection, for every aggregator alike.
        assert_eq!(
            out.params,
            gm,
            "{} rewrote the GM from a fully non-finite round",
            agg.label()
        );
        match &out.decisions[0] {
            UpdateDecision::Rejected { rule, .. } => {
                assert_eq!(rule, safeloc_fl::defense::NON_FINITE_RULE)
            }
            other => panic!("{} accepted a NaN update: {other:?}", agg.label()),
        }
    }
}

#[test]
fn rounds_with_a_subset_of_clients_work() {
    let data = dataset();
    let mut server = SequentialFlServer::new(
        &[data.building.num_aps(), 12, data.building.num_rps()],
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
    );
    server.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 13);
    // Only one client shows up this round.
    let mut solo = clients.split_off(clients.len() - 1);
    let report = server.run_round(&mut solo, &RoundPlan::full(1));
    assert_eq!(report.accepted(), 1);
    // Nobody shows up the next round.
    let mut nobody: Vec<Client> = Vec::new();
    let report = server.run_round(&mut nobody, &RoundPlan::full(0));
    assert_eq!(report.participants(), 0);
    let acc = server.accuracy(&data.server_train.x, &data.server_train.labels);
    assert!(
        acc > 0.3,
        "server lost the model after sparse rounds: {acc}"
    );
}

#[test]
fn safeloc_handles_single_sample_clients() {
    let data = dataset();
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 13);
    for c in &mut clients {
        c.local = c.local.subset(&[0]); // one fingerprint each
    }
    let plan = RoundPlan::full(clients.len());
    f.run_round(&mut clients, &plan);
    let test = &data.client_test[0];
    assert!(f.accuracy(&test.x, &test.labels) > 0.2);
}

#[test]
fn safeloc_predicts_on_degenerate_inputs() {
    let data = dataset();
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    // All-zero fingerprint (no AP heard) and all-ones (saturated).
    let x = Matrix::from_rows(&[
        vec![0.0; data.building.num_aps()],
        vec![1.0; data.building.num_aps()],
    ]);
    let labels = f.predict(&x);
    assert_eq!(labels.len(), 2);
    assert!(labels.iter().all(|&l| l < data.building.num_rps()));
}

#[test]
fn empty_fingerprint_sets_are_harmless() {
    let set = FingerprintSet::empty(10);
    assert_eq!(set.len(), 0);
    let sub = set.subset(&[]);
    assert!(sub.is_empty());
}

#[test]
fn stale_plans_referencing_departed_clients_are_harmless() {
    // A plan can outlive fleet churn: cohort entries beyond the current
    // fleet are skipped by training and by the report alike.
    let data = dataset();
    let mut server = SequentialFlServer::new(
        &[data.building.num_aps(), 12, data.building.num_rps()],
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
    );
    server.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 13);
    let plan = RoundPlan::new(vec![
        (0, Availability::Participates),
        (clients.len() + 5, Availability::Participates),
        (clients.len() + 9, Availability::DropsOut),
    ]);
    let report = server.run_round(&mut clients, &plan);
    assert_eq!(report.clients.len(), 1, "ghost clients reported");
    assert_eq!(report.accepted(), 1);
}
