//! Integration: serde round-trips of the types a deployment would persist —
//! model weights, configurations, datasets and attack configs.

use safeloc::{FusedConfig, FusedNetwork, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceProfile};
use safeloc_nn::{Activation, HasParams, Matrix, NamedParams, Sequential};

#[test]
fn fused_network_weights_round_trip() {
    let net = FusedNetwork::new(&FusedConfig::paper(30, 10, 3));
    let json = serde_json::to_string(&net).unwrap();
    let back: FusedNetwork = serde_json::from_str(&json).unwrap();
    let x = Matrix::from_rows(&[vec![0.4; 30]]);
    assert_eq!(
        net.forward_trace(&x).logits(),
        back.forward_trace(&x).logits()
    );
}

#[test]
fn named_params_round_trip_preserves_behaviour() {
    let model = Sequential::mlp(&[8, 6, 4], Activation::Relu, 2);
    let snap = model.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: NamedParams = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
    let mut restored = Sequential::mlp(&[8, 6, 4], Activation::Relu, 9);
    restored.load(&back).unwrap();
    let x = Matrix::from_rows(&[vec![0.3; 8]]);
    assert_eq!(model.forward(&x), restored.forward(&x));
}

#[test]
fn configs_round_trip() {
    let cfg = SafeLocConfig::paper(5);
    let back: SafeLocConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(cfg, back);

    let dcfg = DatasetConfig::paper();
    let back: DatasetConfig = serde_json::from_str(&serde_json::to_string(&dcfg).unwrap()).unwrap();
    assert_eq!(dcfg, back);
}

#[test]
fn attacks_and_injectors_round_trip() {
    for attack in [
        Attack::clb(0.2),
        Attack::fgsm(0.1),
        Attack::pgd(0.3),
        Attack::mim(0.4),
        Attack::label_flip(0.5),
    ] {
        let json = serde_json::to_string(&attack).unwrap();
        let back: Attack = serde_json::from_str(&json).unwrap();
        assert_eq!(attack, back);
    }
    let injector = PoisonInjector::new(Attack::fgsm(0.2), 7).with_boost(6.0);
    let back: PoisonInjector =
        serde_json::from_str(&serde_json::to_string(&injector).unwrap()).unwrap();
    assert_eq!(injector, back);
    assert_eq!(back.boost(), 6.0);
}

#[test]
fn injector_without_boost_field_deserializes_with_default() {
    // Forward compatibility: snapshots produced before the boost field.
    let json = r#"{"attack":{"Fgsm":{"epsilon":0.1}},"seed":3,"invocation":0}"#;
    let injector: PoisonInjector = serde_json::from_str(json).unwrap();
    assert_eq!(injector.boost(), 1.0);
}

#[test]
fn buildings_and_devices_round_trip() {
    let b = Building::paper(3);
    let back: Building = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
    assert_eq!(b, back);

    let d = &DeviceProfile::paper_fleet()[4];
    let back: DeviceProfile = serde_json::from_str(&serde_json::to_string(d).unwrap()).unwrap();
    assert_eq!(*d, back);
}

#[test]
fn full_dataset_round_trips() {
    let data = BuildingDataset::generate(Building::tiny(2), &DatasetConfig::tiny(), 2);
    let json = serde_json::to_string(&data).unwrap();
    let back: BuildingDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(data.server_train, back.server_train);
    assert_eq!(data.building, back.building);
}

#[test]
fn round_lifecycle_types_round_trip() {
    use safeloc_fl::{Availability, CohortSampler, RoundPlan};

    // A deployment persists its sampler configuration and audit-logs its
    // plans and reports; all three must survive serde.
    let sampler = CohortSampler::weighted(3, vec![1.0, 2.0, 0.5, 4.0], 17)
        .with_dropout(0.1)
        .with_straggle(0.05);
    let back: CohortSampler =
        serde_json::from_str(&serde_json::to_string(&sampler).unwrap()).unwrap();
    assert_eq!(sampler, back);

    let plan = RoundPlan::new(vec![
        (0, Availability::Participates),
        (2, Availability::Straggles),
        (3, Availability::DropsOut),
    ]);
    let back: RoundPlan = serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
    assert_eq!(plan, back);
}

#[test]
fn round_reports_round_trip() {
    use safeloc_fl::{
        Client, DefensePipeline, Framework, RoundPlan, RoundReport, SequentialFlServer,
        ServerConfig,
    };

    let data = BuildingDataset::generate(Building::tiny(2), &DatasetConfig::tiny(), 2);
    let mut s = SequentialFlServer::new(
        &[data.building.num_aps(), 8, data.building.num_rps()],
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
    );
    s.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 2);
    let plan = RoundPlan::full(clients.len());
    let report = s.run_round(&mut clients, &plan);
    let back: RoundReport = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(report, back);
}
