//! Integration: the qualitative attack × defense matrix the paper's
//! evaluation rests on, at test scale.

use safeloc::{SafeLoc, SafeLocConfig, SaliencyAggregator};
use safeloc_attacks::{Attack, PoisonInjector, ALL_ATTACK_KINDS};
use safeloc_bench::{evaluate_errors, ErrorStats};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Aggregator, Client, ClientUpdate, DefensePipeline, Framework, RoundPlan};
use safeloc_nn::{Matrix, NamedParams};

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(21), &DatasetConfig::tiny(), 21)
}

fn attacked_mean(attack: Attack, boost: f32) -> f32 {
    let data = dataset();
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, 21);
    let last = clients.len() - 1;
    clients[last].injector = Some(PoisonInjector::new(attack, 21).with_boost(boost));
    let plan = RoundPlan::full(clients.len());
    for _ in 0..3 {
        f.run_round(&mut clients, &plan);
    }
    ErrorStats::from_errors(&evaluate_errors(&f, &data)).mean
}

#[test]
fn safeloc_is_stable_under_every_attack_kind() {
    // The tiny floor is ~10 m across; random guessing is ~2.5 m mean error.
    for kind in ALL_ATTACK_KINDS {
        let mean = attacked_mean(Attack::of_kind(kind, 0.4), 3.0);
        assert!(
            mean < 2.2,
            "SAFELOC collapsed under {kind:?}: mean {mean} m"
        );
    }
}

#[test]
fn saliency_suppresses_boosted_outliers_more_than_fedavg() {
    // Direct aggregation-level comparison on identical updates.
    let gm = NamedParams::new(vec![(
        "w".into(),
        Matrix::from_vec(1, 4, vec![0.0; 4]).unwrap(),
    )]);
    let honest: Vec<ClientUpdate> = (0..5)
        .map(|i| {
            let p = NamedParams::new(vec![(
                "w".into(),
                Matrix::from_vec(1, 4, vec![0.05; 4]).unwrap(),
            )]);
            ClientUpdate::new(i, p, 10)
        })
        .collect();
    let mut updates = honest.clone();
    updates.push(ClientUpdate::new(
        9,
        NamedParams::new(vec![(
            "w".into(),
            Matrix::from_vec(1, 4, vec![3.0; 4]).unwrap(),
        )]),
        10,
    ));

    let fedavg = DefensePipeline::fedavg().aggregate(&gm, &updates);
    let saliency = SaliencyAggregator::default()
        .into_pipeline()
        .aggregate(&gm, &updates);
    let fa = fedavg.params.get("w").unwrap().get(0, 0);
    let sa = saliency.params.get("w").unwrap().get(0, 0);
    assert!(
        sa < fa / 3.0,
        "saliency ({sa}) barely better than FedAvg ({fa})"
    );
}

#[test]
fn detection_neutralizes_backdoor_but_not_label_flip() {
    // The architecture's division of labour: the client-side detector
    // handles input perturbations; label flips can only be damped at the
    // server. Per the paper (Fig. 5), label flipping at full strength hurts
    // *more* than an equally strong backdoor.
    let backdoor = attacked_mean(Attack::fgsm(0.6), 3.0);
    let flip = attacked_mean(Attack::label_flip(1.0), 3.0);
    assert!(
        flip + 0.3 >= backdoor,
        "expected label flip ({flip}) to be at least as damaging as a detected backdoor ({backdoor})"
    );
}

#[test]
fn unboosted_attacks_are_weaker_than_boosted() {
    let unboosted = attacked_mean(Attack::label_flip(1.0), 1.0);
    let boosted = attacked_mean(Attack::label_flip(1.0), 3.0);
    assert!(
        unboosted <= boosted + 0.3,
        "boost should not reduce attack strength: unboosted {unboosted}, boosted {boosted}"
    );
}
