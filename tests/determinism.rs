//! Integration: the whole stack is deterministic given a seed — datasets,
//! attacks, training, federated rounds and evaluation.

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Client, DefensePipeline, Framework, RoundPlan, SequentialFlServer, ServerConfig};
use safeloc_nn::HasParams;

fn run_safeloc(seed: u64) -> Vec<usize> {
    let data = BuildingDataset::generate(Building::tiny(seed), &DatasetConfig::tiny(), seed);
    let mut f = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig {
            seed,
            ..SafeLocConfig::tiny()
        },
    );
    f.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(&data, seed);
    clients[0].injector = Some(PoisonInjector::new(Attack::mim(0.2), seed));
    let plan = RoundPlan::full(clients.len());
    for _ in 0..2 {
        f.run_round(&mut clients, &plan);
    }
    f.predict(&data.client_test[1].x)
}

#[test]
fn safeloc_runs_reproduce_bit_for_bit() {
    assert_eq!(run_safeloc(7), run_safeloc(7));
}

#[test]
fn different_seeds_give_different_runs() {
    assert_ne!(run_safeloc(7), run_safeloc(8));
}

#[test]
fn sequential_server_rounds_reproduce() {
    let data = BuildingDataset::generate(Building::tiny(5), &DatasetConfig::tiny(), 5);
    let run = || {
        let mut s = SequentialFlServer::new(
            &[data.building.num_aps(), 16, data.building.num_rps()],
            DefensePipeline::fedavg(),
            ServerConfig::tiny(),
        );
        s.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 5);
        clients[1].injector = Some(PoisonInjector::new(Attack::label_flip(0.5), 5));
        let plan = RoundPlan::full(clients.len());
        for _ in 0..2 {
            s.run_round(&mut clients, &plan);
        }
        s.global_model().snapshot()
    };
    assert_eq!(run(), run());
}

#[test]
fn dataset_generation_is_stable_across_calls() {
    let a = BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), 99);
    let b = BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), 99);
    assert_eq!(a.server_train, b.server_train);
    assert_eq!(a.client_local, b.client_local);
    assert_eq!(a.client_test, b.client_test);
}
