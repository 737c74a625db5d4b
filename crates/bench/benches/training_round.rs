//! One full federated round per framework (supports Figs. 6–7: the rounds
//! dominate every experiment's runtime).
//!
//! Run with `cargo bench -p safeloc-bench --bench training_round`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_baselines::{fedhil, fedloc, Onlad};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};

fn bench_round(c: &mut Criterion) {
    let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
    let (aps, rps) = (data.building.num_aps(), data.building.num_rps());

    let mut frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(SafeLoc::new(aps, rps, SafeLocConfig::tiny())),
        Box::new(Onlad::new(aps, rps, ServerConfig::tiny())),
        Box::new(fedhil(aps, rps, ServerConfig::tiny())),
        Box::new(fedloc(aps, rps, ServerConfig::tiny())),
    ];
    for f in &mut frameworks {
        f.pretrain(&data.server_train);
    }

    let mut group = c.benchmark_group("federated_round");
    group.sample_size(20);
    for f in &frameworks {
        group.bench_with_input(BenchmarkId::from_parameter(f.name()), f, |b, f| {
            b.iter(|| {
                let mut fresh = f.clone_box();
                let mut clients = Client::from_dataset(&data, 0);
                let plan = RoundPlan::full(clients.len());
                fresh.run_round(&mut clients, &plan);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
