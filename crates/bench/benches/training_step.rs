//! Full training step on the paper-sized model: the seed allocation-per-op
//! scalar path vs the allocation-free workspace path, the optimizer update
//! alone (seed indexed loop vs the zipped-slice kernel) over the fused
//! network's tensors, plus the serial vs parallel federated round.
//!
//! Run with `cargo bench -p safeloc-bench --bench training_step`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use safeloc::{FusedConfig, FusedNetwork};
use safeloc_bench::naive;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Client, DefensePipeline, Framework, LocalTrainConfig, RoundPlan, SequentialFlServer,
    ServerConfig,
};
use safeloc_nn::{Activation, Adam, HasParams, Matrix, Optimizer, Sequential, Workspace};

const DIMS: [usize; 5] = [203, 128, 89, 62, 60];
const BATCH: usize = 32;

fn batch() -> (Matrix, Vec<usize>) {
    let x = Matrix::from_fn(BATCH, DIMS[0], |r, c| {
        ((r * 131 + c * 31) % 1000) as f32 / 1000.0
    });
    let labels = (0..BATCH).map(|i| i % DIMS[4]).collect();
    (x, labels)
}

/// Learning rate of the timed steps: zero. A step costs the same at any
/// rate, but at 1e-3 the one fixed batch is memorized within ~800 steps,
/// units die, and the first moments of their weights decay to a few
/// subnormal ulps where `0.9·m` rounds back to `m` — every later update
/// then crawls through denormal divides (×2.5–3 per step, seed loop and
/// kernel alike), so a reading depended on how many steps the harness
/// happened to run.
const STEP_LR: f32 = 0.0;

fn bench_training_step(c: &mut Criterion) {
    let (x, labels) = batch();
    let mut group = c.benchmark_group("training_step");

    let mut seed_model = Sequential::mlp(&DIMS, Activation::Relu, 7);
    let mut seed_opt = naive::SeedAdam::new(STEP_LR);
    group.bench_function("seed_alloc_per_op", |b| {
        b.iter(|| naive::train_step(&mut seed_model, &x, &labels, &mut seed_opt))
    });

    let mut model = Sequential::mlp(&DIMS, Activation::Relu, 7);
    let mut opt = Adam::new(STEP_LR);
    let mut ws = Workspace::new();
    group.bench_function("workspace_blocked", |b| {
        b.iter(|| model.train_batch_with(&x, &labels, &mut opt, &mut ws))
    });
    group.finish();
}

/// One Adam step over the paper's fused network (twelve tensors), as the
/// fused local fit makes it: the seed's closure-borne indexed loop
/// (`naive::SeedAdam`) vs the zipped-slice kernel behind `Adam`. Both
/// sides see the same gradients and let their moments evolve, as in
/// training.
fn bench_optimizer_step(c: &mut Criterion) {
    let net = FusedNetwork::new(&FusedConfig::paper(DIMS[0], DIMS[4], 7));
    let grads: Vec<Matrix> = net
        .param_tensors()
        .iter()
        .map(|t| {
            Matrix::from_fn(t.rows(), t.cols(), |r, c| {
                ((r * 131 + c * 31) % 1000) as f32 / 5e4 - 0.01
            })
        })
        .collect();
    let sides: [(&str, Box<dyn Optimizer>); 2] = [
        ("seed_indexed", Box::new(naive::SeedAdam::new(STEP_LR))),
        ("kernel", Box::new(Adam::new(STEP_LR))),
    ];

    let mut group = c.benchmark_group("optimizer_step");
    for (name, mut opt) in sides {
        let mut model = net.clone();
        group.bench_function(name, |b| {
            b.iter(|| opt.step_stream(&mut model, black_box(&grads)))
        });
    }
    group.finish();
}

fn bench_federated_round(c: &mut Criterion) {
    // Paper Building 1 (203 APs, 60 RPs) with the full paper-sized model.
    let data = BuildingDataset::generate(Building::paper(1), &DatasetConfig::paper(), 1);
    // Short pretraining (setup cost only), the paper's client protocol for
    // the timed rounds (5 epochs at batch 16).
    let cfg = ServerConfig {
        local: LocalTrainConfig::paper(),
        ..ServerConfig::tiny()
    };
    let mut server = SequentialFlServer::new(
        &[
            data.building.num_aps(),
            128,
            89,
            62,
            data.building.num_rps(),
        ],
        Box::new(DefensePipeline::fedavg()),
        cfg,
    );
    server.pretrain(&data.server_train);

    let mut group = c.benchmark_group("federated_round");
    group.sample_size(10);
    let local = LocalTrainConfig::paper();
    group.bench_function("seed_serial_scalar", |b| {
        b.iter(|| {
            let mut gm = server.global_model().clone();
            let mut clients = Client::from_dataset(&data, 0);
            naive::seed_round(&mut gm, &mut clients, &local);
        })
    });
    group.bench_function("rebuilt_one_thread", |b| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        b.iter(|| {
            pool.install(|| {
                let mut s = server.clone();
                let mut clients = Client::from_dataset(&data, 0);
                let plan = RoundPlan::full(clients.len());
                s.run_round(&mut clients, &plan);
            })
        })
    });
    group.bench_function("rebuilt_parallel", |b| {
        b.iter(|| {
            let mut s = server.clone();
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            s.run_round(&mut clients, &plan);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_training_step,
    bench_optimizer_step,
    bench_federated_round
);
criterion_main!(benches);
