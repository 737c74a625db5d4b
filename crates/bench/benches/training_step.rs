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

/// Learning rate of the *seed* sides' timed steps: zero. A step costs the
/// same at any rate, but at 1e-3 the one fixed batch is memorized within
/// ~800 steps, units die, and the first moments of their weights decay to
/// a few subnormal ulps where `0.9·m` rounds back to `m` — the seed loop
/// then crawls through denormal divides for good (×2.5–3 per training
/// step), so a reading would depend on how many steps the harness
/// happened to run.
/// Production `Adam` flushes those moments and steps at the paper's rate;
/// `optimizer_step/*_late` shows the stall and its absence side by side.
const STEP_LR: f32 = 0.0;

/// The paper's server-side rate, for the production sides and for
/// advancing both sides of the late-regime pair.
const PAPER_LR: f32 = 1e-3;

fn bench_training_step(c: &mut Criterion) {
    let (x, labels) = batch();
    let mut group = c.benchmark_group("training_step");

    let mut seed_model = Sequential::mlp(&DIMS, Activation::Relu, 7);
    let mut seed_opt = naive::SeedAdam::new(STEP_LR);
    group.bench_function("seed_alloc_per_op", |b| {
        b.iter(|| naive::train_step(&mut seed_model, &x, &labels, &mut seed_opt))
    });

    let mut model = Sequential::mlp(&DIMS, Activation::Relu, 7);
    let mut opt = Adam::new(PAPER_LR);
    let mut ws = Workspace::new();
    group.bench_function("workspace_blocked", |b| {
        b.iter(|| model.train_batch_with(&x, &labels, &mut opt, &mut ws))
    });
    group.finish();
}

/// Untimed steps both sides of the late-regime pair take first: a dead
/// weight's first moment needs ~850 steps of `×0.9` to fall from gradient
/// scale to under `MIN_POSITIVE`.
const LATE_WARMUP_STEPS: usize = 1500;

/// The step after which the dead share's gradient is exactly zero.
const UNITS_DIE_AT: usize = 50;

/// One Adam step over the paper's fused network (twelve tensors), as the
/// fused local fit makes it: the seed's closure-borne indexed loop
/// (`naive::SeedAdam`) vs the zipped-slice kernel behind `Adam`. Both
/// sides see the same gradients and let their moments evolve, as in
/// training.
///
/// The `*_late` pair is the same step deep into a long fit: a third of
/// the gradient (the fixture's fused pretraining ends with 36 % of its
/// first moments stuck) turned exactly zero at step 50, as a dead ReLU's
/// does, and both optimizers then took 1 450 more untimed steps at 1e-3.
/// The seed loop's moments there are stuck in subnormals and every one
/// of them costs it ~140 ns of microcode assists per step (≈ 3.5 ms
/// against ≈ 0.28 ms early); the kernel flushed them and runs flat.
fn bench_optimizer_step(c: &mut Criterion) {
    let net = FusedNetwork::new(&FusedConfig::paper(DIMS[0], DIMS[4], 7));
    let gradients = |dead_share_is_zero: bool| -> Vec<Matrix> {
        net.param_tensors()
            .iter()
            .map(|t| {
                Matrix::from_fn(t.rows(), t.cols(), |r, c| {
                    if dead_share_is_zero && (r + c).is_multiple_of(3) {
                        0.0
                    } else {
                        ((r * 131 + c * 31) % 1000) as f32 / 5e4 - 0.01
                    }
                })
            })
            .collect()
    };
    let (grads, late_grads) = (gradients(false), gradients(true));
    let sides: [(&str, Box<dyn Optimizer>, bool); 4] = [
        (
            "seed_indexed",
            Box::new(naive::SeedAdam::new(STEP_LR)),
            false,
        ),
        ("kernel", Box::new(Adam::new(PAPER_LR)), false),
        (
            "seed_indexed_late",
            Box::new(naive::SeedAdam::new(PAPER_LR)),
            true,
        ),
        ("kernel_late", Box::new(Adam::new(PAPER_LR)), true),
    ];

    let mut group = c.benchmark_group("optimizer_step");
    for (name, mut opt, late) in sides {
        let mut model = net.clone();
        if late {
            for step in 0..LATE_WARMUP_STEPS {
                let grads = if step < UNITS_DIE_AT {
                    &grads
                } else {
                    &late_grads
                };
                opt.step_stream(&mut model, grads);
            }
        }
        let grads = if late { &late_grads } else { &grads };
        group.bench_function(name, |b| {
            b.iter(|| opt.step_stream(&mut model, black_box(grads)))
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
        DefensePipeline::fedavg(),
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
