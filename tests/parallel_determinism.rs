//! The parallel federated round must be an optimization, not a semantics
//! change: for a fixed seed, every framework's post-round global model is
//! bitwise identical regardless of how many threads the fleet trains on —
//! and the same holds for the round-lifecycle layer: a seeded
//! `CohortSampler` draws identical cohorts and an `FlSession` produces
//! identical reports and GMs for any thread count.
//!
//! This holds by construction — clients draw from per-client seed streams,
//! the parallel map preserves client order, and plans are drawn from a
//! dedicated `(seed, round)` RNG stream — and this suite pins it.

use rayon::ThreadPoolBuilder;
use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Aggregator, Client, ClientUpdate, CohortSampler, DefensePipeline, DeltaCompressor, DeltaSpec,
    FlSession, Framework, RoundPlan, RoundReport, SequentialFlServer, ServerConfig,
};
use safeloc_nn::{HasParams, NamedParams};

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 4)
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

#[test]
fn sequential_server_round_is_bitwise_deterministic_across_thread_counts() {
    let data = dataset();
    let run = |threads: usize| -> NamedParams {
        with_threads(threads, || {
            let mut s = SequentialFlServer::new(
                &[data.building.num_aps(), 16, data.building.num_rps()],
                safeloc_fl::DefensePipeline::fedavg(),
                ServerConfig::tiny(),
            );
            s.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            for _ in 0..2 {
                s.run_round(&mut clients, &plan);
            }
            s.global_model().snapshot()
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "1 vs 2 threads diverged");
    assert_eq!(serial, run(5), "1 vs 5 threads diverged");
}

#[test]
fn safeloc_round_is_bitwise_deterministic_across_thread_counts() {
    let data = dataset();
    let run = |threads: usize| -> NamedParams {
        with_threads(threads, || {
            let mut f = SafeLoc::new(
                data.building.num_aps(),
                data.building.num_rps(),
                SafeLocConfig::tiny(),
            );
            f.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            f.network().snapshot()
        })
    };
    let serial = run(1);
    assert_eq!(
        serial,
        run(3),
        "SAFELOC round diverged across thread counts"
    );
}

#[test]
fn krum_with_shared_distance_matrix_is_thread_count_invariant() {
    // Synthetic updates with a known consensus cluster and one outlier.
    let dims = 40;
    let gm: NamedParams = NamedParams::new(vec![("w".into(), safeloc_nn::Matrix::zeros(1, dims))]);
    let updates: Vec<ClientUpdate> = (0..8)
        .map(|i| {
            let v: Vec<f32> = (0..dims)
                .map(|c| {
                    if i == 7 {
                        50.0 + c as f32
                    } else {
                        1.0 + (i * dims + c) as f32 * 1e-3
                    }
                })
                .collect();
            ClientUpdate::new(
                i,
                NamedParams::new(vec![(
                    "w".into(),
                    safeloc_nn::Matrix::from_vec(1, dims, v).unwrap(),
                )]),
                5,
            )
        })
        .collect();
    let run = |threads: usize| -> NamedParams {
        with_threads(threads, || {
            DefensePipeline::krum(1).aggregate(&gm, &updates).params
        })
    };
    let serial = run(1);
    assert_eq!(
        serial,
        run(4),
        "Krum selection diverged across thread counts"
    );
    // And it still rejects the outlier.
    let w = serial.get("w").unwrap().get(0, 0);
    assert!(w < 10.0, "Krum picked the outlier: {w}");
}

#[test]
fn batch_prediction_is_identical_across_thread_counts() {
    let data = dataset();
    let model = safeloc_nn::Sequential::mlp(
        &[data.building.num_aps(), 24, data.building.num_rps()],
        safeloc_nn::Activation::Relu,
        3,
    );
    // Enough rows to trigger the parallel row-chunk path.
    let mut rows = Vec::new();
    for _ in 0..6 {
        rows.extend(data.server_train.x.iter_rows().map(|r| r.to_vec()));
    }
    let x = safeloc_nn::Matrix::from_rows(&rows);
    let serial = with_threads(1, || model.predict(&x));
    let parallel = with_threads(4, || model.predict(&x));
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), x.rows());
}

#[test]
fn cohort_sampling_is_seed_deterministic_across_thread_counts() {
    let sampler = CohortSampler::uniform(3, 21)
        .with_dropout(0.2)
        .with_straggle(0.2);
    let draw = |threads: usize| -> Vec<RoundPlan> {
        with_threads(threads, || (0..10).map(|r| sampler.plan(r, 8)).collect())
    };
    let serial = draw(1);
    assert_eq!(serial, draw(4), "plan stream diverged across thread counts");
    // The same seed re-queried out of order still reproduces.
    assert_eq!(serial[7], sampler.plan(7, 8));
}

#[test]
fn compressed_rounds_are_bitwise_deterministic_across_thread_counts() {
    // Error-feedback compression must not perturb determinism: a fleet
    // where every client ships top-k deltas (and one ships q8) produces a
    // bitwise-identical GM and outcome trail on any thread count. The
    // compressors are stateful — residuals accumulate round to round — so
    // this also pins that residual state evolves identically under the
    // parallel client map.
    let data = dataset();
    let run = |threads: usize| -> (NamedParams, Vec<RoundReport>) {
        with_threads(threads, || {
            let mut s = SequentialFlServer::new(
                &[data.building.num_aps(), 16, data.building.num_rps()],
                safeloc_fl::DefensePipeline::fedavg(),
                ServerConfig::tiny(),
            );
            s.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            for client in &mut clients {
                client.compressor = Some(DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.1 }));
            }
            clients[1].compressor = Some(DeltaCompressor::new(DeltaSpec::QuantizedI8));
            let mut session = FlSession::builder(Box::new(s))
                .clients(clients)
                .sampler(CohortSampler::uniform(3, 13))
                .build();
            session.run(3);
            let (framework, reports) = session.into_parts();
            (framework.global_params(), reports)
        })
    };
    let (gm_serial, reports_serial) = run(1);
    let (gm_parallel, reports_parallel) = run(4);
    assert_eq!(gm_serial, gm_parallel, "compressed session GM diverged");
    let outcomes = |reports: &[RoundReport]| -> Vec<_> {
        reports
            .iter()
            .map(|r| r.clients.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        outcomes(&reports_serial),
        outcomes(&reports_parallel),
        "compressed per-client outcomes diverged across thread counts"
    );
}

#[test]
fn subsampled_session_is_bitwise_deterministic_across_thread_counts() {
    // A churny session — uniform-3 cohorts with dropouts and stragglers —
    // must produce identical cohorts, identical per-client outcomes and a
    // bitwise-identical GM on any thread count.
    let data = dataset();
    let run = |threads: usize| -> (NamedParams, Vec<RoundReport>) {
        with_threads(threads, || {
            let mut s = SequentialFlServer::new(
                &[data.building.num_aps(), 16, data.building.num_rps()],
                safeloc_fl::DefensePipeline::fedavg(),
                ServerConfig::tiny(),
            );
            s.pretrain(&data.server_train);
            let mut session = FlSession::builder(Box::new(s))
                .clients(Client::from_dataset(&data, 0))
                .sampler(
                    CohortSampler::uniform(3, 13)
                        .with_dropout(0.25)
                        .with_straggle(0.25),
                )
                .build();
            session.run(3);
            let (framework, reports) = session.into_parts();
            (framework.global_params(), reports)
        })
    };
    let (gm_serial, reports_serial) = run(1);
    let (gm_parallel, reports_parallel) = run(4);
    assert_eq!(gm_serial, gm_parallel, "subsampled session GM diverged");
    // Timings differ run to run; the client outcome trail must not.
    let outcomes = |reports: &[RoundReport]| -> Vec<_> {
        reports
            .iter()
            .map(|r| r.clients.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        outcomes(&reports_serial),
        outcomes(&reports_parallel),
        "per-client outcomes diverged across thread counts"
    );
}

#[test]
fn sparse_cohort_screening_is_bitwise_deterministic_across_thread_counts() {
    // A city-scale round in miniature: 80 `TopK{0.05}` uploads (above the
    // exact-screening threshold) with every tenth a ×10-boosted outlier,
    // through the layered screening pipeline. The delta view discovers
    // each row's support in parallel, the distance triangles and the
    // trimmed mean fan out over threads — decisions, scores and GM must
    // not depend on how many.
    use safeloc_fl::defense::{NonFiniteGuard, NormClip, TrimmedMean};
    use safeloc_fl::{ClusterAggregator, LatentFilterAggregator};
    use safeloc_nn::Matrix;

    let wave = |salt: usize, scale: f32| -> NamedParams {
        let tensor = |rows: usize, cols: usize, salt: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                scale * ((r * 131 + c * 17 + salt * 7919) as f32 * 0.618).sin()
            })
        };
        NamedParams::new(vec![
            ("w".into(), tensor(60, 50, salt)),
            ("b".into(), tensor(1, 50, salt + 1)),
        ])
    };
    let gm = wave(0, 0.5);
    let honest = wave(1, 0.05);
    let updates: Vec<ClientUpdate> = (0..80)
        .map(|i| {
            let mut delta = wave(2 + i, 0.02);
            delta.axpy(1.0, &honest);
            let boost = if i % 10 == 3 { -10.0 } else { 1.0 };
            let flat = delta.scale(boost).flatten().into_vec();
            let (repr, decoded) =
                DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.05 }).compress(&flat);
            let mut lm = gm.clone();
            lm.add_flat(&decoded);
            ClientUpdate::with_repr(i, lm, 10, repr)
        })
        .collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut pipeline = DefensePipeline::new(
                "screen",
                vec![
                    Box::new(NonFiniteGuard),
                    Box::new(NormClip::default()),
                    Box::new(ClusterAggregator::default()),
                    Box::new(LatentFilterAggregator::new(9)),
                ],
                Box::new(TrimmedMean::new(0.1)),
            );
            // Twice: the second round runs on recycled buffers.
            (0..2)
                .map(|_| pipeline.aggregate(&gm, &updates))
                .collect::<Vec<_>>()
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "sparse screening diverged at 4 threads");
    assert!(
        (3..80)
            .step_by(10)
            .all(|i| !serial[0].decisions[i].is_accepted()),
        "a boosted outlier was not screened out: {:?}",
        serial[0].decisions
    );
    assert!(serial[0].accepted() > 40, "the screen rejected the cohort");
}
