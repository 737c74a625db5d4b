//! Server-side aggregation cost per strategy (supports Table I's overhead
//! comparison: SAFELOC's saliency map vs. the baselines' rules), plus the
//! city-scale screening round `benchmark/`'s `round_screen` times end to
//! end, here without the frame decode around it, and the telemetry
//! recording A/B (`telemetry_on_off`).
//!
//! Run with `cargo bench -p safeloc-bench --bench aggregation`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc::SaliencyAggregator;
use safeloc_bench::naive;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::defense::{NonFiniteGuard, NormClip, TrimmedMean};
use safeloc_fl::{
    Aggregator, ClientUpdate, ClusterAggregator, DefensePipeline, Krum, LatentFilterAggregator,
};
use safeloc_nn::{Activation, HasParams, NamedParams, Sequential};
use safeloc_serve::{request_pool, ModelKey, ModelRegistry, ServeConfig, Service};
use std::sync::Arc;

fn updates(n_clients: usize) -> (NamedParams, Vec<ClientUpdate>) {
    // Realistically sized model: the paper's fused architecture for B1.
    let gm = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 0);
    let global = gm.snapshot();
    let updates = (0..n_clients)
        .map(|i| {
            let perturbed = global.scale(1.0 + 0.01 * (i as f32 + 1.0));
            ClientUpdate::new(i, perturbed, 100)
        })
        .collect();
    (global, updates)
}

fn bench_aggregation(c: &mut Criterion) {
    let (global, ups) = updates(6);
    let mut group = c.benchmark_group("aggregation_strategies");
    let mut strategies: Vec<Box<dyn Aggregator>> = vec![
        Box::new(DefensePipeline::fedavg()),
        Box::new(DefensePipeline::krum(1)),
        Box::new(DefensePipeline::selective(0.5)),
        Box::new(DefensePipeline::cluster(0.15)),
        Box::new(DefensePipeline::latent(0)),
        Box::new(SaliencyAggregator::default().into_pipeline()),
    ];
    for strategy in &mut strategies {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name()),
            &(&global, &ups),
            |b, (g, u)| b.iter(|| strategy.aggregate(g, u)),
        );
    }
    // The seed's O(n³·d) Krum, the baseline the shared-matrix rule replaced.
    group.bench_function("Krum (seed)", |b| b.iter(|| naive::krum_select(&ups, 1)));
    group.finish();
}

/// `round_screen`'s cohort shape over the paper-sized model: 256 updates
/// around one honest direction, every tenth a ×10-boosted outlier pointing
/// the other way — above `EXACT_SCREEN_MAX`, so the sampled-distance
/// context, the recycled delta block and the block projection are what is
/// timed.
fn attacked_cohort(n_clients: usize) -> (NamedParams, Vec<ClientUpdate>) {
    let global = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 0).snapshot();
    let mut rng = StdRng::seed_from_u64(0x5C12EE);
    let mut like_global = |scale: f32| {
        let mut p = global.clone();
        for (_, t) in p.iter_mut() {
            t.as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = rng.gen_range(-scale..scale));
        }
        p
    };
    let honest = like_global(0.05);
    let updates = (0..n_clients)
        .map(|i| {
            let mut delta = like_global(0.02);
            delta.axpy(1.0, &honest);
            let mut lm = global.clone();
            lm.axpy(if i % 10 == 3 { -10.0 } else { 1.0 }, &delta);
            ClientUpdate::new(i, lm, 100)
        })
        .collect();
    (global, updates)
}

fn bench_screening_256(c: &mut Criterion) {
    let (global, ups) = attacked_cohort(256);
    let mut group = c.benchmark_group("screening_256");
    group.sample_size(10);
    let mut pipelines = [
        DefensePipeline::new(
            "non-finite+norm-clip+cluster+latent+trimmed-mean",
            vec![
                Box::new(NonFiniteGuard),
                Box::new(NormClip::default()),
                Box::new(ClusterAggregator::default()),
                Box::new(LatentFilterAggregator::new(0)),
            ],
            Box::new(TrimmedMean::new(0.1)),
        ),
        // Every boosted update is clipped, so Krum ranks clip-scaled
        // distances — on the sampled block at this size.
        DefensePipeline::new(
            "norm-clip+krum",
            vec![Box::new(NormClip::default())],
            Box::new(Krum::new(26)),
        ),
    ];
    for pipeline in &mut pipelines {
        // Warm: the first round sizes the recycled buffers (and seeds the
        // latent stage's benign history), as every round but a server's
        // first finds them.
        pipeline.aggregate(&global, &ups);
        let label = pipeline.label().to_string();
        group.bench_function(label, |b| b.iter(|| pipeline.aggregate(&global, &ups)));
    }
    group.finish();
}

/// Recording on vs off on the two instrumented hot paths: one served
/// batch (admission → queue → predict → reply for `max_batch` tickets) and
/// one layered aggregation. `benchmark/` always records, so its gate
/// already sees instrumentation that leaks into a hot path; this is the
/// explicit A/B. Read each `on` line against the `off` line under it.
fn bench_telemetry_on_off(c: &mut Criterion) {
    let data = BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(
        ModelKey::default_for(data.building.id),
        Sequential::mlp(
            &[data.building.num_aps(), 128, 89, data.building.num_rps()],
            Activation::Relu,
            0,
        ),
        Some(data.building.clone()),
    );
    let config = ServeConfig::default();
    let service = Service::start(registry, DeviceCatalog::new(data.devices.clone()), config);
    let pool = request_pool(&data);
    let (global, ups) = updates(6);
    let mut pipeline = DefensePipeline::new(
        "norm-clip+krum",
        vec![Box::new(NormClip::default())],
        Box::new(Krum::new(1)),
    );

    let mut group = c.benchmark_group("telemetry_on_off");
    for (on, label) in [(true, "on"), (false, "off")] {
        safeloc_telemetry::set_enabled(on);
        group.bench_function(format!("served_batch/{label}"), |b| {
            b.iter(|| {
                let tickets: Vec<_> = pool
                    .iter()
                    .cycle()
                    .take(config.max_batch)
                    .map(|request| service.submit(request).expect("admitted"))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("served");
                }
            })
        });
    }
    for (on, label) in [(true, "on"), (false, "off")] {
        safeloc_telemetry::set_enabled(on);
        group.bench_function(format!("aggregate/{label}"), |b| {
            b.iter(|| pipeline.aggregate(&global, &ups))
        });
    }
    safeloc_telemetry::set_enabled(true);
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_screening_256,
    bench_telemetry_on_off
);
criterion_main!(benches);
