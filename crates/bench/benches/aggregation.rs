//! Server-side aggregation cost per strategy (supports Table I's overhead
//! comparison: SAFELOC's saliency map vs. the baselines' rules), plus the
//! city-scale screening round `benchmark/`'s `round_screen` times end to
//! end, here without the frame decode around it, the screening
//! operations over dense rows vs over supports at five upload densities
//! (`screening_sparse`), and the telemetry recording A/B
//! (`telemetry_on_off`).
//!
//! Run with `cargo bench -p safeloc-bench --bench aggregation`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc::SaliencyAggregator;
use safeloc_bench::naive;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::defense::{
    sampled_delta_block, Combiner, DistanceMatrix, NonFiniteGuard, NormClip, RoundContext,
    TrimmedMean, Verdicts,
};
use safeloc_fl::{
    Aggregator, ClientUpdate, ClusterAggregator, DefensePipeline, Krum, LatentFilterAggregator,
};
use safeloc_nn::{kernels, Activation, HasParams, Matrix, NamedParams, Sequential};
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
    let mut strategies: Vec<DefensePipeline> = vec![
        DefensePipeline::fedavg(),
        DefensePipeline::krum(1),
        DefensePipeline::selective(0.5),
        DefensePipeline::cluster(0.15),
        DefensePipeline::latent(0),
        SaliencyAggregator::default().into_pipeline(),
    ];
    for strategy in &mut strategies {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
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

/// One 2-means pass over `n` rows read through `dot` and `add_scaled`:
/// every row assigned to the nearer of two centroids, both centroids
/// re-averaged from their members.
fn two_means_pass(
    n: usize,
    centroids: &mut [Vec<f32>; 2],
    dot: impl Fn(usize, &[f32]) -> f32,
    add_scaled: impl Fn(usize, &mut [f32], f32),
) {
    let sides: Vec<usize> = (0..n)
        .map(|i| usize::from(dot(i, &centroids[0]) < dot(i, &centroids[1])))
        .collect();
    for (side, centroid) in centroids.iter_mut().enumerate() {
        let members = sides.iter().filter(|&&s| s == side).count().max(1);
        centroid.fill(0.0);
        for i in (0..n).filter(|&i| sides[i] == side) {
            add_scaled(i, centroid, 1.0 / members as f32);
        }
        black_box(kernels::sum_squares(centroid));
    }
}

/// The six things a screening round does with its `n × d` deltas — norms,
/// a 2-means pass, the latent projection, the sampled block and its cosine
/// matrix, the trimmed mean — over dense rows (`dense/*`: the kernels, the
/// in-place sample and the gather-and-sort combiner every round ran before
/// rows could be stored as supports) and over supports (`view/*`: the
/// support kernels, and the sample and the combiner through a
/// `RoundContext`), at 256 × 46 953 and five upload densities. Read each
/// `view` line against the `dense` line above it; where the two curves
/// cross is the density past which `RoundContext` stores a row dense
/// (`SUPPORT_MAX_DENSITY_INV` in `fl/src/defense/rows.rs`). The support
/// kernels are driven directly, so their lines run past that threshold;
/// the sampled block and the trimmed mean go through the context, so from
/// 25 % up their `view` lines *are* the dense arm and show what a dense
/// round pays for having been looked at.
fn bench_screening_sparse(c: &mut Criterion) {
    const N: usize = 256;
    let global = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 0).snapshot();
    let d = global.num_params();
    let projection = Matrix::from_fn(d, 32, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5);
    let mut group = c.benchmark_group("screening_sparse");
    group.sample_size(10);
    for (label, density) in [
        ("1%", 0.01),
        ("5%", 0.05),
        ("12.5%", 0.125),
        ("25%", 0.25),
        ("100%", 1.0),
    ] {
        let mut rng = StdRng::seed_from_u64(0x5BA125E);
        // Exactly `⌊density · d⌋` coordinates per row (selection sampling),
        // so the 12.5 % rows sit *at* the context's threshold, not astride it.
        let support_len = (density * d as f64) as usize;
        let supports: Vec<(Vec<u32>, Vec<f32>)> = (0..N)
            .map(|_| {
                let mut wanted = support_len;
                (0..d)
                    .filter_map(|e| {
                        let value = rng.gen_range(-0.05f32..0.05);
                        let pick = rng.gen_range(0..d - e) < wanted;
                        wanted -= usize::from(pick);
                        pick.then_some((e as u32, value))
                    })
                    .unzip()
            })
            .collect();
        let mut block = Matrix::zeros(N, d);
        for (i, (indices, values)) in supports.iter().enumerate() {
            for (&e, &v) in indices.iter().zip(values) {
                block.row_mut(i)[e as usize] = v;
            }
        }
        let both = |op: &str| [format!("dense/{op}/{label}"), format!("view/{op}/{label}")];

        let [dense, view] = both("norms");
        group.bench_function(dense, |b| {
            b.iter(|| block.iter_rows().map(kernels::sum_squares).sum::<f32>())
        });
        group.bench_function(view, |b| {
            b.iter(|| {
                (supports.iter())
                    .map(|(indices, values)| kernels::support_sum_squares(indices, values))
                    .sum::<f32>()
            })
        });

        let [dense, view] = both("two_means_pass");
        let mut centroids = [block.row(0).to_vec(), block.row(3).to_vec()];
        group.bench_function(dense, |b| {
            b.iter(|| {
                two_means_pass(
                    N,
                    &mut centroids,
                    |i, c| kernels::dot(block.row(i), c),
                    |i, c, w| {
                        c.iter_mut()
                            .zip(block.row(i))
                            .for_each(|(c, v)| *c += w * v)
                    },
                )
            })
        });
        let mut centroids = [block.row(0).to_vec(), block.row(3).to_vec()];
        group.bench_function(view, |b| {
            b.iter(|| {
                two_means_pass(
                    N,
                    &mut centroids,
                    |i, c| kernels::support_dot(&supports[i].0, &supports[i].1, c),
                    |i, c, w| kernels::support_axpy(c, w, &supports[i].0, &supports[i].1),
                )
            })
        });

        let [dense, view] = both("projection");
        group.bench_function(dense, |b| b.iter(|| block.matmul(&projection)));
        let rows: Vec<(&[u32], &[f32])> = (supports.iter())
            .map(|(indices, values)| (indices.as_slice(), values.as_slice()))
            .collect();
        let mut features = vec![0.0f32; N * projection.cols()];
        group.bench_function(view, |b| {
            b.iter(|| {
                kernels::support_matmul_into(
                    &mut features,
                    &rows,
                    projection.as_slice(),
                    d,
                    projection.cols(),
                )
            })
        });

        let updates: Vec<ClientUpdate> = (0..N)
            .map(|i| {
                let mut lm = global.clone();
                lm.add_flat(block.row(i));
                ClientUpdate::new(i, lm, 100)
            })
            .collect();
        drop(block);
        let refs: Vec<&ClientUpdate> = updates.iter().collect();
        let ctx = RoundContext::new(&global, &refs);
        // Discovered outside the clock, as stage zero leaves it to every
        // stage after it.
        ctx.delta_rows();

        // The `n × 2 048` sampled block: every row's picks subtracted in
        // place, against rows filled from the view's supports.
        let [dense, view] = both("sampled_block");
        let mut buffer = Vec::new();
        for (name, rows) in [(dense, None), (view, Some(ctx.delta_rows()))] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    let recycled = std::mem::take(&mut buffer);
                    buffer = sampled_delta_block(&global, &refs, rows, recycled).into_vec();
                })
            });
        }

        // Its cosine matrix: 32 640 dense dots, against dots gathered
        // through the shorter support of each pair. Where the `view` line
        // stops winning is `SUPPORT_DOT_MAX_DENSITY_INV` in
        // `fl/src/defense/distance.rs`, past which it *is* the dense dot.
        let [dense, view] = both("cosine_sampled");
        let sampled = sampled_delta_block(&global, &refs, None, buffer);
        let mut triangle = Vec::new();
        group.bench_function(dense, |b| {
            b.iter(|| {
                let recycled = std::mem::take(&mut triangle);
                triangle = DistanceMatrix::cosine_into(&sampled, recycled).into_values();
            })
        });
        group.bench_function(view, |b| {
            b.iter(|| {
                let recycled = std::mem::take(&mut triangle);
                triangle =
                    DistanceMatrix::cosine_over_supports_into(&sampled, recycled).into_values();
            })
        });

        let [dense, view] = both("trimmed_mean");
        let mut trim = TrimmedMean::new(0.1);
        group.bench_function(dense, |b| {
            b.iter(|| naive::trimmed_mean(&updates, (0.1 * N as f32) as usize))
        });
        group.bench_function(view, |b| {
            b.iter(|| trim.combine(&ctx, &mut Verdicts::new(N)))
        });
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
    bench_screening_sparse,
    bench_telemetry_on_off
);
criterion_main!(benches);
