//! Table I: single-fingerprint inference per framework on paper building 1,
//! each benchmark id carrying the framework's parameter count. Latency is
//! architecture-bound, so untrained paper-shaped models time like
//! pretrained ones.
//!
//! Run with `cargo bench -p safeloc-bench --bench inference_latency`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_baselines::{fedcc, fedhil, fedloc, fedls, Onlad};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Framework, ServerConfig};
use safeloc_nn::Matrix;

fn data() -> BuildingDataset {
    BuildingDataset::generate(Building::paper(1), &DatasetConfig::paper(), 42)
}

fn frameworks(d: &BuildingDataset) -> Vec<Box<dyn Framework>> {
    let (aps, rps) = (d.building.num_aps(), d.building.num_rps());
    let cfg = ServerConfig::tiny();
    vec![
        Box::new(SafeLoc::new(aps, rps, SafeLocConfig::paper(cfg.seed))),
        Box::new(Onlad::new(aps, rps, cfg)),
        Box::new(fedls(aps, rps, cfg)),
        Box::new(fedcc(aps, rps, cfg)),
        Box::new(fedhil(aps, rps, cfg)),
        Box::new(fedloc(aps, rps, cfg)),
    ]
}

fn bench_inference(c: &mut Criterion) {
    let d = data();
    let sample = Matrix::from_rows(&[d.client_test[0].x.row(0).to_vec()]);
    let mut group = c.benchmark_group("table1_inference_latency");
    for f in frameworks(&d) {
        let id = BenchmarkId::new(f.name(), format!("params={}", f.num_params()));
        group.bench_with_input(id, &sample, |b, s| b.iter(|| f.predict(s)));
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
