//! Blocked kernels vs the preserved seed scalar kernels, on the paper's
//! layer shapes (203→128→89→62→60 at batch 32), every product of one fused
//! SAFELOC training step on its own line, and the fixed-lane reduction
//! kernels at the screening path's two row widths.
//!
//! Run with `cargo bench -p safeloc-bench --bench matmul`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use safeloc_bench::naive;
use safeloc_nn::{kernels, Matrix};

const BATCH: usize = 32;
const DIMS: [usize; 5] = [203, 128, 89, 62, 60];

fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 131 + c * 31) as u64 ^ salt) % 1000) as f32 / 500.0 - 1.0
    })
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for w in DIMS.windows(2) {
        let (k, n) = (w[0], w[1]);
        let a = fill(BATCH, k, 1);
        let b = fill(k, n, 2);
        let shape = format!("{BATCH}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("seed_scalar", &shape), &(), |bench, _| {
            bench.iter(|| naive::matmul(&a, &b))
        });
        let mut out = Matrix::zeros(BATCH, n);
        group.bench_with_input(BenchmarkId::new("blocked_into", &shape), &(), |bench, _| {
            bench.iter(|| a.matmul_into(&b, &mut out))
        });
    }
    group.finish();
}

fn bench_transposed_kernels(c: &mut Criterion) {
    let (k, n) = (DIMS[0], DIMS[1]);
    let grad = fill(BATCH, n, 3);
    let w = fill(k, n, 4);
    let x = fill(BATCH, k, 5);

    let mut group = c.benchmark_group("matmul_transposed");
    group.bench_function("seed_scalar", |b| {
        b.iter(|| naive::matmul_transposed(&grad, &w))
    });
    let mut out = Matrix::zeros(0, 0);
    group.bench_function("blocked_into", |b| {
        b.iter(|| grad.matmul_transposed_into(&w, &mut out))
    });
    group.finish();

    let mut group = c.benchmark_group("transposed_matmul");
    group.bench_function("seed_scalar", |b| {
        b.iter(|| naive::transposed_matmul(&x, &grad))
    });
    let mut out = Matrix::zeros(0, 0);
    group.bench_function("blocked_into", |b| {
        b.iter(|| x.transposed_matmul_into(&grad, &mut out))
    });
    group.finish();
}

/// The fused network's six layers as `(name, in, out)`: encoder
/// 203→128→89→62, decoder 62→89→203, classifier head 62→60.
const FUSED_LAYERS: [(&str, usize, usize); 6] = [
    ("enc0", 203, 128),
    ("enc1", 128, 89),
    ("enc2", 89, 62),
    ("dec0", 62, 89),
    ("dec1", 89, 203),
    ("cls", 62, 60),
];

/// One line per batch-32 product of a fused training step, through the
/// `Matrix` methods the step calls: forward `x·W`, `dW = xᵀ·g` and
/// `dX = g·Wᵀ`. `enc0` and `dec0` have no `dX` line because the step skips
/// it there (the input gradient and the detached decoder's bottleneck
/// gradient are discarded).
fn bench_fused_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_step");
    for (salt, &(name, k, n)) in (10..).zip(FUSED_LAYERS.iter()) {
        let x = fill(BATCH, k, salt);
        let w = fill(k, n, salt + 100);
        let g = fill(BATCH, n, salt + 200);
        let layer = format!("{name}_{k}x{n}");
        let mut out = Matrix::zeros(0, 0);
        group.bench_function(format!("{layer}/forward"), |b| {
            b.iter(|| x.matmul_into(&w, &mut out))
        });
        group.bench_function(format!("{layer}/dW"), |b| {
            b.iter(|| x.transposed_matmul_into(&g, &mut out))
        });
        if name != "enc0" && name != "dec0" {
            group.bench_function(format!("{layer}/dX"), |b| {
                b.iter(|| g.matmul_transposed_into(&w, &mut out))
            });
        }
    }
    group.finish();
}

/// The screening path's `O(d)` reductions at its two row widths: the
/// sampled block's `d′ = 2048` (L1-resident pairs, compute-bound) and the
/// paper model's full `d = 46 953` delta row (streamed, memory-bound).
fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("reductions");
    for d in [2048, 46_953] {
        let (a, b) = (fill(1, d, 6), fill(1, d, 7));
        let (a, b) = (a.as_slice(), b.as_slice());
        group.bench_function(format!("dot/{d}"), |bench| {
            bench.iter(|| kernels::dot(black_box(a), black_box(b)))
        });
        group.bench_function(format!("sum_squares/{d}"), |bench| {
            bench.iter(|| kernels::sum_squares(black_box(a)))
        });
        group.bench_function(format!("squared_distance/{d}"), |bench| {
            bench.iter(|| kernels::squared_distance(black_box(a), black_box(b)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_transposed_kernels,
    bench_fused_step,
    bench_reductions
);
criterion_main!(benches);
