//! Micro-probes: one public call timed in isolation, after the windows of
//! a traced run. A span says what an op spent in a layer *in situ*; a probe
//! says what the layer's building block costs by itself, which is the
//! number a kernel-level optimisation moves first.

use crate::sys::{median, SplitMix};
use crate::workloads::Layers;
use safeloc_nn::kernels::{matmul_into, transposed_matmul_into};
use safeloc_nn::{Activation, HasParams, Matrix, Sequential};
use std::hint::black_box;
use std::time::Instant;

/// Median time of one call of `f`, microseconds, over `reps` timed batches
/// of `batch` calls (a batch keeps the stopwatch's own ~25 ns out of
/// sub-microsecond calls).
pub fn median_us(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f(); // warm caches and lazily sized scratch buffers
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&mut samples)
}

fn unit_matrix(rows: usize, cols: usize, rng: &mut SplitMix) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    })
}

/// Kernel and forward-pass probes on the paper-sized classifier. Weights
/// are untrained: the kernels' cost does not depend on the values.
pub fn nn_probes(dims: &[usize], layers: &mut Layers) {
    let mut rng = SplitMix::new(0x000B_E7C4);
    let model = Sequential::mlp(dims, Activation::Relu, 1);
    let x1 = unit_matrix(1, dims[0], &mut rng);
    let x32 = unit_matrix(32, dims[0], &mut rng);
    layers.insert(
        "nn.predict_b1_us",
        median_us(200, 16, || {
            black_box(model.predict(black_box(&x1)));
        }),
    );
    layers.insert(
        "nn.predict_b32_us",
        median_us(200, 4, || {
            black_box(model.predict(black_box(&x32)));
        }),
    );

    // The first (largest) layer: forward 32x203 . 203x128, and the weight
    // gradient (32x203)^T . 32x128 the backward pass computes from it.
    let (m, k, n) = (32, dims[0], dims[1]);
    let w = unit_matrix(k, n, &mut rng);
    let mut out = vec![0.0f32; m * n];
    layers.insert(
        "nn.matmul_l1_us",
        median_us(200, 8, || {
            matmul_into(black_box(&mut out), x32.as_slice(), w.as_slice(), m, k, n);
        }),
    );
    let grad = unit_matrix(m, n, &mut rng);
    let mut dw = vec![0.0f32; k * n];
    layers.insert(
        "nn.tmatmul_l1_us",
        median_us(200, 8, || {
            transposed_matmul_into(black_box(&mut dw), x32.as_slice(), grad.as_slice(), m, k, n);
        }),
    );

    layers.insert("nn.model_params", model.num_params() as f64);
    // Computed from the layer widths, not measured: 2 flops per weight per
    // row, batch 32.
    let weights: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
    layers.insert("nn.predict_b32_mflop", 2.0 * 32.0 * weights as f64 / 1e6);
}
