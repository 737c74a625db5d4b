//! The fused network's workspace training path carries the same headline
//! guarantee as `safeloc-nn`'s: after one warmup step, a full joint
//! (CE + MSE) forward+backward+optimizer step performs **zero heap
//! allocations** — and computes exactly what the allocating path computes.

use safeloc::{FusedConfig, FusedNetwork, FusedWorkspace};
use safeloc_nn::{Adam, HasParams, Matrix, MseLoss, Optimizer, SparseCrossEntropyLoss};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Counted per thread: the harness runs this file's tests on parallel
    /// threads, and a process-wide count charges one test with another's
    /// allocations (the three tests failed at random on a 2-core box).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // try_with: the allocator is still called while a thread tears down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The paper's fused geometry for Building 1 (203 APs, 60 RPs).
fn paper_network(seed: u64) -> FusedNetwork {
    FusedNetwork::new(&FusedConfig::paper(203, 60, seed))
}

fn paper_batch(net: &FusedNetwork, batch: usize) -> (Matrix, Vec<usize>) {
    let x = Matrix::from_fn(batch, net.input_dim(), |r, c| {
        ((r * 31 + c * 7) % 100) as f32 / 100.0
    });
    let labels: Vec<usize> = (0..batch).map(|r| r % net.n_classes()).collect();
    (x, labels)
}

#[test]
fn fused_step_is_allocation_free_after_warmup() {
    let mut net = paper_network(7);
    let (x, labels) = paper_batch(&net, 32);
    let mut opt = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();

    // Warmup: shapes the trace/gradient buffers and the Adam moments.
    for _ in 0..2 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, true, 1.0, &mut ws);
    }

    let before = allocations();
    for _ in 0..5 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, true, 1.0, &mut ws);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm fused training step allocated {} times",
        after - before
    );
}

#[test]
fn fused_step_is_allocation_free_in_joint_decoder_mode_too() {
    // detach_decoder = false exercises the extra bottleneck-combination
    // branch and the decoder's layer-0 input gradient.
    let mut net = paper_network(9);
    let (x, labels) = paper_batch(&net, 16);
    let mut opt = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();
    for _ in 0..2 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, false, 0.5, &mut ws);
    }
    let before = allocations();
    for _ in 0..5 {
        net.train_batch_weighted_with(&x, &labels, &mut opt, false, 0.5, &mut ws);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm joint-decoder step allocated {} times",
        after - before
    );
}

/// The workspace path must compute exactly the same update as the
/// allocating forward/backward path — buffer reuse is an optimization,
/// not a semantics change.
#[test]
fn fused_workspace_path_matches_allocating_path_bitwise() {
    let mut a = FusedNetwork::new(&FusedConfig {
        input_dim: 20,
        encoder_dims: vec![16, 8],
        decoder_hidden: vec![16],
        n_classes: 5,
        seed: 11,
    });
    let mut b = a.clone();
    let (x, labels) = paper_batch(&a, 8);

    let mut opt_a = Adam::new(1e-3);
    let mut opt_b = Adam::new(1e-3);
    let mut ws = FusedWorkspace::new();

    for detach in [true, false] {
        for _ in 0..3 {
            // Allocating reference: the pre-workspace step, spelled out.
            let trace = a.forward_trace(&x);
            let ce_a = SparseCrossEntropyLoss.loss(&trace.logits, &labels);
            let mse_a = MseLoss.loss(&trace.recon, &x);
            let d_logits = SparseCrossEntropyLoss.grad(&trace.logits, &labels);
            let d_recon = MseLoss.grad(&trace.recon, &x).scale(0.7);
            let grads = a
                .backward(&trace, Some(&d_logits), Some(&d_recon), detach)
                .into_flat();
            opt_a.step(a.param_tensors_mut(), &grads);

            let (ce_b, mse_b) =
                b.train_batch_weighted_with(&x, &labels, &mut opt_b, detach, 0.7, &mut ws);
            assert_eq!(ce_a, ce_b, "CE diverged (detach={detach})");
            assert_eq!(mse_a, mse_b, "MSE diverged (detach={detach})");
        }
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "weights diverged (detach={detach})"
        );
    }
}
