//! Verifies the workspace training path's headline guarantee: after one
//! warmup step, a full `Sequential` forward+backward+optimizer step
//! performs **zero heap allocations**.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the workspace and optimizer, snapshots the allocation counter, runs more
//! steps and asserts the counter did not move.

use safeloc_nn::{Activation, Adam, Matrix, PredictBuffers, Sequential, Sgd, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Counted per thread: the harness runs this file's tests on parallel
    /// threads, and a process-wide count charges one test with another's
    /// allocations (the tests failed at random on a 2-core box).
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

fn paper_batch(model: &Sequential, batch: usize) -> (Matrix, Vec<usize>) {
    let x = Matrix::from_fn(batch, model.in_dim(), |r, c| {
        ((r * 31 + c * 7) % 100) as f32 / 100.0
    });
    let labels: Vec<usize> = (0..batch).map(|r| r % model.out_dim()).collect();
    (x, labels)
}

#[test]
fn classifier_step_is_allocation_free_after_warmup() {
    // The paper's global-model geometry (203→128→89→62→60).
    let mut model = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 7);
    let (x, labels) = paper_batch(&model, 32);
    let mut opt = Adam::new(1e-3);
    let mut ws = Workspace::new();

    // Warmup: shapes the workspace buffers and the Adam moment vectors.
    for _ in 0..2 {
        model.train_batch_with(&x, &labels, &mut opt, &mut ws);
    }

    let before = allocations();
    for _ in 0..5 {
        model.train_batch_with(&x, &labels, &mut opt, &mut ws);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm training step allocated {} times",
        after - before
    );
}

#[test]
fn autoencoder_step_is_allocation_free_after_warmup() {
    let mut model = Sequential::mlp(&[60, 20, 60], Activation::Sigmoid, 3);
    let x = Matrix::from_fn(16, 60, |r, c| ((r + c) % 10) as f32 / 10.0);
    let mut opt = Sgd::new(1e-2);
    let mut ws = Workspace::new();

    for _ in 0..2 {
        model.train_batch_autoencoder_with(&x, &mut opt, &mut ws);
    }

    let before = allocations();
    for _ in 0..5 {
        model.train_batch_autoencoder_with(&x, &mut opt, &mut ws);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm autoencoder step allocated {} times",
        after - before
    );
}

/// A serving worker's pass: once its buffers have seen the largest batch,
/// `predict_into` allocates nothing for that batch or any smaller one.
#[test]
fn predict_into_is_allocation_free_after_warmup() {
    let model = Sequential::mlp(&[203, 128, 89, 62, 60], Activation::Relu, 7);
    let (x, _) = paper_batch(&model, 32);
    let (x5, _) = paper_batch(&model, 5);
    let mut buffers = PredictBuffers::new();
    let mut labels = Vec::new();
    model.predict_into(&x, &mut buffers, &mut labels);

    let before = allocations();
    for _ in 0..5 {
        model.predict_into(&x5, &mut buffers, &mut labels);
        model.predict_into(&x, &mut buffers, &mut labels);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm predict_into allocated {} times",
        after - before
    );
    assert_eq!(labels, model.predict(&x));
}

/// The workspace path must compute exactly the same update as the
/// allocating path — buffer reuse is an optimization, not a semantics
/// change.
#[test]
fn workspace_path_matches_allocating_path_bitwise() {
    let mut a = Sequential::mlp(&[20, 16, 8], Activation::Relu, 11);
    let mut b = a.clone();
    let (x, labels) = paper_batch(&a, 8);

    let mut opt_a = Adam::new(1e-3);
    let mut opt_b = Adam::new(1e-3);
    let mut ws = Workspace::new();

    use safeloc_nn::HasParams;
    for _ in 0..4 {
        let la = a.train_batch(&x, &labels, &mut opt_a);
        let lb = b.train_batch_with(&x, &labels, &mut opt_b, &mut ws);
        assert_eq!(la, lb, "losses diverged");
    }
    assert_eq!(a.snapshot(), b.snapshot(), "weights diverged");
}
