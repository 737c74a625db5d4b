//! Pins the telemetry hot path allocation-free under a counting global
//! allocator — the same idiom `safeloc-nn` uses for its `Workspace`.
//! Recording into a pre-registered counter/gauge/histogram and recording
//! a span into a warmed flight recorder must not allocate: a serving hot
//! path records per request, and a single allocation there would show up
//! at city scale.

use safeloc_telemetry::{FlightRecorder, Registry};
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
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn record_hot_path_is_allocation_free() {
    // Registration allocates (names, label vectors, the atomics) — that
    // happens once, at construction time, and is not the hot path.
    let registry = Registry::new();
    let counter = registry.counter("hot_requests_total", &[("building", "0")]);
    let gauge = registry.gauge("hot_queue_depth", &[]);
    let histogram = registry.histogram("hot_latency_ns", &[]);
    let recorder = FlightRecorder::new(64);

    // Warm every path once: lazy thread-id assignment, first bucket
    // touch, ring growth up to length.
    for i in 0..80u64 {
        counter.inc();
        gauge.set(i as i64);
        gauge.add(-1);
        histogram.record(i * 1_000);
        histogram.record_f64(i as f64 * 0.5);
        drop(recorder.span("warm", "alloc"));
    }

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(3);
        gauge.set(i as i64);
        gauge.add(1);
        histogram.record(i);
        histogram.record_f64(i as f64);
        drop(recorder.span("hot", "alloc"));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "recording into pre-registered metrics must not allocate"
    );
}

#[test]
fn registered_handle_lookup_does_not_allocate_on_rerecord() {
    let registry = Registry::new();
    let h = registry.histogram("reused", &[]);
    h.record(1);
    let before = allocations();
    for v in 0..1_000 {
        h.record(v);
    }
    assert_eq!(allocations() - before, 0);
}
