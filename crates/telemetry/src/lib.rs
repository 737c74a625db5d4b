//! Lock-light observability for the SAFELOC stack: atomics-based
//! counters/gauges/histograms in a [`Registry`], exposed as
//! Prometheus-style text or a serde JSON snapshot.
//!
//! "Where did the latency go" is answered by the per-layer histograms
//! the instrumented crates register (`serve_*`, `fl_*`, `wire_*`), read
//! live over the wire's `MetricsRequest` frame.
//!
//! # Design
//!
//! Everything the hot paths touch is wait-free and allocation-free:
//! recording into a pre-registered [`Counter`], [`Gauge`] or
//! [`Histogram`] is a handful of relaxed atomic operations (pinned by
//! the counting-allocator test in `tests/alloc_free.rs`, the same idiom
//! `safeloc-nn`'s `Workspace` uses). Locks exist only at the edges:
//! metric *registration* takes a write lock once per metric, and label-set
//! lookup in instrumented subsystems is a read-mostly [`HandleCache`].
//!
//! # Pure side channel
//!
//! Telemetry observes; it never participates. No RNG is consumed, no
//! ordering is introduced, no value is fed back into computation — so
//! every bitwise-pinned trajectory (round lifecycle, loopback rounds,
//! thread invariance) is unchanged by recording.
//!
//! # Exposition
//!
//! [`render_prometheus`] renders a registry as Prometheus text (escaped
//! label values, cumulative `_bucket`/`_sum`/`_count` histogram series);
//! [`parse_prometheus`] parses it back (the round-trip test and the
//! `observability` example's live scrape share it). [`Registry::snapshot`]
//! produces a serde-serializable [`TelemetrySnapshot`] for headless JSON
//! dumps.

#![warn(missing_docs)]

mod cache;
mod expose;
mod metric;
mod registry;
mod snapshot;

pub use cache::HandleCache;
pub use expose::{parse_prometheus, render_prometheus, PromSample};
pub use metric::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{MetricEntry, MetricHandle, Registry};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, TelemetrySnapshot};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-global registry instrumented subsystems default to.
/// Constructors that accept an injected registry (`Service::
/// start_with_telemetry`) bypass it for isolated tests.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}
