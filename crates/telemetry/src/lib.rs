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
//! thread invariance) is unchanged with telemetry enabled. A process-wide
//! kill switch ([`set_enabled`]) turns every record into a single relaxed
//! load, which is what the `telemetry_on_off` criterion group
//! (`safeloc-bench`, `benches/aggregation.rs`) flips to compare the
//! instrumented and uninstrumented hot paths.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide kill switch consulted by every record path. Defaults to
/// enabled; benches flip it off to measure the uninstrumented baseline.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all recording process-wide. Registration and
/// exposition are unaffected — a disabled registry still renders, it just
/// stops moving.
pub fn set_enabled(enabled: bool) {
    // relaxed: a standalone on/off flag — record paths may observe the
    // flip slightly late, which only delays when counting stops/starts.
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether recording is currently enabled (one relaxed load — this is the
/// entire cost of a disabled record).
#[inline]
pub fn enabled() -> bool {
    // relaxed: see set_enabled — no data is guarded by this flag.
    ENABLED.load(Ordering::Relaxed)
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-global registry instrumented subsystems default to.
/// Constructors that accept an injected registry (`Service::
/// start_with_telemetry`) bypass it for isolated tests.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}
