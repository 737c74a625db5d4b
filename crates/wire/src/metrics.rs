//! Wire-layer telemetry: per-tag frame/byte counters on every framed
//! connection, typed [`WireError`] counters, fault-injection events and
//! round-deadline straggler/dropout counters.
//!
//! Everything records into the process-global telemetry registry, so one
//! scrape (or one [`crate::Frame::MetricsRequest`]) sees serving, wire
//! and federated metrics together. Handles are registered lazily per
//! `(direction, frame kind)` and cached in [`HandleCache`]s keyed on
//! `&'static str` pairs — the steady-state path is a read-lock plus a
//! relaxed atomic add, no allocation.
//!
//! Metric catalog (all names prefixed `wire_`):
//!
//! | series | kind | labels |
//! |---|---|---|
//! | `wire_frames_total` | counter | `dir` (`in`/`out`), `kind` (frame type) |
//! | `wire_bytes_total` | counter | `dir`, `kind` |
//! | `wire_errors_total` | counter | `kind` (error variant) |
//! | `wire_faults_total` | counter | `kind` (`latency`/`drop`/`slow_reader`) |
//! | `wire_round_stragglers_total` | counter | — |
//! | `wire_round_dropouts_total` | counter | — |

use crate::frame::WireError;
use safeloc_telemetry::{Counter, HandleCache, Registry};
use std::sync::{Arc, OnceLock};

/// Cached per-(dir, kind) frame and byte counters.
type FrameHandles = HandleCache<(&'static str, &'static str), (Arc<Counter>, Arc<Counter>)>;
/// Cached per-kind counters of one labeled series.
type KindCounters = HandleCache<&'static str, Arc<Counter>>;

/// Telemetry handles for the wire layer, shared process-wide.
pub struct WireMetrics {
    registry: Arc<Registry>,
    frames: FrameHandles,
    errors: KindCounters,
    faults: KindCounters,
    stragglers: Arc<Counter>,
    dropouts: Arc<Counter>,
}

impl WireMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let stragglers = registry.counter("wire_round_stragglers_total", &[]);
        let dropouts = registry.counter("wire_round_dropouts_total", &[]);
        Self {
            registry,
            frames: HandleCache::default(),
            errors: HandleCache::default(),
            faults: HandleCache::default(),
            stragglers,
            dropouts,
        }
    }

    /// Counts one frame (and its wire bytes) moving in `dir`
    /// (`"in"`/`"out"`).
    pub fn on_frame(&self, dir: &'static str, kind: &'static str, bytes: usize) {
        self.frames.with(
            &(dir, kind),
            || {
                let labels: &[(&str, &str)] = &[("dir", dir), ("kind", kind)];
                (
                    self.registry.counter("wire_frames_total", labels),
                    self.registry.counter("wire_bytes_total", labels),
                )
            },
            |(count, byte_count)| {
                count.inc();
                byte_count.add(bytes as u64);
            },
        );
    }

    /// Counts one typed wire error by variant.
    pub fn on_error(&self, err: &WireError) {
        self.labeled(&self.errors, "wire_errors_total", err.kind());
    }

    /// Counts one injected fault (`"latency"`, `"drop"`,
    /// `"slow_reader"`) as it is applied.
    pub fn on_fault(&self, kind: &'static str) {
        self.labeled(&self.faults, "wire_faults_total", kind);
    }

    /// Counts a cohort member that delivered after the round deadline.
    pub fn on_straggler(&self) {
        self.stragglers.inc();
    }

    /// Counts a cohort member that never delivered this round.
    pub fn on_dropout(&self) {
        self.dropouts.inc();
    }

    fn labeled(&self, cache: &KindCounters, name: &str, kind: &'static str) {
        cache.with(
            &kind,
            || self.registry.counter(name, &[("kind", kind)]),
            |counter| counter.inc(),
        );
    }
}

/// The process-wide wire metrics, recording into
/// [`safeloc_telemetry::global`].
pub fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WireMetrics::new(safeloc_telemetry::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(registry: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
        registry
            .snapshot()
            .counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|(k, v)| c.labels.contains(&((*k).into(), (*v).into())))
            })
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn frames_and_errors_accumulate_per_label() {
        let metrics = WireMetrics::new(Arc::new(Registry::new()));
        metrics.on_frame("out", "Update", 100);
        metrics.on_frame("out", "Update", 50);
        metrics.on_frame("in", "Update", 75);
        metrics.on_error(&WireError::Timeout);
        metrics.on_fault("drop");
        metrics.on_straggler();
        metrics.on_dropout();
        let r = &metrics.registry;
        assert_eq!(
            counter_value(
                r,
                "wire_frames_total",
                &[("dir", "out"), ("kind", "Update")]
            ),
            2
        );
        assert_eq!(
            counter_value(r, "wire_bytes_total", &[("dir", "out"), ("kind", "Update")]),
            150
        );
        assert_eq!(
            counter_value(r, "wire_bytes_total", &[("dir", "in"), ("kind", "Update")]),
            75
        );
        assert_eq!(
            counter_value(r, "wire_errors_total", &[("kind", "Timeout")]),
            1
        );
        assert_eq!(
            counter_value(r, "wire_faults_total", &[("kind", "drop")]),
            1
        );
        assert_eq!(counter_value(r, "wire_round_stragglers_total", &[]), 1);
        assert_eq!(counter_value(r, "wire_round_dropouts_total", &[]), 1);
    }
}
