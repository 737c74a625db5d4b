//! The metric registry: named, labeled handles behind a read-mostly lock.
//!
//! Registration is idempotent — asking for the same `(name, labels)`
//! returns the same underlying atomic, so two subsystems can share a
//! series without coordination. Handles are `Arc`s: instrumented code
//! registers once at construction and records lock-free forever after;
//! the registry lock is only taken to register or to snapshot.

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, TelemetrySnapshot};
use std::collections::HashMap;
use std::mem::discriminant;
use std::sync::{Arc, RwLock};

/// The handle a registered metric hands out.
#[derive(Debug, Clone)]
pub enum MetricHandle {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// A point-in-time gauge.
    Gauge(Arc<Gauge>),
    /// A log₂ histogram.
    Histogram(Arc<Histogram>),
}

/// One registered metric: its identity plus the live handle.
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Metric name (`snake_case`, subsystem-prefixed by convention).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The live handle.
    pub handle: MetricHandle,
}

#[derive(Default)]
struct Inner {
    metrics: Vec<MetricEntry>,
    index: HashMap<(String, Vec<(String, String)>), usize>,
}

/// A collection of named metrics — global (see [`crate::global`]) or
/// injected per subsystem.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().expect("telemetry registry poisoned");
        f.debug_struct("Registry")
            .field("metrics", &inner.metrics.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter under `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, labels, || {
            MetricHandle::Counter(Arc::new(Counter::new()))
        }) {
            MetricHandle::Counter(c) => c,
            // Same name already registered under another kind (under
            // these labels or any others): hand out a detached counter
            // rather than panic — the caller's records are dropped, the
            // process lives, and exposition stays type-consistent.
            // Instrumentation owns its namespace, so this is a
            // programming error surfaced by a missing series.
            _ => Arc::new(Counter::new()),
        }
    }

    /// Registers (or retrieves) a gauge under `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, labels, || MetricHandle::Gauge(Arc::new(Gauge::new()))) {
            MetricHandle::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Registers (or retrieves) a histogram under `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::new()))
        }) {
            MetricHandle::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let key = (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>(),
        );
        {
            let inner = self.inner.read().expect("telemetry registry poisoned");
            if let Some(&i) = inner.index.get(&key) {
                return inner.metrics[i].handle.clone();
            }
        }
        let mut inner = self.inner.write().expect("telemetry registry poisoned");
        // Lost the race to another registrant: return theirs.
        if let Some(&i) = inner.index.get(&key) {
            return inner.metrics[i].handle.clone();
        }
        let handle = make();
        // One name, one kind, one `# TYPE` line: a name taken by another
        // kind under other labels gets this handle detached, as a
        // same-key clash does. A linear scan, on the cold path only.
        if inner
            .metrics
            .iter()
            .any(|e| e.name == key.0 && discriminant(&e.handle) != discriminant(&handle))
        {
            return handle;
        }
        let entry = MetricEntry {
            name: key.0.clone(),
            labels: key.1.clone(),
            handle: handle.clone(),
        };
        let i = inner.metrics.len();
        inner.metrics.push(entry);
        inner.index.insert(key, i);
        handle
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("telemetry registry poisoned")
            .metrics
            .len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every registered metric, sorted by `(name, labels)` so
    /// exposition is deterministic regardless of registration order.
    pub fn visit(&self, mut f: impl FnMut(&MetricEntry)) {
        let inner = self.inner.read().expect("telemetry registry poisoned");
        let mut sorted: Vec<&MetricEntry> = inner.metrics.iter().collect();
        sorted.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        for entry in sorted {
            f(entry);
        }
    }

    /// A point-in-time copy of every series, for JSON dumps.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        self.visit(|entry| match &entry.handle {
            MetricHandle::Counter(c) => snap.counters.push(CounterSample {
                name: entry.name.clone(),
                labels: entry.labels.clone(),
                value: c.get(),
            }),
            MetricHandle::Gauge(g) => snap.gauges.push(GaugeSample {
                name: entry.name.clone(),
                labels: entry.labels.clone(),
                value: g.get(),
            }),
            MetricHandle::Histogram(h) => snap.histograms.push(HistogramSample {
                name: entry.name.clone(),
                labels: entry.labels.clone(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.bucket_counts(),
                overflow: h.overflow_count(),
            }),
        });
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("requests_total", &[("building", "0")]);
        let b = r.counter("requests_total", &[("building", "0")]);
        let c = r.counter("requests_total", &[("building", "1")]);
        a.inc();
        b.inc();
        c.inc();
        assert_eq!(a.get(), 2, "same series shares one atomic");
        assert_eq!(c.get(), 1, "different labels are a different series");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn kind_clash_yields_a_detached_handle_not_a_panic() {
        let r = Registry::new();
        let counter = r.counter("mixed", &[]);
        let gauge = r.gauge("mixed", &[]);
        counter.inc();
        gauge.set(99);
        assert_eq!(counter.get(), 1);
        assert_eq!(r.len(), 1, "the clashing registration is not recorded");
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.gauges.is_empty());

        // Under other labels the name still carries one kind.
        let r = Registry::new();
        r.counter("x", &[("k", "1")]).inc();
        let detached = r.gauge("x", &[("k", "2")]);
        detached.set(7);
        assert_eq!(detached.get(), 7, "the detached handle still records");
        assert_eq!(r.len(), 1, "the cross-label clash is not recorded");
        let text = crate::render_prometheus(&r);
        assert_eq!(text.matches("# TYPE x").count(), 1, "{text}");
        assert!(text.contains("# TYPE x counter"), "{text}");
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn visit_orders_by_name_then_labels() {
        let r = Registry::new();
        r.counter("zz", &[]);
        r.counter("aa", &[("k", "2")]);
        r.counter("aa", &[("k", "1")]);
        let mut seen = Vec::new();
        r.visit(|e| seen.push((e.name.clone(), e.labels.clone())));
        assert_eq!(seen[0].0, "aa");
        assert_eq!(seen[0].1, vec![("k".to_string(), "1".to_string())]);
        assert_eq!(seen[2].0, "zz");
    }
}
