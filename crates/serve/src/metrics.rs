//! Serving-side telemetry: per-route request counters, scheduler
//! histograms and the hot-swap version gauge, all recorded as a pure
//! side channel of the request path.
//!
//! Handles are pre-registered per (building × device-class) route and
//! cached in nested [`HandleCache`]s (building, then class, so a lookup
//! borrows the class name instead of allocating a key), keeping the
//! steady-state record path to read-locks plus relaxed atomic ops — no
//! allocation, no write contention. Registration (the first request a
//! route ever sees) takes the write lock once.

use safeloc_telemetry::{Counter, Gauge, HandleCache, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Pre-registered handles for one (building × device-class) route.
struct RouteHandles {
    requests: Arc<Counter>,
    version: Arc<Gauge>,
}

/// Telemetry handles for one [`crate::service::Service`].
///
/// Metric catalog (all names prefixed `serve_`):
///
/// | series | kind | labels | meaning |
/// |---|---|---|---|
/// | `serve_requests_total` | counter | `building`, `device_class` | admitted requests per route |
/// | `serve_model_version` | gauge | `building`, `device_class` | version the route's latest request pinned |
/// | `serve_batch_size` | histogram | — | requests a worker took in one batch: one pinned snapshot, one forward pass |
/// | `serve_queue_depth` | histogram | — | backlog left in the queue when a batch was sealed (0 on an idle service; excludes jobs already inside a batch) |
/// | `serve_latency_us` | histogram | — | admission → reply |
/// | `serve_pending_requests` | gauge | — | admitted − replied: queued *plus* executing |
/// | `serve_publish_skipped_total` | counter | `building`, `device_class` | rounds a [`RegistryPublisher`](crate::RegistryPublisher) skipped because their parameters do not fit the served architecture; recorded in the global registry, not through these handles |
pub struct ServeMetrics {
    registry: Arc<Registry>,
    batch_size: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    latency_us: Arc<Histogram>,
    pending: Arc<Gauge>,
    routes: HandleCache<usize, HandleCache<String, RouteHandles>>,
}

impl ServeMetrics {
    /// Builds the handle set over `registry`, registering the
    /// route-independent series eagerly.
    pub fn new(registry: Arc<Registry>) -> Arc<Self> {
        let batch_size = registry.histogram("serve_batch_size", &[]);
        let queue_depth = registry.histogram("serve_queue_depth", &[]);
        let latency_us = registry.histogram("serve_latency_us", &[]);
        let pending = registry.gauge("serve_pending_requests", &[]);
        Arc::new(Self {
            registry,
            batch_size,
            queue_depth,
            latency_us,
            pending,
            routes: HandleCache::default(),
        })
    }

    /// The registry every series lives in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records an admitted request: bumps the route counter, publishes
    /// the model version the request pinned, and marks it pending.
    pub fn on_admit(&self, building: usize, device_class: &str, model_version: u64) {
        self.with_route(building, device_class, |route| {
            route.requests.inc();
            route.version.set(model_version as i64);
        });
        self.pending.add(1);
    }

    /// Records one sealed micro-batch and the backlog it left in the
    /// queue, read from the queue's own length under its lock.
    pub fn on_batch(&self, batch_len: usize, backlog: usize) {
        self.batch_size.record(batch_len as u64);
        self.queue_depth.record(backlog as u64);
    }

    /// Records a completed request: admission→response latency, and one
    /// fewer pending.
    pub fn on_reply(&self, submitted: Instant) {
        self.latency_us
            .record_f64(submitted.elapsed().as_secs_f64() * 1e6);
        self.pending.add(-1);
    }

    /// Un-counts a request that was admitted but never executed (queue
    /// already torn down) — pending comes back without a latency sample.
    pub fn on_drop(&self) {
        self.pending.add(-1);
    }

    /// Runs `f` over the route's handles, registering them on first use.
    fn with_route(&self, building: usize, device_class: &str, f: impl FnOnce(&RouteHandles)) {
        self.routes
            .with(&building, HandleCache::default, |per_class| {
                per_class.with(
                    device_class,
                    || {
                        let building = building.to_string();
                        let labels: &[(&str, &str)] =
                            &[("building", &building), ("device_class", device_class)];
                        RouteHandles {
                            requests: self.registry.counter("serve_requests_total", labels),
                            version: self.registry.gauge("serve_model_version", labels),
                        }
                    },
                    f,
                )
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn routes_register_once_and_accumulate() {
        let metrics = ServeMetrics::new(Arc::new(Registry::new()));
        metrics.on_admit(1, "HTC U11", 3);
        metrics.on_admit(1, "HTC U11", 4);
        metrics.on_admit(2, "default", 1);
        let snap = metrics.registry().snapshot();
        let requests: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.name == "serve_requests_total")
            .collect();
        assert_eq!(requests.len(), 2, "one series per route");
        let b1 = requests
            .iter()
            .find(|c| c.labels.contains(&("building".into(), "1".into())))
            .unwrap();
        assert_eq!(b1.value, 2);
        let version = snap
            .gauges
            .iter()
            .find(|g| {
                g.name == "serve_model_version"
                    && g.labels.contains(&("building".into(), "1".into()))
            })
            .unwrap();
        assert_eq!(version.value, 4, "gauge tracks the latest pinned version");
    }

    #[test]
    fn pending_tracks_admit_and_reply() {
        let metrics = ServeMetrics::new(Arc::new(Registry::new()));
        let submitted = Instant::now() - Duration::from_millis(5);
        metrics.on_admit(1, "x", 1);
        metrics.on_admit(1, "x", 1);
        metrics.on_batch(2, 5);
        metrics.on_reply(submitted);
        metrics.on_reply(submitted);
        let snap = metrics.registry().snapshot();
        let pending = snap
            .gauges
            .iter()
            .find(|g| g.name == "serve_pending_requests")
            .unwrap();
        assert_eq!(pending.value, 0);
        let latency = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve_latency_us")
            .unwrap();
        assert_eq!(latency.count, 2);
        assert!(latency.sum >= 2.0 * 5_000.0, "5ms floor per reply");
        let depth = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve_queue_depth")
            .unwrap();
        assert_eq!(
            (depth.count, depth.sum),
            (1, 5.0),
            "depth is the backlog handed in, not the 2 still pending"
        );
    }
}
