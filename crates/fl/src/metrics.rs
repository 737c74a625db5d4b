//! Federated-round telemetry: per-stage rejection and wall-time series,
//! round-level wall/cohort metrics, delta-compression byte counters and
//! the streaming-fleet materialization gauge.
//!
//! Everything records into the process-global telemetry registry as a
//! pure side channel — nothing here feeds back into training,
//! aggregation or cohort planning, so bitwise round trajectories are
//! unchanged whether telemetry is enabled or not.
//!
//! Stage series are registered lazily per stage name (the pipeline's
//! stage set is configuration, not code) and cached in a
//! [`HandleCache`]; the steady-state path is a read-lock plus relaxed
//! atomic ops.
//!
//! Metric catalog (all names prefixed `fl_`):
//!
//! | series | kind | labels |
//! |---|---|---|
//! | `fl_rounds_total` | counter | — |
//! | `fl_round_wall_ms` | histogram | — |
//! | `fl_round_train_ms` | histogram | — |
//! | `fl_round_aggregate_ms` | histogram | — |
//! | `fl_cohort_size` | histogram | — |
//! | `fl_stage_rejections_total` | counter | `stage` |
//! | `fl_stage_wall_us` | histogram | `stage` |
//! | `fl_delta_raw_bytes_total` | counter | — |
//! | `fl_delta_wire_bytes_total` | counter | — |
//! | `fl_streaming_materialized` | gauge | — |
//! | `fl_screen_sparse_rows` | gauge | — |
//! | `fl_screen_dense_rows` | gauge | — |
//! | `fl_screen_row_density` | histogram (‰) | — |
//! | `fl_screen_sampled_view_rows` | gauge | — |
//! | `fl_screen_sampled_in_place_rows` | gauge | — |
//! | `fl_cluster_passes` | gauge | — |

use crate::report::StageTelemetry;
use safeloc_telemetry::{Counter, Gauge, HandleCache, Histogram, Registry};
use std::sync::{Arc, OnceLock};

/// Cached per-stage handles.
struct StageHandles {
    rejections: Arc<Counter>,
    wall_us: Arc<Histogram>,
}

/// Telemetry handles for the federated engine, shared process-wide.
pub struct FlMetrics {
    registry: Arc<Registry>,
    rounds: Arc<Counter>,
    round_wall_ms: Arc<Histogram>,
    round_train_ms: Arc<Histogram>,
    round_aggregate_ms: Arc<Histogram>,
    cohort_size: Arc<Histogram>,
    delta_raw_bytes: Arc<Counter>,
    delta_wire_bytes: Arc<Counter>,
    streaming_materialized: Arc<Gauge>,
    screen_sparse_rows: Arc<Gauge>,
    screen_dense_rows: Arc<Gauge>,
    screen_row_density: Arc<Histogram>,
    screen_sampled_view_rows: Arc<Gauge>,
    screen_sampled_in_place_rows: Arc<Gauge>,
    cluster_passes: Arc<Gauge>,
    stages: HandleCache<String, StageHandles>,
}

impl FlMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        Self {
            rounds: registry.counter("fl_rounds_total", &[]),
            round_wall_ms: registry.histogram("fl_round_wall_ms", &[]),
            round_train_ms: registry.histogram("fl_round_train_ms", &[]),
            round_aggregate_ms: registry.histogram("fl_round_aggregate_ms", &[]),
            cohort_size: registry.histogram("fl_cohort_size", &[]),
            delta_raw_bytes: registry.counter("fl_delta_raw_bytes_total", &[]),
            delta_wire_bytes: registry.counter("fl_delta_wire_bytes_total", &[]),
            streaming_materialized: registry.gauge("fl_streaming_materialized", &[]),
            screen_sparse_rows: registry.gauge("fl_screen_sparse_rows", &[]),
            screen_dense_rows: registry.gauge("fl_screen_dense_rows", &[]),
            screen_row_density: registry.histogram("fl_screen_row_density", &[]),
            screen_sampled_view_rows: registry.gauge("fl_screen_sampled_view_rows", &[]),
            screen_sampled_in_place_rows: registry.gauge("fl_screen_sampled_in_place_rows", &[]),
            cluster_passes: registry.gauge("fl_cluster_passes", &[]),
            stages: HandleCache::default(),
            registry,
        }
    }

    /// Records one finished round: wall-clock split and cohort size.
    pub fn on_round(&self, train_ms: f64, aggregate_ms: f64, cohort_size: usize) {
        self.rounds.inc();
        self.round_wall_ms.record_f64(train_ms + aggregate_ms);
        self.round_train_ms.record_f64(train_ms);
        self.round_aggregate_ms.record_f64(aggregate_ms);
        self.cohort_size.record(cohort_size as u64);
    }

    /// Records one defense stage's footprint. Called by the pipeline for
    /// every stage of every aggregation, so the series exist even for
    /// engines that never drain
    /// [`take_stage_telemetry`](crate::Aggregator::take_stage_telemetry).
    pub fn on_stage(&self, stage: &StageTelemetry) {
        self.stages.with(
            stage.stage.as_str(),
            || {
                let labels: &[(&str, &str)] = &[("stage", &stage.stage)];
                StageHandles {
                    rejections: self.registry.counter("fl_stage_rejections_total", labels),
                    wall_us: self.registry.histogram("fl_stage_wall_us", labels),
                }
            },
            |handles| {
                handles.rejections.add(stage.rejections as u64);
                handles.wall_us.record_f64(stage.wall_ms * 1e3);
            },
        );
    }

    /// Records one delta compression: the dense bytes the update would
    /// have cost on the wire versus what its encoding actually costs.
    pub fn on_delta(&self, raw_bytes: usize, wire_bytes: usize) {
        self.delta_raw_bytes.add(raw_bytes as u64);
        self.delta_wire_bytes.add(wire_bytes as u64);
    }

    /// Records how the latest round's delta view stored its rows: how
    /// many dense, how many as a support, and each support row's density
    /// (the fraction of coordinates where its LM differs from the GM,
    /// recorded in ‰ — a dense row's density is not known, discovery gives
    /// up on it early). Which path a round takes, and how dense uploads
    /// really are, whatever their `repr` claims.
    pub fn on_delta_view(&self, dense_rows: usize, support_densities: impl Iterator<Item = f64>) {
        let mut sparse_rows = 0;
        for density in support_densities {
            sparse_rows += 1;
            self.screen_row_density.record_f64(density * 1e3);
        }
        self.screen_sparse_rows.set(sparse_rows);
        self.screen_dense_rows.set(dense_rows as i64);
    }

    /// Records how the latest round's sampled block read its rows: how
    /// many were filled from a support of the delta view and how many
    /// subtracted their picks in place (every row of a round nobody built a
    /// view for, and the dense rows of one somebody did).
    pub fn on_sampled_block(&self, view_rows: usize, in_place_rows: usize) {
        self.screen_sampled_view_rows.set(view_rows as i64);
        self.screen_sampled_in_place_rows.set(in_place_rows as i64);
    }

    /// Records how many 2-means passes the latest cluster stage ran (1–10:
    /// the stage's cost swings with it, and nothing else reports why).
    pub fn on_cluster_passes(&self, passes: usize) {
        self.cluster_passes.set(passes as i64);
    }

    /// Tracks how many fleet members a generating
    /// [`FleetProvider`](crate::FleetProvider) currently has lent out
    /// (`delta` of +n on materialization, −n on reclaim).
    pub fn on_streaming_materialized(&self, delta: i64) {
        self.streaming_materialized.add(delta);
    }
}

/// The process-wide federated-engine metrics, recording into
/// [`safeloc_telemetry::global`].
pub fn fl_metrics() -> &'static FlMetrics {
    static METRICS: OnceLock<FlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FlMetrics::new(safeloc_telemetry::global()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aggregator;
    use safeloc_telemetry::TelemetrySnapshot;

    /// A counter's value in a snapshot (0 if absent).
    fn counter(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
        snap.counters
            .iter()
            .find(|c| {
                c.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| c.labels.contains(&((*k).into(), (*v).into())))
            })
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// `fl_stage_rejections_total{stage="non-finite"}` in a snapshot.
    fn non_finite_rejections(snap: &TelemetrySnapshot) -> u64 {
        counter(
            snap,
            "fl_stage_rejections_total",
            &[("stage", "non-finite")],
        )
    }

    #[test]
    fn stage_and_round_series_accumulate() {
        let metrics = FlMetrics::new(Arc::new(Registry::new()));
        metrics.on_round(10.0, 2.0, 8);
        metrics.on_round(8.0, 1.0, 6);
        metrics.on_stage(&StageTelemetry {
            stage: "norm-clip".into(),
            rejections: 0,
            wall_ms: 0.5,
        });
        metrics.on_stage(&StageTelemetry {
            stage: "krum".into(),
            rejections: 3,
            wall_ms: 1.5,
        });
        metrics.on_stage(&StageTelemetry {
            stage: "krum".into(),
            rejections: 2,
            wall_ms: 1.0,
        });
        // A pipeline's own trail: FedAvg screens nothing, yet stage zero
        // is there and owns the NaN update's rejection.
        let update = |id, v| {
            let w = safeloc_nn::Matrix::row_vector(&[v]);
            crate::ClientUpdate::new(id, [("w".to_string(), w)].into_iter().collect(), 1)
        };
        let mut fedavg = crate::DefensePipeline::fedavg();
        let gm = update(0, 0.0).params;
        let global_before = non_finite_rejections(&safeloc_telemetry::global().snapshot());
        fedavg.aggregate(&gm, &[update(0, 1.0), update(1, f32::NAN)]);
        let trail = fedavg.take_stage_telemetry();
        assert_eq!(
            (trail[0].stage.as_str(), trail[0].rejections),
            ("non-finite", 1)
        );
        trail.iter().for_each(|stage| metrics.on_stage(stage));
        metrics.on_delta(4000, 320);
        metrics.on_streaming_materialized(8);
        metrics.on_streaming_materialized(-8);
        metrics.on_delta_view(3, [0.05, 0.0].into_iter());
        metrics.on_sampled_block(2, 3);
        metrics.on_cluster_passes(3);

        let snap = metrics.registry.snapshot();
        let counter = |name, labels| counter(&snap, name, labels);
        assert_eq!(counter("fl_rounds_total", &[]), 2);
        assert_eq!(
            counter("fl_stage_rejections_total", &[("stage", "krum")]),
            5
        );
        assert_eq!(non_finite_rejections(&snap), 1);
        // The pipeline fed the process-wide registry itself (other tests
        // share it, so at least — not exactly — one more).
        assert!(non_finite_rejections(&safeloc_telemetry::global().snapshot()) > global_before);
        assert_eq!(counter("fl_delta_raw_bytes_total", &[]), 4000);
        assert_eq!(counter("fl_delta_wire_bytes_total", &[]), 320);
        let wall = snap
            .histograms
            .iter()
            .find(|h| h.name == "fl_round_wall_ms")
            .unwrap();
        assert_eq!(wall.count, 2);
        assert!((wall.sum - 21.0).abs() < 1e-9);
        let materialized = snap
            .gauges
            .iter()
            .find(|g| g.name == "fl_streaming_materialized")
            .unwrap();
        assert_eq!(materialized.value, 0, "every materialization reclaimed");
        let gauge = |name: &str| snap.gauges.iter().find(|g| g.name == name).unwrap().value;
        assert_eq!(
            (
                gauge("fl_screen_sparse_rows"),
                gauge("fl_screen_dense_rows")
            ),
            (2, 3)
        );
        assert_eq!(
            (
                gauge("fl_screen_sampled_view_rows"),
                gauge("fl_screen_sampled_in_place_rows"),
                gauge("fl_cluster_passes")
            ),
            (2, 3, 3)
        );
        let density = snap
            .histograms
            .iter()
            .find(|h| h.name == "fl_screen_row_density")
            .unwrap();
        assert_eq!(
            (density.count, density.sum),
            (2, 50.0),
            "two rows, 50 ‰ + 0 ‰"
        );
    }
}
