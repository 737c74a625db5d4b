//! The `TELEM_*.json` dump format `examples/observability.rs` writes.
//!
//! One file carries what the telemetry side channel exports: the frozen
//! [`TelemetrySnapshot`] of a registry and the Prometheus text rendering
//! of the same registry. [`TelemetryDump::validate`] cross-checks the two
//! views against each other — the observability example asserts it on
//! the dump it captures and again on the copy it reads back from disk
//! (CI's `telemetry-smoke` job runs the example), so a drifting exposition
//! format fails the build rather than silently producing unscrapable
//! output.

use safeloc_telemetry::{parse_prometheus, Registry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

/// A full telemetry export: snapshot + Prometheus text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryDump {
    /// Dump format version.
    pub schema: String,
    /// All metric series, frozen.
    pub snapshot: TelemetrySnapshot,
    /// The same registry rendered as Prometheus exposition text.
    pub prometheus: String,
}

pub(crate) fn dump_schema() -> String {
    "safeloc-bench/telemetry-dump/v2".to_string()
}

impl TelemetryDump {
    /// Freezes `registry` into one dump.
    pub fn capture(registry: &Registry) -> Self {
        TelemetryDump {
            schema: dump_schema(),
            snapshot: registry.snapshot(),
            prometheus: safeloc_telemetry::render_prometheus(registry),
        }
    }

    /// Cross-checks the two views. Returns the list of problems (empty =
    /// valid):
    ///
    /// * the snapshot passes its own structural validation and is
    ///   non-empty,
    /// * the Prometheus text parses back and holds every snapshot series
    ///   under its own labels — a histogram as its `{name}_count` sample.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.snapshot.validate();
        if self.snapshot.is_empty() {
            problems.push("snapshot holds no series (nothing was instrumented?)".to_string());
        }
        match parse_prometheus(&self.prometheus) {
            Err(e) => problems.push(format!("prometheus text does not parse back: {e}")),
            Ok(samples) => {
                let snap = &self.snapshot;
                let series = snap
                    .counters
                    .iter()
                    .map(|c| (c.name.clone(), &c.labels))
                    .chain(snap.gauges.iter().map(|g| (g.name.clone(), &g.labels)))
                    .chain(
                        snap.histograms
                            .iter()
                            .map(|h| (format!("{}_count", h.name), &h.labels)),
                    );
                for (name, labels) in series {
                    if !samples
                        .iter()
                        .any(|s| s.name == name && s.labels == *labels)
                    {
                        problems.push(format!(
                            "series {name}{labels:?} is in the snapshot but missing from the \
                             prometheus text"
                        ));
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_dump() -> TelemetryDump {
        let registry = Registry::new();
        registry.counter("demo_total", &[("building", "1")]).add(3);
        registry.counter("demo_total", &[("building", "2")]).add(1);
        registry.gauge("demo_depth", &[]).set(2);
        registry.histogram("demo_us", &[]).record_f64(42.0);
        TelemetryDump::capture(&registry)
    }

    fn reports_missing(dump: &TelemetryDump, series: &str) -> bool {
        dump.validate()
            .iter()
            .any(|p| p.contains(series) && p.contains("missing from the prometheus text"))
    }

    #[test]
    fn captured_dump_validates_and_round_trips() {
        let dump = populated_dump();
        assert_eq!(dump.validate(), Vec::<String>::new());
        let json = serde_json::to_string(&dump).unwrap();
        let back: TelemetryDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump);
    }

    #[test]
    fn broken_views_are_reported() {
        let mut empty = populated_dump();
        empty.snapshot = TelemetrySnapshot::default();
        assert!(empty.validate().iter().any(|p| p.contains("no series")));

        let mut unscrapable = populated_dump();
        unscrapable.prometheus = "demo_total{building=\"1\" 3".to_string();
        assert!(!unscrapable.validate().is_empty());

        let mut missing = populated_dump();
        missing.prometheus = "other_total 1\n".to_string();
        assert!(reports_missing(&missing, "demo_total"));

        // A histogram dropped from the text is reported by its `_count`.
        let mut no_histogram = populated_dump();
        no_histogram.prometheus = no_histogram
            .prometheus
            .lines()
            .filter(|l| !l.starts_with("demo_us"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(reports_missing(&no_histogram, "demo_us_count"));

        // One label set of a counter dropped while the other stays.
        let mut one_label_set = populated_dump();
        one_label_set.prometheus = one_label_set
            .prometheus
            .replace("demo_total{building=\"2\"} 1\n", "");
        assert!(reports_missing(&one_label_set, "\"2\""));
        assert!(!reports_missing(&one_label_set, "\"1\""));
    }
}
