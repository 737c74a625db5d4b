//! Serde-serializable point-in-time snapshots, for headless JSON dumps
//! (the `observability` example's `TELEM_ci.json`, CI's artifact).

use serde::{Deserialize, Serialize};

/// One counter series at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Series name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Count at snapshot time.
    pub value: u64,
}

/// One gauge series at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Series name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: i64,
}

/// One histogram series at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Series name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Total samples.
    pub count: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Per-bucket (non-cumulative) counts, bound order.
    pub buckets: Vec<u64>,
    /// Samples past the last finite bound (incl. non-finite ones).
    pub overflow: u64,
}

/// Everything a registry holds, frozen.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counter series.
    pub counters: Vec<CounterSample>,
    /// All gauge series.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series.
    pub histograms: Vec<HistogramSample>,
}

impl TelemetrySnapshot {
    /// Total number of series across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// `true` when no series was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural sanity check: every histogram's bucket total must equal
    /// its count, and sums must be finite. Returns the list of problems
    /// (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for h in &self.histograms {
            let bucket_total: u64 = h.buckets.iter().sum::<u64>() + h.overflow;
            if bucket_total != h.count {
                problems.push(format!(
                    "histogram {}: bucket total {bucket_total} != count {}",
                    h.name, h.count
                ));
            }
            if !h.sum.is_finite() {
                problems.push(format!("histogram {}: non-finite sum", h.name));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_round_trip_through_serde() {
        let snap = TelemetrySnapshot {
            counters: vec![CounterSample {
                name: "x_total".into(),
                labels: vec![("k".into(), "v".into())],
                value: 3,
            }],
            gauges: vec![],
            histograms: vec![HistogramSample {
                name: "h".into(),
                labels: vec![],
                count: 2,
                sum: 5.0,
                buckets: vec![1, 1],
                overflow: 0,
            }],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(snap.len(), 2);
        assert!(snap.validate().is_empty());
    }

    #[test]
    fn validation_catches_inconsistent_histograms() {
        let snap = TelemetrySnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![HistogramSample {
                name: "bad".into(),
                labels: vec![],
                count: 5,
                sum: f64::NAN,
                buckets: vec![1],
                overflow: 0,
            }],
        };
        let problems = snap.validate();
        assert_eq!(problems.len(), 2);
        assert!(problems[0].contains("bucket total"));
        assert!(problems[1].contains("non-finite"));
    }
}
