//! Summary statistics in the shape of the paper's box-and-whisker plots.
//!
//! Every figure reports *localization error in meters*: the distance
//! between the predicted reference point and the true one
//! ([`Building::label_error_m`](safeloc_dataset::Building::label_error_m)).
//! [`ErrorStats`] summarizes a sample of them as best / mean / worst plus
//! percentiles; the suite pools raw errors across cells before it
//! summarizes ([`SuiteRun::pooled_errors`](crate::SuiteRun::pooled_errors)).
//!
//! ```
//! use safeloc_bench::ErrorStats;
//! use safeloc_dataset::Building;
//!
//! let b = Building::tiny(0);
//! let truth = [0, 1, 2];
//! let predicted = [0, 1, 3]; // one neighbouring-RP miss
//! let errors: Vec<f32> = predicted
//!     .iter()
//!     .zip(&truth)
//!     .map(|(&p, &t)| b.label_error_m(p, t))
//!     .collect();
//! let stats = ErrorStats::from_errors(&errors);
//! assert_eq!(stats.best, 0.0);
//! assert!(stats.worst > 0.0);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error summary: the paper's plots show best-case (lower whisker),
/// mean (center bar) and worst-case (upper whisker) localization errors;
/// percentiles are included for finer-grained comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    /// Sample count.
    pub n: usize,
    /// Best case (minimum).
    pub best: f32,
    /// Arithmetic mean.
    pub mean: f32,
    /// Worst case (maximum).
    pub worst: f32,
    /// Median.
    pub p50: f32,
    /// 95th percentile.
    pub p95: f32,
    /// Standard deviation.
    pub std: f32,
}

impl ErrorStats {
    /// Computes the summary of a non-empty error sample.
    ///
    /// Returns an all-zero summary for an empty slice (a framework that was
    /// never evaluated reports zeros rather than NaNs).
    pub fn from_errors(errors: &[f32]) -> Self {
        if errors.is_empty() {
            return Self {
                n: 0,
                best: 0.0,
                mean: 0.0,
                worst: 0.0,
                p50: 0.0,
                p95: 0.0,
                std: 0.0,
            };
        }
        let mut sorted = errors.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f32>() / n as f32;
        let var = sorted.iter().map(|e| (e - mean) * (e - mean)).sum::<f32>() / n as f32;
        Self {
            n,
            best: sorted[0],
            mean,
            worst: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            std: var.sqrt(),
        }
    }
}

impl fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.2} m (best {:.2}, worst {:.2}, p95 {:.2}, n={})",
            self.mean, self.best, self.worst, self.p95, self.n
        )
    }
}

/// Linear-interpolated percentile of an already-sorted slice.
fn percentile(sorted: &[f32], q: f32) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = ErrorStats::from_errors(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.best, 0.0);
        assert_eq!(s.worst, 4.0);
        assert!((s.mean - 2.0).abs() < 1e-6);
        assert!((s.p50 - 2.0).abs() < 1e-6);
        assert!((s.std - 2.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let s = ErrorStats::from_errors(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.worst, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = ErrorStats::from_errors(&[2.5]);
        assert_eq!(s.best, 2.5);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.worst, 2.5);
        assert_eq!(s.p95, 2.5);
    }

    #[test]
    fn order_invariance() {
        let a = ErrorStats::from_errors(&[3.0, 1.0, 2.0]);
        let b = ErrorStats::from_errors(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn p95_tracks_the_tail() {
        let mut errors = vec![1.0f32; 99];
        errors.push(100.0);
        let s = ErrorStats::from_errors(&errors);
        assert!(s.p95 < 50.0, "p95 dominated by single outlier");
        assert_eq!(s.worst, 100.0);
    }

    #[test]
    fn display_mentions_mean_and_worst() {
        let s = ErrorStats::from_errors(&[1.0, 3.0]);
        let out = s.to_string();
        assert!(out.contains("mean 2.00"));
        assert!(out.contains("worst 3.00"));
    }
}
