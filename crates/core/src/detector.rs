//! Reconstruction-error threshold calibration and detection reporting.

use crate::config::RceMode;
use crate::fused::FusedNetwork;
use safeloc_nn::Matrix;
use serde::{Deserialize, Serialize};

/// Summary of a detection pass over a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Threshold used.
    pub tau: f32,
    /// Rows flagged as poisoned.
    pub flagged: usize,
    /// Total rows inspected.
    pub total: usize,
    /// Mean RCE over the batch.
    pub mean_rce: f32,
    /// Maximum RCE over the batch.
    pub max_rce: f32,
}

impl DetectionReport {
    /// Builds a report from per-row RCE values and a threshold.
    pub fn from_rce(rce: &[f32], tau: f32) -> Self {
        let flagged = rce.iter().filter(|&&r| r > tau).count();
        let mean = if rce.is_empty() {
            0.0
        } else {
            rce.iter().sum::<f32>() / rce.len() as f32
        };
        Self {
            tau,
            flagged,
            total: rce.len(),
            mean_rce: mean,
            max_rce: rce.iter().cloned().fold(0.0, f32::max),
        }
    }

    /// Fraction of rows flagged.
    pub fn flag_rate(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.flagged as f32 / self.total as f32
        }
    }
}

/// Calibrates τ from *clean* training data: the `quantile` of the clean RCE
/// distribution times a safety `margin`.
///
/// The paper fixes τ = 0.1 after the Fig. 4 sweep; this helper reproduces
/// how such a threshold is derived from data (the server holds the clean
/// survey split, so it can measure the clean RCE distribution directly).
///
/// # Panics
///
/// Panics if `x` has no rows.
pub fn calibrate_tau(
    net: &FusedNetwork,
    x: &Matrix,
    mode: RceMode,
    quantile: f32,
    margin: f32,
) -> f32 {
    assert!(x.rows() > 0, "cannot calibrate on an empty batch");
    let mut rce = net.rce(x, mode);
    rce.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((quantile.clamp(0.0, 1.0)) * (rce.len() - 1) as f32).round() as usize;
    rce[idx] * margin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::FusedConfig;
    use safeloc_nn::{Adam, TrainConfig};

    fn trained_net() -> (FusedNetwork, Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for j in 0..8usize {
                let row: Vec<f32> = (0..8)
                    .map(|i| {
                        let base = ((c * 3 + i) % 5) as f32 / 5.0;
                        (base + 0.02 * (j % 3) as f32).min(1.0)
                    })
                    .collect();
                rows.push(row);
                labels.push(c);
            }
        }
        let x = Matrix::from_rows(&rows);
        let mut net = FusedNetwork::new(&FusedConfig {
            input_dim: 8,
            encoder_dims: vec![10, 5],
            decoder_hidden: vec![10],
            n_classes: 3,
            seed: 3,
        });
        let mut opt = Adam::new(5e-3);
        net.fit_augmented(
            &x,
            &labels,
            &mut opt,
            &TrainConfig::new(300, 0, 3),
            true,
            1.0,
            None,
        );
        (net, x, labels)
    }

    #[test]
    fn report_counts_flags() {
        let r = DetectionReport::from_rce(&[0.05, 0.2, 0.15, 0.01], 0.1);
        assert_eq!(r.flagged, 2);
        assert_eq!(r.total, 4);
        assert!((r.flag_rate() - 0.5).abs() < 1e-6);
        assert!((r.max_rce - 0.2).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = DetectionReport::from_rce(&[], 0.1);
        assert_eq!(r.flag_rate(), 0.0);
        assert_eq!(r.total, 0);
    }

    #[test]
    fn calibrated_tau_accepts_clean_data() {
        let (net, x, _) = trained_net();
        let tau = calibrate_tau(&net, &x, RceMode::Relative, 0.95, 1.2);
        let report = DetectionReport::from_rce(&net.rce(&x, RceMode::Relative), tau);
        assert!(
            report.flag_rate() < 0.1,
            "calibrated tau flags clean data: {}",
            report.flag_rate()
        );
    }

    #[test]
    fn calibrated_tau_catches_gross_perturbations() {
        let (net, x, _) = trained_net();
        let tau = calibrate_tau(&net, &x, RceMode::Relative, 0.95, 1.2);
        let poisoned = x.map(|v| (v + 0.4).min(1.0));
        let report = DetectionReport::from_rce(&net.rce(&poisoned, RceMode::Relative), tau);
        assert!(
            report.flag_rate() > 0.5,
            "calibrated tau missed perturbations: {}",
            report.flag_rate()
        );
    }

    #[test]
    fn higher_quantile_gives_looser_tau() {
        let (net, x, _) = trained_net();
        let tight = calibrate_tau(&net, &x, RceMode::Relative, 0.5, 1.0);
        let loose = calibrate_tau(&net, &x, RceMode::Relative, 1.0, 1.0);
        assert!(loose >= tight);
    }
}
