//! Reconstruction-error threshold calibration.

use crate::config::RceMode;
use crate::fused::FusedNetwork;
use safeloc_nn::Matrix;

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
    fn calibrated_tau_accepts_clean_data() {
        let (net, x, _) = trained_net();
        let tau = calibrate_tau(&net, &x, RceMode::Relative, 0.95, 1.2);
        let rce = net.rce(&x, RceMode::Relative);
        let flagged = rce.iter().filter(|&&r| r > tau).count();
        assert!(
            flagged * 10 < rce.len(),
            "calibrated tau flags {flagged} of {} clean rows",
            rce.len()
        );
    }

    #[test]
    fn calibrated_tau_catches_gross_perturbations() {
        let (net, x, _) = trained_net();
        let tau = calibrate_tau(&net, &x, RceMode::Relative, 0.95, 1.2);
        let poisoned = x.map(|v| (v + 0.4).min(1.0));
        let rce = net.rce(&poisoned, RceMode::Relative);
        let flagged = rce.iter().filter(|&&r| r > tau).count();
        assert!(
            flagged * 2 > rce.len(),
            "calibrated tau flags only {flagged} of {} perturbed rows",
            rce.len()
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
