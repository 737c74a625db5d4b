//! SAFELOC hyperparameters.

use crate::saliency::AggregationMode;
use safeloc_fl::LocalTrainConfig;
use serde::{Deserialize, Serialize};

/// How the per-sample reconstruction error is computed.
///
/// The paper sweeps τ over `[0, 0.5]` and calls τ = 0.1
/// "10% variance", which only types as a *relative* error; a raw MSE on
/// `[0,1]` inputs lives orders of magnitude lower. Relative mode is the
/// default; raw-MSE mode is kept for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RceMode {
    /// `‖x − x̂‖₂ / (‖x‖₂ + 1e-9)` — relative L2 reconstruction error.
    Relative,
    /// Per-row mean-squared error, as the raw text of §IV.A reads.
    MeanSquared,
}

/// Full SAFELOC configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SafeLocConfig {
    /// Encoder widths after the input layer (paper: `[128, 89, 62]`; the
    /// last entry is the bottleneck).
    pub encoder_dims: Vec<usize>,
    /// Decoder hidden widths (paper: `[89]`; the reconstruction layer back
    /// to the input width is appended automatically).
    pub decoder_hidden: Vec<usize>,
    /// Reconstruction-error threshold τ (paper's optimum: 0.1), read as the
    /// *tolerated fractional increase* of a sample's reconstruction error
    /// over the clean-data baseline calibrated at pretraining — the paper's
    /// "allowing a 10% variance". A sample is flagged when
    /// `RCE > baseline · (1 + τ)`.
    pub tau: f32,
    /// RCE computation mode.
    pub rce_mode: RceMode,
    /// Saliency aggregation mode (Eq. 9 interpretation).
    pub aggregation: AggregationMode,
    /// Stop reconstruction gradients at the bottleneck so the encoder is
    /// trained by the classification loss only (§IV.A's "freeze the
    /// gradients from the encoder"). `false` trains jointly (ablation).
    pub detach_decoder: bool,
    /// Weight of the reconstruction (MSE) loss relative to the
    /// classification loss during training. Reconstruction quality bounds
    /// the de-noising path's accuracy, so it is trained harder.
    pub recon_weight: f32,
    /// Device-heterogeneity augmentation during training; `None` (the
    /// paper-faithful default) trains on the raw survey split. Enabling it
    /// is this repository's extension: clean cross-device error drops ~4×,
    /// at the cost of masking the de-noising path's contribution (the
    /// augment-hardened classifier resists the perturbations by itself).
    pub augment: Option<crate::fused::DaeAugment>,
    /// Server-side pretraining epochs (paper: 700).
    pub pretrain_epochs: usize,
    /// Server-side learning rate (paper: 1e-3).
    pub pretrain_lr: f32,
    /// Server-side batch size.
    pub batch_size: usize,
    /// Client-side protocol (paper: 5 epochs @ 1e-4).
    pub local: LocalTrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl SafeLocConfig {
    /// The paper's configuration (§V.A).
    pub fn paper(seed: u64) -> Self {
        Self {
            encoder_dims: vec![128, 89, 62],
            decoder_hidden: vec![89],
            tau: 0.1,
            rce_mode: RceMode::Relative,
            aggregation: AggregationMode::Normalized,
            detach_decoder: true,
            recon_weight: 6.0,
            // The paper trains on the raw survey split. Heterogeneity
            // augmentation (DaeAugment) is this repository's optional
            // extension: it roughly quarters SAFELOC's clean error but also
            // hardens the classifier enough to mask the de-noising path's
            // contribution (`scenarios/ablation.json`, `WithAugment`).
            augment: None,
            pretrain_epochs: 700,
            pretrain_lr: 1e-3,
            batch_size: 32,
            local: LocalTrainConfig::paper(),
            seed,
        }
    }

    /// Scaled-down defaults that converge on the synthetic data (benches).
    /// Client learning rate is raised to 3e-3 to compress the paper's
    /// long-running deployment into 5 rounds.
    pub fn default_scale(seed: u64) -> Self {
        Self {
            pretrain_epochs: 150,
            local: LocalTrainConfig {
                learning_rate: 3e-3,
                ..LocalTrainConfig::paper()
            },
            ..Self::paper(seed)
        }
    }

    /// Tiny configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            encoder_dims: vec![24, 12],
            decoder_hidden: vec![24],
            tau: 0.1,
            rce_mode: RceMode::Relative,
            aggregation: AggregationMode::Normalized,
            detach_decoder: true,
            recon_weight: 4.0,
            augment: Some(crate::fused::DaeAugment::paper()),
            pretrain_epochs: 250,
            pretrain_lr: 1e-2,
            batch_size: 16,
            local: LocalTrainConfig {
                epochs: 2,
                learning_rate: 3e-4,
                batch_size: 8,
                ..LocalTrainConfig::default()
            },
            seed: 0,
        }
    }

    /// Replaces τ (used by the Fig. 4 sweep).
    pub fn with_tau(mut self, tau: f32) -> Self {
        self.tau = tau;
        self
    }

    /// Replaces the aggregation mode (used by the ablation bench).
    pub fn with_aggregation(mut self, mode: AggregationMode) -> Self {
        self.aggregation = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_v_a() {
        let c = SafeLocConfig::paper(0);
        assert_eq!(c.encoder_dims, vec![128, 89, 62]);
        assert_eq!(c.decoder_hidden, vec![89]);
        assert!((c.tau - 0.1).abs() < 1e-6);
        assert_eq!(c.pretrain_epochs, 700);
        assert!((c.pretrain_lr - 1e-3).abs() < 1e-9);
        assert_eq!(c.local.epochs, 5);
        assert!((c.local.learning_rate - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn builders_replace_fields() {
        let c = SafeLocConfig::tiny()
            .with_tau(0.3)
            .with_aggregation(AggregationMode::Literal);
        assert!((c.tau - 0.3).abs() < 1e-6);
        assert_eq!(c.aggregation, AggregationMode::Literal);
    }
}
