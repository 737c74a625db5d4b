//! ONLAD (Tsukada et al., IEEE TC 2020): on-device autoencoder anomaly
//! detection + separate localization DNN, aggregated with FedAvg.

use crate::arch::{onlad_detector_dims, onlad_localizer_dims};
use safeloc_dataset::FingerprintSet;
use safeloc_fl::client::train_sequential_lm;
use safeloc_fl::{
    Client, DefensePipeline, Framework, RoundPlan, RoundReport, ServerConfig, ServerRound,
};
use safeloc_nn::{Activation, Adam, HasParams, Matrix, NamedParams, Sequential, TrainConfig};

/// ONLAD: two separate models — an on-device semi-supervised autoencoder
/// that flags anomalous *samples* before local training, and a conventional
/// localization DNN aggregated with FedAvg.
///
/// The paper ranks it second overall: sample-level detection blunts
/// backdoors, but FedAvg still admits the noisy weight tensors produced by
/// label-flipped training (labels are invisible to the detector). The
/// original uses an OS-ELM autoencoder updated online; here the detector is
/// a gradient-trained AE calibrated server-side and kept fixed on device
/// (`safeloc-nn` trains by gradient descent only).
#[derive(Clone)]
pub struct Onlad {
    localizer: Sequential,
    detector: Sequential,
    threshold: f32,
    round: ServerRound,
    cfg: ServerConfig,
}

impl std::fmt::Debug for Onlad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Onlad")
            .field("params", &self.num_params())
            .field("threshold", &self.threshold)
            .field("round", &self.round)
            .finish()
    }
}

impl Onlad {
    /// Creates ONLAD for a building.
    pub fn new(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> Self {
        Self {
            localizer: Sequential::mlp(
                &onlad_localizer_dims(input_dim, n_classes),
                Activation::Relu,
                cfg.seed,
            ),
            detector: Sequential::mlp(
                &onlad_detector_dims(input_dim),
                Activation::Relu,
                cfg.seed ^ 0xDE7EC7,
            ),
            threshold: f32::INFINITY, // calibrated during pretrain
            round: ServerRound::new("ONLAD", DefensePipeline::fedavg()),
            cfg,
        }
    }
}

/// Indices of the rows the on-device detector keeps (RCE within the
/// calibrated threshold) — free-standing so the parallel client step can
/// borrow just the detector model, not the whole (non-`Sync`) framework.
fn keep_indices(detector: &Sequential, threshold: f32, x: &Matrix) -> Vec<usize> {
    detector
        .relative_reconstruction_error(x)
        .iter()
        .enumerate()
        .filter(|(_, &r)| r <= threshold)
        .map(|(i, _)| i)
        .collect()
}

impl Framework for Onlad {
    fn name(&self) -> &'static str {
        self.round.name()
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        // Localizer: standard classification pretraining.
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        self.localizer.fit_classifier(
            &train.x,
            &train.labels,
            &mut opt,
            &TrainConfig::new(self.cfg.pretrain_epochs, self.cfg.batch_size, self.cfg.seed),
        );
        // Detector: autoencoder on the clean survey split.
        let mut ae_opt = Adam::new(self.cfg.pretrain_lr);
        self.detector.fit_autoencoder(
            &train.x,
            &mut ae_opt,
            &TrainConfig::new(
                self.cfg.pretrain_epochs,
                self.cfg.batch_size,
                self.cfg.seed ^ 1,
            ),
        );
        // Calibrate the sample-level threshold at p95 of clean RCE × 1.3.
        let mut rce = self.detector.relative_reconstruction_error(&train.x);
        rce.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((rce.len() - 1) as f32 * 0.95).round() as usize;
        self.threshold = rce[idx] * 1.3;
    }

    /// A client whose every row the detector flags sits the round out.
    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        let detector = &self.detector;
        let threshold = self.threshold;
        let local = &self.cfg.local;
        self.round.run_in_process(
            &mut self.localizer,
            clients,
            plan,
            |c, localizer, gm_params, round_salt| {
                c.round_update(
                    localizer,
                    gm_params,
                    localizer.out_dim(),
                    round_salt,
                    |x| {
                        let keep = keep_indices(detector, threshold, &x);
                        (!keep.is_empty()).then(|| safeloc_nn::gather_rows(&x, &keep))
                    },
                    |set, seed| train_sequential_lm(localizer, set, local, seed),
                )
            },
        )
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.localizer.predict(x)
    }

    fn num_params(&self) -> usize {
        self.localizer.num_params() + self.detector.num_params()
    }

    fn global_params(&self) -> NamedParams {
        // Only the localizer is federated; the detector is calibrated
        // server-side and never rewritten by a round.
        self.localizer.snapshot()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_defense(&mut self, defense: DefensePipeline) {
        // Only the server-side combination rule is swapped; the on-device
        // detector keeps screening samples in front of whatever runs here.
        self.round.set_defense(defense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3)
    }

    fn pretrained(data: &BuildingDataset) -> Onlad {
        let mut f = Onlad::new(
            data.building.num_aps(),
            data.building.num_rps(),
            ServerConfig::tiny(),
        );
        f.pretrain(&data.server_train);
        f
    }

    #[test]
    fn pretrain_calibrates_threshold() {
        let data = dataset();
        let f = pretrained(&data);
        assert!(f.threshold.is_finite());
        assert!(f.threshold > 0.0);
        assert!(f.accuracy(&data.server_train.x, &data.server_train.labels) > 0.7);
    }

    #[test]
    fn detector_drops_perturbed_samples() {
        let data = dataset();
        let f = pretrained(&data);
        let clean_keep = keep_indices(&f.detector, f.threshold, &data.server_train.x);
        assert!(
            clean_keep.len() as f32 >= data.server_train.len() as f32 * 0.8,
            "detector drops too much clean data"
        );
        let poisoned = data.server_train.x.map(|v| (v + 0.5).min(1.0));
        let poisoned_keep = keep_indices(&f.detector, f.threshold, &poisoned);
        assert!(
            poisoned_keep.len() < clean_keep.len(),
            "detector blind to perturbations"
        );
    }

    #[test]
    fn backdoor_rounds_stay_stable() {
        let data = dataset();
        let mut f = pretrained(&data);
        let eval = &data.client_test[0];
        let before = f.accuracy(&eval.x, &eval.labels);
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector = Some(PoisonInjector::new(Attack::fgsm(0.6), 7));
        let plan = RoundPlan::full(clients.len());
        for _ in 0..3 {
            f.run_round(&mut clients, &plan);
        }
        let after = f.accuracy(&eval.x, &eval.labels);
        assert!(
            after > before - 0.35,
            "ONLAD collapsed under backdoor: {before} -> {after}"
        );
    }

    #[test]
    fn counts_both_models() {
        let f = Onlad::new(100, 20, ServerConfig::tiny());
        assert_eq!(
            f.num_params(),
            f.localizer.num_params() + f.detector.num_params()
        );
    }
}
