//! The end-to-end SAFELOC framework: fused network + RCE detection +
//! saliency-map aggregation, wired into the `safeloc-fl` engine.

use crate::config::SafeLocConfig;
use crate::detector::calibrate_tau;
use crate::fused::{FusedConfig, FusedNetwork};
use crate::saliency::SaliencyAggregator;
use rayon::prelude::*;
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    active_clients, Client, ClientUpdate, DefensePipeline, Framework, RoundPlan, RoundReport,
    ServerRound,
};
use safeloc_nn::{Adam, HasParams, Matrix, NamedParams, TrainConfig};

/// The SAFELOC framework (paper §IV).
///
/// Lifecycle (matching Fig. 2 and §IV):
///
/// 1. [`SafeLoc::pretrain`] — the fused network is trained on the server's
///    clean survey split with the joint CE + MSE loss.
/// 2. [`Framework::run_round`] — the GM is distributed to the round plan's
///    cohort; each participating client de-noises its local data through
///    the autoencoder (RCE > τ ⇒ replaced with its reconstruction,
///    neutralizing backdoor perturbations), retrains its LM for 5 epochs at
///    the reduced rate, and uploads it. The server runs its defense
///    pipeline — canonically the stage-less saliency composition
///    ([`SaliencyAggregator::into_pipeline`]), which suppresses the weight
///    deviations that label-flipped training produces; the returned
///    [`RoundReport`] records each update's mean
///    saliency as its acceptance weight. [`Framework::set_defense`]
///    swaps in any other composed pipeline (scenario-spec defense
///    ablations) without touching the client-side protocol.
/// 3. [`Framework::predict`] — detection-aware inference: flagged inputs
///    are classified from their re-encoded reconstruction.
#[derive(Clone)]
pub struct SafeLoc {
    net: FusedNetwork,
    /// The saliency configuration the default pipeline is built from
    /// (kept so sharpness/mode tweaks rebuild it).
    saliency: SaliencyAggregator,
    round: ServerRound,
    cfg: SafeLocConfig,
    /// p95 of the clean training data's RCE, calibrated at pretraining;
    /// τ is read relative to this baseline (`RceMode` says why).
    rce_baseline: f32,
}

impl std::fmt::Debug for SafeLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SafeLoc")
            .field("params", &self.net.num_params())
            .field("tau", &self.cfg.tau)
            .field("round", &self.round)
            .finish()
    }
}

impl SafeLoc {
    /// Creates the framework for a building with `input_dim` visible APs and
    /// `n_classes` reference points.
    pub fn new(input_dim: usize, n_classes: usize, cfg: SafeLocConfig) -> Self {
        let net = FusedNetwork::new(&FusedConfig {
            input_dim,
            encoder_dims: cfg.encoder_dims.clone(),
            decoder_hidden: cfg.decoder_hidden.clone(),
            n_classes,
            seed: cfg.seed,
        });
        let saliency = SaliencyAggregator::new(cfg.aggregation);
        Self {
            net,
            saliency,
            round: ServerRound::new("SAFELOC", saliency.into_pipeline()),
            cfg,
            rce_baseline: f32::INFINITY, // calibrated during pretrain
        }
    }

    /// The detection threshold in raw RCE units:
    /// `baseline · (1 + τ)`.
    pub fn effective_threshold(&self) -> f32 {
        self.rce_baseline * (1.0 + self.cfg.tau)
    }

    /// The calibrated clean-data RCE baseline (p95 of the training split).
    pub fn rce_baseline(&self) -> f32 {
        self.rce_baseline
    }

    /// The deployed fused network.
    pub fn network(&self) -> &FusedNetwork {
        &self.net
    }

    /// The active reconstruction threshold τ.
    pub fn tau(&self) -> f32 {
        self.cfg.tau
    }

    /// Replaces τ (Fig. 4 sweeps this on a pretrained model).
    pub fn set_tau(&mut self, tau: f32) {
        self.cfg.tau = tau;
    }

    /// Overrides the saliency sharpness (0 makes S ≡ 1, i.e. plain delta
    /// averaging — the ablation's "no saliency" variant). Rebuilds the
    /// canonical saliency pipeline, replacing any pipeline previously
    /// installed through [`Framework::set_defense`].
    pub fn set_saliency_sharpness(&mut self, sharpness: f32) {
        self.saliency.sharpness = sharpness;
        self.round.set_defense(self.saliency.into_pipeline());
    }

    /// The framework configuration.
    pub fn config(&self) -> &SafeLocConfig {
        &self.cfg
    }
}

impl Framework for SafeLoc {
    fn name(&self) -> &'static str {
        self.round.name()
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        self.net.fit_augmented(
            &train.x,
            &train.labels,
            &mut opt,
            &TrainConfig::new(self.cfg.pretrain_epochs, self.cfg.batch_size, self.cfg.seed),
            self.cfg.detach_decoder,
            self.cfg.recon_weight,
            self.cfg.augment.as_ref(),
        );
        // Calibrate the clean-data baseline the τ tolerance is read against.
        // The server knows phones vary, so the baseline is measured on a
        // device-augmented replica of its survey split — otherwise clean
        // data from unseen phones would sit above any small τ.
        let calib_x = match &self.cfg.augment {
            Some(a) => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(self.cfg.seed ^ 0xCA11B);
                a.apply(&train.x, &mut rng)
            }
            None => train.x.clone(),
        };
        self.rce_baseline = calibrate_tau(&self.net, &calib_x, self.cfg.rce_mode, 0.95, 1.0);
    }

    /// Clients are independent — each de-noises and retrains its own clone
    /// of the fused GM — so the participating cohort runs in parallel.
    /// Per-client seed streams and order-preserving collection keep the
    /// round bitwise-identical across thread counts.
    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        let cfg = &self.cfg;
        let threshold = self.effective_threshold();
        self.round.run(
            &mut self.net,
            clients,
            |net, clients, gm_snapshot, round_salt| {
                let n_classes = net.n_classes();
                let updates = active_clients(clients, plan)
                    .into_par_iter()
                    .map(|c| {
                        // 1. A backdoor attacker perturbs the RSS feed before
                        //    the pipeline sees it (Fig. 2).
                        let base = c.base_labels(net, &cfg.local);
                        let x = c.round_rss(net, &base, n_classes);
                        // 2. Client-side poison detection + de-noising
                        //    (§IV.A): rows whose RCE exceeds τ are replaced
                        //    by their reconstructions, neutralizing the
                        //    perturbation.
                        let (den_x, _) = net.denoise_matrix(&x, threshold, cfg.rce_mode);
                        // 3. Labeling per protocol — under self-training the
                        //    labels come from the *de-noised* input, which is
                        //    what defeats the backdoor payload.
                        let labels = match cfg.local.labeling {
                            safeloc_fl::LabelingMode::SelfTrain => net.predict(&den_x),
                            safeloc_fl::LabelingMode::Surveyed => c.local.labels.clone(),
                        };
                        // 4. A label-flipping attacker corrupts the final
                        //    labels — invisible to the client-side defense by
                        //    construction.
                        let labels = c.round_labels(labels, n_classes);
                        // 5. Lightweight local retraining of the fused LM.
                        let mut lm = net.clone();
                        let mut opt = Adam::new(cfg.local.learning_rate);
                        let n = den_x.rows();
                        lm.fit_augmented(
                            &den_x,
                            &labels,
                            &mut opt,
                            &TrainConfig::new(
                                cfg.local.epochs,
                                cfg.local.batch_size,
                                c.seed ^ round_salt,
                            ),
                            cfg.detach_decoder,
                            cfg.recon_weight,
                            cfg.augment.as_ref(),
                        );
                        let params = c.finalize_params(gm_snapshot, lm.snapshot());
                        c.build_update(gm_snapshot, params, n)
                    })
                    .collect::<Vec<ClientUpdate>>();
                (updates, plan.clone())
            },
        )
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.net
            .predict_with_detection(x, self.effective_threshold(), self.cfg.rce_mode)
            .labels
    }

    fn num_params(&self) -> usize {
        self.net.num_params()
    }

    fn global_params(&self) -> NamedParams {
        self.net.snapshot()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_defense(&mut self, defense: DefensePipeline) {
        // The client-side detector/de-noiser is untouched: only the
        // server-side combination rule is swapped, which is exactly the
        // ablation axis ("SAFELOC's pipeline with X instead of saliency").
        self.round.set_defense(defense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(6), &DatasetConfig::tiny(), 6)
    }

    fn run_full_rounds(f: &mut SafeLoc, clients: &mut [Client], n: usize) {
        let plan = RoundPlan::full(clients.len());
        for _ in 0..n {
            f.run_round(clients, &plan);
        }
    }

    fn pretrained(data: &BuildingDataset) -> SafeLoc {
        let mut f = SafeLoc::new(
            data.building.num_aps(),
            data.building.num_rps(),
            SafeLocConfig::tiny(),
        );
        f.pretrain(&data.server_train);
        f
    }

    #[test]
    fn pretraining_learns_the_survey_split() {
        let data = dataset();
        let f = pretrained(&data);
        let acc = f
            .network()
            .accuracy(&data.server_train.x, &data.server_train.labels);
        assert!(acc > 0.8, "pretrain accuracy {acc}");
    }

    #[test]
    fn clean_rounds_preserve_accuracy() {
        let data = dataset();
        let mut f = pretrained(&data);
        let before = f.accuracy(&data.server_train.x, &data.server_train.labels);
        let mut clients = Client::from_dataset(&data, 0);
        run_full_rounds(&mut f, &mut clients, 3);
        let after = f.accuracy(&data.server_train.x, &data.server_train.labels);
        assert!(
            after > before - 0.25,
            "clean rounds collapsed accuracy {before} -> {after}"
        );
    }

    #[test]
    fn survives_full_label_flip_attacker() {
        let data = dataset();
        let mut f = pretrained(&data);
        let eval = &data.client_test[0];
        let before = f.accuracy(&eval.x, &eval.labels);
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 5));
        run_full_rounds(&mut f, &mut clients, 4);
        let after = f.accuracy(&eval.x, &eval.labels);
        assert!(
            after > before - 0.3,
            "label-flip attacker broke SAFELOC: {before} -> {after}"
        );
    }

    #[test]
    fn survives_fgsm_attacker() {
        let data = dataset();
        let mut f = pretrained(&data);
        let eval = &data.client_test[0];
        let before = f.accuracy(&eval.x, &eval.labels);
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector = Some(PoisonInjector::new(Attack::fgsm(0.5), 5));
        run_full_rounds(&mut f, &mut clients, 4);
        let after = f.accuracy(&eval.x, &eval.labels);
        assert!(
            after > before - 0.3,
            "FGSM attacker broke SAFELOC: {before} -> {after}"
        );
    }

    #[test]
    fn round_is_deterministic() {
        let data = dataset();
        let run = || {
            let mut f = pretrained(&data);
            let mut clients = Client::from_dataset(&data, 0);
            run_full_rounds(&mut f, &mut clients, 1);
            f.network().snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tau_is_adjustable() {
        let data = dataset();
        let mut f = pretrained(&data);
        f.set_tau(0.3);
        assert!((f.tau() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn debug_shows_configuration() {
        let data = dataset();
        let f = pretrained(&data);
        let s = format!("{f:?}");
        assert!(s.contains("tau"));
        assert!(s.contains("SafeLoc"));
    }
}
