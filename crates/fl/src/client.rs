//! FL clients: local data, optional poisoning, and the client-side
//! training protocol.

use crate::delta::DeltaCompressor;
use crate::update::ClientUpdate;
use safeloc_attacks::{GradientSource, PoisonInjector};
use safeloc_dataset::{BuildingDataset, FingerprintSet};
use safeloc_nn::{Adam, HasParams, Matrix, NamedParams, Sequential, TrainConfig};
use serde::{Deserialize, Serialize};

/// Client-side training protocol.
///
/// The paper uses 5 epochs at a reduced learning rate of `1e-4` for
/// lightweight on-device training. Clients always label their RSS with
/// the GM's own predictions before retraining (§III), which is also what
/// arms the attacks: a backdoor perturbation makes those predictions
/// wrong, so the poisoned LM trains toward wrong locations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Local epochs (paper: 5).
    pub epochs: usize,
    /// Local learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// Mini-batch size (0 = full batch).
    pub batch_size: usize,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            learning_rate: 1e-4,
            batch_size: 16,
        }
    }
}

impl LocalTrainConfig {
    /// The paper's client configuration.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// A federated client: one phone with its local fingerprints.
///
/// A `Some` injector marks the client as malicious; its local data is
/// poisoned before every local training pass, as in §III of the paper.
#[derive(Debug, Clone)]
pub struct Client {
    /// Client identifier (index into the fleet).
    pub id: usize,
    /// Device name, for reports.
    pub device_name: String,
    /// Local fingerprints with surveyed labels.
    pub local: FingerprintSet,
    /// Poisoner, if the client is compromised.
    pub injector: Option<PoisonInjector>,
    /// Per-client seed stream for local training.
    pub seed: u64,
    /// Delta compressor with its error-feedback residual, if the client
    /// uploads compressed updates. `None` keeps the exact dense path.
    pub compressor: Option<DeltaCompressor>,
}

impl Client {
    /// Builds the client fleet of a [`BuildingDataset`], all clean.
    pub fn from_dataset(data: &BuildingDataset, seed: u64) -> Vec<Client> {
        (0..data.client_local.len())
            .map(|i| Client::single_from_dataset(data, seed, i))
            .collect()
    }

    /// Builds one client of the fleet `from_dataset(data, seed)` would
    /// build, without materializing the others. Generating fleet
    /// providers use this to bound peak memory by cohort size.
    pub fn single_from_dataset(data: &BuildingDataset, seed: u64, i: usize) -> Client {
        Client {
            id: i,
            device_name: data.devices[i].name.clone(),
            local: data.client_local[i].clone(),
            injector: None,
            seed: seed ^ ((i as u64 + 1) << 32),
            compressor: None,
        }
    }

    /// `true` if the client carries a poison injector.
    pub fn is_malicious(&self) -> bool {
        self.injector.is_some()
    }

    /// The update this client actually uploads: honest clients return the
    /// trained LM as-is; a malicious client amplifies its delta from the GM
    /// by its injector's boost factor (model replacement — see
    /// [`PoisonInjector::with_boost`]).
    pub fn finalize_params(&self, gm: &NamedParams, lm: NamedParams) -> NamedParams {
        let boost = self.injector.as_ref().map(|i| i.boost()).unwrap_or(1.0);
        if (boost - 1.0).abs() < 1e-9 {
            return lm;
        }
        let mut out = gm.clone();
        out.axpy(boost, &lm.delta(gm));
        out
    }

    /// Packages finalized LM weights into the [`ClientUpdate`] this client
    /// uploads. Without a compressor this is exactly [`ClientUpdate::new`]
    /// (the bitwise-pinned dense path). With one, the delta from the GM is
    /// compressed under error feedback and the update's parameters are
    /// re-materialized as `GM + decode(repr)`, so the server and every
    /// defense screen exactly what crossed the wire.
    pub fn build_update(
        &mut self,
        gm: &NamedParams,
        params: NamedParams,
        num_samples: usize,
    ) -> ClientUpdate {
        let Some(compressor) = &mut self.compressor else {
            return ClientUpdate::new(self.id, params, num_samples);
        };
        let flat = params.delta(gm).flatten();
        let (repr, decoded) = compressor.compress(flat.as_slice());
        let mut out = gm.clone();
        out.add_flat(&decoded);
        ClientUpdate::with_repr(self.id, out, num_samples, repr)
    }

    /// The client's training set this round, `None` when `screen` kept no
    /// row:
    ///
    /// 1. a backdoor attacker labels the raw RSS and perturbs the sensor
    ///    feed *before* any framework logic runs (paper Fig. 2), using
    ///    gradients of `gm` against those labels (nobody else reads the
    ///    raw-RSS labels, so nobody else pays for them);
    /// 2. the engine's on-device `screen`;
    /// 3. label the screened rows with the GM's predictions (a perturbed
    ///    row the screen let through yields a *wrong* prediction — the
    ///    backdoor's payload);
    /// 4. a label flipper flips the final labels *after* the framework's
    ///    own steps (§IV), so no client-side defense can see the flip.
    fn round_data(
        &mut self,
        gm: &(impl GradientSource + PredictLabels),
        n_classes: usize,
        screen: impl FnOnce(Matrix) -> Option<Matrix>,
    ) -> Option<FingerprintSet> {
        let x = match &mut self.injector {
            Some(inj) if inj.attack().kind().is_backdoor() => {
                let base = gm.predict_labels(&self.local.x);
                let set = FingerprintSet::new(self.local.x.clone(), base);
                inj.poison_set(&set, gm, n_classes).x
            }
            _ => self.local.x.clone(),
        };
        let x = screen(x)?;
        let labels = gm.predict_labels(&x);
        let labels = match &mut self.injector {
            Some(inj) => inj.poison_labels(&labels, n_classes),
            None => labels,
        };
        Some(FingerprintSet::new(x, labels))
    }

    /// The client's training set this round with no on-device screen.
    /// `_cfg` is not read (every client self-labels); `benchmark/` still
    /// passes it.
    pub fn prepare_round_data(
        &mut self,
        gm: &(impl GradientSource + PredictLabels),
        n_classes: usize,
        _cfg: &LocalTrainConfig,
    ) -> FingerprintSet {
        self.round_data(gm, n_classes, Some)
            .expect("an identity screen keeps every row")
    }

    /// The whole client side of a round, written once for every engine and
    /// transport: the training set under the engine's on-device `screen`,
    /// `train(set, self.seed ^ round_salt)`, [`Client::finalize_params`]
    /// and [`Client::build_update`]. `gm_params` is `gm`'s snapshot.
    ///
    /// `screen` returns the rows to train on, or `None` if it kept no row:
    /// the identity (`Some`) for the `Sequential` engines, de-noising for
    /// SAFELOC, the detector's row filter for ONLAD. A client whose screen
    /// keeps no row sits the round out: it uploads the GM unchanged with
    /// zero samples. An identity screen never sits a client out, not even
    /// one with no local rows.
    pub fn round_update(
        &mut self,
        gm: &(impl GradientSource + PredictLabels),
        gm_params: &NamedParams,
        n_classes: usize,
        round_salt: u64,
        screen: impl FnOnce(Matrix) -> Option<Matrix>,
        train: impl FnOnce(&FingerprintSet, u64) -> NamedParams,
    ) -> ClientUpdate {
        let Some(set) = self.round_data(gm, n_classes, screen) else {
            return ClientUpdate::new(self.id, gm_params.clone(), 0);
        };
        let lm = train(&set, self.seed ^ round_salt);
        let lm = self.finalize_params(gm_params, lm);
        self.build_update(gm_params, lm, set.len())
    }

    /// [`Client::round_update`] for a [`Sequential`] GM with no screen:
    /// the client step of [`SequentialFlServer`](crate::SequentialFlServer)
    /// and `safeloc_wire::run_remote_client`.
    pub fn sequential_update(
        &mut self,
        gm: &Sequential,
        gm_params: &NamedParams,
        cfg: &LocalTrainConfig,
        round_salt: u64,
    ) -> ClientUpdate {
        self.round_update(
            gm,
            gm_params,
            gm.out_dim(),
            round_salt,
            Some,
            |set, seed| train_sequential_lm(gm, set, cfg, seed),
        )
    }
}

/// Label prediction, implemented by every global model type so clients can
/// self-label.
pub trait PredictLabels {
    /// Predicted RP label per row of `x`.
    fn predict_labels(&self, x: &Matrix) -> Vec<usize>;
}

impl PredictLabels for Sequential {
    fn predict_labels(&self, x: &Matrix) -> Vec<usize> {
        self.predict(x)
    }
}

/// Runs the standard client-side local training for a [`Sequential`] LM:
/// clone the GM, train `cfg.epochs` at `cfg.learning_rate`, return the LM
/// parameters.
pub fn train_sequential_lm(
    gm: &Sequential,
    set: &FingerprintSet,
    cfg: &LocalTrainConfig,
    seed: u64,
) -> NamedParams {
    let mut lm = gm.clone();
    let mut opt = Adam::new(cfg.learning_rate);
    lm.fit_classifier(
        &set.x,
        &set.labels,
        &mut opt,
        &TrainConfig::new(cfg.epochs, cfg.batch_size, seed),
    );
    lm.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_attacks::Attack;
    use safeloc_dataset::{Building, DatasetConfig};
    use safeloc_nn::Activation;

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(2), &DatasetConfig::tiny(), 5)
    }

    fn gm(data: &BuildingDataset) -> Sequential {
        Sequential::mlp(
            &[data.building.num_aps(), 16, data.building.num_rps()],
            Activation::Relu,
            1,
        )
    }

    #[test]
    fn fleet_construction() {
        let data = dataset();
        let clients = Client::from_dataset(&data, 0);
        assert_eq!(clients.len(), data.num_clients());
        assert!(clients.iter().all(|c| !c.is_malicious()));
        assert_eq!(clients[0].device_name, data.devices[0].name);
        // Distinct seeds per client.
        assert_ne!(clients[0].seed, clients[1].seed);
    }

    #[test]
    fn self_train_uses_model_predictions() {
        let data = dataset();
        let mut clients = Client::from_dataset(&data, 0);
        let model = gm(&data);
        let set = clients[0].prepare_round_data(
            &model,
            data.building.num_rps(),
            &LocalTrainConfig::default(),
        );
        assert_eq!(set.labels, model.predict(&data.client_local[0].x));
    }

    #[test]
    fn backdoor_attacker_poisons_rss_before_labeling() {
        let data = dataset();
        let mut clients = Client::from_dataset(&data, 0);
        clients[0].injector = Some(PoisonInjector::new(Attack::fgsm(0.4), 3));
        let model = gm(&data);
        let set = clients[0].prepare_round_data(
            &model,
            data.building.num_rps(),
            &LocalTrainConfig::default(),
        );
        // RSS perturbed...
        assert_ne!(set.x, data.client_local[0].x);
        // ...and labels are the GM's predictions on the *poisoned* RSS.
        assert_eq!(set.labels, model.predict(&set.x));
    }

    #[test]
    fn label_flip_applies_after_labeling() {
        let data = dataset();
        let mut clients = Client::from_dataset(&data, 0);
        clients[0].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 3));
        let model = gm(&data);
        let set = clients[0].prepare_round_data(
            &model,
            data.building.num_rps(),
            &LocalTrainConfig::default(),
        );
        assert_eq!(set.x, data.client_local[0].x, "label flip must keep RSS");
        let predicted = model.predict(&set.x);
        let flips = set
            .labels
            .iter()
            .zip(&predicted)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(flips, set.len(), "every predicted label should be flipped");
    }

    /// A GM that counts its `predict_labels` calls.
    struct CountingGm<'a> {
        gm: &'a Sequential,
        predicts: std::cell::Cell<usize>,
    }

    impl PredictLabels for CountingGm<'_> {
        fn predict_labels(&self, x: &Matrix) -> Vec<usize> {
            self.predicts.set(self.predicts.get() + 1);
            self.gm.predict_labels(x)
        }
    }

    impl GradientSource for CountingGm<'_> {
        fn loss_input_gradient(&self, x: &Matrix, labels: &[usize]) -> Matrix {
            self.gm.loss_input_gradient(x, labels)
        }
    }

    /// Self-training labels the raw RSS only for a backdoor attacker, the
    /// one reader of those labels: a label flipper predicts once per round
    /// (the rows it trains on), a backdoor attacker twice (the raw rows
    /// its perturbation is aimed with, then the perturbed rows). Both
    /// build the set the label-raw-rows-first order built, drawn here from
    /// a second injector on the same stream.
    #[test]
    fn only_a_backdoor_client_labels_its_raw_rss() {
        let data = dataset();
        let model = gm(&data);
        let n = data.building.num_rps();
        let local = &data.client_local[0];
        for (attack, predicts) in [(Attack::label_flip(1.0), 1), (Attack::fgsm(0.4), 2)] {
            let mut clients = Client::from_dataset(&data, 0);
            clients[0].injector = Some(PoisonInjector::new(attack.clone(), 3));
            let counting = CountingGm {
                gm: &model,
                predicts: std::cell::Cell::new(0),
            };
            let set = clients[0].prepare_round_data(&counting, n, &LocalTrainConfig::default());
            assert_eq!(counting.predicts.get(), predicts, "{attack:?}");

            let mut inj = PoisonInjector::new(attack.clone(), 3);
            let base = FingerprintSet::new(local.x.clone(), model.predict(&local.x));
            let x = match attack.kind().is_backdoor() {
                true => inj.poison_set(&base, &model, n).x,
                false => local.x.clone(),
            };
            let labels = inj.poison_labels(&model.predict(&x), n);
            assert_eq!(set, FingerprintSet::new(x, labels), "{attack:?}");
        }
    }

    #[test]
    fn malicious_client_poisons_data() {
        let data = dataset();
        let mut clients = Client::from_dataset(&data, 0);
        clients[1].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 9));
        assert!(clients[1].is_malicious());
        let model = gm(&data);
        let set = clients[1].prepare_round_data(
            &model,
            data.building.num_rps(),
            &LocalTrainConfig::default(),
        );
        assert_ne!(set.labels, model.predict(&set.x));
    }

    /// A screen that keeps no row sits the client out before training: it
    /// uploads the GM bit for bit with zero samples, even with a
    /// compressor. An identity screen never does, not even on an empty
    /// local set: that client still trains and compresses its upload.
    #[test]
    fn a_client_whose_screen_keeps_no_row_sits_the_round_out() {
        let data = dataset();
        let model = gm(&data);
        let gm_params = model.snapshot();
        let n = data.building.num_rps();
        let mut clients = Client::from_dataset(&data, 0);
        clients[0].compressor = Some(DeltaCompressor::new(crate::DeltaSpec::TopK {
            fraction: 0.5,
        }));
        let mut trained = 0;
        let update = clients[0].round_update(
            &model,
            &gm_params,
            n,
            1,
            |_| None,
            |_, _| {
                trained += 1;
                gm_params.clone()
            },
        );
        assert_eq!(trained, 0, "a client that sits out must not train");
        assert_eq!(update, ClientUpdate::new(0, gm_params.clone(), 0));
        let bits = |p: &NamedParams| -> Vec<u32> {
            p.flatten().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&update.params), bits(&gm_params));

        clients[1].local = FingerprintSet::empty(data.building.num_aps());
        clients[1].compressor = Some(DeltaCompressor::new(crate::DeltaSpec::TopK {
            fraction: 0.5,
        }));
        let mut seen = None;
        let update = clients[1].round_update(&model, &gm_params, n, 1, Some, |set, _| {
            seen = Some(set.len());
            gm_params.clone()
        });
        assert_eq!(seen, Some(0), "an identity screen must train");
        assert_eq!((update.client_id, update.num_samples), (1, 0));
        assert_ne!(
            update.repr,
            crate::DeltaRepr::Dense,
            "build_update was skipped"
        );
    }

    #[test]
    fn local_training_moves_weights_towards_local_data() {
        let data = dataset();
        let model = gm(&data);
        let set = &data.client_local[0];
        let cfg = LocalTrainConfig {
            epochs: 10,
            learning_rate: 1e-3,
            ..Default::default()
        };
        let lm = train_sequential_lm(&model, set, &cfg, 4);
        assert!(lm.l2_distance(&model.snapshot()) > 1e-4, "LM did not move");
        // Loading the LM back gives better local accuracy than the raw GM.
        let mut trained = model.clone();
        trained.load(&lm).unwrap();
        assert!(trained.accuracy(&set.x, &set.labels) >= model.accuracy(&set.x, &set.labels));
    }

    #[test]
    fn local_training_is_deterministic() {
        let data = dataset();
        let model = gm(&data);
        let cfg = LocalTrainConfig::default();
        let a = train_sequential_lm(&model, &data.client_local[0], &cfg, 7);
        let b = train_sequential_lm(&model, &data.client_local[0], &cfg, 7);
        assert_eq!(a, b);
    }
}
