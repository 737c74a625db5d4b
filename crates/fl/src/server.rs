//! A complete FL server around a `Sequential` DNN global model.
//!
//! Every baseline framework in the paper is this server with a different
//! layer stack and aggregation rule; only SAFELOC replaces the model type
//! (fused network) and the aggregation (saliency map).

use crate::client::{Client, LocalTrainConfig};
use crate::defense::{Aggregator, DefensePipeline};
use crate::framework::Framework;
use crate::report::RoundReport;
use crate::round::RoundPlan;
use crate::update::ClientUpdate;
use rayon::prelude::*;
use safeloc_dataset::FingerprintSet;
use safeloc_nn::{Activation, Adam, HasParams, Matrix, NamedParams, Sequential, TrainConfig};
use std::time::Instant;

/// Server-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Pretraining epochs (paper: 700).
    pub pretrain_epochs: usize,
    /// Pretraining learning rate (paper: 1e-3).
    pub pretrain_lr: f32,
    /// Pretraining batch size.
    pub batch_size: usize,
    /// Client-side protocol.
    pub local: LocalTrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl ServerConfig {
    /// The paper's configuration (700 epochs @ 1e-3; clients 5 @ 1e-4).
    pub fn paper(seed: u64) -> Self {
        Self {
            pretrain_epochs: 700,
            pretrain_lr: 1e-3,
            batch_size: 32,
            local: LocalTrainConfig::paper(),
            seed,
        }
    }

    /// Scaled-down configuration that still trains to convergence on the
    /// synthetic data — the default for benches. The client learning rate is
    /// raised to 3e-3 so that a few default-scale rounds produce the same LM
    /// drift as the paper's long-running deployment at 1e-4.
    pub fn default_scale(seed: u64) -> Self {
        Self {
            pretrain_epochs: 120,
            pretrain_lr: 1e-3,
            batch_size: 32,
            local: LocalTrainConfig {
                learning_rate: 3e-3,
                ..LocalTrainConfig::paper()
            },
            seed,
        }
    }

    /// Tiny configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            pretrain_epochs: 100,
            pretrain_lr: 1e-2,
            batch_size: 16,
            local: LocalTrainConfig {
                epochs: 3,
                learning_rate: 1e-3,
                batch_size: 8,
                ..LocalTrainConfig::default()
            },
            seed: 0,
        }
    }
}

/// The server half of a federated round, written once for every engine:
/// snapshot the GM, derive the round's training-seed salt
/// (`(round + 1) << 16`, here and nowhere else), hand both to the engine's
/// client *collector* — an in-process fan-out, or
/// `safeloc_wire::RemoteFlServer`'s sockets — then defend, load and
/// report. `train_ms` ends when the collector returns, `aggregate_ms`
/// after the load.
#[derive(Debug, Clone)]
pub struct ServerRound {
    name: &'static str,
    defense: DefensePipeline,
    rounds_run: usize,
}

impl ServerRound {
    /// A round runner for the engine `name` (the report's framework name)
    /// defended by `defense`.
    pub fn new(name: &'static str, defense: DefensePipeline) -> Self {
        Self {
            name,
            defense,
            rounds_run: 0,
        }
    }

    /// The engine name reports carry.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Replaces the defense; the round counter and the GM are untouched.
    pub fn set_defense(&mut self, defense: DefensePipeline) {
        self.defense = defense;
    }

    /// Rounds run so far (the next round's index).
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Runs one round over `gm`. `collect` receives the GM, the clients,
    /// the GM's snapshot and the round salt, and returns the delivered
    /// updates in cohort order plus the plan that actually ran (see
    /// [`RoundReport::assemble`] for the contract between the two).
    ///
    /// # Panics
    ///
    /// Panics if the defense's outcome does not load back into `gm`: every
    /// update must have `gm`'s architecture (the wire layer checks
    /// uploads before they get here).
    pub fn run<M: HasParams>(
        &mut self,
        gm: &mut M,
        clients: &mut [Client],
        collect: impl FnOnce(&M, &mut [Client], &NamedParams, u64) -> (Vec<ClientUpdate>, RoundPlan),
    ) -> RoundReport {
        // det: round timers feed *_ms report fields only; nothing
        // model-visible reads wall time, trajectories stay bitwise.
        let train_start = Instant::now();
        let gm_params = gm.snapshot();
        let round_salt = (self.rounds_run as u64 + 1) << 16;
        let (updates, plan) = collect(gm, clients, &gm_params, round_salt);
        let train_ms = train_start.elapsed().as_secs_f64() * 1e3;
        // det: report-only timing, as above.
        let aggregate_start = Instant::now();
        let outcome = self.defense.aggregate(&gm_params, &updates);
        let stages = self.defense.take_stage_telemetry();
        gm.load(&outcome.params)
            .expect("the defense preserves the GM's architecture");
        let aggregate_ms = aggregate_start.elapsed().as_secs_f64() * 1e3;
        // Every engine's round ends here, sequential or remote.
        crate::metrics::fl_metrics().on_round(train_ms, aggregate_ms, plan.cohort().len());
        let report = RoundReport::assemble(
            self.rounds_run,
            self.name,
            clients,
            &plan,
            &updates,
            &outcome,
            stages,
            train_ms,
            aggregate_ms,
        );
        self.rounds_run += 1;
        report
    }

    /// Runs one round whose clients live in this process: `step` (normally
    /// one [`Client::round_update`] call) maps over the plan's
    /// participants in parallel, receiving each client, the GM, its
    /// snapshot and the round salt. Clients are independent by
    /// construction and draw from their own seed streams, and updates come
    /// back in fleet order, so the round is bitwise-identical for any
    /// thread count (`tests/parallel_determinism.rs`) and cohort membership
    /// never perturbs another client's training stream.
    pub fn run_in_process<M: HasParams + Sync>(
        &mut self,
        gm: &mut M,
        clients: &mut [Client],
        plan: &RoundPlan,
        step: impl Fn(&mut Client, &M, &NamedParams, u64) -> ClientUpdate + Sync,
    ) -> RoundReport {
        self.run(gm, clients, |gm, clients, gm_params, round_salt| {
            let active = plan.active_indices();
            let cohort: Vec<&mut Client> = clients
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.binary_search(i).is_ok())
                .map(|(_, c)| c)
                .collect();
            let updates = cohort
                .into_par_iter()
                .map(|c| step(c, gm, gm_params, round_salt))
                .collect();
            (updates, plan.clone())
        })
    }
}

/// FL server whose global model is a [`Sequential`] classifier.
#[derive(Clone)]
pub struct SequentialFlServer {
    gm: Sequential,
    round: ServerRound,
    cfg: ServerConfig,
}

impl std::fmt::Debug for SequentialFlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequentialFlServer")
            .field("round", &self.round)
            .field("params", &self.gm.num_params())
            .finish()
    }
}

impl SequentialFlServer {
    /// Creates a server with an MLP of layer widths `dims` and the given
    /// defense.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn new(dims: &[usize], defense: DefensePipeline, cfg: ServerConfig) -> Self {
        Self::named("SequentialFL", dims, defense, cfg)
    }

    /// Same as [`SequentialFlServer::new`] with an explicit display name
    /// (used by the named baselines and by `RemoteFlServer`).
    pub fn named(
        name: &'static str,
        dims: &[usize],
        defense: DefensePipeline,
        cfg: ServerConfig,
    ) -> Self {
        Self {
            gm: Sequential::mlp(dims, Activation::Relu, cfg.seed),
            round: ServerRound::new(name, defense),
            cfg,
        }
    }

    /// The current global model.
    pub fn global_model(&self) -> &Sequential {
        &self.gm
    }

    /// Number of federated rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.round.rounds_run()
    }

    /// Runs one round whose clients `collect` reaches (see
    /// [`ServerRound::run`]): `RemoteFlServer`'s sockets.
    pub fn run_round_with(
        &mut self,
        clients: &mut [Client],
        collect: impl FnOnce(
            &Sequential,
            &mut [Client],
            &NamedParams,
            u64,
        ) -> (Vec<ClientUpdate>, RoundPlan),
    ) -> RoundReport {
        self.round.run(&mut self.gm, clients, collect)
    }
}

impl Framework for SequentialFlServer {
    fn name(&self) -> &'static str {
        self.round.name()
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        self.gm.fit_classifier(
            &train.x,
            &train.labels,
            &mut opt,
            &TrainConfig::new(self.cfg.pretrain_epochs, self.cfg.batch_size, self.cfg.seed),
        );
    }

    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        let local = self.cfg.local;
        self.round.run_in_process(
            &mut self.gm,
            clients,
            plan,
            |c, gm, gm_params, round_salt| c.sequential_update(gm, gm_params, &local, round_salt),
        )
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.gm.predict(x)
    }

    fn num_params(&self) -> usize {
        self.gm.num_params()
    }

    fn global_params(&self) -> NamedParams {
        self.gm.snapshot()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_defense(&mut self, defense: DefensePipeline) {
        self.round.set_defense(defense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ClientOutcome;
    use crate::round::Availability;
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};

    fn fedavg() -> DefensePipeline {
        DefensePipeline::fedavg()
    }

    fn run_full_rounds(s: &mut SequentialFlServer, clients: &mut [Client], n: usize) {
        for _ in 0..n {
            s.run_round(clients, &RoundPlan::full(clients.len()));
        }
    }

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 4)
    }

    fn server(data: &BuildingDataset, agg: DefensePipeline) -> SequentialFlServer {
        SequentialFlServer::new(
            &[data.building.num_aps(), 24, data.building.num_rps()],
            agg,
            ServerConfig::tiny(),
        )
    }

    #[test]
    fn pretraining_reaches_high_train_accuracy() {
        let data = dataset();
        let mut s = server(&data, fedavg());
        s.pretrain(&data.server_train);
        let acc = s.accuracy(&data.server_train.x, &data.server_train.labels);
        assert!(acc > 0.8, "pretrain accuracy {acc}");
    }

    #[test]
    fn clean_rounds_do_not_destroy_the_model() {
        let data = dataset();
        let mut s = server(&data, fedavg());
        s.pretrain(&data.server_train);
        let before = s.accuracy(&data.server_train.x, &data.server_train.labels);
        let mut clients = Client::from_dataset(&data, 0);
        run_full_rounds(&mut s, &mut clients, 3);
        let after = s.accuracy(&data.server_train.x, &data.server_train.labels);
        assert_eq!(s.rounds_run(), 3);
        assert!(
            after > before - 0.3,
            "clean FL rounds collapsed accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn poisoned_fedavg_degrades_more_than_krum() {
        let data = dataset();
        let n_rps = data.building.num_rps();
        let eval = &data.client_test[0];

        let run = |agg: DefensePipeline| -> f32 {
            let mut s = server(&data, agg);
            s.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            // Make the last client malicious with full label flipping.
            let last = clients.len() - 1;
            clients[last].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 99));
            run_full_rounds(&mut s, &mut clients, 4);
            s.accuracy(&eval.x, &eval.labels)
        };

        let fedavg_acc = run(fedavg());
        let krum_acc = run(DefensePipeline::krum(1));
        // Krum should be no worse than FedAvg under poisoning (usually much
        // better); allow slack for the tiny dataset.
        assert!(
            krum_acc >= fedavg_acc - 0.15,
            "krum {krum_acc} much worse than fedavg {fedavg_acc} under attack"
        );
        let _ = n_rps;
    }

    #[test]
    fn round_is_deterministic() {
        let data = dataset();
        let run = || {
            let mut s = server(&data, fedavg());
            s.pretrain(&data.server_train);
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            s.run_round(&mut clients, &plan);
            s.global_model().snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn debug_is_informative() {
        let data = dataset();
        let s = server(&data, fedavg());
        let dbg = format!("{s:?}");
        assert!(dbg.contains("FedAvg"));
    }

    #[test]
    fn full_round_reports_every_client_trained() {
        let data = dataset();
        let mut s = server(&data, fedavg());
        s.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 0);
        let plan = RoundPlan::full(clients.len());
        let report = s.run_round(&mut clients, &plan);
        assert_eq!(report.round, 0);
        assert_eq!(report.clients.len(), clients.len());
        assert_eq!(report.accepted(), clients.len());
        assert_eq!(report.rejected() + report.dropped() + report.straggled(), 0);
        assert!(report.train_ms >= 0.0 && report.aggregate_ms >= 0.0);
        assert!(report
            .clients
            .iter()
            .all(|c| matches!(c.outcome, ClientOutcome::Trained { .. }) && c.samples > 0));
    }

    #[test]
    fn partial_plan_trains_only_the_participants() {
        let data = dataset();
        let mut s = server(&data, fedavg());
        s.pretrain(&data.server_train);
        let mut clients = Client::from_dataset(&data, 0);
        let plan = RoundPlan::new(vec![
            (0, Availability::Participates),
            (1, Availability::DropsOut),
            (2, Availability::Straggles),
        ]);
        let report = s.run_round(&mut clients, &plan);
        assert_eq!(report.clients.len(), 3);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.dropped(), 1);
        assert_eq!(report.straggled(), 1);
        assert_eq!(report.clients[1].outcome, ClientOutcome::DroppedOut);
        assert_eq!(report.clients[1].samples, 0);
        assert_eq!(s.rounds_run(), 1);
    }

    #[test]
    fn all_dropout_round_keeps_the_global_model() {
        let data = dataset();
        let mut s = server(&data, fedavg());
        s.pretrain(&data.server_train);
        let before = s.global_model().snapshot();
        let mut clients = Client::from_dataset(&data, 0);
        let plan = RoundPlan::new(
            (0..clients.len())
                .map(|i| (i, Availability::DropsOut))
                .collect(),
        );
        let report = s.run_round(&mut clients, &plan);
        assert_eq!(report.participants(), 0);
        assert_eq!(s.global_model().snapshot(), before);
    }
}
