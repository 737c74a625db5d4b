//! `round_train` — in-process SAFELOC rounds: six heterogeneous paper
//! phones, one of them a boosted label-flip attacker, full participation.
//!
//! An op is one `FlSession::next_round`: the fused GM goes out, every
//! client de-noises and retrains, the saliency pipeline aggregates. About
//! 98 % of it is local training, so this workload shows training-kernel
//! and client-parallelism work and is blind to screening cost. The round
//! ends at aggregation: `ModelRegistry::publish_params` hosts a
//! `Sequential`, not the fused network.

use super::{
    field_variants, generate_dataset, held_out_phones, mean_error_m, paper_dims, Layers, Phase,
    Quality, SetupCfg, Workload, FIXTURE_SEED,
};
use crate::probes::{median_us, nn_probes};
use crate::sys::Scaling;
use crate::sys::SplitMix;
use crate::trace::{NO_PARENT, ROOT};
use safeloc::fused::FusedWorkspace;
use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{BuildingDataset, DatasetConfig, DeviceProfile, FingerprintSet};
use safeloc_fl::{Client, ClientOutcome, FlSession, Framework, RoundReport};
use safeloc_nn::data::gather_rows;
use safeloc_nn::Adam;
use std::hint::black_box;
use std::time::Instant;

/// The attacker scales its delta by the fleet size (model replacement).
const ATTACKER_BOOST: f32 = 6.0;

/// Committed expectation: the saliency combiner must hold the attacker's
/// acceptance weight at or below this share of the honest clients' mean
/// weight, every round.
const MAX_ATTACKER_WEIGHT_RATIO: f32 = 1.0;

fn pretrain_epochs(smoke: bool) -> usize {
    if smoke {
        10
    } else {
        100
    }
}

pub struct RoundTrain {
    data: BuildingDataset,
    session: FlSession,
    /// The pretrained framework before any round, for the probes.
    pretrained: SafeLoc,
    eval: FingerprintSet,
    /// `mean_error_m` is read from the GM after this many rounds: ten, not
    /// the twenty the issue named — past ten the boosted rounds amplify the
    /// last-bit differences of another fleet order into +-1.5 % of error.
    quality_round: u64,
    quality_model: Option<Box<dyn Framework>>,
    done: u64,
    failed_checks: u64,
    rejections: u64,
    seed: u64,
    corrupt: bool,
}

impl RoundTrain {
    pub fn setup(cfg: &SetupCfg, layers: &mut Layers) -> Self {
        let data = generate_dataset(&DatasetConfig::paper(), layers);
        let dims = paper_dims(&data);
        let config = SafeLocConfig {
            pretrain_epochs: pretrain_epochs(cfg.smoke),
            ..SafeLocConfig::paper(FIXTURE_SEED)
        };
        let start = Instant::now();
        let mut pretrained = SafeLoc::new(dims[0], dims[4], config);
        pretrained.pretrain(&data.server_train);
        layers.insert("core.pretrain_ms", start.elapsed().as_secs_f64() * 1e3);

        // The fleet is fixture — client training streams and the attacker's
        // flips are the same for every `--seed` (20 boosted rounds are
        // chaotic: another stream moves the GM's error by ~6 %). The seed
        // shapes the order the phones sit in the fleet.
        let mut clients = Client::from_dataset(&data, FIXTURE_SEED);
        clients[DeviceProfile::ATTACKER_DEVICE].injector = Some(
            PoisonInjector::new(Attack::label_flip(1.0), FIXTURE_SEED).with_boost(ATTACKER_BOOST),
        );
        SplitMix::new(cfg.seed).shuffle(&mut clients);
        let session = FlSession::builder(Box::new(pretrained.clone()))
            .clients(clients)
            .build();
        Self {
            eval: held_out_phones(&data, field_variants(cfg.smoke)),
            data,
            session,
            pretrained,
            quality_round: if cfg.smoke { 3 } else { 10 },
            quality_model: None,
            done: 0,
            failed_checks: 0,
            rejections: 0,
            seed: cfg.seed,
            corrupt: cfg.corrupt,
        }
    }

    /// The round's check: nobody is rejected outright (saliency is a soft
    /// defense) and the attacker's weight stays under the committed ratio.
    fn check(&self, report: &RoundReport) -> bool {
        let weight = |malicious: bool| -> Vec<f32> {
            report
                .clients
                .iter()
                .filter(|c| c.malicious == malicious)
                .filter_map(|c| match c.outcome {
                    ClientOutcome::Trained { weight } => Some(weight),
                    _ => None,
                })
                .collect()
        };
        let (attacker, honest) = (weight(true), weight(false));
        if attacker.len() != 1 || honest.len() != report.clients.len() - 1 {
            return false;
        }
        let honest_mean = honest.iter().sum::<f32>() / honest.len() as f32;
        let limit = if self.corrupt {
            0.0
        } else {
            MAX_ATTACKER_WEIGHT_RATIO
        };
        attacker[0] <= limit * honest_mean
    }
}

impl Workload for RoundTrain {
    fn scaling(&self) -> Scaling {
        Scaling::Compute
    }

    fn min_ops(&self) -> u64 {
        self.quality_round
    }

    fn drive(&mut self, phase: &mut Phase<'_>) {
        let mut tracer = phase.tracer.take();
        while phase.open(self.done) {
            let root = tracer
                .as_mut()
                .map(|t| t.begin(ROOT, "driver", self.done, NO_PARENT));
            let start = Instant::now();
            let report = self.session.next_round().clone();
            if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
                tracer.end(root);
                // The two phases the report already times, laid under the
                // call that returned them.
                let train_ns = (report.train_ms * 1e6) as u64;
                tracer.push(
                    "core.local_train",
                    "core",
                    root.start_ns,
                    train_ns,
                    self.done,
                    root.id,
                );
                tracer.push(
                    "core.saliency_aggregate",
                    "core",
                    root.start_ns + train_ns,
                    (report.aggregate_ms * 1e6) as u64,
                    self.done,
                    root.id,
                );
            }
            self.done += 1;
            self.rejections += report.rejected() as u64;
            let ok = self.check(&report);
            if !ok {
                self.failed_checks += 1;
            }
            if self.done == self.quality_round {
                self.quality_model = Some(self.session.framework().clone_box());
            }
            phase.record(start, ok);
        }
        phase.tracer = tracer;
    }

    fn probes(&mut self, layers: &mut Layers) {
        let net = self.pretrained.network();
        let config = self.pretrained.config().clone();
        let local = &self.data.client_local[0];
        let batch: Vec<usize> = (0..32).collect();
        let (x32, y32) = (gather_rows(&local.x, &batch), local.labels[..32].to_vec());

        let mut lm = net.clone();
        let mut opt = Adam::new(config.local.learning_rate);
        let mut ws = FusedWorkspace::new();
        layers.insert(
            "core.train_step_us",
            median_us(100, 2, || {
                black_box(lm.train_batch_weighted_with(
                    &x32,
                    &y32,
                    &mut opt,
                    config.detach_decoder,
                    config.recon_weight,
                    &mut ws,
                ));
            }),
        );
        let threshold = self.pretrained.effective_threshold();
        layers.insert(
            "core.denoise_us",
            median_us(100, 2, || {
                black_box(net.denoise_matrix(&local.x, threshold, config.rce_mode));
            }),
        );
        let x1 = gather_rows(&local.x, &[0]);
        layers.insert(
            "core.infer_b1_us",
            median_us(200, 16, || {
                black_box(self.pretrained.predict(black_box(&x1)));
            }),
        );
        let classes = self.data.building.num_rps();
        let mut injector = PoisonInjector::new(Attack::label_flip(1.0), self.seed);
        layers.insert(
            "attacks.poison_ms",
            median_us(100, 4, || {
                black_box(injector.poison_labels(&local.labels, classes));
            }) / 1e3,
        );
        nn_probes(&paper_dims(&self.data), layers);
    }

    fn finish(&mut self, layers: &mut Layers) -> Quality {
        layers.insert(
            "fl.attacker_reject_rate",
            f64::from(self.session.attacker_rejection_rate().unwrap_or(0.0)),
        );
        layers.insert(
            "fl.honest_reject_rate",
            f64::from(self.session.honest_rejection_rate().unwrap_or(0.0)),
        );
        layers.insert(
            "fl.rejections_per_op",
            self.rejections as f64 / self.done.max(1) as f64,
        );
        let model = self
            .quality_model
            .as_ref()
            .expect("min_ops guarantees the quality round ran");
        let predicted = model.predict(&self.eval.x);
        Quality {
            mean_error_m: mean_error_m(&self.data.building, &predicted, &self.eval.labels),
            checks: vec![(
                "attacker weight <= honest mean weight, nobody rejected outright",
                self.failed_checks == 0,
            )],
        }
    }
}
