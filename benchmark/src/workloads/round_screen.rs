//! `round_screen` — the server side of a city-scale round, and nothing else.
//!
//! Setup pretrains a `Sequential` GM, trains a fleet of 256 heterogeneous
//! clients once against it (10 % boosted label-flip attackers), compresses
//! every update with `TopK { 0.05 }` and encodes 256 `UpdateDelta` frames.
//! The fleet is fixture: which phones exist and which are compromised is
//! the same for every `--seed`, because the cluster stage's 2-means runs
//! until it converges and a different fleet means a different number of
//! passes — up to twice the op time, which would read as noise. The seed
//! shapes the order the uploads arrive in. An op replays what the server does with them: decode each frame, decode
//! the delta and re-materialize `GM + delta`, run the defended pipeline
//! `NonFiniteGuard -> NormClip -> cluster -> latent -> TrimmedMean` over
//! 256 > `EXACT_SCREEN_MAX` updates (so the sampled-distance `RoundContext`
//! is on the clock), publish the result. No training happens inside an op:
//! a training speed-up must read "no change" here.

use super::{
    field_variants, generate_dataset, held_out_phones, mean_error_m, paper_dims, Layers, Phase,
    Quality, SetupCfg, Workload, FIXTURE_SEED,
};
use crate::probes::{median_us, nn_probes};
use crate::sys::Scaling;
use crate::sys::{median, SplitMix};
use crate::trace::{spanned, Tracer, NO_PARENT, ROOT};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_dataset::{BuildingDataset, DatasetConfig, FingerprintSet};
use safeloc_fl::client::train_sequential_lm;
use safeloc_fl::defense::{NonFiniteGuard, NormClip, RoundContext, TrimmedMean, EXACT_SCREEN_MAX};
use safeloc_fl::{
    Aggregator, Client, ClientUpdate, ClusterAggregator, DefensePipeline, DeltaSpec,
    LatentFilterAggregator, LocalTrainConfig, StageTelemetry,
};
use safeloc_nn::{Activation, Adam, HasParams, NamedParams, Sequential, TrainConfig};
use safeloc_serve::{ModelKey, ModelRegistry, ServedModel};
use safeloc_wire::{DeltaUpdateFrame, Frame};
use std::sync::Arc;
use std::time::Instant;

const TOP_K_FRACTION: f32 = 0.05;
const ATTACKER_SHARE: usize = 10; // one client in ten
const ATTACKER_BOOST: f32 = 10.0;
const TRIM_FRACTION: f32 = 0.1;

/// Committed expectation, checked on every op: the pipeline rejects at
/// least this share of the attackers ...
const MIN_ATTACKER_REJECT_RATE: f64 = 0.9;
/// ... and at most this share of the honest clients.
const MAX_HONEST_REJECT_RATE: f64 = 0.15;

/// `mean_error_m` is read from the GM this op publishes (1-based).
const QUALITY_OP: u64 = 3;

fn pretrain_epochs(smoke: bool) -> usize {
    if smoke {
        30
    } else {
        60
    }
}

fn fleet_size(smoke: bool) -> usize {
    // Both are above EXACT_SCREEN_MAX: the sampled path is what is measured.
    if smoke {
        96
    } else {
        256
    }
}

fn defended_pipeline() -> DefensePipeline {
    DefensePipeline::new(
        "non-finite+norm-clip+cluster+latent+trimmed-mean",
        vec![
            Box::new(NonFiniteGuard),
            Box::new(NormClip::default()),
            Box::new(ClusterAggregator::default()),
            Box::new(LatentFilterAggregator::new(FIXTURE_SEED)),
        ],
        Box::new(TrimmedMean::new(TRIM_FRACTION)),
    )
}

pub struct RoundScreen {
    data: BuildingDataset,
    eval: FingerprintSet,
    gm_params: NamedParams,
    /// One encoded `UpdateDelta` frame per client, in fleet order.
    frames: Vec<Vec<u8>>,
    malicious: Vec<bool>,
    pipeline: DefensePipeline,
    registry: Arc<ModelRegistry>,
    key: ModelKey,
    quality_model: Option<Arc<ServedModel>>,
    done: u64,
    failed_checks: u64,
    rejections: u64,
    attacker_reject_rate: f64,
    honest_reject_rate: f64,
    min_attacker_reject_rate: f64,
}

impl RoundScreen {
    pub fn setup(cfg: &SetupCfg, layers: &mut Layers) -> Self {
        let n = fleet_size(cfg.smoke);
        assert!(n > EXACT_SCREEN_MAX);
        let data = generate_dataset(&DatasetConfig::paper().with_fleet(n, FIXTURE_SEED), layers);
        let dims = paper_dims(&data);

        let start = Instant::now();
        let mut gm = Sequential::mlp(&dims, Activation::Relu, FIXTURE_SEED);
        gm.fit_classifier(
            &data.server_train.x,
            &data.server_train.labels,
            &mut Adam::new(1e-3),
            &TrainConfig::new(pretrain_epochs(cfg.smoke), 32, FIXTURE_SEED),
        );
        layers.insert("nn.pretrain_ms", start.elapsed().as_secs_f64() * 1e3);
        let gm_params = gm.snapshot();

        // The fleet: a fixed attacker draw, every client compressing.
        let mut clients = Client::from_dataset(&data, FIXTURE_SEED);
        let mut order: Vec<usize> = (0..n).collect();
        SplitMix::new(FIXTURE_SEED ^ 0xA77A_C4E5).shuffle(&mut order);
        let mut malicious = vec![false; n];
        for &i in &order[..n / ATTACKER_SHARE] {
            malicious[i] = true;
            clients[i].injector = Some(
                PoisonInjector::new(Attack::label_flip(1.0), FIXTURE_SEED ^ i as u64)
                    .with_boost(ATTACKER_BOOST),
            );
        }
        let spec = DeltaSpec::TopK {
            fraction: TOP_K_FRACTION,
        };
        for client in &mut clients {
            client.compressor = spec.compressor();
        }

        // One local round per client (the paper's protocol), then compress
        // and encode the upload.
        let local = LocalTrainConfig::paper();
        let classes = gm.out_dim();
        let building = data.building.id as u32;
        let mut uploads: Vec<(Vec<u8>, f64, f64)> = clients
            .iter_mut()
            .map(|c| {
                let set = c.prepare_round_data(&gm, classes, &local);
                let lm = train_sequential_lm(&gm, &set, &local, c.seed ^ (1 << 16));
                let lm = c.finalize_params(&gm_params, lm);
                let start = Instant::now();
                let update = c.build_update(&gm_params, lm, set.len());
                let delta_us = start.elapsed().as_secs_f64() * 1e6;
                let frame = Frame::UpdateDelta(DeltaUpdateFrame {
                    client_id: c.id as u64,
                    round: 0,
                    building,
                    device_class: c.device_name.clone(),
                    num_samples: update.num_samples as u64,
                    repr: update.repr,
                });
                let start = Instant::now();
                let bytes = frame.encode();
                (bytes, delta_us, start.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        // The seed's share: the order the uploads reach the server in.
        SplitMix::new(cfg.seed).shuffle(&mut uploads);
        let mut delta_us: Vec<f64> = uploads.iter().map(|u| u.1).collect();
        let mut encode_us: Vec<f64> = uploads.iter().map(|u| u.2).collect();
        layers.insert("fl.delta_encode_us", median(&mut delta_us));
        layers.insert("wire.update_encode_us", median(&mut encode_us));

        let registry = Arc::new(ModelRegistry::new());
        let key = ModelKey::default_for(data.building.id);
        registry.publish(key.clone(), gm, Some(data.building.clone()));
        Self {
            eval: held_out_phones(&data, field_variants(cfg.smoke)),
            data,
            gm_params,
            frames: uploads.into_iter().map(|u| u.0).collect(),
            malicious,
            pipeline: defended_pipeline(),
            registry,
            key,
            quality_model: None,
            done: 0,
            failed_checks: 0,
            rejections: 0,
            attacker_reject_rate: 0.0,
            honest_reject_rate: 0.0,
            min_attacker_reject_rate: if cfg.corrupt {
                1.5
            } else {
                MIN_ATTACKER_REJECT_RATE
            },
        }
    }

    /// Frames -> updates: what the server does with each upload before any
    /// defense sees it.
    fn frames_to_updates(
        &self,
        tracer: &mut Option<Tracer>,
        op: u64,
        parent: u32,
    ) -> Vec<ClientUpdate> {
        let num_params = self.gm_params.num_params();
        self.frames
            .iter()
            .filter_map(|bytes| {
                let frame = spanned(tracer, "wire.update_decode", "wire", op, parent, || {
                    Frame::decode(bytes)
                });
                let Ok((Frame::UpdateDelta(frame), _)) = frame else {
                    return None;
                };
                let delta = spanned(tracer, "fl.delta_decode", "fl", op, parent, || {
                    frame.repr.decode(num_params)
                })?;
                let params = spanned(tracer, "fl.rematerialize", "fl", op, parent, || {
                    let mut params = self.gm_params.clone();
                    params.add_flat(&delta);
                    params
                });
                Some(ClientUpdate::with_repr(
                    frame.client_id as usize,
                    params,
                    frame.num_samples as usize,
                    frame.repr,
                ))
            })
            .collect()
    }
}

/// Lays the stage times the pipeline already reports under the aggregate
/// call that produced them.
fn push_stage_spans(
    tracer: &mut Tracer,
    stages: &[StageTelemetry],
    start_ns: u64,
    op: u64,
    parent: u32,
) {
    let mut at = start_ns;
    for stage in stages {
        let name = match stage.stage.as_str() {
            "non-finite" => "fl.stage.non_finite",
            "norm-clip" => "fl.stage.norm_clip",
            "cluster" => "fl.stage.cluster",
            "latent" => "fl.stage.latent",
            _ => "fl.combine",
        };
        let dur = (stage.wall_ms * 1e6) as u64;
        tracer.push(name, "fl", at, dur, op, parent);
        at += dur;
    }
}

impl Workload for RoundScreen {
    fn scaling(&self) -> Scaling {
        Scaling::Compute
    }

    fn min_ops(&self) -> u64 {
        QUALITY_OP
    }

    fn drive(&mut self, phase: &mut Phase<'_>) {
        let mut tracer = phase.tracer.take();
        while phase.open(self.done) {
            let op = self.done;
            let start = Instant::now();
            let root = tracer
                .as_mut()
                .map(|t| t.begin(ROOT, "driver", op, NO_PARENT));
            let root_id = root.map_or(NO_PARENT, |r| r.id);

            let group = tracer
                .as_mut()
                .map(|t| t.begin("fl.frame_to_update", "fl", op, root_id));
            let mut updates =
                self.frames_to_updates(&mut tracer, op, group.map_or(NO_PARENT, |g| g.id));
            // Uploads arrive in the seed's order; the round server hands
            // them to the defense in fleet order (as `RemoteFlServer` does).
            updates.sort_by_key(|u| u.client_id);
            if let (Some(t), Some(group)) = (tracer.as_mut(), group) {
                t.end(group);
            }

            let aggregate = tracer
                .as_mut()
                .map(|t| t.begin("fl.aggregate", "fl", op, root_id));
            let outcome = self.pipeline.aggregate(&self.gm_params, &updates);
            let stages = self.pipeline.take_stage_telemetry();
            if let (Some(t), Some(aggregate)) = (tracer.as_mut(), aggregate) {
                t.end(aggregate);
                push_stage_spans(t, &stages, aggregate.start_ns, op, aggregate.id);
            }

            let published = spanned(&mut tracer, "serve.publish", "serve", op, root_id, || {
                self.registry.publish_params(&self.key, &outcome.params)
            });
            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                t.end(root);
            }

            // Verdicts against the ground truth the server never sees.
            let rejected = |malicious: bool| -> f64 {
                let (mut total, mut rejected) = (0u32, 0u32);
                for (update, decision) in updates.iter().zip(&outcome.decisions) {
                    if self.malicious[update.client_id] == malicious {
                        total += 1;
                        rejected += u32::from(!decision.is_accepted());
                    }
                }
                f64::from(rejected) / f64::from(total.max(1))
            };
            self.attacker_reject_rate = rejected(true);
            self.honest_reject_rate = rejected(false);
            self.rejections += outcome.rejected() as u64;
            let ok = published.is_ok()
                && updates.len() == self.frames.len()
                && self.attacker_reject_rate >= self.min_attacker_reject_rate
                && self.honest_reject_rate <= MAX_HONEST_REJECT_RATE;
            if !ok {
                self.failed_checks += 1;
            }
            self.done += 1;
            if self.done == QUALITY_OP {
                self.quality_model = self.registry.get(&self.key);
            }
            phase.record(start, ok);
        }
        phase.tracer = tracer;
    }

    fn probes(&mut self, layers: &mut Layers) {
        let updates = self.frames_to_updates(&mut None, 0, NO_PARENT);
        let refs: Vec<&ClientUpdate> = updates.iter().collect();
        // The shared distance work a screening round starts with: deltas,
        // then the sampled squared-L2 and cosine matrices over the cohort.
        layers.insert(
            "fl.context_build_ms",
            median_us(5, 1, || {
                let ctx = RoundContext::new(&self.gm_params, &refs);
                std::hint::black_box((ctx.squared_l2(), ctx.cosine()));
            }) / 1e3,
        );
        nn_probes(&paper_dims(&self.data), layers);
    }

    fn finish(&mut self, layers: &mut Layers) -> Quality {
        let upload_bytes: usize = self.frames.iter().map(Vec::len).sum();
        layers.insert("wire.upload_kib_per_op", upload_bytes as f64 / 1024.0);
        layers.insert("fl.attacker_reject_rate", self.attacker_reject_rate);
        layers.insert("fl.honest_reject_rate", self.honest_reject_rate);
        layers.insert(
            "fl.rejections_per_op",
            self.rejections as f64 / self.done.max(1) as f64,
        );
        layers.insert("serve.failed", self.failed_checks as f64);
        let model = self
            .quality_model
            .as_ref()
            .expect("min_ops guarantees the quality op ran");
        let predicted = model.predict(&self.eval.x);
        Quality {
            mean_error_m: mean_error_m(&self.data.building, &predicted, &self.eval.labels),
            checks: vec![(
                "attacker rejection >= committed, honest rejection <= committed, every frame decodes, publish succeeds",
                self.failed_checks == 0,
            )],
        }
    }
}
