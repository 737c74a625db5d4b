//! Golden bit pins of SAFELOC.
//!
//! * The fused network: training steps in both decoder modes, the input
//!   gradient, detection, de-noising, plain prediction and an augmented
//!   fit, folded into one digest of their `f32::to_bits`. Taken on the
//!   code before the network was rebuilt from `Sequential` stacks.
//! * SAFELOC's federated rounds: every report decision and the GM after
//!   each of three rounds over a mixed fleet, under both labeling modes.
//!   Taken on the code before the client step was shared across engines.
//!
//! A restructuring must leave both unchanged. A change that moves bits on
//! purpose is held to the tolerance contract in `safeloc-bench` instead,
//! and re-pins here with the reason in CHANGES.md.
//! `cargo test -q -p safeloc --test golden -- --nocapture` prints the
//! digests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc::{
    DaeAugment, FusedConfig, FusedNetwork, FusedWorkspace, RceMode, SafeLoc, SafeLocConfig,
};
use safeloc_attacks::{Attack, GradientSource, PoisonInjector};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Client, ClientOutcome, CohortSampler, DeltaCompressor, DeltaSpec, Framework, LabelingMode,
    RoundReport,
};
use safeloc_nn::{Adam, HasParams, Matrix, TrainConfig};

/// FNV-1a over the bit patterns fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn usizes(&mut self, values: &[usize]) {
        for &v in values {
            self.word(v as u32);
        }
    }

    fn params(&mut self, net: &FusedNetwork) {
        for t in net.param_tensors() {
            self.f32s(t.as_slice());
        }
    }

    fn bytes(&mut self, s: &str) {
        self.usizes(&[s.len()]);
        for byte in s.bytes() {
            self.word(u32::from(byte));
        }
    }

    fn report(&mut self, report: &RoundReport) {
        for c in &report.clients {
            self.usizes(&[c.client_id, usize::from(c.malicious), c.samples]);
            match &c.outcome {
                ClientOutcome::Trained { weight } => {
                    self.word(0);
                    self.f32s(&[*weight]);
                }
                ClientOutcome::DroppedOut => self.word(1),
                ClientOutcome::Straggled => self.word(2),
                ClientOutcome::Rejected { rule, score } => {
                    self.word(3);
                    self.bytes(rule);
                    self.f32s(&[*score]);
                }
            }
        }
    }
}

const APS: usize = 203;
const RPS: usize = 60;
const BATCH: usize = 32;

/// Paper-shaped fingerprints: RSS in `[0, 1]` with about a fifth of the
/// APs unheard (exact zeros, which the augmentation leaves alone).
fn fingerprints(rows: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::from_fn(rows, APS, |_, _| {
        if rng.gen_bool(0.2) {
            0.0
        } else {
            rng.gen_range(0.05f32..1.0)
        }
    });
    let labels = (0..rows).map(|_| rng.gen_range(0..RPS)).collect();
    (x, labels)
}

fn batch(x: &Matrix, labels: &[usize], step: usize) -> (Matrix, Vec<usize>) {
    let start = (step * BATCH) % x.rows();
    let rows: Vec<Vec<f32>> = (start..start + BATCH).map(|r| x.row(r).to_vec()).collect();
    (
        Matrix::from_rows(&rows),
        labels[start..start + BATCH].to_vec(),
    )
}

/// Everything a trained network computes on a held-out batch whose second
/// half is shifted off the manifold, so detection flags a mix of rows.
fn held_out(net: &FusedNetwork, digest: &mut Digest) {
    let (mut x, labels) = fingerprints(BATCH, 99);
    for r in BATCH / 2..BATCH {
        for v in x.row_mut(r) {
            if *v > 0.0 {
                *v = (*v + 0.3).min(1.0);
            }
        }
    }
    digest.f32s(net.loss_input_gradient(&x, &labels).as_slice());
    for mode in [RceMode::Relative, RceMode::MeanSquared] {
        let rce = net.rce(&x, mode);
        let tau = rce.iter().sum::<f32>() / rce.len() as f32;
        let out = net.predict_with_detection(&x, tau, mode);
        let flags = out.flagged.iter().filter(|&&f| f).count();
        assert!(0 < flags && flags < BATCH, "{mode:?} flagged {flags} rows");
        digest.usizes(&out.labels);
        digest.usizes(
            &out.flagged
                .iter()
                .map(|&f| usize::from(f))
                .collect::<Vec<_>>(),
        );
        digest.f32s(&out.rce);
        let (denoised, flagged) = net.denoise_matrix(&x, tau, mode);
        digest.f32s(denoised.as_slice());
        digest.usizes(&flagged.iter().map(|&f| usize::from(f)).collect::<Vec<_>>());
    }
    digest.usizes(&net.predict(&x));
}

fn fused_digest() -> u64 {
    let (x, labels) = fingerprints(4 * BATCH, 7);
    let mut digest = Digest::new();
    for (detach, recon_weight, seed) in [(true, 1.0, 3), (false, 0.7, 4)] {
        let mut net = FusedNetwork::new(&FusedConfig::paper(APS, RPS, seed));
        let mut opt = Adam::new(1e-3);
        let mut ws = FusedWorkspace::new();
        for step in 0..40 {
            let (bx, by) = batch(&x, &labels, step);
            let (ce, mse) =
                net.train_batch_weighted_with(&bx, &by, &mut opt, detach, recon_weight, &mut ws);
            digest.f32s(&[ce, mse]);
        }
        digest.params(&net);
        held_out(&net, &mut digest);
    }
    let mut net = FusedNetwork::new(&FusedConfig::paper(APS, RPS, 5));
    let mut opt = Adam::new(1e-3);
    let history = net.fit_augmented(
        &x,
        &labels,
        &mut opt,
        &TrainConfig::new(3, BATCH, 6),
        true,
        1.0,
        Some(&DaeAugment::paper()),
    );
    for (ce, mse) in history {
        digest.f32s(&[ce, mse]);
    }
    digest.params(&net);
    digest.0
}

/// Pinned on the hand-written fused forward / backward passes.
const FUSED_DIGEST: u64 = 0xdd34_1bb0_3a1f_4e52;

#[test]
fn fused_network_bits_match_the_golden_digest() {
    let digest = fused_digest();
    println!("fused digest: {digest:#018x}");
    assert_eq!(digest, FUSED_DIGEST, "a fused-network bit moved");
}

/// Six phones: honest clients 0, 1 (a `TopK` uploader), 2 and 5, a
/// boosted label flipper (3) and an FGSM backdoor attacker (4).
fn mixed_fleet(data: &BuildingDataset) -> Vec<Client> {
    let mut clients = Client::from_dataset(data, 3);
    clients[1].compressor = Some(DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.1 }));
    clients[3].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 11).with_boost(4.0));
    clients[4].injector = Some(PoisonInjector::new(Attack::fgsm(0.4), 12));
    clients
}

fn safeloc_round_digest() -> u64 {
    let data = BuildingDataset::generate(
        Building::tiny(8),
        &DatasetConfig::tiny().with_fleet(6, 8),
        8,
    );
    let sampler = CohortSampler::uniform(5, 21).with_dropout(0.2);
    let mut digest = Digest::new();
    let mut trained = [false; 6];
    for labeling in [LabelingMode::SelfTrain, LabelingMode::Surveyed] {
        let mut cfg = SafeLocConfig::tiny();
        cfg.local.labeling = labeling;
        let mut f = SafeLoc::new(data.building.num_aps(), data.building.num_rps(), cfg);
        f.pretrain(&data.server_train);
        let mut clients = mixed_fleet(&data);
        for round in 0..3 {
            let plan = sampler.plan(round, clients.len());
            let report = f.run_round(&mut clients, &plan);
            for c in report.clients.iter().filter(|c| c.samples > 0) {
                trained[c.client_id] = true;
            }
            digest.report(&report);
            digest.f32s(f.global_params().flatten().as_slice());
        }
    }
    assert!(
        trained[1] && trained[3] && trained[4],
        "the plans must train every special client: {trained:?}"
    );
    digest.0
}

/// Pinned on the per-engine client closures (`SafeLoc::run_round`).
const SAFELOC_ROUND_DIGEST: u64 = 0x07d9_cb41_fbf4_b824;

#[test]
fn safeloc_rounds_match_the_golden_digest() {
    let digest = safeloc_round_digest();
    println!("SAFELOC round digest: {digest:#018x}");
    assert_eq!(digest, SAFELOC_ROUND_DIGEST, "a SAFELOC round bit moved");
}
