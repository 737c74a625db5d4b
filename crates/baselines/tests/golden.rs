//! Golden bit pin of ONLAD's federated rounds: every report decision and
//! the GM after each of three rounds over a mixed fleet of self-labeling
//! clients, folded into one digest of their bits.
//!
//! The constant was taken on the code before the client step was shared
//! across engines and re-taken with the surveyed-label pass left out
//! before that mode was deleted; a restructuring must leave it unchanged.
//! A change that moves bits on purpose re-pins here with the reason in
//! CHANGES.md.
//! `cargo test -q -p safeloc-baselines --test golden -- --nocapture`
//! prints the digest.

use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_baselines::Onlad;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Client, ClientOutcome, CohortSampler, DeltaCompressor, DeltaSpec, Framework, RoundReport,
    ServerConfig,
};

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

/// Seven phones: honest clients 0, 1 (a `TopK` uploader), 2 and 5, a
/// boosted label flipper (3), an FGSM backdoor attacker (4) and an honest
/// client (6) whose every row the detector flags, so it sits rounds out.
fn mixed_fleet(data: &BuildingDataset) -> Vec<Client> {
    let mut clients = Client::from_dataset(data, 3);
    clients[1].compressor = Some(DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.1 }));
    clients[3].injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 11).with_boost(4.0));
    clients[4].injector = Some(PoisonInjector::new(Attack::fgsm(0.1), 12));
    clients[6].local.x = clients[6].local.x.map(|_| 1.0);
    clients
}

fn onlad_round_digest() -> u64 {
    let data = BuildingDataset::generate(
        Building::tiny(8),
        &DatasetConfig::tiny().with_fleet(7, 8),
        8,
    );
    let sampler = CohortSampler::uniform(6, 13).with_dropout(0.2);
    let mut digest = Digest::new();
    let (mut trained, mut sat_out) = ([false; 7], false);
    let mut f = Onlad::new(
        data.building.num_aps(),
        data.building.num_rps(),
        ServerConfig::tiny(),
    );
    f.pretrain(&data.server_train);
    let mut clients = mixed_fleet(&data);
    for round in 0..3 {
        let plan = sampler.plan(round, clients.len());
        let report = f.run_round(&mut clients, &plan);
        for c in report.clients.iter().filter(|c| c.samples > 0) {
            trained[c.client_id] = true;
        }
        sat_out |= report
            .clients
            .iter()
            .any(|c| c.client_id == 6 && matches!(c.outcome, ClientOutcome::Trained { .. }));
        digest.report(&report);
        digest.f32s(f.global_params().flatten().as_slice());
    }
    assert!(
        trained[1] && trained[3] && trained[4],
        "the plans must train every special client: {trained:?}"
    );
    assert!(
        sat_out && !trained[6],
        "client 6 must deliver, and only ever with zero samples"
    );
    digest.0
}

/// Pinned on the per-engine client closure (`Onlad::run_round`);
/// re-pinned with self-labeling only, on the code that still had the
/// surveyed-label mode.
const ONLAD_ROUND_DIGEST: u64 = 0x8e12_d46c_9376_0683;

#[test]
fn onlad_rounds_match_the_golden_digest() {
    let digest = onlad_round_digest();
    println!("ONLAD round digest: {digest:#018x}");
    assert_eq!(digest, ONLAD_ROUND_DIGEST, "an ONLAD round bit moved");
}
