//! Side-by-side defense demo: the same boosted label-flipping attacker
//! against (1) the undefended FEDLOC baseline, (2) a defense composed
//! from pipeline parts — norm clipping in front of Krum selection — on
//! the *same* FEDLOC architecture, and (3) the full SAFELOC framework.
//!
//! The middle contender is the point of the defense-pipeline API: a
//! layered robust-aggregation strategy is a value built from stages and a
//! combiner (`DefensePipeline`), swapped into a server with
//! `set_defense` — no new framework type required. The round reports
//! then attribute rejections to the stage that made them.
//!
//! ```text
//! cargo run -p safeloc-bench --release --example poisoning_defense
//! ```

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_baselines::fedloc;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceProfile};
use safeloc_fl::defense::{DefensePipeline, NormClip};
use safeloc_fl::{pooled_stage_telemetry, Client, FlSession, Framework, Krum, ServerConfig};
use safeloc_metrics::{localization_errors, ErrorStats};

fn attacked_mean(mut framework: Box<dyn Framework>, data: &BuildingDataset, rounds: usize) -> f32 {
    framework.pretrain(&data.server_train);
    let mut clients = Client::from_dataset(data, 11);
    let attacker = DeviceProfile::ATTACKER_DEVICE;
    clients[attacker].injector =
        Some(PoisonInjector::new(Attack::label_flip(0.8), 11).with_boost(6.0));
    let mut session = FlSession::builder(framework).clients(clients).build();
    session.run(rounds);
    if let Some(rate) = session.attacker_rejection_rate() {
        println!(
            "  (attacker updates rejected in {:.0}% of rounds)",
            rate * 100.0
        );
    }
    // Per-stage attribution from the round reports: which stage of the
    // defense pipeline did the rejecting, and what it cost per round.
    for stage in pooled_stage_telemetry(session.reports().iter()) {
        println!(
            "  (stage {}: {} rejections, {:.2} ms/round)",
            stage.stage, stage.rejections, stage.wall_ms
        );
    }
    let mut errors = Vec::new();
    for (_, set) in data.eval_sets() {
        let pred = session.framework().predict(&set.x);
        errors.extend(localization_errors(&data.building, &pred, &set.labels));
    }
    ErrorStats::from_errors(&errors).mean
}

fn main() {
    let data = BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), 11);
    let rounds = 6;
    println!(
        "label-flipping attacker (HTC U11, flip fraction 0.8, boosted) over {rounds} rounds\n"
    );

    let aps = data.building.num_aps();
    let rps = data.building.num_rps();

    let undefended = fedloc(aps, rps, ServerConfig::default_scale(11));
    let fedloc_mean = attacked_mean(Box::new(undefended), &data, rounds);
    println!("FEDLOC  (FedAvg, no defense): mean error {fedloc_mean:.2} m\n");

    // The same FEDLOC architecture, but its server-side defense replaced
    // by a composed pipeline: clip update norms at 3x the round median,
    // then Krum-select among the bounded survivors.
    let mut composed = fedloc(aps, rps, ServerConfig::default_scale(11));
    composed.set_defense(DefensePipeline::new(
        "norm-clip+krum",
        vec![Box::new(NormClip::new(3.0))],
        Box::new(Krum::new(1)),
    ));
    let composed_mean = attacked_mean(Box::new(composed), &data, rounds);
    println!("FEDLOC + norm-clip→Krum pipeline: mean error {composed_mean:.2} m\n");

    let safeloc = SafeLoc::new(aps, rps, SafeLocConfig::default_scale(11));
    let safeloc_mean = attacked_mean(Box::new(safeloc), &data, rounds);
    println!("SAFELOC (saliency + de-noise): mean error {safeloc_mean:.2} m");

    println!(
        "\nvs undefended FedAvg ({fedloc_mean:.2} m): SAFELOC {safeloc_mean:.2} m, \
         composed norm-clip→Krum {composed_mean:.2} m — a layered defense is one \
         `DefensePipeline` value, not a new framework"
    );
}
