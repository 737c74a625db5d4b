//! Quickstart: train SAFELOC on a small synthetic building, run a
//! federated session with one malicious client and partial participation,
//! and read the round-by-round defense telemetry.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_bench::ErrorStats;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{Client, ClientOutcome, CohortSampler, FlSession, Framework};

fn main() {
    // 1. A synthetic building: reference points on a 1 m walking path,
    //    Wi-Fi APs with log-distance propagation, six heterogeneous phones.
    let data = BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), 7);
    println!(
        "building {} — {} reference points, {} visible APs, {} client phones",
        data.building.id,
        data.building.num_rps(),
        data.building.num_aps(),
        data.num_clients()
    );

    // 2. SAFELOC: fused autoencoder+classifier, RCE detection, saliency
    //    aggregation. The config mirrors the paper's hyperparameters at a
    //    scaled-down epoch count.
    let mut framework = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::default_scale(7),
    );
    println!(
        "SAFELOC fused network: {} parameters, tau = {}",
        framework.num_params(),
        framework.tau()
    );

    // 3. Server-side pretraining on the survey split (Motorola Z2).
    framework.pretrain(&data.server_train);
    println!(
        "pretrained; clean RCE baseline = {:.3}",
        framework.rce_baseline()
    );

    // 4. A federated session with the HTC U11 compromised by a
    //    label-flipping attacker. Unlike the paper's everyone-every-round
    //    protocol, this session samples a 5-of-6 cohort per round and lets
    //    clients drop out 10% of the time — the production regime.
    let mut clients = Client::from_dataset(&data, 7);
    clients[5].injector = Some(PoisonInjector::new(Attack::label_flip(0.8), 7).with_boost(6.0));
    let mut session = FlSession::builder(Box::new(framework))
        .clients(clients)
        .sampler(CohortSampler::uniform(5, 7).with_dropout(0.1))
        .build();

    // 5. Every round yields a RoundReport: who was sampled, who dropped
    //    out, and what the defense decided about each delivered update.
    //    Saliency aggregation never rejects outright — it *weights* — so
    //    the attacker shows up with a collapsed acceptance weight.
    println!("\nround-by-round telemetry:");
    let mut attacker_weight = None;
    for _ in 0..4 {
        let report = session.next_round();
        println!("  {report}");
        attacker_weight = report.mean_attacker_weight().or(attacker_weight);
        for c in &report.clients {
            let tag = if c.malicious { " <- attacker" } else { "" };
            match &c.outcome {
                ClientOutcome::Trained { weight } => {
                    println!(
                        "      client {}: accepted, weight {weight:.3}{tag}",
                        c.client_id
                    )
                }
                ClientOutcome::Rejected { rule, score } => println!(
                    "      client {}: rejected by {rule} (score {score:.3}){tag}",
                    c.client_id
                ),
                ClientOutcome::DroppedOut => {
                    println!("      client {}: dropped out{tag}", c.client_id)
                }
                ClientOutcome::Straggled => {
                    println!("      client {}: straggled past deadline{tag}", c.client_id)
                }
            }
        }
    }
    if let Some(w) = attacker_weight {
        println!("\nattacker mean saliency weight (last round it appeared): {w:.3}");
    }

    // 6. Evaluate localization error on the five non-training phones.
    let mut errors = Vec::new();
    for (device, set) in data.eval_sets() {
        let pred = session.framework().predict(&set.x);
        let device_errors: Vec<f32> = (pred.iter().zip(&set.labels))
            .map(|(&p, &t)| data.building.label_error_m(p, t))
            .collect();
        let stats = ErrorStats::from_errors(&device_errors);
        println!("  {} — {}", data.devices[device].name, stats);
        errors.extend(device_errors);
    }
    let overall = ErrorStats::from_errors(&errors);
    println!("overall under attack: {overall}");
}
