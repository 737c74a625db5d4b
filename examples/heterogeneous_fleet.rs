//! Device-heterogeneity walkthrough: how differently six phones see the
//! same building, and how SAFELOC's detector tolerates them while flagging
//! actual poison.
//!
//! ```text
//! cargo run --release --example heterogeneous_fleet
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use safeloc::{RceMode, SafeLoc, SafeLocConfig};
use safeloc_attacks::Attack;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::Framework;

fn main() {
    let data = BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), 3);

    println!("device fleet:");
    for d in &data.devices {
        println!(
            "  {:20} offset {:+.1} dB, scale {:.2}, sensitivity {:.1} dBm, per-AP gain σ {:.1} dB",
            d.name, d.offset_db, d.scale, d.sensitivity_dbm, d.ap_gain_db
        );
    }

    let mut framework = SafeLoc::new(
        data.building.num_aps(),
        data.building.num_rps(),
        SafeLocConfig::default_scale(3),
    );
    framework.pretrain(&data.server_train);
    let threshold = framework.effective_threshold();
    println!(
        "\ndetector: clean baseline {:.3}, effective threshold {:.3} (tau = {})\n",
        framework.rce_baseline(),
        threshold,
        framework.tau()
    );

    println!("clean data per device — accuracy and flag rate:");
    for (i, set) in data.eval_sets() {
        let out = framework
            .network()
            .predict_with_detection(&set.x, threshold, RceMode::Relative);
        let acc = out
            .labels
            .iter()
            .zip(&set.labels)
            .filter(|(a, b)| a == b)
            .count() as f32
            / set.labels.len() as f32;
        let flagged = out.flagged.iter().filter(|&&f| f).count();
        println!(
            "  {:20} accuracy {:.1}%, flagged {:>3}/{}",
            data.devices[i].name,
            acc * 100.0,
            flagged,
            set.len()
        );
    }

    println!("\nFGSM-poisoned data (eps sweep) — flag rate:");
    let clean = &data.client_test[0];
    for eps in [0.05f32, 0.1, 0.2, 0.4] {
        let mut rng = StdRng::seed_from_u64(5);
        let (px, _) = Attack::fgsm(eps).poison(
            &clean.x,
            &clean.labels,
            framework.network(),
            data.building.num_rps(),
            &mut rng,
        );
        let out = framework
            .network()
            .predict_with_detection(&px, threshold, RceMode::Relative);
        let flagged = out.flagged.iter().filter(|&&f| f).count();
        println!("  eps {eps:.2}: flagged {flagged:>3}/{}", px.rows());
    }
}
