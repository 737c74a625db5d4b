//! Ablation — attribution of SAFELOC's robustness to its parts (ours, not a
//! paper figure; each variant below changes one design choice).
//!
//! Variants (the suite engine's `SafelocVariant` axis):
//! * **full** — detection + de-noising + saliency (Normalized Eq. 9)
//! * **no-denoise** — τ = ∞ disables the client-side detector
//! * **no-saliency** — saliency sharpness 0 (S ≡ 1 ⇒ plain delta averaging)
//! * **literal-eq9** — the printed Eq. 9, damped (AggregationMode::Literal)
//! * **with-augment** — fused network trained with heterogeneity
//!   augmentation (this repository's extension; off in the paper-faithful
//!   default)
//! * **joint-decoder** — reconstruction gradients flow into the encoder
//!   (detach_decoder = false)
//!
//! ```text
//! cargo run -p safeloc-bench --release --bin ablation [--quick|--full] [--seed N]
//! ```

use safeloc_attacks::Attack;
use safeloc_bench::{
    AttackSpec, FrameworkSpec, HarnessConfig, SafelocVariant, ScenarioSpec, SuiteRunner,
};
use safeloc_metrics::{markdown_table, ErrorStats};

fn main() {
    let cfg = HarnessConfig::from_args();
    let mut spec = ScenarioSpec::new(
        "ablation",
        SafelocVariant::ALL
            .iter()
            .map(|&variant| FrameworkSpec::SafelocVariant { variant })
            .collect(),
        vec![
            AttackSpec::clean(),
            AttackSpec::named("label flip 0.6", Attack::label_flip(0.6)),
            AttackSpec::named("FGSM 0.4", Attack::fgsm(0.4)),
            AttackSpec::named("MIM 0.3", Attack::mim(0.3)),
        ],
    );
    spec.description = "design-choice attribution for SAFELOC".into();
    spec.buildings = vec![5];

    let mut runner = SuiteRunner::new(cfg, spec.clone());
    println!("# Ablation — SAFELOC variants (building 5)\n");
    println!(
        "scale: {:?}, seed: {}, rounds: {}\n",
        cfg.scale,
        cfg.seed,
        runner.rounds()
    );

    let run = runner.run();
    let mut rows = Vec::new();
    for (vi, variant) in SafelocVariant::ALL.iter().enumerate() {
        let mut row = vec![variant.label().to_string()];
        for (ai, _) in spec.attacks.iter().enumerate() {
            let errors =
                run.pooled_errors(|c| c.cell.index.framework == vi && c.cell.index.attack == ai);
            row.push(format!("{:.2}", ErrorStats::from_errors(&errors).mean));
        }
        rows.push(row);
    }

    let mut header = vec!["variant".to_string()];
    for attack in &spec.attacks {
        header.push(attack.label());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("{}", markdown_table(&header_refs, &rows));
    println!("\nexpected: full lowest under attack; no-denoise leaks backdoors; no-saliency leaks label flips;");
    println!("with-augment (extension) cuts clean error but masks the detector's contribution");
}
