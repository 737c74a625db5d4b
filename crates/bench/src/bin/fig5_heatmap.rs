//! Fig. 5 — SAFELOC's mean localization error under each attack at each
//! perturbation magnitude ε (the heatmap).
//!
//! The paper reports stability across all backdoor attacks and ε values,
//! with a gradual rise for label flipping from ε = 0.2 up to 4.38 m at
//! ε = 1.0.
//!
//! ```text
//! cargo run -p safeloc-bench --release --bin fig5_heatmap [--quick|--full] [--seed N]
//! ```

use safeloc_attacks::{paper_epsilon_grid, Attack, AttackKind, ALL_ATTACK_KINDS};
use safeloc_bench::{AttackSpec, FrameworkSpec, HarnessConfig, Scale, ScenarioSpec, SuiteRunner};
use safeloc_metrics::{heatmap, ErrorStats};

fn main() {
    let cfg = HarnessConfig::from_args();
    let epsilons: Vec<f32> = match cfg.scale {
        Scale::Quick => vec![0.05, 0.1, 0.3, 0.6, 1.0],
        Scale::Default => vec![0.01, 0.03, 0.05, 0.08, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        Scale::Full => paper_epsilon_grid(),
    };
    // The attack axis is the flattened (kind, ε) grid, kind-major.
    let mut attacks = Vec::new();
    for kind in ALL_ATTACK_KINDS {
        for &eps in &epsilons {
            attacks.push(AttackSpec::of(Attack::of_kind(kind, eps)));
        }
    }
    let mut spec = ScenarioSpec::new("fig5_heatmap", vec![FrameworkSpec::Safeloc], attacks);
    spec.description = "SAFELOC mean error per attack × epsilon".into();
    spec.rounds = (cfg.rounds() / 2).max(2);
    spec.buildings = match cfg.scale {
        Scale::Quick => vec![5],
        // The paper pools all buildings; the largest and smallest span the
        // range at tractable cost.
        _ => vec![1, 5],
    };

    let mut runner = SuiteRunner::new(cfg, spec);
    println!("# Fig. 5 — SAFELOC mean error (m) per attack × ε\n");
    println!(
        "scale: {:?}, seed: {}, rounds/scenario: {}, buildings: {:?}\n",
        cfg.scale,
        cfg.seed,
        runner.rounds(),
        runner.buildings()
    );

    // values[kind][eps] pools errors over buildings.
    let run = runner.run();
    let values: Vec<Vec<f32>> = (0..ALL_ATTACK_KINDS.len())
        .map(|a| {
            (0..epsilons.len())
                .map(|e| {
                    let ai = a * epsilons.len() + e;
                    let errors = run.pooled_errors(|c| c.cell.index.attack == ai);
                    ErrorStats::from_errors(&errors).mean
                })
                .collect()
        })
        .collect();

    let col_labels: Vec<String> = epsilons.iter().map(|e| format!("{e:.2}")).collect();
    let row_labels: Vec<String> = ALL_ATTACK_KINDS
        .iter()
        .map(|k| k.label().to_string())
        .collect();
    println!(
        "{}",
        heatmap("attack \\ eps", &col_labels, &row_labels, &values)
    );

    // Summary checks against the paper's claims.
    let flip_idx = ALL_ATTACK_KINDS
        .iter()
        .position(|k| *k == AttackKind::LabelFlip)
        .expect("label flip present");
    let flip_low = values[flip_idx][0];
    let flip_high = *values[flip_idx].last().expect("non-empty");
    println!(
        "\nlabel-flip rises from {flip_low:.2} m (low eps) to {flip_high:.2} m (eps = 1.0); \
         paper: up to 4.38 m at eps = 1.0"
    );
}
