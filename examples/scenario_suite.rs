//! Scenario-suite engine walkthrough: declare a grid, run it, read the
//! per-cell defense telemetry — the same machinery behind every `fig*` and
//! `table*` binary and the checked-in `scenarios/` specs.
//!
//! Runs on tiny synthetic buildings so it finishes in seconds:
//!
//! ```text
//! cargo run --release --example scenario_suite
//! ```

use safeloc_repro::attacks::Attack;
use safeloc_repro::bench::{
    AttackSpec, FrameworkSpec, HarnessConfig, ParticipationSpec, Scale, ScenarioSpec, SuiteRunner,
};
use safeloc_repro::dataset::{Building, BuildingDataset, DatasetConfig};

fn main() {
    // One declarative spec instead of hand-rolled sweep loops: the grid is
    // frameworks × buildings × fleets × attacks × participation × seeds.
    let mut spec = ScenarioSpec::new(
        "example",
        vec![FrameworkSpec::Krum, FrameworkSpec::FedLoc],
        vec![AttackSpec::clean(), AttackSpec::of(Attack::label_flip(1.0))],
    );
    spec.description = "Krum vs undefended FedAvg under shrinking cohorts".into();
    spec.buildings = vec![4];
    spec.rounds = 3;
    spec.boost = Some(4.0);
    spec.participation = vec![
        ParticipationSpec::full(),
        ParticipationSpec::fraction(0.67).with_churn(0.1, 0.0),
    ];

    let cfg = HarnessConfig {
        scale: Scale::Quick,
        seed: 7,
    };
    // The default runner generates the paper's buildings; the example swaps
    // in tiny ones so it runs in seconds.
    let mut runner = SuiteRunner::new(cfg, spec).with_dataset_builder(|building, _fleet, seed| {
        BuildingDataset::generate(
            Building::tiny(building as u64),
            &DatasetConfig::tiny(),
            seed,
        )
    });

    println!(
        "expanding {} cells at {:?} scale\n",
        runner.cells().len(),
        cfg.scale
    );
    let run = runner.run();

    // Every cell carries errors, accuracy and the defense decision trail.
    println!("\n{}", run.markdown());

    // Per-rule rejection statistics answer "which rule caught the attacker,
    // and what did it cost the honest clients?"
    for cell in &run.cells {
        for rule in cell.rule_stats() {
            println!(
                "{} / {}: rule {:?} rejected {} attacker + {} honest deliveries",
                cell.cell.framework.label(),
                cell.cell.participation.label(cell.fleet_size),
                rule.rule,
                rule.attacker_rejections,
                rule.honest_rejections,
            );
        }
    }

    // The whole suite serializes for regression tracking (the `suite` bin
    // writes it as SUITE_<name>.json; CI uploads it as an artifact).
    let report = run.report();
    println!(
        "\nSuiteReport: {} cells, schema {}",
        report.cells.len(),
        report.schema
    );
}
