//! Integration tests for the scenario-suite engine: end-to-end cell
//! execution on tiny datasets, thread-count invariance of a suite cell,
//! report assembly and views, the checked-in `scenarios/` spec files, and
//! Table I's parameter counts.

use rayon::ThreadPoolBuilder;
use safeloc_attacks::Attack;
use safeloc_bench::{
    AttackSpec, CellRun, ErrorStats, FrameworkSpec, HarnessConfig, Key, NetworkSpec,
    ParticipationMode, ParticipationSpec, ReportView, Scale, ScenarioSpec, SuiteReport,
    SuiteRunner,
};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, FingerprintSet};
use safeloc_nn::Matrix;

/// A runner over tiny synthetic buildings so tests stay fast; the builder
/// keys datasets off the requested building id.
fn tiny_runner(spec: ScenarioSpec) -> SuiteRunner {
    let cfg = HarnessConfig {
        scale: Scale::Quick,
        seed: 11,
    };
    SuiteRunner::new(cfg, spec).with_dataset_builder(|building, _fleet, seed| {
        BuildingDataset::generate(
            Building::tiny(building as u64),
            &DatasetConfig::tiny(),
            seed,
        )
    })
}

fn tiny_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "suite_integration",
        vec![FrameworkSpec::FedLoc, FrameworkSpec::Krum],
        vec![AttackSpec::clean(), AttackSpec::of(Attack::label_flip(1.0))],
    );
    spec.buildings = vec![4];
    spec.rounds = 2;
    // The tiny dataset has 3 devices: the paper's HTC U11 index does not
    // exist there and client 2 is the training device, so the attacked
    // cells compromise client 1.
    spec.participation = vec![
        ParticipationSpec::full(),
        ParticipationSpec {
            mode: ParticipationMode::UniformK { k: 2 },
            dropout: 0.2,
            straggle: 0.0,
        },
    ];
    spec
}

#[test]
#[allow(clippy::identity_op)] // the full axis product documents the grid
fn suite_runs_every_cell_and_reports_metrics() {
    let mut runner = tiny_runner(tiny_spec());
    let expected = runner.cells().len();
    assert_eq!(expected, 2 * 1 * 1 * 2 * 2 * 1);
    let run = runner.run();
    assert_eq!(run.cells.len(), expected);
    for cell in &run.cells {
        assert_eq!(cell.reports.len(), 2, "two rounds per cell");
        assert!(!cell.errors.is_empty(), "errors evaluated per cell");
        assert!(cell.stats().mean.is_finite());
        assert!((0.0..=1.0).contains(&cell.accuracy()));
        assert!(cell.report().mean_train_ms >= 0.0);
        assert!(cell.report().mean_aggregate_ms >= 0.0);
    }
    // The clean cells have no attacker statistics; the report serializes.
    let report = run.report();
    assert_eq!(report.cells.len(), expected);
    let json = serde_json::to_string(&report).unwrap();
    let back: SuiteReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    // Markdown renders one row per cell.
    let md = run.markdown();
    assert_eq!(md.lines().count(), expected + 2);
}

#[test]
fn pivot_entries_are_the_mean_of_their_pooled_cells() {
    let mut runner = tiny_runner(tiny_spec());
    let run = runner.run();
    let table = ReportView::Pivot {
        rows: Key::Framework,
        cols: Key::Attack,
    }
    .render(&run);
    let split = |line: &str| -> Vec<String> {
        line.trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(
        lines.len(),
        2 + 2,
        "a header, a rule and one row per framework"
    );
    let header = split(lines[0]);
    assert_eq!(
        header,
        ["framework \\ attack", "Clean", "Label Flip eps=1.00"]
    );
    for line in &lines[2..] {
        let row = split(line);
        for (attack, value) in header[1..].iter().zip(&row[1..]) {
            let matches = |c: &CellRun| {
                c.cell.framework.label() == row[0] && c.cell.attack.label() == *attack
            };
            // Each entry pools the two participation cells.
            assert_eq!(run.cells.iter().filter(|c| matches(c)).count(), 2);
            let mean = ErrorStats::from_errors(&run.pooled_errors(matches)).mean;
            assert_eq!(*value, format!("{mean:.2}"), "{} × {attack}", row[0]);
        }
    }
}

#[test]
fn krum_cells_expose_per_rule_rejections() {
    let mut spec = tiny_spec();
    spec.frameworks = vec![FrameworkSpec::Krum];
    spec.participation = vec![ParticipationSpec::full()];
    spec.boost = Some(4.0);
    let mut runner = tiny_runner(spec);
    let run = runner.run();
    // The attacked cell (attack index 1) must surface Krum rejections.
    let attacked = run
        .cells
        .iter()
        .find(|c| c.cell.index.attack == 1)
        .expect("attacked cell present");
    let rules = attacked.report().rules;
    assert!(
        rules.iter().any(|r| r.rule == "krum"),
        "no krum rule stats: {rules:?}"
    );
    for rule in &rules {
        let rejections = rule.attacker_rejections + rule.honest_rejections;
        assert!(rejections > 0, "rule entry without rejections");
        if let Some(rate) = rule.false_positive_rate {
            assert!((0.0..=1.0).contains(&rate));
        }
    }
}

#[test]
fn suite_cells_are_bitwise_deterministic_across_thread_counts() {
    // `run()` fans cells out over the thread pool; the grid must be
    // bitwise identical no matter how many workers execute it.
    let run_with = |threads: usize| {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| {
                let mut runner = tiny_runner(tiny_spec());
                let run = runner.run();
                run.cells
                    .into_iter()
                    .map(|c| (c.errors, c.reports.into_iter().map(|r| r.clients).collect()))
                    .collect::<Vec<(Vec<f32>, Vec<_>)>>()
            })
    };
    let serial = run_with(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run_with(threads),
            "suite cell outcomes diverged at {threads} threads"
        );
    }
}

#[test]
fn parallel_run_matches_serial_run_cell_bitwise() {
    // The parallel fan-out is an execution-order change only: every cell
    // must reproduce what a serial `run_cell` loop computes, bit for bit.
    let mut serial_runner = tiny_runner(tiny_spec());
    let cells = serial_runner.cells();
    let serial: Vec<_> = cells
        .iter()
        .map(|cell| serial_runner.run_cell(cell))
        .collect();

    let mut parallel_runner = tiny_runner(tiny_spec());
    let parallel = parallel_runner.run();

    assert_eq!(serial.len(), parallel.cells.len());
    for (s, p) in serial.iter().zip(&parallel.cells) {
        assert_eq!(s.cell, p.cell);
        assert_eq!(s.errors, p.errors, "{}", s.cell.label());
        assert_eq!(
            s.reports.iter().map(|r| &r.clients).collect::<Vec<_>>(),
            p.reports.iter().map(|r| &r.clients).collect::<Vec<_>>(),
            "{}",
            s.cell.label()
        );
        assert!(s.error.is_none() && p.error.is_none());
    }
}

#[test]
fn failing_cells_are_embedded_as_errors_not_fatal() {
    // Building 7's clients carry fingerprints of the wrong width, so its
    // cells panic mid-session; the suite must finish, embed the panic per
    // cell and keep the healthy building's results intact.
    let mut spec = tiny_spec();
    spec.buildings = vec![4, 7];
    spec.participation = vec![ParticipationSpec::full()];
    let cfg = HarnessConfig {
        scale: Scale::Quick,
        seed: 11,
    };
    let mut runner = SuiteRunner::new(cfg, spec).with_dataset_builder(|building, _fleet, seed| {
        let mut data = BuildingDataset::generate(
            Building::tiny(building as u64),
            &DatasetConfig::tiny(),
            seed,
        );
        if building == 7 {
            for set in &mut data.client_local {
                *set = FingerprintSet::new(Matrix::zeros(4, 3), vec![0; 4]);
            }
        }
        data
    });
    let run = runner.run();
    let (healthy, failed): (Vec<_>, Vec<_>) = run.cells.iter().partition(|c| c.cell.building == 4);
    assert!(!healthy.is_empty() && !failed.is_empty());
    for cell in healthy {
        assert!(cell.error.is_none(), "{}", cell.cell.label());
        assert!(!cell.errors.is_empty());
    }
    for cell in failed {
        assert!(cell.error.is_some(), "{}", cell.cell.label());
        assert!(cell.errors.is_empty() && cell.reports.is_empty());
    }
    // Failed cells survive report serialization with their message.
    let report = run.report();
    let json = serde_json::to_string(&report).unwrap();
    let back: SuiteReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert!(back.cells.iter().any(|c| c.error.is_some()));
}

#[test]
fn network_axis_degrades_rounds_through_the_fault_shim() {
    use safeloc_fl::ClientOutcome;

    let mut spec = tiny_spec();
    spec.frameworks = vec![FrameworkSpec::FedLoc];
    spec.participation = vec![ParticipationSpec::full()];
    spec.attacks = vec![AttackSpec::clean()];
    spec.networks = vec![
        NetworkSpec::ideal(),
        NetworkSpec {
            name: Some("lossy".into()),
            drop_probability: 1.0,
            ..NetworkSpec::ideal()
        },
        NetworkSpec {
            name: Some("congested".into()),
            latency_ms_mean: 50.0,
            deadline_ms: 10.0,
            ..NetworkSpec::ideal()
        },
    ];
    let mut runner = tiny_runner(spec);
    assert_eq!(runner.cells().len(), 3, "network axis multiplies the grid");
    let run = runner.run();
    assert!(run.cells.iter().all(|c| c.error.is_none()));

    // Everyone delivers on the ideal network — and that cell is bitwise
    // identical to a spec without the network axis at all.
    let ideal = &run.cells[0];
    assert!(ideal.reports.iter().all(|r| r
        .clients
        .iter()
        .all(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))));
    let mut pre_axis = tiny_spec();
    pre_axis.frameworks = vec![FrameworkSpec::FedLoc];
    pre_axis.participation = vec![ParticipationSpec::full()];
    pre_axis.attacks = vec![AttackSpec::clean()];
    let mut pre_axis_runner = tiny_runner(pre_axis);
    let pre_axis_run = pre_axis_runner.run();
    assert_eq!(
        ideal.errors, pre_axis_run.cells[0].errors,
        "ideal-network cells must reproduce the pre-axis engine bitwise"
    );

    // drop_probability 1.0: every connection drops, every round.
    let lossy = &run.cells[1];
    assert!(lossy.reports.iter().all(|r| r
        .clients
        .iter()
        .all(|c| matches!(c.outcome, ClientOutcome::DroppedOut))));

    // Constant 50 ms latency against a 10 ms deadline: everyone straggles.
    let congested = &run.cells[2];
    assert!(congested.reports.iter().all(|r| r
        .clients
        .iter()
        .all(|c| matches!(c.outcome, ClientOutcome::Straggled))));

    // The report and markdown carry the network axis.
    let report = run.report();
    assert_eq!(report.cells[0].network, "ideal");
    assert_eq!(report.cells[1].network, "lossy");
    let json = serde_json::to_string(&report).unwrap();
    let back: SuiteReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert!(run.markdown().contains("congested"));
}

#[test]
#[allow(clippy::identity_op)] // the full axis product documents the grid
fn checked_in_network_churn_spec_parses_and_expands() {
    let json = include_str!("../../../scenarios/network_churn.json");
    let spec: ScenarioSpec =
        serde_json::from_str(json).expect("scenarios/network_churn.json parses");
    assert_eq!(spec.name, "network_churn");
    assert_eq!(spec.networks.len(), 4);
    assert!(spec.networks[0].is_ideal());
    assert!(spec.networks.iter().skip(1).all(|n| !n.is_ideal()));
    // At least two profiles inject latency; at least one drops connections.
    assert!(
        spec.networks
            .iter()
            .filter(|n| n.latency_ms_mean > 0.0)
            .count()
            >= 2
    );
    assert!(spec.networks.iter().any(|n| n.drop_probability > 0.0));
    let runner = SuiteRunner::new(
        HarnessConfig {
            scale: Scale::Quick,
            seed: 42,
        },
        spec,
    );
    // frameworks × attacks × networks
    assert_eq!(runner.cells().len(), 2 * 1 * 4);
}

#[test]
#[allow(clippy::identity_op)] // the full axis product documents the grid
fn checked_in_small_cohort_spec_parses_and_expands() {
    let json = include_str!("../../../scenarios/small_cohort.json");
    let spec: ScenarioSpec =
        serde_json::from_str(json).expect("scenarios/small_cohort.json parses");
    assert_eq!(spec.name, "small_cohort");
    assert_eq!(spec.frameworks.len(), 3);
    assert_eq!(spec.participation.len(), 4);
    let runner = SuiteRunner::new(
        HarnessConfig {
            scale: Scale::Quick,
            seed: 42,
        },
        spec,
    );
    // frameworks × buildings × fleets × attacks × participation × seeds
    assert_eq!(runner.cells().len(), 3 * 1 * 1 * 1 * 4 * 1);
}

#[test]
fn defense_axis_multiplies_the_grid_and_swaps_pipelines_in() {
    use safeloc_bench::{CombinerSpec, DefenseSpec, PipelineSpec, StageSpec};

    let mut spec = tiny_spec();
    spec.frameworks = vec![FrameworkSpec::FedLoc];
    spec.participation = vec![ParticipationSpec::full()];
    spec.attacks = vec![AttackSpec::of(Attack::label_flip(1.0))];
    spec.boost = Some(6.0);
    spec.defenses = vec![
        DefenseSpec::Builtin,
        DefenseSpec::Pipeline(PipelineSpec {
            name: Some("norm-clip+krum".into()),
            stages: vec![StageSpec::NormClip { multiple: 3.0 }],
            combiner: CombinerSpec::Krum {
                assumed_byzantine: 1,
            },
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::CoordinateMedian,
        }),
    ];
    let mut runner = tiny_runner(spec);
    let cells = runner.cells();
    assert_eq!(cells.len(), 3, "defense axis must multiply the grid");
    let run = runner.run();
    assert!(run.cells.iter().all(|c| c.error.is_none()));

    // The builtin cell keeps FEDLOC's own (defenseless) rule: every
    // update accepted, no rejections anywhere in the stage trail.
    let builtin = &run.cells[0];
    assert_eq!(builtin.cell.defense, DefenseSpec::Builtin);
    assert_eq!(builtin.report().attacker_rejection_rate, Some(0.0));

    // The composed cell rejects through the spec-built pipeline, and the
    // per-stage trail in the report shows which stage did it.
    let composed = &run.cells[1];
    assert_eq!(composed.cell.defense.label(), "norm-clip+krum");
    let stages = composed.report().stage_stats;
    let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        vec!["non-finite", "norm-clip", "krum"],
        "stage trail must list stage zero, then the composition in order"
    );
    let krum = stages.iter().find(|s| s.stage == "krum").unwrap();
    assert!(
        krum.rejections > 0,
        "Krum selection rejects the non-selected updates"
    );
    assert!(stages.iter().all(|s| s.mean_wall_ms >= 0.0));

    // Serialized cell reports carry the defense label and stage stats.
    let report = run.report();
    assert_eq!(report.cells[0].defense, "builtin");
    assert_eq!(report.cells[1].defense, "norm-clip+krum");
    assert!(!report.cells[1].stage_stats.is_empty());
    let json = serde_json::to_string(&report).unwrap();
    let back: SuiteReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    // The markdown table names the defense axis.
    let md = run.markdown();
    assert!(md.contains("norm-clip+krum"));
    assert!(md.contains("coordinate-median"));
}

#[test]
fn defense_variants_share_one_pretrained_template() {
    use safeloc_bench::{CombinerSpec, DefenseSpec, PipelineSpec};

    // Same framework × building × fleet with two defenses: the runner must
    // pretrain exactly one template (the defense is applied post-clone).
    let mut spec = tiny_spec();
    spec.frameworks = vec![FrameworkSpec::FedLoc];
    spec.participation = vec![ParticipationSpec::full()];
    spec.attacks = vec![AttackSpec::clean()];
    spec.defenses = vec![
        DefenseSpec::Builtin,
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::Mean,
        }),
    ];
    let mut runner = tiny_runner(spec);
    let cells = runner.cells();
    // Building both cells' frameworks forces template resolution; if the
    // defense leaked into the template key this would pretrain twice and
    // the clean trajectories would diverge between axis positions.
    let a = runner.framework(&cells[0]);
    let b = runner.framework(&cells[1]);
    assert_eq!(
        a.global_params(),
        b.global_params(),
        "defense variants must fork the same pretrained weights"
    );
}

#[test]
fn table1_parameter_counts_are_pinned_on_paper_building_1() {
    use safeloc::{SafeLoc, SafeLocConfig};
    use safeloc_baselines::{fedcc, fedhil, fedloc, fedls, Onlad};
    use safeloc_fl::{Framework, ServerConfig};

    // Table I's parameter column: architecture-only, so untrained models
    // on the paper building's geometry carry the deployed counts.
    let building = Building::paper(1);
    let (aps, rps) = (building.num_aps(), building.num_rps());
    let cfg = ServerConfig::tiny();
    let frameworks: Vec<Box<dyn Framework>> = vec![
        Box::new(SafeLoc::new(aps, rps, SafeLocConfig::paper(cfg.seed))),
        Box::new(Onlad::new(aps, rps, cfg)),
        Box::new(fedls(aps, rps, cfg)),
        Box::new(fedcc(aps, rps, cfg)),
        Box::new(fedhil(aps, rps, cfg)),
        Box::new(fedloc(aps, rps, cfg)),
    ];
    let counts: Vec<(&str, usize)> = frameworks
        .iter()
        .map(|f| (f.name(), f.num_params()))
        .collect();
    assert_eq!(
        counts,
        vec![
            ("SAFELOC", 70_830),
            ("ONLAD", 223_660),
            ("FEDLS", 251_196),
            ("FEDCC", 72_932),
            ("FEDHIL", 167_228),
            ("FEDLOC", 241_836),
        ]
    );
}
