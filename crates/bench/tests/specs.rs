//! Serde round-trips of the public scenario-spec surface: `Attack`,
//! `AttackSpec`, `ParticipationMode`/`ParticipationSpec` and the
//! defense-pipeline axis (`DefenseSpec`/`StageSpec`/`CombinerSpec`).
//! These types *are* the `scenarios/*.json` interface — a shape change
//! that breaks checked-in specs, or an unknown stage name that silently
//! parses, must fail here rather than in a CI suite run. The paper-figure
//! files are pinned to the paper's grids here too.

use safeloc_attacks::{paper_epsilon_grid, paper_tau_grid, Attack, ALL_ATTACK_KINDS};
use safeloc_bench::{
    AttackSpec, CombinerSpec, DefenseSpec, FrameworkSpec, HarnessConfig, ParticipationMode,
    ParticipationSpec, PipelineSpec, Scale, ScenarioSpec, StageSpec, SuiteRunner,
};
use std::path::PathBuf;

/// The paper-figure spec files, one per figure the suite renders.
const FIGURES: [&str; 7] = [
    "fig1_motivation",
    "fig4_threshold",
    "fig5_heatmap",
    "fig6_comparison",
    "fig7_scalability",
    "fig8_participation",
    "ablation",
];

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> ScenarioSpec {
    let path = scenarios_dir().join(format!("{name}.json"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}.json: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}.json does not parse: {e:?}"))
}

#[test]
fn every_checked_in_scenario_parses_and_expands() {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let spec = load(&name);
            assert_eq!(spec.name, name, "a spec is named after its file");
            let runner = SuiteRunner::new(
                HarnessConfig {
                    scale: Scale::Quick,
                    seed: 42,
                },
                spec,
            );
            let cells = runner.cells();
            assert!(!cells.is_empty(), "{name} expands to no cells");
            for cell in &cells {
                assert_eq!(cell.validate(), Ok(()), "{name}: {}", cell.label());
            }
            names.push(name);
        }
    }
    for figure in FIGURES {
        assert!(names.iter().any(|n| n == figure), "scenarios/{figure}.json");
        // Every figure leaves the round count to the scale.
        assert_eq!(load(figure).rounds, 0, "{figure}");
    }
}

#[test]
fn fig4_sweeps_the_paper_tau_grid() {
    let taus: Vec<f32> = load("fig4_threshold")
        .frameworks
        .iter()
        .map(|f| match f {
            FrameworkSpec::SafelocTau { tau } => *tau,
            other => panic!("fig4 sweeps tau only, found {other:?}"),
        })
        .collect();
    assert_eq!(taus, paper_tau_grid());
}

#[test]
fn fig5_sweeps_the_paper_epsilon_grid_for_every_attack_kind() {
    let spec = load("fig5_heatmap");
    assert_eq!(spec.buildings, vec![1, 5]);
    assert_eq!(
        spec.attacks.len(),
        ALL_ATTACK_KINDS.len() * paper_epsilon_grid().len()
    );
    for kind in ALL_ATTACK_KINDS {
        let epsilons: Vec<f32> = spec
            .attacks
            .iter()
            .filter_map(|a| a.attack.as_ref())
            .filter(|a| a.kind() == kind)
            .map(Attack::epsilon)
            .collect();
        assert_eq!(epsilons, paper_epsilon_grid(), "{kind:?}");
    }
}

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes its own serialization")
}

#[test]
fn attacks_round_trip() {
    for attack in [
        Attack::clb(0.2),
        Attack::fgsm(0.1),
        Attack::pgd(0.3),
        Attack::mim(0.4),
        Attack::label_flip(0.5),
    ] {
        assert_eq!(round_trip(&attack), attack);
    }
}

#[test]
fn attack_specs_round_trip() {
    for spec in [
        AttackSpec::clean(),
        AttackSpec::of(Attack::label_flip(0.8)),
        AttackSpec::named("display name", Attack::fgsm(0.25)),
    ] {
        let back = round_trip(&spec);
        assert_eq!(back, spec);
        assert_eq!(back.label(), spec.label());
    }
}

#[test]
fn participation_modes_round_trip() {
    let modes = [
        ParticipationMode::Full,
        ParticipationMode::Fraction { fraction: 0.33 },
        ParticipationMode::UniformK { k: 3 },
        ParticipationMode::WeightedByData { k: 2 },
    ];
    for mode in modes {
        let spec = ParticipationSpec {
            mode: mode.clone(),
            dropout: 0.15,
            straggle: 0.05,
        };
        assert_eq!(round_trip(&spec), spec);
    }
}

#[test]
fn defense_specs_round_trip() {
    let defenses = [
        DefenseSpec::Builtin,
        DefenseSpec::Pipeline(PipelineSpec {
            name: Some("norm-clip+krum".into()),
            stages: vec![StageSpec::NonFinite, StageSpec::NormClip { multiple: 3.0 }],
            combiner: CombinerSpec::Krum {
                assumed_byzantine: 1,
            },
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: vec![
                StageSpec::ClusterSplit {
                    separation_threshold: 0.15,
                },
                StageSpec::LatentScreen { z_threshold: 1.8 },
                StageSpec::HistoryScreen {
                    z_threshold: 1.8,
                    min_history: 3,
                },
            ],
            combiner: CombinerSpec::Mean,
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::TrimmedMean {
                trim_fraction: 0.25,
            },
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::CoordinateMedian,
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::Saliency { sharpness: 10.0 },
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::Selective {
                aggregate_fraction: 0.5,
            },
        }),
        DefenseSpec::Pipeline(PipelineSpec {
            name: None,
            stages: Vec::new(),
            combiner: CombinerSpec::SampleWeightedMean,
        }),
    ];
    for defense in &defenses {
        let back = round_trip(defense);
        assert_eq!(&back, defense);
        assert_eq!(back.label(), defense.label());
    }
    // Every spec-built pipeline is actually buildable.
    for defense in &defenses {
        if let DefenseSpec::Pipeline(p) = defense {
            let pipeline = p.build(7);
            assert_eq!(pipeline.label(), p.label());
        }
    }
}

#[test]
fn derived_pipeline_labels_name_the_composition() {
    let p = PipelineSpec {
        name: None,
        stages: vec![StageSpec::NormClip { multiple: 3.0 }],
        combiner: CombinerSpec::Krum {
            assumed_byzantine: 1,
        },
    };
    assert_eq!(p.label(), "norm-clip(3)→krum(f=1)");
    let named = PipelineSpec {
        name: Some("custom".into()),
        ..p
    };
    assert_eq!(named.label(), "custom");
}

#[test]
fn unknown_stage_names_are_rejected_with_a_readable_error() {
    let json = r#"{
        "name": "bogus",
        "stages": [{ "QuantumShield": { "entanglement": 9.0 } }],
        "combiner": "Mean"
    }"#;
    let err = serde_json::from_str::<PipelineSpec>(json)
        .expect_err("an unknown stage name must not parse");
    let message = format!("{err:?}");
    assert!(
        message.contains("QuantumShield"),
        "error does not name the offending stage: {message}"
    );
    // Unknown combiners are rejected the same way.
    let json = r#"{ "name": null, "stages": [], "combiner": "Blockchain" }"#;
    let err = serde_json::from_str::<PipelineSpec>(json)
        .expect_err("an unknown combiner name must not parse");
    let message = format!("{err:?}");
    assert!(
        message.contains("Blockchain"),
        "error does not name the offending combiner: {message}"
    );
}

#[test]
fn specs_without_a_defense_axis_default_to_builtin() {
    // The pre-axis spec shape (scenarios/small_cohort.json) must keep
    // parsing and expand against the builtin defense only.
    let json = r#"{
        "name": "minimal",
        "frameworks": ["FedLoc"],
        "attacks": [{"name": null, "attack": null}],
        "boost": null
    }"#;
    let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
    assert_eq!(spec.defenses, vec![DefenseSpec::Builtin]);
}

#[test]
fn checked_in_defense_ablation_spec_parses_with_novel_compositions() {
    let json = include_str!("../../../scenarios/defense_ablation.json");
    let spec: ScenarioSpec = serde_json::from_str(json).expect("defense_ablation.json parses");
    assert_eq!(spec.name, "defense_ablation");
    let pipelines: Vec<&PipelineSpec> = spec
        .defenses
        .iter()
        .filter_map(|d| match d {
            DefenseSpec::Pipeline(p) => Some(p),
            DefenseSpec::Builtin => None,
        })
        .collect();
    assert!(
        pipelines.len() >= 3,
        "the ablation must sweep at least three composed defenses"
    );
    for p in pipelines {
        let built = p.build(3);
        assert_eq!(built.label(), p.label());
    }
    // The builtin reference point is part of the sweep too.
    assert!(spec.defenses.contains(&DefenseSpec::Builtin));
}
