//! Benchmark harness regenerating every table and figure of the SAFELOC
//! paper.
//!
//! Each figure is a scenario file in `scenarios/` at the repo root, run by
//! the one `suite` binary and rendered by the file's [`ReportView`]:
//!
//! | Spec file | View | Paper artifact |
//! |---|---|---|
//! | `fig1_motivation.json` | `Stats`, baseline `Attack` | Fig. 1 — FEDLOC/FEDHIL degradation under attack |
//! | `fig4_threshold.json` | `Pivot`, framework × building | Fig. 4 — τ sweep |
//! | `fig5_heatmap.json` | `Pivot`, attack kind × ε | Fig. 5 — attack × ε heatmap |
//! | `fig6_comparison.json` | `Stats`, baseline `Framework` | Fig. 6 — SAFELOC vs. state-of-the-art |
//! | `fig7_scalability.json` | `Pivot`, fleet × framework | Fig. 7 — client-count scaling |
//! | `fig8_participation.json` | `Cells` | (ours) accuracy + attacker-rejection rate vs participation fraction |
//! | `ablation.json` | `Pivot`, framework × attack | (ours) design-choice attribution |
//!
//! Table I (parameters + inference latency) is the criterion bench
//! `benches/inference_latency.rs`: each benchmark id carries the
//! framework's parameter count.
//!
//! The engine is [`suite`]. Every cell runs through one
//! [`safeloc_fl::FlSession`]: [`run_fleet_with_network`] takes any
//! [`CohortSampler`](safeloc_fl::CohortSampler), installs the suite's
//! network axis as the session's per-round plan transform and returns the
//! per-round [`RoundReport`](safeloc_fl::RoundReport)s next to the errors.
//! [`SyntheticFleet`] is a generating
//! [`FleetProvider`](safeloc_fl::FleetProvider) for fleets too large to
//! hold in memory (`examples/scalability.rs`).
//!
//! This crate reproduces figures; it does not record performance. The
//! perf record is the standalone `benchmark/` crate at the repo root, and
//! the criterion benches under `benches/` are the kernel-level companions
//! (with [`naive`]'s seed kernels as their baselines). [`telem`] is the
//! `TELEM_*.json` dump `examples/observability.rs` writes and checks.
//!
//! The `suite` binary accepts `--quick` (smoke-test scale), `--full` (the
//! paper's 700-epoch configuration) and `--seed N`; the default is a
//! scaled-down-but-converged configuration (`ServerConfig::default_scale`
//! and `SafeLocConfig::default_scale` say what is scaled and why). A spec's
//! grid is the same at every scale: a thinner grid is a thinner file.

pub mod fleet;
pub mod harness;
pub mod naive;
pub mod rss;
pub mod suite;
pub mod telem;

pub use fleet::SyntheticFleet;
pub use harness::{
    default_buildings, evaluate_errors, run_fleet_with_network, scenario_fleet, HarnessConfig,
    Scale, Scenario, ScenarioOutcome,
};
pub use rss::record_peak_rss_gauge;
pub use suite::{
    AttackSpec, CellRun, CombinerSpec, DefenseSpec, FleetSpec, FrameworkSpec, Key, NetworkSpec,
    ParticipationMode, ParticipationSpec, PipelineSpec, ReportView, SafelocVariant, ScenarioCell,
    ScenarioSpec, StageSpec, StageSuiteStats, SuiteCellReport, SuiteReport, SuiteRun, SuiteRunner,
};
pub use telem::TelemetryDump;
