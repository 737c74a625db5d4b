//! Benchmark harness regenerating every table and figure of the SAFELOC
//! paper.
//!
//! Each binary in `src/bin/` reproduces one experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_motivation` | Fig. 1 — FEDLOC/FEDHIL degradation under attack |
//! | `fig4_threshold` | Fig. 4 — τ sweep |
//! | `fig5_heatmap` | Fig. 5 — attack × ε heatmap |
//! | `fig6_comparison` | Fig. 6 — SAFELOC vs. state-of-the-art |
//! | `fig7_scalability` | Fig. 7 — client-count scaling |
//! | `fig8_participation` | (ours) accuracy + attacker-rejection rate vs participation fraction |
//! | `table1_overhead` | Table I — parameters + inference latency |
//! | `ablation` | (ours) design-choice attribution |
//!
//! The figure binaries are specs plus formatters over the scenario-suite
//! engine ([`suite`]; the `suite` binary runs a checked-in
//! `scenarios/*.json` spec directly). Every cell runs through one
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
//! (with [`naive`]'s seed kernels as their baselines). `telemetry_dump`
//! cross-validates the three views of a telemetry snapshot ([`telem`]).
//!
//! Every binary accepts `--quick` (smoke-test scale), `--full` (the paper's
//! 700-epoch configuration) and `--seed N`; the default is a
//! scaled-down-but-converged configuration (`ServerConfig::default_scale`
//! and `SafeLocConfig::default_scale` say what is scaled and why).

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
    AttackSpec, CellRun, CombinerSpec, DefenseSpec, FleetSpec, FrameworkSpec, NetworkSpec,
    ParticipationMode, ParticipationSpec, PipelineSpec, SafelocVariant, ScenarioCell, ScenarioSpec,
    StageSpec, StageSuiteStats, SuiteCellReport, SuiteReport, SuiteRun, SuiteRunner,
};
pub use telem::{ChromeEvent, TelemetryDump};
