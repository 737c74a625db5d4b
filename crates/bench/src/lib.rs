//! Benchmark harness regenerating every table and figure of the SAFELOC
//! paper.
//!
//! Each binary in `src/bin/` reproduces one experiment (see `DESIGN.md` §3
//! for the full index):
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
//! | `serve_bench` | (ours) closed-loop serving load + mid-traffic hot swap → `SERVE_*.json` + the `serving` section of `BENCH_nn.json` |
//!
//! Scenario execution runs through [`safeloc_fl::FlSession`]:
//! [`run_scenario`] drives a full-participation session, and
//! [`run_scenario_with_reports`] accepts any
//! [`CohortSampler`](safeloc_fl::CohortSampler) and returns the per-round
//! [`RoundReport`](safeloc_fl::RoundReport)s next to the errors;
//! [`run_fleet_with_network`] installs the suite's network axis as the
//! same session's per-round plan transform. City-scale cells hand the
//! session a [`SyntheticFleet`], a generating
//! [`FleetProvider`](safeloc_fl::FleetProvider).
//!
//! Every binary accepts `--quick` (smoke-test scale), `--full` (the paper's
//! 700-epoch configuration) and `--seed N`; the default is a
//! scaled-down-but-converged configuration (`DESIGN.md` §5).

pub mod fleet;
pub mod harness;
pub mod naive;
pub mod perf;
pub mod rss;
pub mod suite;
pub mod telem;

pub use fleet::SyntheticFleet;
pub use harness::{
    build_dataset, build_frameworks, default_buildings, evaluate_errors, pretrained_safeloc,
    run_fleet_with_network, run_fleet_with_reports, run_scenario, run_scenario_with_reports,
    scenario_fleet, HarnessConfig, Scale, Scenario, ScenarioOutcome,
};
pub use perf::{pool_stage_means, time_median_ns, FleetTiming, PerfReport, StageMean};
pub use rss::{peak_rss_bytes, record_peak_rss_gauge, reset_peak_rss};
pub use suite::{
    AttackSpec, CellRun, CombinerSpec, DefenseSpec, FleetSpec, FrameworkSpec, NetworkSpec,
    ParticipationMode, ParticipationSpec, PipelineSpec, SafelocVariant, ScenarioCell, ScenarioSpec,
    StageSpec, StageSuiteStats, SuiteCellReport, SuiteReport, SuiteRun, SuiteRunner,
};
pub use telem::{ChromeEvent, TelemetryDump};
