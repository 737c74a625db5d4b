//! Workspace facade for the SAFELOC reproduction.
//!
//! The implementation lives in the `crates/` workspace members; this crate
//! re-exports them under one roof so the top-level `tests/` and `examples/`
//! have a single dependency, and so `cargo doc` renders the whole system
//! from one entry point.
//!
//! | Crate | Role |
//! |---|---|
//! | [`nn`] | dense NN substrate (blocked matmul kernels, layers, losses, optimizers) |
//! | [`dataset`] | synthetic multi-building, multi-device RSS fingerprints |
//! | [`attacks`] | the five poisoning attacks of §III.A |
//! | [`fl`] | federated engine: clients, servers, aggregation rules, sessions + round plans/reports |
//! | [`core`] | SAFELOC itself: fused network + saliency aggregation |
//! | [`baselines`] | FEDLOC / FEDHIL / KRUM / FEDCC / FEDLS / ONLAD |
//! | [`metrics`] | localization-error statistics and report rendering |
//! | [`serve`] | online serving: model registry, micro-batched inference, load harness |
//! | [`wire`] | binary wire protocol: TCP serving front, remote federated rounds |
//! | [`telemetry`] | lock-light metrics, flight-recorder tracing, Prometheus exposition |
//! | [`bench`](mod@bench) | paper-figure harness: scenario suites, figure bins, criterion kernel benches |

pub use safeloc as core;
pub use safeloc_attacks as attacks;
pub use safeloc_baselines as baselines;
pub use safeloc_bench as bench;
pub use safeloc_dataset as dataset;
pub use safeloc_fl as fl;
pub use safeloc_metrics as metrics;
pub use safeloc_nn as nn;
pub use safeloc_serve as serve;
pub use safeloc_telemetry as telemetry;
pub use safeloc_wire as wire;
