//! Hand-rolled federated-learning engine for the SAFELOC reproduction.
//!
//! The paper's setting (§III): a central server holds a global model (GM),
//! distributes it to clients (phones), each client retrains a local model
//! (LM) on its own fingerprints — possibly poisoned — and the server
//! aggregates the returned LMs into the next GM.
//!
//! This crate provides the pieces every framework shares:
//!
//! * [`Client`] — local data + optional [`PoisonInjector`](safeloc_attacks::PoisonInjector),
//!   with the client-side training protocol in [`LocalTrainConfig`].
//! * [`ClientUpdate`] — an LM come back to the server as
//!   [`NamedParams`](safeloc_nn::NamedParams).
//! * [`defense`] — the one server-side screening module. A
//!   [`DefensePipeline`] is an ordered list of
//!   [`defense::DefenseStage`]s that screen the round's updates through a
//!   shared lazily-built [`defense::RoundContext`] (deltas, norms, distance
//!   matrices — computed once per round), then one terminal
//!   [`defense::Combiner`], returning an [`AggregationOutcome`] (next GM +
//!   per-update accept/reject decisions). *Stage zero of every pipeline*
//!   is the non-finite check ([`defense::NonFiniteGuard`]): the pipeline's
//!   [`Aggregator::aggregate`] is the one place outside updates meet the
//!   defense, an empty or all-rejected round leaves the GM untouched, and
//!   every stage — stage zero included — reports its rejections and wall
//!   time through [`report::StageTelemetry`]. The paper's rules are the
//!   building blocks: [`FedAvg`], [`Krum`] and [`SelectiveAggregator`]
//!   (FEDHIL) are combiners; [`ClusterAggregator`] (FEDCC),
//!   [`LatentFilterAggregator`] (FEDLS) and the opt-in [`HistoryScreen`]
//!   are screening stages; generic [`defense::NormClip`],
//!   [`defense::TrimmedMean`] and [`defense::CoordinateMedian`] open the
//!   robust-aggregation literature's compositions. SAFELOC's saliency
//!   combiner lives in the `safeloc` crate — it is the paper's
//!   contribution. Frameworks hold a concrete [`DefensePipeline`];
//!   [`Aggregator`] survives, with one implementor and only the
//!   `aggregate` / `take_stage_telemetry` pair, because the frozen
//!   `benchmark/` crate calls those through it — it and the `…Aggregator`
//!   type names go with ROADMAP item 2.
//! * **Round lifecycle** — a seeded [`CohortSampler`] draws one
//!   [`RoundPlan`] per round (full, uniform-k or weighted cohorts —
//!   including [`CohortSampler::weighted_by_data_volume`], which derives
//!   weights from per-client sample counts; per-client dropouts and
//!   stragglers); [`Framework::run_round`] executes a plan and returns a
//!   [`RoundReport`] recording what happened to every cohort member —
//!   trained (with aggregation weight), dropped out, straggled, or
//!   rejected by a named defense rule with its score.
//! * [`FlSession`] — framework + fleet + plan stream in one value, and
//!   the only round driver: the fleet sits behind a [`FleetProvider`]
//!   (an in-memory `Vec<Client>` lent in place, or a provider that
//!   generates each round's cohort on demand so city-scale fleets stay
//!   cohort-bounded in memory); the harness and examples drive every
//!   round through [`FlSession::next_round`].
//! * [`ServerRound`] — the server half of a round, written once: snapshot
//!   the GM, derive the round's training-seed salt, hand both to the
//!   engine's client collector, defend, load, report. Every engine runs
//!   its rounds through one, and the client half of a sequential round is
//!   one method too, [`Client::sequential_update`], whether the client sits
//!   in this process or behind `safeloc-wire`'s sockets.
//! * [`SequentialFlServer`] — a complete FL server around a
//!   [`Sequential`](safeloc_nn::Sequential) DNN global model; every baseline
//!   framework is this server with a different architecture + defense.
//! * [`Framework`] — the uniform interface the benchmark harness drives:
//!   pretrain → federated rounds → predict.
//!
//! Clients within a round train in parallel (they are independent by
//! construction); results are collected in client order and every client
//! draws from its own seed stream, so rounds are bitwise-identical for any
//! thread count and cohort membership never perturbs another client's
//! stream.
//!
//! # Example
//!
//! ```
//! use safeloc_fl::{Client, DefensePipeline, FlSession, Framework, SequentialFlServer, ServerConfig};
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
//!
//! let data = BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3);
//! let mut server = SequentialFlServer::new(
//!     &[data.building.num_aps(), 32, data.building.num_rps()],
//!     DefensePipeline::fedavg(),
//!     ServerConfig::tiny(),
//! );
//! server.pretrain(&data.server_train);
//! let mut session = FlSession::builder(Box::new(server))
//!     .clients(Client::from_dataset(&data, 1))
//!     .build();
//! let report = session.next_round();
//! assert_eq!(report.accepted(), session.fleet_len());
//! let acc = session
//!     .framework()
//!     .accuracy(&data.client_test[0].x, &data.client_test[0].labels);
//! assert!(acc > 0.2, "accuracy {acc}");
//! ```

pub mod client;
pub mod defense;
pub mod delta;
pub mod fleet;
pub mod framework;
pub mod metrics;
pub mod report;
pub mod round;
pub mod server;
pub mod session;
pub mod update;

// The six rule files that moved from `aggregate/` into `defense/` are
// mounted here, under the old private name, for one reason: a unit test's
// id is its module path, the tier-1 floor pins 48 of theirs as
// `aggregate::<file>::tests::*`, and a PR may rename only a few. Nothing
// outside `defense/mod.rs` names this module — every item is re-exported
// from `defense` — and it goes the day the floor is re-baselined.
#[path = "defense"]
mod aggregate {
    pub(crate) mod cluster;
    pub(crate) mod distance;
    pub(crate) mod fedavg;
    pub(crate) mod krum;
    pub(crate) mod latent;
    pub(crate) mod selective;
}

pub use client::{Client, LabelingMode, LocalTrainConfig};
pub use defense::{
    Aggregator, ClusterAggregator, Combiner, DefensePipeline, DefenseStage, FedAvg, HistoryScreen,
    Krum, LatentFilterAggregator, SelectiveAggregator,
};
pub use delta::{DeltaCompressor, DeltaRepr, DeltaSpec};
pub use fleet::FleetProvider;
pub use framework::Framework;
pub use metrics::{fl_metrics, FlMetrics};
pub use report::{
    pooled_rate, pooled_stage_telemetry, AggregationOutcome, ClientOutcome, ClientReport,
    RoundReport, StageTelemetry, UpdateDecision,
};
pub use round::{Availability, CohortSampler, CohortStrategy, RoundPlan};
pub use server::{active_clients, SequentialFlServer, ServerConfig, ServerRound};
pub use session::{FlSession, FlSessionBuilder, ModelPublisher, PlanTransform};
pub use update::ClientUpdate;
