//! Composable FL sessions: framework + fleet + plan stream in one value.
//!
//! An [`FlSession`] owns everything a federated deployment needs — the
//! [`Framework`], the client fleet behind a [`FleetProvider`], and a
//! seeded [`CohortSampler`] producing one [`RoundPlan`] per round — and
//! yields a [`RoundReport`] per executed round. It is the only round
//! driver: paper-scale in-memory fleets ([`FlSessionBuilder::clients`]),
//! city-scale generating providers ([`FlSessionBuilder::fleet`]) and
//! network-degraded rounds ([`FlSessionBuilder::plan_transform`]) all go
//! through [`FlSession::next_round`]. The benchmark harness, the `suite`
//! scenario driver and the examples drive rounds through a session;
//! calling [`Framework::run_round`] by hand is for engines and tests.
//!
//! ```
//! use safeloc_fl::{
//!     Client, CohortSampler, DefensePipeline, FlSession, Framework, SequentialFlServer,
//!     ServerConfig,
//! };
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
//!     .sampler(CohortSampler::uniform(2, 7).with_dropout(0.1))
//!     .build();
//! for report in session.run(3) {
//!     assert!(report.clients.len() <= 2);
//! }
//! assert_eq!(session.rounds_run(), 3);
//! ```

use crate::client::Client;
use crate::fleet::FleetProvider;
use crate::framework::Framework;
use crate::report::{RoundReport, RoundTally};
use crate::round::{CohortSampler, RoundPlan};
use safeloc_nn::NamedParams;

/// A hook observing every aggregated global model a session produces —
/// the bridge from training to serving.
///
/// Attached via [`FlSessionBuilder::publisher`], the hook runs after each
/// executed round with that round's [`RoundReport`] and the
/// post-aggregation global parameters. The serving layer implements this
/// to push hardened models into its hot-swappable registry while traffic
/// is being served; tests implement it to record trajectories.
///
/// `Send` because sessions (and their publishers) run on background
/// threads next to live inference traffic.
pub trait ModelPublisher: Send {
    /// Called once per executed round, after aggregation.
    fn publish_round(&mut self, report: &RoundReport, global: &NamedParams);
}

/// A per-round rewrite of the sampled plan: `(round, plan) -> plan`, with
/// `round` the session's own 0-based round count. See
/// [`FlSessionBuilder::plan_transform`].
pub type PlanTransform = Box<dyn FnMut(usize, RoundPlan) -> RoundPlan + Send>;

/// Builder for [`FlSession`] — see the module docs for a full example.
pub struct FlSessionBuilder {
    framework: Box<dyn Framework>,
    fleet: Box<dyn FleetProvider>,
    sampler: CohortSampler,
    plan_transform: Option<PlanTransform>,
    publisher: Option<Box<dyn ModelPublisher>>,
}

impl FlSessionBuilder {
    /// Sets an in-memory client fleet. It is lent to every round in place
    /// — never cloned or moved — and plans index positions in `clients`,
    /// which need not equal the [`Client::id`]s sitting there (reports
    /// carry the ids).
    pub fn clients(self, clients: Vec<Client>) -> Self {
        self.fleet(Box::new(clients))
    }

    /// Sets the fleet to any [`FleetProvider`] — e.g. one that generates
    /// clients on demand, so only each round's cohort is ever resident.
    pub fn fleet(mut self, provider: Box<dyn FleetProvider>) -> Self {
        self.fleet = provider;
        self
    }

    /// Sets the cohort sampler (default: full participation, no churn —
    /// the paper's round shape). Full participation over a generating
    /// provider still materializes the whole fleet — pick a bounded
    /// strategy to bound memory.
    pub fn sampler(mut self, sampler: CohortSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Rewrites every sampled plan before the round runs it (default:
    /// plans run as sampled) — how simulated network conditions downgrade
    /// cohort members to dropouts and stragglers. The transform must keep
    /// the cohort inside the fleet; it normally only changes
    /// availabilities.
    pub fn plan_transform(mut self, transform: PlanTransform) -> Self {
        self.plan_transform = Some(transform);
        self
    }

    /// Attaches a [`ModelPublisher`] observing every round's aggregated
    /// global model (default: none).
    pub fn publisher(mut self, publisher: Box<dyn ModelPublisher>) -> Self {
        self.publisher = Some(publisher);
        self
    }

    /// Finalizes the session.
    ///
    /// # Panics
    ///
    /// Panics if the sampler is not usable over the configured fleet —
    /// e.g. a [`CohortStrategy::Weighted`](crate::CohortStrategy::Weighted)
    /// weight vector whose length differs from the fleet size, which would
    /// silently make the tail of the fleet unsampleable.
    pub fn build(self) -> FlSession {
        if let Err(problem) = self.sampler.validate_for_fleet(self.fleet.len()) {
            panic!("FlSession: {problem}");
        }
        FlSession {
            framework: self.framework,
            fleet: self.fleet,
            sampler: self.sampler,
            plan_transform: self.plan_transform,
            publisher: self.publisher,
            tally: RoundTally::default(),
            last: None,
        }
    }
}

/// A running federated deployment: framework + fleet + plan stream.
///
/// The session numbers rounds from the count it has run itself; a
/// framework that already ran rounds before being handed over keeps its
/// own (higher) internal counter for [`RoundReport::round`].
pub struct FlSession {
    framework: Box<dyn Framework>,
    fleet: Box<dyn FleetProvider>,
    sampler: CohortSampler,
    plan_transform: Option<PlanTransform>,
    publisher: Option<Box<dyn ModelPublisher>>,
    tally: RoundTally,
    last: Option<RoundReport>,
}

impl FlSession {
    /// Starts building a session around a (typically pretrained)
    /// framework.
    pub fn builder(framework: Box<dyn Framework>) -> FlSessionBuilder {
        FlSessionBuilder {
            framework,
            fleet: Box::new(Vec::<Client>::new()),
            sampler: CohortSampler::full(),
            plan_transform: None,
            publisher: None,
        }
    }

    /// Executes the next round: draws the plan over the fleet, applies the
    /// plan transform (if any), borrows the plan's clients from the
    /// provider for the framework to run, tallies the report, notifies the
    /// publisher (if any) and returns the report.
    pub fn next_round(&mut self) -> &RoundReport {
        let round = self.tally.rounds();
        let mut plan = self.sampler.plan(round, self.fleet.len());
        if let Some(transform) = &mut self.plan_transform {
            plan = transform(round, plan);
        }
        let framework = &mut self.framework;
        let report = self.fleet.lend(&plan, &mut |clients, plan| {
            framework.run_round(clients, plan)
        });
        if let Some(publisher) = &mut self.publisher {
            publisher.publish_round(&report, &self.framework.global_params());
        }
        self.tally.add(&report);
        self.last.insert(report)
    }

    /// Runs `n` more rounds and returns their reports, in round order.
    pub fn run(&mut self, n: usize) -> Vec<RoundReport> {
        (0..n).map(|_| self.next_round().clone()).collect()
    }

    /// Rounds executed by this session.
    pub fn rounds_run(&self) -> usize {
        self.tally.rounds()
    }

    /// Running totals over every round run so far.
    pub fn tally(&self) -> &RoundTally {
        &self.tally
    }

    /// The framework under the session.
    pub fn framework(&self) -> &dyn Framework {
        self.framework.as_ref()
    }

    /// Fleet size — what the sampler draws cohorts from.
    pub fn fleet_len(&self) -> usize {
        self.fleet.len()
    }

    /// Mean over the rounds run so far of each round's attacker-rejection
    /// rate ([`RoundTally::attacker_rejection_rate`]).
    pub fn attacker_rejection_rate(&self) -> Option<f32> {
        self.tally.attacker_rejection_rate()
    }

    /// Mean over the rounds run so far of each round's honest-rejection
    /// rate ([`RoundTally::honest_rejection_rate`]).
    pub fn honest_rejection_rate(&self) -> Option<f32> {
        self.tally.honest_rejection_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefensePipeline;
    use crate::round::RoundPlan;
    use crate::server::{SequentialFlServer, ServerConfig};
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use safeloc_nn::HasParams;

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 4)
    }

    fn pretrained(data: &BuildingDataset, agg: DefensePipeline) -> SequentialFlServer {
        let mut s = SequentialFlServer::new(
            &[data.building.num_aps(), 24, data.building.num_rps()],
            agg,
            ServerConfig::tiny(),
        );
        s.pretrain(&data.server_train);
        s
    }

    #[test]
    fn full_session_matches_manual_run_round_bitwise() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());

        let mut manual = server.clone();
        let mut clients = Client::from_dataset(&data, 0);
        let plan = RoundPlan::full(clients.len());
        for _ in 0..3 {
            manual.run_round(&mut clients, &plan);
        }

        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .build();
        let reports = session.run(3);

        assert_eq!(
            session.framework().global_params(),
            manual.global_model().snapshot(),
            "session with the default sampler diverged from manual full rounds"
        );
        assert_eq!(session.rounds_run(), 3);
        assert!(reports.iter().all(|r| r.accepted() == session.fleet_len()));
    }

    #[test]
    fn partial_sessions_report_smaller_cohorts() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());
        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .sampler(CohortSampler::uniform(2, 5))
            .build();
        let reports = session.run(4);
        assert!(reports.iter().all(|r| r.clients.len() == 2));
    }

    #[test]
    fn krum_session_surfaces_attacker_rejections() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::krum(1));
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector =
            Some(PoisonInjector::new(Attack::label_flip(1.0), 3).with_boost(6.0));
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .build();
        session.run(3);
        let rate = session
            .attacker_rejection_rate()
            .expect("attacker participated");
        assert!(
            rate > 0.5,
            "Krum should reject the boosted label-flipper most rounds: {rate}"
        );
        let honest = session
            .honest_rejection_rate()
            .expect("honest participated");
        assert!(honest < 1.0, "Krum rejected every honest update: {honest}");
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn weighted_sampler_with_wrong_length_is_rejected_at_build() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());
        let clients = Client::from_dataset(&data, 0);
        // One weight short: the last client would silently never be drawn.
        let weights = vec![1.0; clients.len() - 1];
        let _ = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(CohortSampler::weighted(2, weights, 5))
            .build();
    }

    #[test]
    fn data_volume_weighted_sampler_builds_and_runs() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());
        let clients = Client::from_dataset(&data, 0);
        let sampler = CohortSampler::weighted_by_data_volume(2, &clients, 9);
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(sampler)
            .build();
        let reports = session.run(3);
        assert!(reports.iter().all(|r| r.clients.len() == 2));
    }

    #[test]
    fn all_zero_weights_yield_empty_rounds_and_keep_the_gm() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());
        let clients = Client::from_dataset(&data, 0);
        let before = server.global_model().snapshot();
        let n = clients.len();
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(CohortSampler::weighted(3, vec![0.0; n], 5))
            .build();
        let reports = session.run(2);
        assert!(reports.iter().all(|r| r.clients.is_empty()));
        assert_eq!(
            session.framework().global_params(),
            before,
            "empty cohorts must not move the GM"
        );
    }

    #[test]
    fn publisher_sees_every_round_gm_in_order() {
        use std::sync::{Arc, Mutex};

        struct Recorder {
            log: Arc<Mutex<Vec<(usize, crate::report::RoundReport, safeloc_nn::NamedParams)>>>,
        }
        impl ModelPublisher for Recorder {
            fn publish_round(
                &mut self,
                report: &crate::report::RoundReport,
                global: &safeloc_nn::NamedParams,
            ) {
                let mut log = self.log.lock().unwrap();
                let n = log.len();
                log.push((n, report.clone(), global.clone()));
            }
        }

        let data = dataset();
        let server = pretrained(&data, DefensePipeline::fedavg());
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .publisher(Box::new(Recorder { log: log.clone() }))
            .build();
        let reports = session.run(3);

        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3, "one publish per executed round");
        // The publisher saw the same reports the session recorded, and the
        // final published GM is the session's final GM, bitwise.
        for (i, (seq, report, _)) in log.iter().enumerate() {
            assert_eq!(*seq, i);
            assert_eq!(report.round, reports[i].round);
        }
        assert_eq!(log.last().unwrap().2, session.framework().global_params());
    }

    #[test]
    fn a_thousand_round_session_tallies_what_it_returned() {
        let data = dataset();
        let server = pretrained(&data, DefensePipeline::krum(1));
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector =
            Some(PoisonInjector::new(Attack::label_flip(1.0), 3).with_boost(6.0));
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(CohortSampler::uniform(2, 7).with_dropout(0.1))
            .build();
        let reports = session.run(1_000);
        assert_eq!(session.rounds_run(), 1_000);

        // The fold the session used to run over its whole history.
        let reference = |stat: fn(&RoundReport) -> Option<f32>| {
            let present: Vec<f32> = reports.iter().filter_map(stat).collect();
            (!present.is_empty()).then(|| present.iter().sum::<f32>() / present.len() as f32)
        };
        let bits = |r: Option<f32>| r.map(f32::to_bits);
        let attacker = reference(RoundReport::attacker_rejection_rate);
        assert!(attacker.is_some(), "the attacker never delivered");
        assert_eq!(bits(session.attacker_rejection_rate()), bits(attacker));
        assert_eq!(
            bits(session.honest_rejection_rate()),
            bits(reference(RoundReport::honest_rejection_rate))
        );
    }

    #[test]
    fn sessions_move_across_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<FlSession>();
        assert_send::<FlSessionBuilder>();
    }

    #[test]
    fn session_is_deterministic_given_seeds() {
        let data = dataset();
        let run = || {
            let server = pretrained(&data, DefensePipeline::fedavg());
            let mut session = FlSession::builder(Box::new(server))
                .clients(Client::from_dataset(&data, 0))
                .sampler(
                    CohortSampler::uniform(3, 9)
                        .with_dropout(0.2)
                        .with_straggle(0.2),
                )
                .build();
            let reports = session.run(4);
            (
                session.framework().global_params(),
                reports.into_iter().map(|r| r.clients).collect::<Vec<_>>(),
            )
        };
        let (gm_a, outcomes_a) = run();
        let (gm_b, outcomes_b) = run();
        assert_eq!(gm_a, gm_b);
        assert_eq!(outcomes_a, outcomes_b);
    }
}
