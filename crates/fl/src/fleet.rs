//! Fleet providers: where an [`FlSession`](crate::FlSession)'s clients
//! come from, and how a round borrows them.
//!
//! A session plans every round over the whole *fleet* and then asks its
//! [`FleetProvider`] to [`lend`](FleetProvider::lend) the round the
//! clients the plan names. Two kinds of provider exist:
//!
//! * **In-memory** — `Vec<Client>`, the shape of paper-scale experiments
//!   (tens of clients). The vector is lent in place under the
//!   fleet-indexed plan: nothing is cloned or moved per round.
//! * **Generating** — at city scale (10⁴–10⁵ phones) a materialized fleet
//!   dominates peak RSS even though a round only ever touches its cohort.
//!   A provider that implements only [`materialize`](FleetProvider::materialize)
//!   and [`reclaim`](FleetProvider::reclaim) gets exactly the clients the
//!   round's [`RoundPlan`] names built, lent as a cohort slice, and handed
//!   back afterwards, so peak memory is bounded by cohort size.
//!
//! Determinism is preserved by construction:
//!
//! * [`Client::single_from_dataset`] builds client `i` exactly as
//!   [`Client::from_dataset`] would (same `seed ^ ((i+1) << 32)` stream),
//!   so a stateless client rebuilt next round is bitwise the client that
//!   was dropped.
//! * The cohort slice is ordered by fleet index (plans sort on
//!   construction) and the remapped plan preserves per-client
//!   [`Availability`](crate::Availability), so the framework sees the same active clients in
//!   the same order as over an in-memory fleet.
//! * Round reports keep true fleet identities: report entries carry
//!   `Client::id`, not the cohort slot.
//!
//! Generating providers only need to persist clients with round-to-round
//! state — a poison injector's RNG stream or a
//! [`DeltaCompressor`](crate::DeltaCompressor)'s error-feedback residual
//! ([`Client::has_round_state`]). Everything else can be rebuilt on
//! demand.

use crate::client::Client;
use crate::report::RoundReport;
use crate::round::RoundPlan;

impl Client {
    /// `true` if the client carries state that must survive between
    /// rounds: a poison injector (whose RNG stream advances per round) or
    /// a compressor that has accumulated an error-feedback residual.
    /// Stateless clients rebuild bitwise-identically from their seed, so
    /// generating providers may drop them after each round.
    pub fn has_round_state(&self) -> bool {
        self.injector.is_some() || self.compressor.as_ref().is_some_and(|c| c.has_state())
    }
}

/// A fleet of clients, indexed `0..len()`, that lends each round its
/// cohort.
///
/// Contract: `materialize(i)` returns the fleet's client `i`, either
/// rebuilt from scratch or restored from a previous [`reclaim`]. For a
/// client without round-to-round state ([`Client::has_round_state`]) the
/// rebuilt copy must be bitwise the reclaimed one, so providers are free
/// to drop it; stateful clients must round-trip through `reclaim`.
///
/// `Send` because the [`FlSession`](crate::FlSession) that owns the
/// provider runs on background threads.
///
/// [`reclaim`]: FleetProvider::reclaim
pub trait FleetProvider: Send {
    /// Total fleet size (clients are indexed `0..len()`).
    fn len(&self) -> usize;

    /// `true` if the fleet is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes fleet client `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    fn materialize(&mut self, index: usize) -> Client;

    /// Returns a client after its round, giving the provider the chance
    /// to persist round-to-round state.
    fn reclaim(&mut self, client: Client);

    /// Lends `round` the clients the fleet-indexed `plan` names and
    /// returns its report.
    ///
    /// The provided body materializes only the cohort, in fleet order
    /// (plans are sorted by fleet index on construction — the order an
    /// in-memory fleet presents its active clients in), runs `round` over
    /// that slice under a slot-remapped plan with every availability
    /// preserved, and reclaims each client afterwards. Providers that hold
    /// the whole fleet override it to lend the fleet itself.
    fn lend(
        &mut self,
        plan: &RoundPlan,
        round: &mut dyn FnMut(&mut [Client], &RoundPlan) -> RoundReport,
    ) -> RoundReport {
        let mut cohort: Vec<Client> = plan
            .cohort()
            .iter()
            .map(|&(i, _)| self.materialize(i))
            .collect();
        let held = cohort.len() as i64;
        crate::metrics::fl_metrics().on_streaming_materialized(held);
        let slot_plan = RoundPlan::new(
            plan.cohort()
                .iter()
                .enumerate()
                .map(|(slot, &(_, availability))| (slot, availability))
                .collect(),
        );
        let report = round(&mut cohort, &slot_plan);
        for client in cohort {
            self.reclaim(client);
        }
        crate::metrics::fl_metrics().on_streaming_materialized(-held);
        report
    }
}

/// The in-memory fleet. Clients sit wherever the caller put them — a
/// position need not equal the [`Client::id`] sitting there — and plans
/// index positions, while reports carry ids.
impl FleetProvider for Vec<Client> {
    fn len(&self) -> usize {
        <[Client]>::len(self)
    }

    fn materialize(&mut self, index: usize) -> Client {
        self[index].clone()
    }

    /// # Panics
    ///
    /// Panics if no client of the fleet carries the reclaimed id.
    fn reclaim(&mut self, client: Client) {
        let slot = self
            .iter()
            .position(|c| c.id == client.id)
            .expect("reclaimed client belongs to this fleet");
        self[slot] = client;
    }

    /// Lends the whole fleet in place under the fleet-indexed plan: no
    /// client is cloned or moved.
    fn lend(
        &mut self,
        plan: &RoundPlan,
        round: &mut dyn FnMut(&mut [Client], &RoundPlan) -> RoundReport,
    ) -> RoundReport {
        round(self, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefensePipeline;
    use crate::delta::{DeltaCompressor, DeltaSpec};
    use crate::framework::Framework;
    use crate::report::ClientReport;
    use crate::round::CohortSampler;
    use crate::server::{SequentialFlServer, ServerConfig};
    use crate::session::FlSession;
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Arc, Mutex};

    const FLEET_SEED: u64 = 0;

    /// Six phones, so `uniform(3)` cohorts are a real subsample.
    fn dataset() -> BuildingDataset {
        let cfg = DatasetConfig::tiny().with_fleet(6, 5);
        BuildingDataset::generate(Building::tiny(4), &cfg, 5)
    }

    fn pretrained(data: &BuildingDataset) -> SequentialFlServer {
        let mut s = SequentialFlServer::new(
            &[data.building.num_aps(), 24, data.building.num_rps()],
            DefensePipeline::fedavg(),
            ServerConfig::tiny(),
        );
        s.pretrain(&data.server_train);
        s
    }

    /// One stateful attacker and one compressing client, to exercise the
    /// reclaim path for both kinds of round-to-round state.
    fn arm(client: &mut Client) {
        match client.id {
            1 => client.injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 3)),
            2 => client.compressor = Some(DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.1 })),
            _ => {}
        }
    }

    fn fleet(data: &BuildingDataset) -> Vec<Client> {
        let mut clients = Client::from_dataset(data, FLEET_SEED);
        clients.iter_mut().for_each(arm);
        clients
    }

    /// Clients the rebuilding provider keeps between rounds, shared with
    /// the test so it can look inside after the session took the provider.
    type Retained = Arc<Mutex<BTreeMap<usize, Client>>>;

    /// A generating provider: every client is rebuilt from the dataset on
    /// `materialize` and dropped on `reclaim` unless it carries
    /// round-to-round state.
    struct Rebuilding {
        data: BuildingDataset,
        retained: Retained,
    }

    impl Rebuilding {
        fn new(data: &BuildingDataset) -> (Self, Retained) {
            let retained = Retained::default();
            let provider = Self {
                data: data.clone(),
                retained: retained.clone(),
            };
            (provider, retained)
        }
    }

    impl FleetProvider for Rebuilding {
        fn len(&self) -> usize {
            self.data.num_clients()
        }

        fn materialize(&mut self, index: usize) -> Client {
            self.retained
                .lock()
                .unwrap()
                .remove(&index)
                .unwrap_or_else(|| {
                    let mut client = Client::single_from_dataset(&self.data, FLEET_SEED, index);
                    arm(&mut client);
                    client
                })
        }

        fn reclaim(&mut self, client: Client) {
            if client.has_round_state() {
                self.retained.lock().unwrap().insert(client.id, client);
            }
        }
    }

    #[test]
    fn single_from_dataset_matches_the_fleet_constructor() {
        let data = dataset();
        let fleet = Client::from_dataset(&data, 42);
        for (i, c) in fleet.iter().enumerate() {
            let solo = Client::single_from_dataset(&data, 42, i);
            assert_eq!(solo.id, c.id);
            assert_eq!(solo.seed, c.seed);
            assert_eq!(solo.device_name, c.device_name);
            assert_eq!(solo.local, c.local);
        }
    }

    #[test]
    fn streaming_matches_materialized_session_bitwise_under_churn() {
        let data = dataset();
        let sampler = || {
            CohortSampler::uniform(3, 1)
                .with_dropout(0.2)
                .with_straggle(0.2)
        };

        let mut dense = FlSession::builder(Box::new(pretrained(&data)))
            .clients(fleet(&data))
            .sampler(sampler())
            .build();
        dense.run(8);

        let (provider, retained) = Rebuilding::new(&data);
        let mut streaming = FlSession::builder(Box::new(pretrained(&data)))
            .fleet(Box::new(provider))
            .sampler(sampler())
            .build();
        streaming.run(8);

        assert_eq!(
            streaming.framework().global_params(),
            dense.framework().global_params(),
            "rebuilt cohorts diverged from the in-memory fleet"
        );
        let per_round = |s: &FlSession| -> Vec<Vec<ClientReport>> {
            s.reports().iter().map(|r| r.clients.clone()).collect()
        };
        assert_eq!(
            per_round(&streaming),
            per_round(&dense),
            "per-round outcomes diverged"
        );
        // Uniform 3-of-6 rounds name fleet ids, not cohort slots 0..3.
        let ids: BTreeSet<usize> = streaming
            .reports()
            .iter()
            .flat_map(|r| r.clients.iter().map(|c| c.client_id))
            .collect();
        assert!(ids.iter().any(|&id| id >= 3), "slots, not ids: {ids:?}");
        // Both stateful clients delivered more than once, so equal GMs
        // above already mean the injector stream and the residual survived
        // reclaim; the retained map shows it directly.
        for stateful in [1, 2] {
            let delivered = streaming
                .reports()
                .iter()
                .flat_map(|r| &r.clients)
                .filter(|c| c.client_id == stateful && c.samples > 0)
                .count();
            assert!(delivered >= 2, "client {stateful} delivered {delivered}x");
        }
        let retained = retained.lock().unwrap();
        assert!(retained[&1].injector.is_some());
        assert!(retained[&2].compressor.as_ref().unwrap().has_state());
        assert!(
            retained.values().all(Client::has_round_state),
            "stateless clients must be dropped, not retained"
        );
    }

    #[test]
    fn streaming_reports_true_fleet_ids_not_cohort_slots() {
        let data = dataset();
        let (provider, _) = Rebuilding::new(&data);
        let n = provider.len();
        let mut session = FlSession::builder(Box::new(pretrained(&data)))
            .fleet(Box::new(provider))
            .sampler(CohortSampler::uniform(2, 7))
            .build();
        let mut seen = BTreeSet::new();
        for _ in 0..4 {
            let report = session.next_round();
            assert_eq!(report.clients.len(), 2);
            for c in &report.clients {
                assert!(c.client_id < n);
                seen.insert(c.client_id);
            }
        }
        assert!(
            seen.len() > 2,
            "four uniform(2-of-{n}) rounds should touch more than one cohort's worth of ids: {seen:?}"
        );
    }

    #[test]
    fn reclaim_persists_compressor_residuals() {
        let data = dataset();
        let (provider, retained) = Rebuilding::new(&data);
        let mut session = FlSession::builder(Box::new(pretrained(&data)))
            .fleet(Box::new(provider))
            .build();
        session.run(1);
        let retained = retained.lock().unwrap();
        assert!(
            retained[&2].compressor.as_ref().unwrap().has_state(),
            "error-feedback residual was lost on reclaim"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn sampler_validation_runs_at_build() {
        let data = dataset();
        let (provider, _) = Rebuilding::new(&data);
        let n = provider.len();
        let _ = FlSession::builder(Box::new(pretrained(&data)))
            .fleet(Box::new(provider))
            .sampler(CohortSampler::weighted(2, vec![1.0; n - 1], 5))
            .build();
    }

    #[test]
    fn shuffled_in_memory_fleets_report_client_ids() {
        let data = dataset();
        let mut clients = fleet(&data);
        clients.reverse();
        let ids: Vec<usize> = clients.iter().map(|c| c.id).collect();
        let mut session = FlSession::builder(Box::new(pretrained(&data)))
            .clients(clients)
            .build();
        assert_eq!(session.fleet_len(), ids.len());
        let report = session.next_round();
        let reported: Vec<usize> = report.clients.iter().map(|c| c.client_id).collect();
        assert_eq!(reported, ids, "reports carry Client::id in fleet order");
        let attacker = report.clients.iter().find(|c| c.client_id == 1).unwrap();
        assert!(attacker.malicious, "the injector moved with its client");
    }
}
