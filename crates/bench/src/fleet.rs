//! Synthetic city-scale fleets for streaming rounds.
//!
//! `examples/scalability.rs` runs fleets far past what a
//! [`BuildingDataset`](safeloc_dataset::BuildingDataset) can materialize —
//! 10⁴–10⁵ clients — precisely to demonstrate that an
//! [`FlSession`](safeloc_fl::FlSession) over a generating
//! [`FleetProvider`] never holds them all (the test
//! `a_city_scale_session_materializes_only_its_cohort` below pins it).
//! [`SyntheticFleet`] therefore *generates* each client's local
//! fingerprints on `materialize` from a per-client seed stream and drops
//! stateless clients again on `reclaim`; only clients with round-to-round
//! state ([`Client::has_round_state`], e.g. an error-feedback residual)
//! are retained between rounds. Peak memory is bounded by the cohort plus
//! the stateful stragglers, never by the fleet.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{Client, DeltaSpec, FleetProvider};
use safeloc_nn::Matrix;
use std::collections::HashMap;

/// A deterministic on-demand fleet of synthetic clients.
pub struct SyntheticFleet {
    size: usize,
    input_dim: usize,
    n_classes: usize,
    samples_per_client: usize,
    seed: u64,
    delta: DeltaSpec,
    retained: HashMap<usize, Client>,
}

impl SyntheticFleet {
    /// A fleet of `size` clients, each holding `samples_per_client`
    /// synthetic RSS rows of width `input_dim` labeled into `n_classes`.
    /// A non-dense `delta` arms every client with a fresh
    /// [`DeltaCompressor`](safeloc_fl::DeltaCompressor); residuals then
    /// persist across rounds through the retained-client map.
    pub fn new(
        size: usize,
        input_dim: usize,
        n_classes: usize,
        samples_per_client: usize,
        seed: u64,
        delta: DeltaSpec,
    ) -> Self {
        assert!(n_classes > 0, "SyntheticFleet needs at least one class");
        Self {
            size,
            input_dim,
            n_classes,
            samples_per_client,
            seed,
            delta,
            retained: HashMap::new(),
        }
    }

    /// Estimated resident bytes of one materialized client: the local
    /// fingerprint matrix plus its labels. Deliberately an underestimate
    /// (struct overhead, allocator slack and the device-name string are
    /// ignored), so a streaming-headroom ratio computed from it is
    /// conservative.
    pub fn per_client_bytes(&self) -> u64 {
        let matrix = (self.samples_per_client * self.input_dim * std::mem::size_of::<f32>()) as u64;
        let labels = (self.samples_per_client * std::mem::size_of::<usize>()) as u64;
        matrix + labels
    }

    /// Estimated resident bytes a *materialized* (`Vec<Client>`) fleet of
    /// this size would hold — the denominator of the streaming-headroom
    /// claim.
    pub fn materialized_bytes(&self) -> u64 {
        self.size as u64 * self.per_client_bytes()
    }

    /// Clients currently retained for round-to-round state.
    pub fn retained(&self) -> usize {
        self.retained.len()
    }

    fn synthesize(&self, index: usize) -> Client {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let rows: Vec<Vec<f32>> = (0..self.samples_per_client)
            .map(|_| {
                (0..self.input_dim)
                    .map(|_| rng.gen_range(0.0f32..1.0))
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..self.samples_per_client)
            .map(|_| rng.gen_range(0..self.n_classes))
            .collect();
        Client {
            id: index,
            device_name: "synthetic".to_string(),
            local: FingerprintSet::new(Matrix::from_rows(&rows), labels),
            injector: None,
            // The same per-client stream convention as Client::from_dataset.
            seed: self.seed ^ ((index as u64 + 1) << 32),
            compressor: self.delta.compressor(),
        }
    }
}

impl FleetProvider for SyntheticFleet {
    fn len(&self) -> usize {
        self.size
    }

    fn materialize(&mut self, index: usize) -> Client {
        assert!(
            index < self.size,
            "client {index} out of a {}-client fleet",
            self.size
        );
        self.retained
            .remove(&index)
            .unwrap_or_else(|| self.synthesize(index))
    }

    fn reclaim(&mut self, client: Client) {
        if client.has_round_state() {
            self.retained.insert(client.id, client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_fl::{CohortSampler, DefensePipeline, FlSession, SequentialFlServer, ServerConfig};
    use std::sync::{Arc, Mutex};

    fn fleet(delta: DeltaSpec) -> SyntheticFleet {
        SyntheticFleet::new(100, 16, 4, 8, 7, delta)
    }

    #[test]
    fn materialize_is_deterministic_and_indexed() {
        let mut f = fleet(DeltaSpec::Dense);
        let a = f.materialize(42);
        let b = f.materialize(42);
        assert_eq!(a.id, 42);
        assert_eq!(a.local.x.as_slice(), b.local.x.as_slice());
        assert_eq!(a.local.labels, b.local.labels);
        assert_eq!(a.seed, b.seed);
        // Different clients draw from different streams.
        let c = f.materialize(43);
        assert_ne!(a.local.x.as_slice(), c.local.x.as_slice());
    }

    #[test]
    fn stateless_clients_are_dropped_on_reclaim() {
        let mut f = fleet(DeltaSpec::Dense);
        let c = f.materialize(3);
        f.reclaim(c);
        assert_eq!(f.retained(), 0, "dense stateless clients rebuild from seed");
    }

    #[test]
    fn compressor_residuals_survive_reclaim() {
        let mut f = fleet(DeltaSpec::TopK { fraction: 0.25 });
        let mut c = f.materialize(5);
        let (_, _) = c
            .compressor
            .as_mut()
            .unwrap()
            .compress(&[1.0, -2.0, 0.5, 0.25]);
        assert!(c.has_round_state());
        f.reclaim(c);
        assert_eq!(f.retained(), 1);
        let back = f.materialize(5);
        assert!(
            back.compressor.as_ref().unwrap().has_state(),
            "the retained residual must come back, not a fresh client"
        );
    }

    #[test]
    fn memory_estimates_scale_with_the_fleet() {
        let f = fleet(DeltaSpec::Dense);
        assert_eq!(f.per_client_bytes(), (8 * 16 * 4 + 8 * 8) as u64);
        assert_eq!(f.materialized_bytes(), 100 * f.per_client_bytes());
    }

    /// Counts what the session asks of the fleet. The process-global
    /// streaming gauge would see every concurrently running test's
    /// sessions; a wrapper sees only this one's.
    struct Counting {
        fleet: SyntheticFleet,
        seen: Arc<Mutex<Seen>>,
    }

    #[derive(Default)]
    struct Seen {
        materialized: usize,
        live: usize,
        max_live: usize,
        retained: usize,
    }

    impl FleetProvider for Counting {
        fn len(&self) -> usize {
            self.fleet.len()
        }

        fn materialize(&mut self, index: usize) -> Client {
            let mut seen = self.seen.lock().unwrap();
            seen.materialized += 1;
            seen.live += 1;
            seen.max_live = seen.max_live.max(seen.live);
            self.fleet.materialize(index)
        }

        fn reclaim(&mut self, client: Client) {
            self.fleet.reclaim(client);
            let mut seen = self.seen.lock().unwrap();
            seen.live -= 1;
            seen.retained = self.fleet.retained();
        }
    }

    /// The city-scale memory claim, deterministically: nothing fleet-sized
    /// is ever built, so 100 000 clients cost what 64 do.
    #[test]
    fn a_city_scale_session_materializes_only_its_cohort() {
        const FLEET: usize = 100_000;
        const COHORT: usize = 64;
        const ROUNDS: usize = 2;
        for delta in [DeltaSpec::Dense, DeltaSpec::TopK { fraction: 0.25 }] {
            let seen = Arc::new(Mutex::new(Seen::default()));
            let fleet = Counting {
                fleet: SyntheticFleet::new(FLEET, 16, 4, 8, 7, delta),
                seen: Arc::clone(&seen),
            };
            let server = SequentialFlServer::new(
                &[16, 8, 4],
                DefensePipeline::fedavg(),
                ServerConfig::tiny(),
            );
            let mut session = FlSession::builder(Box::new(server))
                .fleet(Box::new(fleet))
                .sampler(CohortSampler::uniform(COHORT, 7))
                .build();
            for round in 1..=ROUNDS {
                let report = session.next_round();
                assert_eq!(report.clients.len(), COHORT);
                let seen = seen.lock().unwrap();
                assert_eq!(seen.materialized, COHORT * round, "{delta:?}");
                assert_eq!(seen.live, 0, "{delta:?}: a client was never reclaimed");
                assert_eq!(seen.max_live, COHORT, "{delta:?}");
                match delta {
                    DeltaSpec::Dense => assert_eq!(seen.retained, 0),
                    // Residual carriers only: at most the clients that
                    // have trained so far.
                    _ => assert!(
                        (1..=COHORT * round).contains(&seen.retained),
                        "{delta:?}: {} retained after round {round}",
                        seen.retained
                    ),
                }
            }
        }
    }
}
