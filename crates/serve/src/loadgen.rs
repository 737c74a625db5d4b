//! Closed-loop synthetic load generation against a running [`Service`].
//!
//! The generator models a population of phones in the closed-loop shape:
//! each client thread submits one request, blocks for the response,
//! records the latency and immediately submits the next — so offered load
//! adapts to service capacity instead of overrunning it, and the latency
//! distribution is the one a phone would actually see. Requests are drawn
//! from a prototype pool (typically built from held-out fingerprints via
//! [`request_pool`]) by seeded per-client RNG streams, which fixes the
//! arrival *mix* across buildings and devices deterministically even
//! though wall-clock timings vary run to run.

use crate::front::{LocalizeRequest, LocalizeResponse};
use crate::service::Service;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc_dataset::{unit_to_dbm, BuildingDataset};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Shape of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadPlan {
    /// Concurrent closed-loop clients.
    pub population: usize,
    /// Requests each client issues before leaving.
    pub requests_per_client: usize,
    /// Seed of the per-client request-mix streams.
    pub seed: u64,
}

impl LoadPlan {
    /// A plan; total request count is `population * requests_per_client`.
    pub fn new(population: usize, requests_per_client: usize, seed: u64) -> Self {
        Self {
            population,
            requests_per_client,
            seed,
        }
    }

    /// Total requests the plan issues.
    pub fn total_requests(&self) -> usize {
        self.population * self.requests_per_client
    }
}

/// Latency/throughput statistics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingStats {
    /// Closed-loop clients.
    pub population: usize,
    /// Requests completed.
    pub requests: usize,
    /// Requests rejected at admission or by shutdown.
    pub failures: usize,
    /// Wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Mean response latency, milliseconds.
    pub mean_ms: f64,
    /// Median response latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile response latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response latency, milliseconds.
    pub p99_ms: f64,
    /// Lowest model version observed across responses.
    pub min_version: u64,
    /// Highest model version observed across responses (`>` min means the
    /// run rode through at least one hot swap).
    pub max_version: u64,
}

/// Everything a load run produced: per-request latencies (nanoseconds, in
/// completion order per client) plus every response.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The executed plan.
    pub plan: LoadPlan,
    /// Wall time of the run, nanoseconds.
    pub wall_ns: u64,
    /// Per-client latency series, nanoseconds.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Per-client response series, aligned with `latencies_ns`.
    pub responses: Vec<Vec<LocalizeResponse>>,
    /// Requests that failed at admission/shutdown, per client.
    pub failures: usize,
}

impl LoadOutcome {
    /// Flattens and summarizes into serializable statistics.
    pub fn stats(&self) -> ServingStats {
        let mut lat_ms: Vec<f64> = self
            .latencies_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        lat_ms.sort_by(f64::total_cmp);
        let requests = lat_ms.len();
        let wall_ms = self.wall_ns as f64 / 1e6;
        let versions = self
            .responses
            .iter()
            .flatten()
            .map(|r| r.model_version)
            .collect::<Vec<u64>>();
        ServingStats {
            population: self.plan.population,
            requests,
            failures: self.failures,
            wall_ms,
            throughput_rps: if wall_ms > 0.0 {
                requests as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            mean_ms: if requests == 0 {
                0.0
            } else {
                lat_ms.iter().sum::<f64>() / requests as f64
            },
            p50_ms: percentile(&lat_ms, 0.50),
            p95_ms: percentile(&lat_ms, 0.95),
            p99_ms: percentile(&lat_ms, 0.99),
            min_version: versions.iter().copied().min().unwrap_or(0),
            max_version: versions.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile over an already sorted series (0 when empty).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Builds a request-prototype pool from a dataset's held-out test splits:
/// one [`LocalizeRequest`] per test fingerprint, carrying the collecting
/// device's model name and the fingerprint denormalized back to raw dBm
/// (the wire format phones actually send).
pub fn request_pool(data: &BuildingDataset) -> Vec<LocalizeRequest> {
    let mut pool = Vec::new();
    for (device, set) in data.devices.iter().zip(&data.client_test) {
        for r in 0..set.x.rows() {
            let rss_dbm: Vec<f32> = set.x.row(r).iter().map(|&u| unit_to_dbm(u)).collect();
            pool.push(LocalizeRequest::new(
                data.building.id,
                &device.name,
                rss_dbm,
            ));
        }
    }
    pool
}

/// Runs one closed-loop load plan against `service`, drawing requests
/// from `pool`.
///
/// # Panics
///
/// Panics if `pool` is empty.
pub fn run_load(service: &Service, pool: &[LocalizeRequest], plan: &LoadPlan) -> LoadOutcome {
    assert!(!pool.is_empty(), "load generation needs a request pool");
    let start = Instant::now();
    let per_client: Vec<(Vec<u64>, Vec<LocalizeResponse>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.population)
            .map(|client| {
                let plan = *plan;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(plan.seed ^ ((client as u64 + 1) << 20));
                    let mut latencies = Vec::with_capacity(plan.requests_per_client);
                    let mut responses = Vec::with_capacity(plan.requests_per_client);
                    let mut failures = 0;
                    for _ in 0..plan.requests_per_client {
                        let request = &pool[rng.gen_range(0..pool.len())];
                        let sent = Instant::now();
                        match service.localize(request) {
                            Ok(response) => {
                                latencies.push(sent.elapsed().as_nanos() as u64);
                                responses.push(response);
                            }
                            Err(_) => failures += 1,
                        }
                    }
                    (latencies, responses, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            // panic-ok: load clients are our own closure above, which
            // cannot panic except through a bug in the harness itself;
            // propagating that bug loudly is the correct behavior for a
            // measurement tool (silently dropping a client would skew
            // the reported percentiles instead).
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut latencies_ns = Vec::with_capacity(per_client.len());
    let mut responses = Vec::with_capacity(per_client.len());
    let mut failures = 0;
    for (lat, resp, fail) in per_client {
        latencies_ns.push(lat);
        responses.push(resp);
        failures += fail;
    }
    LoadOutcome {
        plan: *plan,
        wall_ns,
        latencies_ns,
        responses,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelKey, ModelRegistry};
    use crate::service::{ServeConfig, Service};
    use safeloc_dataset::{Building, DatasetConfig, DeviceCatalog};
    use safeloc_nn::{Activation, Sequential};
    use std::sync::Arc;

    #[test]
    fn percentiles_cover_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Index round((n-1)·q) over 1..=100: round(49.5) rounds up.
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
    }

    #[test]
    fn closed_loop_run_completes_every_request() {
        let data = safeloc_dataset::BuildingDataset::generate(
            Building::tiny(6),
            &DatasetConfig::tiny(),
            6,
        );
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(
            ModelKey::default_for(data.building.id),
            Sequential::mlp(
                &[data.building.num_aps(), 12, data.building.num_rps()],
                Activation::Relu,
                1,
            ),
            Some(data.building.clone()),
        );
        let service = Service::start(
            registry,
            DeviceCatalog::new(data.devices.clone()),
            ServeConfig {
                max_batch: 8,
                workers: 2,
            },
        );
        let pool = request_pool(&data);
        assert!(!pool.is_empty());
        let plan = LoadPlan::new(3, 10, 42);
        let outcome = run_load(&service, &pool, &plan);
        let stats = outcome.stats();
        assert_eq!(stats.requests, plan.total_requests());
        assert_eq!(stats.failures, 0);
        assert!(stats.throughput_rps > 0.0);
        assert!(stats.p50_ms <= stats.p95_ms && stats.p95_ms <= stats.p99_ms);
        assert_eq!((stats.min_version, stats.max_version), (1, 1));
        // Responses carry coordinates because geometry was published.
        assert!(outcome
            .responses
            .iter()
            .flatten()
            .all(|r| r.position.is_some()));
        service.shutdown();
    }
}
