//! Round planning: who participates in a federated round, and how.
//!
//! The paper (and the seed implementation) only ever runs one round shape:
//! every client participates, every round. Production FL is defined by
//! partial participation and client churn — the exact regimes where
//! poisoning defenses degrade (Fang et al., arXiv:1911.11815). A
//! [`RoundPlan`] makes the round shape an explicit, inspectable value:
//! which clients the server contacts this round (the *cohort*) and what
//! each of them does ([`Availability`]). Plans are produced by a seeded
//! [`CohortSampler`], so any scenario — full participation, uniform-k
//! subsampling, weighted selection, dropouts, stragglers — is reproducible
//! bit for bit.

use crate::client::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a cohort member does during the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Availability {
    /// Trains and returns its update before the round deadline.
    Participates,
    /// Never responds (powered off, out of range): no local training runs.
    DropsOut,
    /// Trains but misses the round deadline; the server aggregates without
    /// it and discards the late update unseen, so the engine skips
    /// computing it.
    Straggles,
}

/// The server's plan for one federated round: the sampled cohort and each
/// member's [`Availability`].
///
/// Cohort entries are `(client_index, availability)` pairs, where
/// `client_index` is the position in the fleet slice handed to
/// [`Framework::run_round`](crate::Framework::run_round). Entries are kept
/// sorted by client index — [`RoundPlan::new`] sorts — so update collection
/// and report assembly walk the fleet in one deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundPlan {
    cohort: Vec<(usize, Availability)>,
}

impl RoundPlan {
    /// Creates a plan from cohort entries (sorted by client index; if an
    /// index repeats, the entry listed first wins).
    pub fn new(mut cohort: Vec<(usize, Availability)>) -> Self {
        cohort.sort_by_key(|(i, _)| *i);
        cohort.dedup_by_key(|(i, _)| *i);
        Self { cohort }
    }

    /// The seed round shape: every one of `n_clients` participates.
    pub fn full(n_clients: usize) -> Self {
        Self {
            cohort: (0..n_clients)
                .map(|i| (i, Availability::Participates))
                .collect(),
        }
    }

    /// The sampled cohort, sorted by client index.
    pub fn cohort(&self) -> &[(usize, Availability)] {
        &self.cohort
    }

    /// Number of cohort members (any availability).
    pub fn cohort_size(&self) -> usize {
        self.cohort.len()
    }

    /// Client indices that actually train and deliver an update this
    /// round, in fleet order.
    pub fn active_indices(&self) -> Vec<usize> {
        self.cohort
            .iter()
            .filter(|(_, a)| *a == Availability::Participates)
            .map(|(i, _)| *i)
            .collect()
    }
}

/// How the cohort is drawn from the fleet each round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CohortStrategy {
    /// Every client is contacted every round (the paper's protocol).
    Full,
    /// A uniform sample of `k` clients without replacement.
    UniformK(usize),
    /// `k` clients drawn without replacement with probability proportional
    /// to the given per-client weights (e.g. data volume or link quality).
    /// Clients with non-positive weight are never sampled.
    Weighted {
        /// Cohort size.
        k: usize,
        /// One non-negative weight per client. The vector must be exactly
        /// fleet-sized: a shorter list would silently make the tail of the
        /// fleet unsampleable (missing entries read as weight zero), so
        /// [`FlSession`](crate::FlSession) rejects any length mismatch at
        /// build time, as it does a non-finite weight or weight total (see
        /// [`CohortSampler::validate_for_fleet`]).
        weights: Vec<f32>,
    },
}

/// Seeded generator of [`RoundPlan`]s: cohort selection plus per-client
/// churn (dropouts and stragglers).
///
/// Same seed ⇒ identical plan stream, independent of thread count — plans
/// are drawn from a dedicated RNG stream per `(seed, round)`, so the
/// sampler can be queried out of order and still reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortSampler {
    /// Cohort selection strategy.
    pub strategy: CohortStrategy,
    /// Probability that a sampled client never responds.
    pub dropout_rate: f64,
    /// Probability that a sampled, non-dropped client misses the deadline.
    pub straggle_rate: f64,
    /// Master seed for the plan stream.
    pub seed: u64,
}

impl CohortSampler {
    /// Full participation, no churn — generates exactly the seed round
    /// shape. The seed is irrelevant for this strategy.
    pub fn full() -> Self {
        Self {
            strategy: CohortStrategy::Full,
            dropout_rate: 0.0,
            straggle_rate: 0.0,
            seed: 0,
        }
    }

    /// Uniform-k sampling without churn.
    pub fn uniform(k: usize, seed: u64) -> Self {
        Self {
            strategy: CohortStrategy::UniformK(k),
            dropout_rate: 0.0,
            straggle_rate: 0.0,
            seed,
        }
    }

    /// Weight-proportional sampling without churn.
    pub fn weighted(k: usize, weights: Vec<f32>, seed: u64) -> Self {
        Self {
            strategy: CohortStrategy::Weighted { k, weights },
            dropout_rate: 0.0,
            straggle_rate: 0.0,
            seed,
        }
    }

    /// Weight-proportional sampling with one weight per client, derived
    /// from its local data volume (sample count) — production FL's usual
    /// heuristic: clients with more data contribute richer updates. The
    /// weight vector is exactly fleet-sized by construction, so it always
    /// passes [`FlSession`](crate::FlSession)'s length validation.
    pub fn weighted_by_data_volume(k: usize, clients: &[Client], seed: u64) -> Self {
        let weights = clients.iter().map(|c| c.local.len() as f32).collect();
        Self::weighted(k, weights, seed)
    }

    /// Sets the per-round dropout probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_dropout(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "dropout rate {rate}");
        self.dropout_rate = rate;
        self
    }

    /// Sets the per-round straggler probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_straggle(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "straggle rate {rate}");
        self.straggle_rate = rate;
        self
    }

    /// Checks the sampler is usable over a fleet of `n_clients`: a
    /// [`CohortStrategy::Weighted`] weight vector must be exactly
    /// fleet-sized, since missing entries read as weight zero and silently
    /// make the tail of the fleet unsampleable, and its weights and their
    /// sum must be finite, since an infinite total fails every draw's
    /// comparison and silently always picks the last remaining client.
    ///
    /// # Errors
    ///
    /// Returns a message describing the problem.
    pub fn validate_for_fleet(&self, n_clients: usize) -> Result<(), String> {
        if let CohortStrategy::Weighted { weights, .. } = &self.strategy {
            if weights.len() != n_clients {
                return Err(format!(
                    "weighted cohort sampling needs one weight per client: \
                     got {} weights for a fleet of {n_clients}",
                    weights.len()
                ));
            }
            let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
            if !total.is_finite() || weights.iter().any(|w| !w.is_finite()) {
                return Err(
                    "weighted cohort sampling needs finite weights with a finite sum".into(),
                );
            }
        }
        Ok(())
    }

    /// Draws the plan for `round` over a fleet of `n_clients`.
    pub fn plan(&self, round: usize, n_clients: usize) -> RoundPlan {
        // The fast path stays allocation-of-RNG free and — crucially —
        // bit-exact with the pre-session engine: full participation never
        // consults the RNG at all when there is no churn.
        if matches!(self.strategy, CohortStrategy::Full)
            && self.dropout_rate == 0.0
            && self.straggle_rate == 0.0
        {
            return RoundPlan::full(n_clients);
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let selected: Vec<usize> = match &self.strategy {
            CohortStrategy::Full => (0..n_clients).collect(),
            CohortStrategy::UniformK(k) => sample_uniform(n_clients, *k, &mut rng),
            CohortStrategy::Weighted { k, weights } => {
                sample_weighted(n_clients, *k, weights, &mut rng)
            }
        };
        let cohort = selected
            .into_iter()
            .map(|i| {
                let availability = if rng.gen_bool(self.dropout_rate) {
                    Availability::DropsOut
                } else if rng.gen_bool(self.straggle_rate) {
                    Availability::Straggles
                } else {
                    Availability::Participates
                };
                (i, availability)
            })
            .collect();
        RoundPlan::new(cohort)
    }
}

/// `k` indices from `0..n` uniformly without replacement (partial
/// Fisher–Yates), returned unsorted — [`RoundPlan::new`] sorts.
fn sample_uniform(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for slot in 0..k {
        let j = rng.gen_range(slot..n);
        pool.swap(slot, j);
    }
    pool.truncate(k);
    pool
}

/// `k` indices from `0..n` without replacement, probability proportional
/// to `weights` (missing entries count as zero).
fn sample_weighted(n: usize, k: usize, weights: &[f32], rng: &mut StdRng) -> Vec<usize> {
    let mut remaining: Vec<(usize, f32)> = (0..n)
        .map(|i| (i, weights.get(i).copied().unwrap_or(0.0).max(0.0)))
        .filter(|(_, w)| *w > 0.0)
        .collect();
    let mut out = Vec::with_capacity(k.min(n));
    while out.len() < k && !remaining.is_empty() {
        let total: f32 = remaining.iter().map(|(_, w)| w).sum();
        let mut target = rng.gen_unit_f32() * total;
        let mut pick = remaining.len() - 1;
        for (slot, (_, w)) in remaining.iter().enumerate() {
            if target < *w {
                pick = slot;
                break;
            }
            target -= w;
        }
        out.push(remaining.swap_remove(pick).0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_is_full_participation() {
        let p = RoundPlan::full(4);
        assert_eq!(p.cohort_size(), 4);
        assert!(p
            .cohort
            .iter()
            .all(|(_, a)| *a == Availability::Participates));
        assert_eq!(p.active_indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn plans_sort_and_dedup_the_cohort() {
        let p = RoundPlan::new(vec![
            (3, Availability::Participates),
            (1, Availability::DropsOut),
            (3, Availability::Straggles),
        ]);
        assert_eq!(p.cohort_size(), 2);
        assert_eq!(p.cohort()[0].0, 1);
        assert_eq!(p.active_indices(), vec![3]);
    }

    #[test]
    fn full_sampler_reproduces_the_seed_round_shape() {
        let s = CohortSampler::full();
        for round in 0..5 {
            assert_eq!(s.plan(round, 6), RoundPlan::full(6));
        }
    }

    #[test]
    fn uniform_k_has_exact_cohort_size_and_is_seed_deterministic() {
        let s = CohortSampler::uniform(3, 7);
        for round in 0..10 {
            let a = s.plan(round, 6);
            let b = s.plan(round, 6);
            assert_eq!(a, b, "same (seed, round) must reproduce");
            assert_eq!(a.cohort_size(), 3);
            assert!(a.cohort().iter().all(|(i, _)| *i < 6));
        }
        // Different rounds draw different cohorts at least once.
        let distinct = (0..10)
            .map(|r| s.plan(r, 6))
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w[0] != w[1]);
        assert!(distinct, "plan stream is constant across rounds");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a: Vec<RoundPlan> = (0..8)
            .map(|r| CohortSampler::uniform(3, 1).plan(r, 8))
            .collect();
        let b: Vec<RoundPlan> = (0..8)
            .map(|r| CohortSampler::uniform(3, 2).plan(r, 8))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn weighted_sampling_respects_zero_weights() {
        let s = CohortSampler::weighted(2, vec![0.0, 1.0, 1.0, 0.0], 3);
        for round in 0..20 {
            let p = s.plan(round, 4);
            assert!(p.cohort().iter().all(|(i, _)| *i == 1 || *i == 2));
            assert_eq!(p.cohort_size(), 2);
        }
    }

    #[test]
    fn weighted_sampling_prefers_heavy_clients() {
        let s = CohortSampler::weighted(1, vec![0.05, 0.05, 10.0], 11);
        let heavy = (0..50).filter(|&r| s.plan(r, 3).cohort()[0].0 == 2).count();
        assert!(heavy > 35, "heavy client drawn only {heavy}/50 times");
    }

    #[test]
    fn churn_marks_dropouts_and_stragglers() {
        let s = CohortSampler::full().with_dropout(0.3).with_straggle(0.3);
        let mut dropped = 0;
        let mut straggled = 0;
        let mut participated = 0;
        for round in 0..40 {
            for (_, a) in s.plan(round, 6).cohort() {
                match a {
                    Availability::DropsOut => dropped += 1,
                    Availability::Straggles => straggled += 1,
                    Availability::Participates => participated += 1,
                }
            }
        }
        assert!(dropped > 0, "no dropouts at rate 0.3");
        assert!(straggled > 0, "no stragglers at rate 0.3");
        assert!(participated > 0, "nobody participates");
    }

    #[test]
    fn uniform_k_larger_than_fleet_clamps() {
        let p = CohortSampler::uniform(10, 5).plan(0, 3);
        assert_eq!(p.cohort_size(), 3);
    }

    #[test]
    fn k_zero_draws_an_empty_cohort() {
        let p = CohortSampler::uniform(0, 5).plan(0, 4);
        assert_eq!(p.cohort_size(), 0);
        assert!(p.active_indices().is_empty());
        let pw = CohortSampler::weighted(0, vec![1.0; 4], 5).plan(0, 4);
        assert_eq!(pw.cohort_size(), 0);
    }

    #[test]
    fn weighted_k_larger_than_fleet_clamps_to_positive_weights() {
        let p = CohortSampler::weighted(9, vec![1.0, 0.0, 2.0], 5).plan(0, 3);
        assert_eq!(p.cohort_size(), 2, "only positive-weight clients sampled");
        assert!(p.cohort().iter().all(|(i, _)| *i == 0 || *i == 2));
    }

    #[test]
    fn all_zero_weights_draw_an_empty_cohort() {
        let s = CohortSampler::weighted(3, vec![0.0; 5], 7);
        for round in 0..5 {
            assert_eq!(s.plan(round, 5).cohort_size(), 0);
        }
    }

    #[test]
    fn fleet_validation_flags_short_and_long_weight_vectors() {
        let short = CohortSampler::weighted(2, vec![1.0, 1.0], 3);
        assert!(short.validate_for_fleet(4).is_err());
        assert!(short.validate_for_fleet(2).is_ok());
        let long = CohortSampler::weighted(2, vec![1.0; 6], 3);
        assert!(long.validate_for_fleet(4).is_err());
        assert!(CohortSampler::uniform(2, 3).validate_for_fleet(99).is_ok());
        assert!(CohortSampler::full().validate_for_fleet(0).is_ok());
    }

    #[test]
    fn fleet_validation_flags_non_finite_weights_and_totals() {
        // Either would make every draw pick the last remaining client.
        let infinite = CohortSampler::weighted(1, vec![1.0, f32::INFINITY, 1.0], 3);
        assert!(infinite.validate_for_fleet(3).is_err());
        let overflowing = CohortSampler::weighted(1, vec![1.0, 3e38, 3e38], 3);
        assert!(overflowing.validate_for_fleet(3).is_err());
        let nan = CohortSampler::weighted(1, vec![1.0, f32::NAN, 1.0], 3);
        assert!(nan.validate_for_fleet(3).is_err());
        let large = CohortSampler::weighted(1, vec![1.0, 3e38, -3e38], 3);
        assert!(large.validate_for_fleet(3).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let s = CohortSampler::uniform(2, 9).with_dropout(0.1);
        let json = serde_json::to_string(&s).unwrap();
        let back: CohortSampler = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let p = s.plan(4, 6);
        let pj = serde_json::to_string(&p).unwrap();
        let pb: RoundPlan = serde_json::from_str(&pj).unwrap();
        assert_eq!(p, pb);
    }
}
