//! Deterministic transport-fault injection: latency, drops and slow
//! readers drawn from a seeded profile.
//!
//! One [`FaultProfile`] serves two consumers. The client loop
//! ([`run_remote_client`](crate::remote::run_remote_client), which the
//! `fl_client` bin and the examples' child processes run) applies its
//! draws to the *real* transport — sleeping before an update, closing the
//! socket, or trickling bytes below the server's deadline — turning
//! simulated churn into measured churn. The scenario-suite engine applies
//! the same draws through [`FaultProfile::degrade_plan`], mapping each
//! would-be fault onto the in-process [`Availability`] it would have
//! produced, so network conditions sweep like any other scenario axis
//! without paying per-cell process spawns.
//!
//! Draws are a pure function of `(seed, round, client)` — the profile can
//! be consulted out of order, from any process, and reproduce bit for bit.
//! A profile is outside input (a `--fault` flag, a spec file), so every
//! entry point checks it with [`FaultProfile::validate`]; a draw never
//! panics even on a profile that check would reject.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use safeloc_fl::{Availability, RoundPlan};
use serde::{Deserialize, Serialize};

fn f64_zero() -> f64 {
    0.0
}

fn u64_zero() -> u64 {
    0
}

/// A configurable transport-fault distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Mean injected one-way latency, milliseconds.
    #[serde(default = "f64_zero")]
    pub latency_ms_mean: f64,
    /// Standard deviation of the injected latency (0 = constant).
    #[serde(default = "f64_zero")]
    pub latency_ms_std: f64,
    /// Per-(round, client) probability of dropping the connection instead
    /// of delivering the update.
    #[serde(default = "f64_zero")]
    pub drop_probability: f64,
    /// Per-(round, client) probability of trickling the update slower than
    /// any reasonable round deadline (a slow-reader straggler).
    #[serde(default = "f64_zero")]
    pub slow_reader_probability: f64,
    /// Seed of the fault stream.
    #[serde(default = "u64_zero")]
    pub seed: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::ideal()
    }
}

impl FaultProfile {
    /// The no-fault profile: zero latency, no drops, no stragglers.
    pub fn ideal() -> Self {
        Self {
            latency_ms_mean: 0.0,
            latency_ms_std: 0.0,
            drop_probability: 0.0,
            slow_reader_probability: 0.0,
            seed: 0,
        }
    }

    /// A normally distributed latency profile with no drops.
    pub fn latency(mean_ms: f64, std_ms: f64, seed: u64) -> Self {
        Self {
            latency_ms_mean: mean_ms,
            latency_ms_std: std_ms,
            seed,
            ..Self::ideal()
        }
    }

    /// Sets the drop probability.
    pub fn with_drops(mut self, probability: f64) -> Self {
        self.drop_probability = probability;
        self
    }

    /// `true` when the profile can inject nothing — the fast path that
    /// never consults an RNG, mirroring the cohort sampler's no-churn
    /// guarantee.
    pub fn is_ideal(&self) -> bool {
        self.latency_ms_mean <= 0.0
            && self.latency_ms_std <= 0.0
            && self.drop_probability <= 0.0
            && self.slow_reader_probability <= 0.0
    }

    /// Checks a profile from outside (a `--fault` flag, a spec file):
    /// latencies finite and `>= 0`, probabilities in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        for (field, value) in [
            ("latency_ms_mean", self.latency_ms_mean),
            ("latency_ms_std", self.latency_ms_std),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("{field} must be finite and >= 0, got {value}"));
            }
        }
        for (field, value) in [
            ("drop_probability", self.drop_probability),
            ("slow_reader_probability", self.slow_reader_probability),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!("{field} must lie in [0, 1], got {value}"));
            }
        }
        Ok(())
    }

    /// The faults hitting `client` in `round`. Deterministic in
    /// `(seed, round, client)`; the word-consumption order (drop, slow
    /// reader, latency) is fixed, so adding a fault kind later cannot
    /// silently reshuffle existing draws. A latency that is not finite
    /// comes out as `f64::INFINITY` — an upload that never arrives.
    pub fn draw(&self, round: u64, client: u64) -> FaultDraw {
        if self.is_ideal() {
            return FaultDraw {
                latency_ms: 0.0,
                drop: false,
                slow_reader: false,
            };
        }
        let stream = self.seed
            ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ client.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut rng = StdRng::seed_from_u64(stream);
        let drop = rng.gen_range(0.0..1.0f64) < self.drop_probability;
        let slow_reader = rng.gen_range(0.0..1.0f64) < self.slow_reader_probability;
        let latency_ms = if self.latency_ms_std > 0.0 {
            // `Normal::new` refuses a non-finite mean or std — `+inf`
            // passes the `> 0.0` test above — which only a profile
            // `validate` rejects can carry: no latency is drawn for it.
            Normal::<f64>::new(self.latency_ms_mean, self.latency_ms_std)
                .map_or(f64::INFINITY, |normal| normal.sample(&mut rng).max(0.0))
        } else {
            self.latency_ms_mean.max(0.0)
        };
        FaultDraw {
            latency_ms,
            drop,
            slow_reader,
        }
    }

    /// Replays this profile's faults onto an in-process plan: each
    /// participating member that would have dropped its connection becomes
    /// [`Availability::DropsOut`]; one that would have trickled below the
    /// deadline — or whose drawn latency exceeds `deadline_ms` — becomes
    /// [`Availability::Straggles`]. Members the plan already benched keep
    /// their availability. An ideal profile returns the plan unchanged
    /// without consulting any RNG.
    pub fn degrade_plan(&self, plan: &RoundPlan, round: u64, deadline_ms: f64) -> RoundPlan {
        if self.is_ideal() {
            return plan.clone();
        }
        RoundPlan::new(
            plan.cohort()
                .iter()
                .map(|&(i, availability)| {
                    if availability != Availability::Participates {
                        return (i, availability);
                    }
                    let draw = self.draw(round, i as u64);
                    let effective = if draw.drop {
                        Availability::DropsOut
                    } else if draw.slow_reader
                        || (deadline_ms > 0.0 && draw.latency_ms > deadline_ms)
                    {
                        Availability::Straggles
                    } else {
                        Availability::Participates
                    };
                    (i, effective)
                })
                .collect(),
        )
    }
}

/// One (round, client) fault draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDraw {
    /// Injected one-way latency, milliseconds (≥ 0).
    pub latency_ms: f64,
    /// Whether the connection drops instead of delivering.
    pub drop: bool,
    /// Whether the update trickles in below any reasonable deadline.
    pub slow_reader: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_profile_injects_nothing() {
        let p = FaultProfile::ideal();
        assert!(p.is_ideal());
        let d = p.draw(3, 9);
        assert_eq!(
            d,
            FaultDraw {
                latency_ms: 0.0,
                drop: false,
                slow_reader: false
            }
        );
        let plan = RoundPlan::full(5);
        assert_eq!(p.degrade_plan(&plan, 0, 100.0), plan);
    }

    #[test]
    fn draws_are_deterministic_and_vary_by_round_and_client() {
        let p = FaultProfile::latency(20.0, 5.0, 42).with_drops(0.3);
        assert_eq!(p.draw(1, 2), p.draw(1, 2));
        let draws: Vec<FaultDraw> = (0..8).map(|c| p.draw(0, c)).collect();
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "eight clients drew identical faults"
        );
        assert_ne!(p.draw(0, 1), p.draw(1, 1), "rounds share a stream");
    }

    #[test]
    fn drop_probability_one_drops_everyone() {
        let p = FaultProfile::ideal().with_drops(1.0);
        let degraded = p.degrade_plan(&RoundPlan::full(4), 2, 0.0);
        assert!(degraded
            .cohort()
            .iter()
            .all(|&(_, a)| a == Availability::DropsOut));
    }

    #[test]
    fn latency_beyond_deadline_becomes_a_straggler() {
        let p = FaultProfile::latency(50.0, 0.0, 7);
        let degraded = p.degrade_plan(&RoundPlan::full(3), 0, 10.0);
        assert!(degraded
            .cohort()
            .iter()
            .all(|&(_, a)| a == Availability::Straggles));
        // Same latency under a generous deadline: everyone participates.
        let relaxed = p.degrade_plan(&RoundPlan::full(3), 0, 500.0);
        assert!(relaxed
            .cohort()
            .iter()
            .all(|&(_, a)| a == Availability::Participates));
    }

    #[test]
    fn benched_members_keep_their_availability() {
        let p = FaultProfile::ideal().with_drops(1.0);
        let plan = RoundPlan::new(vec![
            (0, Availability::Straggles),
            (1, Availability::Participates),
        ]);
        let degraded = p.degrade_plan(&plan, 0, 0.0);
        assert_eq!(degraded.cohort()[0], (0, Availability::Straggles));
        assert_eq!(degraded.cohort()[1], (1, Availability::DropsOut));
    }

    /// Two outside profiles that used to panic their consumer: an
    /// infinite std (`1e999` parses to `+inf`) panicked `draw`, and a
    /// finite latency no `Duration` holds panicked the client's sleep.
    #[test]
    fn outside_profiles_are_checked_and_never_panic_a_draw() {
        let inf_std: FaultProfile =
            serde_json::from_str("{\"latency_ms_mean\": 5, \"latency_ms_std\": 1e999}").unwrap();
        assert_eq!(inf_std.latency_ms_std, f64::INFINITY);
        let err = inf_std.validate().unwrap_err();
        assert!(err.contains("latency_ms_std"), "{err}");
        assert_eq!(inf_std.draw(0, 0).latency_ms, f64::INFINITY);

        let huge: FaultProfile = serde_json::from_str("{\"latency_ms_mean\": 1e300}").unwrap();
        assert_eq!(huge.validate(), Ok(()));
        let latency_ms = huge.draw(0, 0).latency_ms;
        assert_eq!(latency_ms, 1e300);
        assert!(std::time::Duration::try_from_secs_f64(latency_ms / 1e3).is_err());

        for (profile, field) in [
            (FaultProfile::latency(-1.0, 0.0, 0), "latency_ms_mean"),
            (FaultProfile::latency(f64::NAN, 0.0, 0), "latency_ms_mean"),
            (FaultProfile::latency(1.0, -2.0, 0), "latency_ms_std"),
            (FaultProfile::ideal().with_drops(1.5), "drop_probability"),
            (
                FaultProfile::ideal().with_drops(f64::NAN),
                "drop_probability",
            ),
            (
                FaultProfile {
                    slow_reader_probability: -0.1,
                    ..FaultProfile::ideal()
                },
                "slow_reader_probability",
            ),
        ] {
            let err = profile.validate().unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        assert_eq!(
            FaultProfile::latency(20.0, 5.0, 1)
                .with_drops(1.0)
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn profile_round_trips_through_serde_with_defaults() {
        let p = FaultProfile::latency(5.0, 1.0, 3).with_drops(0.1);
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // Omitted fields default to the ideal profile.
        let sparse: FaultProfile = serde_json::from_str("{\"latency_ms_mean\": 2.5}").unwrap();
        assert_eq!(sparse.latency_ms_mean, 2.5);
        assert_eq!(sparse.drop_probability, 0.0);
        assert_eq!(sparse.seed, 0);
    }
}
