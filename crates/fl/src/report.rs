//! Round telemetry: what happened to every client update.
//!
//! The seed engine's `round()` returned nothing, so nobody could report
//! *which* updates Krum/FEDCC/FEDLS rejected or measure attacker-rejection
//! rates. Two types fix that:
//!
//! * [`AggregationOutcome`] — what a
//!   [`DefensePipeline`](crate::DefensePipeline) decided: the next GM plus
//!   one [`UpdateDecision`] per input update.
//! * [`RoundReport`] — what a whole round did: one [`ClientReport`] per
//!   cohort member (trained / dropped / straggled / rejected, with the
//!   rejecting rule's name and score) plus wall-clock timings.

use crate::client::Client;
use crate::round::{Availability, RoundPlan};
use crate::update::ClientUpdate;
use safeloc_nn::NamedParams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Add;

/// One defense stage's footprint on a round: how many updates it
/// rejected and how long it ran. A
/// [`DefensePipeline`](crate::defense::DefensePipeline) emits one entry
/// per stage in execution order, combiner last; engines fold the trail
/// into [`RoundReport::stages`] so suite reports can attribute both
/// rejections and wall time to individual stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTelemetry {
    /// Stage (or combiner) name, e.g. `"norm-clip"`, `"latent"`, `"krum"`.
    pub stage: String,
    /// Updates this stage rejected this round (clipping stages reject 0).
    pub rejections: usize,
    /// Wall-clock time of the stage, milliseconds.
    pub wall_ms: f64,
}

/// An aggregation rule's verdict on one client update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UpdateDecision {
    /// The update contributed to the next GM with the given aggregation
    /// weight (FedAvg: sample-count share; Krum: 1 for the selected LM;
    /// saliency: mean elementwise saliency — the *soft* acceptance weight).
    Accepted {
        /// Aggregation weight in `[0, 1]`.
        weight: f32,
    },
    /// The update was excluded by a defense rule.
    Rejected {
        /// Name of the rejecting rule (`"krum"`, `"cluster"`, `"latent"`,
        /// `"non-finite"`).
        rule: String,
        /// The rule's anomaly score for this update (rule-specific units).
        score: f32,
    },
}

impl UpdateDecision {
    /// `true` for [`UpdateDecision::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, UpdateDecision::Accepted { .. })
    }
}

/// What one [`DefensePipeline`](crate::DefensePipeline) round decided:
/// the next global model plus a per-update decision trail.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationOutcome {
    /// The next global model.
    pub params: NamedParams,
    /// One decision per input update, in input order.
    pub decisions: Vec<UpdateDecision>,
}

impl AggregationOutcome {
    /// Number of accepted updates.
    pub fn accepted(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_accepted()).count()
    }

    /// Number of rejected updates.
    pub fn rejected(&self) -> usize {
        self.decisions.len() - self.accepted()
    }
}

/// What one cohort member did this round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientOutcome {
    /// Trained, delivered in time, and was accepted by the aggregator.
    Trained {
        /// Aggregation weight of the accepted update.
        weight: f32,
    },
    /// Sampled into the cohort but never responded.
    DroppedOut,
    /// Missed the round deadline; the late update was discarded.
    Straggled,
    /// Delivered in time but excluded by a defense rule.
    Rejected {
        /// Name of the rejecting rule.
        rule: String,
        /// The rule's anomaly score.
        score: f32,
    },
}

/// One cohort member's round record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientReport {
    /// The client's id ([`Client::id`]).
    pub client_id: usize,
    /// `true` if the client carried a poison injector.
    pub malicious: bool,
    /// Local samples trained on (0 unless the client trained).
    pub samples: usize,
    /// What happened.
    pub outcome: ClientOutcome,
}

/// Everything one federated round did, per client and in wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based, the framework's own counter).
    pub round: usize,
    /// Framework name.
    pub framework: String,
    /// One record per cohort member, sorted by fleet position.
    pub clients: Vec<ClientReport>,
    /// Wall-clock time of client-side training, milliseconds.
    pub train_ms: f64,
    /// Wall-clock time of server-side aggregation, milliseconds.
    pub aggregate_ms: f64,
    /// Per-stage defense telemetry, in pipeline order (combiner last).
    /// Empty for aggregators without internal stages.
    pub stages: Vec<StageTelemetry>,
}

impl RoundReport {
    /// Assembles the report for one executed round.
    ///
    /// `updates` must be the participant updates in cohort order (the order
    /// [`RoundPlan::active_indices`] yields) and `outcome.decisions` must
    /// parallel `updates` — which is exactly what
    /// [`ServerRound::run`](crate::ServerRound::run) produces.
    ///
    /// # Panics
    ///
    /// Panics if `updates` and `outcome.decisions` lengths differ, or if
    /// the update count does not match the plan's in-range participant
    /// count (in either direction — a mismatch would silently corrupt the
    /// per-client outcome trail).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        round: usize,
        framework: &str,
        clients: &[Client],
        plan: &RoundPlan,
        updates: &[ClientUpdate],
        outcome: &AggregationOutcome,
        stages: Vec<StageTelemetry>,
        train_ms: f64,
        aggregate_ms: f64,
    ) -> Self {
        assert_eq!(
            updates.len(),
            outcome.decisions.len(),
            "one decision per update"
        );
        let mut delivered = updates.iter().zip(&outcome.decisions);
        let reports = plan
            .cohort()
            .iter()
            .filter(|(i, _)| *i < clients.len())
            .map(|(i, availability)| {
                let c = &clients[*i];
                let (samples, outcome) = match availability {
                    Availability::DropsOut => (0, ClientOutcome::DroppedOut),
                    Availability::Straggles => (0, ClientOutcome::Straggled),
                    Availability::Participates => {
                        let (u, d) = delivered
                            .next()
                            .expect("one update per participating cohort member");
                        let outcome = match d {
                            UpdateDecision::Accepted { weight } => {
                                ClientOutcome::Trained { weight: *weight }
                            }
                            UpdateDecision::Rejected { rule, score } => ClientOutcome::Rejected {
                                rule: rule.clone(),
                                score: *score,
                            },
                        };
                        (u.num_samples, outcome)
                    }
                };
                ClientReport {
                    client_id: c.id,
                    malicious: c.is_malicious(),
                    samples,
                    outcome,
                }
            })
            .collect();
        assert!(
            delivered.next().is_none(),
            "more updates than participating cohort members"
        );
        Self {
            round,
            framework: framework.to_string(),
            clients: reports,
            train_ms,
            aggregate_ms,
            stages,
        }
    }

    fn count(&self, outcome: impl Fn(&ClientOutcome) -> bool) -> usize {
        self.clients.iter().filter(|c| outcome(&c.outcome)).count()
    }

    /// Cohort members that trained and delivered in time (accepted or
    /// rejected).
    pub fn participants(&self) -> usize {
        self.accepted() + self.rejected()
    }

    /// Accepted updates this round.
    pub fn accepted(&self) -> usize {
        self.count(|o| matches!(o, ClientOutcome::Trained { .. }))
    }

    /// Updates rejected by a defense rule this round.
    pub fn rejected(&self) -> usize {
        self.count(|o| matches!(o, ClientOutcome::Rejected { .. }))
    }

    /// Cohort members that dropped out.
    pub fn dropped(&self) -> usize {
        self.count(|o| *o == ClientOutcome::DroppedOut)
    }

    /// Cohort members that straggled past the deadline.
    pub fn straggled(&self) -> usize {
        self.count(|o| *o == ClientOutcome::Straggled)
    }

    /// Fraction of *malicious participants* whose update was rejected, or
    /// `None` if no malicious client delivered an update this round — the
    /// defense-effectiveness statistic the seed engine could not measure.
    pub fn attacker_rejection_rate(&self) -> Option<f32> {
        rejection_rate(self.clients.iter().filter(|c| c.malicious))
    }

    /// Fraction of *honest participants* whose update was rejected
    /// (collateral damage), or `None` if no honest client delivered.
    pub fn honest_rejection_rate(&self) -> Option<f32> {
        rejection_rate(self.clients.iter().filter(|c| !c.malicious))
    }

    /// Mean accepted weight of malicious participants (0 when rejected),
    /// or `None` if no malicious client delivered. For soft defenses like
    /// saliency aggregation — which never rejects outright — this is the
    /// statistic that shows suppression.
    pub fn mean_attacker_weight(&self) -> Option<f32> {
        let mut weights = RoundMean::default();
        for c in self.clients.iter().filter(|c| c.malicious) {
            weights.add(match c.outcome {
                ClientOutcome::Trained { weight } => Some(weight),
                ClientOutcome::Rejected { .. } => Some(0.0),
                _ => None,
            });
        }
        weights.get()
    }
}

/// Running totals over a stream of [`RoundReport`]s, in memory that does
/// not grow with the rounds. Two kinds of rate come out of it:
///
/// * **means over rounds** — the three `Option<f32>` rates average each
///   round's own rate over the rounds where that population delivered;
/// * **count ratios** — [`rule_rejections`](Self::rule_rejections) over
///   [`delivered`](Self::delivered), every delivery weighing the same.
///
/// Floats are summed in round order and divided once, so each number has
/// the bits of summing the collected per-round values.
#[derive(Debug, Clone, Default)]
pub struct RoundTally {
    attacker_rejection: RoundMean<f32>,
    honest_rejection: RoundMean<f32>,
    attacker_weight: RoundMean<f32>,
    train_ms: RoundMean<f64>,
    aggregate_ms: RoundMean<f64>,
    delivered: ByRole,
    rules: BTreeMap<String, ByRole>,
    /// Summed telemetry and rounds run, per stage name in first-seen order.
    stages: Vec<(StageTelemetry, usize)>,
}

/// A count of clients, split by whether they were malicious.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByRole {
    /// Malicious clients.
    pub malicious: usize,
    /// Honest clients.
    pub honest: usize,
}

impl ByRole {
    fn count(&mut self, malicious: bool) {
        if malicious {
            self.malicious += 1;
        } else {
            self.honest += 1;
        }
    }
}

/// Sum and count of the values that exist, for their mean.
#[derive(Debug, Clone, Copy)]
struct RoundMean<T>(T, usize);

impl<T: From<f32>> Default for RoundMean<T> {
    /// Sums start at -0.0, where `Iterator::sum` starts.
    fn default() -> Self {
        Self(T::from(-0.0), 0)
    }
}

impl<T: Copy + Add<Output = T>> RoundMean<T> {
    fn add(&mut self, value: Option<T>) {
        if let Some(v) = value {
            *self = Self(self.0 + v, self.1 + 1);
        }
    }
}

impl RoundMean<f32> {
    fn get(self) -> Option<f32> {
        (self.1 > 0).then(|| self.0 / self.1 as f32)
    }
}

impl RoundMean<f64> {
    fn get(self) -> Option<f64> {
        (self.1 > 0).then(|| self.0 / self.1 as f64)
    }
}

impl RoundTally {
    /// The tally of `reports`, in order.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a RoundReport>) -> Self {
        let mut tally = Self::default();
        reports.into_iter().for_each(|r| tally.add(r));
        tally
    }

    /// Folds one more round in.
    pub fn add(&mut self, report: &RoundReport) {
        self.attacker_rejection
            .add(report.attacker_rejection_rate());
        self.honest_rejection.add(report.honest_rejection_rate());
        self.attacker_weight.add(report.mean_attacker_weight());
        self.train_ms.add(Some(report.train_ms));
        self.aggregate_ms.add(Some(report.aggregate_ms));
        for c in &report.clients {
            if let ClientOutcome::Trained { .. } | ClientOutcome::Rejected { .. } = c.outcome {
                self.delivered.count(c.malicious);
            }
            if let ClientOutcome::Rejected { rule, .. } = &c.outcome {
                self.rules
                    .entry(rule.clone())
                    .or_default()
                    .count(c.malicious);
            }
        }
        for stage in &report.stages {
            match self.stages.iter_mut().find(|(s, _)| s.stage == stage.stage) {
                Some((sum, rounds)) => {
                    sum.rejections += stage.rejections;
                    sum.wall_ms += stage.wall_ms;
                    *rounds += 1;
                }
                // Stage sums have always started from +0.0.
                None => self.stages.push((
                    StageTelemetry {
                        wall_ms: 0.0 + stage.wall_ms,
                        ..stage.clone()
                    },
                    1,
                )),
            }
        }
    }

    /// Rounds folded in so far.
    pub fn rounds(&self) -> usize {
        self.train_ms.1 // every round adds one training time
    }

    /// Mean over rounds of [`RoundReport::attacker_rejection_rate`].
    pub fn attacker_rejection_rate(&self) -> Option<f32> {
        self.attacker_rejection.get()
    }

    /// Mean over rounds of [`RoundReport::honest_rejection_rate`].
    pub fn honest_rejection_rate(&self) -> Option<f32> {
        self.honest_rejection.get()
    }

    /// Mean over rounds of [`RoundReport::mean_attacker_weight`].
    pub fn mean_attacker_weight(&self) -> Option<f32> {
        self.attacker_weight.get()
    }

    /// Mean client-training wall time per round, ms (0 before any round).
    pub fn mean_train_ms(&self) -> f64 {
        self.train_ms.get().unwrap_or(0.0)
    }

    /// Mean aggregation wall time per round, ms (0 before any round).
    pub fn mean_aggregate_ms(&self) -> f64 {
        self.aggregate_ms.get().unwrap_or(0.0)
    }

    /// Updates delivered in time (accepted or rejected), over every round.
    pub fn delivered(&self) -> ByRole {
        self.delivered
    }

    /// Rejections per rule name, in name order.
    pub fn rule_rejections(&self) -> impl Iterator<Item = (&str, ByRole)> {
        self.rules.iter().map(|(rule, n)| (rule.as_str(), *n))
    }

    /// One entry per stage name, in first-seen (= pipeline) order:
    /// `rejections` totalled, `wall_ms` averaged over the rounds it ran in.
    pub fn stages(&self) -> Vec<StageTelemetry> {
        let mean = |(sum, rounds): &(StageTelemetry, usize)| StageTelemetry {
            wall_ms: sum.wall_ms / *rounds as f64,
            ..sum.clone()
        };
        self.stages.iter().map(mean).collect()
    }
}

fn rejection_rate<'a>(clients: impl Iterator<Item = &'a ClientReport>) -> Option<f32> {
    let mut delivered = 0usize;
    let mut rejected = 0usize;
    for c in clients {
        match c.outcome {
            ClientOutcome::Trained { .. } => delivered += 1,
            ClientOutcome::Rejected { .. } => {
                delivered += 1;
                rejected += 1;
            }
            _ => {}
        }
    }
    if delivered == 0 {
        None
    } else {
        Some(rejected as f32 / delivered as f32)
    }
}

impl fmt::Display for RoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {:>3} [{}]: cohort {}, accepted {}, rejected {}, dropped {}, straggled {} \
             (train {:.1} ms, aggregate {:.2} ms)",
            self.round,
            self.framework,
            self.clients.len(),
            self.accepted(),
            self.rejected(),
            self.dropped(),
            self.straggled(),
            self.train_ms,
            self.aggregate_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn report_with(outcomes: Vec<(bool, ClientOutcome)>) -> RoundReport {
        RoundReport {
            round: 0,
            framework: "TEST".into(),
            clients: outcomes
                .into_iter()
                .enumerate()
                .map(|(i, (malicious, outcome))| ClientReport {
                    client_id: i,
                    malicious,
                    samples: 10,
                    outcome,
                })
                .collect(),
            train_ms: 1.0,
            aggregate_ms: 0.5,
            stages: Vec::new(),
        }
    }

    #[test]
    fn counts_by_outcome() {
        let r = report_with(vec![
            (false, ClientOutcome::Trained { weight: 0.5 }),
            (false, ClientOutcome::DroppedOut),
            (false, ClientOutcome::Straggled),
            (
                true,
                ClientOutcome::Rejected {
                    rule: "krum".into(),
                    score: 3.0,
                },
            ),
        ]);
        assert_eq!(r.participants(), 2);
        assert_eq!(r.accepted(), 1);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.straggled(), 1);
    }

    #[test]
    fn attacker_rejection_rate_counts_only_delivered_attackers() {
        let r = report_with(vec![
            (true, ClientOutcome::DroppedOut),
            (
                true,
                ClientOutcome::Rejected {
                    rule: "latent".into(),
                    score: 9.0,
                },
            ),
            (true, ClientOutcome::Trained { weight: 0.2 }),
            (false, ClientOutcome::Trained { weight: 0.2 }),
        ]);
        assert_eq!(r.attacker_rejection_rate(), Some(0.5));
        assert_eq!(r.honest_rejection_rate(), Some(0.0));
        assert_eq!(r.mean_attacker_weight(), Some(0.1));
    }

    #[test]
    fn rates_are_none_without_delivered_updates() {
        let r = report_with(vec![(false, ClientOutcome::DroppedOut)]);
        assert_eq!(r.attacker_rejection_rate(), None);
        assert_eq!(r.honest_rejection_rate(), None);
        assert_eq!(r.mean_attacker_weight(), None);
    }

    #[test]
    fn display_mentions_the_counts() {
        let r = report_with(vec![(false, ClientOutcome::Trained { weight: 1.0 })]);
        let s = r.to_string();
        assert!(s.contains("TEST"));
        assert!(s.contains("accepted 1"));
    }

    #[test]
    fn outcome_helpers() {
        let o = AggregationOutcome {
            params: NamedParams::new(vec![]),
            decisions: vec![UpdateDecision::Accepted { weight: 0.25 }; 4],
        };
        assert_eq!(o.accepted(), 4);
        assert_eq!(o.rejected(), 0);
        assert!(o.decisions[0].is_accepted());
    }

    #[test]
    fn serde_round_trip() {
        let mut r = report_with(vec![(
            true,
            ClientOutcome::Rejected {
                rule: "cluster".into(),
                score: 0.7,
            },
        )]);
        r.stages = vec![StageTelemetry {
            stage: "cluster".into(),
            rejections: 1,
            wall_ms: 0.2,
        }];
        let json = serde_json::to_string(&r).unwrap();
        let back: RoundReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    // The folds the tally replaced, kept verbatim as its oracle.
    fn reference_pooled_rate<'a>(
        reports: impl Iterator<Item = &'a RoundReport>,
        stat: impl Fn(&RoundReport) -> Option<f32>,
    ) -> Option<f32> {
        let present: Vec<f32> = reports.filter_map(stat).collect();
        if present.is_empty() {
            None
        } else {
            Some(present.iter().sum::<f32>() / present.len() as f32)
        }
    }

    fn reference_mean_ms(values: impl Iterator<Item = f64>) -> f64 {
        let collected: Vec<f64> = values.collect();
        if collected.is_empty() {
            0.0
        } else {
            collected.iter().sum::<f64>() / collected.len() as f64
        }
    }

    fn reference_stage_telemetry<'a>(
        reports: impl Iterator<Item = &'a RoundReport>,
    ) -> Vec<StageTelemetry> {
        let mut pooled: Vec<StageTelemetry> = Vec::new();
        let mut rounds_seen: Vec<usize> = Vec::new();
        for report in reports {
            for stage in &report.stages {
                let slot = match pooled.iter().position(|s| s.stage == stage.stage) {
                    Some(slot) => slot,
                    None => {
                        pooled.push(StageTelemetry {
                            stage: stage.stage.clone(),
                            rejections: 0,
                            wall_ms: 0.0,
                        });
                        rounds_seen.push(0);
                        pooled.len() - 1
                    }
                };
                pooled[slot].rejections += stage.rejections;
                pooled[slot].wall_ms += stage.wall_ms;
                rounds_seen[slot] += 1;
            }
        }
        for (s, rounds) in pooled.iter_mut().zip(rounds_seen) {
            s.wall_ms /= rounds.max(1) as f64;
        }
        pooled
    }

    /// `(delivered malicious, delivered honest, rule -> (attackers, honest))`.
    type RuleFold = (usize, usize, BTreeMap<String, (usize, usize)>);

    fn reference_rule_fold(reports: &[RoundReport]) -> RuleFold {
        let mut delivered_malicious = 0usize;
        let mut delivered_honest = 0usize;
        let mut per_rule: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for report in reports {
            for c in &report.clients {
                match &c.outcome {
                    ClientOutcome::Trained { .. } => {
                        if c.malicious {
                            delivered_malicious += 1;
                        } else {
                            delivered_honest += 1;
                        }
                    }
                    ClientOutcome::Rejected { rule, .. } => {
                        let entry = per_rule.entry(rule.clone()).or_insert((0, 0));
                        if c.malicious {
                            delivered_malicious += 1;
                            entry.0 += 1;
                        } else {
                            delivered_honest += 1;
                            entry.1 += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        (delivered_malicious, delivered_honest, per_rule)
    }

    /// A float that is sometimes a signed zero, so the sums' start values
    /// are pinned too.
    fn synthetic_value(rng: &mut StdRng, scale: f64) -> f64 {
        match rng.gen_range(0..8usize) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(0.0..scale),
        }
    }

    fn synthetic_report(rng: &mut StdRng, round: usize) -> RoundReport {
        const RULES: [&str; 3] = ["krum", "latent", "cluster"];
        const STAGES: [&str; 5] = ["non-finite", "norm-clip", "cluster", "latent", "krum"];
        let clients = (0..rng.gen_range(0..=8usize))
            .map(|i| ClientReport {
                client_id: i,
                malicious: rng.gen_bool(0.3),
                samples: 10,
                outcome: match rng.gen_range(0..4usize) {
                    0 => ClientOutcome::Trained {
                        weight: synthetic_value(rng, 1.0) as f32,
                    },
                    1 => ClientOutcome::DroppedOut,
                    2 => ClientOutcome::Straggled,
                    _ => ClientOutcome::Rejected {
                        rule: RULES[rng.gen_range(0..RULES.len())].into(),
                        score: 1.0,
                    },
                },
            })
            .collect();
        let mut names = STAGES.to_vec();
        names.shuffle(rng);
        names.truncate(rng.gen_range(0..=4usize));
        let stages = names
            .into_iter()
            .map(|stage| StageTelemetry {
                stage: stage.into(),
                rejections: rng.gen_range(0..3usize),
                wall_ms: synthetic_value(rng, 5.0),
            })
            .collect();
        RoundReport {
            round,
            framework: "TEST".into(),
            clients,
            train_ms: synthetic_value(rng, 100.0),
            aggregate_ms: synthetic_value(rng, 10.0),
            stages,
        }
    }

    fn assert_tally_matches_reference(tally: &RoundTally, reports: &[RoundReport]) {
        let bits = |r: Option<f32>| r.map(f32::to_bits);
        let n = reports.len();
        assert_eq!(tally.rounds(), n);
        for (got, stat) in [
            (
                tally.attacker_rejection_rate(),
                RoundReport::attacker_rejection_rate as fn(&RoundReport) -> Option<f32>,
            ),
            (
                tally.honest_rejection_rate(),
                RoundReport::honest_rejection_rate,
            ),
            (
                tally.mean_attacker_weight(),
                RoundReport::mean_attacker_weight,
            ),
        ] {
            let want = reference_pooled_rate(reports.iter(), stat);
            assert_eq!(bits(got), bits(want), "rate after {n} rounds");
        }
        let train = reference_mean_ms(reports.iter().map(|r| r.train_ms));
        let aggregate = reference_mean_ms(reports.iter().map(|r| r.aggregate_ms));
        assert_eq!(tally.mean_train_ms().to_bits(), train.to_bits());
        assert_eq!(tally.mean_aggregate_ms().to_bits(), aggregate.to_bits());

        let (malicious, honest, per_rule) = reference_rule_fold(reports);
        assert_eq!(tally.delivered(), ByRole { malicious, honest });
        let rules: Vec<(String, usize, usize)> = tally
            .rule_rejections()
            .map(|(rule, r)| (rule.to_string(), r.malicious, r.honest))
            .collect();
        let want: Vec<(String, usize, usize)> = per_rule
            .into_iter()
            .map(|(rule, (a, h))| (rule, a, h))
            .collect();
        assert_eq!(rules, want);

        let stages = tally.stages();
        let want = reference_stage_telemetry(reports.iter());
        assert_eq!(stages.len(), want.len());
        for (got, want) in stages.iter().zip(&want) {
            assert_eq!(got.stage, want.stage);
            assert_eq!(got.rejections, want.rejections);
            assert_eq!(
                got.wall_ms.to_bits(),
                want.wall_ms.to_bits(),
                "{}",
                got.stage
            );
        }
    }

    #[test]
    fn the_tally_is_the_old_folds_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let reports: Vec<RoundReport> = (0..1_000).map(|r| synthetic_report(&mut rng, r)).collect();
        let no_attacker = reports
            .iter()
            .filter(|r| r.attacker_rejection_rate().is_none())
            .count();
        let no_honest = reports
            .iter()
            .filter(|r| r.honest_rejection_rate().is_none())
            .count();
        assert!(
            no_attacker > 0 && no_honest > 0,
            "{no_attacker} / {no_honest}"
        );

        let mut tally = RoundTally::default();
        for (n, report) in reports.iter().enumerate() {
            if n % 97 == 0 {
                assert_tally_matches_reference(&tally, &reports[..n]);
            }
            tally.add(report);
        }
        assert_tally_matches_reference(&tally, &reports);
        assert_tally_matches_reference(&RoundTally::of(&reports), &reports);

        // Signed zeros alone: only where each sum starts decides these bits.
        let mut zeros = report_with(vec![(true, ClientOutcome::Trained { weight: -0.0 })]);
        zeros.train_ms = -0.0;
        zeros.aggregate_ms = -0.0;
        zeros.stages = vec![StageTelemetry {
            stage: "krum".into(),
            rejections: 0,
            wall_ms: -0.0,
        }];
        let zeros = [zeros];
        assert_tally_matches_reference(&RoundTally::of(&zeros), &zeros);
    }
}
