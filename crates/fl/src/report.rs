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
use std::fmt;

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
    /// Outcome accepting every one of `n` updates with equal weight —
    /// the shape rules without per-update rejection produce.
    pub fn all_accepted(params: NamedParams, n: usize) -> Self {
        let weight = if n == 0 { 0.0 } else { 1.0 / n as f32 };
        Self {
            params,
            decisions: vec![UpdateDecision::Accepted { weight }; n],
        }
    }

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
    /// Empty for aggregators without internal stages and for reports
    /// serialized before the pipeline redesign.
    #[serde(default = "Vec::new")]
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

    /// Cohort members that trained and delivered in time (accepted or
    /// rejected).
    pub fn participants(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    ClientOutcome::Trained { .. } | ClientOutcome::Rejected { .. }
                )
            })
            .count()
    }

    /// Accepted updates this round.
    pub fn accepted(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))
            .count()
    }

    /// Updates rejected by a defense rule this round.
    pub fn rejected(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::Rejected { .. }))
            .count()
    }

    /// Cohort members that dropped out.
    pub fn dropped(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| c.outcome == ClientOutcome::DroppedOut)
            .count()
    }

    /// Cohort members that straggled past the deadline.
    pub fn straggled(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| c.outcome == ClientOutcome::Straggled)
            .count()
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
        let weights: Vec<f32> = self
            .clients
            .iter()
            .filter(|c| c.malicious)
            .filter_map(|c| match c.outcome {
                ClientOutcome::Trained { weight } => Some(weight),
                ClientOutcome::Rejected { .. } => Some(0.0),
                _ => None,
            })
            .collect();
        if weights.is_empty() {
            None
        } else {
            Some(weights.iter().sum::<f32>() / weights.len() as f32)
        }
    }
}

/// Pools a per-round statistic over a report history: the mean of the
/// rounds where the statistic exists (rounds where the relevant population
/// delivered no update are skipped, exactly like the per-round helpers).
/// Shared by [`FlSession`](crate::FlSession) and the bench harness so the
/// pooling semantics cannot drift apart.
pub fn pooled_rate<'a>(
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

/// Pools per-round stage telemetry over a report history into one entry
/// per stage name, in order of first appearance (= pipeline order):
/// `rejections` totalled, `wall_ms` averaged over the rounds the stage
/// appeared in. This is the single fold behind the suite's per-cell
/// `stage_stats` and any ad-hoc report consumer — so the pooling
/// semantics cannot drift between them.
pub fn pooled_stage_telemetry<'a>(
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
        let o = AggregationOutcome::all_accepted(NamedParams::new(vec![]), 4);
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

    #[test]
    fn reports_without_a_stages_field_still_deserialize() {
        // Reports persisted before the pipeline redesign carry no stage
        // telemetry; the field defaults to empty.
        let r = report_with(vec![(false, ClientOutcome::Trained { weight: 1.0 })]);
        let json = serde_json::to_string(&r).unwrap();
        let without = json.replace(",\"stages\":[]", "");
        assert_ne!(json, without, "fixture no longer serializes the field");
        let back: RoundReport = serde_json::from_str(&without).unwrap();
        assert!(back.stages.is_empty());
        assert_eq!(back.clients, r.clients);
    }
}
