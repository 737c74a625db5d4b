//! The uniform interface the benchmark harness drives.

use crate::client::Client;
use crate::defense::DefensePipeline;
use crate::report::RoundReport;
use crate::round::RoundPlan;
use safeloc_dataset::FingerprintSet;
use safeloc_nn::{Matrix, NamedParams};

/// A complete FL indoor-localization framework: one global model plus one
/// aggregation rule plus the client-side protocol.
///
/// Implemented by [`SequentialFlServer`](crate::SequentialFlServer) (and the
/// named baselines wrapping it in `safeloc-baselines`) and by the `safeloc`
/// crate's `SafeLoc` framework. The benchmark harness treats every framework
/// identically: `pretrain` → repeated [`Framework::run_round`] → `predict`.
/// Most callers should not drive `run_round` by hand: an
/// [`FlSession`](crate::FlSession) owns the framework, the fleet and the
/// plan stream, and yields one [`RoundReport`] per round.
///
/// `Send` is a supertrait so boxed frameworks (and the sessions that own
/// them) can move across threads: the scenario-suite engine fans cells out
/// over a thread pool, and the serving harness runs an `FlSession` on a
/// background thread while inference traffic is served concurrently.
pub trait Framework: Send {
    /// Framework name as printed in the paper's figures.
    fn name(&self) -> &'static str;

    /// Server-side pretraining of the global model on the survey split.
    fn pretrain(&mut self, train: &FingerprintSet);

    /// One federated round under `plan`: distribute the GM to the plan's
    /// participating cohort, let each train (and possibly poison),
    /// aggregate, and report per-client outcomes and timings.
    ///
    /// A [`RoundPlan::full`] plan must reproduce the seed engine's round
    /// bit for bit (pinned by `tests/round_lifecycle.rs`).
    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport;

    /// Predicted RP labels for a batch of fingerprints.
    fn predict(&self, x: &Matrix) -> Vec<usize>;

    /// Total deployed parameter count (Table I).
    fn num_params(&self) -> usize;

    /// Snapshot of the *aggregated* global model — the weights a federated
    /// round rewrites. Frameworks with server-side side models (e.g.
    /// ONLAD's calibrated detector) exclude them: they are not part of the
    /// round trajectory.
    fn global_params(&self) -> NamedParams;

    /// Boxed clone — lets the bench harness pretrain a framework once and
    /// fork it across attack scenarios.
    fn clone_box(&self) -> Box<dyn Framework>;

    /// Replaces the framework's server-side defense with another
    /// [`DefensePipeline`], keeping the trained global model, the round
    /// counter and the client-side protocol. This is how a scenario spec
    /// sweeps defense compositions over one pretrained framework (the
    /// `DefenseSpec` axis in `safeloc-bench`).
    fn set_defense(&mut self, defense: DefensePipeline);

    /// Classification accuracy helper.
    fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let pred = self.predict(x);
        pred.iter().zip(labels).filter(|(p, y)| p == y).count() as f32 / labels.len() as f32
    }
}
