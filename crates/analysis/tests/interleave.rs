//! Exhaustive interleaving checks for the workspace's modeled
//! concurrent structures, plus proof the checker catches the bugs the
//! real code's guards exist to prevent.
//!
//! Each correct model must explore at least 1 000 distinct schedules
//! with zero violations; each `*_buggy` variant must produce a
//! violation with a non-empty reproducer schedule. Runs under
//! `cargo test -q` like any other test.

use safeloc_analysis::interleave::{explore, Limits, Model, Violation};
use safeloc_analysis::models::{BatchQueue, HistogramCasSum, HotSwapMonotonic, RegistryInterning};

/// Explores `model` expecting zero violations and ≥1k schedules.
fn assert_clean<M: Model>(name: &str, model: M) {
    let stats = explore(&model, Limits::default())
        .unwrap_or_else(|v| panic!("{name}: unexpected violation: {v}"));
    assert!(
        stats.schedules >= 1_000,
        "{name}: only {} schedules explored (complete={})",
        stats.schedules,
        stats.complete
    );
}

/// Explores `model` expecting the checker to find a violation.
fn assert_buggy<M: Model>(name: &str, model: M) -> Violation {
    let v = explore(&model, Limits::default())
        .err()
        .unwrap_or_else(|| panic!("{name}: checker missed the planted bug"));
    assert!(
        !v.schedule.is_empty(),
        "{name}: violation without a reproducer"
    );
    v
}

#[test]
fn registry_interning_is_race_free() {
    assert_clean("registry-interning", RegistryInterning::new(3));
}

#[test]
fn registry_interning_without_recheck_double_inserts() {
    let v = assert_buggy("registry-interning-buggy", RegistryInterning::buggy(3));
    assert!(v.message.contains("duplicate"), "{v}");
}

#[test]
fn histogram_cas_sum_never_loses_updates() {
    assert_clean("histogram-cas-sum", HistogramCasSum::new(3));
}

#[test]
fn histogram_plain_store_loses_updates() {
    let v = assert_buggy("histogram-cas-sum-buggy", HistogramCasSum::buggy(3));
    assert!(v.message.contains("lost update"), "{v}");
}

#[test]
fn model_registry_hot_swap_is_tear_free_and_monotone() {
    assert_clean("hot-swap-monotonic", HotSwapMonotonic::new(2, 2, 2, 2));
}

#[test]
fn model_registry_without_write_lock_tears() {
    // Small enough that exploration is exhaustive: the buggy variant's
    // torn (version, weights) window is provably visited, not left to
    // whichever corner of a huge schedule space the budget reaches.
    let v = assert_buggy(
        "hot-swap-monotonic-buggy",
        HotSwapMonotonic::buggy(1, 1, 1, 1),
    );
    assert!(v.message.contains("torn"), "{v}");
}

#[test]
fn serve_batch_queue_delivers_once_and_never_loses_a_wakeup() {
    // Small enough to exhaust (with a budget of its own: the four have
    // ~1.0 M, ~116 k, ~2.2 M and ~4.8 M schedules): "no schedule
    // deadlocks, strands a job or overtakes the oldest one" is then a
    // proof over these configurations, not a sample. Jobs are
    // `(id, key)`.
    let exhaustive = Limits {
        max_schedules: 6_000_000,
        ..Limits::default()
    };
    let configs = [
        // Two jobs against max_batch 1 leave a remainder after a drain:
        // the chained notify, two workers racing for it and for the
        // close wakeup.
        ("batch-queue", BatchQueue::new(2, 1, &[&[(1, 0), (2, 0)]])),
        // Two producers of two keys race each other, the closer and one
        // worker that waits for its short batch to fill: a drain takes
        // one key and leaves the other, a backlog drained without a wait.
        (
            "batch-queue-two-producers",
            BatchQueue::new(1, 2, &[&[(1, 0)], &[(2, 1)]]),
        ),
        // Two workers, one waiting for the batch to fill (and absorbing
        // the notifies its peer would have needed), one asleep beside
        // the short batch, while the second push fills it and the closer
        // cuts the wait short.
        (
            "batch-queue-fill-wait",
            BatchQueue::new(2, 2, &[&[(1, 0), (2, 0)]]),
        ),
        // The same with two keys: the filled batch is drained one key at
        // a time, and the chained notify or the backlogged remainder must
        // get the second key out.
        (
            "batch-queue-two-keys",
            BatchQueue::new(2, 2, &[&[(1, 0), (2, 1)]]),
        ),
    ];
    for (name, model) in configs {
        let stats = explore(&model, exhaustive)
            .unwrap_or_else(|v| panic!("{name}: unexpected violation: {v}"));
        assert!(stats.complete, "{name}: search budget hit");
        assert!(stats.schedules >= 1_000, "{name}: {}", stats.schedules);
    }
}

#[test]
fn serve_batch_queue_without_chained_notify_strands_the_remainder() {
    let v = assert_buggy(
        "batch-queue-buggy",
        BatchQueue::buggy(2, 1, &[&[(1, 0), (2, 0)]]),
    );
    assert!(v.message.contains("sleeps un-notified"), "{v}");
}

#[test]
fn serve_batch_queue_draining_the_most_common_key_overtakes_the_oldest_job() {
    let v = assert_buggy(
        "batch-queue-most-common-key-buggy",
        BatchQueue::most_common_key_buggy(1, 2, &[&[(1, 0), (2, 1), (3, 1)]]),
    );
    assert!(v.message.contains("overtook job 1"), "{v}");
}

/// The acceptance bar from the issue, stated as its own test: every
/// modeled structure explores ≥1 000 distinct schedules.
#[test]
fn every_model_clears_the_thousand_schedule_bar() {
    let counts = [
        (
            "registry-interning",
            explore(&RegistryInterning::new(3), Limits::default()).unwrap(),
        ),
        (
            "histogram-cas-sum",
            explore(&HistogramCasSum::new(3), Limits::default()).unwrap(),
        ),
        (
            "hot-swap-monotonic",
            explore(&HotSwapMonotonic::new(2, 2, 2, 2), Limits::default()).unwrap(),
        ),
        (
            "batch-queue",
            explore(
                &BatchQueue::new(2, 1, &[&[(1, 0), (2, 0)]]),
                Limits::default(),
            )
            .unwrap(),
        ),
    ];
    for (name, stats) in counts {
        assert!(
            stats.schedules >= 1_000,
            "{name}: {} schedules",
            stats.schedules
        );
    }
}
