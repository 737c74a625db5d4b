//! The serve queue: one mutex-guarded FIFO plus a condvar, drained in
//! batches of the backlog.
//!
//! A worker blocks while the queue is empty. Once a job is there it takes
//! `min(len, max)` jobs under the lock and leaves — so a batch is whatever
//! backlog built up while the workers were busy. Only a *short* batch
//! (fewer than `max` queued) waits, for at most the queue's `fill_wait`,
//! for later pushes to fill it: one worker does the waiting (a peer that
//! comes by meanwhile goes to sleep — two waiting on the same batch would
//! leave the later one's wait running after the batch is gone, to cut
//! short the wait of whatever comes next), the push that fills the batch
//! wakes it early, and a `fill_wait` of zero never waits. The queue's
//! own length is the backlog, readable under the same lock
//! (`serve_queue_depth` records it when a batch is sealed).
//!
//! # Who wakes whom
//!
//! One wakeup per *backlog*, not per job. A push notifies when it makes
//! the queue non-empty — whoever is already awake for the earlier jobs
//! takes the later ones along — and when it brings the queue to the
//! length a fill-waiting worker asked for. A worker whose drain leaves
//! jobs behind (more than `max` were queued) notifies one more worker
//! before it starts executing, so the remainder does not wait for it
//! while a peer sleeps. Waking a worker per push instead costs a futile
//! context switch per request under load (the second worker finds the
//! queue already drained): 4 % of `serve_surge` throughput when measured.
//!
//! A notify may land on the fill-waiting worker instead of a sleeping one,
//! or the other way round (they share the condvar). That is safe because
//! a fill wait is bounded: the worker takes what is queued when its wait
//! runs out, and chains a notify if it leaves jobs behind.
//!
//! `safeloc_analysis::models::BatchQueue` checks this push / wait / fill
//! / drain / chain / close protocol under every interleaving: every job
//! delivered once, no worker left asleep beside a queued job, every
//! worker out after close.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    jobs: VecDeque<T>,
    open: bool,
    /// Queue length a fill-waiting worker wants to be woken at; 0 when
    /// nobody waits for a fill.
    fill_target: usize,
}

/// A closable multi-producer multi-consumer FIFO whose consumers take
/// batches.
pub(crate) struct BatchQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Longest a short batch waits to fill.
    fill_wait: Duration,
}

impl<T> BatchQueue<T> {
    pub(crate) fn new(fill_wait: Duration) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                open: true,
                fill_target: 0,
            }),
            ready: Condvar::new(),
            fill_wait,
        }
    }

    /// Poison recovery: every critical section below leaves `jobs` and
    /// `open` valid at each step (whole-element push/pop, one flag), so a
    /// peer that panicked under the lock cannot have torn the queue.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `job`, or hands it back if the queue was closed.
    pub(crate) fn push(&self, job: T) -> Result<(), T> {
        let mut state = self.lock();
        if !state.open {
            return Err(job);
        }
        // A non-empty queue already has a worker on its way to it; one
        // that waits for a fill wants to hear when the fill is there.
        let was_empty = state.jobs.is_empty();
        state.jobs.push_back(job);
        let wake = was_empty || state.jobs.len() == state.fill_target;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks while the queue is empty and open — and, for at most
    /// `fill_wait`, while it holds fewer than `max` jobs — then moves the
    /// oldest `min(len, max)` jobs into `batch` (FIFO order) and returns
    /// the backlog left behind. Returns `None` once the queue is closed
    /// and drained.
    pub(crate) fn next_batch(&self, max: usize, batch: &mut Vec<T>) -> Option<usize> {
        let max = max.max(1);
        let mut state = self.lock();
        loop {
            let len = state.jobs.len();
            let short = len < max && state.open && !self.fill_wait.is_zero();
            if len > 0 && !short {
                break;
            }
            if len == 0 && !state.open {
                return None;
            }
            if len == 0 || state.fill_target != 0 {
                // Nothing queued, or a peer is already waiting for this
                // short batch to fill and will take it: sleep until told.
                state = self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            state = self.wait_for_fill(state, max);
            // A peer may have taken everything meanwhile: back to sleep.
            if !state.jobs.is_empty() {
                break;
            }
        }
        let take = state.jobs.len().min(max);
        batch.extend(state.jobs.drain(..take));
        let left = state.jobs.len();
        drop(state);
        if left > 0 {
            self.ready.notify_one();
        }
        Some(left)
    }

    /// Waits until the queue holds `max` jobs, is closed, or `fill_wait`
    /// has passed, whichever is first. One worker at a time: `fill_target`
    /// is non-zero exactly while one is in here.
    fn wait_for_fill<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<T>>,
        max: usize,
    ) -> MutexGuard<'a, State<T>> {
        let deadline = Instant::now() + self.fill_wait;
        state.fill_target = max;
        while state.jobs.len() < max && state.open {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            state = self
                .ready
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        state.fill_target = 0;
        state
    }

    /// Refuses further pushes and wakes every waiting consumer; jobs
    /// already queued are still handed out.
    pub(crate) fn close(&self) {
        self.lock().open = false;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Long enough that a test relying on it running out would hang.
    const NEVER: Duration = Duration::from_secs(3600);

    #[test]
    fn backlog_drains_in_fifo_batches_of_at_most_max() {
        let queue = BatchQueue::new(Duration::ZERO);
        for job in 0..70u32 {
            queue.push(job).unwrap();
        }
        let mut batch = Vec::new();
        let mut drained = Vec::new();
        for (len, backlog) in [(32, 38), (32, 6), (6, 0)] {
            assert_eq!(queue.next_batch(32, &mut batch), Some(backlog));
            assert_eq!(batch.len(), len);
            drained.append(&mut batch);
        }
        assert_eq!(drained, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn close_hands_out_the_remainder_then_reports_closed() {
        let queue = BatchQueue::new(Duration::ZERO);
        for job in 0..5u32 {
            queue.push(job).unwrap();
        }
        queue.close();
        let mut batch = Vec::new();
        assert_eq!(queue.next_batch(3, &mut batch), Some(2));
        assert_eq!(queue.next_batch(3, &mut batch), Some(0));
        assert_eq!(batch, [0, 1, 2, 3, 4]);
        assert_eq!(queue.next_batch(3, &mut batch), None);
        assert_eq!(queue.next_batch(3, &mut batch), None, "closed stays closed");
    }

    #[test]
    fn push_after_close_returns_the_job() {
        let queue = BatchQueue::new(Duration::ZERO);
        queue.close();
        assert_eq!(queue.push(7u32), Err(7));
    }

    #[test]
    fn a_waiting_consumer_is_woken_by_push_and_by_close() {
        let queue = BatchQueue::new(Duration::ZERO);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut batch = Vec::new();
                let first = queue.next_batch(32, &mut batch);
                let second = queue.next_batch(32, &mut batch);
                (first, second, batch)
            });
            queue.push(1u32).unwrap();
            // The consumer either is already waiting again or will find
            // the queue closed: both end in `None`.
            queue.close();
            let (first, second, batch) = consumer.join().unwrap();
            assert_eq!((first, second), (Some(0), None));
            assert_eq!(batch, [1]);
        });
    }

    #[test]
    fn a_short_batch_is_released_by_the_push_that_fills_it() {
        let queue = BatchQueue::new(NEVER);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut batch = Vec::new();
                (queue.next_batch(4, &mut batch), batch)
            });
            // Whether the consumer is already waiting for the fill or
            // still on its way: it leaves with all four, and only the
            // fourth push can let it.
            for job in 0..4u32 {
                queue.push(job).unwrap();
            }
            assert_eq!(consumer.join().unwrap(), (Some(0), vec![0, 1, 2, 3]));
        });
    }

    #[test]
    fn a_short_batch_that_never_fills_leaves_when_the_wait_runs_out() {
        let wait = Duration::from_millis(5);
        let queue = BatchQueue::new(wait);
        for job in 0..3u32 {
            queue.push(job).unwrap();
        }
        let mut batch = Vec::new();
        let start = Instant::now();
        assert_eq!(queue.next_batch(32, &mut batch), Some(0));
        assert!(start.elapsed() >= wait, "{:?}", start.elapsed());
        assert_eq!(batch, [0, 1, 2]);
    }

    #[test]
    fn a_full_batch_does_not_wait() {
        let queue = BatchQueue::new(NEVER);
        for job in 0..5u32 {
            queue.push(job).unwrap();
        }
        let mut batch = Vec::new();
        assert_eq!(queue.next_batch(3, &mut batch), Some(2));
        assert_eq!(batch, [0, 1, 2]);
    }

    #[test]
    fn close_ends_a_fill_wait_and_the_short_batch_is_still_handed_out() {
        let queue = BatchQueue::new(NEVER);
        queue.push(9u32).unwrap();
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut batch = Vec::new();
                let first = queue.next_batch(4, &mut batch);
                (first, queue.next_batch(4, &mut batch), batch)
            });
            queue.close();
            assert_eq!(consumer.join().unwrap(), (Some(0), None, vec![9]));
        });
    }
}
