//! The serve queue: one mutex-guarded queue plus a condvar, drained in
//! batches that share a key (in the service, the pinned model snapshot).
//!
//! # What a drain takes
//!
//! Jobs sit in one FIFO per key, each job stamped with its arrival
//! number. A drain takes the **oldest** queued job plus up to `max − 1`
//! later jobs of the same key, in arrival order; every other job keeps
//! its place. Picking the key is a scan over the FIFOs' heads, so a
//! drain costs O(keys queued), not O(backlog), and a FIFO that empties
//! is put aside (its buffer kept for the next key), so a stream of new
//! keys does not grow the queue.
//!
//! Taking the oldest job first bounds overtaking: a job with `p` jobs
//! queued ahead of it leaves in one of the next `p + 1` drains, since
//! every drain takes the job at the head and so moves it up at least one
//! place. This replaces the old "at most `max − 1` rows of someone else's
//! pass" bound — a job now shares a pass only with its own key.
//!
//! A worker blocks while the queue is empty. Only a *short* queue (fewer
//! than `max` jobs in total, whatever their keys) at the start of a
//! backlog waits, for at most the queue's `fill_wait`, for later pushes
//! to fill it: one worker does the waiting (a peer that comes by
//! meanwhile goes to sleep — two waiting on the same batch would leave
//! the later one's wait running after the batch is gone, to cut short
//! the wait of whatever comes next), the push that fills the queue wakes
//! it early, and a `fill_wait` of zero never waits. Once a drain leaves
//! jobs behind, the queue is *backlogged* and nobody waits until a drain
//! empties it: the jobs behind have waited out a whole batch already, the
//! keys a drain passed over go out at once (as they did when one drain
//! took every key), and under load batches form from the backlog alone.
//! On `serve_surge` (one pinned core of a 2-core x86-64 guest) skipping
//! that wait reads ×1.07 `ops_per_s`, 4 of 4 pairs, against waiting for
//! every short queue. A lone request on an idle queue still waits, as
//! before. The queue's own length is the backlog, readable under the
//! same lock (`serve_queue_depth` records it when a batch is sealed).
//!
//! # Who wakes whom
//!
//! One wakeup per *backlog*, not per job. A push notifies when it makes
//! the queue non-empty — whoever is already awake for the earlier jobs
//! takes the later ones along — and when it brings the queue to the
//! length a fill-waiting worker asked for. A worker whose drain leaves
//! jobs behind (more than `max` of its key, or any job of another key)
//! notifies one more worker before it starts executing, so the remainder
//! does not wait for it while a peer sleeps. Waking a worker per push
//! instead costs a futile context switch per request under load (the
//! second worker finds the queue already drained): 4 % of `serve_surge`
//! throughput when measured.
//!
//! A notify may land on the fill-waiting worker instead of a sleeping one,
//! or the other way round (they share the condvar). That is safe because
//! a fill wait is bounded: the worker takes what is queued when its wait
//! runs out, and chains a notify if it leaves jobs behind.
//!
//! `safeloc_analysis::models::BatchQueue` checks this push / wait / fill
//! / keyed drain / chain / close protocol under every interleaving: every
//! job delivered once, the oldest queued job in every drain, no worker
//! left asleep beside a queued job, every worker out after close.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What the queue batches by: a drain only takes jobs that share the
/// oldest job's key.
pub(crate) trait Keyed {
    /// `true` if `self` and `other` may run in one batch.
    fn same_key(&self, other: &Self) -> bool;
}

/// One key's jobs in arrival order, each with its arrival number.
type Lane<T> = VecDeque<(u64, T)>;

struct State<T> {
    /// One FIFO per key with jobs queued, in no particular order; none is
    /// empty.
    lanes: Vec<Lane<T>>,
    /// Emptied FIFOs, kept so a new key reuses a buffer.
    spare: Vec<Lane<T>>,
    /// Jobs queued over all lanes.
    len: usize,
    /// Arrival number of the next push.
    next_seq: u64,
    /// The last drain left jobs behind: no fill wait until one empties
    /// the queue.
    backlogged: bool,
    open: bool,
    /// Queue length a fill-waiting worker wants to be woken at; 0 when
    /// nobody waits for a fill.
    fill_target: usize,
}

impl<T> State<T> {
    /// Index of the lane holding the oldest queued job.
    fn oldest_lane(&self) -> Option<usize> {
        let heads = self
            .lanes
            .iter()
            .map(|lane| lane.front().map_or(u64::MAX, |job| job.0));
        heads
            .enumerate()
            .min_by_key(|&(_, seq)| seq)
            .map(|(i, _)| i)
    }
}

/// A closable multi-producer multi-consumer queue whose consumers take
/// batches of one key.
pub(crate) struct BatchQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Longest a short batch waits to fill.
    fill_wait: Duration,
}

impl<T: Keyed> BatchQueue<T> {
    pub(crate) fn new(fill_wait: Duration) -> Self {
        Self {
            state: Mutex::new(State {
                lanes: Vec::new(),
                spare: Vec::new(),
                len: 0,
                next_seq: 0,
                backlogged: false,
                open: true,
                fill_target: 0,
            }),
            ready: Condvar::new(),
            fill_wait,
        }
    }

    /// Poison recovery: every critical section below leaves the lanes,
    /// `len` and `open` valid at each step (whole-element push/pop with
    /// the count beside it, one flag), so a peer that panicked under the
    /// lock cannot have torn the queue.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `job` behind the jobs of its key, or hands it back if the
    /// queue was closed.
    pub(crate) fn push(&self, job: T) -> Result<(), T> {
        let mut state = self.lock();
        if !state.open {
            return Err(job);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let keyed = state
            .lanes
            .iter()
            .position(|lane| lane.front().is_some_and(|head| head.1.same_key(&job)));
        let lane = match keyed {
            Some(i) => i,
            None => {
                let lane = state.spare.pop().unwrap_or_default();
                state.lanes.push(lane);
                state.lanes.len() - 1
            }
        };
        state.lanes[lane].push_back((seq, job));
        // A non-empty queue already has a worker on its way to it; one
        // that waits for a fill wants to hear when the fill is there.
        state.len += 1;
        let wake = state.len == 1 || state.len == state.fill_target;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks while the queue is empty and open — and, for at most
    /// `fill_wait`, while it holds fewer than `max` jobs and is not
    /// backlogged — then moves the oldest job and up to `max − 1` later
    /// jobs of its key into `batch` (arrival order) and returns the
    /// backlog left behind. Returns `None` once the queue is closed and
    /// drained.
    pub(crate) fn next_batch(&self, max: usize, batch: &mut Vec<T>) -> Option<usize> {
        let max = max.max(1);
        let mut state = self.lock();
        loop {
            let len = state.len;
            let short = len < max && state.open && !state.backlogged && !self.fill_wait.is_zero();
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
            if state.len > 0 {
                break;
            }
        }
        let left = Self::drain_oldest(&mut state, max, batch);
        drop(state);
        if left > 0 {
            self.ready.notify_one();
        }
        Some(left)
    }

    /// Moves the oldest job and up to `max − 1` later jobs of its key into
    /// `batch`; returns the jobs left queued.
    fn drain_oldest(state: &mut State<T>, max: usize, batch: &mut Vec<T>) -> usize {
        let Some(i) = state.oldest_lane() else {
            return state.len;
        };
        let lane = &mut state.lanes[i];
        let take = lane.len().min(max);
        batch.extend(lane.drain(..take).map(|(_, job)| job));
        if lane.is_empty() {
            let emptied = state.lanes.swap_remove(i);
            state.spare.push(emptied);
        }
        state.len -= take;
        state.backlogged = state.len > 0;
        state.len
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
        while state.len < max && state.open {
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
    use proptest::prelude::*;

    /// Long enough that a test relying on it running out would hang.
    const NEVER: Duration = Duration::from_secs(3600);

    /// Plain ids all share one key.
    impl Keyed for u32 {
        fn same_key(&self, _: &Self) -> bool {
            true
        }
    }

    /// `(key, id)`.
    impl Keyed for (u32, u32) {
        fn same_key(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    #[test]
    fn a_drain_takes_the_oldest_job_and_later_jobs_of_its_key_only() {
        let queue = BatchQueue::new(Duration::ZERO);
        let keys = [7, 8, 7, 9, 8, 7, 7, 9];
        for (id, &key) in keys.iter().enumerate() {
            queue.push((key, id as u32)).unwrap();
        }
        let mut batch = Vec::new();
        let mut drains = Vec::new();
        while let Some(left) = queue.next_batch(3, &mut batch) {
            let ids: Vec<u32> = batch.drain(..).map(|(_, id)| id).collect();
            drains.push((ids, left));
            if left == 0 {
                break;
            }
        }
        let expected = [
            (vec![0, 2, 5], 5),
            (vec![1, 4], 3),
            (vec![3, 7], 1),
            (vec![6], 0),
        ];
        assert_eq!(drains, expected);
    }

    #[test]
    fn an_emptied_key_is_put_aside_and_its_buffer_reused() {
        let queue = BatchQueue::new(Duration::ZERO);
        let mut batch = Vec::new();
        for key in 0..50u32 {
            queue.push((key, key)).unwrap();
            assert_eq!(queue.next_batch(4, &mut batch), Some(0));
            let state = queue.lock();
            assert_eq!((state.lanes.len(), state.spare.len()), (0, 1), "key {key}");
        }
        assert_eq!(batch.len(), 50);
    }

    #[test]
    fn jobs_a_drain_left_behind_do_not_wait_for_a_fill() {
        // Two keys, too few to fill a batch of 4: the first drain waits
        // out the whole fill wait and takes the first key only. The
        // queue is then backlogged, so the second key leaves at once.
        let wait = Duration::from_millis(200);
        let queue = BatchQueue::new(wait);
        queue.push((1, 0)).unwrap();
        queue.push((2, 1)).unwrap();
        let mut batch = Vec::new();
        let start = Instant::now();
        assert_eq!(queue.next_batch(4, &mut batch), Some(1));
        let first = start.elapsed();
        assert_eq!(queue.next_batch(4, &mut batch), Some(0));
        let second = start.elapsed() - first;
        assert!(first >= wait, "first drain after {first:?}");
        assert!(second < wait, "second drain waited {second:?}");
        assert_eq!(batch, [(1, 0), (2, 1)]);
    }

    #[test]
    fn a_drain_that_empties_the_queue_ends_the_backlog() {
        // Lone requests on an idle queue: each drain empties it, so the
        // next short batch waits for a fill again.
        let wait = Duration::from_millis(20);
        let queue = BatchQueue::new(wait);
        let mut batch = Vec::new();
        for job in 0..2u32 {
            queue.push(job).unwrap();
            let start = Instant::now();
            assert_eq!(queue.next_batch(4, &mut batch), Some(0));
            assert!(start.elapsed() >= wait, "job {job}: {:?}", start.elapsed());
        }
        assert_eq!(batch, [0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random pushes over three keys interleaved with drains of 1 to 3
        /// jobs, against a reference list of the queued jobs in arrival
        /// order: each batch is the oldest queued job plus the next
        /// jobs of its key, at most `max` (so the jobs left keep their
        /// order), a job with `p` jobs ahead of it leaves within `p + 1`
        /// drains, and every job comes out exactly once.
        #[test]
        fn drains_take_the_oldest_job_its_key_only_and_every_job_once(
            ops in prop::collection::vec(0u32..12, 80),
        ) {
            let queue = BatchQueue::new(Duration::ZERO);
            let mut queued: Vec<(u32, u32)> = Vec::new();
            // Latest drain each queued job must leave by, by id.
            let mut deadline = vec![usize::MAX; ops.len()];
            let mut delivered = vec![0u32; ops.len()];
            let mut drains = 0;
            let mut batch = Vec::new();
            let mut pushed = 0;
            let ends = ops.iter().map(|&op| op % 6).chain(std::iter::repeat_n(u32::MAX, ops.len()));
            for op in ends {
                if op < 3 {
                    queue.push((op, pushed)).unwrap();
                    queued.push((op, pushed));
                    pushed += 1;
                    continue;
                }
                if queued.is_empty() {
                    if op == u32::MAX {
                        break;
                    }
                    continue;
                }
                let max = if op == u32::MAX { 2 } else { op as usize - 2 };
                for (pos, &(_, id)) in queued.iter().enumerate() {
                    let due = &mut deadline[id as usize];
                    *due = (*due).min(drains + pos + 1);
                }
                let left = queue.next_batch(max, &mut batch);
                drains += 1;
                let key = queued[0].0;
                let expected: Vec<(u32, u32)> =
                    queued.iter().filter(|job| job.0 == key).take(max).copied().collect();
                queued.retain(|job| !expected.contains(job));
                prop_assert_eq!(&batch, &expected);
                prop_assert_eq!(left, Some(queued.len()));
                for (_, id) in batch.drain(..) {
                    delivered[id as usize] += 1;
                    prop_assert!(drains <= deadline[id as usize], "job {} overtaken", id);
                }
            }
            queue.close();
            prop_assert_eq!(queue.next_batch(4, &mut batch), None);
            prop_assert!(delivered[..pushed as usize].iter().all(|&n| n == 1));
        }
    }

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
