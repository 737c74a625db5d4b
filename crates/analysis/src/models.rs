//! Interleaving models of the workspace's hand-rolled concurrent
//! structures.
//!
//! Each model re-states one real structure's algorithm over the virtual
//! primitives in [`crate::interleave`], at one-atomic-action step
//! granularity, with its correctness claim as a machine-checked
//! invariant:
//!
//! | model | real structure | claim |
//! |---|---|---|
//! | [`RegistryInterning`] | `safeloc_telemetry::Registry::register` double-checked registration | racing registrants all get the *same* series; no duplicate entry |
//! | [`HistogramCasSum`] | `safeloc_telemetry::Histogram` f64-bits CAS sum | no lost update: final sum is the exact total, count matches |
//! | [`HotSwapMonotonic`] | `safeloc_serve::ModelRegistry` publish/resolve | readers never see torn (version, weights) pairs; per-key versions are monotone per reader |
//! | [`BatchQueue`] | `safeloc_serve`'s serve queue (`queue.rs`): mutex + condvar, drains keyed by snapshot, bounded fill wait skipped while a drain has left a backlog, close | every accepted job is delivered exactly once, every drain takes the oldest queued job, no job is queued beside a sleeping un-notified worker with nobody on the way, every worker terminates after close |
//!
//! Each model has a `*_buggy` variant with the guarding discipline
//! removed (no CAS, no recheck, no lock, no chained notify, a drain
//! that passes over the oldest job); `tests/interleave.rs` asserts
//! the checker *finds* those bugs — the checker is only trustworthy
//! because it demonstrably catches what it claims to catch.

use crate::interleave::{Model, Step, VMutex, VRwLock};

// ---------------------------------------------------------------------
// 1. Registry interning: double-checked register under an RwLock.
// ---------------------------------------------------------------------

/// N threads concurrently register the same `(name, labels)` key via
/// the read-check / write-lock / recheck / insert dance of
/// `Registry::register`.
#[derive(Debug, Clone)]
pub struct RegistryInterning {
    /// `true` removes the post-write-lock recheck (the bug the recheck
    /// exists to prevent: both racers insert).
    skip_recheck: bool,
    lock: VRwLock,
    /// Interned entries; correctness = it ends with exactly one.
    entries: Vec<u32>,
    /// Index each thread obtained.
    obtained: Vec<Option<usize>>,
    pc: Vec<u8>,
}

impl RegistryInterning {
    /// A correct model with `threads` registrants.
    pub fn new(threads: usize) -> Self {
        Self {
            skip_recheck: false,
            lock: VRwLock::default(),
            entries: Vec::new(),
            obtained: vec![None; threads],
            pc: vec![0; threads],
        }
    }

    /// The recheck-free buggy variant.
    pub fn buggy(threads: usize) -> Self {
        Self {
            skip_recheck: true,
            ..Self::new(threads)
        }
    }
}

impl Model for RegistryInterning {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn step(&mut self, tid: usize) -> Step {
        match self.pc[tid] {
            // Fast path: read-lock, check, unlock.
            0 => {
                if self.lock.try_read() {
                    self.pc[tid] = 1;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            1 => {
                // Lookup under the read lock.
                self.pc[tid] = if self.entries.is_empty() { 3 } else { 2 };
                if self.pc[tid] == 2 {
                    self.obtained[tid] = Some(0);
                }
                Step::Ran
            }
            2 => {
                self.lock.release_read();
                self.pc[tid] = 7;
                Step::Done
            }
            3 => {
                self.lock.release_read();
                self.pc[tid] = 4;
                Step::Ran
            }
            // Slow path: write-lock, recheck, insert.
            4 => {
                if self.lock.try_write(tid) {
                    self.pc[tid] = 5;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            5 => {
                if !self.skip_recheck && !self.entries.is_empty() {
                    self.obtained[tid] = Some(0); // lost the race: take theirs
                } else {
                    self.entries.push(42);
                    self.obtained[tid] = Some(self.entries.len() - 1);
                }
                self.pc[tid] = 6;
                Step::Ran
            }
            6 => {
                self.lock.release_write(tid);
                self.pc[tid] = 7;
                Step::Done
            }
            _ => Step::Done,
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.entries.len() > 1 {
            return Err(format!(
                "duplicate interning: {} entries for one key",
                self.entries.len()
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if self.entries.len() != 1 {
            return Err(format!(
                "expected 1 interned entry, got {}",
                self.entries.len()
            ));
        }
        for (tid, got) in self.obtained.iter().enumerate() {
            if *got != Some(0) {
                return Err(format!("thread {tid} obtained {got:?}, expected Some(0)"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 2. Histogram CAS sum: lock-free f64 accumulation.
// ---------------------------------------------------------------------

/// N adders fold distinct powers of two into one `f64`-bits word via
/// the `Histogram::add_to_sum` load/CAS-retry loop, then bump the
/// sample count. Powers of two make f64 addition exact in every order,
/// so any deviation from the total is a lost update, not rounding.
#[derive(Debug, Clone)]
pub struct HistogramCasSum {
    /// `true` replaces the CAS with a plain load/store (the lost-update
    /// bug the CAS loop exists to prevent).
    no_cas: bool,
    sum_bits: u64,
    count: u64,
    values: Vec<f64>,
    local: Vec<u64>,
    pc: Vec<u8>,
}

impl HistogramCasSum {
    /// A correct model adding `1.0, 2.0, 4.0, …` from `threads` threads.
    pub fn new(threads: usize) -> Self {
        Self {
            no_cas: false,
            sum_bits: 0f64.to_bits(),
            count: 0,
            values: (0..threads).map(|i| (1u64 << i) as f64).collect(),
            local: vec![0; threads],
            pc: vec![0; threads],
        }
    }

    /// The CAS-free buggy variant.
    pub fn buggy(threads: usize) -> Self {
        Self {
            no_cas: true,
            ..Self::new(threads)
        }
    }

    fn expected_sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

impl Model for HistogramCasSum {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn step(&mut self, tid: usize) -> Step {
        match self.pc[tid] {
            0 => {
                self.local[tid] = self.sum_bits; // atomic load
                self.pc[tid] = 1;
                Step::Ran
            }
            1 => {
                let next = (f64::from_bits(self.local[tid]) + self.values[tid]).to_bits();
                if self.no_cas {
                    self.sum_bits = next; // plain store: blind overwrite
                    self.pc[tid] = 2;
                } else if self.sum_bits == self.local[tid] {
                    self.sum_bits = next; // CAS success
                    self.pc[tid] = 2;
                } else {
                    self.local[tid] = self.sum_bits; // CAS failure observes
                }
                Step::Ran
            }
            2 => {
                self.count += 1; // fetch_add
                self.pc[tid] = 3;
                Step::Done
            }
            _ => Step::Done,
        }
    }

    fn check_final(&self) -> Result<(), String> {
        let sum = f64::from_bits(self.sum_bits);
        if sum != self.expected_sum() {
            return Err(format!(
                "lost update: sum {} != expected {}",
                sum,
                self.expected_sum()
            ));
        }
        if self.count != self.pc.len() as u64 {
            return Err(format!("count {} != {}", self.count, self.pc.len()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 3. Model-registry hot swap: torn reads + per-key version monotonicity.
// ---------------------------------------------------------------------

/// Weights are modeled as `version * 17`: a consistent snapshot always
/// satisfies `payload == version * 17`, so any torn (version, weights)
/// observation is immediately visible. Publishers bump under the write
/// lock exactly like `ModelRegistry::publish`; each reader asserts
/// consistency and that versions never run backwards for it.
#[derive(Debug, Clone)]
pub struct HotSwapMonotonic {
    /// `true` publishes without taking the write lock (the torn-read /
    /// monotonicity bug the lock prevents).
    no_lock: bool,
    lock: VRwLock,
    version: u64,
    payload: u64,
    publishes_per_writer: usize,
    reads_per_reader: usize,
    writers: usize,
    /// Reader-local: last version seen, staged (version, payload) read.
    last_seen: Vec<u64>,
    staged: Vec<(u64, u64)>,
    error: Option<String>,
    progress: Vec<usize>,
    pc: Vec<u8>,
}

impl HotSwapMonotonic {
    /// `writers` publishers × `publishes` each, `readers` × `reads` each.
    pub fn new(writers: usize, publishes: usize, readers: usize, reads: usize) -> Self {
        Self {
            no_lock: false,
            lock: VRwLock::default(),
            version: 0,
            payload: 0,
            publishes_per_writer: publishes,
            reads_per_reader: reads,
            writers,
            last_seen: vec![0; readers],
            staged: vec![(0, 0); readers],
            error: None,
            progress: vec![0; writers + readers],
            pc: vec![0; writers + readers],
        }
    }

    /// The lockless buggy variant.
    pub fn buggy(writers: usize, publishes: usize, readers: usize, reads: usize) -> Self {
        Self {
            no_lock: true,
            ..Self::new(writers, publishes, readers, reads)
        }
    }
}

impl Model for HotSwapMonotonic {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn step(&mut self, tid: usize) -> Step {
        if tid < self.writers {
            // Publisher.
            if self.progress[tid] >= self.publishes_per_writer {
                return Step::Done;
            }
            match self.pc[tid] {
                0 => {
                    if self.no_lock || self.lock.try_write(tid) {
                        self.pc[tid] = 1;
                        Step::Ran
                    } else {
                        Step::Blocked
                    }
                }
                1 => {
                    self.version += 1; // version write
                    self.pc[tid] = 2;
                    Step::Ran
                }
                2 => {
                    self.payload = self.version * 17; // weights write
                    self.pc[tid] = 3;
                    Step::Ran
                }
                3 => {
                    if !self.no_lock {
                        self.lock.release_write(tid);
                    }
                    self.progress[tid] += 1;
                    self.pc[tid] = 0;
                    if self.progress[tid] >= self.publishes_per_writer {
                        Step::Done
                    } else {
                        Step::Ran
                    }
                }
                _ => Step::Done,
            }
        } else {
            // Reader.
            let r = tid - self.writers;
            if self.progress[tid] >= self.reads_per_reader {
                return Step::Done;
            }
            match self.pc[tid] {
                0 => {
                    if self.lock.try_read() {
                        self.pc[tid] = 1;
                        Step::Ran
                    } else {
                        Step::Blocked
                    }
                }
                1 => {
                    self.staged[r].0 = self.version; // version read
                    self.pc[tid] = 2;
                    Step::Ran
                }
                2 => {
                    self.staged[r].1 = self.payload; // weights read
                    self.pc[tid] = 3;
                    Step::Ran
                }
                3 => {
                    self.lock.release_read();
                    let (v, p) = self.staged[r];
                    if self.error.is_none() {
                        if p != v * 17 {
                            self.error = Some(format!("torn read: version {v} with weights {p}"));
                        } else if v < self.last_seen[r] {
                            self.error = Some(format!(
                                "version ran backwards: saw {v} after {}",
                                self.last_seen[r]
                            ));
                        }
                    }
                    self.last_seen[r] = v;
                    self.progress[tid] += 1;
                    self.pc[tid] = 0;
                    if self.progress[tid] >= self.reads_per_reader {
                        Step::Done
                    } else {
                        Step::Ran
                    }
                }
                _ => Step::Done,
            }
        }
    }

    fn check_step(&self) -> Result<(), String> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn check_final(&self) -> Result<(), String> {
        let expected = (self.writers * self.publishes_per_writer) as u64;
        if self.version != expected {
            return Err(format!(
                "final version {} != {} publishes",
                self.version, expected
            ));
        }
        if self.payload != self.version * 17 {
            return Err(format!(
                "final weights {} torn against version {}",
                self.payload, self.version
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 4. Serve batch queue: mutex + condvar, keyed drains, close.
// ---------------------------------------------------------------------

/// Producers `push`, workers loop on `next_batch` and then execute what
/// they took, one closer `close`s — the protocol of `safeloc_serve`'s
/// serve queue, with the closer free to run at any point (a shutdown
/// racing live submits).
///
/// Every job carries a key (the snapshot it pinned). A drain takes the
/// oldest queued job plus up to `max_batch − 1` later jobs of its key, in
/// arrival order; the queue is modeled as one list in arrival order,
/// which is what the real queue's per-key FIFOs and arrival stamps
/// present. The checked claim is that every drain takes the oldest
/// queued job, which is what bounds overtaking.
///
/// The condvar is a wait set: `wait` releases the mutex and joins the
/// set in one atomic step, and the waiter is runnable again only once a
/// notify has taken it out of the set *and* the mutex is free (it
/// re-acquires on the way out, as `Condvar::wait` does). `notify_one`
/// picks the lowest-index waiter — workers run identical code, so the
/// reachable states are closed under relabelling them and every choice
/// of waiter is explored in some relabelling. Spurious wakeups are not
/// modeled; the loop head re-checks the queue after every wakeup anyway.
///
/// The queue wakes one worker per backlog, not per job: a push notifies
/// only when it makes the queue non-empty (or fills the batch a worker
/// waits for), and a worker whose drain leaves jobs behind notifies one
/// more before it executes. The step invariant is what that discipline
/// must guarantee — no job sits queued while a worker sleeps un-notified
/// and nobody is on the way to the queue (`close` would eventually flush
/// such a job, so only a per-step check sees it).
///
/// A worker that finds a *short* batch (fewer than `max_batch` queued,
/// queue open, the last drain having emptied the queue) waits once,
/// bounded, for it to fill — unless a peer already does, in which case it
/// sleeps as beside an empty queue. While the last drain left jobs
/// behind, a short batch is drained without a wait. The
/// bounded wait is a `wait_timeout`: the worker sits in the same wait set
/// but is runnable whenever the mutex is free, because its time may run
/// out at any point. While it sits there it *absorbs* every notify that
/// picks it (the real worker may go back to waiting out its time after a
/// wakeup), which is the worst case for a peer sleeping beside it — and
/// harmless, since the fill-waiter itself is on the way to the queue.
///
/// Lock-protected work is one step with its release: nothing another
/// thread can observe happens between them.
#[derive(Debug, Clone)]
pub struct BatchQueue {
    /// `true` skips the notify after a drain that left jobs behind (the
    /// bug that chained wakeup prevents: the remainder waits out this
    /// worker's whole forward pass beside a sleeping peer).
    no_chain: bool,
    /// `true` drains the key with the most jobs queued instead of the
    /// oldest job's (the bug that overtakes the head: a rare snapshot's
    /// job waits out every batch of a busy one).
    most_common_key: bool,
    max_batch: usize,
    workers: usize,
    lock: VMutex,
    /// Queued `(id, key)`, oldest first.
    queue: Vec<(u32, u32)>,
    /// The last drain left jobs behind: no fill wait until one empties
    /// the queue.
    backlogged: bool,
    open: bool,
    /// Queue length a fill-waiting worker asked to be woken at (0: none).
    fill_target: usize,
    /// Condvar wait set, by worker.
    waiting: Vec<bool>,
    /// `(id, key)` of the jobs each producer pushes, in order; progress
    /// through them.
    plans: Vec<Vec<(u32, u32)>>,
    progress: Vec<usize>,
    /// Whether the push a producer just made found the queue empty or
    /// filled a waited-for batch (it notifies only then).
    notifies: Vec<bool>,
    delivered: Vec<u32>,
    rejected: Vec<u32>,
    /// First drain found passing over the oldest queued job.
    overtaken: Option<String>,
    pc: Vec<u8>,
}

/// Worker program counters past the shared `lock()` / under-the-lock pair.
const PARKED: u8 = 2;
const CHAIN_NOTIFY: u8 = 3;
const EXECUTING: u8 = 4;
const EXITED: u8 = 5;
/// In the bounded wait for a short batch to fill.
const FILLING: u8 = 6;
/// Out of that wait, holding the lock again.
const FILLED: u8 = 7;
/// Producer and closer: unlocked, about to notify.
const NOTIFY: u8 = 2;

impl BatchQueue {
    /// `workers` consumers taking at most `max_batch` jobs a drain, one
    /// producer per list of `(id, key)` jobs, one closer.
    pub fn new(workers: usize, max_batch: usize, producers: &[&[(u32, u32)]]) -> Self {
        Self {
            no_chain: false,
            most_common_key: false,
            max_batch,
            workers,
            lock: VMutex::default(),
            queue: Vec::new(),
            backlogged: false,
            open: true,
            fill_target: 0,
            waiting: vec![false; workers],
            plans: producers.iter().map(|ids| ids.to_vec()).collect(),
            progress: vec![0; producers.len()],
            notifies: vec![false; producers.len()],
            delivered: Vec::new(),
            rejected: Vec::new(),
            overtaken: None,
            pc: vec![0; workers + producers.len() + 1],
        }
    }

    /// The no-notify-after-a-partial-drain buggy variant.
    pub fn buggy(workers: usize, max_batch: usize, producers: &[&[(u32, u32)]]) -> Self {
        Self {
            no_chain: true,
            ..Self::new(workers, max_batch, producers)
        }
    }

    /// The buggy variant that drains the most common key, not the
    /// oldest job's.
    pub fn most_common_key_buggy(
        workers: usize,
        max_batch: usize,
        producers: &[&[(u32, u32)]],
    ) -> Self {
        Self {
            most_common_key: true,
            ..Self::new(workers, max_batch, producers)
        }
    }

    /// The key a drain takes: the oldest job's, or in the buggy variant
    /// the one with the most jobs queued (ties to the older job).
    fn drain_key(&self) -> u32 {
        let oldest = self.queue[0].1;
        if !self.most_common_key {
            return oldest;
        }
        let count = |key: u32| self.queue.iter().filter(|job| job.1 == key).count();
        self.queue
            .iter()
            .map(|job| job.1)
            .fold(
                oldest,
                |best, key| if count(key) > count(best) { key } else { best },
            )
    }

    /// Moves the drain key's first `max_batch` jobs into `delivered`,
    /// noting a drain that passes over the oldest job; returns whether
    /// jobs are left queued.
    fn drain(&mut self) -> bool {
        let key = self.drain_key();
        let oldest = self.queue[0].0;
        let mut taken = Vec::new();
        self.queue.retain(|&(id, k)| {
            let take = k == key && taken.len() < self.max_batch;
            if take {
                taken.push(id);
            }
            !take
        });
        if !taken.contains(&oldest) && self.overtaken.is_none() {
            self.overtaken = Some(format!(
                "drain {taken:?} overtook job {oldest}, the oldest queued"
            ));
        }
        self.delivered.extend(taken);
        self.backlogged = !self.queue.is_empty();
        self.backlogged
    }

    /// Every thread's step 0 is `lock()`; its step 1 runs under the lock.
    fn lock_step(&mut self, tid: usize) -> Step {
        if self.lock.try_acquire(tid) {
            self.pc[tid] = 1;
            Step::Ran
        } else {
            Step::Blocked
        }
    }

    /// `notify_one`: takes the lowest-index waiter out of the wait set —
    /// unless that waiter is waiting for a fill, which absorbs the notify
    /// and stays (see the type docs).
    fn notify_one(&mut self) {
        if let Some(w) = self.waiting.iter().position(|&w| w) {
            self.waiting[w] = self.pc[w] == FILLING;
        }
    }

    /// The loop head, under the lock: wait for a short batch to fill
    /// (first pass only), drain, exit, or sleep.
    fn loop_head(&mut self, tid: usize, may_wait_for_fill: bool) -> Step {
        self.lock.release(tid);
        let short = self.queue.len() < self.max_batch && self.open && !self.backlogged;
        if !self.queue.is_empty() && short && self.fill_target != 0 {
            // A peer already waits for this batch to fill and will take
            // it: sleep like beside an empty queue.
            self.waiting[tid] = true; // atomically with the release
            self.pc[tid] = PARKED;
            Step::Ran
        } else if !self.queue.is_empty() && short && may_wait_for_fill {
            self.fill_target = self.max_batch;
            self.waiting[tid] = true; // atomically with the release
            self.pc[tid] = FILLING;
            Step::Ran
        } else if !self.queue.is_empty() {
            let chain = self.drain() && !self.no_chain;
            self.pc[tid] = if chain { CHAIN_NOTIFY } else { EXECUTING };
            Step::Ran
        } else if !self.open {
            self.pc[tid] = EXITED;
            Step::Done
        } else {
            self.waiting[tid] = true; // atomically with the release
            self.pc[tid] = PARKED;
            Step::Ran
        }
    }

    fn worker_step(&mut self, tid: usize) -> Step {
        match self.pc[tid] {
            0 => self.lock_step(tid),
            1 => self.loop_head(tid, true),
            // In `wait`: runnable once notified and the mutex is free to
            // re-acquire; then back to the loop head.
            PARKED => {
                if self.waiting[tid] || !self.lock.try_acquire(tid) {
                    return Step::Blocked;
                }
                self.pc[tid] = 1;
                Step::Ran
            }
            CHAIN_NOTIFY => {
                self.notify_one();
                self.pc[tid] = EXECUTING;
                Step::Ran
            }
            // In `wait_timeout`: notified, filled, closed or out of time —
            // runnable whenever the mutex is free.
            FILLING => {
                if !self.lock.try_acquire(tid) {
                    return Step::Blocked;
                }
                self.waiting[tid] = false;
                self.pc[tid] = FILLED;
                Step::Ran
            }
            // Takes what is there; a peer may have left nothing.
            FILLED => {
                self.fill_target = 0;
                self.loop_head(tid, false)
            }
            // The forward pass: long, and away from the queue.
            EXECUTING => {
                self.pc[tid] = 0;
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn producer_step(&mut self, tid: usize) -> Step {
        let p = tid - self.workers;
        if self.progress[p] >= self.plans[p].len() {
            return Step::Done;
        }
        match self.pc[tid] {
            0 => self.lock_step(tid),
            // Push (or get the job back from a closed queue), unlock.
            1 => {
                let (id, key) = self.plans[p][self.progress[p]];
                let filled = self.queue.len() + 1 == self.fill_target;
                self.notifies[p] = self.open && (self.queue.is_empty() || filled);
                if self.open {
                    self.queue.push((id, key));
                } else {
                    self.rejected.push(id);
                }
                self.lock.release(tid);
                self.pc[tid] = NOTIFY;
                Step::Ran
            }
            _ => {
                if self.notifies[p] {
                    self.notify_one();
                    self.notifies[p] = false;
                }
                self.progress[p] += 1;
                self.pc[tid] = 0;
                if self.progress[p] >= self.plans[p].len() {
                    Step::Done
                } else {
                    Step::Ran
                }
            }
        }
    }

    fn closer_step(&mut self, tid: usize) -> Step {
        match self.pc[tid] {
            0 => self.lock_step(tid),
            1 => {
                self.open = false;
                self.lock.release(tid);
                self.pc[tid] = NOTIFY;
                Step::Ran
            }
            // `notify_all`.
            NOTIFY => {
                self.waiting.fill(false);
                self.pc[tid] = NOTIFY + 1;
                Step::Done
            }
            _ => Step::Done,
        }
    }

    /// Someone will look at the queue without a further notify: a worker
    /// heading for the loop head (fresh, woken, about to chain, or in a
    /// fill wait that runs out by itself), or a notify that is decided
    /// but not yet issued.
    fn queued_ids(&self) -> Vec<u32> {
        self.queue.iter().map(|job| job.0).collect()
    }

    fn someone_is_on_the_way(&self) -> bool {
        let closer = self.pc.len() - 1;
        (0..self.workers).any(|w| match self.pc[w] {
            PARKED => !self.waiting[w],
            EXECUTING | EXITED => false,
            _ => true,
        }) || self.notifies.iter().any(|&n| n)
            || self.pc[closer] == NOTIFY
    }
}

impl Model for BatchQueue {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn step(&mut self, tid: usize) -> Step {
        if tid < self.workers {
            self.worker_step(tid)
        } else if tid + 1 < self.pc.len() {
            self.producer_step(tid)
        } else {
            self.closer_step(tid)
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if let Some(overtaken) = &self.overtaken {
            return Err(overtaken.clone());
        }
        let asleep = (0..self.workers).find(|&w| self.waiting[w] && self.pc[w] == PARKED);
        match asleep {
            Some(w) if !self.queue.is_empty() && !self.someone_is_on_the_way() => Err(format!(
                "jobs {:?} queued while worker {w} sleeps un-notified and nobody is on the way",
                self.queued_ids()
            )),
            _ => Ok(()),
        }
    }

    fn check_final(&self) -> Result<(), String> {
        // Every worker is done (a parked one would have been a deadlock),
        // so whatever was accepted must have been handed out.
        if !self.queue.is_empty() {
            return Err(format!(
                "jobs {:?} left queued after close",
                self.queued_ids()
            ));
        }
        let mut seen: Vec<u32> = self
            .delivered
            .iter()
            .chain(&self.rejected)
            .copied()
            .collect();
        seen.sort_unstable();
        let mut all: Vec<u32> = self.plans.iter().flatten().map(|job| job.0).collect();
        all.sort_unstable();
        if seen != all {
            return Err(format!(
                "delivered {:?} + rejected {:?} is not each of {all:?} exactly once",
                self.delivered, self.rejected
            ));
        }
        Ok(())
    }
}
