//! A loom-lite bounded-interleaving checker.
//!
//! The telemetry and serving layers contain hand-rolled lock-free and
//! lock-light code (CAS loops, double-checked registration, hot-swapped
//! snapshots) whose correctness arguments live in comments and hammer
//! tests. Hammer tests explore whatever schedules the OS happens to
//! produce; this module explores *all of them*, deterministically, up to
//! a bound.
//!
//! # The model
//!
//! A [`Model`] is a set of virtual threads over shared state, where one
//! [`Model::step`] call performs exactly one atomic action (one atomic
//! load/store/CAS, or one lock acquire/release — the granularity at
//! which real schedulers can interleave). The explorer runs a
//! depth-first search over every choice of "which runnable thread steps
//! next", so under sequential consistency every interleaving of the
//! modeled operations is visited. Invariants are checked after every
//! step and at every terminal state; the first violation aborts the
//! search and reports the exact schedule (a thread-id sequence) that
//! produced it — a deterministic reproducer, which is the part hammer
//! tests can never give you.
//!
//! Blocking (a mutex held by someone else) is modeled by returning
//! [`Step::Blocked`]: the explorer undoes nothing (the step must not
//! mutate state when blocked) and simply does not schedule that thread
//! at this node. A state where no thread can run and not all threads are
//! done is reported as a deadlock.
//!
//! # Scope
//!
//! Sequential consistency only: relaxed-memory reorderings are out of
//! scope (the atomics under test are Relaxed counters whose *values*
//! are commutative, and lock-protected state where SC is what the lock
//! provides). What this catches is lost updates, torn multi-field
//! reads, duplicate/skipped work in double-checked paths, broken ring
//! index arithmetic and version-monotonicity violations — the bug
//! classes the modeled structures can actually have.

/// Result of one thread step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread performed one atomic action and can run again.
    Ran,
    /// The thread cannot act right now (lock held elsewhere). The call
    /// must not have mutated shared state.
    Blocked,
    /// The thread finished. Subsequent calls must keep returning `Done`.
    Done,
}

/// A concurrent structure modeled as explicit per-thread state machines.
pub trait Model: Clone {
    /// Number of virtual threads.
    fn threads(&self) -> usize;
    /// Performs thread `tid`'s next atomic action.
    fn step(&mut self, tid: usize) -> Step;
    /// Invariant checked after every step; return `Err` to report a
    /// violation mid-schedule (torn intermediate state).
    fn check_step(&self) -> Result<(), String> {
        Ok(())
    }
    /// Invariant checked when every thread is done.
    fn check_final(&self) -> Result<(), String>;
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Stop after visiting this many complete schedules.
    pub max_schedules: u64,
    /// Fail any single schedule longer than this many steps (livelock
    /// guard for buggy models).
    pub max_steps: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_schedules: 250_000,
            max_steps: 10_000,
        }
    }
}

/// A found violation, with its deterministic reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The thread-id sequence that produced the violation.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (schedule: {})",
            self.message,
            self.schedule
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("→")
        )
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct complete schedules visited.
    pub schedules: u64,
    /// `true` when the search space was exhausted within the limits.
    pub complete: bool,
    /// Longest schedule seen (in steps).
    pub max_depth: usize,
}

/// Explores every interleaving of `model` (up to `limits`).
///
/// # Errors
///
/// The first [`Violation`] found: a failed step/final invariant, a
/// deadlock, or a schedule exceeding `limits.max_steps`.
pub fn explore<M: Model>(model: &M, limits: Limits) -> Result<Exploration, Violation> {
    let mut stats = Exploration {
        schedules: 0,
        complete: true,
        max_depth: 0,
    };
    let done = vec![false; model.threads()];
    let mut path = Vec::new();
    dfs(model, &done, &mut path, &limits, &mut stats)?;
    Ok(stats)
}

fn dfs<M: Model>(
    model: &M,
    done: &[bool],
    path: &mut Vec<usize>,
    limits: &Limits,
    stats: &mut Exploration,
) -> Result<(), Violation> {
    if stats.schedules >= limits.max_schedules {
        stats.complete = false;
        return Ok(());
    }
    if done.iter().all(|&d| d) {
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(path.len());
        return model.check_final().map_err(|message| Violation {
            schedule: path.clone(),
            message: format!("final invariant violated: {message}"),
        });
    }
    if path.len() >= limits.max_steps {
        return Err(Violation {
            schedule: path.clone(),
            message: format!(
                "schedule exceeded {} steps without terminating (livelock?)",
                limits.max_steps
            ),
        });
    }
    let mut any_ran = false;
    for tid in 0..model.threads() {
        if done[tid] {
            continue;
        }
        let mut next = model.clone();
        let step = next.step(tid);
        if step == Step::Blocked {
            continue;
        }
        any_ran = true;
        path.push(tid);
        next.check_step().map_err(|message| Violation {
            schedule: path.clone(),
            message: format!("step invariant violated: {message}"),
        })?;
        let mut next_done = done.to_vec();
        if step == Step::Done {
            next_done[tid] = true;
        }
        dfs(&next, &next_done, path, limits, stats)?;
        path.pop();
    }
    if !any_ran {
        return Err(Violation {
            schedule: path.clone(),
            message: "deadlock: no runnable thread and not all threads done".to_string(),
        });
    }
    Ok(())
}

/// A virtual mutex: one holder, acquire blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VMutex {
    holder: Option<usize>,
}

impl VMutex {
    /// Tries to take the lock for `tid`; `false` means blocked.
    pub fn try_acquire(&mut self, tid: usize) -> bool {
        if self.holder.is_none() {
            self.holder = Some(tid);
            true
        } else {
            false
        }
    }

    /// Releases the lock (panics if `tid` is not the holder — a model
    /// bug, not a modeled-code bug).
    pub fn release(&mut self, tid: usize) {
        assert_eq!(self.holder, Some(tid), "released a lock it did not hold");
        self.holder = None;
    }
}

/// A virtual `RwLock`: many readers or one writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VRwLock {
    writer: Option<usize>,
    readers: u32,
}

impl VRwLock {
    /// Tries to take a read lock; `false` means a writer holds it.
    pub fn try_read(&mut self) -> bool {
        if self.writer.is_none() {
            self.readers += 1;
            true
        } else {
            false
        }
    }

    /// Releases a read lock.
    pub fn release_read(&mut self) {
        assert!(self.readers > 0, "released a read lock nobody held");
        self.readers -= 1;
    }

    /// Tries to take the write lock; `false` means readers or another
    /// writer hold it.
    pub fn try_write(&mut self, tid: usize) -> bool {
        if self.writer.is_none() && self.readers == 0 {
            self.writer = Some(tid);
            true
        } else {
            false
        }
    }

    /// Releases the write lock.
    pub fn release_write(&mut self, tid: usize) {
        assert_eq!(
            self.writer,
            Some(tid),
            "released a write lock it did not hold"
        );
        self.writer = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a counter twice through load+store
    /// *without* CAS — the textbook lost update. The checker must find
    /// it and produce a reproducer schedule.
    #[derive(Clone)]
    struct LostUpdate {
        value: u64,
        local: [u64; 2],
        pc: [u8; 2],
    }

    impl Model for LostUpdate {
        fn threads(&self) -> usize {
            2
        }
        fn step(&mut self, tid: usize) -> Step {
            match self.pc[tid] {
                0 => {
                    self.local[tid] = self.value;
                    self.pc[tid] = 1;
                    Step::Ran
                }
                1 => {
                    self.value = self.local[tid] + 1;
                    self.pc[tid] = 2;
                    Step::Done
                }
                _ => Step::Done,
            }
        }
        fn check_final(&self) -> Result<(), String> {
            if self.value == 2 {
                Ok(())
            } else {
                Err(format!("expected 2, got {} (lost update)", self.value))
            }
        }
    }

    #[test]
    fn lost_updates_are_found_with_a_reproducer() {
        let m = LostUpdate {
            value: 0,
            local: [0; 2],
            pc: [0; 2],
        };
        let v = explore(&m, Limits::default()).unwrap_err();
        assert!(v.message.contains("lost update"), "{v}");
        assert!(!v.schedule.is_empty());
    }

    /// The same counter with a modeled CAS retry loop is correct under
    /// every interleaving.
    #[derive(Clone)]
    struct CasCounter {
        value: u64,
        local: [u64; 2],
        pc: [u8; 2],
    }

    impl Model for CasCounter {
        fn threads(&self) -> usize {
            2
        }
        fn step(&mut self, tid: usize) -> Step {
            match self.pc[tid] {
                0 => {
                    self.local[tid] = self.value;
                    self.pc[tid] = 1;
                    Step::Ran
                }
                1 => {
                    if self.value == self.local[tid] {
                        self.value += 1;
                        self.pc[tid] = 2;
                        Step::Done
                    } else {
                        self.local[tid] = self.value; // CAS failure returns the observed value
                        Step::Ran
                    }
                }
                _ => Step::Done,
            }
        }
        fn check_final(&self) -> Result<(), String> {
            if self.value == 2 {
                Ok(())
            } else {
                Err(format!("expected 2, got {}", self.value))
            }
        }
    }

    #[test]
    fn cas_counter_is_clean_and_exploration_is_exhaustive() {
        let m = CasCounter {
            value: 0,
            local: [0; 2],
            pc: [0; 2],
        };
        let stats = explore(&m, Limits::default()).unwrap();
        assert!(stats.complete);
        assert!(stats.schedules >= 6, "got {}", stats.schedules);
    }

    /// Two threads acquiring two mutexes in opposite order: the explorer
    /// must report the deadlock schedule.
    #[derive(Clone, Default)]
    struct DeadlockModel {
        a: VMutex,
        b: VMutex,
        pc: [u8; 2],
    }

    impl Model for DeadlockModel {
        fn threads(&self) -> usize {
            2
        }
        fn step(&mut self, tid: usize) -> Step {
            let (first, second) = if tid == 0 {
                (&mut self.a, &mut self.b)
            } else {
                (&mut self.b, &mut self.a)
            };
            match self.pc[tid] {
                0 => {
                    if first.try_acquire(tid) {
                        self.pc[tid] = 1;
                        Step::Ran
                    } else {
                        Step::Blocked
                    }
                }
                1 => {
                    if second.try_acquire(tid) {
                        self.pc[tid] = 2;
                        Step::Ran
                    } else {
                        Step::Blocked
                    }
                }
                2 => {
                    let (f, s) = if tid == 0 {
                        (&mut self.a, &mut self.b)
                    } else {
                        (&mut self.b, &mut self.a)
                    };
                    s.release(tid);
                    f.release(tid);
                    self.pc[tid] = 3;
                    Step::Done
                }
                _ => Step::Done,
            }
        }
        fn check_final(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn lock_order_inversion_is_reported_as_deadlock() {
        let v = explore(&DeadlockModel::default(), Limits::default()).unwrap_err();
        assert!(v.message.contains("deadlock"), "{v}");
    }

    #[test]
    fn schedule_budget_marks_incomplete_exploration() {
        let m = CasCounter {
            value: 0,
            local: [0; 2],
            pc: [0; 2],
        };
        let stats = explore(
            &m,
            Limits {
                max_schedules: 2,
                max_steps: 100,
            },
        )
        .unwrap();
        assert_eq!(stats.schedules, 2);
        assert!(!stats.complete);
    }
}
