//! Fixed-capacity sample storage for one measured window.
//!
//! Everything here is allocated *and touched* before the window opens, so
//! the harness's own footprint is the same for a 2 s and a 60 s window and
//! `peak_rss_mib` reads the program, not the stopwatch:
//!
//! * latencies go into a uniform reservoir (exact below its capacity, an
//!   unbiased sample above it), each with the speed factor in force when
//!   it was taken;
//! * throughput and CPU cost come from *checkpoints* — `(ops, wall, cpu,
//!   reference readings so far)` taken every `stride` correct ops. When the
//!   checkpoint buffer fills, every other one is dropped and the stride
//!   doubles, so the buffer never grows. At the end the checkpoints are cut
//!   into ten consecutive equal-count slices and the **median slice** is
//!   reported: a neighbour's burst shorter than half the window lands in
//!   fewer than half the slices and cannot move the result;
//! * the reference kernel's readings (see [`crate::sys::ReferenceKernel`])
//!   normalize *locally*: a latency by the latest reading, a slice by the
//!   median of the readings that fell into it (a kernel run that starts on
//!   a cold cache after the process slept reads several times too slow; a
//!   mean would carry it). A window during which the
//!   machine changed gear is then corrected gear by gear, not by one factor
//!   that fits neither half.

use crate::sys::{median, process_cpu_ns, SplitMix};
use std::time::{Duration, Instant};

pub const RESERVOIR_CAP: usize = 32_768;
pub const CHECKPOINT_CAP: usize = 1_024;
/// Readings one window can hold: 20 a second for [`MAX_WINDOW_SECONDS`].
pub const REFERENCE_CAP: usize = 8_192;
/// Longest window the command line accepts, so the readings never run out.
pub const MAX_WINDOW_SECONDS: f64 = 400.0;
pub const SLICES: usize = 10;

/// The reference kernel runs between ops, at most this often: 1-2 ms of
/// every 50, so it costs the load thread 2-4 % and samples the machine's
/// speed 20 times a second.
const REFERENCE_PERIOD: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, Default)]
struct Checkpoint {
    ops: u64,
    wall_ns: u64,
    cpu_ns: u64,
    /// Reference readings taken so far.
    readings: usize,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    latencies_ns: Vec<u64>,
    /// Speed factor in force when the same slot's latency was taken.
    latency_factors: Vec<f32>,
    kept: usize,
    ok: u64,
    failed: u64,
    rng: SplitMix,
    checkpoints: Vec<Checkpoint>,
    stride: u64,
    /// The window's readings in arrival order.
    speed_factors: Vec<f64>,
    references: usize,
    latest_factor: f64,
    reference_due: Instant,
    /// Thread CPU time the reference kernel has taken since the window
    /// opened. It is taken off both clocks of every checkpoint: on the one
    /// pinned CPU the kernel's CPU time is exactly the time the workload
    /// could not run.
    paused_ns: u64,
}

/// The three timing metrics of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    pub op_p50_ms: f64,
    /// Median slice rate of correct ops.
    pub ops_per_s: f64,
    /// Median slice process CPU per correct op.
    pub cpu_ms_per_op: f64,
}

/// What one window measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Correct ops.
    pub ops: u64,
    /// Ops that errored, were refused or failed their check.
    pub failed: u64,
    /// As the clock read them.
    pub raw: Timings,
    /// On a machine that runs the reference kernel in its nominal time.
    pub normalized: Timings,
    /// Raw latency at [`Summary::tail_pct`].
    pub op_tail_ms: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_pct: f64,
    /// Median reference reading: above 1 the machine ran slower than the
    /// reference machine during this window.
    pub speed_factor: f64,
    /// First and last tenth of the readings: how far the machine drifted
    /// while the window was open.
    pub speed_first: f64,
    pub speed_last: f64,
}

/// A buffer of `cap` elements whose pages are resident: written element by
/// element, because a zeroed allocation is mapped lazily and would only
/// become resident as the window fills it.
fn touched<T>(cap: usize, fill: impl Fn(u64) -> T) -> Vec<T> {
    (0..cap as u64)
        .map(|i| fill(std::hint::black_box(i)))
        .collect()
}

/// Median of an already sorted sample (mean of the middle pair).
fn sorted_median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

impl Recorder {
    /// Allocates and touches every buffer; the clock starts at
    /// [`Recorder::start`].
    pub fn new() -> Self {
        let mut checkpoints = touched(CHECKPOINT_CAP, |i| Checkpoint {
            ops: i,
            ..Checkpoint::default()
        });
        checkpoints.clear();
        Self {
            epoch: Instant::now(),
            latencies_ns: touched(RESERVOIR_CAP, |i| i),
            latency_factors: touched(RESERVOIR_CAP, |i| i as f32),
            kept: 0,
            ok: 0,
            failed: 0,
            rng: SplitMix::new(0x5EED_0F5A_3B1E),
            checkpoints,
            stride: 1,
            speed_factors: touched(REFERENCE_CAP, |i| i as f64),
            references: 0,
            latest_factor: 1.0,
            reference_due: Instant::now(),
            paused_ns: 0,
        }
    }

    /// Opens the window with a reference reading taken just before it:
    /// checkpoint zero.
    pub fn start(&mut self, first_reading: f64) {
        self.kept = 0;
        self.ok = 0;
        self.failed = 0;
        self.stride = 1;
        self.references = 0;
        self.checkpoints.clear();
        self.add_reference(first_reading, 0);
        self.paused_ns = 0;
        self.epoch = Instant::now();
        self.reference_due = self.epoch + REFERENCE_PERIOD;
        self.checkpoints.push(Checkpoint {
            cpu_ns: process_cpu_ns(),
            ..Checkpoint::default()
        });
    }

    /// Records one op that finished at `now`. Returns `true` when a
    /// reference reading is due: the caller runs the kernel and hands the
    /// reading to [`Recorder::add_reference`].
    pub fn record(&mut self, latency_ns: u64, correct: bool, now: Instant) -> bool {
        let due = now >= self.reference_due;
        if due {
            self.reference_due = now + REFERENCE_PERIOD;
        }
        if !correct {
            self.failed += 1;
            return due;
        }
        self.ok += 1;
        let slot = if self.kept < RESERVOIR_CAP {
            self.kept += 1;
            self.kept - 1
        } else {
            // Algorithm R: keep the newcomer with probability cap / seen.
            (self.rng.next_u64() % self.ok) as usize
        };
        if slot < RESERVOIR_CAP {
            self.latencies_ns[slot] = latency_ns;
            self.latency_factors[slot] = self.latest_factor as f32;
        }
        if self.ok.is_multiple_of(self.stride) {
            self.checkpoints.push(Checkpoint {
                ops: self.ok,
                wall_ns: (now.saturating_duration_since(self.epoch).as_nanos() as u64)
                    .saturating_sub(self.paused_ns),
                cpu_ns: process_cpu_ns().saturating_sub(self.paused_ns),
                readings: self.references,
            });
            if self.checkpoints.len() == CHECKPOINT_CAP {
                let mut index = 0;
                self.checkpoints.retain(|_| {
                    index += 1;
                    (index - 1) % 2 == 0
                });
                self.stride *= 2;
            }
        }
        due
    }

    /// Takes one reference-kernel reading and the CPU time it cost. A
    /// window longer than [`MAX_WINDOW_SECONDS`] keeps normalizing
    /// latencies; its last slices reuse the last reading that fit.
    pub fn add_reference(&mut self, speed_factor: f64, kernel_cpu_ns: u64) {
        self.paused_ns += kernel_cpu_ns;
        self.latest_factor = speed_factor;
        if self.references < REFERENCE_CAP {
            self.speed_factors[self.references] = speed_factor;
            self.references += 1;
        }
    }

    pub fn summary(&self) -> Summary {
        let mut raw: Vec<f64> = self.latencies_ns[..self.kept]
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let mut normalized: Vec<f64> = raw
            .iter()
            .zip(&self.latency_factors)
            .map(|(ms, &factor)| ms / f64::from(factor))
            .collect();
        raw.sort_by(f64::total_cmp);
        normalized.sort_by(f64::total_cmp);
        let n = raw.len();
        let raw_p50 = sorted_median(&raw);
        let (op_tail_ms, tail_pct) = if n > 20 {
            (raw[n - 11], (n - 10) as f64 / n as f64 * 100.0)
        } else {
            (raw_p50, 50.0)
        };

        let intervals = self.checkpoints.len().saturating_sub(1);
        let per_slice = (intervals / SLICES).max(1);
        let slices = SLICES.min(intervals);
        let (mut rates, mut cpus) = (Vec::with_capacity(slices), Vec::with_capacity(slices));
        let (mut rates_n, mut cpus_n) = (Vec::with_capacity(slices), Vec::with_capacity(slices));
        for slice in 0..slices {
            let a = self.checkpoints[slice * per_slice];
            let b = self.checkpoints[(slice + 1) * per_slice];
            let ops = (b.ops - a.ops) as f64;
            let rate = ops / ((b.wall_ns - a.wall_ns).max(1) as f64 / 1e9);
            let cpu = (b.cpu_ns - a.cpu_ns) as f64 / 1e6 / ops;
            // The slice's own readings; a slice too short to hold one is
            // corrected by the reading in force when it ended.
            let own = &self.speed_factors[a.readings..b.readings];
            let factor = if own.is_empty() {
                self.speed_factors[b.readings - 1]
            } else {
                median(&mut own.to_vec())
            };
            rates.push(rate);
            cpus.push(cpu);
            rates_n.push(rate * factor);
            cpus_n.push(cpu / factor);
        }

        let readings = &self.speed_factors[..self.references];
        let factor = |r: &[f64]| median(&mut r.to_vec());
        let tenth = readings.len().div_ceil(10);
        Summary {
            ops: self.ok,
            failed: self.failed,
            raw: Timings {
                op_p50_ms: raw_p50,
                ops_per_s: median(&mut rates),
                cpu_ms_per_op: median(&mut cpus),
            },
            normalized: Timings {
                op_p50_ms: sorted_median(&normalized),
                ops_per_s: median(&mut rates_n),
                cpu_ms_per_op: median(&mut cpus_n),
            },
            op_tail_ms,
            tail_pct,
            speed_factor: factor(readings),
            speed_first: factor(&readings[..tenth]),
            speed_last: factor(&readings[readings.len() - tenth..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started() -> Recorder {
        let mut r = Recorder::new();
        r.start(1.0);
        r
    }

    #[test]
    fn checkpoint_buffer_never_grows_and_slices_stay_equal() {
        let mut r = started();
        for i in 0..(CHECKPOINT_CAP as u64 * 5 + 3) {
            r.record(1_000 + i, true, Instant::now());
            assert!(r.checkpoints.len() < CHECKPOINT_CAP);
        }
        assert_eq!(r.stride, 8);
        let gaps: Vec<u64> = r
            .checkpoints
            .windows(2)
            .map(|w| w[1].ops - w[0].ops)
            .collect();
        assert!(gaps.iter().all(|&g| g == r.stride), "{gaps:?}");
        let s = r.summary();
        assert_eq!(s.ops, CHECKPOINT_CAP as u64 * 5 + 3);
        assert!(s.raw.ops_per_s > 0.0 && s.raw.cpu_ms_per_op >= 0.0);
        assert_eq!(s.raw, s.normalized, "a factor of 1 changes nothing");
    }

    #[test]
    fn failed_ops_are_counted_and_excluded() {
        let mut r = started();
        for _ in 0..30 {
            r.record(2_000_000, true, Instant::now());
        }
        r.record(9_000_000_000, false, Instant::now());
        let s = r.summary();
        assert_eq!((s.ops, s.failed), (30, 1));
        assert_eq!(s.raw.op_p50_ms, 2.0);
        assert_eq!(s.op_tail_ms, 2.0);
        assert!((s.tail_pct - 100.0 * 20.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn reservoir_is_exact_below_capacity_and_bounded_above() {
        let mut r = started();
        let now = Instant::now();
        for i in 0..(RESERVOIR_CAP as u64 * 3) {
            r.record(i, true, now);
        }
        assert_eq!(r.kept, RESERVOIR_CAP);
        assert_eq!(r.latencies_ns.len(), RESERVOIR_CAP);
        assert_eq!(r.latency_factors.len(), RESERVOIR_CAP);
        let s = r.summary();
        let mid = RESERVOIR_CAP as f64 * 1.5 / 1e6;
        assert!(
            (s.raw.op_p50_ms - mid).abs() / mid < 0.05,
            "{}",
            s.raw.op_p50_ms
        );
    }

    #[test]
    fn a_burst_in_two_slices_does_not_move_the_median_rate() {
        // Hand-built checkpoints: 10 slices at 1000 ops/s, two of them
        // slowed fivefold. Every slice holds three readings, one of them a
        // cold-cache outlier that the slice's median ignores.
        let mut r = started();
        r.checkpoints.truncate(1);
        let mut wall = 0u64;
        for slice in 0..10u64 {
            wall += if slice == 3 || slice == 4 {
                5_000_000_000
            } else {
                1_000_000_000
            };
            for reading in [1.0, 9.0, 1.0] {
                r.add_reference(reading, 0);
            }
            r.checkpoints.push(Checkpoint {
                ops: (slice + 1) * 1000,
                wall_ns: wall,
                cpu_ns: wall,
                readings: r.references,
            });
        }
        let s = r.summary();
        assert_eq!(s.raw.ops_per_s, 1000.0);
        assert_eq!(s.raw.cpu_ms_per_op, 1.0);
        assert_eq!(s.raw, s.normalized);
    }

    #[test]
    fn a_machine_that_changes_gear_mid_window_is_corrected_gear_by_gear() {
        // Ten slices of 100 ops; the machine runs at half speed (factor 2)
        // for the first six: the raw rate halves there, the normalized rate
        // is the same in every slice.
        let mut r = Recorder::new();
        r.start(2.0);
        r.checkpoints.truncate(1);
        let mut wall = 0u64;
        for slice in 0..10u64 {
            let factor = if slice < 6 { 2.0 } else { 1.0 };
            wall += (1e9 * factor) as u64;
            r.add_reference(factor, 0);
            r.checkpoints.push(Checkpoint {
                ops: (slice + 1) * 100,
                wall_ns: wall,
                cpu_ns: wall,
                readings: r.references,
            });
        }
        let s = r.summary();
        assert_eq!(s.raw.ops_per_s, 50.0);
        assert_eq!(s.normalized.ops_per_s, 100.0);
        assert_eq!(s.normalized.cpu_ms_per_op, 10.0);
        // Latencies carry the factor in force when they were taken.
        let mut r = started();
        let now = Instant::now();
        r.add_reference(2.0, 0);
        for _ in 0..10 {
            r.record(4_000_000, true, now);
        }
        r.add_reference(1.0, 0);
        for _ in 0..10 {
            r.record(2_000_000, true, now);
        }
        let s = r.summary();
        assert_eq!(s.raw.op_p50_ms, 3.0);
        assert_eq!(s.normalized.op_p50_ms, 2.0);
    }

    #[test]
    fn reference_readings_are_due_once_per_period_and_give_the_speed_factor() {
        let mut r = started();
        let t0 = Instant::now();
        assert!(!r.record(1, true, t0));
        assert!(r.record(1, true, t0 + REFERENCE_PERIOD * 2));
        assert!(!r.record(1, true, t0 + REFERENCE_PERIOD * 2));
        r.references = 0;
        for factor in [2.0, 2.0, 2.0, 4.0] {
            r.add_reference(factor, 0);
        }
        let s = r.summary();
        assert_eq!(s.speed_factor, 2.0);
        assert_eq!((s.speed_first, s.speed_last), (2.0, 4.0));
    }

    #[test]
    fn the_reference_kernels_own_time_is_taken_off_both_clocks() {
        let mut r = started();
        let ms = Duration::from_millis;
        r.record(1, true, r.epoch + ms(10));
        r.add_reference(1.0, 4_000_000);
        r.record(1, true, r.epoch + ms(20));
        let wall: Vec<u64> = r.checkpoints.iter().map(|c| c.wall_ns).collect();
        assert_eq!(wall, [0, 10_000_000, 16_000_000]);
        assert!(r.checkpoints[2].cpu_ns + 4_000_000 >= r.checkpoints[1].cpu_ns);
    }

    #[test]
    fn readings_past_the_cap_are_used_and_not_stored() {
        let mut r = started();
        for i in 0..(REFERENCE_CAP + 10) {
            r.add_reference(i as f64, 0);
        }
        assert_eq!(r.speed_factors.len(), REFERENCE_CAP);
        assert_eq!(r.references, REFERENCE_CAP);
        assert_eq!(r.latest_factor, REFERENCE_CAP as f64 + 9.0);
    }
}
