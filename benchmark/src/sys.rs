//! Process-level readings the harness samples around the measured window:
//! CPU time, peak resident set, the one-CPU pin and the reference kernel
//! that tells how fast the machine is running right now.

use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids are
    // constants the kernel defines for every process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clock {clock_id} is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process (every thread), ns.
///
/// `/proc/self/stat` carries the same quantity in 10 ms ticks, too coarse
/// for a slice that lasts about a second; the clock behind it is read
/// directly instead.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Pins the process (and every thread it starts later) to the first CPU
/// it is allowed on; returns that CPU.
///
/// The benchmark's thread budget is one core. On a shared two-vCPU box two
/// busy threads land on sibling hyperthreads or on separate cores at the
/// host's whim, a x1.4 swing in every multi-threaded number that lasts for
/// minutes; one CPU takes the host's placement out of the measurement.
/// `available_parallelism` honours the pin, so the system's own thread
/// pools size themselves to it.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16]; // cpu_set_t: 1024 CPUs
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, &w)| w != 0)?;
    let bit = bits.trailing_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above, read-only this time.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// How a workload's time scales with the machine, which decides which of
/// its timings are speed-normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// An op mostly waits on a timer (the batch deadline): latency and
    /// throughput are reported as measured; CPU time per op is normalized.
    Timer,
    /// An op keeps the CPU busy: every timing is normalized.
    Compute,
}

/// The reference kernel: fixed, benchmark-owned work that touches no code
/// of the system under test, run between ops to read how fast the machine
/// is *right now*.
///
/// The box is a two-vCPU guest on a shared host. Its speed moves between
/// plateaus that last seconds to minutes (the same SAFELOC round reads 103,
/// 140, 165 or 205 ms depending on what the neighbours on the physical core
/// and in the shared cache are doing), so no statistic of raw times repeats
/// within a tenth from run to run. A reading over the kernel's nominal cost
/// is a *speed factor*; timings are divided by it and then read "on a
/// machine that runs the kernel in its nominal time".
///
/// Three phases, because the neighbours contend for three things and a
/// kernel that leans on one of them misses the other two (a scalar spin
/// barely notices a busy sibling hyperthread that halves a dense loop):
///
/// * *spin* - a serial integer/float dependency chain (core clock);
/// * *dense* - a 32x203 . 203x128 f32 product, L2-resident, FMA-throughput
///   bound (the execution ports a sibling hyperthread shares);
/// * *stream* - a sum over an 8 MB buffer, four times the private L2 (the
///   shared cache and memory path).
///
/// The factor is `sqrt(spin * dense * stream)` of the three relative
/// readings - exponent one half each. Fitted, not derived: on nine
/// two-minute traces of the three CPU-bound workloads each kernel alone
/// under-read the slowdown (the workloads lean on all three resources at
/// once, the kernels on one each), and this combination left the smallest
/// window-to-window spread on all of them (README, "Speed normalization").
/// Thread CPU time, not wall time: on one CPU the service's workers preempt
/// the kernel, and that wait is not machine speed.
#[derive(Debug)]
pub struct ReferenceKernel {
    dense_a: Vec<f32>,
    dense_b: Vec<f32>,
    dense_c: Vec<f32>,
    stream: Vec<f32>,
}

impl ReferenceKernel {
    const SPIN_ITERATIONS: u32 = 500_000;
    const DENSE: (usize, usize, usize) = (32, 203, 128);
    const DENSE_REPEATS: usize = 8;
    const STREAM_FLOATS: usize = 2 << 20;
    /// Thread CPU time of each phase on the reference machine (this box in
    /// its usual gear), ns.
    const SPIN_NOMINAL_NS: f64 = 1_050_000.0;
    const DENSE_NOMINAL_NS: f64 = 550_000.0;
    const STREAM_NOMINAL_NS: f64 = 830_000.0;

    pub fn new() -> Self {
        let (m, k, n) = Self::DENSE;
        Self {
            dense_a: (0..m * k).map(|i| (i % 17) as f32 * 0.01).collect(),
            dense_b: (0..k * n).map(|i| (i % 13) as f32 * 0.01).collect(),
            dense_c: vec![0.0; m * n],
            stream: (0..Self::STREAM_FLOATS).map(|i| i as f32).collect(),
        }
    }

    /// Thread CPU time of the whole kernel on the reference machine, ns.
    pub fn nominal_ns(&self) -> f64 {
        Self::SPIN_NOMINAL_NS + Self::DENSE_NOMINAL_NS + Self::STREAM_NOMINAL_NS
    }

    fn spin() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..Self::SPIN_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.mul_add(0.999_999, (x >> 40) as f64);
        }
        black_box(acc);
    }

    fn dense(&mut self) {
        let (m, k, n) = Self::DENSE;
        for _ in 0..Self::DENSE_REPEATS {
            for i in 0..m {
                let out = &mut self.dense_c[i * n..(i + 1) * n];
                for p in 0..k {
                    let a = self.dense_a[i * k + p];
                    let row = &self.dense_b[p * n..(p + 1) * n];
                    for (c, &b) in out.iter_mut().zip(row) {
                        *c = a.mul_add(b, *c);
                    }
                }
            }
            // Keeps the accumulators finite over a long run.
            for c in &mut self.dense_c {
                *c *= 1e-3;
            }
        }
        black_box(&self.dense_c);
    }

    fn stream(&self) {
        let mut lanes = [0.0f32; 8];
        for chunk in self.stream.chunks_exact(8) {
            for (lane, value) in lanes.iter_mut().zip(chunk) {
                *lane += value;
            }
        }
        black_box(lanes);
    }

    /// Runs the kernel; returns the speed factor it read (above 1: slower
    /// than the reference machine) and the thread CPU time it took, ns,
    /// which the recorder takes off the clocks: the stopwatch stops while
    /// the harness reads the machine.
    pub fn read(&mut self) -> (f64, u64) {
        let t0 = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
        Self::spin();
        let t1 = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
        self.dense();
        let t2 = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
        self.stream();
        let t3 = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
        let spin = (t1 - t0) as f64 / Self::SPIN_NOMINAL_NS;
        let dense = (t2 - t1) as f64 / Self::DENSE_NOMINAL_NS;
        let stream = (t3 - t2) as f64 / Self::STREAM_NOMINAL_NS;
        ((spin * dense * stream).sqrt(), t3 - t0)
    }

    /// The speed factor alone.
    pub fn speed_factor(&mut self) -> f64 {
        self.read().0
    }
}

/// Peak resident set size of the process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// SplitMix64: the benchmark's only random source, so every generated
/// input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// pool sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a sample (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let before = process_cpu_ns();
        let mut kernel = ReferenceKernel::new();
        let factor = kernel.speed_factor();
        assert!((0.05..20.0).contains(&factor), "{factor}");
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
