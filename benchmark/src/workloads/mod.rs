//! The four workloads and the contract they share with the harness.
//!
//! A workload is built by `setup` (timed as `setup_s`), then *driven* in
//! phases — warm-up, measured window, and in a traced run a traced window —
//! and finally asked for its quality numbers. The op index runs on across
//! phases, so "the first 2 000 requests" or "the GM after round 20" name
//! the same ops whatever `--seconds` is.

pub mod round_screen;
pub mod round_train;
pub mod serve;

use crate::recorder::Recorder;
use crate::sys::{ReferenceKernel, Scaling, SplitMix};
use crate::trace::Tracer;
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceProfile, FingerprintSet};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer readings by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Seed of everything that is *fixture* rather than *input*: the radio
/// map, the survey split and the pretrained models are the same for every
/// `--seed`, which only shapes request order, fleet devices, attacker ids
/// and client training streams.
pub const FIXTURE_SEED: u64 = 0x5AFE_10C0;

/// The paper building whose dimensions are the paper-sized network
/// 203 -> 128 -> 89 -> 62 -> 60.
pub const BUILDING_ID: usize = 1;

/// What `setup` needs to know about the run.
#[derive(Debug, Clone, Copy)]
pub struct SetupCfg {
    pub seed: u64,
    /// Shrinks pretraining, fleets and evaluation sets for tests.
    pub smoke: bool,
    /// Test hook: corrupts the committed expectation so the checks must
    /// fail.
    pub corrupt: bool,
}

/// One phase of driving: a budget, the recorder to report ops to, and in
/// the traced window the span buffer.
pub struct Phase<'a> {
    /// Stop once this instant has passed ...
    pub deadline: Instant,
    /// ... and the workload has completed this many ops since setup.
    pub min_total_ops: u64,
    pub recorder: &'a mut Recorder,
    pub reference: &'a mut ReferenceKernel,
    /// `Some` in the traced window.
    pub tracer: Option<Tracer>,
}

impl Phase<'_> {
    /// `true` while the budget is not spent, for a workload that has
    /// started `started_ops` ops since setup.
    pub fn open(&self, started_ops: u64) -> bool {
        Instant::now() < self.deadline || started_ops < self.min_total_ops
    }

    /// Records an op that started at `started` and has just finished, and
    /// runs the reference kernel when a reading is due — here, between two
    /// ops, so it never lands inside one.
    pub fn record(&mut self, started: Instant, correct: bool) {
        let now = Instant::now();
        let latency_ns = now.duration_since(started).as_nanos() as u64;
        if self.recorder.record(latency_ns, correct, now) {
            let (factor, cpu_ns) = self.reference.read();
            self.recorder.add_reference(factor, cpu_ns);
        }
    }
}

/// Output quality and correctness of one run.
#[derive(Debug)]
pub struct Quality {
    pub mean_error_m: f64,
    /// Named checks; any `false` makes the run incorrect.
    pub checks: Vec<(&'static str, bool)>,
}

pub trait Workload {
    /// How an op's time scales with the machine's speed, which decides
    /// what its timings are normalized by.
    fn scaling(&self) -> Scaling;

    /// Ops every run completes, so the fixed evaluation set exists even in
    /// a window too short to reach it.
    fn min_ops(&self) -> u64;

    /// Runs ops until the phase's budget is spent.
    fn drive(&mut self, phase: &mut Phase<'_>);

    /// Micro-probes of single public calls (traced run only, after the
    /// windows).
    fn probes(&mut self, layers: &mut Layers);

    /// Quality numbers and the layer readings only the workload can see.
    fn finish(&mut self, layers: &mut Layers) -> Quality;
}

/// Builds the named workload; `None` for an unknown name. Layer readings
/// taken during setup (dataset generation, pretraining, upload encoding)
/// land in `layers`.
pub fn setup(name: &str, cfg: &SetupCfg, layers: &mut Layers) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_tcp" => Box::new(serve::ServeTcp::setup(cfg, layers)),
        "serve_surge" => Box::new(serve::ServeSurge::setup(cfg, layers)),
        "round_train" => Box::new(round_train::RoundTrain::setup(cfg, layers)),
        "round_screen" => Box::new(round_screen::RoundScreen::setup(cfg, layers)),
        _ => return None,
    })
}

/// Generates the fixture dataset under `config`, timing it.
pub fn generate_dataset(config: &DatasetConfig, layers: &mut Layers) -> BuildingDataset {
    let start = Instant::now();
    let data = BuildingDataset::generate(Building::paper(BUILDING_ID), config, FIXTURE_SEED);
    layers.insert("dataset.generate_ms", start.elapsed().as_secs_f64() * 1e3);
    data
}

/// Layer widths of the paper-sized classifier for `data`'s building.
pub fn paper_dims(data: &BuildingDataset) -> [usize; 5] {
    [
        data.building.num_aps(),
        128,
        89,
        62,
        data.building.num_rps(),
    ]
}

/// Share of the visible APs a field fingerprint misses (reads the floor).
const FIELD_MISS: f64 = 0.3;
/// Standard deviation of the extra per-AP noise on the APs it does hear, dB.
const FIELD_SIGMA_DB: f32 = 6.0;

/// Field-condition copies of each held-out fingerprint in a run's
/// evaluation set.
pub fn field_variants(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// The held-out test splits of the six paper phones under *field
/// conditions*: `variants` copies of every fingerprint, each missing 30 %
/// of its visible APs and carrying 6 dB of extra noise on the rest.
///
/// The clean synthetic test split is too easy to carry a quality metric —
/// a trained model misses a handful of rows, so `mean_error_m` would sit
/// near 0 and jump by whole percents when a single row flips. Under field
/// conditions about four rows in ten are mislocated, and the metric has
/// mass. The impairment is fixture-seeded: the evaluation set is the same
/// for every `--seed`.
pub fn field_test_sets(data: &BuildingDataset, variants: usize) -> Vec<FingerprintSet> {
    let phones = DeviceProfile::paper_fleet().len();
    data.client_test
        .iter()
        .take(phones)
        .enumerate()
        .map(|(device, clean)| {
            let mut rng = SplitMix::new(FIXTURE_SEED ^ ((device as u64 + 1) << 48));
            let mut field = FingerprintSet::empty(clean.num_aps());
            for _ in 0..variants {
                let mut copy = clean.clone();
                for reading in copy.x.as_mut_slice() {
                    if *reading <= 0.0 {
                        continue; // already below the phone's sensitivity
                    }
                    if rng.unit() < FIELD_MISS {
                        *reading = 0.0;
                    } else {
                        // Sum of two uniforms: triangular, variance 1/6.
                        let noise = (rng.unit() + rng.unit() - 1.0) as f32 * 6.0f32.sqrt();
                        *reading = (*reading + noise * FIELD_SIGMA_DB / 100.0).clamp(0.0, 1.0);
                    }
                }
                field.extend(&copy);
            }
            field
        })
        .collect()
}

/// The paper's evaluation set under field conditions: every phone except
/// the training device, in one matrix.
pub fn held_out_phones(data: &BuildingDataset, variants: usize) -> FingerprintSet {
    let mut eval = FingerprintSet::empty(data.building.num_aps());
    for (device, set) in field_test_sets(data, variants).iter().enumerate() {
        if device != data.train_device {
            eval.extend(set);
        }
    }
    eval
}

/// Mean `Building::label_error_m` of `predicted` against `truth`, summed
/// in index order so the value is a pure function of the two sequences.
pub fn mean_error_m(building: &Building, predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len());
    let total: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(&p, &t)| f64::from(building.label_error_m(p, t)))
        .sum();
    total / predicted.len().max(1) as f64
}

/// CPUs the process may run on (1 once it is pinned).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
