//! One run of one workload: pin, set up (several times, for a steady
//! `setup_s`), warm up, measure, check, print.

use crate::recorder::{Recorder, Summary};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys::{median, peak_rss_mib, pin_to_one_cpu, ReferenceKernel, Scaling};
use crate::trace::Tracer;
use crate::workloads::{setup, Layers, Phase, SetupCfg, Workload};
use crate::Args;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Spans the traced window may record.
const SPAN_CAPACITY: usize = 1 << 18;

/// Measured window of a hand-started run, seconds (the driver passes
/// `--seconds` itself).
const DEFAULT_SECONDS: f64 = 30.0;

/// Times a full run sets up; `setup_s` is the median, the last one is kept.
const SETUP_REPEATS: usize = 3;

fn warm_up(smoke: bool) -> Duration {
    Duration::from_secs_f64(if smoke { 0.2 } else { 2.0 })
}

/// Drives one phase; returns what it measured and, for a traced phase,
/// the filled span buffer.
fn window(
    workload: &mut dyn Workload,
    recorder: &mut Recorder,
    reference: &mut ReferenceKernel,
    length: Duration,
    min_total_ops: u64,
    tracer: Option<Tracer>,
) -> (Summary, Option<Tracer>) {
    recorder.start(reference.speed_factor());
    let mut phase = Phase {
        deadline: Instant::now() + length,
        min_total_ops,
        recorder,
        reference,
        tracer,
    };
    workload.drive(&mut phase);
    let tracer = phase.tracer.take();
    (recorder.summary(), tracer)
}

/// Fills the span-backed layer metrics: a metric `layer.thing_us` (or
/// `_ms`) reads the median duration of the span `layer.thing`, unless the
/// workload already supplied the value from a better source.
fn layers_from_spans(trace: &Tracer, layers: &mut Layers) {
    let medians = trace.median_durations();
    for metric in &PER_LAYER {
        let (span, per_ns) = match metric.name.rsplit_once('_') {
            Some((span, "us")) => (span, 1e3),
            Some((span, "ms")) => (span, 1e6),
            _ => continue,
        };
        if let Some(&ns) = medians.get(span) {
            layers.entry(metric.name).or_insert(ns / per_ns);
        }
    }
}

fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.trace.json"))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub fn run(name: &str, args: &Args) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!(
            "error: unknown workload {name}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    }
    if pin_to_one_cpu().is_none() {
        eprintln!("warning: could not pin to one CPU; multi-threaded numbers will swing");
    }
    let cfg = SetupCfg {
        seed: args.seed,
        smoke: args.smoke,
        corrupt: args.corrupt,
    };

    // Set-up, repeated: the first pass pays the process's page faults and
    // cold caches, so one reading swings by half; the median of three is
    // CPU-bound work. Each pass tears the previous fixture down first, so
    // peak memory is one fixture's. Each reading is divided by the speed
    // factor the reference kernel shows right before and after it.
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup_raw_s = Vec::with_capacity(repeats);
    let mut layers = Layers::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut reference = ReferenceKernel::new();
    for _ in 0..repeats {
        drop(workload.take());
        layers.clear();
        let before = reference.speed_factor();
        let start = Instant::now();
        workload = setup(name, &cfg, &mut layers);
        let raw = start.elapsed().as_secs_f64();
        let speed = (before + reference.speed_factor()) / 2.0;
        setup_raw_s.push(raw);
        setup_s.push(raw / speed);
    }
    let mut workload = workload.expect("known workload sets up");
    let setup_s = median(&mut setup_s);

    let scaling = workload.scaling();
    let mut recorder = Recorder::new();
    let mut measure = |workload: &mut dyn Workload, length, min_ops, tracer| {
        window(
            workload,
            &mut recorder,
            &mut reference,
            length,
            min_ops,
            tracer,
        )
    };
    measure(workload.as_mut(), warm_up(args.smoke), 3, None);

    // The measured window. A traced run splits it: the first half runs
    // bare and yields the end-to-end numbers, the second half records
    // spans, and the two medians give the tracing overhead.
    let min_ops = workload.min_ops();
    let seconds = args.window_seconds(DEFAULT_SECONDS);
    let length = Duration::from_secs_f64(if args.trace { seconds / 2.0 } else { seconds });
    let (bare, _) = measure(workload.as_mut(), length, min_ops, None);
    let traced = args.trace.then(|| {
        let tracer = Some(Tracer::new(SPAN_CAPACITY));
        let (summary, tracer) = measure(workload.as_mut(), length, min_ops, tracer);
        (
            summary,
            tracer.expect("a traced phase hands its buffer back"),
        )
    });
    let peak_rss = peak_rss_mib();

    let quality = workload.finish(&mut layers);
    let traced_ops = traced.as_ref().map_or((0, 0), |(t, _)| (t.ops, t.failed));
    let attempted = bare.ops + bare.failed + traced_ops.0 + traced_ops.1;
    let failed = bare.failed + traced_ops.1;
    for (check, passed) in &quality.checks {
        if !passed {
            eprintln!("check failed: {check}");
        }
    }
    let correct = failed == 0 && attempted > 0 && quality.checks.iter().all(|c| c.1);

    // Speed normalization: CPU time always scales with the machine's
    // speed; latency and throughput do unless the op waits on a timer.
    let wall = |summary: &Summary| match scaling {
        Scaling::Timer => summary.raw,
        Scaling::Compute => summary.normalized,
    };
    let end_to_end = [
        setup_s,
        wall(&bare).op_p50_ms,
        wall(&bare).ops_per_s,
        bare.normalized.cpu_ms_per_op,
        peak_rss,
        quality.mean_error_m,
    ];
    let end_to_end: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();

    layers.insert("driver.cpus", crate::workloads::nproc() as f64);
    layers.insert("driver.speed_factor", bare.speed_factor);
    layers.insert(
        "driver.calib_ms",
        bare.speed_factor * reference.nominal_ns() / 1e6,
    );
    layers.insert(
        "driver.calib_drift_pct",
        (bare.speed_last / bare.speed_first - 1.0) * 100.0,
    );
    layers.insert("driver.setup_raw_s", median(&mut setup_raw_s));
    layers.insert("driver.op_p50_raw_ms", bare.raw.op_p50_ms);
    layers.insert("driver.ops_per_s_raw", bare.raw.ops_per_s);
    layers.insert("driver.cpu_ms_per_op_raw", bare.raw.cpu_ms_per_op);
    layers.insert("driver.op_tail_ms", bare.op_tail_ms);
    layers.insert("driver.op_tail_pct", bare.tail_pct);
    layers.insert("driver.ops_measured", attempted as f64);
    if let Some((traced, trace)) = traced {
        workload.probes(&mut layers);
        layers_from_spans(&trace, &mut layers);
        // Each half is normalized by its own readings, so a machine that
        // drifted between the halves is not billed to the tracer.
        layers.insert(
            "driver.trace_overhead_pct",
            (wall(&traced).op_p50_ms / wall(&bare).op_p50_ms - 1.0) * 100.0,
        );
        layers.insert("driver.self_time_residual_pct", trace.root_residual_pct());
        layers.insert("driver.spans_recorded", trace.recorded() as f64);
        layers.insert("driver.spans_dropped", trace.dropped() as f64);
        let path = trace_path(name, args.seed);
        let written = std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| std::fs::write(&path, trace.chrome_json()));
        match written {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }
    // Stop the workload's threads and wait for them before the result line.
    drop(workload);

    // A layer this workload never calls reads 0: the prediction "must not
    // move" made checkable.
    let per_layer: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|m| {
            let value = layers.get(m.name).copied().unwrap_or(0.0);
            (m.name, if value.is_finite() { value } else { 0.0 }, m.unit)
        })
        .collect();

    for (metric, value, unit) in &end_to_end {
        println!("# {metric} {value} {unit}");
    }
    // Untraced runs still print the machine sentinels the A/A gate reads,
    // and the timings as the clock read them.
    let printed_layers = per_layer.iter().filter(|(m, _, _)| {
        args.trace
            || m.starts_with("driver.calib")
            || *m == "driver.speed_factor"
            || m.contains("_raw")
    });
    for (metric, value, unit) in printed_layers {
        println!("# {metric} {value} {unit}");
    }
    let reported = if args.trace { &per_layer } else { &end_to_end };
    println!("{}", json_line(correct, attempted, failed, reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
