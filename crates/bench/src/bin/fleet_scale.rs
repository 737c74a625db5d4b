//! Fig. 7 successor: city-scale streaming rounds over synthetic fleets.
//!
//! Reads the `fleets`, `participation` and `deltas` axes of a suite
//! scenario spec (default `scenarios/fleet_scale.json`) and, for each
//! `(fleet size, delta repr)` cell, runs one [`FlSession`] round over a
//! [`SyntheticFleet`]: the provider *generates* each sampled
//! client on `materialize` and drops stateless ones on `reclaim`, so peak
//! memory is bounded by the cohort — never the fleet. Per cell the sweep
//! records wall time, peak RSS (Linux `VmHWM`, reset per cell via
//! `clear_refs` where the kernel allows it), bytes-on-wire for the cohort
//! under the cell's delta representation, and the dense baseline both for
//! wire bytes and for the resident size a materialized `Vec<Client>`
//! fleet would have held.
//!
//! The acceptance gate of the streaming claim runs here: for fleets of
//! ≥ 10 000 clients with a measured per-cell peak RSS, materializing the
//! fleet must cost at least 10× the streaming round's peak — otherwise
//! the binary exits nonzero.
//!
//! Results are written to a standalone `FLEET_*.json` report and, when a
//! `BENCH_nn.json`-style perf report exists, merged into its `fleet`
//! section — validated with the same rules as `perf_report --check`.
//!
//! Usage: `fleet_scale [--quick|--full] [--seed N] [--spec PATH]
//! [--out PATH] [--bench PATH]`.

use safeloc_bench::perf::{FleetTiming, PerfReport, TelemetryOverhead};
use safeloc_bench::{
    peak_rss_bytes, record_peak_rss_gauge, reset_peak_rss, Scale, ScenarioSpec, SyntheticFleet,
};
use safeloc_fl::{
    CohortSampler, DefensePipeline, DeltaRepr, DeltaSpec, FlSession, SequentialFlServer,
    ServerConfig,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Synthetic client geometry: ~128-AP fingerprints into ~32 RP classes,
/// 128 scans per phone — the shape of one paper building, scaled to keep
/// a 100k-fleet cell tractable while each client still holds enough data
/// that materializing a 10k fleet would dominate a process RSS.
const INPUT_DIM: usize = 128;
const HIDDEN: usize = 64;
const N_CLASSES: usize = 32;
const SAMPLES_PER_CLIENT: usize = 128;

/// Fleets at or past this size must demonstrate the streaming-headroom
/// ratio (materialized ≥ 10× streaming peak RSS).
const RSS_GATE_MIN_FLEET: usize = 10_000;
const RSS_GATE_RATIO: f64 = 10.0;

struct Args {
    scale: Scale,
    seed: u64,
    spec: String,
    out: String,
    bench: String,
    bench_explicit: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Default,
        seed: 42,
        spec: "scenarios/fleet_scale.json".to_string(),
        out: "FLEET_nn.json".to_string(),
        bench: "BENCH_nn.json".to_string(),
        bench_explicit: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--seed" => {
                i += 1;
                args.seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed requires an integer"));
            }
            "--spec" => {
                i += 1;
                args.spec = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--spec requires a path"));
            }
            "--out" => {
                i += 1;
                args.out = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--out requires a path"));
            }
            "--bench" => {
                i += 1;
                args.bench = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--bench requires a path"));
                args.bench_explicit = true;
            }
            other => panic!(
                "unknown argument {other:?} (expected --quick/--full/--seed N/--spec PATH/\
                 --out PATH/--bench PATH)"
            ),
        }
        i += 1;
    }
    args
}

/// The standalone fleet report (`FLEET_nn.json` / `FLEET_ci.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FleetReport {
    schema: String,
    quick: bool,
    seed: u64,
    cells: Vec<FleetTiming>,
    /// Telemetry-recording overhead on one streaming round.
    #[serde(default = "no_overhead")]
    telemetry_overhead: Option<TelemetryOverhead>,
}

fn no_overhead() -> Option<TelemetryOverhead> {
    None
}

/// Number of scalar parameters of the swept model (`in*h + h + h*out + out`).
fn model_params() -> usize {
    let dims = [INPUT_DIM, HIDDEN, N_CLASSES];
    dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
}

/// Bytes one client's update puts on the wire under `delta`, probed by
/// compressing a synthetic nonzero delta of the model's length with a
/// throwaway compressor — the encoded size depends only on the spec and
/// the parameter count, not on the values.
fn per_update_wire_bytes(delta: DeltaSpec, num_params: usize) -> u64 {
    match delta.compressor() {
        None => DeltaRepr::Dense.wire_bytes(num_params) as u64,
        Some(mut probe) => {
            let synthetic: Vec<f32> = (0..num_params)
                .map(|i| ((i % 7) as f32 - 3.0) * 1e-3)
                .collect();
            let (repr, _) = probe.compress(&synthetic);
            repr.wire_bytes(num_params) as u64
        }
    }
}

fn main() {
    let args = parse_args();
    let quick = args.scale == Scale::Quick;

    let json = std::fs::read_to_string(&args.spec)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", args.spec));
    let spec: ScenarioSpec =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", args.spec));

    let participation = spec
        .participation
        .first()
        .cloned()
        .unwrap_or_else(|| panic!("{} declares no participation axis", args.spec));
    let mut sizes: Vec<usize> = spec
        .fleets
        .iter()
        .map(|f| if f.total == 0 { 6 } else { f.total })
        .collect();
    if sizes.is_empty() {
        panic!("{} declares no fleet axis", args.spec);
    }
    // Quick smoke runs (CI's fleet-smoke job) keep the 1k point — large
    // enough to prove streaming, small enough for a gate job.
    if quick {
        sizes.retain(|&n| n <= 1000);
        if sizes.is_empty() {
            sizes.push(1000);
        }
    }
    let deltas: &[DeltaSpec] = &spec.deltas;
    let rounds = spec.rounds.max(1);
    let num_params = model_params();
    let dense_update_bytes = DeltaRepr::Dense.wire_bytes(num_params) as u64;

    eprintln!(
        "fleet sweep `{}`: sizes {sizes:?}, deltas {:?}, {rounds} round(s), model {num_params} \
         params ({dense_update_bytes} B dense/update)",
        spec.name,
        deltas.iter().map(DeltaSpec::label).collect::<Vec<_>>()
    );

    let mut cells: Vec<FleetTiming> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for &size in &sizes {
        let cohort = participation.cohort_size(size);
        for (di, &delta) in deltas.iter().enumerate() {
            let fleet_seed = args.seed ^ ((size as u64) << 8) ^ ((di as u64 + 1) << 4);
            let fleet = SyntheticFleet::new(
                size,
                INPUT_DIM,
                N_CLASSES,
                SAMPLES_PER_CLIENT,
                fleet_seed,
                delta,
            );
            let materialized_bytes = fleet.materialized_bytes();
            let server = SequentialFlServer::new(
                &[INPUT_DIM, HIDDEN, N_CLASSES],
                Box::new(DefensePipeline::fedavg()),
                ServerConfig::tiny(),
            );
            let mut session = FlSession::builder(Box::new(server))
                .fleet(Box::new(fleet))
                .sampler(CohortSampler::uniform(cohort, fleet_seed ^ 0xC0_4082))
                .build();

            // Reset the RSS high-water mark so the cell's peak is its own,
            // not a previous (possibly larger) cell's. Where the kernel
            // refuses `clear_refs` the peak is still recorded, but the
            // headroom gate is skipped rather than judged against a
            // stale mark.
            let rss_reset = reset_peak_rss();
            let started = Instant::now();
            let mut trained = 0usize;
            for _ in 0..rounds {
                let report = session.next_round();
                trained += report
                    .clients
                    .iter()
                    .filter(|c| matches!(c.outcome, safeloc_fl::ClientOutcome::Trained { .. }))
                    .count();
            }
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let peak = peak_rss_bytes();

            let per_update = per_update_wire_bytes(delta, num_params);
            let cell = FleetTiming {
                clients: size,
                cohort,
                delta: delta.label(),
                wall_ms,
                peak_rss_bytes: peak,
                materialized_bytes,
                wire_bytes: per_update * trained as u64,
                dense_wire_bytes: dense_update_bytes * trained as u64,
            };
            let rss_text = match peak {
                Some(bytes) => format!("{:.1} MiB peak RSS", bytes as f64 / (1024.0 * 1024.0)),
                None => "peak RSS n/a".to_string(),
            };
            eprintln!(
                "  {size:>6} clients × {:<10} cohort {cohort:>3}: {wall_ms:>8.1} ms, {rss_text}, \
                 {:.2} MiB on wire ({:.1}% of dense), fleet would be {:.1} MiB materialized",
                cell.delta,
                cell.wire_bytes as f64 / (1024.0 * 1024.0),
                100.0 * cell.wire_bytes as f64 / cell.dense_wire_bytes.max(1) as f64,
                materialized_bytes as f64 / (1024.0 * 1024.0),
            );

            if size >= RSS_GATE_MIN_FLEET {
                match (rss_reset, peak) {
                    (true, Some(bytes)) => {
                        let ratio = materialized_bytes as f64 / bytes.max(1) as f64;
                        if ratio < RSS_GATE_RATIO {
                            gate_failures.push(format!(
                                "{size} clients / {}: streaming peak {bytes} B is only {ratio:.1}× \
                                 below the {materialized_bytes} B materialized fleet \
                                 (need ≥ {RSS_GATE_RATIO}×)",
                                cell.delta
                            ));
                        } else {
                            eprintln!(
                                "    streaming headroom {ratio:.0}× (gate ≥ {RSS_GATE_RATIO}×)"
                            );
                        }
                    }
                    _ => eprintln!(
                        "    streaming-headroom gate skipped (peak RSS {})",
                        if rss_reset {
                            "unavailable"
                        } else {
                            "not resettable here"
                        }
                    ),
                }
            }
            cells.push(cell);
        }
    }

    // Publish the sweep's memory high-water mark into the telemetry
    // registry so a `telemetry_dump` snapshot of this process carries the
    // same number the report records per cell.
    record_peak_rss_gauge();

    // Telemetry overhead A/B: one streaming round on the smallest cell
    // with recording on vs off, modes interleaved, best (minimum wall
    // time) of 3 per mode. A fresh fleet + session per timed round keeps
    // every measurement a first round — no warm-cohort advantage for
    // either mode. The perf-report validation gate holds this at ≤ 2%.
    let ab_size = *sizes.iter().min().expect("fleet axis is non-empty");
    let ab_delta = deltas[0];
    let ab_cohort = participation.cohort_size(ab_size);
    eprintln!(
        "telemetry overhead A/B: 1 round, {ab_size} clients, cohort {ab_cohort}, {} \
         (recording on vs off, best of 3)...",
        ab_delta.label()
    );
    let time_round = || -> f64 {
        let fleet = SyntheticFleet::new(
            ab_size,
            INPUT_DIM,
            N_CLASSES,
            SAMPLES_PER_CLIENT,
            args.seed ^ 0xAB,
            ab_delta,
        );
        let server = SequentialFlServer::new(
            &[INPUT_DIM, HIDDEN, N_CLASSES],
            Box::new(DefensePipeline::fedavg()),
            ServerConfig::tiny(),
        );
        let mut session = FlSession::builder(Box::new(server))
            .fleet(Box::new(fleet))
            .sampler(CohortSampler::uniform(ab_cohort, args.seed ^ 0xC0_4082))
            .build();
        let started = Instant::now();
        session.next_round();
        started.elapsed().as_secs_f64() * 1e3
    };
    let (mut best_on, mut best_off) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        for on in [true, false] {
            safeloc_telemetry::set_enabled(on);
            let ms = time_round();
            let best = if on { &mut best_on } else { &mut best_off };
            *best = best.min(ms);
        }
    }
    safeloc_telemetry::set_enabled(true);
    let telemetry_overhead = TelemetryOverhead {
        metric: "round_wall_ms".to_string(),
        on_value: best_on,
        off_value: best_off,
        unit: "ms".to_string(),
        // Noise can make the instrumented round faster; that is zero
        // overhead, not negative.
        overhead_pct: ((best_on - best_off) / best_off.max(1e-9) * 100.0).max(0.0),
    };
    eprintln!(
        "  on {:.1} ms / off {:.1} ms -> {:.2}% overhead",
        telemetry_overhead.on_value, telemetry_overhead.off_value, telemetry_overhead.overhead_pct
    );

    let report = FleetReport {
        schema: "safeloc-bench/fleet-report/v1".to_string(),
        quick,
        seed: args.seed,
        cells: cells.clone(),
        telemetry_overhead: Some(telemetry_overhead.clone()),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    eprintln!("wrote {}", args.out);

    if !gate_failures.is_empty() {
        eprintln!("streaming-headroom gate FAILED:");
        for failure in &gate_failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }

    // Gate the numbers on the same validation `perf_report --check`
    // applies, then fold them into the perf trajectory. Quick smoke runs
    // only validate: they must not overwrite the checked-in default-scale
    // fleet trajectory unless `--bench` was passed explicitly.
    let bench_json = match std::fs::read_to_string(&args.bench) {
        Ok(json) => json,
        Err(_) => {
            eprintln!(
                "no {} to merge into (run perf_report first to track the fleet sweep in the \
                 perf trajectory)",
                args.bench
            );
            return;
        }
    };
    let mut merge_target: PerfReport = serde_json::from_str(&bench_json)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", args.bench));
    merge_target.fleet = cells;
    // The telemetry section is shared with `serve_bench`: fill only the
    // streaming-round slot, keeping whatever serving entry already exists.
    let mut telemetry_section = merge_target.telemetry.take().unwrap_or_default();
    telemetry_section.streaming_round = Some(telemetry_overhead);
    merge_target.telemetry = Some(telemetry_section);
    if let Err(problems) = merge_target.validate() {
        eprintln!("fleet section FAILED validation: {problems}");
        std::process::exit(1);
    }
    if quick && !args.bench_explicit {
        eprintln!(
            "quick run: fleet numbers validated but not merged into {} \
             (pass --bench to force)",
            args.bench
        );
        return;
    }
    let merged = serde_json::to_string_pretty(&merge_target).expect("report serializes");
    std::fs::write(&args.bench, merged)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.bench));
    eprintln!("merged fleet section into {}", args.bench);
}
