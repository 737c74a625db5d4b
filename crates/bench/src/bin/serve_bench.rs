//! Closed-loop load harness for the online serving subsystem.
//!
//! Drives a synthetic client population against a live `safeloc-serve`
//! service in two phases:
//!
//! 1. **Steady state** — the registry holds a pretrained global model per
//!    building plus per-device HetNN variants (each fine-tuned briefly on
//!    that device's local split); a closed-loop population hammers the
//!    micro-batch scheduler and throughput + p50/p95/p99 latency are
//!    recorded.
//! 2. **Hot swap** — an `FlSession` runs concurrently on a background
//!    thread with a `RegistryPublisher` hook, hot-swapping the default
//!    model every round while the same population keeps querying; the
//!    spread of model versions observed across responses demonstrates the
//!    mid-traffic swap.
//!
//! With `--transport tcp` a third phase serves the same pool through the
//! `safeloc-wire` TCP front and records **honest end-to-end latency** —
//! injected link latency plus framing, the socket round trip and
//! micro-batched inference — under several fault-injection profiles
//! (raw loopback, LAN-like, WAN-like).
//!
//! Results are written to a standalone `SERVE_*.json` report and, when a
//! `BENCH_nn.json`-style perf report exists, merged into its `serving`
//! (and, with `--transport tcp`, `transport`) sections — validated with
//! the same rules as `perf_report --check`.
//!
//! Usage: `serve_bench [--quick|--full] [--seed N] [--transport tcp]
//! [--out PATH] [--bench PATH]`.

use safeloc_bench::perf::{PerfReport, ServingTiming, TelemetryOverhead, TransportTiming};
use safeloc_bench::{HarnessConfig, Scale};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{Client, DefensePipeline, FlSession, Framework, SequentialFlServer, ServerConfig};
use safeloc_nn::{Adam, TrainConfig};
use safeloc_serve::{
    request_pool, run_load, LoadPlan, ModelKey, ModelRegistry, RegistryPublisher, ServeConfig,
    Service, ServingStats,
};
use safeloc_wire::{run_tcp_load, FaultProfile, WireServer};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

struct Args {
    cfg: HarnessConfig,
    out: String,
    bench: String,
    bench_explicit: bool,
    transport_tcp: bool,
}

fn parse_args() -> Args {
    let mut cfg = HarnessConfig {
        scale: Scale::Default,
        seed: 42,
    };
    let mut out = "SERVE_nn.json".to_string();
    let mut bench = "BENCH_nn.json".to_string();
    let mut bench_explicit = false;
    let mut transport_tcp = false;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => cfg.scale = Scale::Quick,
            "--full" => cfg.scale = Scale::Full,
            "--seed" => {
                i += 1;
                cfg.seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed requires an integer"));
            }
            "--out" => {
                i += 1;
                out = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--out requires a path"));
            }
            "--bench" => {
                i += 1;
                bench = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--bench requires a path"));
                bench_explicit = true;
            }
            "--transport" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("tcp") => transport_tcp = true,
                    Some("inproc") => transport_tcp = false,
                    other => panic!("--transport expects tcp or inproc, got {other:?}"),
                }
            }
            other => panic!(
                "unknown argument {other:?} (expected --quick/--full/--seed N/--transport \
                 tcp|inproc/--out PATH/--bench PATH)"
            ),
        }
        i += 1;
    }
    Args {
        cfg,
        out,
        bench,
        bench_explicit,
        transport_tcp,
    }
}

/// The standalone serving report (`SERVE_nn.json` / `SERVE_ci.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServingReport {
    schema: String,
    quick: bool,
    seed: u64,
    scenarios: Vec<ServingTiming>,
    /// TCP-transport phase results; empty unless `--transport tcp` ran.
    #[serde(default = "Vec::new")]
    transport: Vec<TransportTiming>,
    /// Telemetry-recording overhead on the steady phase (phase 1b).
    #[serde(default = "no_overhead")]
    telemetry_overhead: Option<TelemetryOverhead>,
}

fn no_overhead() -> Option<TelemetryOverhead> {
    None
}

fn timing(scenario: &str, stats: &ServingStats) -> ServingTiming {
    ServingTiming {
        scenario: scenario.to_string(),
        population: stats.population,
        requests: stats.requests,
        failures: stats.failures,
        throughput_rps: stats.throughput_rps,
        p50_ms: stats.p50_ms,
        p95_ms: stats.p95_ms,
        p99_ms: stats.p99_ms,
        min_version: stats.min_version,
        max_version: stats.max_version,
    }
}

fn main() {
    let args = parse_args();
    let quick = args.cfg.scale == Scale::Quick;
    // Building 5 is the smallest paper building (90 RPs, 78 APs): load
    // numbers stay representative while pretraining stays cheap.
    let (population, requests_per_client, fl_rounds) = match args.cfg.scale {
        Scale::Quick => (4, 30, 3),
        Scale::Default => (8, 100, 4),
        Scale::Full => (16, 200, 6),
    };

    eprintln!("generating dataset (building 5, paper fleet)...");
    let data =
        BuildingDataset::generate(Building::paper(5), &DatasetConfig::paper(), args.cfg.seed);

    eprintln!("pretraining the global model...");
    let server_cfg = ServerConfig {
        local: safeloc_fl::LocalTrainConfig::paper(),
        ..args.cfg.server_config()
    };
    let mut server = SequentialFlServer::new(
        &[
            data.building.num_aps(),
            128,
            89,
            62,
            data.building.num_rps(),
        ],
        Box::new(DefensePipeline::fedavg()),
        server_cfg,
    );
    server.pretrain(&data.server_train);

    // Registry: building default + one HetNN variant per paper device,
    // each fine-tuned briefly on that device's local split.
    let registry = Arc::new(ModelRegistry::new());
    let default_key = ModelKey::default_for(data.building.id);
    registry.publish(
        default_key.clone(),
        server.global_model().clone(),
        Some(data.building.clone()),
    );
    eprintln!("fine-tuning {} device variants...", data.devices.len());
    for (device, local) in data.devices.iter().zip(&data.client_local) {
        let mut variant = server.global_model().clone();
        let mut opt = Adam::new(1e-4);
        variant.fit_classifier(
            &local.x,
            &local.labels,
            &mut opt,
            &TrainConfig::new(1, 16, args.cfg.seed),
        );
        registry.publish(
            ModelKey::new(data.building.id, &device.name),
            variant,
            Some(data.building.clone()),
        );
    }

    let serve_cfg = ServeConfig::default();
    let service = Arc::new(Service::start(
        Arc::clone(&registry),
        DeviceCatalog::new(data.devices.clone()),
        serve_cfg,
    ));
    let mut pool = request_pool(&data);
    // A quarter of the arrival mix comes from phones the catalog has never
    // seen: they route to the building-default model — the entry the FL
    // session hot-swaps — so phase 2's traffic demonstrably rides through
    // the swaps (known devices keep their pinned v1 variants).
    let unknown: Vec<_> = pool
        .iter()
        .step_by(3)
        .map(|r| {
            let mut r = r.clone();
            r.device = "Unregistered Phone".to_string();
            r
        })
        .collect();
    pool.extend(unknown);
    eprintln!(
        "request pool: {} fingerprints across {} devices (+ unregistered-device traffic)",
        pool.len(),
        data.devices.len()
    );

    // Phase 1: steady state.
    eprintln!("phase 1: steady-state load (population {population})...");
    let steady = run_load(
        &service,
        &pool,
        &LoadPlan::new(population, requests_per_client, args.cfg.seed),
    )
    .stats();
    eprintln!(
        "  {:.0} req/s, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        steady.throughput_rps, steady.p50_ms, steady.p95_ms, steady.p99_ms
    );

    // Phase 1b: telemetry-recording overhead on the very same steady
    // workload. The process-global kill switch flips between reps and the
    // modes are interleaved (on, off, on, off, ...) so machine drift hits
    // both equally; best-of-N per mode discards scheduler noise. The
    // perf-report validation gate holds the result at ≤ 2%.
    eprintln!("phase 1b: telemetry overhead A/B (recording on vs off, best of 3)...");
    let ab_plan = LoadPlan::new(population, requests_per_client, args.cfg.seed ^ 0xAB);
    let (mut best_on, mut best_off) = (f64::MIN, f64::MIN);
    for _ in 0..3 {
        for on in [true, false] {
            safeloc_telemetry::set_enabled(on);
            let rps = run_load(&service, &pool, &ab_plan).stats().throughput_rps;
            let best = if on { &mut best_on } else { &mut best_off };
            *best = best.max(rps);
        }
    }
    safeloc_telemetry::set_enabled(true);
    let telemetry_overhead = TelemetryOverhead {
        metric: "throughput_rps".to_string(),
        on_value: best_on,
        off_value: best_off,
        unit: "req/s".to_string(),
        // Noise can make the instrumented run faster; that is zero
        // overhead, not negative.
        overhead_pct: ((best_off - best_on) / best_off.max(1.0) * 100.0).max(0.0),
    };
    eprintln!(
        "  on {:.0} req/s / off {:.0} req/s -> {:.2}% overhead",
        telemetry_overhead.on_value, telemetry_overhead.off_value, telemetry_overhead.overhead_pct
    );

    // Phase 2: the same load while an FL session hot-swaps the default
    // model every round through the publisher hook. The load loops until
    // the session has published its last round, so the traffic always
    // rides through every swap regardless of relative speeds.
    eprintln!("phase 2: load under mid-traffic hot swaps ({fl_rounds} FL rounds)...");
    let publisher = RegistryPublisher::new(Arc::clone(&registry), default_key.clone());
    let mut session = FlSession::builder(Box::new(server))
        .clients(Client::from_dataset(&data, args.cfg.seed))
        .publisher(Box::new(publisher))
        .build();
    let training_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let swap = std::thread::scope(|scope| {
        let done = Arc::clone(&training_done);
        let trainer = scope.spawn(move || {
            session.run(fl_rounds);
            // relaxed: a completion flag checked by a polling loop; the
            // scope join below is the real synchronization point.
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let started = std::time::Instant::now();
        let mut outcomes = Vec::new();
        let mut wave = 0u64;
        loop {
            // relaxed: see the completion-flag store above.
            let finishing = training_done.load(std::sync::atomic::Ordering::Relaxed);
            outcomes.push(run_load(
                &service,
                &pool,
                &LoadPlan::new(
                    population,
                    requests_per_client,
                    args.cfg.seed ^ 0x5E ^ (wave << 8),
                ),
            ));
            wave += 1;
            if finishing {
                break; // one full wave ran after the last publish
            }
        }
        trainer.join().expect("FL session thread panicked");
        // Pool the waves into one outcome over the phase's wall clock.
        let mut combined = outcomes.remove(0);
        combined.wall_ns = started.elapsed().as_nanos() as u64;
        for outcome in outcomes {
            combined.latencies_ns.extend(outcome.latencies_ns);
            combined.responses.extend(outcome.responses);
            combined.failures += outcome.failures;
        }
        combined.stats()
    });
    let final_version = registry
        .get(&default_key)
        .expect("default model published")
        .version;
    eprintln!(
        "  {:.0} req/s, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms; default-model versions \
         observed {}..{} (registry now at v{final_version})",
        swap.throughput_rps,
        swap.p50_ms,
        swap.p95_ms,
        swap.p99_ms,
        swap.min_version,
        swap.max_version
    );
    // Phase 3 (opt-in): the same pool through the wire — honest
    // end-to-end latency under injected link-latency profiles.
    let mut transport = Vec::new();
    if args.transport_tcp {
        let profiles = [
            ("loopback", FaultProfile::ideal()),
            ("lan", FaultProfile::latency(5.0, 1.0, args.cfg.seed)),
            ("wan", FaultProfile::latency(40.0, 8.0, args.cfg.seed)),
        ];
        let wire = WireServer::serve(Arc::clone(&service)).expect("bind wire front");
        eprintln!("phase 3: TCP transport at {} ...", wire.addr());
        for (profile, fault) in &profiles {
            let stats = run_tcp_load(
                wire.addr(),
                &pool,
                &LoadPlan::new(population, requests_per_client, args.cfg.seed ^ 0x7C),
                fault,
            )
            .unwrap_or_else(|e| panic!("TCP load under profile {profile} failed: {e}"))
            .stats();
            eprintln!(
                "  {profile:<10} link {:>5.1}±{:<4.1} ms: {:.0} req/s, p50 {:.2} ms, \
                 p95 {:.2} ms, p99 {:.2} ms",
                fault.latency_ms_mean,
                fault.latency_ms_std,
                stats.throughput_rps,
                stats.p50_ms,
                stats.p95_ms,
                stats.p99_ms
            );
            transport.push(TransportTiming {
                profile: profile.to_string(),
                injected_latency_ms: fault.latency_ms_mean,
                injected_latency_std_ms: fault.latency_ms_std,
                population: stats.population,
                requests: stats.requests,
                failures: stats.failures,
                throughput_rps: stats.throughput_rps,
                p50_ms: stats.p50_ms,
                p95_ms: stats.p95_ms,
                p99_ms: stats.p99_ms,
            });
        }
    }
    service.shutdown();

    let label = |phase: &str| format!("{phase} p={population} b={}", serve_cfg.max_batch);
    let scenarios = vec![
        timing(&label("steady"), &steady),
        timing(&label("hot-swap"), &swap),
    ];

    let report = ServingReport {
        schema: "safeloc-bench/serving-report/v1".to_string(),
        quick,
        seed: args.cfg.seed,
        scenarios: scenarios.clone(),
        transport: transport.clone(),
        telemetry_overhead: Some(telemetry_overhead.clone()),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    eprintln!("wrote {}", args.out);

    // Gate the numbers on the same validation `perf_report --check`
    // applies, then fold them into the perf trajectory. Quick smoke runs
    // only validate: they must not overwrite the checked-in default-scale
    // serving trajectory unless `--bench` was passed explicitly.
    let bench_json = match std::fs::read_to_string(&args.bench) {
        Ok(json) => json,
        Err(_) => {
            eprintln!(
                "no {} to merge into (run perf_report first to track serving in the \
                 perf trajectory)",
                args.bench
            );
            return;
        }
    };
    let mut merge_target: PerfReport = serde_json::from_str(&bench_json)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", args.bench));
    merge_target.serving = scenarios;
    if args.transport_tcp {
        merge_target.transport = transport;
    }
    // The telemetry section is shared with `fleet_scale`: fill only the
    // serving slot, keeping whatever streaming-round entry already exists.
    let mut telemetry_section = merge_target.telemetry.take().unwrap_or_default();
    telemetry_section.serving = Some(telemetry_overhead);
    merge_target.telemetry = Some(telemetry_section);
    if let Err(problems) = merge_target.validate() {
        eprintln!("serving section FAILED validation: {problems}");
        std::process::exit(1);
    }
    if quick && !args.bench_explicit {
        eprintln!(
            "quick run: serving numbers validated but not merged into {} \
             (pass --bench to force)",
            args.bench
        );
        return;
    }
    let merged = serde_json::to_string_pretty(&merge_target).expect("report serializes");
    std::fs::write(&args.bench, merged)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.bench));
    eprintln!("merged serving section into {}", args.bench);
}
