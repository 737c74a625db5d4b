//! Exports (or checks) a full telemetry dump: metric snapshot,
//! Prometheus text and chrome-trace JSON in one `TELEM_*.json` file.
//!
//! Two modes:
//!
//! * **Dump** (default): drives a small deterministic serving workload so
//!   the global registry holds real serve-side series, records the
//!   process peak-RSS gauge, then writes the [`TelemetryDump`] of the
//!   global registry plus the flight recorder.
//! * **Check** (`--check [PATH]`): reads an existing dump — typically the
//!   `TELEM_ci.json` that `examples/observability.rs` writes — and
//!   cross-validates its three views ([`TelemetryDump::validate`]):
//!   snapshot structure, Prometheus text parse-back, chrome-trace event
//!   JSON. Exits nonzero on any problem; CI's `telemetry-smoke` job runs
//!   this as its gate.
//!
//! Usage: `telemetry_dump [--out PATH]` or `telemetry_dump --check [PATH]`.

use safeloc_bench::{record_peak_rss_gauge, TelemetryDump};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{DefensePipeline, Framework, SequentialFlServer, ServerConfig};
use safeloc_serve::{
    request_pool, run_load, LoadPlan, ModelKey, ModelRegistry, ServeConfig, Service,
};
use std::sync::Arc;

fn check(path: &str) -> ! {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path}: {e} (run the dump mode or the \
             observability example first)"
        )
    });
    let dump: TelemetryDump =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"));
    let problems = dump.validate();
    if problems.is_empty() {
        eprintln!(
            "telemetry dump check: {path} ok ({} series, {} B of prometheus text, {} B of \
             chrome trace)",
            dump.snapshot.len(),
            dump.prometheus.len(),
            dump.chrome_trace.len()
        );
        std::process::exit(0);
    }
    eprintln!("telemetry dump check FAILED for {path}:");
    for problem in &problems {
        eprintln!("  {problem}");
    }
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut out = "TELEM_nn.json".to_string();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" => {
                let path = argv.get(i + 1).cloned().unwrap_or_else(|| out.clone());
                check(&path);
            }
            "--out" => {
                i += 1;
                out = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| panic!("--out requires a path"));
            }
            other => panic!("unknown argument {other:?} (expected --check [PATH]/--out PATH)"),
        }
        i += 1;
    }

    // A short real workload so the dump carries live serve-side series,
    // not a synthetic registry: pretrain on the tiny building, serve a
    // closed-loop burst, then freeze.
    let recorder = safeloc_telemetry::flight_recorder();
    let workload = recorder.span("telemetry_dump_workload", "bench");
    let data = BuildingDataset::generate(Building::tiny(7), &DatasetConfig::tiny(), 7);
    let mut server = SequentialFlServer::new(
        &[data.building.num_aps(), 24, data.building.num_rps()],
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
    );
    {
        let _pretrain = recorder.span("pretrain", "bench");
        server.pretrain(&data.server_train);
    }
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(
        ModelKey::default_for(data.building.id),
        server.global_model().clone(),
        Some(data.building.clone()),
    );
    let service = Service::start(
        Arc::clone(&registry),
        DeviceCatalog::new(data.devices.clone()),
        ServeConfig {
            max_batch: 16,
            workers: 2,
        },
    );
    let pool = request_pool(&data);
    let stats = {
        let _load = recorder.span("closed_loop_load", "bench");
        run_load(&service, &pool, &LoadPlan::new(4, 50, 7)).stats()
    };
    service.shutdown();
    record_peak_rss_gauge();
    drop(workload);

    let dump = TelemetryDump::capture(&safeloc_telemetry::global());
    eprintln!(
        "workload: {} requests at {:.0} req/s; dump holds {} series and {} trace events",
        stats.requests,
        stats.throughput_rps,
        dump.snapshot.len(),
        recorder.recorded().min(recorder.capacity() as u64)
    );
    if let problems @ [_, ..] = dump.validate().as_slice() {
        eprintln!("freshly captured dump FAILED validation:");
        for problem in problems {
            eprintln!("  {problem}");
        }
        std::process::exit(1);
    }
    let json = serde_json::to_string_pretty(&dump).expect("dump serializes");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}
