//! The telemetry side channel end to end: a faulty remote federated
//! round, live serving traffic, a Prometheus scrape over loopback TCP,
//! and a chrome-trace dump — all from one process tree.
//!
//! The parent re-executes itself once per fleet member (`--child`, the
//! `remote_round` pattern) and injects transport faults: every child
//! sleeps on upload and one closes its connection instead of delivering.
//! The dropout lands in `wire_round_dropouts_total`, the round split in
//! `fl_round_*`, the defense stages in `fl_stage_*`. The trained global
//! model is then published into a serving registry, a [`WireServer`]
//! fronts it over TCP, and after a burst of localization traffic a
//! [`WireClient`] scrapes the live process over the same socket with the
//! v3 `MetricsRequest` frame — the text it gets back is parsed and
//! cross-checked against served-request counts.
//!
//! Everything ends up in three artifacts: `TELEM_ci.json` (the full
//! [`TelemetryDump`]: snapshot + Prometheus text + chrome trace),
//! `TRACE_ci.json` (the chrome trace alone — load it in
//! `chrome://tracing` or Perfetto), and stdout. CI's `telemetry-smoke`
//! job runs this example and then gates on `telemetry_dump --check
//! TELEM_ci.json`.
//!
//! ```text
//! cargo run --example observability
//! cargo run --example observability -- --out TELEM.json --trace TRACE.json
//! ```

use safeloc_bench::{record_peak_rss_gauge, TelemetryDump};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{Client, ClientOutcome, DefensePipeline, Framework, RoundPlan, ServerConfig};
use safeloc_nn::{Activation, HasParams, Sequential};
use safeloc_serve::{LocalizeRequest, ModelKey, ModelRegistry, ServeConfig, Service};
use safeloc_wire::{
    run_remote_client, FaultProfile, RemoteFlServer, RemoteFleet, WireClient, WireServer,
};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every process derives the same fleet from these seeds.
const DATA_SEED: u64 = 3;
const FLEET_SEED: u64 = 0;
/// This client crash-stops instead of uploading — the dropout the round
/// must survive and the telemetry must count.
const DROP_CLIENT: usize = 2;
/// Upload latency injected into every surviving client.
const LATENCY_MS: f64 = 10.0;

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(DATA_SEED), &DatasetConfig::tiny(), DATA_SEED)
}

fn dims(data: &BuildingDataset) -> Vec<usize> {
    vec![data.building.num_aps(), 16, data.building.num_rps()]
}

fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--child") {
        child(&argv);
        return;
    }
    parent(&argv);
}

// ------------------------------------------------------------- the server

fn parent(argv: &[String]) {
    let out = flag_value(argv, "--out").unwrap_or_else(|| "TELEM_ci.json".to_string());
    let trace_out = flag_value(argv, "--trace").unwrap_or_else(|| "TRACE_ci.json".to_string());
    let recorder = safeloc_telemetry::flight_recorder();
    recorder.clear();

    // Phase 1: a federated round split across OS processes, with faults.
    let data = dataset();
    let dims = dims(&data);
    let n = data.num_clients();
    println!(
        "phase 1: remote round, {n} clients ({} uploads with {LATENCY_MS} ms latency, \
         client {DROP_CLIENT} crash-stops)",
        n - 1
    );
    let fleet = RemoteFleet::bind(n).expect("bind loopback fleet");
    let addr = fleet.addr();
    let fleet = Arc::new(Mutex::new(fleet));
    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<Child> = (0..n)
        .map(|client| {
            let mut fault = FaultProfile::latency(LATENCY_MS, 0.0, 7);
            if client == DROP_CLIENT {
                fault = fault.with_drops(1.0);
            }
            Command::new(&exe)
                .args([
                    "--child",
                    "--addr",
                    &addr.to_string(),
                    "--client",
                    &client.to_string(),
                    "--fault",
                    &serde_json::to_string(&fault).expect("profile serializes"),
                ])
                .stdin(Stdio::null())
                .spawn()
                .expect("spawn child client")
        })
        .collect();
    fleet
        .lock()
        .unwrap()
        .accept_all(Duration::from_secs(60))
        .expect("all clients join");

    let mut server = RemoteFlServer::new(
        &dims,
        DefensePipeline::krum(1),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        Duration::from_secs(5),
    );
    {
        let _span = recorder.span("pretrain", "fl");
        server.pretrain(&data.server_train);
    }
    let mut mirror = Client::from_dataset(&data, FLEET_SEED);
    for round in 0..2 {
        let _span = recorder.span("remote_round", "fl");
        let report = server.run_round(&mut mirror, &RoundPlan::full(n));
        let dropped = report
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::DroppedOut))
            .count();
        println!(
            "  round {round}: {} client reports, {dropped} dropout(s)",
            report.clients.len()
        );
        assert!(dropped >= 1, "the crash-stopped client must be detected");
    }
    fleet.lock().unwrap().broadcast_bye();
    for child in &mut children {
        let _ = child.wait();
    }

    // Phase 2: serve the trained model over TCP and scrape the live
    // process through the same socket.
    println!("phase 2: serving the trained model over TCP");
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(
        ModelKey::default_for(data.building.id),
        {
            let mut gm = Sequential::mlp(&dims, Activation::Relu, 0);
            gm.load(&server.global_params()).expect("GM fits the dims");
            gm
        },
        Some(data.building.clone()),
    );
    let service = Arc::new(Service::start(
        registry,
        DeviceCatalog::new(data.devices.clone()),
        ServeConfig {
            max_batch: 16,
            workers: 2,
        },
    ));
    let wire = WireServer::serve(Arc::clone(&service)).expect("bind wire front");
    let mut client = WireClient::connect(wire.addr()).expect("connect");
    let burst = 40usize;
    {
        let _span = recorder.span("serving_burst", "serve");
        for i in 0..burst {
            let request = LocalizeRequest::new(
                data.building.id,
                &data.devices[i % data.devices.len()].name,
                vec![-60.0 - (i % 7) as f32; data.building.num_aps()],
            );
            client.localize(&request).expect("served over the wire");
        }
    }

    // The live scrape: a v3 MetricsRequest frame over the same loopback
    // connection the localization traffic used.
    let scraped = client.scrape_metrics().expect("live scrape");
    let samples = safeloc_telemetry::parse_prometheus(&scraped).expect("scrape parses back");
    let served: f64 = samples
        .iter()
        .filter(|s| s.name == "serve_requests_total")
        .map(|s| s.value)
        .sum();
    assert!(
        served >= burst as f64,
        "scrape reports {served} served requests, burst sent {burst}"
    );
    let dropouts: f64 = samples
        .iter()
        .filter(|s| s.name == "wire_round_dropouts_total")
        .map(|s| s.value)
        .sum();
    assert!(dropouts >= 1.0, "the dropout must be visible in the scrape");
    println!(
        "  live scrape over {}: {} samples, serve_requests_total = {served}, \
         wire_round_dropouts_total = {dropouts}",
        wire.addr(),
        samples.len()
    );
    client.bye();
    service.shutdown();

    // Phase 3: freeze everything into the dump artifacts.
    record_peak_rss_gauge();
    let dump = TelemetryDump::capture(&safeloc_telemetry::global());
    let problems = dump.validate();
    assert!(problems.is_empty(), "dump must validate: {problems:?}");
    std::fs::write(&trace_out, &dump.chrome_trace)
        .unwrap_or_else(|e| panic!("cannot write {trace_out}: {e}"));
    let json = serde_json::to_string_pretty(&dump).expect("dump serializes");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "phase 3: wrote {out} ({} series) and {trace_out} (load in chrome://tracing)",
        dump.snapshot.len()
    );
}

// ------------------------------------------------------------- the client

/// One fleet member as its own process — the `remote_round` child: the
/// deterministic rebuild, then the one client loop `fl_client` runs too.
fn child(argv: &[String]) {
    let addr = flag_value(argv, "--addr").expect("--addr");
    let client: usize = flag_value(argv, "--client")
        .and_then(|v| v.parse().ok())
        .expect("--client takes a fleet index");
    let fault: FaultProfile =
        serde_json::from_str(&flag_value(argv, "--fault").unwrap_or_else(|| "{}".to_string()))
            .expect("--fault parses");

    let data = dataset();
    let mut me = Client::from_dataset(&data, FLEET_SEED).swap_remove(client);
    let local = ServerConfig::tiny().local;
    let building = data.building.id as u32;
    if let Err(e) = run_remote_client(
        addr.as_str(),
        &mut me,
        &dims(&data),
        &local,
        &fault,
        building,
    ) {
        eprintln!("client {client}: {e}");
        std::process::exit(1);
    }
}
