//! A federated round split across OS processes, over loopback TCP.
//!
//! The parent process binds a [`RemoteFleet`], re-executes itself once per
//! client (`--child`), pretrains the global model, and drives rounds
//! through [`RemoteFlServer`] — the wire-protocol twin of the in-process
//! engine. Each child rebuilds its fleet member deterministically from the
//! shared seeds, joins over TCP, trains on every broadcast, and uploads
//! its full local model. With no faults injected, the resulting global
//! model is bitwise identical to what the in-process engine computes; the
//! example asserts exactly that.
//!
//! Transport faults come from the same deterministic [`FaultProfile`] the
//! scenario suite replays in-process: `--latency-ms` sleeps every upload,
//! and `--drop-client` makes one client close its connection instead of
//! delivering (crash-stop). The server's round deadline turns hung or
//! trickling clients into stragglers instead of stalling aggregation.
//!
//! ```text
//! cargo run --example remote_round
//! cargo run --example remote_round -- --rounds 3 --latency-ms 20 --drop-client 2 --out WIRE.json
//! ```

use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::{
    Client, ClientOutcome, DefensePipeline, Framework, RoundPlan, SequentialFlServer, ServerConfig,
};
use safeloc_wire::{run_remote_client, FaultProfile, RemoteFlServer, RemoteFleet};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every process derives the same fleet from these seeds.
const DATA_SEED: u64 = 3;
const FLEET_SEED: u64 = 0;

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(DATA_SEED), &DatasetConfig::tiny(), DATA_SEED)
}

fn dims(data: &BuildingDataset) -> Vec<usize> {
    vec![data.building.num_aps(), 16, data.building.num_rps()]
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--child") {
        child(&argv);
        return;
    }
    parent(&argv);
}

fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}

// ------------------------------------------------------------- the server

fn parent(argv: &[String]) {
    let rounds: usize = flag_value(argv, "--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(2);
    let latency_ms: f64 = flag_value(argv, "--latency-ms")
        .map(|v| v.parse().expect("--latency-ms takes a number"))
        .unwrap_or(0.0);
    let drop_client: Option<usize> =
        flag_value(argv, "--drop-client").map(|v| v.parse().expect("--drop-client takes an index"));
    let out = flag_value(argv, "--out");

    let data = dataset();
    let dims = dims(&data);
    let n = data.num_clients();
    println!(
        "fleet: {n} clients, building {} ({} APs → {} RPs)",
        data.building.id,
        data.building.num_aps(),
        data.building.num_rps()
    );

    let fleet = RemoteFleet::bind(n).expect("bind loopback fleet");
    let addr = fleet.addr();
    let fleet = Arc::new(Mutex::new(fleet));

    // One child process per fleet member, each with its own fault profile.
    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<Child> = (0..n)
        .map(|client| {
            let mut fault = FaultProfile::latency(latency_ms, 0.0, 7);
            if drop_client == Some(client) {
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
    println!("all {n} clients joined over {addr}");

    // The wire server — and, when nothing is injected, an in-process twin
    // built from the same arguments to pin bitwise reproduction.
    let deadline = Duration::from_secs(5);
    let mut server = RemoteFlServer::new(
        &dims,
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        deadline,
    );
    println!("pretraining the global model...");
    server.pretrain(&data.server_train);
    // The mirror fleet never trains here (training happens in the child
    // processes) — it provides the per-client report metadata.
    let mut mirror = Client::from_dataset(&data, FLEET_SEED);
    let faultless = latency_ms <= 0.0 && drop_client.is_none();
    let mut twin = faultless.then(|| {
        let mut twin =
            SequentialFlServer::new(&dims, DefensePipeline::fedavg(), ServerConfig::tiny());
        twin.pretrain(&data.server_train);
        (twin, Client::from_dataset(&data, FLEET_SEED))
    });

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for round in 0..rounds {
        let started = Instant::now();
        let report = server.run_round(&mut mirror, &RoundPlan::full(n));
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut trained = 0usize;
        let mut dropped = 0usize;
        let mut straggled = 0usize;
        for c in &report.clients {
            match &c.outcome {
                ClientOutcome::Trained { .. } => trained += 1,
                ClientOutcome::DroppedOut => {
                    dropped += 1;
                    if drop_client != Some(c.client_id) {
                        eprintln!("round {round}: client {} dropped unexpectedly", c.client_id);
                        failures += 1;
                    }
                }
                ClientOutcome::Straggled => straggled += 1,
                ClientOutcome::Rejected { rule, .. } => {
                    eprintln!("round {round}: client {} rejected by {rule}", c.client_id);
                }
            }
        }
        println!(
            "round {round}: {trained} trained, {dropped} dropped, {straggled} straggled \
             in {wall_ms:.0} ms"
        );
        // The deliberately dropped client must be benched, not waited for.
        if drop_client.is_some() && dropped == 0 {
            eprintln!("round {round}: the dropped client was not detected");
            failures += 1;
        }
        if let Some((twin, clients)) = twin.as_mut() {
            twin.run_round(clients, &RoundPlan::full(n));
            assert_eq!(
                server.global_params(),
                twin.global_params(),
                "wire round {round} diverged from the in-process engine"
            );
            println!("round {round}: global model bitwise identical to the in-process engine");
        }
        rows.push(format!(
            "{{\"round\": {round}, \"wall_ms\": {wall_ms:.3}, \"trained\": {trained}, \
             \"dropped\": {dropped}, \"straggled\": {straggled}}}"
        ));
    }

    fleet.lock().unwrap().broadcast_bye();
    for child in &mut children {
        let _ = child.wait();
    }

    if let Some(path) = out {
        let json = format!(
            "{{\n  \"rounds\": {rounds},\n  \"clients\": {n},\n  \"latency_ms\": {latency_ms},\n  \
             \"dropped_client\": {},\n  \"deadline_ms\": {},\n  \"round_reports\": [\n    {}\n  ]\n}}\n",
            drop_client
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string()),
            deadline.as_millis(),
            rows.join(",\n    ")
        );
        std::fs::write(&path, json).expect("write transport report");
        println!("wrote {path}");
    }
    if failures > 0 {
        eprintln!("{failures} unexpected client outcome(s)");
        std::process::exit(1);
    }
}

// ------------------------------------------------------------- the client

/// One fleet member as its own process: the deterministic rebuild, then
/// the one client loop `fl_client` runs too.
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
