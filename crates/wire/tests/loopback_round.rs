//! Cross-process federated rounds over loopback TCP.
//!
//! The headline pin: with fault injection off, a wire-transported round —
//! every client its own OS process (`fl_client`), updates crossing a real
//! socket — reproduces the in-process engine's GM trajectory **bitwise**,
//! round after round. Then the failure half: a transport drop surfaces as
//! `DroppedOut`, a latency spike past the server deadline surfaces as
//! `Straggled`, and in both cases aggregation proceeds with the survivors
//! instead of stalling; a peer that joins silently cannot stall fleet
//! setup either. The last three tests drive the one client loop,
//! `run_remote_client`, on threads instead of processes.

use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
use safeloc_fl::defense::{RoundContext, Verdicts};
use safeloc_fl::report::ClientOutcome;
use safeloc_fl::{
    Aggregator, Client, ClientUpdate, CohortSampler, Combiner, DefensePipeline, DeltaRepr,
    DeltaSpec, FedAvg, FlSession, FleetProvider, Framework, RoundPlan, SequentialFlServer,
    ServerConfig,
};
use safeloc_nn::{Matrix, NamedParams};
use safeloc_wire::{
    run_remote_client, DeltaUpdateFrame, FaultProfile, Frame, FrameConn, RemoteFlServer,
    RemoteFleet, UpdateFrame, WireError,
};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const FLEET_SEED: u64 = 0;
const DATA_SEED: u64 = 3;

fn dataset() -> BuildingDataset {
    BuildingDataset::generate(Building::tiny(DATA_SEED), &DatasetConfig::tiny(), DATA_SEED)
}

fn dims(data: &BuildingDataset) -> Vec<usize> {
    vec![data.building.num_aps(), 16, data.building.num_rps()]
}

/// Spawns one `fl_client` process for fleet slot `client`.
fn spawn_client(
    addr: &str,
    client: usize,
    dims: &[usize],
    fault: Option<&FaultProfile>,
    delta: Option<&str>,
) -> Child {
    let dims_arg = dims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fl_client"));
    cmd.args(["--addr", addr, "--client", &client.to_string()])
        .args(["--dims", &dims_arg])
        .args(["--dataset", "tiny"])
        .args(["--building-seed", &DATA_SEED.to_string()])
        .args(["--data-seed", &DATA_SEED.to_string()])
        .args(["--fleet-seed", &FLEET_SEED.to_string()])
        .args(["--local", "tiny"]);
    if let Some(profile) = fault {
        cmd.args(["--fault", &serde_json::to_string(profile).unwrap()]);
    }
    if let Some(spec) = delta {
        cmd.args(["--delta", spec]);
    }
    cmd.spawn().expect("spawn fl_client")
}

struct RemoteHarness {
    server: RemoteFlServer,
    fleet: Arc<Mutex<RemoteFleet>>,
    children: Vec<Child>,
    mirror: Vec<Client>,
}

/// Boots a full remote fleet: binds the round server, spawns one process
/// per client (with optional per-client fault profiles), and waits for
/// every join.
fn remote_harness(
    data: &BuildingDataset,
    deadline: Duration,
    fault_for: impl Fn(usize) -> Option<FaultProfile>,
) -> RemoteHarness {
    remote_harness_with_delta(data, deadline, fault_for, None)
}

fn remote_harness_with_delta(
    data: &BuildingDataset,
    deadline: Duration,
    fault_for: impl Fn(usize) -> Option<FaultProfile>,
    delta: Option<&str>,
) -> RemoteHarness {
    let mirror = Client::from_dataset(data, FLEET_SEED);
    let dims = dims(data);
    let mut fleet = RemoteFleet::bind(mirror.len()).unwrap();
    let addr = fleet.addr().to_string();
    let children: Vec<Child> = (0..mirror.len())
        .map(|i| spawn_client(&addr, i, &dims, fault_for(i).as_ref(), delta))
        .collect();
    fleet.accept_all(Duration::from_secs(60)).unwrap();
    assert_eq!(fleet.connected(), mirror.len());
    let fleet = Arc::new(Mutex::new(fleet));
    let mut server = RemoteFlServer::new(
        &dims,
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        deadline,
    );
    server.pretrain(&data.server_train);
    RemoteHarness {
        server,
        fleet,
        children,
        mirror,
    }
}

impl RemoteHarness {
    /// Says goodbye to the fleet and reaps the child processes.
    fn teardown(self) {
        self.fleet.lock().unwrap().broadcast_bye();
        for mut child in self.children {
            // A faulted client may be sleeping out a multi-second injected
            // latency; don't let it hold the test hostage.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Fault injection off: three wire-transported rounds reproduce the
/// in-process GM trajectory bitwise, round by round.
#[test]
fn loopback_round_is_bitwise_identical_to_in_process() {
    let data = dataset();
    let dims = dims(&data);

    let mut inproc =
        SequentialFlServer::new(&dims, DefensePipeline::fedavg(), ServerConfig::tiny());
    inproc.pretrain(&data.server_train);
    let mut local_fleet = Client::from_dataset(&data, FLEET_SEED);

    let mut remote = remote_harness(&data, Duration::from_secs(120), |_| None);
    assert_eq!(
        remote.server.global_params(),
        inproc.global_params(),
        "pretrain must already agree before any wire traffic"
    );

    let n = local_fleet.len();
    for round in 0..3 {
        let plan = RoundPlan::full(n);
        let local_report = inproc.run_round(&mut local_fleet, &plan);
        let wire_report = remote.server.run_round(&mut remote.mirror, &plan);
        assert_eq!(
            remote.server.global_params(),
            inproc.global_params(),
            "GM diverged after round {round}"
        );
        assert_eq!(local_report.round, wire_report.round);
        // Same per-client story: everyone trained, same weights, same
        // sample counts — only wall-clock timings may differ.
        assert_eq!(local_report.clients, wire_report.clients);
    }

    // The transported trajectory actually moved (the pin is not vacuous).
    assert_ne!(
        remote.server.global_params(),
        SequentialFlServer::new(&dims, DefensePipeline::fedavg(), ServerConfig::tiny())
            .global_params()
    );
    remote.teardown();
}

/// Compressed rounds (`--delta topk:0.25`) cross the wire as
/// `UpdateDelta` frames and still reproduce the in-process compressed
/// trajectory bitwise — the error-feedback residual lives client-side in
/// both worlds, and the server re-materializes exactly what the
/// in-process engine's `build_update` produces.
#[test]
fn compressed_loopback_round_matches_the_in_process_compressed_fleet() {
    use safeloc_fl::{DeltaCompressor, DeltaSpec};

    let data = dataset();
    let dims = dims(&data);
    let spec = DeltaSpec::TopK { fraction: 0.25 };

    let mut inproc =
        SequentialFlServer::new(&dims, DefensePipeline::fedavg(), ServerConfig::tiny());
    inproc.pretrain(&data.server_train);
    let mut local_fleet = Client::from_dataset(&data, FLEET_SEED);
    for client in &mut local_fleet {
        client.compressor = Some(DeltaCompressor::new(spec));
    }

    let mut remote =
        remote_harness_with_delta(&data, Duration::from_secs(120), |_| None, Some("topk:0.25"));

    let n = local_fleet.len();
    for round in 0..3 {
        let plan = RoundPlan::full(n);
        let local_report = inproc.run_round(&mut local_fleet, &plan);
        let wire_report = remote.server.run_round(&mut remote.mirror, &plan);
        assert_eq!(
            remote.server.global_params(),
            inproc.global_params(),
            "compressed GM diverged after round {round}"
        );
        assert_eq!(local_report.clients, wire_report.clients);
    }
    remote.teardown();
}

/// A client whose transport drops every round surfaces as `DroppedOut`;
/// the round still aggregates the survivors.
#[test]
fn transport_drop_becomes_dropout_and_does_not_stall_the_round() {
    let data = dataset();
    let victim = 1;
    let mut remote = remote_harness(&data, Duration::from_secs(120), |i| {
        (i == victim).then(|| FaultProfile::ideal().with_drops(1.0))
    });

    let n = remote.mirror.len();
    let before = remote.server.global_params();
    let plan = RoundPlan::full(n);
    let report = remote.server.run_round(&mut remote.mirror, &plan);

    assert_eq!(report.clients.len(), n);
    assert_eq!(report.clients[victim].outcome, ClientOutcome::DroppedOut);
    let trained = report
        .clients
        .iter()
        .filter(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))
        .count();
    assert_eq!(trained, n - 1);
    assert_ne!(
        remote.server.global_params(),
        before,
        "the survivors' round must still move the GM"
    );
    remote.teardown();
}

/// A client stuck behind a huge injected latency misses the server-side
/// round deadline and surfaces as `Straggled` — a hung client cannot
/// stall aggregation.
#[test]
fn deadline_turns_a_hung_client_into_a_straggler() {
    let data = dataset();
    let victim = 0;
    let mut remote = remote_harness(&data, Duration::from_secs(4), |i| {
        (i == victim).then(|| FaultProfile::latency(120_000.0, 0.0, 11))
    });

    let n = remote.mirror.len();
    let plan = RoundPlan::full(n);
    let report = remote.server.run_round(&mut remote.mirror, &plan);

    assert_eq!(report.clients[victim].outcome, ClientOutcome::Straggled);
    let trained = report
        .clients
        .iter()
        .filter(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))
        .count();
    assert_eq!(trained, n - 1);
    assert_eq!(remote.server.rounds_run(), 1);
    remote.teardown();
}

/// A peer that connects and never speaks cannot hold fleet setup past
/// `accept_all`'s timeout. `accept_all` runs on its own thread so a
/// regression fails the test instead of hanging it.
#[test]
fn a_silent_peer_cannot_stall_accept_all_past_its_timeout() {
    let mut fleet = RemoteFleet::bind(1).unwrap();
    let _silent = std::net::TcpStream::connect(fleet.addr()).unwrap();
    let (tx, accepted) = mpsc::channel();
    let setup = std::thread::spawn(move || {
        tx.send(fleet.accept_all(Duration::from_millis(200))).ok();
    });
    let result = accepted
        .recv_timeout(Duration::from_secs(5))
        .expect("accept_all still blocked 5 s into a 200 ms timeout");
    assert_eq!(result, Err(WireError::Timeout));
    setup.join().unwrap();
}

/// A generating provider over a five-phone dataset: every round's cohort
/// reaches the framework as a rebuilt slice (slots `0..k`, ids arbitrary).
struct Rebuilt(BuildingDataset);

impl FleetProvider for Rebuilt {
    fn len(&self) -> usize {
        self.0.num_clients()
    }

    fn materialize(&mut self, index: usize) -> Client {
        Client::single_from_dataset(&self.0, FLEET_SEED, index)
    }

    fn reclaim(&mut self, _client: Client) {}
}

/// In-thread stand-in for an `fl_client` process: joins as `id`, logs
/// every broadcast it receives as `(round, own id)` and answers it with
/// the GM itself under its own id.
fn echo_client(
    addr: SocketAddr,
    id: usize,
    reached: mpsc::Sender<(u32, usize)>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.client_handshake().unwrap();
        conn.send(&Frame::Join {
            client_index: id as u32,
        })
        .unwrap();
        loop {
            let Ok(Frame::GmBroadcast { round, params, .. }) = conn.recv() else {
                return;
            };
            reached.send((round, id)).unwrap();
            conn.send(&Frame::Update(UpdateFrame {
                client_id: id as u64,
                round,
                building: 0,
                device_class: "echo".to_string(),
                num_samples: 1,
                params,
            }))
            .unwrap();
        }
    })
}

/// Under a lent cohort slice the plan's slots are not fleet ids: the
/// processes the broadcast reaches, the ids their updates are credited to
/// and the ids the report names must all be the sampled fleet members.
#[test]
fn lent_cohorts_invite_and_credit_the_sampled_fleet_members() {
    let cfg = DatasetConfig::tiny().with_fleet(5, DATA_SEED);
    let data = BuildingDataset::generate(Building::tiny(DATA_SEED), &cfg, DATA_SEED);
    let n = data.num_clients();
    let mut fleet = RemoteFleet::bind(n).unwrap();
    let (tx, broadcasts) = mpsc::channel();
    let clients: Vec<_> = (0..n)
        .map(|id| echo_client(fleet.addr(), id, tx.clone()))
        .collect();
    fleet.accept_all(Duration::from_secs(60)).unwrap();
    let fleet = Arc::new(Mutex::new(fleet));
    let server = RemoteFlServer::new(
        &dims(&data),
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        Duration::from_secs(60),
    );
    let sampler = CohortSampler::uniform(2, 7);
    let mut session = FlSession::builder(Box::new(server))
        .fleet(Box::new(Rebuilt(data)))
        .sampler(sampler.clone())
        .build();

    let mut ever_sampled = BTreeSet::new();
    for round in 0..4 {
        let sampled: BTreeSet<usize> = sampler
            .plan(round, n)
            .cohort()
            .iter()
            .map(|&(i, _)| i)
            .collect();
        let report = session.next_round();
        let reported: BTreeSet<usize> = report.clients.iter().map(|c| c.client_id).collect();
        // Only an update carrying the id the server expected is credited,
        // so `Trained` ids are the update ids.
        let credited: BTreeSet<usize> = report
            .clients
            .iter()
            .filter(|c| matches!(c.outcome, ClientOutcome::Trained { .. }))
            .map(|c| c.client_id)
            .collect();
        let mut reached = BTreeSet::new();
        for (reached_round, me) in broadcasts.try_iter() {
            assert_eq!(reached_round as usize, round);
            reached.insert(me);
        }
        assert_eq!(sampled.len(), 2);
        assert_eq!(reported, sampled);
        assert_eq!(reached, sampled);
        assert_eq!(credited, sampled);
        ever_sampled.extend(sampled);
    }
    assert!(
        ever_sampled.iter().any(|&id| id >= 2),
        "every cohort was {{0, 1}}: slots and ids never differed"
    );

    fleet.lock().unwrap().broadcast_bye();
    for client in clients {
        client.join().unwrap();
    }
}

/// In-thread stand-in for an `fl_client` process that answers by script:
/// joins as `id` and sends `answer(round, GM)` back for each broadcast,
/// until the server says goodbye or hangs up on it.
fn scripted_client(
    addr: SocketAddr,
    id: usize,
    answer: impl Fn(u32, NamedParams) -> Frame + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conn = FrameConn::connect(addr).unwrap();
        conn.client_handshake().unwrap();
        conn.send(&Frame::Join {
            client_index: id as u32,
        })
        .unwrap();
        while let Ok(frame) = conn.recv() {
            let Frame::GmBroadcast { round, params, .. } = frame else {
                continue;
            };
            if conn.send(&answer(round, params)).is_err() {
                return;
            }
        }
    })
}

/// A compressing client: answers a `d`-parameter GM with the `TopK` delta
/// `indices(d)` (all values 0.25).
fn top_k_client(
    addr: SocketAddr,
    id: usize,
    indices: fn(u32) -> Vec<u32>,
) -> std::thread::JoinHandle<()> {
    scripted_client(addr, id, move |round, params| {
        let indices = indices(params.num_params() as u32);
        Frame::UpdateDelta(DeltaUpdateFrame {
            client_id: id as u64,
            round,
            building: 0,
            device_class: "top-k".to_string(),
            num_samples: 1,
            repr: DeltaRepr::TopK {
                values: vec![0.25; indices.len()],
                k: indices.len(),
                indices,
            },
        })
    })
}

/// A compressed upload that is not well-formed for the model — here an
/// index one past its last parameter, which used to be dropped silently —
/// is a protocol violation: the client is benched like one that answered
/// with the wrong frame, and the round completes on the others' updates.
#[test]
fn a_malformed_compressed_upload_benches_the_client_and_the_round_completes() {
    let data = dataset();
    let n = 3;
    let offender = 1;
    let mut fleet = RemoteFleet::bind(n).unwrap();
    let clients: Vec<_> = (0..n)
        .map(|id| {
            let indices = if id == offender {
                |d: u32| vec![0, d]
            } else {
                |d: u32| vec![0, d - 1]
            };
            top_k_client(fleet.addr(), id, indices)
        })
        .collect();
    fleet.accept_all(Duration::from_secs(60)).unwrap();
    let fleet = Arc::new(Mutex::new(fleet));
    let mut server = RemoteFlServer::new(
        &dims(&data),
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        Duration::from_secs(60),
    );
    let mut mirror = Client::from_dataset(&data, FLEET_SEED);
    mirror.truncate(n);
    let plan = RoundPlan::full(n);

    // Round 0 meets the malformed payload; round 1 finds the offender gone.
    for round in 0..2 {
        let before = server.global_params();
        let report = server.run_round(&mut mirror, &plan);
        for (id, client) in report.clients.iter().enumerate() {
            if id == offender {
                assert_eq!(client.outcome, ClientOutcome::DroppedOut, "round {round}");
            } else {
                assert!(
                    matches!(client.outcome, ClientOutcome::Trained { .. }),
                    "round {round}: client {id} was {:?}",
                    client.outcome
                );
            }
        }
        // Exactly the well-formed deltas landed: `+0.25` on the first and
        // the last parameter, nothing anywhere else.
        let (before, after) = (before.flatten(), server.global_params().flatten());
        let moved: Vec<usize> = (0..before.len())
            .filter(|&e| after.as_slice()[e] != before.as_slice()[e])
            .collect();
        assert_eq!(moved, [0, before.len() - 1], "round {round}");
        assert_eq!(after.as_slice()[0], before.as_slice()[0] + 0.25);
    }

    fleet.lock().unwrap().broadcast_bye();
    for client in clients {
        client.join().unwrap();
    }
}

/// A dense client: answers each broadcast with `answer(GM)` as a
/// full-model `Update`.
fn dense_client(
    addr: SocketAddr,
    id: usize,
    answer: fn(NamedParams) -> NamedParams,
) -> std::thread::JoinHandle<()> {
    scripted_client(addr, id, move |round, params| {
        Frame::Update(UpdateFrame {
            client_id: id as u64,
            round,
            building: 0,
            device_class: "dense".to_string(),
            num_samples: 1,
            params: answer(params),
        })
    })
}

/// The GM with every coordinate moved by a quarter: an honest answer.
fn shifted(mut gm: NamedParams) -> NamedParams {
    gm.add_flat(&vec![0.25; gm.num_params()]);
    gm
}

/// A dense upload of another architecture — a tensor under another name,
/// or the right names over transposed shapes — used to reach the defense,
/// whose delta pass asserts on it: one stale or hostile client took the
/// round server down for good. It is a protocol violation like a malformed
/// compressed upload: the client is benched, and the round is the round
/// without it, bit for bit.
#[test]
fn a_dense_upload_of_another_architecture_benches_the_client_and_the_round_completes() {
    let data = dataset();
    let n = 4;
    let renamed = |gm: NamedParams| -> NamedParams {
        shifted(gm)
            .iter()
            .map(|(name, t)| (format!("{name}.v2"), t.clone()))
            .collect()
    };
    let reshaped = |gm: NamedParams| -> NamedParams {
        shifted(gm)
            .iter()
            .map(|(name, t)| {
                let (rows, cols) = t.shape();
                let t = Matrix::from_vec(cols, rows, t.as_slice().to_vec()).unwrap();
                (name.to_string(), t)
            })
            .collect()
    };
    let answers: [fn(NamedParams) -> NamedParams; 4] = [shifted, renamed, reshaped, shifted];
    let offenders = [1, 2];
    let mut fleet = RemoteFleet::bind(n).unwrap();
    let clients: Vec<_> = (0..n)
        .map(|id| dense_client(fleet.addr(), id, answers[id]))
        .collect();
    fleet.accept_all(Duration::from_secs(60)).unwrap();
    let fleet = Arc::new(Mutex::new(fleet));
    let mut server = RemoteFlServer::new(
        &dims(&data),
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        Duration::from_secs(60),
    );
    let mut mirror = Client::from_dataset(&data, FLEET_SEED);
    mirror.truncate(n);
    let plan = RoundPlan::full(n);

    // Round 0 meets the foreign uploads; round 1 finds the offenders gone.
    for round in 0..2 {
        let before = server.global_params();
        let report = server.run_round(&mut mirror, &plan);
        for (id, client) in report.clients.iter().enumerate() {
            if offenders.contains(&id) {
                assert_eq!(client.outcome, ClientOutcome::DroppedOut, "round {round}");
            } else {
                assert!(
                    matches!(client.outcome, ClientOutcome::Trained { .. }),
                    "round {round}: client {id} was {:?}",
                    client.outcome
                );
            }
        }
        let honest: Vec<ClientUpdate> = [0, 3]
            .map(|id| ClientUpdate::new(id, shifted(before.clone()), 1))
            .into();
        let without = DefensePipeline::fedavg().aggregate(&before, &honest);
        assert_eq!(server.global_params(), without.params, "round {round}");
    }

    fleet.lock().unwrap().broadcast_bye();
    for client in clients {
        client.join().unwrap();
    }
}

/// FedAvg that keeps a copy of every update it combines — what the server
/// actually received, re-materialized and all.
#[derive(Clone)]
struct Recording(Arc<Mutex<Vec<ClientUpdate>>>);

impl Combiner for Recording {
    fn name(&self) -> &'static str {
        "recording-mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let seen = ctx.updates().iter().map(|&u| u.clone());
        self.0.lock().unwrap().extend(seen);
        FedAvg.combine(ctx, verdicts)
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(self.clone())
    }
}

fn recording(seen: &Arc<Mutex<Vec<ClientUpdate>>>) -> DefensePipeline {
    DefensePipeline::new(
        "recording",
        Vec::new(),
        Box::new(Recording(Arc::clone(seen))),
    )
}

/// Fleet member `id` running the client loop on a thread.
fn loop_client(
    addr: SocketAddr,
    data: &BuildingDataset,
    id: usize,
    spec: DeltaSpec,
    fault: FaultProfile,
) -> std::thread::JoinHandle<Result<(), WireError>> {
    let mut me = Client::single_from_dataset(data, FLEET_SEED, id);
    me.compressor = spec.compressor();
    let (dims, building) = (dims(data), data.building.id as u32);
    std::thread::spawn(move || {
        let local = ServerConfig::tiny().local;
        run_remote_client(addr, &mut me, &dims, &local, &fault, building)
    })
}

fn bits(params: &NamedParams) -> Vec<u32> {
    params
        .flatten()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// A clean client loop on a thread uploads, round after round, exactly
/// the update its in-process twin hands the in-process engine — dense and
/// compressed — because both run `Client::sequential_update`.
#[test]
fn the_client_loop_uploads_the_in_process_update_bitwise() {
    let data = dataset();
    let dims = dims(&data);
    let n = 2;
    for spec in [DeltaSpec::Dense, DeltaSpec::TopK { fraction: 0.25 }] {
        let (wire_seen, twin_seen) = (Arc::default(), Arc::default());
        let mut fleet = RemoteFleet::bind(n).unwrap();
        let clients: Vec<_> = (0..n)
            .map(|id| loop_client(fleet.addr(), &data, id, spec, FaultProfile::ideal()))
            .collect();
        fleet.accept_all(Duration::from_secs(60)).unwrap();
        let fleet = Arc::new(Mutex::new(fleet));
        let cfg = ServerConfig::tiny();
        let deadline = Duration::from_secs(120);
        let mut wire =
            RemoteFlServer::new(&dims, recording(&wire_seen), cfg, fleet.clone(), deadline);
        let mut twin = SequentialFlServer::new(&dims, recording(&twin_seen), cfg);
        wire.pretrain(&data.server_train);
        twin.pretrain(&data.server_train);
        let mut mirror: Vec<Client> = Client::from_dataset(&data, FLEET_SEED);
        mirror.truncate(n);
        let mut twins = mirror.clone();
        for twin_client in &mut twins {
            twin_client.compressor = spec.compressor();
        }
        for _ in 0..2 {
            wire.run_round(&mut mirror, &RoundPlan::full(n));
            twin.run_round(&mut twins, &RoundPlan::full(n));
        }
        let (wire_seen, twin_seen) = (wire_seen.lock().unwrap(), twin_seen.lock().unwrap());
        assert_eq!(wire_seen.len(), 2 * n, "{spec:?}");
        assert_eq!(twin_seen.len(), 2 * n, "{spec:?}");
        for (u, t) in wire_seen.iter().zip(twin_seen.iter()) {
            assert_eq!(
                (u.client_id, u.num_samples, &u.repr),
                (t.client_id, t.num_samples, &t.repr)
            );
            assert_eq!(bits(&u.params), bits(&t.params), "{spec:?}");
        }
        assert_eq!(wire.global_params(), twin.global_params(), "{spec:?}");
        fleet.lock().unwrap().broadcast_bye();
        for client in clients {
            assert_eq!(client.join().unwrap(), Ok(()), "{spec:?}");
        }
    }
}

/// A drop draw ends the loop in order; the server benches the client as a
/// dropout and the round completes on the others.
#[test]
fn a_drop_draw_ends_the_client_loop_and_the_server_reports_a_dropout() {
    let data = dataset();
    let (n, victim) = (3, 1);
    let mut fleet = RemoteFleet::bind(n).unwrap();
    let clients: Vec<_> = (0..n)
        .map(|id| {
            let drops = if id == victim { 1.0 } else { 0.0 };
            let fault = FaultProfile::ideal().with_drops(drops);
            loop_client(fleet.addr(), &data, id, DeltaSpec::Dense, fault)
        })
        .collect();
    fleet.accept_all(Duration::from_secs(60)).unwrap();
    let fleet = Arc::new(Mutex::new(fleet));
    let mut server = RemoteFlServer::new(
        &dims(&data),
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
        Arc::clone(&fleet),
        Duration::from_secs(120),
    );
    let mut mirror = Client::from_dataset(&data, FLEET_SEED);
    mirror.truncate(n);
    let report = server.run_round(&mut mirror, &RoundPlan::full(n));
    for (id, client) in report.clients.iter().enumerate() {
        if id == victim {
            assert_eq!(client.outcome, ClientOutcome::DroppedOut);
        } else {
            assert!(matches!(client.outcome, ClientOutcome::Trained { .. }));
        }
    }
    fleet.lock().unwrap().broadcast_bye();
    for client in clients {
        assert_eq!(client.join().unwrap(), Ok(()));
    }
}

/// A server frame the round protocol never sends a client ends the loop
/// with a protocol error — returned, not panicked.
#[test]
fn an_out_of_protocol_server_frame_ends_the_client_loop_with_a_protocol_error() {
    let data = dataset();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = loop_client(
        listener.local_addr().unwrap(),
        &data,
        0,
        DeltaSpec::Dense,
        FaultProfile::ideal(),
    );
    let mut conn = FrameConn::new(listener.accept().unwrap().0);
    conn.server_handshake().unwrap();
    assert_eq!(conn.recv().unwrap(), Frame::Join { client_index: 0 });
    conn.send(&Frame::LocalizeResp {
        id: 7,
        label: 3,
        position: None,
        device_class: "stray".to_string(),
        model_version: 1,
    })
    .unwrap();
    match client.join().expect("the client loop must not panic") {
        Err(WireError::Protocol(msg)) => assert!(msg.contains("LocalizeResp"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// A `--fault` profile no draw should see — an infinite std (`1e999`) —
/// stops `fl_client` before it connects, with exit code 1 and the field
/// named.
#[test]
fn fl_client_refuses_a_fault_profile_naming_the_field() {
    let out = Command::new(env!("CARGO_BIN_EXE_fl_client"))
        .args(["--addr", "127.0.0.1:9", "--client", "0", "--dims", "4,2"])
        .args([
            "--fault",
            r#"{"latency_ms_mean": 5, "latency_ms_std": 1e999}"#,
        ])
        .output()
        .expect("run fl_client");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("latency_ms_std"), "{stderr}");
}
