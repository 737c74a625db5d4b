//! The TCP serving front end-to-end: predictions served over the socket
//! must be bitwise identical to the in-process [`Service`] and to plain
//! offline `predict`, and the server side must survive hostile peers with
//! typed error frames, never a panic or a poisoned worker.

use safeloc_dataset::{dbm_to_unit, Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_nn::{Activation, Matrix, Sequential};
use safeloc_serve::{LoadPlan, LocalizeRequest, ModelKey, ModelRegistry, ServeConfig, Service};
use safeloc_wire::{
    run_tcp_load, FaultProfile, Frame, FrameConn, WireClient, WireError, WireServer, ERR_MALFORMED,
    ERR_PROTOCOL, ERR_SERVE,
};
use std::sync::Arc;

fn fixture() -> (BuildingDataset, Sequential, Arc<Service>) {
    let data = BuildingDataset::generate(Building::tiny(6), &DatasetConfig::tiny(), 6);
    let model = Sequential::mlp(
        &[data.building.num_aps(), 12, data.building.num_rps()],
        Activation::Relu,
        1,
    );
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(
        ModelKey::default_for(data.building.id),
        model.clone(),
        Some(data.building.clone()),
    );
    let service = Arc::new(Service::start(
        registry,
        DeviceCatalog::new(data.devices.clone()),
        ServeConfig {
            max_batch: 8,
            workers: 2,
        },
    ));
    (data, model, service)
}

/// Served labels over TCP == in-process service == offline `predict`,
/// bitwise, for the whole request pool.
#[test]
fn tcp_predictions_match_offline_predict_bitwise() {
    let (data, model, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let pool = safeloc_serve::request_pool(&data);
    assert!(!pool.is_empty());

    // Offline path: renormalize each request exactly as the service does.
    let n_aps = data.building.num_aps();
    let mut flat = Vec::with_capacity(pool.len() * n_aps);
    for req in &pool {
        flat.extend(req.rss_dbm.iter().map(|&d| dbm_to_unit(d)));
    }
    let offline = model.predict(&Matrix::from_vec(pool.len(), n_aps, flat).unwrap());

    let mut client = WireClient::connect(server.addr()).unwrap();
    for (req, &expected) in pool.iter().zip(&offline) {
        let wired = client.localize(req).unwrap();
        let direct = service.localize(req).unwrap();
        assert_eq!(wired.label, expected, "TCP label diverged from offline");
        assert_eq!(wired.label, direct.label);
        assert_eq!(wired.position, direct.position);
        assert_eq!(wired.device_class, direct.device_class);
        assert_eq!(wired.model_version, direct.model_version);
    }
    client.bye();
    service.shutdown();
}

/// Admission errors travel as `Error(ERR_SERVE)` frames and do NOT tear
/// the connection down — the next well-formed request still succeeds.
#[test]
fn serve_errors_keep_the_connection_usable() {
    let (data, _, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let mut client = WireClient::connect(server.addr()).unwrap();

    let bogus = LocalizeRequest::new(999, "phone", vec![-60.0; data.building.num_aps()]);
    match client.localize(&bogus) {
        Err(WireError::Peer { code, .. }) => assert_eq!(code, ERR_SERVE),
        other => panic!("expected Peer(ERR_SERVE), got {other:?}"),
    }
    let short = LocalizeRequest::new(data.building.id, "phone", vec![-60.0; 1]);
    match client.localize(&short) {
        Err(WireError::Peer { code, .. }) => assert_eq!(code, ERR_SERVE),
        other => panic!("expected Peer(ERR_SERVE), got {other:?}"),
    }

    let pool = safeloc_serve::request_pool(&data);
    let good = client.localize(&pool[0]).unwrap();
    assert_eq!(good.label, service.localize(&pool[0]).unwrap().label);
    client.bye();
    service.shutdown();
}

/// A peer that speaks valid frames out of protocol (an FL `Join` at the
/// serving front) gets `Error(ERR_PROTOCOL)` before the close.
#[test]
fn protocol_violation_is_a_typed_error_frame() {
    let (_, _, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let mut conn = FrameConn::connect(server.addr()).unwrap();
    conn.client_handshake().unwrap();
    conn.send(&Frame::Join { client_index: 0 }).unwrap();
    match conn.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ERR_PROTOCOL),
        other => panic!("expected Error frame, got {}", other.kind()),
    }
    service.shutdown();
}

/// Garbage after a valid handshake gets `Error(ERR_MALFORMED)`; the
/// server stays up and keeps serving fresh connections.
#[test]
fn garbage_frames_poison_nothing() {
    let (data, _, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();

    let mut conn = FrameConn::connect(server.addr()).unwrap();
    conn.client_handshake().unwrap();
    // A frame with a valid length prefix but an unknown tag.
    conn.send_raw(&[3, 0, 0, 0, 0x7F, 1, 2]).unwrap();
    match conn.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ERR_MALFORMED),
        other => panic!("expected Error frame, got {}", other.kind()),
    }

    // The listener is unaffected: a fresh client round-trips fine.
    let pool = safeloc_serve::request_pool(&data);
    let mut client = WireClient::connect(server.addr()).unwrap();
    assert!(client.localize(&pool[0]).is_ok());
    client.bye();
    service.shutdown();
}

/// The closed-loop TCP load generator completes every request with the
/// same per-client request sequence as the in-process generator, and
/// injected latency only slows things down — it never changes answers.
#[test]
fn tcp_load_matches_in_process_load() {
    let (data, _, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let pool = safeloc_serve::request_pool(&data);
    let plan = LoadPlan::new(3, 8, 42);

    let local = safeloc_serve::run_load(&service, &pool, &plan);
    let wired = run_tcp_load(server.addr(), &pool, &plan, &FaultProfile::ideal()).unwrap();
    assert_eq!(wired.failures, 0);
    assert_eq!(wired.stats().requests, plan.total_requests());
    // Same seeded request choices → same labels, client by client.
    for (a, b) in local.responses.iter().zip(&wired.responses) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.position, y.position);
        }
    }

    let slow = run_tcp_load(
        server.addr(),
        &pool,
        &LoadPlan::new(2, 3, 42),
        &FaultProfile::latency(5.0, 1.0, 7),
    )
    .unwrap();
    assert_eq!(slow.failures, 0);
    for latencies in &slow.latencies_ns {
        assert!(latencies.iter().all(|&ns| ns >= 1_000_000));
    }
    service.shutdown();
}
