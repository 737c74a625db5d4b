//! The TCP serving front end-to-end: predictions served over the socket
//! must be bitwise identical to the in-process [`Service`] and to plain
//! offline `predict`, and the server side must survive hostile peers with
//! typed error frames, never a panic or a poisoned worker.

use safeloc_dataset::{dbm_to_unit, Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_nn::{Activation, Matrix, Sequential};
use safeloc_serve::{
    LocalizeRequest, LocalizeResponse, ModelKey, ModelRegistry, ServeConfig, Service,
};
use safeloc_wire::{
    Frame, FrameConn, WireClient, WireError, WireServer, ERR_MALFORMED, ERR_PROTOCOL, ERR_SERVE,
};
use std::sync::{Arc, Barrier};

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

/// Offline `predict` over `pool`, each request renormalized exactly as
/// the service does.
fn offline_labels(model: &Sequential, n_aps: usize, pool: &[LocalizeRequest]) -> Vec<usize> {
    let mut flat = Vec::with_capacity(pool.len() * n_aps);
    for req in pool {
        flat.extend(req.rss_dbm.iter().map(|&d| dbm_to_unit(d)));
    }
    model.predict(&Matrix::from_vec(pool.len(), n_aps, flat).unwrap())
}

/// Served labels over TCP == in-process service == offline `predict`,
/// bitwise, for the whole request pool.
#[test]
fn tcp_predictions_match_offline_predict_bitwise() {
    let (data, model, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let pool = safeloc_serve::request_pool(&data);
    assert!(!pool.is_empty());

    let offline = offline_labels(&model, data.building.num_aps(), &pool);

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
    let mut nan = vec![-60.0; data.building.num_aps()];
    nan[1] = f32::NAN;
    match client.localize(&LocalizeRequest::new(data.building.id, "phone", nan)) {
        Err(WireError::Peer { code, message }) => {
            assert_eq!(code, ERR_SERVE);
            assert_eq!(message, "AP reading 1 is NaN");
        }
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

/// Phones at the same time: four `WireClient`s on their own threads send
/// the whole pool at once, each from another starting offset, so their
/// requests share micro-batches. Every answer still equals the in-process
/// service and offline `predict` — label, position, device class and
/// model version.
#[test]
fn concurrent_tcp_clients_match_in_process_and_offline_predict() {
    const CLIENTS: usize = 4;
    let (data, model, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let pool = safeloc_serve::request_pool(&data);
    let offline = offline_labels(&model, data.building.num_aps(), &pool);
    let direct: Vec<LocalizeResponse> = pool
        .iter()
        .map(|req| service.localize(req).unwrap())
        .collect();

    let start = Barrier::new(CLIENTS);
    let served: Vec<Vec<(usize, LocalizeResponse)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, pool, start) = (server.addr(), &pool, &start);
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).unwrap();
                    start.wait();
                    let offset = c * pool.len() / CLIENTS;
                    let answers = (0..pool.len())
                        .map(|k| {
                            let i = (offset + k) % pool.len();
                            (i, client.localize(&pool[i]).unwrap())
                        })
                        .collect();
                    client.bye();
                    answers
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for answers in &served {
        assert_eq!(answers.len(), pool.len(), "a request went unanswered");
        for (i, wired) in answers {
            assert_eq!(wired, &direct[*i], "TCP answer diverged from in-process");
            assert_eq!(wired.label, offline[*i], "TCP label diverged from offline");
        }
    }
    service.shutdown();
}
