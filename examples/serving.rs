//! The training→publish→serve loop end to end: pretrain a global model,
//! publish it (plus a per-device HetNN variant) into the hot-swappable
//! registry, serve micro-batched traffic, and hot-swap the model from a
//! live FL session while requests keep flowing. It prints the span of
//! model versions the requests saw; latency and throughput figures are
//! the `benchmark/` workspace's (`serve_tcp`, `serve_surge`).
//!
//! Run with `cargo run --release --example serving`. Exits non-zero if a
//! request goes unanswered or is served by a version the registry never
//! published.

use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{Client, DefensePipeline, FlSession, Framework, SequentialFlServer, ServerConfig};
use safeloc_serve::{
    request_pool, LocalizeRequest, ModelKey, ModelRegistry, RegistryPublisher, ServeConfig, Service,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Phone threads sending requests while the session publishes.
const PHONES: usize = 4;

fn main() {
    // A small building with the six-phone fleet.
    let data = BuildingDataset::generate(Building::tiny(7), &DatasetConfig::tiny(), 7);
    let mut server = SequentialFlServer::new(
        &[data.building.num_aps(), 24, data.building.num_rps()],
        DefensePipeline::fedavg(),
        ServerConfig::tiny(),
    );
    println!("pretraining the global model...");
    server.pretrain(&data.server_train);

    // Publish the pretrained model as the building default, plus one
    // per-device variant (here just the same weights).
    let registry = Arc::new(ModelRegistry::new());
    let key = ModelKey::default_for(data.building.id);
    registry.publish(
        key.clone(),
        server.global_model().clone(),
        Some(data.building.clone()),
    );
    registry.publish(
        ModelKey::new(data.building.id, &data.devices[0].name),
        server.global_model().clone(),
        Some(data.building.clone()),
    );

    // Start the micro-batched service: a worker takes whatever backlog is
    // queued (up to 16 requests) when it is free; only a batch shorter
    // than that waits, 1.2 ms at most, to fill.
    let service = Service::start(
        Arc::clone(&registry),
        DeviceCatalog::new(data.devices.clone()),
        ServeConfig {
            max_batch: 16,
            workers: 2,
        },
    );

    // One query: raw dBm in, location out.
    let request = LocalizeRequest::new(
        data.building.id,
        &data.devices[0].name,
        vec![-60.0; data.building.num_aps()],
    );
    let response = service.localize(&request).expect("served");
    println!(
        "single query: RP {} at {:?} via class {:?}, model v{}",
        response.label, response.position, response.device_class, response.model_version
    );

    // Phones keep sending while an FL session hot-swaps the default model
    // every round through the publisher hook.
    println!("serving {PHONES} phones under live FL publishing...");
    let mut session = FlSession::builder(Box::new(server))
        .clients(Client::from_dataset(&data, 7))
        .publisher(Box::new(RegistryPublisher::new(
            Arc::clone(&registry),
            key.clone(),
        )))
        .build();
    let pool = request_pool(&data);
    let training = AtomicBool::new(true);
    let (rounds, phones) = std::thread::scope(|scope| {
        let phones: Vec<_> = (0..PHONES)
            .map(|phone| {
                let (service, pool, training) = (&service, &pool, &training);
                scope.spawn(move || {
                    // One pass over the pool from this phone's own offset,
                    // then more until the session stops publishing.
                    let start = phone * pool.len() / PHONES;
                    let (mut sent, mut versions) = (0, Vec::new());
                    // relaxed: a stop flag; it publishes no other data.
                    while sent < pool.len() || training.load(Ordering::Relaxed) {
                        let request = &pool[(start + sent) % pool.len()];
                        sent += 1;
                        if let Ok(response) = service.localize(request) {
                            versions.push(response.model_version);
                        }
                    }
                    (sent, versions)
                })
            })
            .collect();
        let rounds = session.run(3).len();
        training.store(false, Ordering::Relaxed);
        let phones: Vec<(usize, Vec<u64>)> = phones
            .into_iter()
            .map(|h| h.join().expect("phone thread panicked"))
            .collect();
        (rounds, phones)
    });
    let sent: usize = phones.iter().map(|(sent, _)| sent).sum();
    let versions: Vec<u64> = phones.into_iter().flat_map(|(_, v)| v).collect();
    let latest = registry.get(&key).expect("published").version;
    let (lo, hi) = (
        versions.iter().min().copied().unwrap_or(0),
        versions.iter().max().copied().unwrap_or(0),
    );
    println!("FL session published {rounds} rounds while the phones sent {sent} requests");
    println!("model versions observed in-flight: v{lo}..v{hi} (registry now at v{latest})");
    assert_eq!(versions.len(), sent, "every request is answered");
    assert!(
        versions.iter().all(|v| (1..=latest).contains(v)),
        "a response carried a version outside v1..v{latest}"
    );
    service.shutdown();
}
