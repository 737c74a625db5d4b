//! The training→publish→serve loop end to end: pretrain a global model,
//! publish it (plus a per-device HetNN variant) into the hot-swappable
//! registry, serve micro-batched traffic, and hot-swap the model from a
//! live FL session while requests keep flowing.
//!
//! Run with `cargo run --example serving`.

use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{Client, DefensePipeline, FlSession, Framework, SequentialFlServer, ServerConfig};
use safeloc_serve::{
    request_pool, run_load, LoadPlan, LocalizeRequest, ModelKey, ModelRegistry, RegistryPublisher,
    ServeConfig, Service,
};
use std::sync::Arc;

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

    // Closed-loop load while an FL session hot-swaps the default model
    // every round through the publisher hook.
    println!("running closed-loop load under live FL publishing...");
    let mut session = FlSession::builder(Box::new(server))
        .clients(Client::from_dataset(&data, 7))
        .publisher(Box::new(RegistryPublisher::new(
            Arc::clone(&registry),
            key.clone(),
        )))
        .build();
    let pool = request_pool(&data);
    let stats = std::thread::scope(|scope| {
        let trainer = scope.spawn(move || session.run(3).len());
        let stats = run_load(&service, &pool, &LoadPlan::new(4, 25, 7)).stats();
        let rounds = trainer.join().expect("trainer panicked");
        println!("FL session published {rounds} rounds while serving");
        stats
    });
    println!(
        "{} requests at {:.0} req/s — p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        stats.requests, stats.throughput_rps, stats.p50_ms, stats.p95_ms, stats.p99_ms
    );
    println!(
        "model versions observed in-flight: v{}..v{} (registry now at v{})",
        stats.min_version,
        stats.max_version,
        registry.get(&key).expect("published").version
    );
    service.shutdown();
}
