//! Live telemetry exposition over the wire: a client scrapes a Prometheus
//! snapshot reflecting real served traffic, and the metrics round trip
//! stays parseable end to end.

use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_serve::{ModelKey, ModelRegistry, ServeConfig, Service};
use safeloc_telemetry::parse_prometheus;
use safeloc_wire::{WireClient, WireServer};
use std::sync::Arc;

fn fixture() -> (BuildingDataset, Arc<Service>) {
    let data = BuildingDataset::generate(Building::tiny(6), &DatasetConfig::tiny(), 6);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(
        ModelKey::default_for(data.building.id),
        safeloc_nn::Sequential::mlp(
            &[data.building.num_aps(), 12, data.building.num_rps()],
            safeloc_nn::Activation::Relu,
            1,
        ),
        Some(data.building.clone()),
    );
    // Isolated registry: scrapes must reflect exactly this service's
    // traffic, not whatever other tests put in the global registry.
    let service = Arc::new(Service::start_with_telemetry(
        registry,
        DeviceCatalog::new(data.devices.clone()),
        ServeConfig {
            max_batch: 8,
            workers: 2,
        },
        Arc::new(safeloc_telemetry::Registry::new()),
    ));
    (data, service)
}

#[test]
fn scrape_reflects_served_traffic_and_parses_back() {
    let (data, service) = fixture();
    let server = WireServer::serve(Arc::clone(&service)).unwrap();
    let pool = safeloc_serve::request_pool(&data);
    let mut client = WireClient::connect(server.addr()).unwrap();

    let n_requests = 12.min(pool.len());
    for req in pool.iter().take(n_requests) {
        client.localize(req).unwrap();
    }

    let text = client.scrape_metrics().unwrap();
    let samples = parse_prometheus(&text).expect("exposition parses back");
    let total: f64 = samples
        .iter()
        .filter(|s| s.name == "serve_requests_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(total as usize, n_requests, "scrape counts the real traffic");
    let building_label = data.building.id.to_string();
    assert!(
        samples.iter().any(|s| s.name == "serve_requests_total"
            && s.labels
                .contains(&("building".to_string(), building_label.clone()))),
        "request series carries the building label"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "serve_latency_us_count" && s.value >= n_requests as f64),
        "latency histogram saw every request"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "serve_model_version" && s.value == 1.0),
        "version gauge reports the published snapshot"
    );

    // The connection is still a serving connection after the scrape.
    client.localize(&pool[0]).unwrap();
    client.bye();
}
