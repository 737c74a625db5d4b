//! `safeloc-serve` — the online localization serving subsystem.
//!
//! SAFELOC's end product is a *service*: a fleet of heterogeneous phones
//! submitting RSS fingerprints and getting locations back, while federated
//! rounds keep publishing hardened global models underneath them. This
//! crate closes that training→publish→serve loop in four layers:
//!
//! * [`ModelRegistry`] — versioned, atomically hot-swappable models keyed
//!   by (building × device class), with schema-tagged snapshot
//!   persistence. Published models are immutable; readers resolve an
//!   `Arc` snapshot and can never observe torn weights.
//! * [`RequestFront`] — admission: raw-dBm fingerprints are standardized
//!   exactly like the training data, and the phone's self-reported device
//!   model is resolved through a [`DeviceCatalog`](safeloc_dataset::DeviceCatalog)
//!   to the right model variant (the HetNN mapping), falling back to the
//!   building default for unknown devices.
//! * [`Service`] — micro-batch workers: a batch is the oldest queued
//!   request plus up to 31 more pinned to the same snapshot, run as one
//!   serial [`Sequential::predict_into`](safeloc_nn::Sequential::predict_into)
//!   pass (32 rows is below the 64 at which `predict` goes parallel).
//!   Only a short queue that the last batch emptied waits, up to
//!   [`FILL_WAIT`](service::FILL_WAIT) (1.2 ms), to fill. Served
//!   predictions are bitwise identical to offline `predict` on the same
//!   snapshot for any batching schedule (`tests/service.rs`).
//! * [`RegistryPublisher`] — the closed loop: an
//!   [`FlSession`](safeloc_fl::FlSession) hook that hot-swaps each
//!   round's aggregated model into the registry while the service keeps
//!   answering (`examples/serving.rs` drives both concurrently).
//!
//! [`request_pool`] turns a dataset's held-out fingerprints into the raw
//! dBm requests phones send. Load is driven from outside the library:
//! the `benchmark/` workspace owns every latency and throughput figure.
//!
//! # Example
//!
//! ```
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
//! use safeloc_nn::{Activation, Sequential};
//! use safeloc_serve::{
//!     LocalizeRequest, ModelKey, ModelRegistry, ServeConfig, Service,
//! };
//! use std::sync::Arc;
//!
//! let data = BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3);
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish(
//!     ModelKey::default_for(data.building.id),
//!     Sequential::mlp(
//!         &[data.building.num_aps(), 16, data.building.num_rps()],
//!         Activation::Relu,
//!         7,
//!     ),
//!     Some(data.building.clone()),
//! );
//! let service = Service::start(
//!     Arc::clone(&registry),
//!     DeviceCatalog::new(data.devices.clone()),
//!     ServeConfig::default(),
//! );
//! let request = LocalizeRequest::new(
//!     data.building.id,
//!     &data.devices[0].name,
//!     vec![-60.0; data.building.num_aps()],
//! );
//! let response = service.localize(&request).unwrap();
//! assert!(response.label < data.building.num_rps());
//! assert_eq!(response.model_version, 1);
//! service.shutdown();
//! ```

pub mod front;
pub mod metrics;
pub mod publisher;
mod queue;
pub mod registry;
pub mod service;

pub use front::{
    request_pool, AdmittedRequest, LocalizeRequest, LocalizeResponse, RequestFront, ServeError,
};
pub use metrics::ServeMetrics;
pub use publisher::RegistryPublisher;
pub use registry::{
    ModelKey, ModelRegistry, RegistryError, ServedModel, DEFAULT_CLASS, REGISTRY_SCHEMA,
};
pub use service::{ServeConfig, Service, Ticket};
