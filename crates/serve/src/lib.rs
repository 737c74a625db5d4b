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
//! * [`Service`] — micro-batch workers: each takes the backlog that
//!   built up while it was busy (up to batch-32; only a shorter batch
//!   waits, 1.2 ms at most, to fill) and runs it through the
//!   rayon-parallel batch-inference hot path. Served predictions are bitwise identical
//!   to offline `predict` on the same snapshot for any batching schedule
//!   (`tests/service.rs`).
//! * [`RegistryPublisher`] + [`run_load`] — the closed loop: an
//!   [`FlSession`](safeloc_fl::FlSession) hook that hot-swaps each
//!   round's aggregated model into the registry, and a closed-loop
//!   synthetic client population measuring throughput and p50/p95/p99
//!   latency against the live service (`examples/serving.rs` drives both
//!   concurrently).
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
pub mod loadgen;
pub mod metrics;
pub mod publisher;
mod queue;
pub mod registry;
pub mod service;

pub use front::{AdmittedRequest, LocalizeRequest, LocalizeResponse, RequestFront, ServeError};
pub use loadgen::{request_pool, run_load, LoadOutcome, LoadPlan, ServingStats};
pub use metrics::ServeMetrics;
pub use publisher::RegistryPublisher;
pub use registry::{
    ModelKey, ModelRegistry, RegistryError, ServedModel, DEFAULT_CLASS, REGISTRY_SCHEMA,
};
pub use service::{ServeConfig, Service, Ticket};
