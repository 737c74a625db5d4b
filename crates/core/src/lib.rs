//! # SAFELOC
//!
//! Reproduction of *SAFELOC: Overcoming Data Poisoning Attacks in
//! Heterogeneous Federated Machine Learning for Indoor Localization*
//! (DATE 2025). This crate is the paper's contribution; the substrates live
//! in `safeloc-nn`, `safeloc-dataset`, `safeloc-attacks` and `safeloc-fl`.
//!
//! Two ideas make up the framework:
//!
//! 1. **A fused neural network** ([`FusedNetwork`]): one compact model whose
//!    shared encoder feeds both a de-noising decoder (poison *detection* via
//!    reconstruction error and poison *removal* via reconstruct-then-
//!    re-encode) and a classification head (localization over reference
//!    points). Backdoor-perturbed fingerprints reconstruct poorly — their
//!    reconstruction error (RCE) exceeds a threshold τ — and are replaced by
//!    their reconstructions before local training and inference (§IV.A).
//! 2. **Saliency-map aggregation** ([`SaliencyAggregator`]): at the server,
//!    each local model's weight tensors are compared to the global model's;
//!    elementwise saliency `S = 1/(1 + |ΔW|)` (Eqs. 6–7) down-weights
//!    heavily-deviating tensors — the signature of label-flipped training —
//!    before aggregation (Eqs. 8–9, §IV.B).
//!
//! [`SafeLoc`] wires both into the `safeloc-fl` engine as a
//! [`Framework`](safeloc_fl::Framework).
//!
//! # Example
//!
//! ```
//! use safeloc::{SafeLoc, SafeLocConfig};
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
//! use safeloc_fl::{Client, Framework, RoundPlan};
//!
//! let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
//! let mut framework = SafeLoc::new(
//!     data.building.num_aps(),
//!     data.building.num_rps(),
//!     SafeLocConfig::tiny(),
//! );
//! framework.pretrain(&data.server_train);
//! let mut clients = Client::from_dataset(&data, 1);
//! let plan = RoundPlan::full(clients.len());
//! let report = framework.run_round(&mut clients, &plan);
//! assert_eq!(report.accepted(), report.clients.len());
//! let test = &data.client_test[0];
//! assert!(framework.accuracy(&test.x, &test.labels) > 0.2);
//! ```

pub mod config;
pub mod detector;
pub mod framework;
pub mod fused;
pub mod saliency;

pub use config::{RceMode, SafeLocConfig};
pub use detector::calibrate_tau;
pub use framework::SafeLoc;
pub use fused::{DaeAugment, FusedConfig, FusedNetwork, FusedTrace, FusedWorkspace};
pub use saliency::{saliency_matrix, AggregationMode, SaliencyAggregator};
