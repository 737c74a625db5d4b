//! Synthetic Wi-Fi RSS fingerprint substrate for the SAFELOC reproduction.
//!
//! The paper evaluates on a proprietary dataset: RSS fingerprints collected
//! in five university buildings with six heterogeneous smartphones. That data
//! is not public, so this crate builds the closest synthetic equivalent that
//! exercises the same code paths:
//!
//! * [`Building`] — a floorplan with reference points (RPs) laid out on a
//!   1 m-granularity walking path and Wi-Fi access points (APs) scattered
//!   over the floor. [`Building::paper`] reconstructs the five buildings with
//!   the paper's exact RP/AP counts.
//! * [`PropagationModel`] — log-distance path loss with log-normal shadow
//!   fading; [`RadioMap`] freezes one realization per building so that every
//!   fingerprint of the same RP is spatially consistent.
//! * [`DeviceProfile`] — per-device gain offset, RSS scaling, sensitivity
//!   floor and measurement noise: the *device heterogeneity* the paper
//!   stresses. [`DeviceProfile::paper_fleet`] returns the six phones.
//! * [`FingerprintSet`] — a `(batch, n_aps)` matrix of `[0,1]`-normalized
//!   RSS rows plus RP labels, ready for the models in `safeloc-nn`.
//! * [`BuildingDataset`] — the full experimental bundle: server-side
//!   training split (Motorola Z2, 5 fingerprints/RP), per-client local data
//!   and held-out test splits (1 fingerprint/RP), exactly mirroring the
//!   paper's §V.A protocol.
//!
//! # Example
//!
//! ```
//! use safeloc_dataset::{Building, DatasetConfig, BuildingDataset};
//!
//! let cfg = DatasetConfig::tiny(); // small counts for tests/docs
//! let data = BuildingDataset::generate(Building::tiny(7), &cfg, 7);
//! assert_eq!(data.server_train.x.cols(), data.building.num_aps());
//! assert!(data.server_train.x.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

pub mod building;
pub mod device;
pub mod fingerprint;
pub mod generator;
pub mod normalize;
pub mod propagation;

pub use building::{AccessPoint, Building, ReferencePoint};
pub use device::{DeviceCatalog, DeviceProfile};
pub use fingerprint::FingerprintSet;
pub use generator::{BuildingDataset, DatasetConfig};
pub use normalize::{dbm_to_unit, unit_to_dbm, RSS_FLOOR_DBM};
pub use propagation::{PropagationModel, RadioMap};
