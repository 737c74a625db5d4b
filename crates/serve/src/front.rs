//! The device-aware request front: raw phone fingerprints in, routed and
//! normalized model inputs out.
//!
//! A [`LocalizeRequest`] is what a phone actually sends: raw dBm readings
//! plus its self-reported device model string. The front applies the
//! paper's heterogeneity-aware standardization (dBm in `[-100, 0]` →
//! `[0, 1]`, exactly [`safeloc_dataset::dbm_to_unit`]) and resolves the
//! device string through the [`DeviceCatalog`] to a model-variant key —
//! the HetNN mapping. Devices the catalog does not know fall back to the
//! building's default model instead of failing: serving must degrade
//! gracefully for phones the survey never saw.

use crate::registry::{ModelRegistry, ServedModel, DEFAULT_CLASS};
use safeloc_dataset::{dbm_to_unit, unit_to_dbm, BuildingDataset, DeviceCatalog};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One localization query as a phone submits it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizeRequest {
    /// Building the phone believes it is in.
    pub building: usize,
    /// Self-reported device model string (free-form; resolved through the
    /// catalog, unknown models use the building default).
    pub device: String,
    /// Raw RSS readings in dBm, one per AP in building feature order.
    pub rss_dbm: Vec<f32>,
}

impl LocalizeRequest {
    /// Creates a request.
    pub fn new(building: usize, device: &str, rss_dbm: Vec<f32>) -> Self {
        Self {
            building,
            device: device.to_string(),
            rss_dbm,
        }
    }
}

/// Builds a request-prototype pool from a dataset's held-out test splits:
/// one [`LocalizeRequest`] per test fingerprint, carrying the collecting
/// device's model name and the fingerprint denormalized back to raw dBm
/// (the wire format phones actually send).
pub fn request_pool(data: &BuildingDataset) -> Vec<LocalizeRequest> {
    let mut pool = Vec::new();
    for (device, set) in data.devices.iter().zip(&data.client_test) {
        for r in 0..set.x.rows() {
            let rss_dbm: Vec<f32> = set.x.row(r).iter().map(|&u| unit_to_dbm(u)).collect();
            pool.push(LocalizeRequest::new(
                data.building.id,
                &device.name,
                rss_dbm,
            ));
        }
    }
    pool
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalizeResponse {
    /// Predicted reference-point label.
    pub label: usize,
    /// Metric coordinates of the predicted RP, when the serving model
    /// knows the floorplan.
    pub position: Option<(f32, f32)>,
    /// Device class the request was routed to ([`DEFAULT_CLASS`] when the
    /// device was unknown or had no variant of its own).
    pub device_class: String,
    /// Version of the model snapshot that served the request.
    pub model_version: u64,
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model is published for the building (not even a default).
    UnknownBuilding(usize),
    /// The fingerprint's AP count differs from the serving model's input.
    WrongDimension {
        /// APs the model expects.
        expected: usize,
        /// APs the request carried.
        found: usize,
    },
    /// An AP reading is NaN. Normalization clamps, and a clamp passes NaN
    /// through, so admitting it would serve an argmax over NaN logits.
    NanReading {
        /// Position of the first NaN in the fingerprint.
        index: usize,
    },
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownBuilding(b) => write!(f, "no model published for building {b}"),
            ServeError::WrongDimension { expected, found } => {
                write!(f, "expected {expected} AP readings, got {found}")
            }
            ServeError::NanReading { index } => write!(f, "AP reading {index} is NaN"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A request admitted past the front: normalized features plus the exact
/// model snapshot that will serve it.
///
/// Admission pins the snapshot — this is what makes hot swaps clean: a
/// publish between admission and execution does not retarget the request.
#[derive(Debug, Clone)]
pub struct AdmittedRequest {
    /// `[0, 1]`-normalized features, one per AP.
    pub features: Vec<f32>,
    /// Resolved device class (catalog spelling, or [`DEFAULT_CLASS`]).
    pub device_class: String,
    /// The pinned model snapshot.
    pub model: Arc<ServedModel>,
}

/// The stateless admission front over a registry + device catalog.
#[derive(Debug)]
pub struct RequestFront {
    registry: Arc<ModelRegistry>,
    catalog: DeviceCatalog,
}

impl RequestFront {
    /// A front routing through `registry` with `catalog` as the HetNN
    /// device mapping.
    pub fn new(registry: Arc<ModelRegistry>, catalog: DeviceCatalog) -> Self {
        Self { registry, catalog }
    }

    /// The registry this front routes through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Admits one request: resolves the device class, pins the serving
    /// snapshot and normalizes the fingerprint.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownBuilding`] when the registry holds no model
    /// for the building, [`ServeError::WrongDimension`] when the
    /// fingerprint width does not match the resolved model,
    /// [`ServeError::NanReading`] when a reading is NaN.
    pub fn admit(&self, request: &LocalizeRequest) -> Result<AdmittedRequest, ServeError> {
        let class = self
            .catalog
            .canonical_name(&request.device)
            .unwrap_or(DEFAULT_CLASS);
        let model = self
            .registry
            .resolve(request.building, class)
            .ok_or(ServeError::UnknownBuilding(request.building))?;
        let expected = model.network.in_dim();
        let rss = &request.rss_dbm;
        if rss.len() != expected {
            return Err(ServeError::WrongDimension {
                expected,
                found: rss.len(),
            });
        }
        // An or-fold rather than `position`: with no early exit it
        // vectorizes (~17 vs ~165 ns over 203 readings on one x86-64
        // core), and the index is searched for only on the error path.
        if rss.iter().fold(false, |nan, dbm| nan | dbm.is_nan()) {
            if let Some(index) = rss.iter().position(|dbm| dbm.is_nan()) {
                return Err(ServeError::NanReading { index });
            }
        }
        Ok(AdmittedRequest {
            features: rss.iter().map(|&dbm| dbm_to_unit(dbm)).collect(),
            // The routed class is the model's own class: a device with no
            // variant of its own reports the fallback it actually used.
            device_class: model.key.device_class.clone(),
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelKey;
    use safeloc_nn::{Activation, Sequential};

    fn front_with(buildings: &[(usize, &str)]) -> RequestFront {
        let registry = Arc::new(ModelRegistry::new());
        for &(b, class) in buildings {
            registry.publish(
                ModelKey::new(b, class),
                Sequential::mlp(&[4, 6, 3], Activation::Relu, b as u64),
                None,
            );
        }
        RequestFront::new(registry, DeviceCatalog::paper())
    }

    #[test]
    fn known_device_routes_to_its_variant() {
        let front = front_with(&[(1, DEFAULT_CLASS), (1, "HTC U11")]);
        let req = LocalizeRequest::new(1, "htc u11", vec![-50.0; 4]);
        let admitted = front.admit(&req).unwrap();
        assert_eq!(admitted.device_class, "HTC U11");
        assert_eq!(admitted.model.key.device_class, "HTC U11");
    }

    #[test]
    fn unknown_device_and_unvarianted_device_fall_back_to_default() {
        let front = front_with(&[(1, DEFAULT_CLASS), (1, "HTC U11")]);
        for device in ["Pixel 9", "OnePlus 3"] {
            let admitted = front
                .admit(&LocalizeRequest::new(1, device, vec![-50.0; 4]))
                .unwrap();
            assert_eq!(admitted.device_class, DEFAULT_CLASS, "{device}");
        }
    }

    #[test]
    fn normalization_is_the_paper_standardization() {
        let front = front_with(&[(1, DEFAULT_CLASS)]);
        let req = LocalizeRequest::new(1, "Pixel 9", vec![-100.0, -50.0, 0.0, -120.0]);
        let admitted = front.admit(&req).unwrap();
        assert_eq!(admitted.features[0], 0.0);
        assert!((admitted.features[1] - 0.5).abs() < 1e-6);
        assert_eq!(admitted.features[2], 1.0);
        assert_eq!(admitted.features[3], 0.0, "below-floor readings clamp");
    }

    #[test]
    fn admission_errors_are_specific() {
        let front = front_with(&[(1, DEFAULT_CLASS)]);
        assert_eq!(
            front
                .admit(&LocalizeRequest::new(9, "x", vec![-50.0; 4]))
                .unwrap_err(),
            ServeError::UnknownBuilding(9)
        );
        assert_eq!(
            front
                .admit(&LocalizeRequest::new(1, "x", vec![-50.0; 3]))
                .unwrap_err(),
            ServeError::WrongDimension {
                expected: 4,
                found: 3
            }
        );
    }

    /// A clamp passes NaN through and an argmax over NaN logits is label
    /// 0, so a NaN reading must stop at admission, not come back as an
    /// answer. Infinite readings are not errors: they clamp to the ends.
    #[test]
    fn nan_readings_are_rejected_by_index() {
        let front = front_with(&[(1, DEFAULT_CLASS)]);
        for (rss, index) in [
            (vec![f32::NAN, -50.0, -60.0, -70.0], 0),
            (vec![-50.0, -60.0, f32::NAN, f32::NAN], 2),
        ] {
            assert_eq!(
                front
                    .admit(&LocalizeRequest::new(1, "Pixel 9", rss))
                    .unwrap_err(),
                ServeError::NanReading { index }
            );
        }
        let admitted = front
            .admit(&LocalizeRequest::new(
                1,
                "Pixel 9",
                vec![f32::INFINITY, f32::NEG_INFINITY, -50.0, -60.0],
            ))
            .unwrap();
        assert_eq!(admitted.features[..2], [1.0, 0.0]);
    }
}
