//! The versioned model registry: hot-swappable global models keyed by
//! (building × device class).
//!
//! The registry is the hand-off point between training and serving. FL
//! sessions publish hardened global models into it (directly or through
//! [`RegistryPublisher`](crate::RegistryPublisher)); the request front
//! resolves each query to one [`ServedModel`] out of it. Three invariants
//! drive the design:
//!
//! * **No torn weights.** Models are immutable once published: a publish
//!   swaps an `Arc<ServedModel>` pointer under the key, never mutates
//!   weights in place. A reader that resolved a model keeps serving that
//!   exact snapshot until it resolves again.
//! * **Readers never block publishers** (and vice versa) beyond a
//!   pointer-sized critical section: the lock guards only the map of
//!   `Arc`s — cloning an `Arc` out or swapping one in — never a weight
//!   copy or a forward pass. The map is keyed building → device class, so
//!   a lookup borrows the request's class name: resolving a request
//!   allocates nothing.
//! * **Versions are monotone per key.** Every publish bumps the key's
//!   version; readers can therefore assert freshness and the hot-swap
//!   tests can pin "in-flight requests finish on the old version,
//!   subsequent requests observe the new one".
//!
//! Registries persist across processes through [`ModelRegistry::save`] /
//! [`ModelRegistry::load`] (schema-tagged JSON of full networks, built on
//! the same serde layer as [`safeloc_nn::snapshot`]).

use safeloc_dataset::Building;
use safeloc_nn::{Matrix, NamedParams, ParamError, Sequential};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Schema tag of registry snapshot files.
pub const REGISTRY_SCHEMA: &str = "safeloc-serve/registry/v1";

/// The device class a building's fallback model is registered under —
/// requests from devices the catalog does not know route here.
pub const DEFAULT_CLASS: &str = "*";

/// Registry key: one model variant per (building, device class).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelKey {
    /// Building identifier.
    pub building: usize,
    /// Device class name ([`DEFAULT_CLASS`] for the building default).
    pub device_class: String,
}

impl ModelKey {
    /// A per-device-class key.
    pub fn new(building: usize, device_class: &str) -> Self {
        Self {
            building,
            device_class: device_class.to_string(),
        }
    }

    /// The building's default-model key.
    pub fn default_for(building: usize) -> Self {
        Self::new(building, DEFAULT_CLASS)
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}/{}", self.building, self.device_class)
    }
}

/// One immutable, servable model snapshot.
///
/// Published once, never mutated: hot swaps replace the whole value. The
/// optional geometry lets responses carry metric coordinates next to the
/// RP label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedModel {
    /// The key this snapshot is published under.
    pub key: ModelKey,
    /// Monotone per-key version (1-based).
    pub version: u64,
    /// The network weights being served.
    pub network: Sequential,
    /// Floorplan for label → coordinate mapping, when known.
    pub geometry: Option<Building>,
}

impl ServedModel {
    /// Batch prediction through the rayon-parallel hot path — the same
    /// code offline evaluation uses, so served results are bitwise
    /// comparable.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.network.predict(x)
    }

    /// Metric coordinates of an RP label, when geometry is known.
    pub fn position_of(&self, label: usize) -> Option<(f32, f32)> {
        self.geometry.as_ref().map(|b| {
            let rp = b.rp_coord(label);
            (rp.x, rp.y)
        })
    }
}

/// Errors publishing into or loading a registry.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Published parameters do not match the key's serving architecture.
    Arch(ParamError),
    /// Snapshot file could not be read or written.
    Io(String),
    /// Snapshot file is malformed or carries the wrong schema.
    Parse(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Arch(e) => write!(f, "registry architecture mismatch: {e}"),
            RegistryError::Io(msg) => write!(f, "registry I/O error: {msg}"),
            RegistryError::Parse(msg) => write!(f, "registry parse error: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<safeloc_nn::SnapshotError> for RegistryError {
    fn from(e: safeloc_nn::SnapshotError) -> Self {
        match e {
            safeloc_nn::SnapshotError::Io(msg) => RegistryError::Io(msg),
            safeloc_nn::SnapshotError::Parse(msg) => RegistryError::Parse(msg),
        }
    }
}

#[derive(Serialize, Deserialize)]
struct RegistryFile {
    schema: String,
    models: Vec<ServedModel>,
}

/// Published models by building, then device class.
type Models = HashMap<usize, HashMap<String, Arc<ServedModel>>>;

/// The registry: an atomically swappable map of published models.
///
/// Cheaply shareable behind an [`Arc`]; all methods take `&self`.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<Models>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-locks the map, recovering from poison: every mutation is a
    /// single insert or slot swap that either happened or did not, so a
    /// panicking publisher cannot leave the map torn and the serving
    /// path must not abort because an unrelated thread died.
    fn read_models(&self) -> RwLockReadGuard<'_, Models> {
        self.models.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-locks the map with the same poison recovery as
    /// [`Self::read_models`].
    fn write_models(&self) -> RwLockWriteGuard<'_, Models> {
        self.models.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a network under `key`, atomically replacing any previous
    /// version; returns the new version number.
    ///
    /// The critical section is one slot swap (or, for a new key, one
    /// insert) — in-flight batches keep the `Arc` they already resolved
    /// and finish on the old snapshot.
    pub fn publish(&self, key: ModelKey, network: Sequential, geometry: Option<Building>) -> u64 {
        let mut models = self.write_models();
        let classes = models.entry(key.building).or_default();
        let slot = classes.get_mut(key.device_class.as_str());
        let version = slot.as_ref().map_or(1, |m| m.version + 1);
        let model = Arc::new(ServedModel {
            key,
            version,
            network,
            geometry,
        });
        match slot {
            Some(slot) => *slot = model,
            None => {
                classes.insert(model.key.device_class.clone(), model);
            }
        }
        version
    }

    /// Publishes new *parameters* under `key`: loads them into the key's
    /// current serving network and publishes the result — the shape the
    /// FL layer produces ([`NamedParams`] global models).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Arch`] if the key has no current model to load
    /// into (reported as a count mismatch against an empty architecture)
    /// or the parameters do not fit its architecture; nothing is published
    /// on error.
    pub fn publish_params(
        &self,
        key: &ModelKey,
        params: &NamedParams,
    ) -> Result<u64, RegistryError> {
        use safeloc_nn::HasParams;
        let current = self
            .get(key)
            .ok_or(RegistryError::Arch(ParamError::CountMismatch {
                expected: 0,
                found: params.len(),
            }))?;
        let mut network = current.network.clone();
        network.load(params).map_err(RegistryError::Arch)?;
        Ok(self.publish(key.clone(), network, current.geometry.clone()))
    }

    /// The current model under `key`, if any.
    pub fn get(&self, key: &ModelKey) -> Option<Arc<ServedModel>> {
        let models = self.read_models();
        let classes = models.get(&key.building)?;
        classes.get(key.device_class.as_str()).cloned()
    }

    /// Resolves a request's (building, device class) to a servable model:
    /// the class's own variant when published, else the building default —
    /// the HetNN routing rule. Allocates nothing.
    pub fn resolve(&self, building: usize, device_class: &str) -> Option<Arc<ServedModel>> {
        let models = self.read_models();
        let classes = models.get(&building)?;
        classes
            .get(device_class)
            .or_else(|| classes.get(DEFAULT_CLASS))
            .cloned()
    }

    /// Every published key, sorted for stable iteration.
    pub fn keys(&self) -> Vec<ModelKey> {
        let mut keys: Vec<ModelKey> = {
            let models = self.read_models();
            let published = models.values().flat_map(HashMap::values);
            published.map(|m| m.key.clone()).collect()
        };
        keys.sort_by(|a, b| (a.building, &a.device_class).cmp(&(b.building, &b.device_class)));
        keys
    }

    /// Number of published (building, device class) entries.
    pub fn len(&self) -> usize {
        self.read_models().values().map(HashMap::len).sum()
    }

    /// `true` if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every published model to a schema-tagged snapshot file, in
    /// [`ModelRegistry::keys`] order.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] if the file cannot be written.
    // pub-ok: the registry file is the persistence format crash-consistent
    // rounds resume from (ROADMAP item 11).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        // One read-lock acquisition: the file is a consistent point-in-time
        // snapshot even while publishers keep swapping entries.
        let models: Vec<ServedModel> = {
            let map = self.read_models();
            let published = map.values().flat_map(HashMap::values);
            let mut list: Vec<ServedModel> = published.map(|m| (**m).clone()).collect();
            list.sort_by(|a, b| {
                (a.key.building, &a.key.device_class).cmp(&(b.key.building, &b.key.device_class))
            });
            list
        };
        safeloc_nn::snapshot::write_json_file(
            path,
            &RegistryFile {
                schema: REGISTRY_SCHEMA.to_string(),
                models,
            },
        )?;
        Ok(())
    }

    /// Loads a registry snapshot, restoring every model at its saved
    /// version (so versions stay monotone across process restarts).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] if the file cannot be read,
    /// [`RegistryError::Parse`] on malformed JSON or a wrong schema tag.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RegistryError> {
        let file: RegistryFile = safeloc_nn::snapshot::read_json_file(path)?;
        safeloc_nn::snapshot::check_schema(&file.schema, REGISTRY_SCHEMA)?;
        let registry = Self::new();
        {
            let mut models = registry.write_models();
            for model in file.models {
                let classes = models.entry(model.key.building).or_default();
                classes.insert(model.key.device_class.clone(), Arc::new(model));
            }
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_nn::{Activation, HasParams};

    fn net(seed: u64) -> Sequential {
        Sequential::mlp(&[4, 6, 3], Activation::Relu, seed)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "safeloc_registry_{}_{name}.json",
            std::process::id()
        ));
        p
    }

    #[test]
    fn publish_bumps_versions_per_key() {
        let reg = ModelRegistry::new();
        let key = ModelKey::default_for(1);
        assert_eq!(reg.publish(key.clone(), net(0), None), 1);
        assert_eq!(reg.publish(key.clone(), net(1), None), 2);
        let other = ModelKey::new(2, "HTC U11");
        assert_eq!(reg.publish(other.clone(), net(2), None), 1);
        assert_eq!(reg.get(&key).unwrap().version, 2);
        assert_eq!(reg.get(&other).unwrap().version, 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn resolve_falls_back_to_the_building_default() {
        let reg = ModelRegistry::new();
        reg.publish(ModelKey::default_for(3), net(0), None);
        reg.publish(ModelKey::new(3, "HTC U11"), net(1), None);
        let own = reg.resolve(3, "HTC U11").unwrap();
        assert_eq!(own.key.device_class, "HTC U11");
        let fallback = reg.resolve(3, "Pixel 9").unwrap();
        assert_eq!(fallback.key.device_class, DEFAULT_CLASS);
        assert!(reg.resolve(4, "HTC U11").is_none(), "unknown building");
    }

    #[test]
    fn publish_params_requires_matching_architecture() {
        let reg = ModelRegistry::new();
        let key = ModelKey::default_for(1);
        // No base model yet: params cannot be materialized.
        assert!(matches!(
            reg.publish_params(&key, &net(0).snapshot()),
            Err(RegistryError::Arch(_))
        ));
        reg.publish(key.clone(), net(0), None);
        let v = reg.publish_params(&key, &net(9).snapshot()).unwrap();
        assert_eq!(v, 2);
        assert_eq!(reg.get(&key).unwrap().network, net(9));
        // Wrong architecture is rejected and nothing is published.
        let wrong = Sequential::mlp(&[4, 5, 3], Activation::Relu, 0).snapshot();
        assert!(matches!(
            reg.publish_params(&key, &wrong),
            Err(RegistryError::Arch(_))
        ));
        assert_eq!(reg.get(&key).unwrap().version, 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_models_and_versions() {
        let reg = ModelRegistry::new();
        reg.publish(ModelKey::default_for(1), net(0), Some(Building::tiny(1)));
        reg.publish(ModelKey::default_for(1), net(1), Some(Building::tiny(1)));
        reg.publish(ModelKey::new(1, "OnePlus 3"), net(2), None);
        let path = tmp("round_trip");
        reg.save(&path).unwrap();
        let back = ModelRegistry::load(&path).unwrap();
        assert_eq!(back.keys(), reg.keys());
        for key in reg.keys() {
            let a = reg.get(&key).unwrap();
            let b = back.get(&key).unwrap();
            assert_eq!(a.version, b.version, "{key}");
            assert_eq!(a.network, b.network, "{key}");
            assert_eq!(a.geometry, b.geometry, "{key}");
        }
        // Publishing after a load continues the version sequence.
        assert_eq!(back.publish(ModelKey::default_for(1), net(3), None), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_registry_files_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "[1, 2").unwrap();
        assert!(matches!(
            ModelRegistry::load(&path),
            Err(RegistryError::Parse(_))
        ));
        std::fs::write(&path, "{\"schema\": \"nope\", \"models\": []}").unwrap();
        assert!(matches!(
            ModelRegistry::load(&path),
            Err(RegistryError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            ModelRegistry::load(&path),
            Err(RegistryError::Io(_))
        ));
    }

    #[test]
    fn position_of_maps_labels_to_coordinates() {
        let b = Building::tiny(5);
        let model = ServedModel {
            key: ModelKey::default_for(0),
            version: 1,
            network: Sequential::mlp(&[b.num_aps(), 8, b.num_rps()], Activation::Relu, 0),
            geometry: Some(b.clone()),
        };
        let (x, y) = model.position_of(3).unwrap();
        let rp = b.rp_coord(3);
        assert_eq!((x, y), (rp.x, rp.y));
        let bare = ServedModel {
            geometry: None,
            ..model
        };
        assert!(bare.position_of(3).is_none());
    }
}
