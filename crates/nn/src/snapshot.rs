//! File snapshots of parameters and networks — the persistence primitive
//! behind the serving-side model registry.
//!
//! Two envelope formats, both JSON with a schema tag so a wrong or stale
//! file fails loudly instead of deserializing into garbage:
//!
//! * **Parameter snapshots** ([`save_params`] / [`load_params`]) carry a
//!   bare [`NamedParams`] — the currency of federated aggregation.
//!   [`load_params_into`] additionally loads into an existing model and
//!   surfaces any architecture mismatch through the existing
//!   [`ParamError`] type (wrapped in [`SnapshotError::Arch`]).
//! * **Network snapshots** ([`save_network`] / [`load_network`]) carry a
//!   full [`Sequential`] (layers + activations), so a process that never
//!   saw the training code can reconstruct a servable model.
//!
//! Weights are finite by invariant (the FL layer drops non-finite updates
//! before they reach a global model); a snapshot containing NaN/Inf would
//! serialize to JSON `null` and fail to load, which is the desired outcome.

use crate::params::{HasParams, NamedParams, ParamError};
use crate::sequential::Sequential;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Schema tag of parameter-snapshot files.
pub const PARAMS_SCHEMA: &str = "safeloc-nn/params/v1";

/// Schema tag of full-network snapshot files.
pub const NETWORK_SCHEMA: &str = "safeloc-nn/network/v1";

/// Error loading or saving a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not valid JSON, carries the wrong schema tag, or does
    /// not deserialize into the expected shape.
    Parse(String),
    /// The snapshot parsed but does not match the target model's
    /// architecture (count / name / shape mismatch).
    Arch(ParamError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            SnapshotError::Arch(e) => write!(f, "snapshot architecture mismatch: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ParamError> for SnapshotError {
    fn from(e: ParamError) -> Self {
        SnapshotError::Arch(e)
    }
}

#[derive(Serialize, Deserialize)]
struct ParamsFile {
    schema: String,
    params: NamedParams,
}

#[derive(Serialize, Deserialize)]
struct NetworkFile {
    schema: String,
    network: Sequential,
}

/// Verifies a file's schema tag — shared by every schema-tagged snapshot
/// format (including the serving-side registry files).
///
/// # Errors
///
/// Returns [`SnapshotError::Parse`] naming both tags on mismatch.
pub fn check_schema(found: &str, expected: &str) -> Result<(), SnapshotError> {
    if found == expected {
        Ok(())
    } else {
        Err(SnapshotError::Parse(format!(
            "wrong schema: expected {expected:?}, found {found:?}"
        )))
    }
}

/// Serializes `value` as JSON to `path` — the write half of every
/// schema-tagged snapshot format (callers embed their schema tag in
/// `value`).
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be written.
pub fn write_json_file<T: serde::Serialize>(
    path: impl AsRef<Path>,
    value: &T,
) -> Result<(), SnapshotError> {
    let json = serde_json::to_string(value).map_err(|e| SnapshotError::Parse(format!("{e:?}")))?;
    std::fs::write(path.as_ref(), json).map_err(|e| SnapshotError::Io(e.to_string()))
}

/// Reads and deserializes a JSON file — the read half of every
/// schema-tagged snapshot format (callers [`check_schema`] afterwards).
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read, [`SnapshotError::Parse`]
/// on malformed JSON or a shape mismatch.
pub fn read_json_file<T: serde::Deserialize>(path: impl AsRef<Path>) -> Result<T, SnapshotError> {
    let json =
        std::fs::read_to_string(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
    serde_json::from_str(&json).map_err(|e| SnapshotError::Parse(format!("{e:?}")))
}

/// Writes a parameter snapshot to `path`.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if the file cannot be written.
// pub-ok: single-model file persistence is library API; no in-repo caller
// yet (the serve registry saves whole registries via `write_json_file`).
pub fn save_params(path: impl AsRef<Path>, params: &NamedParams) -> Result<(), SnapshotError> {
    write_json_file(
        path,
        &ParamsFile {
            schema: PARAMS_SCHEMA.to_string(),
            params: params.clone(),
        },
    )
}

/// Reads a parameter snapshot from `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read, [`SnapshotError::Parse`]
/// on malformed JSON or a wrong schema tag.
pub fn load_params(path: impl AsRef<Path>) -> Result<NamedParams, SnapshotError> {
    let file: ParamsFile = read_json_file(path)?;
    check_schema(&file.schema, PARAMS_SCHEMA)?;
    Ok(file.params)
}

/// Loads a parameter snapshot from `path` into `model`.
///
/// The model is left unchanged on any error.
///
/// # Errors
///
/// Everything [`load_params`] reports, plus [`SnapshotError::Arch`] when
/// the snapshot does not match the model's architecture.
// pub-ok: single-model file persistence is library API; no in-repo caller
// yet (the serve registry saves whole registries via `write_json_file`).
pub fn load_params_into<M: HasParams>(
    model: &mut M,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let params = load_params(path)?;
    model.load(&params)?;
    Ok(())
}

/// Writes a full-network snapshot to `path`.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if the file cannot be written.
// pub-ok: single-model file persistence is library API; no in-repo caller
// yet (the serve registry saves whole registries via `write_json_file`).
pub fn save_network(path: impl AsRef<Path>, network: &Sequential) -> Result<(), SnapshotError> {
    write_json_file(
        path,
        &NetworkFile {
            schema: NETWORK_SCHEMA.to_string(),
            network: network.clone(),
        },
    )
}

/// Reads a full-network snapshot from `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read, [`SnapshotError::Parse`]
/// on malformed JSON or a wrong schema tag.
// pub-ok: single-model file persistence is library API; no in-repo caller
// yet (the serve registry saves whole registries via `write_json_file`).
pub fn load_network(path: impl AsRef<Path>) -> Result<Sequential, SnapshotError> {
    let file: NetworkFile = read_json_file(path)?;
    check_schema(&file.schema, NETWORK_SCHEMA)?;
    Ok(file.network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::tensor::Matrix;
    use std::path::PathBuf;

    /// A unique temp path per test (process id + name keeps parallel test
    /// binaries from colliding).
    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "safeloc_snapshot_{}_{name}.json",
            std::process::id()
        ));
        p
    }

    #[test]
    fn params_round_trip_bitwise() {
        let net = Sequential::mlp(&[5, 4, 3], Activation::Relu, 9);
        let snap = net.snapshot();
        let path = tmp("params_rt");
        save_params(&path, &snap).unwrap();
        let back = load_params(&path).unwrap();
        assert_eq!(back, snap, "file round trip must be bitwise");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn network_round_trip_preserves_predictions() {
        let net = Sequential::mlp(&[6, 5, 4], Activation::Relu, 3);
        let path = tmp("network_rt");
        save_network(&path, &net).unwrap();
        let back = load_network(&path).unwrap();
        let x = Matrix::from_rows(&[vec![0.1, -0.4, 0.9, 0.0, 0.3, -0.7]]);
        assert_eq!(net.forward(&x), back.forward(&x));
        assert_eq!(net, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_into_surfaces_arch_mismatch_and_leaves_model_unchanged() {
        let donor = Sequential::mlp(&[5, 4, 3], Activation::Relu, 1);
        let path = tmp("params_mismatch");
        save_params(&path, &donor.snapshot()).unwrap();
        let mut wrong = Sequential::mlp(&[5, 6, 3], Activation::Relu, 2);
        let before = wrong.snapshot();
        let err = load_params_into(&mut wrong, &path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Arch(ParamError::ShapeMismatch { .. })),
            "{err}"
        );
        assert_eq!(wrong.snapshot(), before, "model must be untouched on error");
        // A matching model loads fine.
        let mut right = Sequential::mlp(&[5, 4, 3], Activation::Relu, 7);
        load_params_into(&mut right, &path).unwrap();
        assert_eq!(right.snapshot(), donor.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_and_missing_files_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{ not json at all").unwrap();
        assert!(matches!(load_params(&path), Err(SnapshotError::Parse(_))));
        assert!(matches!(load_network(&path), Err(SnapshotError::Parse(_))));
        // Truncated but valid-prefix JSON.
        std::fs::write(&path, "{\"schema\": \"safeloc-nn/params/v1\"").unwrap();
        assert!(matches!(load_params(&path), Err(SnapshotError::Parse(_))));
        std::fs::remove_file(&path).ok();
        assert!(matches!(load_params(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn wrong_schema_is_rejected_both_ways() {
        let net = Sequential::mlp(&[3, 2], Activation::Relu, 0);
        let path = tmp("schema_mix");
        // A network file is not a params file and vice versa.
        save_network(&path, &net).unwrap();
        assert!(matches!(load_params(&path), Err(SnapshotError::Parse(_))));
        save_params(&path, &net.snapshot()).unwrap();
        assert!(matches!(load_network(&path), Err(SnapshotError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }
}
