//! Schema-tagged JSON files — the persistence primitive behind the
//! serving-side model registry.
//!
//! A snapshot file is a JSON envelope whose `schema` tag is checked on
//! load ([`check_schema`]), so a wrong or stale file fails loudly instead
//! of deserializing into garbage. [`write_json_file`] / [`read_json_file`]
//! are the two halves; callers embed their own tag.
//!
//! Weights are finite by invariant (the FL layer drops non-finite updates
//! before they reach a global model); a snapshot containing NaN/Inf would
//! serialize to JSON `null` and fail to load, which is the desired outcome.

use std::fmt;
use std::path::Path;

/// Error loading or saving a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not valid JSON, carries the wrong schema tag, or does
    /// not deserialize into the expected shape.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

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
