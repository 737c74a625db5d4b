//! Named parameter snapshots — the currency of federated aggregation.
//!
//! A federated round moves model weights around as [`NamedParams`]: an
//! ordered list of `(name, tensor)` pairs. The names make selective
//! aggregation (FEDHIL), per-tensor saliency (SAFELOC) and debugging
//! tractable; the fixed order keeps optimizers and aggregators aligned.

use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced when loading a parameter snapshot into a model whose
/// architecture does not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Snapshot has a different number of tensors than the model.
    CountMismatch {
        /// Tensors expected by the model.
        expected: usize,
        /// Tensors found in the snapshot.
        found: usize,
    },
    /// A tensor's name differs from the model's tensor at that position.
    NameMismatch {
        /// Position in the ordered list.
        index: usize,
        /// Name expected by the model.
        expected: String,
        /// Name found in the snapshot.
        found: String,
    },
    /// A tensor's shape differs from the model's tensor of the same name.
    ShapeMismatch {
        /// Tensor name.
        name: String,
        /// Shape expected by the model.
        expected: (usize, usize),
        /// Shape found in the snapshot.
        found: (usize, usize),
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::CountMismatch { expected, found } => {
                write!(f, "expected {expected} tensors, found {found}")
            }
            ParamError::NameMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "tensor {index}: expected name {expected:?}, found {found:?}"
            ),
            ParamError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "tensor {name:?}: expected shape {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// An ordered, named snapshot of a model's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedParams {
    tensors: Vec<(String, Matrix)>,
}

impl NamedParams {
    /// Creates a snapshot from `(name, tensor)` pairs.
    pub fn new(tensors: Vec<(String, Matrix)>) -> Self {
        Self { tensors }
    }

    /// Number of tensors (not scalar parameters).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` if the snapshot holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.tensors.iter().map(|(_, t)| t.len()).sum()
    }

    /// Iterator over `(name, tensor)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.tensors.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Mutable iterator over `(name, tensor)` pairs in order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Matrix)> {
        self.tensors.iter_mut().map(|(n, t)| (n.as_str(), t))
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Tensor names in order.
    pub fn names(&self) -> Vec<&str> {
        self.tensors.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// `true` if `other` has the same names and shapes in the same order.
    pub fn same_arch(&self, other: &NamedParams) -> bool {
        self.tensors.len() == other.tensors.len()
            && self
                .tensors
                .iter()
                .zip(&other.tensors)
                .all(|((an, at), (bn, bt))| an == bn && at.shape() == bt.shape())
    }

    /// Checks `other` against `self`, reporting the first mismatch.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamError`] found, if any.
    pub fn check_arch(&self, other: &NamedParams) -> Result<(), ParamError> {
        if self.tensors.len() != other.tensors.len() {
            return Err(ParamError::CountMismatch {
                expected: self.tensors.len(),
                found: other.tensors.len(),
            });
        }
        for (i, ((an, at), (bn, bt))) in self.tensors.iter().zip(&other.tensors).enumerate() {
            if an != bn {
                return Err(ParamError::NameMismatch {
                    index: i,
                    expected: an.clone(),
                    found: bn.clone(),
                });
            }
            if at.shape() != bt.shape() {
                return Err(ParamError::ShapeMismatch {
                    name: an.clone(),
                    expected: at.shape(),
                    found: bt.shape(),
                });
            }
        }
        Ok(())
    }

    /// Elementwise difference `self - other`, tensor by tensor.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn delta(&self, other: &NamedParams) -> NamedParams {
        assert!(self.same_arch(other), "delta: architecture mismatch");
        NamedParams {
            tensors: self
                .tensors
                .iter()
                .zip(&other.tensors)
                .map(|((n, a), (_, b))| (n.clone(), a.sub(b)))
                .collect(),
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn axpy(&mut self, alpha: f32, other: &NamedParams) {
        assert!(self.same_arch(other), "axpy: architecture mismatch");
        for ((_, a), (_, b)) in self.tensors.iter_mut().zip(&other.tensors) {
            a.axpy(alpha, b);
        }
    }

    /// Returns `self` scaled elementwise by `alpha`.
    pub fn scale(&self, alpha: f32) -> NamedParams {
        NamedParams {
            tensors: self
                .tensors
                .iter()
                .map(|(n, t)| (n.clone(), t.scale(alpha)))
                .collect(),
        }
    }

    /// L2 norm over all tensors viewed as one flat vector.
    pub fn l2_norm(&self) -> f32 {
        self.tensors
            .iter()
            .map(|(_, t)| {
                let n = t.l2_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// L2 distance to `other` over the flattened parameters.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn l2_distance(&self, other: &NamedParams) -> f32 {
        assert!(self.same_arch(other), "l2_distance: architecture mismatch");
        self.tensors
            .iter()
            .zip(&other.tensors)
            .map(|((_, a), (_, b))| {
                let d = a.l2_distance(b);
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Cosine similarity of the flattened parameter vectors.
    ///
    /// Returns 0 when either vector has zero norm.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn cosine_similarity(&self, other: &NamedParams) -> f32 {
        assert!(self.same_arch(other), "cosine: architecture mismatch");
        let dot: f32 = self
            .tensors
            .iter()
            .zip(&other.tensors)
            .map(|((_, a), (_, b))| a.flat_dot(b))
            .sum();
        let na = self.l2_norm();
        let nb = other.l2_norm();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Averages a non-empty set of architecture-identical snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or architectures differ.
    pub fn mean(items: &[NamedParams]) -> NamedParams {
        assert!(!items.is_empty(), "mean of zero snapshots");
        let mut acc = items[0].clone();
        for item in &items[1..] {
            assert!(acc.same_arch(item), "mean: architecture mismatch");
            for ((_, a), (_, b)) in acc.tensors.iter_mut().zip(&item.tensors) {
                a.add_assign(b);
            }
        }
        let scale = 1.0 / items.len() as f32;
        for (_, t) in &mut acc.tensors {
            t.scale_assign(scale);
        }
        acc
    }

    /// Flattens all tensors into one `1 x num_params` row vector
    /// (used by FEDLS-style latent-space detectors).
    pub fn flatten(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.num_params());
        for (_, t) in &self.tensors {
            data.extend_from_slice(t.as_slice());
        }
        let cols = data.len();
        Matrix::from_vec(1, cols, data).expect("flatten length is consistent by construction")
    }

    /// Writes the flattened delta `self − other` into `out`, in
    /// [`NamedParams::flatten`] order: `delta(other).flatten()` without
    /// the intermediate snapshot or the copy (same subtraction, same
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ or `out.len()` differs from
    /// [`NamedParams::num_params`].
    pub fn delta_flat_into(&self, other: &NamedParams, out: &mut [f32]) {
        assert!(self.same_arch(other), "delta: architecture mismatch");
        assert_eq!(
            out.len(),
            self.num_params(),
            "delta_flat_into: output length mismatch"
        );
        let mut offset = 0;
        for ((_, a), (_, b)) in self.tensors.iter().zip(&other.tensors) {
            let dst = &mut out[offset..offset + a.len()];
            for ((o, x), y) in dst.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
                *o = x - y;
            }
            offset += a.len();
        }
    }

    /// In-place `self += flat`, where `flat` is a flattened-parameter
    /// vector in [`NamedParams::flatten`] order — the inverse direction of
    /// `flatten`, used to re-materialize a model from a flat delta.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`NamedParams::num_params`].
    pub fn add_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "add_flat: flat vector length mismatch"
        );
        let mut offset = 0;
        for (_, t) in &mut self.tensors {
            let slice = t.as_mut_slice();
            let len = slice.len();
            for (dst, src) in slice.iter_mut().zip(&flat[offset..offset + len]) {
                *dst += src;
            }
            offset += len;
        }
    }

    /// `true` if any tensor contains NaN or infinity.
    pub fn has_non_finite(&self) -> bool {
        self.tensors.iter().any(|(_, t)| t.has_non_finite())
    }
}

impl FromIterator<(String, Matrix)> for NamedParams {
    fn from_iter<I: IntoIterator<Item = (String, Matrix)>>(iter: I) -> Self {
        Self {
            tensors: iter.into_iter().collect(),
        }
    }
}

/// A model whose parameters can be snapshotted and replaced — the interface
/// federated learning aggregates over.
pub trait HasParams {
    /// Stable, ordered tensor names (e.g. `layer0.w`, `layer0.b`, …).
    fn param_names(&self) -> Vec<String>;

    /// Ordered immutable references to the parameter tensors.
    fn param_tensors(&self) -> Vec<&Matrix>;

    /// Ordered mutable references to the parameter tensors.
    fn param_tensors_mut(&mut self) -> Vec<&mut Matrix>;

    /// Visits every parameter tensor mutably in [`HasParams::param_names`]
    /// order without materializing the reference `Vec` — the
    /// allocation-free path optimizers stream updates through.
    ///
    /// The default delegates to [`HasParams::param_tensors_mut`] (and thus
    /// allocates); hot-path models override it with a direct loop.
    fn visit_param_tensors_mut(&mut self, f: &mut dyn FnMut(&mut Matrix)) {
        for t in self.param_tensors_mut() {
            f(t);
        }
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.param_tensors().iter().map(|t| t.len()).sum()
    }

    /// Clones the current parameters into a [`NamedParams`] snapshot.
    fn snapshot(&self) -> NamedParams {
        self.param_names()
            .into_iter()
            .zip(self.param_tensors().into_iter().cloned())
            .collect()
    }

    /// Replaces the model's parameters with `params`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if `params` does not match the model's
    /// architecture; the model is left unchanged on error.
    fn load(&mut self, params: &NamedParams) -> Result<(), ParamError> {
        let current = self.snapshot();
        current.check_arch(params)?;
        for (dst, (_, src)) in self
            .param_tensors_mut()
            .into_iter()
            .zip(params.iter().map(|(n, t)| (n, t.clone())))
        {
            *dst = src;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(vals: &[(&str, Vec<f32>)]) -> NamedParams {
        vals.iter()
            .map(|(n, v)| {
                (
                    n.to_string(),
                    Matrix::from_vec(1, v.len(), v.clone()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn num_params_counts_scalars() {
        let p = snap(&[("a", vec![1.0, 2.0]), ("b", vec![3.0])]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_params(), 3);
    }

    #[test]
    fn delta_and_axpy_round_trip() {
        let a = snap(&[("w", vec![3.0, 4.0])]);
        let b = snap(&[("w", vec![1.0, 1.0])]);
        let d = a.delta(&b);
        assert_eq!(d.get("w").unwrap().as_slice(), &[2.0, 3.0]);
        let mut c = b.clone();
        c.axpy(1.0, &d);
        assert_eq!(c, a);
    }

    #[test]
    fn mean_averages() {
        let a = snap(&[("w", vec![0.0, 2.0])]);
        let b = snap(&[("w", vec![4.0, 0.0])]);
        let m = NamedParams::mean(&[a, b]);
        assert_eq!(m.get("w").unwrap().as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn mean_of_single_is_identity() {
        let a = snap(&[("w", vec![1.5, -2.5])]);
        assert_eq!(NamedParams::mean(std::slice::from_ref(&a)), a);
    }

    #[test]
    fn l2_distance_matches_flat_view() {
        let a = snap(&[("w", vec![1.0, 0.0]), ("b", vec![0.0])]);
        let b = snap(&[("w", vec![0.0, 0.0]), ("b", vec![2.0])]);
        assert!((a.l2_distance(&b) - 5.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = snap(&[("w", vec![1.0, 0.0])]);
        let b = snap(&[("w", vec![0.0, 1.0])]);
        let c = snap(&[("w", vec![2.0, 0.0])]);
        let z = snap(&[("w", vec![0.0, 0.0])]);
        assert!((a.cosine_similarity(&b)).abs() < 1e-6);
        assert!((a.cosine_similarity(&c) - 1.0).abs() < 1e-6);
        assert_eq!(a.cosine_similarity(&z), 0.0);
    }

    #[test]
    fn check_arch_reports_mismatches() {
        let a = snap(&[("w", vec![1.0])]);
        let wrong_count = snap(&[("w", vec![1.0]), ("b", vec![1.0])]);
        let wrong_name = snap(&[("x", vec![1.0])]);
        let wrong_shape = snap(&[("w", vec![1.0, 2.0])]);
        assert!(matches!(
            a.check_arch(&wrong_count),
            Err(ParamError::CountMismatch {
                expected: 1,
                found: 2
            })
        ));
        assert!(matches!(
            a.check_arch(&wrong_name),
            Err(ParamError::NameMismatch { index: 0, .. })
        ));
        assert!(matches!(
            a.check_arch(&wrong_shape),
            Err(ParamError::ShapeMismatch { .. })
        ));
        assert!(a.check_arch(&a.clone()).is_ok());
    }

    #[test]
    fn flatten_concatenates_in_order() {
        let p = snap(&[("a", vec![1.0, 2.0]), ("b", vec![3.0])]);
        assert_eq!(p.flatten().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_flat_inverts_flatten_order() {
        let mut p = snap(&[("a", vec![1.0, 2.0]), ("b", vec![3.0])]);
        p.add_flat(&[0.5, -1.0, 2.0]);
        assert_eq!(p.get("a").unwrap().as_slice(), &[1.5, 1.0]);
        assert_eq!(p.get("b").unwrap().as_slice(), &[5.0]);
    }

    #[test]
    fn delta_flat_into_is_delta_then_flatten_bitwise() {
        let a = snap(&[("a", vec![1.5, -2.25]), ("b", vec![0.1, 3.0, -7.0])]);
        let b = snap(&[("a", vec![0.3, 2.0]), ("b", vec![0.1, -1.0e-3, 9.5])]);
        let mut out = [f32::NAN; 5];
        a.delta_flat_into(&b, &mut out);
        assert_eq!(out, a.delta(&b).flatten().as_slice());
    }

    #[test]
    #[should_panic(expected = "add_flat")]
    fn add_flat_rejects_length_mismatch() {
        let mut p = snap(&[("a", vec![1.0, 2.0])]);
        p.add_flat(&[1.0]);
    }

    #[test]
    fn non_finite_propagates() {
        let mut p = snap(&[("a", vec![1.0])]);
        assert!(!p.has_non_finite());
        p.iter_mut().next().unwrap().1.set(0, 0, f32::INFINITY);
        assert!(p.has_non_finite());
    }
}
