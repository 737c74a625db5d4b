//! Row-major `f32` matrix with the operations needed by dense networks.
//!
//! The type is deliberately small: no views, no broadcasting beyond the
//! row-bias case that dense layers need, no BLAS. Dimension mismatches in
//! arithmetic are programming errors and panic with a clear message; fallible
//! construction from user data goes through [`Matrix::from_vec`], which
//! returns a [`ShapeError`].

use crate::kernels;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when constructing a [`Matrix`] from data whose length does
/// not match the requested shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Rows requested.
    pub rows: usize,
    /// Columns requested.
    pub cols: usize,
    /// Length of the data actually supplied.
    pub len: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data length {} does not match shape {}x{}",
            self.len, self.rows, self.cols
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix of `f32`.
///
/// `Matrix` is the only tensor type in the SAFELOC stack; vectors are
/// represented as `1 x n` or `n x 1` matrices, and a batch of fingerprints as
/// a `(batch, n_aps)` matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// The empty `0 x 0` matrix — the canonical "unshaped buffer" the
    /// workspace APIs start from.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})[", self.rows, self.cols)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major `data`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} but row 0 has length {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Reshapes `self` to `rows x cols`, reusing the backing allocation
    /// when its capacity suffices. Contents are unspecified afterwards;
    /// callers overwrite them. This is the primitive the allocation-free
    /// training workspace is built on: after the first (warmup) pass every
    /// buffer already has the right capacity and this never allocates.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into `self`, reshaping as needed (no allocation once
    /// capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out = self * rhs`, writing into a caller-owned buffer (reshaped as
    /// needed; allocation-free once warm). See [`kernels::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.ensure_shape(self.rows, rhs.cols);
        kernels::matmul_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transposed_into(rhs, &mut out);
        out
    }

    /// `out = self * rhs^T`, writing into a caller-owned buffer. See
    /// [`kernels::matmul_transposed_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transposed_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.ensure_shape(self.rows, rhs.rows);
        kernels::matmul_transposed_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.rows,
        );
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn transposed_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transposed_matmul_into(rhs, &mut out);
        out
    }

    /// `out = self^T * rhs`, writing into a caller-owned buffer. See
    /// [`kernels::transposed_matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn transposed_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "transposed_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.ensure_shape(self.cols, rhs.cols);
        kernels::transposed_matmul_into(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b, "add")
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b, "sub")
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b, "hadamard")
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * rhs` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        self.assert_same_shape(rhs, "axpy");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * scalar).collect(),
        }
    }

    /// In-place `self *= scalar`.
    pub fn scale_assign(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds a `1 x cols` bias row to every row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "bias length {} does not match {} columns",
            bias.cols, self.cols
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (o, b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Adds a `1 x cols` bias row to every row of `self`, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(
            bias.cols, self.cols,
            "bias length {} does not match {} columns",
            bias.cols, self.cols
        );
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (o, b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Sums each column into a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums each column into `out` (reshaped to `1 x cols`;
    /// allocation-free once warm).
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.ensure_shape(1, self.cols);
        out.fill(0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius (L2) norm of the matrix viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        kernels::sum_squares(&self.data).sqrt()
    }

    /// L2 distance between `self` and `rhs` viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l2_distance(&self, rhs: &Matrix) -> f32 {
        self.assert_same_shape(rhs, "l2_distance");
        kernels::squared_distance(&self.data, &rhs.data).sqrt()
    }

    /// Dot product of the two matrices viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn flat_dot(&self, rhs: &Matrix) -> f32 {
        self.assert_same_shape(rhs, "flat_dot");
        kernels::dot(&self.data, &rhs.data)
    }

    /// Index of the maximum element in row `r` (first occurrence on ties).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or the matrix has zero columns.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        assert!(!row.is_empty(), "argmax of empty row");
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Argmax of every row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.argmax_row(r)).collect()
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        kernels::has_non_finite(&self.data)
    }

    fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32, op: &str) -> Matrix {
        self.assert_same_shape(rhs, op);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    #[inline]
    fn assert_same_shape(&self, rhs: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 3, vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            ShapeError {
                rows: 2,
                cols: 3,
                len: 5
            }
        );
        assert!(err.to_string().contains("2x3"));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transposed_matmul_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(
            3,
            4,
            &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
        );
        let fast = a.transposed_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_is_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1.0, 1.0, 1.0]);
        let b = m(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let x = m(2, 3, &[0.0; 6]);
        let b = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses_batch() {
        let x = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.sum_rows().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let x = m(2, 2, &[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(x.sum(), -2.0);
        assert_eq!(x.mean(), -0.5);
        assert!((x.l2_norm() - 30.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(x.max_abs(), 4.0);
    }

    #[test]
    fn l2_distance_is_symmetric_and_zero_on_self() {
        let a = m(1, 4, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(1, 4, &[0.0, 2.0, 3.0, 8.0]);
        assert_eq!(a.l2_distance(&a), 0.0);
        assert!((a.l2_distance(&b) - b.l2_distance(&a)).abs() < 1e-7);
        assert!((a.l2_distance(&b) - 17.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        let x = m(1, 4, &[0.0, 3.0, 3.0, 1.0]);
        assert_eq!(x.argmax_row(0), 1);
    }

    #[test]
    fn argmax_rows_per_row() {
        let x = m(2, 3, &[0.0, 1.0, 0.0, 5.0, 1.0, 0.0]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn clamp_bounds_elements() {
        let x = m(1, 3, &[-1.0, 0.5, 2.0]);
        assert_eq!(x.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut x = m(1, 2, &[1.0, 2.0]);
        assert!(!x.has_non_finite());
        x.set(0, 1, f32::NAN);
        assert!(x.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn debug_is_never_empty() {
        let x = Matrix::zeros(0, 0);
        assert!(!format!("{x:?}").is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let x = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&x).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, x);
    }
}
