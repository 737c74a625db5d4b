//! Fully-connected layer with explicit forward and backward passes.

use crate::init::Init;
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected (dense) layer: `y = x W + b`.
///
/// Weights are stored `(in_dim, out_dim)` so a `(batch, in_dim)` input maps
/// to a `(batch, out_dim)` output with a single matmul.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
}

/// Gradients produced by [`Dense::backward`].
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// `dL/dW`, shaped like the weight matrix.
    pub w: Matrix,
    /// `dL/db`, shaped like the bias row vector.
    pub b: Matrix,
    /// `dL/dx`, shaped like the layer input — this is what flows to the
    /// previous layer, and ultimately what the gradient-based poisoning
    /// attacks read off at the input.
    pub x: Matrix,
}

impl Dense {
    /// Creates a layer with `init`-initialized weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut impl Rng) -> Self {
        Self {
            w: init.matrix(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters (`in*out + out`).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Simultaneous mutable access to weights and bias (split borrow), used
    /// when collecting all parameter tensors of a model.
    pub fn parts_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.w, &mut self.b)
    }

    /// Forward pass: `x W + b` for a `(batch, in_dim)` input.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass into a caller-owned buffer (allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast_assign(&self.b);
    }

    /// Backward pass.
    ///
    /// `x` is the input that produced the forward output and `grad_out` is
    /// `dL/dy` with shape `(batch, out_dim)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `x`, `grad_out` and the layer.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> DenseGrads {
        let mut w = Matrix::zeros(0, 0);
        let mut b = Matrix::zeros(0, 0);
        let mut gx = Matrix::zeros(0, 0);
        self.backward_into(x, grad_out, &mut w, &mut b, &mut gx);
        DenseGrads { w, b, x: gx }
    }

    /// Backward pass into caller-owned gradient buffers (allocation-free
    /// once warm): `dw = xᵀ·grad_out`, `db = Σ_rows grad_out`,
    /// `dx = grad_out·Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `x`, `grad_out` and the layer.
    pub fn backward_into(
        &self,
        x: &Matrix,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Matrix,
        dx: &mut Matrix,
    ) {
        self.param_grads_into(x, grad_out, dw, db);
        grad_out.matmul_transposed_into(&self.w, dx);
    }

    /// The parameter-gradient half of [`Dense::backward_into`], without the
    /// input gradient — what a training step needs from the first layer,
    /// where `dx` would multiply against the widest weight matrix only to
    /// be discarded.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `x`, `grad_out` and the layer.
    pub fn param_grads_into(
        &self,
        x: &Matrix,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        assert_eq!(grad_out.cols(), self.out_dim(), "grad width mismatch");
        assert_eq!(x.rows(), grad_out.rows(), "batch mismatch");
        x.transposed_matmul_into(grad_out, dw);
        grad_out.sum_rows_into(db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::row_vector(&[0.1, 0.2, 0.3]);
        Dense { w, b }
    }

    #[test]
    fn forward_matches_hand_computation() {
        let l = layer();
        let x = Matrix::row_vector(&[1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.shape(), (1, 3));
        let expect = [5.1, 7.2, 9.3];
        for (a, e) in y.as_slice().iter().zip(expect) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        assert_eq!(layer().num_params(), 2 * 3 + 3);
    }

    #[test]
    fn backward_shapes() {
        let l = layer();
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let g = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        let grads = l.backward(&x, &g);
        assert_eq!(grads.w.shape(), (2, 3));
        assert_eq!(grads.b.shape(), (1, 3));
        assert_eq!(grads.x.shape(), (2, 2));
    }

    /// Finite-difference check of all three gradients on a random layer.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let l = Dense::new(4, 3, Init::HeUniform, &mut rng);
        let x = Init::Uniform(1.0).matrix(2, 4, &mut rng);
        // Scalar loss L = sum(forward(x)).
        let loss = |l: &Dense, x: &Matrix| l.forward(x).sum();
        let grad_out = Matrix::filled(2, 3, 1.0); // dL/dy for L = sum(y)
        let grads = l.backward(&x, &grad_out);
        let h = 1e-3;

        // dL/dW
        for r in 0..4 {
            for c in 0..3 {
                let mut lp = l.clone();
                let mut lm = l.clone();
                lp.w.set(r, c, l.w.get(r, c) + h);
                lm.w.set(r, c, l.w.get(r, c) - h);
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!(
                    (num - grads.w.get(r, c)).abs() < 1e-2,
                    "dW({r},{c}): numeric {num} vs analytic {}",
                    grads.w.get(r, c)
                );
            }
        }
        // dL/db
        for c in 0..3 {
            let mut lp = l.clone();
            let mut lm = l.clone();
            lp.b.set(0, c, l.b.get(0, c) + h);
            lm.b.set(0, c, l.b.get(0, c) - h);
            let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!((num - grads.b.get(0, c)).abs() < 1e-2);
        }
        // dL/dx
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp.set(r, c, x.get(r, c) + h);
                xm.set(r, c, x.get(r, c) - h);
                let num = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
                assert!((num - grads.x.get(r, c)).abs() < 1e-2);
            }
        }
    }
}
