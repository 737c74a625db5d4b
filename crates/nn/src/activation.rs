//! Elementwise activation functions with explicit backward passes.

use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// An elementwise activation function.
///
/// The backward pass takes the layer's *pre-activation* input and the
/// gradient flowing from above, returning the gradient with respect to the
/// pre-activation values. Softmax is intentionally absent: classification
/// heads emit logits and use the fused
/// [`SparseCrossEntropyLoss`](crate::SparseCrossEntropyLoss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)` — used by every hidden layer in the paper's
    /// models.
    Relu,
}

impl Activation {
    /// Applies the activation to every element of `x`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.forward_assign(&mut out);
        out
    }

    /// Applies the activation in place — the hot-path variant used by the
    /// allocation-free training workspace.
    pub fn forward_assign(&self, x: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => x.map_assign(|v| v.max(0.0)),
        }
    }

    /// Gradient with respect to the pre-activation input.
    ///
    /// `pre` is the matrix that was passed to [`Activation::forward`] and
    /// `grad_out` is `dL/d(forward(pre))`.
    ///
    /// # Panics
    ///
    /// Panics if `pre` and `grad_out` have different shapes.
    pub fn backward(&self, pre: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        self.backward_assign(pre, &mut grad);
        grad
    }

    /// Multiplies `grad` by the activation derivative at `pre`, in place —
    /// no mask matrix is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `pre` and `grad` have different shapes.
    pub fn backward_assign(&self, pre: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            pre.shape(),
            grad.shape(),
            "activation backward shape mismatch"
        );
        let pre = pre.as_slice();
        let grad = grad.as_mut_slice();
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &p) in grad.iter_mut().zip(pre) {
                    if p <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(act: Activation, x: f32) -> f32 {
        let h = 1e-3;
        let a = act.forward(&Matrix::row_vector(&[x + h]));
        let b = act.forward(&Matrix::row_vector(&[x - h]));
        (a.get(0, 0) - b.get(0, 0)) / (2.0 * h)
    }

    #[test]
    fn relu_forward() {
        let x = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        assert_eq!(Activation::Relu.forward(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let points = [-1.5f32, -0.3, 0.4, 2.0];
        for act in [Activation::Identity, Activation::Relu] {
            for &p in &points {
                let pre = Matrix::row_vector(&[p]);
                let ones = Matrix::row_vector(&[1.0]);
                let analytic = act.backward(&pre, &ones).get(0, 0);
                let numeric = finite_diff(act, p);
                assert!(
                    (analytic - numeric).abs() < 1e-2,
                    "{act:?} at {p}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn backward_scales_with_upstream_gradient() {
        let pre = Matrix::row_vector(&[2.0, -2.0]);
        let g = Matrix::row_vector(&[3.0, 3.0]);
        let out = Activation::Relu.backward(&pre, &g);
        assert_eq!(out.as_slice(), &[3.0, 0.0]);
    }
}
