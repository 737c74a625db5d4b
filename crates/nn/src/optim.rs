//! Optimizers: plain SGD and Adam (the paper trains everything with Adam).

use crate::kernels::{adam_update, AdamStep};
use crate::params::HasParams;
use crate::tensor::Matrix;

/// A source of parameter tensors streamed to an optimizer in fixed order.
///
/// Every [`HasParams`] model is a `ParamStream` (via
/// [`HasParams::visit_param_tensors_mut`]), as is a plain
/// `Vec<&mut Matrix>`. Streaming lets optimizers update parameters without
/// the caller materializing a reference `Vec` per step — one of the two
/// allocations the workspace training path eliminates.
pub trait ParamStream {
    /// Calls `f` once per parameter tensor, in the model's canonical
    /// order.
    fn visit(&mut self, f: &mut dyn FnMut(&mut Matrix));
}

impl<T: HasParams> ParamStream for T {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Matrix)) {
        self.visit_param_tensors_mut(f);
    }
}

impl ParamStream for Vec<&mut Matrix> {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Matrix)) {
        for p in self.iter_mut() {
            f(p);
        }
    }
}

/// A first-order optimizer over an ordered list of parameter tensors.
///
/// The parameter order must be stable across calls — optimizers with state
/// (Adam) key their moment estimates by position. Models expose their
/// parameters in a fixed order via [`crate::HasParams`].
pub trait Optimizer {
    /// Applies one update step to parameters streamed by `params`
    /// (allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Panics if the stream and `grads` differ in length or any pair
    /// differs in shape, or (for stateful optimizers) if shapes changed
    /// between calls.
    fn step_stream(&mut self, params: &mut dyn ParamStream, grads: &[Matrix]);

    /// Applies one update step to an explicit parameter list.
    ///
    /// # Panics
    ///
    /// As [`Optimizer::step_stream`].
    fn step(&mut self, mut params: Vec<&mut Matrix>, grads: &[Matrix]) {
        self.step_stream(&mut params, grads);
    }

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (used for the reduced client-side rate).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent: `p -= lr * g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step_stream(&mut self, params: &mut dyn ParamStream, grads: &[Matrix]) {
        let lr = self.lr;
        let mut i = 0;
        params.visit(&mut |p| {
            assert!(i < grads.len(), "params/grads length mismatch");
            p.axpy(-lr, &grads[i]);
            i += 1;
        });
        assert_eq!(i, grads.len(), "params/grads length mismatch");
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) with bias-corrected moment estimates.
///
/// The paper's configuration is `lr = 0.001` for server-side training and
/// `lr = 0.0001` for lightweight client-side updates; betas and epsilon are
/// the standard defaults.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyperparameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Clears the moment estimates (e.g. when re-using the optimizer for a
    /// fresh model of the same shape).
    pub fn reset_state(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

impl Optimizer for Adam {
    fn step_stream(&mut self, params: &mut dyn ParamStream, grads: &[Matrix]) {
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            self.v = grads.iter().map(|g| vec![0.0; g.len()]).collect();
        }
        assert_eq!(self.m.len(), grads.len(), "parameter count changed");
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let (moments_m, moments_v) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        params.visit(&mut |p| {
            assert!(idx < grads.len(), "params/grads length mismatch");
            let g = &grads[idx];
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            // The kernel checks all four lengths: a moment buffer of another
            // length means the parameter shapes changed between steps.
            adam_update(
                p.as_mut_slice(),
                g.as_slice(),
                &mut moments_m[idx],
                &mut moments_v[idx],
                &step,
            );
            idx += 1;
        });
        assert_eq!(idx, grads.len(), "params/grads length mismatch");
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Matrix) -> Matrix {
        // L = sum(p^2) => dL/dp = 2p
        p.scale(2.0)
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut p = Matrix::row_vector(&[5.0, -3.0]);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = quadratic_grad(&p);
            opt.step(vec![&mut p], &[g]);
        }
        assert!(p.l2_norm() < 1e-3, "did not converge: {p:?}");
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut p = Matrix::row_vector(&[5.0, -3.0]);
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let g = quadratic_grad(&p);
            opt.step(vec![&mut p], &[g]);
        }
        assert!(p.l2_norm() < 1e-2, "did not converge: {p:?}");
    }

    #[test]
    fn adam_handles_sparse_gradient_scales() {
        // Ill-conditioned quadratic: Adam should still make progress on the
        // shallow direction thanks to per-coordinate scaling.
        let mut p = Matrix::row_vector(&[1.0, 1.0]);
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let g = Matrix::row_vector(&[2.0 * p.get(0, 0) * 100.0, 2.0 * p.get(0, 1) * 0.01]);
            opt.step(vec![&mut p], &[g]);
        }
        assert!(p.get(0, 0).abs() < 1e-2);
        assert!(
            p.get(0, 1).abs() < 0.5,
            "shallow direction made no progress"
        );
    }

    #[test]
    fn first_adam_step_is_lr_sized() {
        // With bias correction the very first step is ~lr * sign(g).
        let mut p = Matrix::row_vector(&[0.0]);
        let mut opt = Adam::new(0.1);
        let g = Matrix::row_vector(&[3.7]);
        opt.step(vec![&mut p], &[g]);
        assert!((p.get(0, 0) + 0.1).abs() < 1e-4, "got {}", p.get(0, 0));
    }

    #[test]
    fn learning_rate_accessors() {
        let mut a = Adam::new(0.001);
        assert_eq!(a.learning_rate(), 0.001);
        a.set_learning_rate(0.0001);
        assert_eq!(a.learning_rate(), 0.0001);
        assert_eq!(a.steps(), 0);
    }

    #[test]
    fn reset_state_clears_moments() {
        let mut p = Matrix::row_vector(&[1.0]);
        let mut opt = Adam::new(0.1);
        opt.step(vec![&mut p], &[Matrix::row_vector(&[1.0])]);
        assert_eq!(opt.steps(), 1);
        opt.reset_state();
        assert_eq!(opt.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "params/grads length mismatch")]
    fn step_validates_lengths() {
        let mut p = Matrix::row_vector(&[1.0]);
        Sgd::new(0.1).step(vec![&mut p], &[]);
    }
}
