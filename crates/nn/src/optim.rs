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
///
/// First moments below `f32::MIN_POSITIVE` in magnitude are stored as
/// zero: a weight whose gradient turned exactly zero (a dead ReLU) would
/// otherwise keep a moment stuck a few subnormal ulps above zero and pay a
/// microcode assist per operation on it at every later step. No parameter
/// bit moves, because the update such a moment produces is at most
/// `lr·MIN_POSITIVE / (bc1·eps)` — under a quarter ulp of any parameter
/// larger than `2²⁵` times that (`≈ 4e-26` at the paper's settings; design
/// rule 6 of [`crate::kernels`]).
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

    /// The moment estimates `(m, v)`, one buffer each per parameter tensor
    /// in stream order (empty before the first step).
    pub fn moments(&self) -> (&[Vec<f32>], &[Vec<f32>]) {
        (&self.m, &self.v)
    }

    /// Clears the moment estimates (e.g. when re-using the optimizer for a
    /// fresh model of the same shape).
    pub fn reset_state(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

/// Step `t`'s bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)`. The exponent
/// saturates at `i32::MAX` — both powers are `0.0` long before it — where
/// a wrapping cast would go negative and turn the corrections into `−inf`.
fn bias_corrections(beta1: f32, beta2: f32, t: u64) -> (f32, f32) {
    let t = i32::try_from(t).unwrap_or(i32::MAX);
    (1.0 - beta1.powi(t), 1.0 - beta2.powi(t))
}

impl Optimizer for Adam {
    fn step_stream(&mut self, params: &mut dyn ParamStream, grads: &[Matrix]) {
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            self.v = grads.iter().map(|g| vec![0.0; g.len()]).collect();
        }
        assert_eq!(self.m.len(), grads.len(), "parameter count changed");
        self.t += 1;
        let (bc1, bc2) = bias_corrections(self.beta1, self.beta2, self.t);
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1,
            bc2,
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

    /// `t as i32` wrapped negative one step past `i32::MAX`: `0.9⁻ⁿ = inf`,
    /// both corrections `−inf`, every update `±0.0` — training silently
    /// stopped.
    #[test]
    fn bias_corrections_saturate_instead_of_wrapping() {
        let (bc1, bc2) = bias_corrections(0.9, 0.999, 1);
        assert_eq!((bc1, bc2), (1.0 - 0.9, 1.0 - 0.999));
        for t in [i32::MAX as u64, i32::MAX as u64 + 1, u64::MAX] {
            assert_eq!(bias_corrections(0.9, 0.999, t), (1.0, 1.0), "t = {t}");
        }
    }

    /// The stuck regime cannot come back unnoticed: through a 2 000-step
    /// fit that kills units (their weights' gradients turn exactly zero
    /// and `m ← 0.9·m` decays for good), no first moment is ever
    /// subnormal. A count, not a timing.
    #[test]
    fn no_first_moment_is_ever_subnormal() {
        use crate::{Activation, Sequential};
        let x = Matrix::from_fn(32, 16, |r, c| ((r * 7 + c * 13) % 10) as f32 / 10.0);
        let labels: Vec<usize> = (0..32).map(|r| r % 4).collect();
        let mut model = Sequential::mlp(&[16, 24, 12, 4], Activation::Relu, 3);
        let mut opt = Adam::new(1e-3);
        let mut was_live = Vec::new();
        for step in 1..=2000 {
            model.train_batch(&x, &labels, &mut opt);
            let (m, _) = opt.moments();
            let subnormal = m.iter().flatten().filter(|m| m.is_subnormal()).count();
            assert_eq!(subnormal, 0, "subnormal first moments after step {step}");
            was_live.resize(m.iter().map(Vec::len).sum(), false);
            for (live, &m) in was_live.iter_mut().zip(m.iter().flatten()) {
                *live |= m != 0.0;
            }
        }
        // The fit did reach the regime: moments that were live have
        // decayed all the way to the flush.
        let (m, _) = opt.moments();
        let flushed = (was_live.iter().zip(m.iter().flatten()))
            .filter(|(&live, &m)| live && m == 0.0)
            .count();
        assert!(flushed > 0, "no unit died; the guard guarded nothing");
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
