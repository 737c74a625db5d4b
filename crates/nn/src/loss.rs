//! Loss functions: mean-squared error (autoencoder reconstruction) and
//! sparse categorical cross-entropy (reference-point classification).
//!
//! Both losses average over *all* elements / rows of the batch, so gradients
//! are already batch-normalized and learning rates transfer across batch
//! sizes.

use crate::tensor::Matrix;

/// Mean-squared-error loss, `mean((pred - target)^2)` over every element.
///
/// The paper trains the fused network's autoencoder with MSE and uses the
/// same quantity (per sample) as the reconstruction error that drives poison
/// detection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MseLoss;

impl MseLoss {
    /// Scalar loss.
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` have different shapes.
    pub fn loss(&self, pred: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(pred.shape(), target.shape(), "mse loss shape mismatch");
        let sum: f32 = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(p, t)| (p - t) * (p - t))
            .sum();
        sum / pred.len().max(1) as f32
    }

    /// Gradient `dL/dpred = 2 (pred - target) / n`.
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` have different shapes.
    pub fn grad(&self, pred: &Matrix, target: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.grad_into(pred, target, &mut out);
        out
    }

    /// [`MseLoss::grad`] into a caller-owned buffer (allocation-free once
    /// warm).
    ///
    /// # Panics
    ///
    /// Panics if `pred` and `target` have different shapes.
    pub fn grad_into(&self, pred: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(pred.shape(), target.shape(), "mse grad shape mismatch");
        let scale = 2.0 / pred.len().max(1) as f32;
        out.ensure_shape(pred.rows(), pred.cols());
        for ((o, &p), &t) in out
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice())
            .zip(target.as_slice())
        {
            *o = (p - t) * scale;
        }
    }

    /// Per-row mean-squared error, one value per batch row.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn per_row(&self, pred: &Matrix, target: &Matrix) -> Vec<f32> {
        assert_eq!(pred.shape(), target.shape(), "per_row shape mismatch");
        (0..pred.rows())
            .map(|r| {
                let p = pred.row(r);
                let t = target.row(r);
                p.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / p.len().max(1) as f32
            })
            .collect()
    }
}

/// Per-row reconstruction error relative to the input's L2 norm,
/// `‖x − x̂‖ / (‖x‖ + 1e-9)` — the detection statistic of SAFELOC's
/// `RceMode::Relative` and of the autoencoder baselines.
///
/// # Panics
///
/// Panics if `recon` and `x` have different shapes.
pub fn relative_error_per_row(recon: &Matrix, x: &Matrix) -> Vec<f32> {
    assert_eq!(recon.shape(), x.shape(), "relative error shape mismatch");
    (0..x.rows())
        .map(|r| {
            let xr = x.row(r);
            let rr = recon.row(r);
            let num: f32 = xr
                .iter()
                .zip(rr)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            let den: f32 = xr.iter().map(|v| v * v).sum::<f32>().sqrt();
            num / (den + 1e-9)
        })
        .collect()
}

/// Sparse categorical cross-entropy over logits, fused with softmax.
///
/// Labels are class indices. The loss is the mean negative log-likelihood
/// over the batch; the gradient with respect to the logits is the numerically
/// friendly `softmax(logits) - onehot(labels)` divided by the batch size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseCrossEntropyLoss;

impl SparseCrossEntropyLoss {
    /// Row-wise softmax of `logits` (numerically stabilized).
    pub fn probabilities(&self, logits: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.probabilities_into(logits, &mut out);
        out
    }

    /// Row-wise softmax into a caller-owned buffer (allocation-free once
    /// warm).
    pub fn probabilities_into(&self, logits: &Matrix, out: &mut Matrix) {
        out.copy_from(logits);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// Mean negative log-likelihood of `labels` under `logits`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or any label is out of
    /// range.
    pub fn loss(&self, logits: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(labels.len(), logits.rows(), "one label per row required");
        let probs = self.probabilities(logits);
        let mut total = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            assert!(
                y < logits.cols(),
                "label {y} out of range {}",
                logits.cols()
            );
            total -= probs.get(r, y).max(1e-12).ln();
        }
        total / labels.len().max(1) as f32
    }

    /// Gradient `dL/dlogits = (softmax - onehot) / batch`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or any label is out of
    /// range.
    pub fn grad(&self, logits: &Matrix, labels: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.loss_and_grad_into(logits, labels, &mut out);
        out
    }

    /// Computes the mean NLL **and** writes `dL/dlogits` into `grad` in one
    /// softmax pass — the fused hot-path variant used by the training
    /// workspace (the separate `loss` + `grad` calls each ran their own
    /// softmax).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or any label is out of
    /// range.
    pub fn loss_and_grad_into(&self, logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> f32 {
        assert_eq!(labels.len(), logits.rows(), "one label per row required");
        self.probabilities_into(logits, grad);
        let batch = labels.len().max(1) as f32;
        let inv_batch = 1.0 / batch;
        let mut total = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            assert!(
                y < logits.cols(),
                "label {y} out of range {}",
                logits.cols()
            );
            let row = grad.row_mut(r);
            total -= row[y].max(1e-12).ln();
            row[y] -= 1.0;
            for v in row.iter_mut() {
                *v *= inv_batch;
            }
        }
        total / batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_is_zero() {
        let x = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(MseLoss.loss(&x, &x), 0.0);
        assert!(MseLoss.grad(&x, &x).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Matrix::row_vector(&[1.0, 2.0]);
        let t = Matrix::row_vector(&[0.0, 4.0]);
        // ((1)^2 + (-2)^2) / 2 = 2.5
        assert!((MseLoss.loss(&p, &t) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn mse_grad_matches_finite_differences() {
        let p = Matrix::row_vector(&[0.3, -0.7, 1.1]);
        let t = Matrix::row_vector(&[0.0, 0.5, 1.0]);
        let g = MseLoss.grad(&p, &t);
        let h = 1e-3;
        for c in 0..3 {
            let mut pp = p.clone();
            let mut pm = p.clone();
            pp.set(0, c, p.get(0, c) + h);
            pm.set(0, c, p.get(0, c) - h);
            let num = (MseLoss.loss(&pp, &t) - MseLoss.loss(&pm, &t)) / (2.0 * h);
            assert!((num - g.get(0, c)).abs() < 1e-3);
        }
    }

    #[test]
    fn per_row_isolates_rows() {
        let p = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0]]);
        let t = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 0.0]]);
        let rows = MseLoss.per_row(&p, &t);
        assert_eq!(rows, vec![0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = SparseCrossEntropyLoss.probabilities(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let b = Matrix::row_vector(&[1001.0, 1002.0, 1003.0]);
        let pa = SparseCrossEntropyLoss.probabilities(&a);
        let pb = SparseCrossEntropyLoss.probabilities(&b);
        for c in 0..3 {
            assert!((pa.get(0, c) - pb.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let logits = Matrix::row_vector(&[10.0, -10.0]);
        assert!(SparseCrossEntropyLoss.loss(&logits, &[0]) < 1e-3);
        assert!(SparseCrossEntropyLoss.loss(&logits, &[1]) > 5.0);
    }

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::row_vector(&[0.0; 4]);
        let l = SparseCrossEntropyLoss.loss(&logits, &[2]);
        assert!((l - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_grad_matches_finite_differences() {
        let logits = Matrix::from_rows(&[vec![0.2, -0.5, 1.3], vec![0.9, 0.1, -0.4]]);
        let labels = [2usize, 0];
        let g = SparseCrossEntropyLoss.grad(&logits, &labels);
        let h = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                let mut lm = logits.clone();
                lp.set(r, c, logits.get(r, c) + h);
                lm.set(r, c, logits.get(r, c) - h);
                let num = (SparseCrossEntropyLoss.loss(&lp, &labels)
                    - SparseCrossEntropyLoss.loss(&lm, &labels))
                    / (2.0 * h);
                assert!(
                    (num - g.get(r, c)).abs() < 1e-3,
                    "({r},{c}): numeric {num} vs analytic {}",
                    g.get(r, c)
                );
            }
        }
    }

    #[test]
    fn ce_grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let g = SparseCrossEntropyLoss.grad(&logits, &[1]);
        let s: f32 = g.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range 3")]
    fn ce_rejects_out_of_range_label() {
        let logits = Matrix::row_vector(&[0.0, 0.0, 0.0]);
        let _ = SparseCrossEntropyLoss.loss(&logits, &[5]);
    }
}
