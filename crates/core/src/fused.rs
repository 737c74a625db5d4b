//! The fused neural network (paper §IV.A, Fig. 3).
//!
//! One compact model with three parts sharing a bottleneck:
//!
//! ```text
//!             ┌────────────┐      ┌───────────────────┐
//!  x ───────▶ │  encoder   │─ z ─▶│ de-noising decoder│──▶ x̂ (reconstruction)
//!  (n_aps)    │ 128-89-62  │  │   │     89-n_aps      │
//!             └────────────┘  │   └───────────────────┘
//!                             │   ┌───────────────────┐
//!                             └──▶│  classifier head  │──▶ logits (n_rps)
//!                                 └───────────────────┘
//! ```
//!
//! Each part is a [`Sequential`] stack — the encoder with ReLU after every
//! layer, the decoder with ReLU on its hidden layers and an identity
//! reconstruction layer, the head one identity layer — so the fused model
//! trains through `Sequential`'s one backward pass
//! ([`Sequential::backward_into`]), called once per stack into one flat
//! gradient list.
//!
//! The reconstruction error between `x` and `x̂` drives backdoor *detection*
//! (RCE > τ ⇒ flagged); flagged fingerprints are *de-noised* by re-encoding
//! their reconstruction and classifying the new latent vector. Following the
//! paper's "freeze the gradients from the encoder" note, reconstruction
//! gradients are stopped at the bottleneck by default, so the encoder is
//! shaped by the classification loss while the decoder learns to invert it.

use crate::config::RceMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeloc_attacks::GradientSource;
use safeloc_fl::client::PredictLabels;
use safeloc_nn::{
    gather_labels_into, gather_rows, gather_rows_into, relative_error_per_row, shuffled_batches,
    Activation, Dense, ForwardTrace, HasParams, Init, Matrix, MseLoss, Optimizer, Sequential,
    SparseCrossEntropyLoss, TrainConfig,
};
use serde::{Deserialize, Serialize};

/// Architecture description for a [`FusedNetwork`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedConfig {
    /// Input width (number of APs).
    pub input_dim: usize,
    /// Encoder widths; the last entry is the bottleneck (paper: 128-89-62).
    pub encoder_dims: Vec<usize>,
    /// Decoder hidden widths (paper: 89); the final reconstruction layer
    /// back to `input_dim` is appended automatically.
    pub decoder_hidden: Vec<usize>,
    /// Number of reference points (classifier width).
    pub n_classes: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl FusedConfig {
    /// The paper's architecture for a given input width and class count.
    pub fn paper(input_dim: usize, n_classes: usize, seed: u64) -> Self {
        Self {
            input_dim,
            encoder_dims: vec![128, 89, 62],
            decoder_hidden: vec![89],
            n_classes,
            seed,
        }
    }
}

/// The fused autoencoder + classifier model: three stacks over one
/// bottleneck.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedNetwork {
    enc: Sequential,
    dec: Sequential,
    cls: Sequential,
}

/// Cached forward state for one batch: one [`ForwardTrace`] per stack.
///
/// Reusable: [`FusedNetwork::forward_trace_into`] reshapes the cached
/// matrices in place, so a trace that has seen a batch shape once never
/// allocates for it again.
#[derive(Debug, Clone, Default)]
pub struct FusedTrace {
    enc: ForwardTrace,
    dec: ForwardTrace,
    cls: ForwardTrace,
}

impl FusedTrace {
    /// Reconstruction of the input.
    pub fn recon(&self) -> &Matrix {
        self.dec.output()
    }

    /// Classification logits.
    pub fn logits(&self) -> &Matrix {
        self.cls.output()
    }
}

/// Reusable scratch buffers for one fused-network training stream — the
/// `Workspace` pattern of `safeloc-nn`, extended to the two-headed model:
/// the forward trace, the flat gradient list, the logits gradient and the
/// ping-pong matrices the three stacks' backward passes stream through.
/// After one warmup step on a batch shape, a full
/// [`FusedNetwork::train_batch_weighted_with`] step performs **zero heap
/// allocations** — pinned by `crates/core/tests/alloc_free.rs`.
#[derive(Debug, Clone, Default)]
pub struct FusedWorkspace {
    trace: FusedTrace,
    /// Flat gradients in [`HasParams`] order (`enc0.w, enc0.b, …, dec…,
    /// cls.w, cls.b`).
    grads: Vec<Matrix>,
    /// `dL/d logits`.
    d_logits: Matrix,
    /// Gradient flowing backwards through the decoder, then the encoder;
    /// starts as `recon_weight · dL/d recon`.
    grad_cur: Matrix,
    /// Scratch for the layer-below gradient; swapped with `grad_cur`.
    grad_next: Matrix,
    /// The classifier head's bottleneck gradient, merged with the
    /// decoder's at the bottleneck.
    dz_cls: Matrix,
}

impl FusedWorkspace {
    /// An empty workspace; buffers are shaped on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The forward trace of the last step.
    pub fn trace(&self) -> &FusedTrace {
        &self.trace
    }
}

/// Device-heterogeneity augmentation used during fused-network training:
/// per-row constant offset (a phone's calibration bias) plus per-element
/// Gaussian jitter (antenna/channel response), in normalized RSS units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DaeAugment {
    /// Std-dev of the per-row constant offset.
    pub offset_std: f32,
    /// Std-dev of the per-element jitter.
    pub noise_std: f32,
}

impl DaeAugment {
    /// The default augmentation, matching the fleet's dB-domain spread.
    pub fn paper() -> Self {
        Self {
            offset_std: 0.08,
            noise_std: 0.04,
        }
    }

    /// Returns an augmented copy of `x`, clamped to `[0, 1]`.
    pub fn apply(&self, x: &Matrix, rng: &mut impl rand::Rng) -> Matrix {
        use rand_distr::{Distribution, Normal};
        let offset = Normal::new(0.0f32, self.offset_std.max(1e-9)).expect("finite std");
        let jitter = Normal::new(0.0f32, self.noise_std.max(1e-9)).expect("finite std");
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row_offset = offset.sample(rng);
            for v in out.row_mut(r) {
                // Unheard APs (exact zeros) stay unheard: device bias cannot
                // conjure signal out of the noise floor.
                if *v > 0.0 {
                    *v = (*v + row_offset + jitter.sample(rng)).clamp(0.0, 1.0);
                }
            }
        }
        out
    }
}

/// Detection-aware prediction output.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Predicted RP label per row.
    pub labels: Vec<usize>,
    /// Whether each row was flagged (RCE > τ) and de-noised.
    pub flagged: Vec<bool>,
    /// Per-row reconstruction error.
    pub rce: Vec<f32>,
}

impl FusedNetwork {
    /// Builds the network described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension list is empty or zero-width.
    pub fn new(cfg: &FusedConfig) -> Self {
        assert!(
            !cfg.encoder_dims.is_empty(),
            "encoder needs at least one layer"
        );
        assert!(
            cfg.input_dim > 0 && cfg.n_classes > 0,
            "degenerate dimensions"
        );
        // One RNG stream in a fixed order — encoder, decoder, head — keeps
        // every seed's initial weights.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut layer = |from: usize, to: usize| {
            assert!(to > 0, "zero-width layer");
            Dense::new(from, to, Init::HeUniform, &mut rng)
        };
        let mut enc = Vec::with_capacity(cfg.encoder_dims.len());
        let mut prev = cfg.input_dim;
        for &d in &cfg.encoder_dims {
            enc.push(layer(prev, d));
            prev = d;
        }
        let bottleneck = prev;
        let mut dec = Vec::with_capacity(cfg.decoder_hidden.len() + 1);
        for &d in &cfg.decoder_hidden {
            dec.push(layer(prev, d));
            prev = d;
        }
        dec.push(layer(prev, cfg.input_dim));
        let cls = layer(bottleneck, cfg.n_classes);
        let enc_acts = vec![Activation::Relu; enc.len()];
        let mut dec_acts = vec![Activation::Relu; dec.len()];
        *dec_acts.last_mut().expect("reconstruction layer") = Activation::Identity;
        Self {
            enc: Sequential::from_layers(enc, enc_acts),
            dec: Sequential::from_layers(dec, dec_acts),
            cls: Sequential::from_layers(vec![cls], vec![Activation::Identity]),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.enc.in_dim()
    }

    /// Number of reference-point classes.
    pub fn n_classes(&self) -> usize {
        self.cls.out_dim()
    }

    /// Full forward pass with cached intermediates.
    pub fn forward_trace(&self, x: &Matrix) -> FusedTrace {
        let mut trace = FusedTrace::default();
        self.forward_trace_into(x, &mut trace);
        trace
    }

    /// Forward pass into a reusable trace (allocation-free once warm).
    pub fn forward_trace_into(&self, x: &Matrix, trace: &mut FusedTrace) {
        self.enc.forward_trace_into(x, &mut trace.enc);
        self.dec
            .forward_trace_into(trace.enc.output(), &mut trace.dec);
        self.cls
            .forward_trace_into(trace.enc.output(), &mut trace.cls);
    }

    /// Plain classification (no detection): encode → classify → argmax.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.cls.forward(&self.enc.forward(x)).argmax_rows()
    }

    /// Per-row reconstruction error under `mode`.
    pub fn rce(&self, x: &Matrix, mode: RceMode) -> Vec<f32> {
        let recon = self.dec.forward(&self.enc.forward(x));
        rce_rows(x, &recon, mode)
    }

    /// The paper's client-side inference (§IV.A): rows whose RCE ≤ τ are
    /// classified from their latent vector; rows above τ are de-noised —
    /// their *reconstruction* is re-encoded and that latent vector is
    /// classified instead.
    pub fn predict_with_detection(&self, x: &Matrix, tau: f32, mode: RceMode) -> DetectionOutcome {
        let z = self.enc.forward(x);
        let recon = self.dec.forward(&z);
        let rce = rce_rows(x, &recon, mode);
        let mut labels = self.cls.forward(&z).argmax_rows();
        let flagged: Vec<bool> = rce.iter().map(|&r| r > tau).collect();
        let flagged_rows: Vec<usize> = flagged
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
            .collect();
        if !flagged_rows.is_empty() {
            let sub = gather_rows(&recon, &flagged_rows);
            let relabeled = self.predict(&sub);
            for (slot, &row) in flagged_rows.iter().enumerate() {
                labels[row] = relabeled[slot];
            }
        }
        DetectionOutcome {
            labels,
            flagged,
            rce,
        }
    }

    /// Replaces rows whose RCE exceeds τ with their reconstructions — the
    /// de-noising step applied to a client's local data before retraining.
    pub fn denoise_matrix(&self, x: &Matrix, tau: f32, mode: RceMode) -> (Matrix, Vec<bool>) {
        let recon = self.dec.forward(&self.enc.forward(x));
        let rce = rce_rows(x, &recon, mode);
        let mut out = x.clone();
        let mut flagged = vec![false; x.rows()];
        for (r, &err) in rce.iter().enumerate() {
            if err > tau {
                flagged[r] = true;
                let src = recon.row(r).to_vec();
                for (dst, v) in out.row_mut(r).iter_mut().zip(src) {
                    *dst = v.clamp(0.0, 1.0);
                }
            }
        }
        (out, flagged)
    }

    /// One optimizer step on a batch with the joint loss
    /// `CE(logits, labels) + recon_weight · MSE(recon, x)` through a
    /// reusable workspace; returns `(ce, mse)`. With `detach_decoder` the
    /// reconstruction gradient stops at the bottleneck.
    ///
    /// Zero heap allocations once `ws` has seen the batch shape (the
    /// optimizer's state warms up on its first step the same way) —
    /// verified by `crates/core/tests/alloc_free.rs`.
    pub fn train_batch_weighted_with(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        detach_decoder: bool,
        recon_weight: f32,
        ws: &mut FusedWorkspace,
    ) -> (f32, f32) {
        let FusedWorkspace {
            trace,
            grads,
            d_logits,
            grad_cur,
            grad_next,
            dz_cls,
        } = ws;
        self.forward_trace_into(x, trace);
        let ce = SparseCrossEntropyLoss.loss_and_grad_into(trace.logits(), labels, d_logits);
        let mse = MseLoss.loss(trace.recon(), x);
        MseLoss.grad_into(trace.recon(), x, grad_cur);
        grad_cur.scale_assign(recon_weight);

        // One flat gradient list in `HasParams` order, one slice per stack.
        let (ne, nd) = (2 * self.enc.depth(), 2 * self.dec.depth());
        grads.resize_with(ne + nd + 2, || Matrix::zeros(0, 0));
        let (enc_grads, rest) = grads.split_at_mut(ne);
        let (dec_grads, cls_grads) = rest.split_at_mut(nd);

        // The head leaves its bottleneck gradient in `d_logits`; swapping
        // it back into `dz_cls` keeps every buffer in the same role, and so
        // at the same capacity, from step to step.
        self.cls
            .backward_into(&trace.cls, cls_grads, d_logits, dz_cls, true);
        std::mem::swap(d_logits, dz_cls);
        // A detached decoder's bottleneck gradient would be discarded, so
        // its widest backward product is skipped.
        self.dec
            .backward_into(&trace.dec, dec_grads, grad_cur, grad_next, !detach_decoder);
        // Merge at the bottleneck ("freeze the gradients from the encoder":
        // detached mode drops the decoder's).
        if detach_decoder {
            grad_cur.copy_from(dz_cls);
        } else {
            grad_cur.add_assign(dz_cls);
        }
        self.enc
            .backward_into(&trace.enc, enc_grads, grad_cur, grad_next, false);
        opt.step_stream(self, grads);
        (ce, mse)
    }

    /// Full training loop with optional device-heterogeneity augmentation;
    /// returns `(mean_ce, mean_mse)` per epoch.
    ///
    /// With `augment`, a fraction of batches are replaced by augmented
    /// copies (per-row dB-offset plus Gaussian jitter, i.e. the shape of
    /// real device variation), and the autoencoder reconstructs the
    /// *augmented* input. This widens the learned manifold so that clean
    /// data from unseen phones stays below the detection threshold —
    /// the tolerance the paper's τ = 0.1 "10% variance" expresses — while
    /// structured adversarial perturbations remain off-manifold.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_augmented(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        cfg: &TrainConfig,
        detach_decoder: bool,
        recon_weight: f32,
        augment: Option<&DaeAugment>,
    ) -> Vec<(f32, f32)> {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut ws = FusedWorkspace::new();
        let mut bx = Matrix::zeros(0, 0);
        let mut by = Vec::new();
        for _ in 0..cfg.epochs {
            let mut ce_sum = 0.0;
            let mut mse_sum = 0.0;
            let mut batches = 0;
            for batch in shuffled_batches(x.rows(), cfg.batch_size, &mut rng) {
                gather_rows_into(x, &batch, &mut bx);
                gather_labels_into(labels, &batch, &mut by);
                if let Some(a) = augment {
                    if rng.gen_bool(0.7) {
                        bx = a.apply(&bx, &mut rng);
                    }
                }
                let (ce, mse) = self.train_batch_weighted_with(
                    &bx,
                    &by,
                    opt,
                    detach_decoder,
                    recon_weight,
                    &mut ws,
                );
                ce_sum += ce;
                mse_sum += mse;
                batches += 1;
            }
            let denom = batches.max(1) as f32;
            history.push((ce_sum / denom, mse_sum / denom));
        }
        history
    }

    /// Classification accuracy (plain path).
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        self.predict(x)
            .iter()
            .zip(labels)
            .filter(|(p, y)| p == y)
            .count() as f32
            / labels.len() as f32
    }
}

/// Per-row reconstruction error.
fn rce_rows(x: &Matrix, recon: &Matrix, mode: RceMode) -> Vec<f32> {
    match mode {
        RceMode::MeanSquared => MseLoss.per_row(recon, x),
        RceMode::Relative => relative_error_per_row(recon, x),
    }
}

/// The stacks' own tensor lists, chained encoder → decoder → head and
/// named `enc{i}.*`, `dec{i}.*`, `cls.*`.
impl HasParams for FusedNetwork {
    fn param_names(&self) -> Vec<String> {
        let renamed = |stack: &Sequential, from: &str, to: &str| {
            stack
                .param_names()
                .into_iter()
                .map(|n| n.replacen(from, to, 1))
                .collect::<Vec<_>>()
        };
        let mut names = renamed(&self.enc, "layer", "enc");
        names.extend(renamed(&self.dec, "layer", "dec"));
        names.extend(renamed(&self.cls, "layer0", "cls"));
        names
    }

    fn param_tensors(&self) -> Vec<&Matrix> {
        let mut out = self.enc.param_tensors();
        out.extend(self.dec.param_tensors());
        out.extend(self.cls.param_tensors());
        out
    }

    fn param_tensors_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = self.enc.param_tensors_mut();
        out.extend(self.dec.param_tensors_mut());
        out.extend(self.cls.param_tensors_mut());
        out
    }

    fn visit_param_tensors_mut(&mut self, f: &mut dyn FnMut(&mut Matrix)) {
        self.enc.visit_param_tensors_mut(f);
        self.dec.visit_param_tensors_mut(f);
        self.cls.visit_param_tensors_mut(f);
    }
}

impl PredictLabels for FusedNetwork {
    fn predict_labels(&self, x: &Matrix) -> Vec<usize> {
        self.predict(x)
    }
}

impl GradientSource for FusedNetwork {
    /// The decoder does not feed the logits, so only the encoder and the
    /// head run, forward and back.
    fn loss_input_gradient(&self, x: &Matrix, labels: &[usize]) -> Matrix {
        let (mut enc, mut cls) = (ForwardTrace::new(), ForwardTrace::new());
        self.enc.forward_trace_into(x, &mut enc);
        self.cls.forward_trace_into(enc.output(), &mut cls);
        let mut grad = SparseCrossEntropyLoss.grad(cls.output(), labels);
        let mut scratch = Matrix::zeros(0, 0);
        let mut cls_grads = vec![Matrix::zeros(0, 0); 2];
        let mut enc_grads = vec![Matrix::zeros(0, 0); 2 * self.enc.depth()];
        self.cls
            .backward_into(&cls, &mut cls_grads, &mut grad, &mut scratch, true);
        self.enc
            .backward_into(&enc, &mut enc_grads, &mut grad, &mut scratch, true);
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_nn::Adam;

    fn cfg() -> FusedConfig {
        FusedConfig {
            input_dim: 10,
            encoder_dims: vec![12, 6],
            decoder_hidden: vec![12],
            n_classes: 4,
            seed: 7,
        }
    }

    fn toy_data() -> (Matrix, Vec<usize>) {
        // Four well-separated prototypes + noise-free copies.
        let protos = [
            vec![0.9, 0.9, 0.1, 0.1, 0.5, 0.2, 0.8, 0.3, 0.1, 0.6],
            vec![0.1, 0.2, 0.9, 0.8, 0.1, 0.7, 0.2, 0.9, 0.4, 0.1],
            vec![0.5, 0.1, 0.4, 0.2, 0.9, 0.9, 0.1, 0.1, 0.8, 0.3],
            vec![0.2, 0.7, 0.2, 0.6, 0.3, 0.1, 0.5, 0.5, 0.2, 0.9],
        ];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, p) in protos.iter().enumerate() {
            for jitter in 0..6 {
                let row: Vec<f32> = p
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v + 0.01 * ((jitter + i) % 3) as f32).min(1.0))
                    .collect();
                rows.push(row);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn architecture_dimensions() {
        let net = FusedNetwork::new(&cfg());
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.enc.out_dim(), 6);
        assert_eq!(net.n_classes(), 4);
        // enc: 10*12+12 + 12*6+6 = 132+12+72+6 = 210
        // dec: 6*12+12 + 12*10+10 = 84+130 = 214 ... compute precisely below
        let expect = (10 * 12 + 12) + (12 * 6 + 6) + (6 * 12 + 12) + (12 * 10 + 10) + (6 * 4 + 4);
        assert_eq!(net.num_params(), expect);
    }

    #[test]
    fn paper_architecture_matches_section_v() {
        let c = FusedConfig::paper(203, 60, 0);
        let net = FusedNetwork::new(&c);
        assert_eq!(net.enc.out_dim(), 62);
        // encoder 203-128-89-62, decoder 62-89-203, classifier 62-60.
        let expect = (203 * 128 + 128)
            + (128 * 89 + 89)
            + (89 * 62 + 62)
            + (62 * 89 + 89)
            + (89 * 203 + 203)
            + (62 * 60 + 60);
        assert_eq!(net.num_params(), expect);
    }

    #[test]
    fn forward_shapes() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::zeros(3, 10);
        let t = net.forward_trace(&x);
        assert_eq!(t.enc.output().shape(), (3, 6));
        assert_eq!(t.recon().shape(), (3, 10));
        assert_eq!(t.logits().shape(), (3, 4));
    }

    #[test]
    fn joint_training_learns_both_heads() {
        let (x, y) = toy_data();
        let mut net = FusedNetwork::new(&cfg());
        let mut opt = Adam::new(5e-3);
        let hist = net.fit_augmented(
            &x,
            &y,
            &mut opt,
            &TrainConfig::new(300, 0, 1),
            true,
            1.0,
            None,
        );
        let (ce0, mse0) = hist[0];
        let (ce1, mse1) = *hist.last().unwrap();
        assert!(ce1 < ce0 * 0.5, "CE did not drop: {ce0} -> {ce1}");
        assert!(mse1 < mse0 * 0.5, "MSE did not drop: {mse0} -> {mse1}");
        assert!(net.accuracy(&x, &y) > 0.9, "acc {}", net.accuracy(&x, &y));
        // Clean data reconstructs well.
        let rce = net.rce(&x, RceMode::Relative);
        let mean: f32 = rce.iter().sum::<f32>() / rce.len() as f32;
        assert!(mean < 0.2, "clean relative RCE too high: {mean}");
    }

    /// The flat gradients of one training step of a copy of `net` (the
    /// copy's parameters move and are discarded; `net`'s do not).
    fn step_gradients(
        net: &FusedNetwork,
        x: &Matrix,
        y: &[usize],
        detach: bool,
        recon_weight: f32,
    ) -> Vec<Matrix> {
        let mut ws = FusedWorkspace::new();
        net.clone().train_batch_weighted_with(
            x,
            y,
            &mut Adam::new(1e-3),
            detach,
            recon_weight,
            &mut ws,
        );
        ws.grads
    }

    #[test]
    fn weight_gradients_match_finite_differences_joint() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::from_rows(&[vec![0.3; 10], vec![0.7; 10]]);
        let y = [1usize, 2];
        let loss = |n: &FusedNetwork| {
            let t = n.forward_trace(&x);
            SparseCrossEntropyLoss.loss(t.logits(), &y) + MseLoss.loss(t.recon(), &x)
        };
        let grads = step_gradients(&net, &x, &y, false, 1.0);
        let h = 1e-3;
        let names = net.param_names();
        for (ti, tensor) in net.param_tensors().iter().enumerate() {
            let probes = [(0usize, 0usize), (tensor.rows() - 1, tensor.cols() - 1)];
            for &(r, c) in &probes {
                let mut np = net.clone();
                let mut nm = net.clone();
                {
                    let t = &mut np.param_tensors_mut()[ti];
                    let v = t.get(r, c);
                    t.set(r, c, v + h);
                }
                {
                    let t = &mut nm.param_tensors_mut()[ti];
                    let v = t.get(r, c);
                    t.set(r, c, v - h);
                }
                let num = (loss(&np) - loss(&nm)) / (2.0 * h);
                let ana = grads[ti].get(r, c);
                assert!(
                    (num - ana).abs() < 5e-3,
                    "{} ({r},{c}): numeric {num} vs analytic {ana}",
                    names[ti]
                );
            }
        }
    }

    #[test]
    fn detached_mode_zeroes_encoder_recon_gradient() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::from_rows(&[vec![0.4; 10], vec![0.6; 10]]);
        let y = [0usize, 3];
        // The first 4 tensors are the two encoder layers, the next 4 the
        // decoder's. Detached, the reconstruction weight reaches the
        // decoder only.
        let light = step_gradients(&net, &x, &y, true, 1.0);
        let heavy = step_gradients(&net, &x, &y, true, 3.0);
        assert_eq!(light[..4], heavy[..4], "encoder leaked recon gradient");
        assert_ne!(light[4], heavy[4]);
        // Joint mode: it reaches the encoder too.
        let joint = step_gradients(&net, &x, &y, false, 3.0);
        assert_ne!(light[0], joint[0]);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::from_rows(&[vec![0.5, 0.2, 0.8, 0.1, 0.6, 0.3, 0.9, 0.4, 0.7, 0.2]]);
        let y = [2usize];
        let g = net.loss_input_gradient(&x, &y);
        let h = 1e-3;
        for c in [0usize, 4, 9] {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.set(0, c, x.get(0, c) + h);
            xm.set(0, c, x.get(0, c) - h);
            let lp = SparseCrossEntropyLoss.loss(net.forward_trace(&xp).logits(), &y);
            let lm = SparseCrossEntropyLoss.loss(net.forward_trace(&xm).logits(), &y);
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (num - g.get(0, c)).abs() < 1e-3,
                "col {c}: {num} vs {}",
                g.get(0, c)
            );
        }
    }

    #[test]
    fn detection_flags_perturbed_rows() {
        let (x, y) = toy_data();
        let mut net = FusedNetwork::new(&cfg());
        let mut opt = Adam::new(5e-3);
        net.fit_augmented(
            &x,
            &y,
            &mut opt,
            &TrainConfig::new(400, 0, 1),
            true,
            1.0,
            None,
        );

        // Clean rows: RCE small. Perturbed rows: RCE larger.
        let clean_rce = net.rce(&x, RceMode::Relative);
        let clean_mean = clean_rce.iter().sum::<f32>() / clean_rce.len() as f32;
        let noisy = x.map(|v| (v + 0.35).min(1.0));
        let noisy_rce = net.rce(&noisy, RceMode::Relative);
        let noisy_mean = noisy_rce.iter().sum::<f32>() / noisy_rce.len() as f32;
        assert!(
            noisy_mean > clean_mean * 1.5,
            "detector blind: clean {clean_mean}, noisy {noisy_mean}"
        );

        // Threshold between the two means flags mostly noisy rows.
        let tau = (clean_mean + noisy_mean) / 2.0;
        let out = net.predict_with_detection(&noisy, tau, RceMode::Relative);
        let flags = out.flagged.iter().filter(|&&f| f).count();
        assert!(
            flags > noisy.rows() / 2,
            "only {flags}/{} noisy rows flagged",
            noisy.rows()
        );
        let clean_out = net.predict_with_detection(&x, tau, RceMode::Relative);
        let false_alarms = clean_out.flagged.iter().filter(|&&f| f).count();
        assert!(
            false_alarms < x.rows() / 4,
            "{false_alarms}/{} clean rows misflagged",
            x.rows()
        );
    }

    #[test]
    fn denoise_replaces_only_flagged_rows() {
        let (x, y) = toy_data();
        let mut net = FusedNetwork::new(&cfg());
        let mut opt = Adam::new(5e-3);
        net.fit_augmented(
            &x,
            &y,
            &mut opt,
            &TrainConfig::new(300, 0, 1),
            true,
            1.0,
            None,
        );
        let mut mixed = x.clone();
        // Corrupt row 0 heavily.
        for c in 0..mixed.cols() {
            let v = mixed.get(0, c);
            mixed.set(0, c, (v + 0.5).min(1.0));
        }
        let rce = net.rce(&mixed, RceMode::Relative);
        let tau = (rce[0] + rce[1]) / 2.0; // between corrupted and clean
        let (den, flagged) = net.denoise_matrix(&mixed, tau, RceMode::Relative);
        assert!(flagged[0], "corrupted row not flagged");
        assert_ne!(den.row(0), mixed.row(0), "flagged row not replaced");
        for (r, &was_flagged) in flagged.iter().enumerate().skip(1) {
            if !was_flagged {
                assert_eq!(den.row(r), mixed.row(r), "clean row {r} was altered");
            }
        }
        assert!(den.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn snapshot_load_round_trip() {
        let net = FusedNetwork::new(&cfg());
        let snap = net.snapshot();
        assert_eq!(snap.num_params(), net.num_params());
        let mut other = FusedNetwork::new(&FusedConfig { seed: 99, ..cfg() });
        other.load(&snap).unwrap();
        let x = Matrix::from_rows(&[vec![0.3; 10]]);
        assert_eq!(
            net.forward_trace(&x).logits(),
            other.forward_trace(&x).logits()
        );
    }

    #[test]
    fn rce_modes_scale_differently() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::from_rows(&[vec![0.5; 10]]);
        let rel = net.rce(&x, RceMode::Relative);
        let mse = net.rce(&x, RceMode::MeanSquared);
        assert_eq!(rel.len(), 1);
        assert_eq!(mse.len(), 1);
        assert!(rel[0] >= 0.0 && mse[0] >= 0.0);
    }

    #[test]
    fn predict_labels_trait_matches_plain_predict() {
        let net = FusedNetwork::new(&cfg());
        let x = Matrix::from_rows(&[vec![0.2; 10], vec![0.9; 10]]);
        assert_eq!(net.predict(&x), net.predict_labels(&x));
    }
}
