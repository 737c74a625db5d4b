//! A sequential MLP: the architecture behind FEDLOC/FEDHIL's three-layer DNN
//! global models and the building block of everything else.

use crate::activation::Activation;
use crate::data::{gather_labels_into, gather_rows_into, shuffled_batches};
use crate::dense::Dense;
use crate::init::Init;
use crate::loss::{relative_error_per_row, MseLoss, SparseCrossEntropyLoss};
use crate::optim::Optimizer;
use crate::params::HasParams;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Row count below which batch prediction stays single-threaded — at tiny
/// batch sizes thread spawn overhead exceeds the forward-pass cost.
const PARALLEL_PREDICT_MIN_ROWS: usize = 64;

/// Training-loop configuration shared across the workspace.
///
/// The paper's server-side settings are 700 epochs at `lr = 0.001`; the
/// client-side settings are 5 epochs at `lr = 0.0001`. Learning rate lives in
/// the optimizer; this struct carries the loop shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size (0 = full batch).
    pub batch_size: usize,
    /// Seed for batch shuffling.
    pub seed: u64,
}

impl TrainConfig {
    /// Creates a config.
    pub fn new(epochs: usize, batch_size: usize, seed: u64) -> Self {
        Self {
            epochs,
            batch_size,
            seed,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::new(100, 32, 0)
    }
}

/// A stack of [`Dense`] layers with per-layer activations.
///
/// The final layer emits raw logits; classification uses the fused
/// [`SparseCrossEntropyLoss`]. See [`Sequential::mlp`] for the common
/// constructor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<Dense>,
    activations: Vec<Activation>,
}

/// Cached forward-pass state used by the backward pass.
///
/// Reusable: [`Sequential::forward_trace_into`] reshapes the cached
/// matrices in place, so a trace that has seen a batch shape once never
/// allocates for it again.
#[derive(Debug, Clone, Default)]
pub struct ForwardTrace {
    /// `inputs[i]` is the input to layer `i`; `inputs.last()` is the final
    /// output (post-activation of the last layer).
    inputs: Vec<Matrix>,
    /// `pre[i]` is the pre-activation output of layer `i`.
    pre: Vec<Matrix>,
}

impl ForwardTrace {
    /// An empty trace ready to be filled by
    /// [`Sequential::forward_trace_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output for this trace.
    pub fn output(&self) -> &Matrix {
        self.inputs.last().expect("trace always holds the output")
    }
}

/// Reusable activation buffers for [`Sequential::predict_into`]: the
/// output of the layer just run and the ping-pong space the next one
/// writes into. Shaped on first use.
#[derive(Debug, Clone, Default)]
pub struct PredictBuffers {
    out: Matrix,
    scratch: Matrix,
}

impl PredictBuffers {
    /// Empty buffers; they take the batch shape on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable scratch buffers for one training stream.
///
/// Holds the forward trace, the flat per-tensor gradient list and the two
/// ping-pong matrices the backward pass streams gradients through. After
/// the first (warmup) step on a given batch shape, a full forward+backward
/// step through [`Sequential::train_batch_with`] performs **zero heap
/// allocations** — verified by `tests/alloc_free.rs` with a counting
/// allocator.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    trace: ForwardTrace,
    /// Flat gradients in [`HasParams`] order (`layer0.w, layer0.b, …`).
    grads: Vec<Matrix>,
    /// Gradient flowing backwards (`dL/d` current activation output).
    grad_cur: Matrix,
    /// Scratch for the layer-below gradient; swapped with `grad_cur`.
    grad_next: Matrix,
}

impl Workspace {
    /// An empty workspace; buffers are shaped on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The flat gradient tensors produced by the last backward pass.
    pub fn gradients(&self) -> &[Matrix] {
        &self.grads
    }

    /// Backward pass of `model` over this workspace's trace, from the
    /// output gradient held in `grad_cur`.
    fn backward(&mut self, model: &Sequential, need_input_grad: bool) {
        self.grads
            .resize_with(2 * model.depth(), || Matrix::zeros(0, 0));
        model.backward_into(
            &self.trace,
            &mut self.grads,
            &mut self.grad_cur,
            &mut self.grad_next,
            need_input_grad,
        );
    }
}

impl Sequential {
    /// Builds an MLP with layer widths `dims` (e.g. `[in, h1, h2, out]`),
    /// `hidden` activation after every layer except the last (identity /
    /// logits), He initialization, and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn mlp(dims: &[usize], hidden: Activation, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut activations = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            layers.push(Dense::new(w[0], w[1], Init::HeUniform, &mut rng));
        }
        for _ in 0..layers.len() - 1 {
            activations.push(hidden);
        }
        activations.push(Activation::Identity);
        Self {
            layers,
            activations,
        }
    }

    /// Builds a network from explicit layers and activations.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, the stack is empty, or consecutive layer
    /// dimensions do not chain.
    pub fn from_layers(layers: Vec<Dense>, activations: Vec<Activation>) -> Self {
        assert!(!layers.is_empty(), "empty network");
        assert_eq!(layers.len(), activations.len(), "one activation per layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer dimensions do not chain"
            );
        }
        Self {
            layers,
            activations,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer access (for tests and benches).
    pub fn layer(&self, i: usize) -> &Dense {
        &self.layers[i]
    }

    /// Forward pass returning only the output.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut buffers = PredictBuffers::new();
        self.forward_buffered(x, &mut buffers);
        buffers.out
    }

    /// Forward pass through `buffers` (allocation-free once warm): layer 0
    /// reads `x`, every later layer the previous output, and the network
    /// output ends in `buffers.out`.
    fn forward_buffered<'a>(&self, x: &Matrix, buffers: &'a mut PredictBuffers) -> &'a Matrix {
        let PredictBuffers { out, scratch } = buffers;
        let mut stack = self.layers.iter().zip(&self.activations);
        match stack.next() {
            Some((layer, act)) => {
                layer.forward_into(x, out);
                act.forward_assign(out);
            }
            None => out.copy_from(x),
        }
        for (layer, act) in stack {
            layer.forward_into(out, scratch);
            act.forward_assign(scratch);
            std::mem::swap(out, scratch);
        }
        out
    }

    /// Forward pass that records everything the backward pass needs.
    pub fn forward_trace(&self, x: &Matrix) -> ForwardTrace {
        let mut trace = ForwardTrace::new();
        self.forward_trace_into(x, &mut trace);
        trace
    }

    /// Forward pass into a reusable trace (allocation-free once warm).
    pub fn forward_trace_into(&self, x: &Matrix, trace: &mut ForwardTrace) {
        let depth = self.layers.len();
        trace.inputs.resize_with(depth + 1, || Matrix::zeros(0, 0));
        trace.pre.resize_with(depth, || Matrix::zeros(0, 0));
        trace.inputs[0].copy_from(x);
        for (i, (layer, act)) in self.layers.iter().zip(&self.activations).enumerate() {
            let (head, tail) = trace.inputs.split_at_mut(i + 1);
            let input = &head[i];
            let next = &mut tail[0];
            layer.forward_into(input, &mut trace.pre[i]);
            next.copy_from(&trace.pre[i]);
            act.forward_assign(next);
        }
    }

    /// The backward pass, through caller-owned buffers (allocation-free
    /// once warm) — the one backprop engine every model trains through. A
    /// model built from several stacks (SAFELOC's fused network) calls it
    /// once per stack, each writing its slice of one flat gradient list.
    ///
    /// On entry `grad` holds `dL/d(output)` for `trace`; on exit
    /// `grads[2i]` / `grads[2i + 1]` hold layer `i`'s `dW` / `db` and, when
    /// `need_input_grad` is set, `grad` holds `dL/dx`. `scratch` is
    /// ping-pong space whose contents are left unspecified; the two
    /// matrices may trade buffers. Training steps pass `false`: the layer-0
    /// input gradient multiplies against the widest weight matrix in the
    /// stack and no optimizer reads it — only the gradient-based poisoning
    /// attacks, or a stack below this one, do.
    ///
    /// # Panics
    ///
    /// Panics unless `grads.len()` is twice the depth, or on shape
    /// mismatch between `grad` and the trace's output.
    pub fn backward_into(
        &self,
        trace: &ForwardTrace,
        grads: &mut [Matrix],
        grad: &mut Matrix,
        scratch: &mut Matrix,
        need_input_grad: bool,
    ) {
        let depth = self.layers.len();
        assert_eq!(grads.len(), 2 * depth, "one (dW, db) pair per layer");
        for i in (0..depth).rev() {
            self.activations[i].backward_assign(&trace.pre[i], grad);
            let (dw_part, db_part) = grads.split_at_mut(2 * i + 1);
            if i == 0 && !need_input_grad {
                self.layers[0].param_grads_into(
                    &trace.inputs[0],
                    grad,
                    &mut dw_part[0],
                    &mut db_part[0],
                );
                break;
            }
            self.layers[i].backward_into(
                &trace.inputs[i],
                grad,
                &mut dw_part[2 * i],
                &mut db_part[0],
                scratch,
            );
            std::mem::swap(grad, scratch);
        }
    }

    /// Predicted class index per row (argmax over logits).
    ///
    /// Large batches are split into row blocks classified in parallel;
    /// rows are independent, so the result is identical to the serial path
    /// for any thread count.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let mut labels = Vec::with_capacity(x.rows());
        self.predict_into(x, &mut PredictBuffers::new(), &mut labels);
        labels
    }

    /// [`Sequential::predict`] into caller-owned buffers: `labels` is
    /// cleared and refilled with one class per row of `x`, bitwise what
    /// `predict` returns. Below the parallel row threshold (64 rows) the
    /// pass runs serially through `buffers` and allocates nothing once
    /// they have seen the batch shape; a serving worker keeps one set for
    /// its lifetime.
    pub fn predict_into(&self, x: &Matrix, buffers: &mut PredictBuffers, labels: &mut Vec<usize>) {
        labels.clear();
        let rows = x.rows();
        // Size first: asking for the thread count queries the OS on every
        // call, which costs more than a batch-1 forward pass.
        let threads = if rows < PARALLEL_PREDICT_MIN_ROWS || x.cols() == 0 {
            1
        } else {
            rayon::current_num_threads()
        };
        if threads <= 1 {
            let out = self.forward_buffered(x, buffers);
            labels.extend((0..out.rows()).map(|r| out.argmax_row(r)));
            return;
        }
        let chunk_rows = rows.div_ceil(threads).max(1);
        let cols = x.cols();
        let blocks: Vec<Vec<usize>> = x
            .as_slice()
            .par_chunks(chunk_rows * cols)
            .map(|block| {
                let block_rows = block.len() / cols;
                let sub =
                    Matrix::from_vec(block_rows, cols, block.to_vec()).expect("row-aligned block");
                self.forward(&sub).argmax_rows()
            })
            .collect();
        labels.extend(blocks.into_iter().flatten());
    }

    /// Classification accuracy against `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f32 {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        if labels.is_empty() {
            return 0.0;
        }
        let pred = self.predict(x);
        let hits = pred.iter().zip(labels).filter(|(p, y)| p == y).count();
        hits as f32 / labels.len() as f32
    }

    /// Gradient of the cross-entropy loss with respect to the *input* —
    /// the quantity every gradient-based poisoning attack (FGSM/PGD/MIM/CLB)
    /// is built from.
    pub fn input_gradient(&self, x: &Matrix, labels: &[usize]) -> Matrix {
        let mut ws = Workspace::new();
        self.forward_trace_into(x, &mut ws.trace);
        SparseCrossEntropyLoss.loss_and_grad_into(ws.trace.output(), labels, &mut ws.grad_cur);
        ws.backward(self, true);
        ws.grad_cur
    }

    /// One optimizer step on a single batch; returns the batch loss.
    ///
    /// Allocates a fresh [`Workspace`] per call; loops should hold one and
    /// use [`Sequential::train_batch_with`].
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize], opt: &mut dyn Optimizer) -> f32 {
        let mut ws = Workspace::new();
        self.train_batch_with(x, labels, opt, &mut ws)
    }

    /// One optimizer step on a single batch through a reusable workspace.
    ///
    /// Zero heap allocations once `ws` has seen the batch shape (the
    /// optimizer's state warms up on its first step the same way).
    pub fn train_batch_with(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        ws: &mut Workspace,
    ) -> f32 {
        self.forward_trace_into(x, &mut ws.trace);
        let loss =
            SparseCrossEntropyLoss.loss_and_grad_into(ws.trace.output(), labels, &mut ws.grad_cur);
        ws.backward(self, false);
        opt.step_stream(self, &ws.grads);
        loss
    }

    /// One optimizer step training the network to reconstruct `x` (MSE)
    /// through a reusable workspace (allocation-free once warm); returns
    /// the batch loss. Used by the autoencoder-based baselines (ONLAD's
    /// on-device detector, FEDLS's latent-space detector).
    pub fn train_batch_autoencoder_with(
        &mut self,
        x: &Matrix,
        opt: &mut dyn Optimizer,
        ws: &mut Workspace,
    ) -> f32 {
        self.forward_trace_into(x, &mut ws.trace);
        let loss = MseLoss.loss(ws.trace.output(), x);
        MseLoss.grad_into(ws.trace.output(), x, &mut ws.grad_cur);
        ws.backward(self, false);
        opt.step_stream(self, &ws.grads);
        loss
    }

    /// Trains as an autoencoder (reconstruction target = input); returns the
    /// mean loss per epoch.
    pub fn fit_autoencoder(
        &mut self,
        x: &Matrix,
        opt: &mut dyn Optimizer,
        cfg: &TrainConfig,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut ws = Workspace::new();
        let mut bx = Matrix::zeros(0, 0);
        for _ in 0..cfg.epochs {
            let mut total = 0.0;
            let mut batches = 0;
            for batch in shuffled_batches(x.rows(), cfg.batch_size, &mut rng) {
                gather_rows_into(x, &batch, &mut bx);
                total += self.train_batch_autoencoder_with(&bx, opt, &mut ws);
                batches += 1;
            }
            history.push(if batches == 0 {
                0.0
            } else {
                total / batches as f32
            });
        }
        history
    }

    /// Per-row reconstruction error relative to the input L2 norm — the
    /// detection statistic used by the autoencoder baselines.
    ///
    /// # Panics
    ///
    /// Panics if the network's output width differs from its input width.
    pub fn relative_reconstruction_error(&self, x: &Matrix) -> Vec<f32> {
        assert_eq!(
            self.in_dim(),
            self.out_dim(),
            "not an autoencoder: {} in vs {} out",
            self.in_dim(),
            self.out_dim()
        );
        relative_error_per_row(&self.forward(x), x)
    }

    /// Trains as a classifier; returns the mean loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn fit_classifier(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        opt: &mut dyn Optimizer,
        cfg: &TrainConfig,
    ) -> Vec<f32> {
        assert_eq!(labels.len(), x.rows(), "one label per row");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut ws = Workspace::new();
        let mut bx = Matrix::zeros(0, 0);
        let mut by = Vec::new();
        for _ in 0..cfg.epochs {
            let mut total = 0.0;
            let mut batches = 0;
            for batch in shuffled_batches(x.rows(), cfg.batch_size, &mut rng) {
                gather_rows_into(x, &batch, &mut bx);
                gather_labels_into(labels, &batch, &mut by);
                total += self.train_batch_with(&bx, &by, opt, &mut ws);
                batches += 1;
            }
            history.push(if batches == 0 {
                0.0
            } else {
                total / batches as f32
            });
        }
        history
    }
}

impl HasParams for Sequential {
    fn param_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.layers.len() * 2);
        for i in 0..self.layers.len() {
            names.push(format!("layer{i}.w"));
            names.push(format!("layer{i}.b"));
        }
        names
    }

    fn param_tensors(&self) -> Vec<&Matrix> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &self.layers {
            out.push(l.weights());
            out.push(l.bias());
        }
        out
    }

    fn param_tensors_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &mut self.layers {
            let (w, b) = l.parts_mut();
            out.push(w);
            out.push(b);
        }
        out
    }

    fn visit_param_tensors_mut(&mut self, f: &mut dyn FnMut(&mut Matrix)) {
        for l in &mut self.layers {
            let (w, b) = l.parts_mut();
            f(w);
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn mlp_shapes() {
        let m = Sequential::mlp(&[10, 8, 4], Activation::Relu, 0);
        assert_eq!(m.in_dim(), 10);
        assert_eq!(m.out_dim(), 4);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.num_params(), 10 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Sequential::mlp(&[4, 3, 2], Activation::Relu, 11);
        let b = Sequential::mlp(&[4, 3, 2], Activation::Relu, 11);
        assert_eq!(a, b);
        let c = Sequential::mlp(&[4, 3, 2], Activation::Relu, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut m = Sequential::mlp(&[2, 16, 2], Activation::Relu, 3);
        let mut opt = Adam::new(0.03);
        m.fit_classifier(&x, &y, &mut opt, &TrainConfig::new(400, 0, 3));
        assert_eq!(m.predict(&x), y, "XOR not learned");
        assert_eq!(m.accuracy(&x, &y), 1.0);
    }

    /// Below, at and above the row threshold `predict` must return what
    /// the serial forward pass does, whether or not it splits the batch.
    #[test]
    fn predict_equals_forward_argmax_on_both_sides_of_the_row_threshold() {
        let m = Sequential::mlp(&[7, 9, 5], Activation::Relu, 13);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        for rows in [
            1,
            PARALLEL_PREDICT_MIN_ROWS - 1,
            PARALLEL_PREDICT_MIN_ROWS,
            200,
        ] {
            let x = Matrix::from_fn(rows, 7, |r, c| ((r * 37 + c * 11) % 23) as f32 / 11.0 - 1.0);
            let expected = m.forward(&x).argmax_rows();
            assert_eq!(pool.install(|| m.predict(&x)), expected, "{rows} rows");
        }
    }

    /// One set of buffers reused across every batch size from 1 to 33
    /// rows, shrinking and growing: the logits are `to_bits` the layer-by-
    /// layer allocating reference and the labels are `predict`'s.
    #[test]
    fn predict_into_reused_buffers_is_bitwise_predict_for_1_to_33_rows() {
        let m = Sequential::mlp(&[23, 17, 9, 6], Activation::Relu, 29);
        let x = Matrix::from_fn(33, 23, |r, c| ((r * 41 + c * 13) % 31) as f32 / 7.0 - 2.0);
        let mut buffers = PredictBuffers::new();
        let mut labels = vec![usize::MAX; 40];
        let sizes = (1..=33).rev().chain(1..=33).step_by(2);
        for rows in sizes {
            let sub = Matrix::from_vec(rows, 23, x.as_slice()[..rows * 23].to_vec()).unwrap();
            let mut reference = sub.clone();
            for (layer, act) in m.layers.iter().zip(&m.activations) {
                reference = act.forward(&layer.forward(&reference));
            }
            let logits = m.forward_buffered(&sub, &mut buffers);
            let bits = |a: &Matrix| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(logits), bits(&reference), "{rows} rows");
            m.predict_into(&sub, &mut buffers, &mut labels);
            assert_eq!(labels, m.predict(&sub), "{rows} rows");
            assert_eq!(labels, reference.argmax_rows(), "{rows} rows");
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let m = Sequential::mlp(&[3, 5, 4], Activation::Relu, 7);
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.9], vec![0.1, 0.8, -0.5]]);
        let labels = [1usize, 3];

        let trace = m.forward_trace(&x);
        let mut grad = SparseCrossEntropyLoss.grad(trace.output(), &labels);
        let mut grads = vec![Matrix::zeros(0, 0); 2 * m.depth()];
        m.backward_into(
            &trace,
            &mut grads,
            &mut grad,
            &mut Matrix::zeros(0, 0),
            false,
        );

        let loss = |m: &Sequential| SparseCrossEntropyLoss.loss(&m.forward(&x), &labels);
        let h = 1e-3;
        // Check a sample of weight entries in every tensor.
        let names = m.param_names();
        for (ti, tensor) in m.param_tensors().iter().enumerate() {
            let probes = [(0usize, 0usize), (tensor.rows() - 1, tensor.cols() - 1)];
            for &(r, c) in &probes {
                let mut mp = m.clone();
                let mut mm = m.clone();
                {
                    let t = &mut mp.param_tensors_mut()[ti];
                    let v = t.get(r, c);
                    t.set(r, c, v + h);
                }
                {
                    let t = &mut mm.param_tensors_mut()[ti];
                    let v = t.get(r, c);
                    t.set(r, c, v - h);
                }
                let num = (loss(&mp) - loss(&mm)) / (2.0 * h);
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
    fn input_gradient_matches_finite_differences() {
        let m = Sequential::mlp(&[3, 6, 3], Activation::Relu, 21);
        let x = Matrix::row_vector(&[0.4, -0.1, 0.7]);
        let labels = [2usize];
        let g = m.input_gradient(&x, &labels);
        let h = 1e-3;
        for c in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.set(0, c, x.get(0, c) + h);
            xm.set(0, c, x.get(0, c) - h);
            let lp = SparseCrossEntropyLoss.loss(&m.forward(&xp), &labels);
            let lm = SparseCrossEntropyLoss.loss(&m.forward(&xm), &labels);
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (num - g.get(0, c)).abs() < 1e-3,
                "col {c}: numeric {num} vs analytic {}",
                g.get(0, c)
            );
        }
    }

    #[test]
    fn snapshot_load_round_trip() {
        let m = Sequential::mlp(&[4, 3, 2], Activation::Relu, 5);
        let snap = m.snapshot();
        assert_eq!(snap.num_params(), m.num_params());
        let mut other = Sequential::mlp(&[4, 3, 2], Activation::Relu, 99);
        assert_ne!(other.snapshot(), snap);
        other.load(&snap).unwrap();
        assert_eq!(other.snapshot(), snap);
        // Behaviour matches too.
        let x = Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(m.forward(&x), other.forward(&x));
    }

    #[test]
    fn load_rejects_wrong_arch() {
        let m = Sequential::mlp(&[4, 3, 2], Activation::Relu, 5);
        let mut wrong = Sequential::mlp(&[4, 5, 2], Activation::Relu, 5);
        assert!(wrong.load(&m.snapshot()).is_err());
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = xor_data();
        let mut m = Sequential::mlp(&[2, 12, 2], Activation::Relu, 1);
        let mut opt = Adam::new(0.02);
        let hist = m.fit_classifier(&x, &y, &mut opt, &TrainConfig::new(150, 0, 1));
        assert!(hist.first().unwrap() > hist.last().unwrap());
    }

    #[test]
    fn forward_trace_output_matches_forward() {
        let m = Sequential::mlp(&[3, 4, 2], Activation::Relu, 0);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(m.forward(&x), *m.forward_trace(&x).output());
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let m = Sequential::mlp(&[3, 4, 2], Activation::Relu, 0);
        let json = serde_json::to_string(&m).unwrap();
        let back: Sequential = serde_json::from_str(&json).unwrap();
        let x = Matrix::row_vector(&[0.5, -0.5, 0.25]);
        assert_eq!(m.forward(&x), back.forward(&x));
    }
}
