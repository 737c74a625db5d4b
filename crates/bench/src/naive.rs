//! The seed generation's scalar, allocation-per-op numeric paths, preserved
//! verbatim-in-spirit as a permanent performance baseline.
//!
//! Everything here is intentionally *not* used by the production code: the
//! tensor layer now routes through the blocked kernels in
//! `safeloc_nn::kernels` and the training loop through the reusable
//! [`Workspace`](safeloc_nn::Workspace). The criterion benches call these
//! functions to measure how far the hot path has moved — giving every
//! future PR a stable "seed" reference instead of comparing against a
//! moving target.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safeloc_fl::{Aggregator, Client, ClientUpdate, DefensePipeline, LocalTrainConfig};
use safeloc_nn::optim::ParamStream;
use safeloc_nn::{
    gather_labels, gather_rows, shuffled_batches, Activation, HasParams, Matrix, NamedParams,
    Optimizer, Sequential, SparseCrossEntropyLoss,
};

/// The seed's `Matrix::matmul`: scalar i-k-j loops, fresh output
/// allocation, and the `a == 0.0` skip in the reduction.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "naive matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let ov = out.as_mut_slice();
    for i in 0..m {
        let a_row = &av[i * k..(i + 1) * k];
        let o_row = &mut ov[i * n..(i + 1) * n];
        for (p, &aval) in a_row.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let b_row = &bv[p * n..(p + 1) * n];
            for (o, &bval) in o_row.iter_mut().zip(b_row) {
                *o += aval * bval;
            }
        }
    }
    out
}

/// The seed's `Matrix::matmul_transposed`: single-accumulator dot products.
pub fn matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "naive matmul_transposed shape mismatch");
    let (m, k, r) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, r);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let ov = out.as_mut_slice();
    for i in 0..m {
        let a_row = &av[i * k..(i + 1) * k];
        for j in 0..r {
            let b_row = &bv[j * k..(j + 1) * k];
            let dot: f32 = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            ov[i * r + j] = dot;
        }
    }
    out
}

/// The seed's `Matrix::transposed_matmul`, with the `a == 0.0` skip.
pub fn transposed_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "naive transposed_matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(k, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let ov = out.as_mut_slice();
    for row in 0..m {
        let a_row = &av[row * k..(row + 1) * k];
        let b_row = &bv[row * n..(row + 1) * n];
        for (i, &aval) in a_row.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let o_row = &mut ov[i * n..(i + 1) * n];
            for (o, &bval) in o_row.iter_mut().zip(b_row) {
                *o += aval * bval;
            }
        }
    }
    out
}

/// The seed's Adam (standard betas and epsilon), `step_stream` verbatim,
/// so the seed side of the benches stays where the seed was while the
/// production optimizer (`safeloc_nn::kernels::adam_update`) gets faster.
///
/// Verbatim includes the visitor closure: the loop is slow because the
/// moments are indexed through `&mut Vec<f32>` borrowed inside it (design
/// rule 6 in the `safeloc_nn::kernels` module docs), and the same loop as
/// a free function over slices vectorizes — it would not be a fixed
/// baseline. Verbatim also means un-flushed: production stores first
/// moments below `MIN_POSITIVE` as zero, this loop lets them sit in
/// subnormals, which makes it the reference the flush is proved against
/// (parameters and second moments bit for bit, first moments up to the
/// flush: `seed_adam_and_the_kernel_agree_bitwise` per step, the
/// `flushed_adam_trains_*` trajectory oracles over 2 000 steps).
#[derive(Debug, Clone)]
pub struct SeedAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl SeedAdam {
    /// A fresh optimizer with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for SeedAdam {
    fn step_stream(&mut self, params: &mut dyn ParamStream, grads: &[Matrix]) {
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| vec![0.0; g.len()]).collect();
            self.v = grads.iter().map(|g| vec![0.0; g.len()]).collect();
        }
        assert_eq!(self.m.len(), grads.len(), "parameter count changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (moments_m, moments_v) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        params.visit(&mut |p| {
            assert!(idx < grads.len(), "params/grads length mismatch");
            let g = &grads[idx];
            let m = &mut moments_m[idx];
            let v = &mut moments_v[idx];
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            assert_eq!(p.len(), m.len(), "parameter shape changed between steps");
            let ps = p.as_mut_slice();
            let gs = g.as_slice();
            for i in 0..ps.len() {
                m[i] = beta1 * m[i] + (1.0 - beta1) * gs[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * gs[i] * gs[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                ps[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
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

/// The seed's forward/backward/step training path: every intermediate —
/// pre-activations, activation outputs, derivative masks, gradients, the
/// softmax — is a freshly allocated matrix, and all products go through the
/// scalar kernels above. Returns the batch loss.
pub fn train_step(model: &mut Sequential, x: &Matrix, labels: &[usize], opt: &mut SeedAdam) -> f32 {
    let depth = model.depth();
    // Forward trace.
    let mut inputs: Vec<Matrix> = Vec::with_capacity(depth + 1);
    let mut pre: Vec<Matrix> = Vec::with_capacity(depth);
    let mut acts: Vec<Activation> = Vec::with_capacity(depth);
    inputs.push(x.clone());
    for i in 0..depth {
        let layer = model.layer(i);
        let act = if i + 1 == depth {
            Activation::Identity
        } else {
            Activation::Relu
        };
        let z = {
            let mut z = matmul(inputs.last().expect("non-empty"), layer.weights());
            z = z.add_row_broadcast(layer.bias());
            z
        };
        let h = act.forward(&z);
        pre.push(z);
        inputs.push(h);
        acts.push(act);
    }
    let logits = inputs.last().expect("non-empty");
    let loss = SparseCrossEntropyLoss.loss(logits, labels);
    let mut grad = SparseCrossEntropyLoss.grad(logits, labels);
    // Backward.
    let mut grads: Vec<Matrix> = vec![Matrix::zeros(0, 0); depth * 2];
    for i in (0..depth).rev() {
        let grad_pre = acts[i].backward(&pre[i], &grad);
        let layer = model.layer(i);
        grads[2 * i] = transposed_matmul(&inputs[i], &grad_pre);
        grads[2 * i + 1] = grad_pre.sum_rows();
        grad = matmul_transposed(&grad_pre, layer.weights());
    }
    opt.step(model.param_tensors_mut(), &grads);
    loss
}

/// The seed's federated round: every client sequentially (no parallelism)
/// trains a clone of the GM through the allocation-per-op scalar path
/// above, the full GM is re-snapshotted once per client, and the updates
/// are FedAvg-aggregated. This is the wall-clock baseline the rebuilt
/// round is measured against (`benches/training_step.rs`).
pub fn seed_round(gm: &mut Sequential, clients: &mut [Client], local: &LocalTrainConfig) {
    let n_classes = gm.out_dim();
    let round_salt = 1u64 << 16;
    let updates: Vec<ClientUpdate> = clients
        .iter_mut()
        .map(|c| {
            let set = c.prepare_round_data(&*gm, n_classes, local);
            // Seed-style local training: allocation per batch, scalar
            // kernels per step.
            let mut lm = gm.clone();
            let mut opt = SeedAdam::new(local.learning_rate);
            let mut rng = StdRng::seed_from_u64(c.seed ^ round_salt);
            for _ in 0..local.epochs {
                for batch in shuffled_batches(set.x.rows(), local.batch_size, &mut rng) {
                    let bx = gather_rows(&set.x, &batch);
                    let by = gather_labels(&set.labels, &batch);
                    train_step(&mut lm, &bx, &by, &mut opt);
                }
            }
            let params = c.finalize_params(&gm.snapshot(), lm.snapshot());
            ClientUpdate::new(c.id, params, set.len())
        })
        .collect();
    let mut agg = DefensePipeline::fedavg();
    let next = agg.aggregate(&gm.snapshot(), &updates);
    gm.load(&next.params)
        .expect("FedAvg preserves architecture");
}

/// The seed's Krum: recomputes the full pairwise squared-distance set for
/// every candidate — `O(n²·d)` per candidate, `O(n³·d)` per round.
pub fn krum_select(updates: &[ClientUpdate], assumed_byzantine: usize) -> Option<NamedParams> {
    if updates.is_empty() {
        return None;
    }
    if updates.len() == 1 {
        return Some(updates[0].params.clone());
    }
    let n = updates.len();
    let k = n.saturating_sub(assumed_byzantine + 2).max(1);
    let mut best = (f32::INFINITY, 0usize);
    for i in 0..n {
        let mut dists: Vec<f32> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let d = updates[i].params.l2_distance(&updates[j].params);
                d * d
            })
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let score: f32 = dists.iter().take(k).sum();
        if score < best.0 {
            best = (score, i);
        }
    }
    Some(updates[best.1].params.clone())
}

/// The coordinate-wise trimmed mean before columns arrived sorted around
/// the GM's value: all `n` values of every coordinate gathered, sorted
/// whole and summed between the trims — `O(n log n)` per coordinate
/// however few of the values differ from the GM's.
pub fn trimmed_mean(updates: &[ClientUpdate], trim: usize) -> NamedParams {
    let first = &updates[0].params;
    first
        .iter()
        .map(|(name, tensor)| {
            let rows: Vec<&[f32]> = updates
                .iter()
                .map(|u| u.params.get(name).expect("same arch").as_slice())
                .collect();
            let mut values = vec![0.0f32; rows.len()];
            let out = (0..tensor.len())
                .map(|e| {
                    for (v, row) in values.iter_mut().zip(&rows) {
                        *v = row[e];
                    }
                    values.sort_unstable_by(f32::total_cmp);
                    let kept = &values[trim..values.len() - trim];
                    kept.iter().sum::<f32>() / kept.len() as f32
                })
                .collect();
            let (r, c) = tensor.shape();
            let averaged = Matrix::from_vec(r, c, out).expect("shape preserved");
            (name.to_string(), averaged)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_fl::DefensePipeline;
    use safeloc_nn::{Adam, TrainConfig};

    fn mat(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 7) as u64 + salt) % 100) as f32 / 50.0 - 1.0
        })
    }

    #[test]
    fn naive_kernels_agree_with_blocked_kernels() {
        let a = mat(5, 37, 1);
        let b = mat(37, 11, 2);
        let fast = a.matmul(&b);
        let slow = matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        let bt = mat(11, 37, 3);
        let fast = a.matmul_transposed(&bt);
        let slow = matmul_transposed(&a, &bt);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
        let c = mat(5, 11, 4);
        let fast = a.transposed_matmul(&c);
        let slow = transposed_matmul(&a, &c);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn naive_training_step_tracks_the_workspace_path() {
        use safeloc_nn::Activation;
        let mut a = Sequential::mlp(&[12, 8, 4], Activation::Relu, 3);
        let mut b = a.clone();
        let x = mat(6, 12, 9);
        let labels = vec![0usize, 1, 2, 3, 0, 1];
        let mut oa = SeedAdam::new(1e-3);
        let mut ob = Adam::new(1e-3);
        for _ in 0..3 {
            let la = train_step(&mut a, &x, &labels, &mut oa);
            let lb = b.train_batch(&x, &labels, &mut ob);
            assert!((la - lb).abs() < 1e-5, "losses diverged: {la} vs {lb}");
        }
        let dist = a.snapshot().l2_distance(&b.snapshot());
        assert!(dist < 1e-3, "weights diverged: {dist}");
    }

    /// The one thing production `Adam` does that the seed loop does not:
    /// a new first moment below `MIN_POSITIVE` in magnitude is stored as
    /// zero (design rule 6 in the `safeloc_nn::kernels` module docs).
    fn flush(x: f32) -> f32 {
        if x.abs() < f32::MIN_POSITIVE {
            0.0
        } else {
            x
        }
    }

    fn subnormals(moments: &[Vec<f32>]) -> usize {
        moments
            .iter()
            .flatten()
            .filter(|m| m.is_subnormal())
            .count()
    }

    /// The contract between production `Adam` and the un-flushed seed
    /// loop after both drove the same training: parameters and second
    /// moments equal bit for bit, production's first moments equal the
    /// seed's flushed. The first difference is reported by tensor, element
    /// and gap.
    fn assert_flush_is_the_only_difference(
        what: &str,
        (seed_params, seed_opt): (Vec<&Matrix>, &SeedAdam),
        (kernel_params, kernel_opt): (Vec<&Matrix>, &Adam),
    ) {
        let (kernel_m, kernel_v) = kernel_opt.moments();
        let seed_m_flushed: Vec<Vec<f32>> = (seed_opt.m.iter())
            .map(|m| m.iter().copied().map(flush).collect())
            .collect();
        let values = |params: &[&Matrix]| -> Vec<Vec<f32>> {
            params.iter().map(|t| t.as_slice().to_vec()).collect()
        };
        let (seed_p, kernel_p) = (values(&seed_params), values(&kernel_params));
        for (name, seed, kernel) in [
            ("p", &seed_p[..], &kernel_p[..]),
            ("v", &seed_opt.v[..], kernel_v),
            ("m", &seed_m_flushed[..], kernel_m),
        ] {
            assert_eq!(seed.len(), kernel.len(), "{what}: {name} tensor count");
            for (tensor, (a, b)) in seed.iter().zip(kernel).enumerate() {
                assert_eq!(a.len(), b.len(), "{what}: {name} tensor {tensor} length");
                if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
                    panic!(
                        "{what}: {name} moved in tensor {tensor} at element {i}: \
                         seed {:e} vs production {:e} (gap {:e})",
                        a[i],
                        b[i],
                        f64::from(a[i]) - f64::from(b[i])
                    );
                }
            }
        }
    }

    /// The production kernel computes what the seed loop did with first
    /// moments flushed: after every one of 60 consecutive steps the two
    /// optimizers' parameters and second moments are equal bit for bit
    /// and production's first moments are the seed's flushed.
    #[test]
    fn seed_adam_and_the_kernel_agree_bitwise() {
        let shapes = [(203, 128), (1, 128), (62, 60), (1, 60), (3, 5)];
        let tensors = |salt: u64| -> Vec<Matrix> {
            (shapes.iter().zip(salt..))
                .map(|(&(r, c), salt)| mat(r, c, salt))
                .collect()
        };
        let mut seed_params = tensors(0);
        let mut kernel_params = seed_params.clone();
        let (mut seed_opt, mut kernel_opt) = (SeedAdam::new(1e-3), Adam::new(1e-3));
        for t in 1..=60 {
            let grads = tensors(100 * t);
            seed_opt.step(seed_params.iter_mut().collect(), &grads);
            kernel_opt.step(kernel_params.iter_mut().collect(), &grads);
            assert_flush_is_the_only_difference(
                &format!("step {t}"),
                (seed_params.iter().collect(), &seed_opt),
                (kernel_params.iter().collect(), &kernel_opt),
            );
        }
    }

    /// Epochs of the trajectory oracle: 200 × 10 batches of the survey
    /// split = 2 000 steps, of which the last ~1 100 sit in the stuck
    /// regime (a dead unit's first moment needs ~850 steps of `×0.9` to get
    /// under `MIN_POSITIVE`).
    const ORACLE_EPOCHS: usize = 200;

    fn survey_split() -> safeloc_dataset::FingerprintSet {
        use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
        BuildingDataset::generate(Building::paper(1), &DatasetConfig::paper(), 1).server_train
    }

    /// The regime the flush exists for, on the real fixture, exercised and
    /// not just intended: the seed optimizer ends the fit holding
    /// subnormal first moments, production ends it holding none.
    fn assert_the_stuck_regime_was_reached(what: &str, seed_opt: &SeedAdam, kernel_opt: &Adam) {
        let stuck = subnormals(&seed_opt.m);
        assert!(
            stuck > 0,
            "{what}: the seed side holds no subnormal first moment"
        );
        assert_eq!(subnormals(kernel_opt.moments().0), 0, "{what}: production");
        eprintln!("{what}: {stuck} first moments stuck in subnormals on the seed side");
    }

    /// Trajectory oracle, paper-sized `Sequential`: pretraining as
    /// `benchmark/`'s serving workloads run it (`fit_classifier`, Adam at
    /// 1e-3, batch 32) on paper building 1's survey split, production
    /// `Adam` against the un-flushed `SeedAdam`.
    #[test]
    fn flushed_adam_trains_the_paper_classifier_to_the_same_bits() {
        let train = survey_split();
        let dims = [train.x.cols(), 128, 89, 62, 60];
        let cfg = TrainConfig::new(ORACLE_EPOCHS, 32, 7);
        let mut seed_model = Sequential::mlp(&dims, Activation::Relu, 7);
        let mut kernel_model = seed_model.clone();
        let (mut seed_opt, mut kernel_opt) = (SeedAdam::new(1e-3), Adam::new(1e-3));
        seed_model.fit_classifier(&train.x, &train.labels, &mut seed_opt, &cfg);
        kernel_model.fit_classifier(&train.x, &train.labels, &mut kernel_opt, &cfg);
        assert_eq!(kernel_opt.steps(), 2000, "steps taken");
        assert_the_stuck_regime_was_reached("fit_classifier", &seed_opt, &kernel_opt);
        assert_flush_is_the_only_difference(
            "fit_classifier",
            (seed_model.param_tensors(), &seed_opt),
            (kernel_model.param_tensors(), &kernel_opt),
        );
    }

    /// Trajectory oracle, fused network: `SafeLoc::pretrain`'s fit
    /// (`fit_augmented` with the paper configuration's decoder detachment
    /// and reconstruction weight) on the same split.
    #[test]
    fn flushed_adam_trains_the_fused_network_to_the_same_bits() {
        use safeloc::{FusedConfig, FusedNetwork, SafeLocConfig};
        let train = survey_split();
        let paper = SafeLocConfig::paper(7);
        let cfg = TrainConfig::new(ORACLE_EPOCHS, paper.batch_size, paper.seed);
        let mut seed_net = FusedNetwork::new(&FusedConfig::paper(train.x.cols(), 60, paper.seed));
        let mut kernel_net = seed_net.clone();
        let mut seed_opt = SeedAdam::new(paper.pretrain_lr);
        let mut kernel_opt = Adam::new(paper.pretrain_lr);
        for (net, opt) in [
            (&mut seed_net, &mut seed_opt as &mut dyn Optimizer),
            (&mut kernel_net, &mut kernel_opt),
        ] {
            net.fit_augmented(
                &train.x,
                &train.labels,
                opt,
                &cfg,
                paper.detach_decoder,
                paper.recon_weight,
                paper.augment.as_ref(),
            );
        }
        assert_eq!(kernel_opt.steps(), 2000, "steps taken");
        assert_the_stuck_regime_was_reached("fit_augmented", &seed_opt, &kernel_opt);
        assert_flush_is_the_only_difference(
            "fit_augmented",
            (seed_net.param_tensors(), &seed_opt),
            (kernel_net.param_tensors(), &kernel_opt),
        );
    }

    #[test]
    fn naive_krum_agrees_with_shared_matrix_krum() {
        let updates: Vec<ClientUpdate> = (0..6)
            .map(|i| {
                let w = if i == 5 { 40.0 } else { 1.0 + i as f32 * 0.01 };
                ClientUpdate::new(
                    i,
                    NamedParams::new(vec![("w".into(), Matrix::filled(1, 8, w))]),
                    3,
                )
            })
            .collect();
        let gm = NamedParams::new(vec![("w".into(), Matrix::zeros(1, 8))]);
        let fast = DefensePipeline::krum(1).aggregate(&gm, &updates).params;
        let slow = krum_select(&updates, 1).unwrap();
        assert_eq!(fast, slow);
    }
}
