//! Fixtures shared by the defense module's unit tests: tiny hand-built
//! updates, the dense delta block the view is pinned against, the
//! `round_screen` cohort in miniature. Also read by `safeloc-bench`'s
//! tolerance contract, whose golden verdict table is taken on
//! [`attacked_cohort`].

use crate::update::ClientUpdate;
use safeloc_nn::{Matrix, NamedParams};

/// A tiny two-tensor snapshot for aggregator tests.
pub fn params(w: &[f32], b: &[f32]) -> NamedParams {
    NamedParams::new(vec![
        (
            "layer0.w".into(),
            Matrix::from_vec(1, w.len(), w.to_vec()).unwrap(),
        ),
        (
            "layer0.b".into(),
            Matrix::from_vec(1, b.len(), b.to_vec()).unwrap(),
        ),
    ])
}

pub fn update(id: usize, w: &[f32], b: &[f32]) -> ClientUpdate {
    ClientUpdate::new(id, params(w, b), 10)
}

/// The `n × d` block of flattened deltas `LM_i − GM` every stage swept
/// before rows could be stored as supports — the dense reference the
/// delta view is pinned against.
pub fn delta_block(global: &NamedParams, updates: &[&ClientUpdate]) -> Matrix {
    let rows: Vec<Vec<f32>> = updates
        .iter()
        .map(|u| u.params.delta(global).flatten().into_vec())
        .collect();
    Matrix::from_rows(&rows)
}

/// `like`'s architecture over `values`, written tensor by tensor
/// (`add_flat` onto zeros would lose a `-0.0`).
pub fn shaped(like: &NamedParams, values: &[f32]) -> NamedParams {
    let (mut params, mut at) = (like.clone(), 0);
    for (_, t) in params.iter_mut() {
        let len = t.len();
        t.as_mut_slice().copy_from_slice(&values[at..at + len]);
        at += len;
    }
    params
}

/// `updates` as they reach the server when every client compresses
/// with `spec`: `GM + decode(encode(LM − GM))`, carrying the repr.
pub fn reencoded(
    g: &NamedParams,
    updates: &[ClientUpdate],
    spec: crate::DeltaSpec,
) -> Vec<ClientUpdate> {
    updates
        .iter()
        .map(|u| {
            let delta = u.params.delta(g).flatten().into_vec();
            let (repr, decoded) = crate::DeltaCompressor::new(spec).compress(&delta);
            let mut params = g.clone();
            params.add_flat(&decoded);
            ClientUpdate::with_repr(u.client_id, params, u.num_samples, repr)
        })
        .collect()
}

/// Tensor shapes of [`attacked_cohort`]'s default model: four tensors,
/// `d = 3070 >` [`SCREEN_SAMPLE_DIM`](crate::defense::SCREEN_SAMPLE_DIM),
/// so the stride subsample is a proper subset crossing tensor edges.
pub const WIDE_SHAPES: [(usize, usize); 4] = [(40, 60), (1, 60), (60, 10), (1, 10)];

/// `round_screen`'s fixture in miniature: a GM over `shapes` and `n`
/// updates `GM + δᵢ` sharing one honest direction plus per-client
/// noise. Every tenth update (`i % 10 == 3`) is a ×10-boosted
/// label-direction outlier (`δ = −10·honest`), and update 7 is an
/// honest one at 4× the benign norm: past `NormClip`'s default cap, so
/// clipped, in the majority cluster, and the latent stage's outlier.
pub fn attacked_cohort(
    n: usize,
    shapes: &[(usize, usize)],
    seed: u64,
) -> (NamedParams, Vec<ClientUpdate>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tensor = |scale: f32, (rows, cols): (usize, usize)| {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
    };
    let named = |tensors: Vec<Matrix>| -> NamedParams {
        tensors
            .into_iter()
            .enumerate()
            .map(|(t, m)| (format!("t{t}"), m))
            .collect()
    };
    let global = named(shapes.iter().map(|&s| tensor(0.5, s)).collect());
    let honest = named(shapes.iter().map(|&s| tensor(0.05, s)).collect());
    let updates = (0..n)
        .map(|i| {
            let mut delta = named(shapes.iter().map(|&s| tensor(0.02, s)).collect());
            delta.axpy(1.0, &honest);
            let boost = match i {
                7 => 4.0,
                _ if i % 10 == 3 => -10.0,
                _ => 1.0,
            };
            let mut lm = global.clone();
            lm.axpy(boost, &delta);
            ClientUpdate::new(i, lm, 10)
        })
        .collect();
    (global, updates)
}
