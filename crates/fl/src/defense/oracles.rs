//! Differential oracles for the screening path.
//!
//! The fast screening path (rows stored as supports and read through
//! support kernels, cached norms in 2-means, one kernel call per
//! projection, the sampled block read in place or off the view, recycled
//! buffers, sorted columns that only gather what can differ from the GM
//! and fold sixty-four at a time, integer sort keys, block-transposed
//! supports, a 2-means that stops re-centring a settled split, a projection
//! of the live rows only) promises the
//! *same bits* as the straightforward implementations it replaced. Those
//! implementations live on here, test-only, as the references the promise
//! is checked against — every one of them reads the dense `n × d` block of
//! `LM − GM` ([`delta_block`]) or the updates' own parameters, never the
//! delta view: on attacked cohorts above [`EXACT_SCREEN_MAX`], dense,
//! `TopK`-sparse and mixed, the full
//! `NonFiniteGuard → NormClip → cluster → latent → TrimmedMean` pipeline
//! must reach identical decisions — rule, accepted set, score bits — and a
//! bit-identical GM either way. (The delta-pass reference for the sampled
//! block sits next to it in `context.rs`, the dense reference for its
//! cosine matrix over supports in `distance.rs`.)
//!
//! The entry point has a reference too: before the non-finite check was
//! stage zero of the pipeline, a guard *in front of* it filtered the
//! non-finite updates out, ran the pipeline on the survivors and scattered
//! its decisions back ([`aggregate_or_clone`]). Stage zero must decide
//! what that filter decided, for every canonical pipeline, with one
//! documented exception: the exact/sampled split reads the number of
//! updates received, not the number that survived.

use super::*;
use crate::defense::test_support::{attacked_cohort, delta_block, reencoded, shaped, WIDE_SHAPES};
use crate::report::UpdateDecision;
use crate::{DeltaRepr, DeltaSpec};
use rayon::prelude::*;
use safeloc_nn::{kernels, Matrix};
use std::borrow::Cow;

/// The guard before it read the view: every update's parameters swept.
#[derive(Clone)]
struct ReferenceGuard;

impl DefenseStage for ReferenceGuard {
    fn name(&self) -> &'static str {
        NON_FINITE_RULE
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        for (i, u) in ctx.updates().iter().enumerate() {
            if verdicts.is_active(i) && u.params.has_non_finite() {
                verdicts.reject(i, NON_FINITE_RULE, 1.0);
            }
        }
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The entry point before stage zero: updates with NaN/Inf weights are
/// rejected up front, the pipeline runs on the survivors alone (if any),
/// and its decisions are scattered back to input positions.
fn aggregate_or_clone(
    rule: &mut DefensePipeline,
    global: &NamedParams,
    updates: &[ClientUpdate],
) -> AggregationOutcome {
    let (finite, finite_slots): (Vec<ClientUpdate>, Vec<usize>) = updates
        .iter()
        .enumerate()
        .filter(|(_, u)| !u.params.has_non_finite())
        .map(|(slot, u)| (u.clone(), slot))
        .unzip();
    let mut decisions = vec![
        UpdateDecision::Rejected {
            rule: NON_FINITE_RULE.to_string(),
            score: 1.0,
        };
        updates.len()
    ];
    if finite.is_empty() {
        return AggregationOutcome {
            params: global.clone(),
            decisions,
        };
    }
    let inner = rule.aggregate(global, &finite);
    assert_eq!(inner.decisions.len(), finite.len());
    for (slot, decision) in finite_slots.into_iter().zip(inner.decisions) {
        decisions[slot] = decision;
    }
    AggregationOutcome {
        params: inner.params,
        decisions,
    }
}

/// Norm clipping on norms swept from the dense block.
#[derive(Clone)]
struct ReferenceNormClip(NormClip);

impl DefenseStage for ReferenceNormClip {
    fn name(&self) -> &'static str {
        "norm-clip"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.len() < 2 {
            return;
        }
        let norms: Vec<f32> = delta_block(ctx.global(), ctx.updates())
            .iter_rows()
            .map(|row| kernels::sum_squares(row).sqrt())
            .collect();
        self.0.clip_to_norms(&norms, &active, verdicts);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The cluster stage before norms were cached: every cosine distance
/// recomputes both operands' norms (six sweeps per update per pass), over
/// per-update row copies, and every pass re-centres — the one that finds
/// the split settled too. `passes` records how many passes each round ran.
#[derive(Clone)]
struct ReferenceCluster {
    separation_threshold: f32,
    passes: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
}

impl ReferenceCluster {
    fn new(separation_threshold: f32) -> Self {
        Self {
            separation_threshold,
            passes: Default::default(),
        }
    }
}

fn cos_dist(a: &Matrix, b: &Matrix) -> f32 {
    let (dot, na, nb) = (a.flat_dot(b), a.l2_norm(), b.l2_norm());
    if na == 0.0 || nb == 0.0 {
        1.0
    } else {
        1.0 - dot / (na * nb)
    }
}

impl DefenseStage for ReferenceCluster {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        let n = active.len();
        if n <= 2 {
            return;
        }
        let deltas: Vec<Matrix> = delta_block(ctx.global(), ctx.updates())
            .iter_rows()
            .map(Matrix::row_vector)
            .collect();
        let pairwise = ctx.cosine();
        let mut best = (active[0], active[1], f32::NEG_INFINITY);
        for (slot, &i) in active.iter().enumerate() {
            for &j in &active[slot + 1..] {
                let d = pairwise.get(i, j);
                if d > best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (ca, cb, separation) = best;
        if separation < self.separation_threshold {
            return;
        }
        let mut centroids = [deltas[ca].clone(), deltas[cb].clone()];
        let mut assignment = vec![0usize; n];
        let mut passes = 0;
        for _ in 0..10 {
            passes += 1;
            let mut changed = false;
            for (slot, &i) in active.iter().enumerate() {
                let d = &deltas[i];
                let side = if cos_dist(d, &centroids[0]) <= cos_dist(d, &centroids[1]) {
                    0
                } else {
                    1
                };
                changed |= assignment[slot] != side;
                assignment[slot] = side;
            }
            for (side, centroid) in centroids.iter_mut().enumerate() {
                let members: Vec<&Matrix> = active
                    .iter()
                    .zip(&assignment)
                    .filter(|(_, &a)| a == side)
                    .map(|(&i, _)| &deltas[i])
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mut acc = members[0].scale(0.0);
                for m in &members {
                    acc.axpy(1.0 / members.len() as f32, m);
                }
                *centroid = acc;
            }
            if !changed {
                break;
            }
        }
        self.passes.lock().expect("passes lock").push(passes);
        let count_a = assignment.iter().filter(|&&a| a == 0).count();
        let majority = usize::from(count_a * 2 < n);
        for (&i, &a) in active.iter().zip(&assignment) {
            if a != majority {
                verdicts.reject(i, "cluster", cos_dist(&deltas[i], &centroids[majority]));
            }
        }
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The latent stage before the block projection: one `1 × d` row product
/// per active update, each streaming the whole projection.
#[derive(Clone)]
struct ReferenceLatent(LatentFilterAggregator);

impl DefenseStage for ReferenceLatent {
    fn name(&self) -> &'static str {
        "latent"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.is_empty() {
            return;
        }
        let projection = self.0.projection(ctx.global().num_params());
        let deltas = delta_block(ctx.global(), ctx.updates());
        let raw_rows = active
            .iter()
            .map(|&i| {
                Matrix::row_vector(deltas.row(i))
                    .matmul(projection)
                    .into_vec()
            })
            .collect();
        self.0.screen_features(raw_rows, &active, verdicts);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The coordinate-wise combiners before columns arrived sorted: every
/// active update's effective parameters gathered per coordinate, all `n`
/// values, and handed to `fold` unsorted.
fn gather_coordinate_wise(
    ctx: &RoundContext<'_>,
    verdicts: &mut Verdicts,
    fold: impl Fn(&mut [f32]) -> f32 + Sync,
) -> NamedParams {
    let active = verdicts.active_indices();
    let sources: Vec<Cow<'_, NamedParams>> =
        active.iter().map(|&i| verdicts.effective(ctx, i)).collect();
    let weight = 1.0 / active.len() as f32;
    for &i in &active {
        verdicts.set_weight(i, weight);
    }
    let names = ctx.global().names();
    let per_tensor: Vec<(String, Matrix)> = names
        .par_iter()
        .map(|name| {
            let gm = ctx.global().get(name).expect("same arch");
            let rows: Vec<&[f32]> = sources
                .iter()
                .map(|p| p.get(name).expect("same arch").as_slice())
                .collect();
            let mut out = vec![0.0f32; gm.len()];
            let mut buf = vec![0.0f32; rows.len()];
            for (e, slot) in out.iter_mut().enumerate() {
                for (b, row) in buf.iter_mut().zip(&rows) {
                    *b = row[e];
                }
                *slot = fold(&mut buf);
            }
            let (r, c) = gm.shape();
            (
                name.to_string(),
                Matrix::from_vec(r, c, out).expect("shape preserved"),
            )
        })
        .collect();
    per_tensor.into_iter().collect()
}

/// The trimmed mean that sorted all `n` values per coordinate.
#[derive(Clone)]
struct ReferenceTrimmedMean(f32);

impl Combiner for ReferenceTrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let n = verdicts.active_count();
        let t = ((self.0.clamp(0.0, 0.5) * n as f32).floor() as usize).min(n.saturating_sub(1) / 2);
        gather_coordinate_wise(ctx, verdicts, |values| {
            values.sort_unstable_by(f32::total_cmp);
            let kept = &values[t..values.len() - t];
            kept.iter().sum::<f32>() / kept.len() as f32
        })
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(self.clone())
    }
}

/// The median that stable-sorted all `n` values by `partial_cmp`.
#[derive(Clone)]
struct ReferenceMedian;

impl Combiner for ReferenceMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        gather_coordinate_wise(ctx, verdicts, |values| {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = values.len();
            if n % 2 == 1 {
                values[n / 2]
            } else {
                0.5 * (values[n / 2 - 1] + values[n / 2])
            }
        })
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(self.clone())
    }
}

const SEED: u64 = 0x5AFE;
const TRIM: f32 = 0.1;

/// `round_screen`'s stage list.
fn screening_pipeline() -> DefensePipeline {
    DefensePipeline::new(
        "fast",
        vec![
            Box::new(NonFiniteGuard),
            Box::new(NormClip::default()),
            Box::new(ClusterAggregator::default()),
            Box::new(LatentFilterAggregator::new(SEED)),
        ],
        Box::new(TrimmedMean::new(TRIM)),
    )
}

/// The same pipeline out of the dense references.
fn reference_pipeline() -> DefensePipeline {
    DefensePipeline::new(
        "reference",
        vec![
            Box::new(ReferenceGuard),
            Box::new(ReferenceNormClip(NormClip::default())),
            Box::new(ReferenceCluster::new(
                ClusterAggregator::default().separation_threshold,
            )),
            Box::new(ReferenceLatent(LatentFilterAggregator::new(SEED))),
        ],
        Box::new(ReferenceTrimmedMean(TRIM)),
    )
}

/// Every float of an outcome as its bit pattern, so `-0.0 != 0.0` and a
/// NaN equals itself: decisions `(accepted, rule, weight-or-score bits)`
/// and the GM's coordinates.
fn bits(out: &AggregationOutcome) -> (Vec<(bool, &str, u32)>, Vec<u32>) {
    let decisions = out
        .decisions
        .iter()
        .map(|d| match d {
            UpdateDecision::Accepted { weight } => (true, "", weight.to_bits()),
            UpdateDecision::Rejected { rule, score } => (false, rule.as_str(), score.to_bits()),
        })
        .collect();
    let gm = out
        .params
        .iter()
        .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (decisions, gm)
}

fn rejected_by<'a>(out: &'a AggregationOutcome, rule: &'a str) -> impl Iterator<Item = usize> + 'a {
    out.decisions
        .iter()
        .enumerate()
        .filter(move |(_, d)| matches!(d, UpdateDecision::Rejected { rule: r, .. } if r == rule))
        .map(|(i, _)| i)
}

#[test]
fn fast_screening_matches_the_reference_implementations_bitwise() {
    let n = 96;
    assert!(n > EXACT_SCREEN_MAX);
    let (mut fast, mut reference) = (screening_pipeline(), reference_pipeline());
    // Three rounds: the latent stage scores by median distance while its
    // benign history is short and by autoencoder afterwards.
    for round in 0..3 {
        let (g, u) = attacked_cohort(n, &WIDE_SHAPES, 40 + round);
        let got = fast.aggregate(&g, &u);
        let expected = reference.aggregate(&g, &u);
        assert_eq!(bits(&got), bits(&expected), "round {round} diverged");
        // Not vacuously: the boosted outliers are the cluster stage's
        // minority, the loud honest update the latent stage's outlier.
        assert_eq!(
            rejected_by(&got, "cluster").collect::<Vec<_>>(),
            (3..n).step_by(10).collect::<Vec<_>>(),
            "round {round}"
        );
        assert_eq!(rejected_by(&got, "latent").collect::<Vec<_>>(), [7]);
    }
}

const TOP_5_PERCENT: DeltaSpec = DeltaSpec::TopK { fraction: 0.05 };

/// How many of the round's rows the view stores dense.
fn dense_rows(g: &NamedParams, u: &[ClientUpdate]) -> usize {
    let refs: Vec<&ClientUpdate> = u.iter().collect();
    RoundContext::new(g, &refs).delta_rows().dense_rows()
}

/// The screening pipeline with the latent stage's threshold moved, and
/// its dense reference. At the default 1.8 σ the latent stage rejects the
/// loud-but-honest update 7; at a threshold nothing reaches it still
/// projects and scores every row, and update 7 — clipped by then — goes on
/// to the combiner.
fn pipelines_at(z_threshold: f32) -> (DefensePipeline, DefensePipeline) {
    let mut latent = LatentFilterAggregator::new(SEED);
    latent.z_threshold = z_threshold;
    let (mut fast, mut reference) = (screening_pipeline(), reference_pipeline());
    fast.stages[3] = Box::new(latent.clone());
    reference.stages[3] = Box::new(ReferenceLatent(latent));
    (fast, reference)
}

/// Update `i`'s clip scale after the guard and `NormClip`.
fn clip_scale(g: &NamedParams, u: &[ClientUpdate], i: usize) -> f32 {
    let refs: Vec<&ClientUpdate> = u.iter().collect();
    let ctx = RoundContext::new(g, &refs);
    let mut verdicts = Verdicts::new(u.len());
    NormClip::default().screen(&ctx, &mut verdicts);
    verdicts.scale(i)
}

/// `round_screen`'s uploads: every row of the view is a support, and every
/// stage must still say what it says over the dense block — with the
/// latent stage rejecting update 7, and with update 7 surviving, clipped,
/// into the trimmed mean among unclipped sparse rows.
#[test]
fn sparse_cohorts_screen_bit_for_bit_like_the_dense_block() {
    for n in [96, 256] {
        for z_threshold in [LatentFilterAggregator::new(SEED).z_threshold, f32::MAX] {
            let (mut fast, mut reference) = pipelines_at(z_threshold);
            for round in 0..3 {
                let (g, u) = attacked_cohort(n, &WIDE_SHAPES, 40 + round);
                let u = reencoded(&g, &u, TOP_5_PERCENT);
                assert_eq!(dense_rows(&g, &u), 0, "a 5 % upload was stored dense");
                let got = fast.aggregate(&g, &u);
                let expected = reference.aggregate(&g, &u);
                let case = format!("n {n}, z {z_threshold}, round {round}");
                assert_eq!(bits(&got), bits(&expected), "{case} diverged");
                assert_eq!(
                    rejected_by(&got, "cluster").collect::<Vec<_>>(),
                    (3..n).step_by(10).collect::<Vec<_>>(),
                    "{case}"
                );
                assert!(clip_scale(&g, &u, 7) < 1.0, "{case}: update 7 unclipped");
                assert_eq!(
                    got.decisions[7].is_accepted(),
                    z_threshold == f32::MAX,
                    "{case}"
                );
            }
        }
    }
}

/// One `Dense` and one `QuantizedI8` upload among sparse ones are two
/// dense rows; nobody else's row moves, and nothing changes a bit.
#[test]
fn mixed_cohorts_store_each_row_as_it_is() {
    let n = 96;
    let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 71);
    let mut u = reencoded(&g, &dense, TOP_5_PERCENT);
    u[5] = dense[5].clone();
    u[11] = reencoded(&g, &dense[11..12], DeltaSpec::QuantizedI8).remove(0);
    assert_eq!(dense_rows(&g, &u), 2);
    // A full-width row among 5 % ones can be the latent stage's outlier;
    // with its threshold out of reach both go on into the trimmed mean's
    // columns, beside the supports.
    for z_threshold in [LatentFilterAggregator::new(SEED).z_threshold, f32::MAX] {
        let (mut fast, mut reference) = pipelines_at(z_threshold);
        for round in 0..2 {
            let got = fast.aggregate(&g, &u);
            assert_eq!(
                bits(&got),
                bits(&reference.aggregate(&g, &u)),
                "z {z_threshold}, round {round}"
            );
            assert!(
                z_threshold < f32::MAX
                    || (got.decisions[5].is_accepted() && got.decisions[11].is_accepted()),
                "round {round}: a dense row never reached the combiner"
            );
        }
    }
}

/// The repr is what the client says it sent. An update that says `TopK`
/// while its parameters differ from the GM everywhere is a dense row, and
/// is screened exactly as if it had said `Dense`.
#[test]
fn a_lying_repr_is_never_read() {
    let n = 96;
    let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 72);
    let mut u = reencoded(&g, &dense, TOP_5_PERCENT);
    let claimed = u[9].repr.clone();
    assert!(matches!(claimed, DeltaRepr::TopK { .. }));
    u[9] = ClientUpdate::with_repr(9, dense[9].params.clone(), 10, claimed);
    assert_eq!(dense_rows(&g, &u), 1);
    let lying = screening_pipeline().aggregate(&g, &u);
    assert_eq!(
        bits(&lying),
        bits(&reference_pipeline().aggregate(&g, &u)),
        "the view diverged from the dense block"
    );
    u[9].repr = DeltaRepr::Dense;
    assert_eq!(
        bits(&lying),
        bits(&screening_pipeline().aggregate(&g, &u)),
        "the repr was read"
    );
}

/// A small model for hand-built rows: `d = 80`, so a row may differ from
/// the GM in up to ten coordinates and still be stored as a support.
const SMALL_SHAPES: [(usize, usize); 2] = [(4, 16), (1, 16)];

/// The GM of [`attacked_cohort`] over [`SMALL_SHAPES`] with zeros of both
/// signs planted in it, and `n` updates that are corner cases of the
/// sorted column: one equal to the GM (empty support, norm 0); one that
/// differs from it only in the sign of those zeros (`with_zero_flips`;
/// `−0.0` and `+0.0` differ in bits, so they are in its support, with a
/// delta of `±0.0`); one dense row that *equals* the GM on every third
/// coordinate (full-row values tying with the run); the rest sparse, their
/// supports overlapping on coordinates 0–2 with values that tie with each
/// other and straddle the GM's.
fn corner_cohort(n: usize, with_zero_flips: bool) -> (NamedParams, Vec<ClientUpdate>) {
    let (g, dense) = attacked_cohort(n, &SMALL_SHAPES, 73);
    let zeros = [(5, 0.0f32), (6, -0.0), (40, 0.0), (70, -0.0)];
    let mut flat = g.flatten().into_vec();
    for &(e, zero) in &zeros {
        flat[e] = zero;
    }
    let d = flat.len();
    let g = shaped(&g, &flat);
    let with_flat = |id: usize, lm: &[f32]| ClientUpdate::new(id, shaped(&g, lm), 10);
    let updates = (0..n)
        .map(|i| {
            let mut lm = flat.clone();
            match i {
                0 => {}
                1 if with_zero_flips => {
                    for &(e, zero) in &zeros {
                        lm[e] = -zero;
                    }
                }
                2 => {
                    let own = dense[2].params.flatten().into_vec();
                    for e in (0..d).filter(|e| e % 3 != 0) {
                        lm[e] = own[e];
                    }
                }
                _ => {
                    // Ties across rows on coordinate 0, values either side
                    // of the GM's on 1 and 2, one private coordinate each.
                    lm[0] = flat[0] + 0.25;
                    lm[1] = flat[1] + if i % 2 == 0 { 0.5 } else { -0.5 };
                    lm[2] = flat[2] - 0.125 * i as f32;
                    lm[8 + i] += 0.75;
                }
            }
            with_flat(i, &lm)
        })
        .collect();
    (g, updates)
}

/// The coordinate-wise combiners on the corner cases of a sorted column,
/// at odd and even `n`, down to a single kept value (`n − 2t = 1`) — and
/// behind the exact-path stages, which read the same view densified.
#[test]
fn sorted_columns_fold_like_the_gathered_ones() {
    for n in [7, 8] {
        let (g, u) = corner_cohort(n, true);
        assert_eq!(dense_rows(&g, &u), 1, "only the tying row is dense");
        for trim in [0.0, 0.1, 0.49] {
            let (mut fast, mut reference) = (screening_pipeline(), reference_pipeline());
            fast.combiner = Box::new(TrimmedMean::new(trim));
            reference.combiner = Box::new(ReferenceTrimmedMean(trim));
            assert_eq!(
                bits(&fast.aggregate(&g, &u)),
                bits(&reference.aggregate(&g, &u)),
                "n {n}, trim {trim}"
            );
        }
        // The median reads one or two order statistics; the old stable
        // `partial_cmp` sort left `-0.0` and `+0.0` in arrival order where
        // `total_cmp` puts `-0.0` first, so with zeros of both signs in a
        // column only the value is pinned, without them the bits.
        let median = |combiner: Box<dyn Combiner>, g: &NamedParams, u: &[ClientUpdate]| {
            DefensePipeline::new("median", Vec::new(), combiner).aggregate(g, u)
        };
        assert_eq!(
            median(Box::new(CoordinateMedian), &g, &u),
            median(Box::new(ReferenceMedian), &g, &u),
            "n {n}"
        );
        let (g, u) = corner_cohort(n, false);
        assert_eq!(
            bits(&median(Box::new(CoordinateMedian), &g, &u)),
            bits(&median(Box::new(ReferenceMedian), &g, &u)),
            "n {n}"
        );
    }
}

/// Tensor lengths 17, 31 and 32 — each shorter than one column block of
/// [`coordinate_wise`](super::robust), so a tensor is one partial block —
/// and `d = 80`: a row may differ from the GM in ten coordinates and still
/// be stored as a support.
const BLOCK_SHAPES: [(usize, usize); 3] = [(1, 17), (1, 31), (2, 16)];

/// Tensor lengths 65, 127 and 128 — `≡ 1, 63, 0 (mod 64)`, so the column
/// blocks of [`coordinate_wise`](super::robust) end in one lane, in
/// sixty-three and flush — and `d = 320`.
const LANE_EDGE_SHAPES: [(usize, usize); 3] = [(1, 65), (1, 127), (2, 64)];

/// Twelve updates over `shapes` whose columns hold a chosen number of
/// explicit values each — at `t = 3` (a 25 % trim) exactly `t − 2`, `t`,
/// `t + 1` and `2t` of them in the first four columns of every tensor (four
/// lanes of one block, four different run lengths), `t + 1` in every
/// tensor's last column and none anywhere else — on both sides of the GM's
/// value, with the GM itself `−0.0` under one `t`-column and one
/// `t + 1`-column.
fn block_cohort(shapes: &[(usize, usize)]) -> (NamedParams, Vec<ClientUpdate>) {
    let n = 12;
    let (g, _) = attacked_cohort(n, shapes, 76);
    let mut flat = g.flatten().into_vec();
    let d = flat.len();
    let mut lms = vec![Vec::new(); n];
    let (mut start, mut next_row) = (0, 0);
    for (tensor, (_, t)) in g.iter().enumerate() {
        let columns = [(0, 1), (1, 3), (2, 4), (3, 6), (t.len() - 1, 4)];
        if tensor > 0 {
            flat[start + tensor] = -0.0;
        }
        for (column, explicit) in columns {
            for k in 0..explicit {
                let row = (next_row + k) % n;
                let sign = if (row + column) % 2 == 0 { 1.0 } else { -1.0 };
                lms[row].push((start + column, sign * (0.1 + 0.01 * row as f32)));
            }
            next_row += 5;
        }
        start += t.len();
    }
    assert_eq!(start, d);
    let updates = (lms.iter().enumerate())
        .map(|(i, moved)| {
            let mut lm = flat.clone();
            for &(e, by) in moved {
                lm[e] += by;
            }
            ClientUpdate::new(i, shaped(&g, &lm), 10)
        })
        .collect();
    (shaped(&g, &flat), updates)
}

/// The lockstep fold against the gather-and-sort references, straight
/// through `combine`: all rows sparse; one row clipped and one dense (read
/// in full beside the supports, so a column's looked-at count is its
/// explicit values plus two); one update rejected; and the same cohort
/// uploaded dense (`run == 0` in every column) — at no trim, at `t = 3`
/// and at the widest trim, for the trimmed mean and the median alike; over
/// [`BLOCK_SHAPES`] and [`LANE_EDGE_SHAPES`].
#[test]
fn lockstep_columns_fold_like_the_gathered_ones() {
    for shapes in [&BLOCK_SHAPES, &LANE_EDGE_SHAPES] {
        let (g, sparse) = block_cohort(shapes);
        assert_eq!(
            dense_rows(&g, &sparse),
            0,
            "a ten-coordinate row was stored dense"
        );
        let (_, noisy) = attacked_cohort(sparse.len(), shapes, 77);
        let mut mixed = sparse.clone();
        mixed[7].params = g.clone();
        mixed[7].params.axpy(0.01, &noisy[7].params);
        let all_dense: Vec<ClientUpdate> = (sparse.iter().zip(&noisy))
            .map(|(u, noise)| {
                let mut lm = u.params.clone();
                lm.axpy(0.01, &noise.params);
                ClientUpdate::new(u.client_id, lm, 10)
            })
            .collect();
        assert_eq!(
            (dense_rows(&g, &mixed), dense_rows(&g, &all_dense)),
            (1, 12)
        );
        type Verdict = fn(&mut Verdicts);
        let cases: [(&str, &[ClientUpdate], Verdict); 4] = [
            ("sparse", &sparse, |_| {}),
            ("clipped + dense", &mixed, |v| v.clip(2, 0.5)),
            ("rejected", &sparse, |v| v.reject(4, "test", 1.0)),
            ("all dense", &all_dense, |v| v.clip(2, 0.5)),
        ];
        for (case, updates, decide) in cases {
            let refs: Vec<&ClientUpdate> = updates.iter().collect();
            let combined = |combiner: &mut dyn Combiner| -> Vec<u32> {
                let ctx = RoundContext::new(&g, &refs);
                let mut verdicts = Verdicts::new(refs.len());
                decide(&mut verdicts);
                let params = combiner.combine(&ctx, &mut verdicts);
                (params.iter())
                    .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
                    .collect()
            };
            for trim in [0.0, 0.25, 0.49] {
                assert_eq!(
                    combined(&mut TrimmedMean::new(trim)),
                    combined(&mut ReferenceTrimmedMean(trim)),
                    "{shapes:?}, {case}, trim {trim}"
                );
            }
            assert_eq!(
                combined(&mut CoordinateMedian),
                combined(&mut ReferenceMedian),
                "{shapes:?}, {case}"
            );
        }
    }
}

/// Plants `bad` in `u`, at the first coordinate of its first tensor that
/// differs from the GM's — inside the support, if the row has one.
fn poison(g: &NamedParams, u: &mut ClientUpdate, bad: f32) {
    let (_, t) = u.params.iter_mut().next().expect("a tensor");
    let gm = g.iter().next().expect("a tensor").1.as_slice();
    let at = (t.as_slice().iter().zip(gm))
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .expect("the row differs from the GM somewhere in its first tensor");
    t.as_mut_slice()[at] = bad;
}

/// Stage zero must find a NaN or an infinity wherever it sits: inside a
/// sparse row's support, in a dense row, or in the GM, where `x − x` is
/// NaN and no row has a support at all.
#[test]
fn the_guard_stage_reads_non_finite_values_off_the_view() {
    let n = 96;
    let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 74);
    let mut u = reencoded(&g, &dense, TOP_5_PERCENT);
    poison(&g, &mut u[4], f32::NAN);
    poison(&g, &mut u[5], f32::NEG_INFINITY);
    u[6] = dense[6].clone();
    poison(&g, &mut u[6], f32::INFINITY);
    assert_eq!(
        dense_rows(&g, &u),
        1,
        "a poisoned support is still a support"
    );
    let got = screening_pipeline().aggregate(&g, &u);
    assert_eq!(
        rejected_by(&got, NON_FINITE_RULE).collect::<Vec<_>>(),
        [4, 5, 6]
    );
    assert_eq!(bits(&got), bits(&reference_pipeline().aggregate(&g, &u)));

    // A NaN in the GM reaches every re-materialized LM.
    let mut bad_g = g.clone();
    bad_g.iter_mut().next().expect("a tensor").1.as_mut_slice()[17] = f32::NAN;
    let u = reencoded(&bad_g, &dense, TOP_5_PERCENT);
    assert_eq!(dense_rows(&bad_g, &u), n);
    let got = screening_pipeline().aggregate(&bad_g, &u);
    assert_eq!(rejected_by(&got, NON_FINITE_RULE).count(), n);
    assert_eq!(
        bits(&got),
        bits(&reference_pipeline().aggregate(&bad_g, &u))
    );
}

/// The six canonical pipelines of this crate (`tests/failure_injection.rs`
/// lists them as `all_aggregators`; the seventh, SAFELOC's saliency
/// pipeline, has the same test next to it in `safeloc`) and
/// `round_screen`'s composition.
fn every_pipeline() -> Vec<DefensePipeline> {
    vec![
        DefensePipeline::fedavg(),
        DefensePipeline::krum(1),
        DefensePipeline::selective(0.5),
        DefensePipeline::cluster(0.15),
        DefensePipeline::latent(0),
        DefensePipeline::latent_with_history(0),
        screening_pipeline(),
    ]
}

/// Rounds mixing NaN, ±∞ and finite updates — dense, and `TopK` with the
/// bad value inside a support or in the round's one dense row — at sizes
/// that exercise the small-round, median-distance and autoencoder paths
/// of the stateful stages over three rounds: stage zero and the filter it
/// replaced reach the same decisions and the same GM, and a warm pipeline
/// what a cold one does.
#[test]
fn stage_zero_decides_what_the_filter_in_front_of_the_pipeline_decided() {
    for n in [4, 9, EXACT_SCREEN_MAX] {
        for sparse in [false, true] {
            for (mut fast, mut reference) in every_pipeline().into_iter().zip(every_pipeline()) {
                for round in 0..3 {
                    let (g, dense) = attacked_cohort(n, &WIDE_SHAPES, 80 + round);
                    let mut u = dense.clone();
                    let mut bad = vec![(0, f32::NAN), (n / 2, f32::INFINITY)];
                    if n > 4 {
                        bad.push((n - 1, f32::NEG_INFINITY));
                    }
                    if sparse {
                        u = reencoded(&g, &u, TOP_5_PERCENT);
                        // The dense row holds the NaN one round, an
                        // infinity the next.
                        let (slot, _) = bad[round as usize % 2];
                        u[slot] = dense[slot].clone();
                    }
                    for &(slot, value) in &bad {
                        poison(&g, &mut u[slot], value);
                    }
                    let case = format!("{}, n {n}, sparse {sparse}, round {round}", fast.label());
                    if sparse {
                        assert_eq!(dense_rows(&g, &u), 1, "{case}");
                    }
                    let mut cold = fast.clone();
                    let got = fast.aggregate(&g, &u);
                    assert_eq!(
                        rejected_by(&got, NON_FINITE_RULE).collect::<Vec<_>>(),
                        bad.iter().map(|&(slot, _)| slot).collect::<Vec<_>>(),
                        "{case}"
                    );
                    assert_eq!(fast.take_stage_telemetry()[0].rejections, bad.len());
                    let expected = aggregate_or_clone(&mut reference, &g, &u);
                    assert_eq!(bits(&got), bits(&expected), "{case} diverged");
                    assert_eq!(
                        bits(&got),
                        bits(&cold.aggregate(&g, &u)),
                        "{case}: warm buffers"
                    );
                }
            }
        }
    }
}

/// Records what the context it is shown holds: the round's size and the
/// bits of one squared-L2 distance.
#[derive(Clone)]
struct DistanceProbe(std::sync::Arc<std::sync::Mutex<Vec<(usize, u32)>>>);

impl DefenseStage for DistanceProbe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, _: &mut Verdicts) {
        let seen = (ctx.len(), ctx.squared_l2().get(1, 2).to_bits());
        self.0.lock().expect("probe lock").push(seen);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

/// The one behavioural edge of moving the guard into the pipeline: the
/// exact/sampled split reads the number of updates *received*. 65 updates
/// of which one is NaN used to be filtered down to 64 and screened
/// exactly; they now run, the NaN is rejected, and the other 64 are
/// screened on the sampled path.
#[test]
fn sixty_five_updates_with_one_nan_screen_on_the_sampled_path() {
    let n = EXACT_SCREEN_MAX + 1;
    let (g, mut u) = attacked_cohort(n, &WIDE_SHAPES, 90);
    poison(&g, &mut u[0], f32::NAN);
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let probed = || {
        DefensePipeline::new(
            "probe+krum",
            vec![Box::new(DistanceProbe(seen.clone()))],
            Box::new(Krum::new(6)),
        )
    };
    let got = probed().aggregate(&g, &u);
    assert_eq!(rejected_by(&got, NON_FINITE_RULE).collect::<Vec<_>>(), [0]);
    assert_eq!(got.accepted(), 1, "Krum selected among the other 64");
    let filtered = aggregate_or_clone(&mut probed(), &g, &u);
    assert_eq!(filtered.accepted(), 1);

    // What each context held: all 65 and the sampled estimate — the
    // stride subsample of the two deltas, rescaled by d/d′ — against the
    // 64 survivors and the exact distance.
    let d = g.num_params();
    assert!(d > SCREEN_SAMPLE_DIM);
    let sample = |u: &ClientUpdate| -> Vec<f32> {
        let flat = u.params.delta(&g).flatten().into_vec();
        (0..SCREEN_SAMPLE_DIM)
            .map(|j| flat[j * d / SCREEN_SAMPLE_DIM])
            .collect()
    };
    let sampled = kernels::squared_distance(&sample(&u[1]), &sample(&u[2]))
        * (d as f32 / SCREEN_SAMPLE_DIM as f32);
    let exact = DistanceMatrix::squared_l2(&[&u[2], &u[3]]).get(0, 1);
    assert_ne!(sampled.to_bits(), exact.to_bits());
    assert_eq!(
        *seen.lock().expect("probe lock"),
        [(n, sampled.to_bits()), (n - 1, exact.to_bits())]
    );
}

/// A finite LM value whose delta overflows would put an infinity into a
/// 2-means centroid, where the `+0.0 · ∞` the dense sweep computes for
/// every other row is NaN, not a skippable zero: such a round is stored
/// dense, all of it.
#[test]
fn an_overflowing_delta_stores_the_round_dense() {
    let n = 96;
    let (mut g, dense) = attacked_cohort(n, &WIDE_SHAPES, 75);
    g.iter_mut().next().expect("a tensor").1.as_mut_slice()[3] = 3e38;
    let mut u = reencoded(&g, &dense, TOP_5_PERCENT);
    assert_eq!(dense_rows(&g, &u), 0);
    u[20]
        .params
        .iter_mut()
        .next()
        .expect("a tensor")
        .1
        .as_mut_slice()[3] = -3e38;
    assert!(!u[20].params.has_non_finite());
    assert_eq!(dense_rows(&g, &u), n);
    assert_eq!(
        bits(&screening_pipeline().aggregate(&g, &u)),
        bits(&reference_pipeline().aggregate(&g, &u))
    );
}

/// A narrower model for the width change: `d = 1950`, below the sample
/// budget, so the sampled block is the whole delta.
const NARROW_SHAPES: [(usize, usize); 3] = [(30, 50), (1, 50), (50, 8)];

/// One pipeline through growing, shrinking, re-shaped, dense and sparse
/// rounds must give, round for round, what a pipeline with cold buffers
/// gives: no stale delta rows, no stale support regions, no stale triangle
/// entries. The cold twin is a clone taken before the round — same rule
/// state, and (asserted) an empty scratch.
#[test]
fn recycled_buffers_never_change_an_outcome() {
    let clipped_krum = DefensePipeline::new(
        "norm-clip+krum",
        vec![Box::new(NormClip::default())],
        Box::new(Krum::new(13)),
    );
    for mut warm in [screening_pipeline(), clipped_krum] {
        let rounds = [
            (96, &WIDE_SHAPES[..], false),
            (70, &WIDE_SHAPES[..], true),
            (130, &WIDE_SHAPES[..], true),
            (130, &WIDE_SHAPES[..], false),
            (96, &NARROW_SHAPES[..], true),
            (40, &WIDE_SHAPES[..], true),
            (100, &WIDE_SHAPES[..], true),
        ];
        for (round, (n, shapes, sparse)) in rounds.into_iter().enumerate() {
            let (g, mut u) = attacked_cohort(n, shapes, 60 + round as u64);
            if sparse {
                // One dense row among the supports, in a different place
                // every round.
                let keep = u[round].clone();
                u = reencoded(&g, &u, TOP_5_PERCENT);
                u[round] = keep;
            }
            let mut cold = warm.clone();
            assert_eq!(
                cold.scratch.capacity(),
                0,
                "a cloned pipeline copied the recycled buffers"
            );
            let expected = cold.aggregate(&g, &u);
            let got = warm.aggregate(&g, &u);
            assert_eq!(
                bits(&got),
                bits(&expected),
                "{}: round {round} ({n} updates) diverged",
                warm.label()
            );
            let dense_rows = if sparse { 1 } else { n };
            assert!(warm.scratch.capacity() >= dense_rows * g.num_params());
        }
    }
}

/// `n` updates over [`SMALL_SHAPES`], each the GM plus uniform noise in
/// `±1` on every coordinate: no direction is shared, so 2-means wanders.
/// At `n = 96` and seed 32 it runs all ten passes.
fn noise_cohort(n: usize, seed: u64) -> (NamedParams, Vec<ClientUpdate>) {
    use rand::{Rng, SeedableRng};
    let (g, _) = attacked_cohort(n, &SMALL_SHAPES, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let flat = g.flatten().into_vec();
    let updates = (0..n)
        .map(|i| {
            let lm: Vec<f32> = (flat.iter())
                .map(|v| v + rng.gen_range(-1.0f32..1.0))
                .collect();
            ClientUpdate::new(i, shaped(&g, &lm), 10)
        })
        .collect();
    (g, updates)
}

/// [`attacked_cohort`] with its boosted attackers replaced by honest
/// copies and update 5 equal to the GM. Every delta points the honest way
/// but update 5's, whose norm is 0: the most distant pair is `(0, 5)` at
/// exactly 1, so 2-means seeds on a zero centroid — the distance to it is
/// 1 for every row, and every row's distance to update 0 is below that.
/// Pass 1 puts everyone on side `a`, where they started: the split is
/// settled at once.
fn settling_cohort(n: usize) -> (NamedParams, Vec<ClientUpdate>) {
    let (g, mut u) = attacked_cohort(n, &WIDE_SHAPES, 78);
    for i in (3..n).step_by(10) {
        u[i].params = u[i - 1].params.clone();
    }
    u[5].params = g.clone();
    (g, u)
}

/// The cluster stage — behind stage zero and `NormClip`, as in
/// `round_screen` — against [`ReferenceCluster`], which re-centres in
/// every pass: a split settled in pass 1 (nobody rejected, the seeds never
/// read), one that runs all ten passes (never settled, so every pass
/// re-centres on both sides), and the attacked cohorts of the other
/// oracles, dense and `TopK`. Decisions, score bits and the GM agree, and
/// the reference ran the pass count each case is chosen for.
#[test]
fn a_settled_split_is_not_recentred_and_decides_the_same() {
    let threshold = ClusterAggregator::default().separation_threshold;
    let (attacked_g, attacked) = attacked_cohort(96, &WIDE_SHAPES, 40);
    let sparse = reencoded(&attacked_g, &attacked, TOP_5_PERCENT);
    let (noise_g, noise) = noise_cohort(96, 32);
    let (settling_g, settling) = settling_cohort(96);
    let cases = [
        ("settles in pass 1", &settling_g, &settling, 1),
        ("runs all ten passes", &noise_g, &noise, 10),
        ("attacked, dense", &attacked_g, &attacked, 2),
        ("attacked, TopK", &attacked_g, &sparse, 2),
    ];
    for (case, g, u, passes) in cases {
        let reference = ReferenceCluster::new(threshold);
        let mut fast = DefensePipeline::new(
            "fast",
            vec![
                Box::new(NormClip::default()),
                Box::new(ClusterAggregator::new(threshold)),
            ],
            Box::new(UniformMean),
        );
        let mut slow = DefensePipeline::new(
            "reference",
            vec![
                Box::new(ReferenceNormClip(NormClip::default())),
                Box::new(reference.clone()),
            ],
            Box::new(UniformMean),
        );
        let got = fast.aggregate(g, u);
        assert_eq!(bits(&got), bits(&slow.aggregate(g, u)), "{case} diverged");
        assert_eq!(
            *reference.passes.lock().expect("passes lock"),
            [passes],
            "{case}"
        );
        let rejected = rejected_by(&got, "cluster").count();
        match passes {
            1 => assert_eq!(rejected, 0, "{case}: a settled first pass rejects nobody"),
            _ => assert!(rejected > 0, "{case}: nobody rejected"),
        }
    }
}
