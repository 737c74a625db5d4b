//! FEDLS-style latent-space anomaly screening, plus the opt-in
//! benign-history screen — both [`DefenseStage`]s of the defense-pipeline
//! API.

use crate::defense::{DefenseStage, RoundContext, Verdicts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safeloc_nn::{Activation, Adam, Dense, Init, Matrix, MseLoss, Optimizer, Sequential};

/// Latent-space update screening, following the paper's §II summary of
/// FEDLS: "autoencoder-based latent space representations to detect
/// anomalous LM updates".
///
/// Update deltas (from the round's shared [`RoundContext::delta_rows`]) are
/// random-projected to a small feature space (the deltas have tens of
/// thousands of dimensions; FEDLS's own encoder serves the same role), an
/// autoencoder is fit on the accumulated benign history, and updates
/// whose reconstruction error exceeds `mean + z_threshold·std` are
/// rejected with rule `"latent"` before the pipeline's combiner runs (a
/// [`UniformMean`](crate::defense::UniformMean) in the canonical FEDLS
/// composition, [`DefensePipeline::latent`](crate::defense::DefensePipeline::latent)).
///
/// This is the "resource-intensive" baseline of Table I: it runs a
/// second, large model server-side every round.
///
/// Rounds smaller than the 3-update guard cannot fit a filter of their
/// own; they are screened against the accumulated benign history instead
/// (median-norm rescale + z-test against the history rows' distance
/// distribution), so a boosted attacker in a cohort of two no longer
/// bypasses the defense under partial participation. With no history yet —
/// e.g. the very first round is already small — the round passes exactly
/// as before. The round-local z-test still cannot flag 1 outlier among
/// exactly 3 updates (mean+1.8σ of 3 points always covers the outlier);
/// composing a [`HistoryScreen`] after this stage
/// ([`DefensePipeline::latent_with_history`](crate::defense::DefensePipeline::latent_with_history))
/// closes that gap without re-pinning the default trajectories.
#[derive(Debug, Clone)]
pub struct LatentFilterAggregator {
    /// Random-projection feature dimension.
    pub feature_dim: usize,
    /// Autoencoder training epochs per round.
    pub ae_epochs: usize,
    /// Rejection threshold in standard deviations above the mean RCE.
    pub z_threshold: f32,
    /// Seed for the projection and AE init.
    pub seed: u64,
    /// Previously *accepted* updates: the AE is trained on this benign
    /// history, not on the round under test — otherwise a small round lets
    /// the AE memorize the outlier it is supposed to flag.
    record: BenignRecord,
}

impl LatentFilterAggregator {
    /// Creates the stage with sensible defaults (32-d features, 60
    /// epochs, 1.8σ rejection).
    pub fn new(seed: u64) -> Self {
        Self {
            feature_dim: 32,
            ae_epochs: 60,
            z_threshold: 1.8,
            seed,
            record: BenignRecord::new(0x9801_77CE),
        }
    }

    /// Minimum cohort size the round-local filter (AE or in-round median
    /// distance) can be fit on.
    const MIN_ROUND: usize = 3;

    /// Minimum accepted-history rows before the small-cohort fallback has
    /// something to screen against. Two rows is enough: the threshold is
    /// floored at half the benign center magnitude, so even a thin history
    /// separates a boosted attacker (whole multiples of the benign norm
    /// away) from ordinary drift — and waiting longer leaves more
    /// unscreened rounds for a model-replacement attacker to land in.
    const MIN_FALLBACK_HISTORY: usize = 2;

    /// The stage's random projection for `d`-parameter models.
    pub(crate) fn projection(&mut self, d: usize) -> &Matrix {
        self.record.projection_for(self.seed, self.feature_dim, d)
    }
}

/// Accepted feature rows a [`BenignRecord`] retains.
const HISTORY_CAP: usize = 60;

/// The record of accepted feature rows a stage screens against — held by
/// the FEDLS stage (for its autoencoder and its small-round fallback) and
/// by the [`HistoryScreen`], each with its own projection stream.
#[derive(Debug, Clone)]
struct BenignRecord {
    /// XORed into the owning stage's seed for the projection stream, so
    /// composing both stages never correlates their feature spaces.
    salt: u64,
    projection: Option<Matrix>,
    /// Feature rows of previously accepted updates, unit-scaled.
    rows: Vec<Vec<f32>>,
    /// Raw (pre-normalization) feature norms of `rows`, aligned with it.
    /// Small cohorts have no trustworthy in-round scale — the median norm
    /// of a two-update round is dominated by the attacker — so rounds are
    /// rescaled against this benign record instead.
    norms: Vec<f32>,
}

impl BenignRecord {
    fn new(salt: u64) -> Self {
        Self {
            salt,
            projection: None,
            rows: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Builds (or rebuilds on dimension change) the random `d ×
    /// feature_dim` projection and returns it.
    fn projection_for(&mut self, seed: u64, feature_dim: usize, d: usize) -> &Matrix {
        if self
            .projection
            .as_ref()
            .map(|p| p.rows() != d)
            .unwrap_or(true)
        {
            let mut rng = StdRng::seed_from_u64(seed ^ self.salt);
            let scale = (1.0 / feature_dim as f32).sqrt();
            self.projection = Some(Init::Uniform(scale).matrix(d, feature_dim, &mut rng));
        }
        self.projection.as_ref().expect("just built")
    }

    /// Appends an accepted feature row (and its raw norm), keeping both
    /// buffers bounded and aligned.
    fn remember(&mut self, row: Vec<f32>, raw_norm: f32) {
        self.rows.push(row);
        self.norms.push(raw_norm);
        if self.rows.len() > HISTORY_CAP {
            let excess = self.rows.len() - HISTORY_CAP;
            self.rows.drain(..excess);
            self.norms.drain(..excess);
        }
    }

    /// Screens the active updates (`raw_rows[slot]` for update
    /// `active[slot]`) against the record. A round cannot always fit a
    /// filter of its own — an AE, or even a within-round median, is
    /// meaningless on one or two updates, exactly the regime where a
    /// boosted attacker used to pass unchecked (the fig8 participation
    /// sweep's collapse) — so each update is z-tested against the
    /// accumulated *benign* rows instead: rescaled by the record's median
    /// raw norm (the in-round median norm is attacker-dominated in a
    /// cohort of two), scored by distance to the record's coordinate-wise
    /// median, and rejected with `rule` beyond `mean + z·spread` of the
    /// record's own distance distribution.
    ///
    /// While the record holds fewer than `min_rows` rows there is nothing
    /// to test against: the round passes, but its plausible rows are
    /// *recorded*, so a session running nothing but small cohorts still
    /// bootstraps a record and starts screening within a couple of rounds.
    /// Boost suspects are accepted then too, but never recorded as benign.
    fn screen(
        &mut self,
        raw_rows: &[Vec<f32>],
        active: &[usize],
        min_rows: usize,
        rule: &str,
        z_threshold: f32,
        verdicts: &mut Verdicts,
    ) {
        let raw_norms: Vec<f32> = raw_rows.iter().map(|r| row_norm(r)).collect();
        if self.rows.len() < min_rows {
            for (row, norm) in bootstrap_rows(raw_rows, &raw_norms, &self.norms) {
                self.remember(row, norm);
            }
            return;
        }
        let benign_scale = median_lower(&self.norms).max(1e-9);
        let (center, threshold) = history_threshold(&self.rows, z_threshold);
        for ((&i, raw), &raw_norm) in active.iter().zip(raw_rows).zip(&raw_norms) {
            let row: Vec<f32> = raw.iter().map(|v| v / benign_scale).collect();
            let score = distance(&row, &center);
            if score <= threshold {
                self.remember(row, raw_norm);
            } else {
                verdicts.reject(i, rule, score);
            }
        }
    }
}

/// Feature rows of the active updates: their rows of the round's shared
/// delta view, random-projected by **one** kernel call per storage kind
/// ([`DeltaRows::project`](crate::defense::DeltaRows::project)). The tall
/// `d × feature_dim` projection is thereby streamed from memory once per
/// round (the kernels block over `d`) instead of once per update; a row's
/// features depend on that row alone, so the rows earlier stages rejected
/// are simply not projected.
fn project_active(ctx: &RoundContext<'_>, projection: &Matrix, active: &[usize]) -> Vec<Vec<f32>> {
    let features = ctx.delta_rows().project(projection, active);
    (0..active.len())
        .map(|r| features.row(r).to_vec())
        .collect()
}

/// Norm ratio past which an unscreened bootstrap row is kept *out* of a
/// benign record: a model-replacement attacker boosts its delta by
/// `n_clients / n_attackers` (≥ 3 for any minority attacker in the
/// paper's fleets), so a row dwarfing its own round's smallest update —
/// or the record so far — by that much must not seed the history a
/// screen later trusts.
const BOOTSTRAP_NORM_RATIO: f32 = 3.0;

/// Bootstrap recording shared by the FEDLS small-round fallback and the
/// [`HistoryScreen`]: normalizes each plausible feature row to unit scale
/// and returns the `(row, raw_norm)` pairs to remember as benign. Rows
/// exceeding [`BOOTSTRAP_NORM_RATIO`] times the smallest benign-looking
/// magnitude in sight (the round minimum, tightened by the record's lower
/// median once one exists) are boost suspects and excluded.
fn bootstrap_rows(
    raw_rows: &[Vec<f32>],
    norms: &[f32],
    history_norms: &[f32],
) -> Vec<(Vec<f32>, f32)> {
    let round_min = norms
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min)
        .max(1e-9);
    let record_scale = if history_norms.is_empty() {
        round_min
    } else {
        // Lower median: robust to a boosted row already recorded.
        median_lower(history_norms).min(round_min).max(1e-9)
    };
    let mut out = Vec::new();
    for (row, &norm) in raw_rows.iter().zip(norms) {
        if norm / record_scale > BOOTSTRAP_NORM_RATIO {
            continue;
        }
        let scale = norm.max(1e-9);
        out.push((row.iter().map(|v| v / scale).collect(), norm));
    }
    out
}

/// The benign-history screen statistics shared by the FEDLS small-round
/// fallback and the [`HistoryScreen`]: the history's coordinate-wise
/// median center, and the rejection threshold — `mean + z·spread` of the
/// history rows' own distance-to-center distribution, floored at half the
/// center magnitude (a near-degenerate history with all rows alike must
/// not reject honest updates over ordinary round-to-round drift, while a
/// boosted attacker sits whole multiples of the benign norm away).
fn history_threshold(history: &[Vec<f32>], z_threshold: f32) -> (Vec<f32>, f32) {
    let center = column_median(history);
    let hist_dists: Vec<f32> = history.iter().map(|r| distance(r, &center)).collect();
    let mean_h = hist_dists.iter().sum::<f32>() / hist_dists.len() as f32;
    let var_h = hist_dists
        .iter()
        .map(|d| (d - mean_h) * (d - mean_h))
        .sum::<f32>()
        / hist_dists.len() as f32;
    let spread = var_h.sqrt().max(1e-6);
    let threshold = (mean_h + z_threshold * spread).max(0.5 * row_norm(&center));
    (center, threshold)
}

/// L2 norm of a feature row.
pub(crate) fn row_norm(r: &[f32]) -> f32 {
    r.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Euclidean distance between two feature rows.
pub(crate) fn distance(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Median of a non-empty slice (upper median, matching the in-round path).
pub(crate) fn median(values: &[f32]) -> f32 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[sorted.len() / 2]
}

/// Lower median of a non-empty slice. Boost attacks only ever *inflate*
/// norms, so when a contaminated record has an even split the smaller
/// middle value is the benign one — the screen's scale reference uses this
/// variant.
pub(crate) fn median_lower(values: &[f32]) -> f32 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[(sorted.len() - 1) / 2]
}

/// Coordinate-wise median of a non-empty set of equal-length rows.
pub(crate) fn column_median(rows: &[Vec<f32>]) -> Vec<f32> {
    let cols = rows[0].len();
    (0..cols)
        .map(|c| median(&rows.iter().map(|r| r[c]).collect::<Vec<f32>>()))
        .collect()
}

impl DefenseStage for LatentFilterAggregator {
    fn name(&self) -> &'static str {
        "latent"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.is_empty() {
            return;
        }
        let projection = self.projection(ctx.global().num_params());
        let raw_rows = project_active(ctx, projection, &active);
        self.screen_features(raw_rows, &active, verdicts);
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

impl LatentFilterAggregator {
    /// The stage proper, past the projection: screens the active updates
    /// by their raw feature rows (`raw_rows[slot]` for update
    /// `active[slot]`).
    pub(crate) fn screen_features(
        &mut self,
        raw_rows: Vec<Vec<f32>>,
        active: &[usize],
        verdicts: &mut Verdicts,
    ) {
        if active.len() < Self::MIN_ROUND {
            // Too small to fit the AE (or any within-round statistic): a
            // single boosted attacker in a cohort of two used to sail
            // through here (the fig8 collapse). Screened against the
            // benign record instead — or, while that is too thin,
            // recorded into it and passed exactly as the seed did.
            self.record.screen(
                &raw_rows,
                active,
                Self::MIN_FALLBACK_HISTORY,
                "latent",
                self.z_threshold,
                verdicts,
            );
            return;
        }

        // Feature matrix: one row per update, scaled by the round's median
        // row norm so magnitudes stay comparable across rounds while
        // preserving outlier magnitude *within* the round.
        let raw_norms: Vec<f32> = raw_rows.iter().map(|r| row_norm(r)).collect();
        let median_norm = median(&raw_norms).max(1e-9);
        let rows: Vec<Vec<f32>> = raw_rows
            .iter()
            .map(|r| r.iter().map(|v| v / median_norm).collect())
            .collect();
        let features = Matrix::from_rows(&rows);

        // Anomaly score per update: while the benign history is short, use a
        // robust distance to the round's coordinate-wise median; afterwards,
        // the reconstruction error of an AE trained on the accepted history
        // (FEDLS's latent-space detector proper).
        let scores: Vec<f32> = if self.record.rows.len() < 4 {
            let cols = features.cols();
            let mut median = vec![0.0f32; cols];
            for (c, m) in median.iter_mut().enumerate() {
                let mut col: Vec<f32> = (0..features.rows()).map(|r| features.get(r, c)).collect();
                col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                *m = col[col.len() / 2];
            }
            (0..features.rows())
                .map(|r| {
                    features
                        .row(r)
                        .iter()
                        .zip(&median)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                        .sqrt()
                })
                .collect()
        } else {
            let hist = Matrix::from_rows(&self.record.rows);
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xAE0);
            let f = self.feature_dim;
            let ae = vec![
                Dense::new(f, f / 2, Init::HeUniform, &mut rng),
                Dense::new(f / 2, f, Init::HeUniform, &mut rng),
            ];
            let mut ae = Sequential::from_layers(ae, vec![Activation::Relu, Activation::Identity]);
            let mut opt = Adam::new(5e-3);
            for _ in 0..self.ae_epochs {
                let trace = ae.forward_trace(&hist);
                let grad = MseLoss.grad(trace.output(), &hist);
                let grads = ae.backward(&trace, &grad).into_flat();
                use safeloc_nn::HasParams;
                opt.step(ae.param_tensors_mut(), &grads);
            }
            let recon = ae.forward(&features);
            MseLoss.per_row(&recon, &features)
        };

        let mean = scores.iter().sum::<f32>() / scores.len() as f32;
        let var = scores.iter().map(|r| (r - mean) * (r - mean)).sum::<f32>() / scores.len() as f32;
        let std = var.sqrt();
        let threshold = mean + self.z_threshold * std.max(1e-12);

        for ((&i, row), (&score, &raw_norm)) in
            active.iter().zip(&rows).zip(scores.iter().zip(&raw_norms))
        {
            if score <= threshold {
                self.record.remember(row.clone(), raw_norm);
            } else {
                verdicts.reject(i, "latent", score);
            }
        }
    }
}

/// The opt-in benign-history screen: z-tests *every* round — small or
/// large — against its own accumulated record of accepted feature rows,
/// with the same median-norm rescale the FEDLS small-cohort fallback
/// uses.
///
/// Composing it after [`LatentFilterAggregator`]
/// ([`DefensePipeline::latent_with_history`](crate::defense::DefensePipeline::latent_with_history))
/// closes the documented gap the round-local filter cannot: in a round of
/// exactly 3 updates the in-round `mean + 1.8σ` test always covers one
/// outlier, but the outlier still sits whole multiples of the benign norm
/// away from the history and is rejected here with rule
/// `"history-screen"`. It also works standalone in front of any combiner.
#[derive(Debug, Clone)]
pub struct HistoryScreen {
    /// Random-projection feature dimension.
    pub feature_dim: usize,
    /// Rejection threshold in standard deviations above the history's
    /// mean distance-to-center.
    pub z_threshold: f32,
    /// Accepted rows required before screening activates; earlier rounds
    /// only record.
    pub min_history: usize,
    /// Seed for the projection.
    pub seed: u64,
    record: BenignRecord,
}

impl HistoryScreen {
    /// Creates the screen with the FEDLS-matching defaults (32-d features,
    /// 1.8σ, 3-row activation gate).
    pub fn new(seed: u64) -> Self {
        Self {
            feature_dim: 32,
            z_threshold: 1.8,
            min_history: 3,
            seed,
            record: BenignRecord::new(0x415C_0FEE),
        }
    }
}

impl DefenseStage for HistoryScreen {
    fn name(&self) -> &'static str {
        "history-screen"
    }

    fn screen(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) {
        let active = verdicts.active_indices();
        if active.is_empty() {
            return;
        }
        let projection =
            self.record
                .projection_for(self.seed, self.feature_dim, ctx.global().num_params());
        let raw_rows = project_active(ctx, projection, &active);
        self.record.screen(
            &raw_rows,
            &active,
            self.min_history,
            "history-screen",
            self.z_threshold,
            verdicts,
        );
    }

    fn clone_stage(&self) -> Box<dyn DefenseStage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::defense::DefensePipeline;
    use crate::report::UpdateDecision;
    use crate::{Aggregator, ClientUpdate};
    use safeloc_nn::NamedParams;

    fn latent(seed: u64) -> DefensePipeline {
        DefensePipeline::latent(seed)
    }

    #[test]
    fn empty_round_keeps_global() {
        let g = params(&[1.0], &[1.0]);
        assert_eq!(latent(0).aggregate(&g, &[]).params, g);
    }

    #[test]
    fn small_rounds_average() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[0.0]), update(1, &[4.0], &[0.0])];
        let out = latent(0).aggregate(&g, &u);
        assert!((out.params.get("layer0.w").unwrap().get(0, 0) - 3.0).abs() < 1e-5);
        assert_eq!(out.accepted(), 2);
    }

    #[test]
    fn gross_outlier_is_filtered_and_scored() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let mut u = vec![
            update(0, &[1.0, 1.0, 1.0, 1.0], &[0.1]),
            update(1, &[1.1, 0.9, 1.0, 1.05], &[0.1]),
            update(2, &[0.95, 1.05, 0.98, 1.0], &[0.1]),
            update(3, &[1.02, 1.0, 1.03, 0.97], &[0.1]),
        ];
        u.push(update(4, &[-80.0, 90.0, -70.0, 60.0], &[5.0]));
        let out = latent(1).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!(w.abs() < 5.0, "outlier leaked: {w}");
        match &out.decisions[4] {
            UpdateDecision::Rejected { rule, score } => {
                assert_eq!(rule, "latent");
                assert!(score.is_finite());
            }
            other => panic!("outlier accepted: {other:?}"),
        }
    }

    #[test]
    fn homogeneous_updates_mostly_survive() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u: Vec<_> = (0..6)
            .map(|i| update(i, &[1.0 + i as f32 * 0.01, 1.0], &[0.2]))
            .collect();
        let out = latent(2).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.9..=1.1).contains(&w), "homogeneous mean off: {w}");
    }

    /// One benign round of `n` lightly jittered updates around `[1,1,1,1]`.
    fn benign_round(n: usize, salt: f32) -> Vec<ClientUpdate> {
        (0..n)
            .map(|i| {
                let j = (i as f32 - n as f32 / 2.0) * 0.01 + salt;
                update(i, &[1.0 + j, 1.0 - j, 1.0 + 0.5 * j, 1.0 - 0.5 * j], &[0.1])
            })
            .collect()
    }

    /// Regression for the fig8 participation-sweep collapse: under partial
    /// participation a cohort of two (one honest client, one boosted
    /// attacker) used to fall below the 3-update guard and be accepted
    /// wholesale — a single attacker bypassed FEDLS entirely. With benign
    /// history accumulated from earlier full rounds, the small round is now
    /// screened against it and the attacker is rejected.
    #[test]
    fn small_cohort_attacker_is_rejected_against_history() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let mut agg = latent(1);
        for r in 0..2 {
            let out = agg.aggregate(&g, &benign_round(5, r as f32 * 0.005));
            assert!(out.accepted() >= 4, "benign round mostly accepted");
        }
        // The collapse shape: cohort of 2, one model-replacement attacker.
        let small = vec![
            update(0, &[1.01, 0.99, 1.0, 1.0], &[0.1]),
            update(5, &[-70.0, 80.0, -65.0, 72.0], &[5.0]),
        ];
        let out = agg.aggregate(&g, &small);
        assert!(
            out.decisions[0].is_accepted(),
            "honest small-cohort update rejected: {:?}",
            out.decisions[0]
        );
        match &out.decisions[1] {
            UpdateDecision::Rejected { rule, score } => {
                assert_eq!(rule, "latent");
                assert!(score.is_finite());
            }
            other => panic!("small-cohort attacker accepted: {other:?}"),
        }
        // The next GM is the honest update alone, not dragged by the boost.
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((w - 1.01).abs() < 1e-5, "GM dragged by the attacker: {w}");
    }

    /// Honest small cohorts must keep flowing once history exists — the
    /// fallback screens, it does not blanket-reject.
    #[test]
    fn small_cohort_honest_updates_survive_the_history_screen() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let mut agg = latent(4);
        for r in 0..3 {
            agg.aggregate(&g, &benign_round(4, r as f32 * 0.004));
        }
        let small = vec![
            update(0, &[1.02, 0.98, 1.01, 0.99], &[0.1]),
            update(1, &[0.97, 1.03, 1.0, 1.0], &[0.1]),
        ];
        let out = agg.aggregate(&g, &small);
        assert_eq!(
            out.accepted(),
            2,
            "benign small cohort rejected: {:?}",
            out.decisions
        );
    }

    /// An attacker landing in the very first (bootstrap) small rounds must
    /// not poison the benign record: its boosted row is accepted (nothing
    /// to screen against yet) but *not* recorded, so the screen that
    /// activates two rounds later still rejects it — instead of trusting a
    /// history the attacker seeded.
    #[test]
    fn bootstrap_rounds_do_not_record_the_boosted_attacker_as_benign() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let mut agg = latent(9);
        let attacker = || update(5, &[-60.0, 70.0, -55.0, 65.0], &[5.0]);
        // Round 1 is already the collapse shape: cohort of 2, no history.
        let out1 = agg.aggregate(&g, &[update(0, &[1.0, 1.0, 1.0, 1.0], &[0.1]), attacker()]);
        assert_eq!(out1.accepted(), 2, "nothing to screen against yet");
        // Round 2: one honest client fills the record to the screening gate.
        agg.aggregate(&g, &[update(1, &[0.98, 1.02, 1.0, 1.0], &[0.1])]);
        // Round 3: the attacker returns — the record it never entered
        // rejects it, and the honest cohort member still trains.
        let out3 = agg.aggregate(
            &g,
            &[update(2, &[1.01, 0.99, 1.0, 1.0], &[0.1]), attacker()],
        );
        assert!(
            out3.decisions[0].is_accepted(),
            "honest update rejected after attacker-touched bootstrap: {:?}",
            out3.decisions[0]
        );
        assert!(
            !out3.decisions[1].is_accepted(),
            "bootstrap-seeded attacker still accepted: {:?}",
            out3.decisions[1]
        );
    }

    /// Without any accumulated history there is nothing to screen against:
    /// the small round averages exactly as before (the seed behavior the
    /// ≥ 3-update path also keeps).
    #[test]
    fn small_round_with_no_history_still_averages_bitwise() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[4.0]), update(1, &[4.0], &[8.0])];
        let out = latent(0).aggregate(&g, &u);
        let expected = NamedParams::mean(&[u[0].params.clone(), u[1].params.clone()]);
        assert_eq!(out.params, expected);
        assert_eq!(out.accepted(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u: Vec<_> = (0..5)
            .map(|i| update(i, &[i as f32, 1.0], &[0.0]))
            .collect();
        let a = latent(7).aggregate(&g, &u);
        let b = latent(7).aggregate(&g, &u);
        assert_eq!(a, b);
    }

    /// The documented blind spot of the bare latent filter: in a round of
    /// exactly 3 updates the in-round `mean + 1.8σ` z-test always covers a
    /// single outlier — and the ROADMAP follow-up closes it by composing
    /// the history screen behind it. Same attacker, same rounds: the bare
    /// pipeline accepts the boosted update, the `latent → history-screen`
    /// variant rejects it while honest updates keep flowing.
    #[test]
    fn history_screen_closes_the_three_update_round_gap() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let run = |mut pipeline: DefensePipeline| {
            // Benign history accumulates over two full rounds.
            for r in 0..2 {
                let out = pipeline.aggregate(&g, &benign_round(5, r as f32 * 0.005));
                assert!(out.accepted() >= 4, "benign round mostly accepted");
            }
            // The gap shape: exactly 3 updates, one boosted attacker.
            let small = vec![
                update(0, &[1.01, 0.99, 1.0, 1.0], &[0.1]),
                update(1, &[0.99, 1.01, 1.0, 1.0], &[0.1]),
                update(5, &[-70.0, 80.0, -65.0, 72.0], &[5.0]),
            ];
            pipeline.aggregate(&g, &small)
        };

        let bare = run(DefensePipeline::latent(1));
        assert!(
            bare.decisions[2].is_accepted(),
            "the documented 3-update gap closed without the history screen?"
        );

        let screened = run(DefensePipeline::latent_with_history(1));
        assert!(screened.decisions[0].is_accepted());
        assert!(screened.decisions[1].is_accepted());
        match &screened.decisions[2] {
            UpdateDecision::Rejected { rule, score } => {
                assert_eq!(rule, "history-screen");
                assert!(score.is_finite());
            }
            other => panic!("3-update-round attacker still accepted: {other:?}"),
        }
        // The GM follows the honest pair, not the boost.
        let w = screened.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.9..=1.1).contains(&w), "GM dragged: {w}");
    }

    /// The history screen must not blanket-reject once active: honest
    /// full-size rounds keep flowing through the composed variant.
    #[test]
    fn history_screen_passes_honest_full_rounds() {
        let g = params(&[0.0, 0.0, 0.0, 0.0], &[0.0]);
        let mut p = DefensePipeline::latent_with_history(3);
        for r in 0..4 {
            let out = p.aggregate(&g, &benign_round(5, r as f32 * 0.004));
            assert!(
                out.accepted() >= 4,
                "round {r} over-rejected: {:?}",
                out.decisions
            );
        }
    }
}
