//! Generic terminal combiners: the uniform mean the screened rules share,
//! plus the two classic robust-statistics combiners (coordinate-wise
//! trimmed mean and median) the defense literature composes with.

use crate::defense::{Combiner, RoundContext, Verdicts};
use rayon::prelude::*;
use safeloc_nn::{Matrix, NamedParams};

/// Uniform mean of the surviving updates — the combiner the screened
/// paper rules (FEDCC clustering, FEDLS latent filtering) terminate in.
/// Every survivor is accepted with weight `1 / n_survivors`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformMean;

impl Combiner for UniformMean {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let kept: Vec<NamedParams> = active
            .iter()
            .map(|&i| verdicts.effective(ctx, i).into_owned())
            .collect();
        let weight = 1.0 / kept.len() as f32;
        for &i in &active {
            verdicts.set_weight(i, weight);
        }
        NamedParams::mean(&kept)
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(*self)
    }
}

/// One coordinate's values across the active updates as the ascending
/// (`total_cmp`) sequence `lows ++ [gm; run] ++ highs`. `lows` and `highs`
/// are the values that had to be looked at — every dense or clipped row's,
/// and a sparse row's where it differs from the GM — split where the GM's
/// own value falls; `run` counts the sparse rows that are equal to the GM
/// here. (A value among `highs` may equal `gm` bit for bit; equal bits are
/// interchangeable, so the sequence is sorted all the same.)
///
/// The two parts arrive partitioned and are sorted when first *read*: a
/// part a trim removes whole, or that no order statistic falls in, never
/// is — at 5 %-dense uploads that is nearly every part of every column.
struct SortedColumn<'b> {
    lows: Part<'b>,
    gm: f32,
    run: usize,
    highs: Part<'b>,
}

/// The values of a [`SortedColumn`] on one side of the GM's.
struct Part<'b> {
    values: &'b mut [f32],
    sorted: bool,
}

impl<'b> Part<'b> {
    fn unsorted(values: &'b mut [f32]) -> Self {
        Self {
            values,
            sorted: false,
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// The values, ascending. Unstable and total: see [`coordinate_wise`].
    fn ascending(&mut self) -> &[f32] {
        if !self.sorted {
            self.values.sort_unstable_by(f32::total_cmp);
            self.sorted = true;
        }
        self.values
    }

    /// The values, ascending, without the `front` smallest and the `back`
    /// largest — unsorted still if none is left.
    fn without(&mut self, front: usize, back: usize) -> &[f32] {
        let end = self.len() - back;
        if front == end {
            return &[];
        }
        &self.ascending()[front..end]
    }
}

impl<'b> SortedColumn<'b> {
    /// The column of `values` — what had to be looked at — and `run`
    /// copies of `gm`, the values split around `gm` into (a prefix of)
    /// `lows` and `highs`, each at least as long as the values are many.
    fn gathered(
        values: impl Iterator<Item = f32>,
        run: usize,
        gm: f32,
        lows: &'b mut [f32],
        highs: &'b mut [f32],
    ) -> Self {
        let (mut n_lows, mut n_highs) = (0, 0);
        if run == 0 {
            // No run to split around (every dense round): the column is
            // just its values.
            for (slot, v) in lows.iter_mut().zip(values) {
                *slot = v;
                n_lows += 1;
            }
        } else {
            // Split around `gm` without a branch: written to both sides,
            // kept on one.
            for v in values {
                let low = v.total_cmp(&gm).is_lt();
                (lows[n_lows], highs[n_highs]) = (v, v);
                n_lows += usize::from(low);
                n_highs += usize::from(!low);
            }
        }
        Self {
            lows: Part::unsorted(&mut lows[..n_lows]),
            gm,
            run,
            highs: Part::unsorted(&mut highs[..n_highs]),
        }
    }

    fn len(&self) -> usize {
        self.lows.len() + self.run + self.highs.len()
    }

    /// What a cut of `t` values takes from the part it meets first (`first`
    /// values long), from the run, and from the part beyond.
    fn cut(&self, t: usize, first: usize) -> (usize, usize, usize) {
        let from_first = t.min(first);
        let from_run = (t - from_first).min(self.run);
        (from_first, from_run, t - from_first - from_run)
    }

    // The column without its `t` smallest and `t` largest values
    // (`2t < len`) is, ascending, `lows_without(t)`, then `run_without(t)`
    // copies of the GM's value, then `highs_without(t)`.

    fn lows_without(&mut self, t: usize) -> &[f32] {
        let ((front, ..), (.., back)) =
            (self.cut(t, self.lows.len()), self.cut(t, self.highs.len()));
        self.lows.without(front, back)
    }

    fn run_without(&self, t: usize) -> usize {
        self.run - self.cut(t, self.lows.len()).1 - self.cut(t, self.highs.len()).1
    }

    fn highs_without(&mut self, t: usize) -> &[f32] {
        let ((.., front), (back, ..)) =
            (self.cut(t, self.lows.len()), self.cut(t, self.highs.len()));
        self.highs.without(front, back)
    }

    /// The `k`-th smallest value.
    fn get(&mut self, k: usize) -> f32 {
        match k.checked_sub(self.lows.len()) {
            None => self.lows.ascending()[k],
            Some(past) if past < self.run => self.gm,
            Some(past) => self.highs.ascending()[past - self.run],
        }
    }
}

/// Support rows transposed: for every flat coordinate, the values of the
/// rows that have it in their support.
struct ByCoordinate {
    /// Coordinate `e`'s values are `values[starts[e]..starts[e + 1]]`.
    starts: Vec<usize>,
    values: Vec<f32>,
}

impl ByCoordinate {
    /// A counting sort by coordinate: two passes over the supports
    /// (`(indices, values)`, indices `< dim`).
    fn transpose(supports: &[(&[u32], &[f32])], dim: usize) -> Self {
        let mut starts = vec![0usize; dim + 1];
        for &e in supports.iter().flat_map(|(indices, _)| *indices) {
            starts[e as usize + 1] += 1;
        }
        for e in 0..dim {
            starts[e + 1] += starts[e];
        }
        let mut values = vec![0.0f32; starts[dim]];
        let mut next = starts.clone();
        for (indices, row) in supports {
            for (&e, &v) in indices.iter().zip(*row) {
                values[next[e as usize]] = v;
                next[e as usize] += 1;
            }
        }
        Self { starts, values }
    }

    fn at(&self, e: usize) -> &[f32] {
        &self.values[self.starts[e]..self.starts[e + 1]]
    }
}

/// How a coordinate-wise combiner folds one [`SortedColumn`] to a value —
/// in two steps around the column's run of GM values, so that
/// [`coordinate_wise`] can add the runs of [`COLUMN_BLOCK`] columns in
/// lockstep between them. The column's value is
/// `after_run(partial + gm + … + gm, column)` for the `(partial, copies)`
/// that `before_run` returned, the copies added one at a time, left to
/// right.
trait ColumnFold: Sync {
    /// The fold reads only the values of rank `margin..len − margin` of a
    /// column (`2·margin < len`): a column with at most `margin` values
    /// that had to be looked at has none of them in that range, whichever
    /// side of the GM's value they fall on, and is folded as `len` copies
    /// of the GM's value without being gathered at all.
    fn margin(&self) -> usize;

    /// Folds what the column holds before its run; returns the partial
    /// result and how many copies of the GM's value to add to it.
    fn before_run(&self, column: &mut SortedColumn<'_>) -> (f32, u32);

    /// Folds in what the column holds after its run.
    fn after_run(&self, partial: f32, column: &mut SortedColumn<'_>) -> f32;
}

/// Columns folded together. Sixteen `s += g` chains, each as long as its
/// own column's run (~180 adds at 219 survivors of 5 %-dense uploads), are
/// independent of each other: side by side they fill the vector lanes and
/// hide the add latency one chain alone runs at.
const COLUMN_BLOCK: usize = 16;

/// `sums[c] += addends[c]`, `runs[c]` times over, for every lane `c` —
/// each lane the same chain of adds it would be alone, the lanes advancing
/// together.
fn add_runs(
    sums: &mut [f32; COLUMN_BLOCK],
    addends: &[f32; COLUMN_BLOCK],
    runs: &[u32; COLUMN_BLOCK],
) {
    let longest = runs.iter().copied().max().unwrap_or(0);
    for step in 0..longest {
        for c in 0..COLUMN_BLOCK {
            sums[c] = if step < runs[c] {
                sums[c] + addends[c]
            } else {
                sums[c]
            };
        }
    }
}

/// Applies `fold` to every coordinate's [`SortedColumn`] across the
/// active updates, tensor by tensor (in global-model order, fanned out
/// over threads), [`COLUMN_BLOCK`] columns at a time.
///
/// An unclipped update whose delta row is stored as a support *is* the GM
/// outside that support, bit for bit: it enters a column through the
/// transposed supports or as one more copy of the GM's value. Every other
/// update — a dense row, or a clipped one, whose `GM + s·(LM − GM)` is
/// computed over every coordinate and need not return the GM's bits where
/// the delta is zero — is read in full, so a round whose rows are all
/// dense gathers all `n` values per coordinate, as it always did. A column
/// in which no more than [`ColumnFold::margin`] values would have to be
/// looked at is not gathered, partitioned or sorted — at 5 %-dense uploads
/// and a 10 % trim, five columns in six.
///
/// The order is total and its sort unstable (`f32::total_cmp`): updates
/// reaching a combiner are finite, and equal values are interchangeable in
/// a sum or as an order statistic (`-0.0` sorts before `0.0`, which can
/// only flip the sign of an all-zero sum or of a zero median).
fn coordinate_wise(
    ctx: &RoundContext<'_>,
    verdicts: &Verdicts,
    active: &[usize],
    fold: &impl ColumnFold,
) -> NamedParams {
    let rows = ctx.delta_rows();
    let (mut full, mut supports) = (Vec::new(), Vec::new());
    for &i in active {
        match rows.lm_support(i) {
            Some(support) if verdicts.scale(i) >= 1.0 => supports.push(support),
            _ => full.push(verdicts.effective(ctx, i)),
        }
    }
    let explicit = ByCoordinate::transpose(&supports, ctx.global().num_params());
    let n = active.len();

    let mut offset = 0;
    let tensors: Vec<(&str, &Matrix, usize)> = (ctx.global().iter())
        .map(|(name, gm)| {
            offset += gm.len();
            (name, gm, offset - gm.len())
        })
        .collect();
    let per_tensor: Vec<(String, Matrix)> = tensors
        .par_iter()
        .map(|&(name, gm, offset)| {
            let full: Vec<&[f32]> = full
                .iter()
                .map(|p| p.get(name).expect("same arch").as_slice())
                .collect();
            let mut out = vec![0.0f32; gm.len()];
            // One `n`-long stretch of each per lane of the block.
            let (mut lows, mut highs) = (
                vec![0.0f32; COLUMN_BLOCK * n],
                vec![0.0f32; COLUMN_BLOCK * n],
            );
            let blocks = out
                .chunks_mut(COLUMN_BLOCK)
                .zip(gm.as_slice().chunks(COLUMN_BLOCK));
            for (block, (out, gms)) in blocks.enumerate() {
                let mut columns: Vec<SortedColumn<'_>> = (lows.chunks_mut(n))
                    .zip(highs.chunks_mut(n))
                    .zip(gms)
                    .enumerate()
                    .map(|(lane, ((lows, highs), &g))| {
                        let e = block * COLUMN_BLOCK + lane;
                        let explicit = explicit.at(offset + e);
                        if full.len() + explicit.len() <= fold.margin() {
                            return SortedColumn::gathered(std::iter::empty(), n, g, lows, highs);
                        }
                        let values =
                            (full.iter().map(|row| row[e])).chain(explicit.iter().copied());
                        SortedColumn::gathered(
                            values,
                            supports.len() - explicit.len(),
                            g,
                            lows,
                            highs,
                        )
                    })
                    .collect();
                // Lanes past a tensor's last column stay at a run of zero.
                let (mut sums, mut runs) = ([0.0f32; COLUMN_BLOCK], [0u32; COLUMN_BLOCK]);
                let mut addends = [0.0f32; COLUMN_BLOCK];
                for (lane, column) in columns.iter_mut().enumerate() {
                    (sums[lane], runs[lane]) = fold.before_run(column);
                    addends[lane] = column.gm;
                }
                add_runs(&mut sums, &addends, &runs);
                for ((slot, column), sum) in out.iter_mut().zip(&mut columns).zip(sums) {
                    *slot = fold.after_run(sum, column);
                }
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

/// Coordinate-wise trimmed mean (Yin et al. 2018): per scalar parameter,
/// the `t` smallest and `t` largest values across the surviving updates
/// are dropped and the rest averaged, where `t = ⌊trim_fraction · n⌋`
/// (capped so at least one value survives). Robust to up to `t` arbitrary
/// updates per coordinate without discarding whole clients.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    /// Fraction trimmed from *each* tail, in `[0, 0.5)`.
    pub trim_fraction: f32,
}

impl TrimmedMean {
    /// Trims `trim_fraction` of the updates from each tail.
    pub fn new(trim_fraction: f32) -> Self {
        Self { trim_fraction }
    }
}

impl Default for TrimmedMean {
    fn default() -> Self {
        Self::new(0.25)
    }
}

/// The mean of a column without its `t` smallest and `t` largest values,
/// `kept` of them: one left-to-right sum over the kept lows, the kept part
/// of the run and the kept highs.
struct TrimFold {
    t: usize,
    kept: usize,
}

impl ColumnFold for TrimFold {
    fn margin(&self) -> usize {
        self.t
    }

    fn before_run(&self, column: &mut SortedColumn<'_>) -> (f32, u32) {
        let lows: f32 = column.lows_without(self.t).iter().sum();
        (lows, column.run_without(self.t) as u32)
    }

    fn after_run(&self, partial: f32, column: &mut SortedColumn<'_>) -> f32 {
        let sum = (column.highs_without(self.t).iter()).fold(partial, |sum, v| sum + v);
        sum / self.kept as f32
    }
}

impl Combiner for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let n = active.len();
        let t = ((self.trim_fraction.clamp(0.0, 0.5) * n as f32).floor() as usize)
            .min(n.saturating_sub(1) / 2);
        let params = coordinate_wise(ctx, verdicts, &active, &TrimFold { t, kept: n - 2 * t });
        // Every survivor nominally contributes to (n - 2t) of n slots per
        // coordinate; the decision trail records the uniform share.
        let weight = 1.0 / n as f32;
        for &i in &active {
            verdicts.set_weight(i, weight);
        }
        params
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(*self)
    }
}

/// Coordinate-wise median: per scalar parameter, the median of the
/// surviving updates' values (mean of the two middle values for even
/// counts). The most aggressive of the classic robust combiners — up to
/// half the updates can be arbitrary per coordinate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateMedian;

/// The median of a column of `n` values: an order statistic or two, so
/// all of it is read before the run and nothing is added.
struct MedianFold {
    n: usize,
}

impl ColumnFold for MedianFold {
    /// Both middle ranks lie in `margin..n − margin`.
    fn margin(&self) -> usize {
        (self.n - 1) / 2
    }

    fn before_run(&self, column: &mut SortedColumn<'_>) -> (f32, u32) {
        let n = self.n;
        debug_assert_eq!(column.len(), n);
        let median = if n % 2 == 1 {
            column.get(n / 2)
        } else {
            0.5 * (column.get(n / 2 - 1) + column.get(n / 2))
        };
        (median, 0)
    }

    fn after_run(&self, median: f32, _: &mut SortedColumn<'_>) -> f32 {
        median
    }
}

impl Combiner for CoordinateMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let params = coordinate_wise(ctx, verdicts, &active, &MedianFold { n: active.len() });
        let weight = 1.0 / active.len() as f32;
        for &i in &active {
            verdicts.set_weight(i, weight);
        }
        params
    }

    fn clone_combiner(&self) -> Box<dyn Combiner> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::test_support::{params, update};
    use crate::defense::DefensePipeline;
    use crate::Aggregator;

    fn pipeline(combiner: Box<dyn Combiner>) -> DefensePipeline {
        DefensePipeline::new("test", Vec::new(), combiner)
    }

    fn column<'b>(lows: &'b mut [f32], run: usize, highs: &'b mut [f32]) -> SortedColumn<'b> {
        SortedColumn {
            lows: Part::unsorted(lows),
            gm: 0.5,
            run,
            highs: Part::unsorted(highs),
        }
    }

    /// Every way `lows`, the run and `highs` can share a column of up to
    /// seven values, at every trim that leaves something: trimming is
    /// `skip(t).take(len − 2t)` of the sorted sequence, `get` indexes it,
    /// and a part is sorted exactly when something of it is read.
    #[test]
    fn a_sorted_column_trims_and_indexes_like_the_sequence_it_stands_for() {
        let (below, above) = ([-1.0, -3.0, -2.0], [3.0, 1.0, 4.0, 2.0]);
        for (lows, highs) in (0..=3).flat_map(|lows| (0..=4).map(move |highs| (lows, highs))) {
            for run in 0..=7 - lows - highs {
                let mut sequence: Vec<f32> = (below[..lows].iter())
                    .chain(&above[..highs])
                    .chain(&vec![0.5; run])
                    .copied()
                    .collect();
                sequence.sort_unstable_by(f32::total_cmp);
                let (mut low, mut high) = (below, above);
                assert_eq!(
                    column(&mut low[..lows], run, &mut high[..highs]).len(),
                    sequence.len()
                );
                for (k, &v) in sequence.iter().enumerate() {
                    assert_eq!(column(&mut low[..lows], run, &mut high[..highs]).get(k), v);
                }
                for t in (0..).take_while(|t| 2 * t < sequence.len()) {
                    let (mut low, mut high) = (below, above);
                    let mut column = column(&mut low[..lows], run, &mut high[..highs]);
                    let mut trimmed = column.lows_without(t).to_vec();
                    trimmed.extend(vec![column.gm; column.run_without(t)]);
                    trimmed.extend(column.highs_without(t));
                    assert_eq!(
                        trimmed,
                        sequence[t..sequence.len() - t],
                        "lows {lows}, run {run}, highs {highs}, t {t}"
                    );
                    assert_eq!(
                        (column.lows.sorted, column.highs.sorted),
                        (t < lows, t < highs),
                        "a part is sorted iff the trim leaves some of it"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_mean_matches_named_params_mean_bitwise() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[4.0]), update(1, &[4.0], &[8.0])];
        let out = pipeline(Box::new(UniformMean)).aggregate(&g, &u);
        let expected = NamedParams::mean(&[u[0].params.clone(), u[1].params.clone()]);
        assert_eq!(out.params, expected);
        assert_eq!(out.accepted(), 2);
    }

    #[test]
    fn trimmed_mean_drops_the_outlier_coordinate_wise() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[1.0]),
            update(1, &[1.2], &[1.0]),
            update(2, &[0.8], &[1.0]),
            update(3, &[900.0], &[-900.0]),
        ];
        let out = pipeline(Box::new(TrimmedMean::new(0.25))).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        // t = 1: the 900 and the 0.8 are trimmed; mean(1.0, 1.2) = 1.1.
        assert!((w - 1.1).abs() < 1e-6, "trimmed mean {w}");
        let b = out.params.get("layer0.b").unwrap().get(0, 0);
        assert!((b - 1.0).abs() < 1e-6, "the -900 tail was kept: {b}");
        assert_eq!(out.accepted(), 4, "trimming rejects no whole update");
    }

    #[test]
    fn trimmed_mean_degenerates_to_mean_for_tiny_rounds() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![update(0, &[2.0], &[0.0]), update(1, &[4.0], &[0.0])];
        // n = 2 ⇒ t caps at 0: plain mean, no empty-slice panic.
        let out = pipeline(Box::new(TrimmedMean::new(0.49))).aggregate(&g, &u);
        assert!((out.params.get("layer0.w").unwrap().get(0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn coordinate_median_resists_a_minority_of_arbitrary_updates() {
        let g = params(&[0.0, 0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0, -1.0], &[0.5]),
            update(1, &[1.1, -0.9], &[0.5]),
            update(2, &[0.9, -1.1], &[0.5]),
            update(3, &[-500.0, 500.0], &[50.0]),
            update(4, &[500.0, -500.0], &[-50.0]),
        ];
        let out = pipeline(Box::new(CoordinateMedian)).aggregate(&g, &u);
        let w = out.params.get("layer0.w").unwrap().get(0, 0);
        assert!((0.9..=1.1).contains(&w), "median dragged: {w}");
        assert_eq!(out.params.get("layer0.b").unwrap().get(0, 0), 0.5);
    }

    #[test]
    fn even_count_median_averages_the_middles() {
        let g = params(&[0.0], &[0.0]);
        let u = vec![
            update(0, &[1.0], &[0.0]),
            update(1, &[3.0], &[0.0]),
            update(2, &[5.0], &[0.0]),
            update(3, &[100.0], &[0.0]),
        ];
        let out = pipeline(Box::new(CoordinateMedian)).aggregate(&g, &u);
        assert_eq!(out.params.get("layer0.w").unwrap().get(0, 0), 4.0);
    }

    #[test]
    fn identical_updates_are_a_fixed_point_for_all_robust_combiners() {
        let g = params(&[1.0, -2.0], &[0.5]);
        let u = vec![
            update(0, &[1.0, -2.0], &[0.5]),
            update(1, &[1.0, -2.0], &[0.5]),
            update(2, &[1.0, -2.0], &[0.5]),
        ];
        for combiner in [
            Box::new(UniformMean) as Box<dyn Combiner>,
            Box::new(TrimmedMean::default()),
            Box::new(CoordinateMedian),
        ] {
            let out = pipeline(combiner).aggregate(&g, &u);
            assert_eq!(out.params, g);
        }
    }
}
