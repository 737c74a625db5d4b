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

/// `f32::total_cmp`'s order as integer order: the bits of `v` under the
/// map `total_cmp` applies before comparing them as `i32` (a negative
/// value's magnitude bits flipped), with the sign bit flipped so that `u32`
/// order is that `i32` order.
///
/// *Lemma.* The map is a bijection of `u32` (it is an involution on each
/// half once the sign flip is undone — [`from_sort_key`]), so equal keys
/// are equal bits and `a.total_cmp(&b) == sort_key(a).cmp(&sort_key(b))`.
/// A sequence sorted by `total_cmp` is therefore unique as a bit sequence,
/// and a primitive `sort_unstable` of the keys, mapped back, is that
/// sequence — every `-0.0`, subnormal, infinity and NaN payload in its
/// place. (Pinned under proptest over raw bit patterns.)
fn sort_key(v: f32) -> u32 {
    let b = v.to_bits();
    b ^ ((((b as i32) >> 31) as u32) >> 1) ^ 0x8000_0000
}

/// The value whose [`sort_key`] is `key`.
fn from_sort_key(key: u32) -> f32 {
    let b = key ^ 0x8000_0000;
    f32::from_bits(b ^ ((((b as i32) >> 31) as u32) >> 1))
}

/// One coordinate's values across the active updates as the ascending
/// (`total_cmp`) sequence `lows ++ [gm; run] ++ highs`. `lows` and `highs`
/// are the values that had to be looked at — every dense or clipped row's,
/// and a sparse row's where it differs from the GM — split where the GM's
/// own value falls, and held as [`sort_key`]s; `run` counts the sparse rows
/// that are equal to the GM here. (A value among `highs` may equal `gm`
/// bit for bit; equal bits are interchangeable, so the sequence is sorted
/// all the same.)
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

/// The values of a [`SortedColumn`] on one side of the GM's, as keys.
struct Part<'b> {
    keys: &'b mut [u32],
    sorted: bool,
}

impl<'b> Part<'b> {
    fn unsorted(keys: &'b mut [u32]) -> Self {
        Self {
            keys,
            sorted: false,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The keys, ascending — the values in `total_cmp` order (see
    /// [`sort_key`] and [`coordinate_wise`]).
    fn ascending(&mut self) -> &[u32] {
        if !self.sorted {
            self.keys.sort_unstable();
            self.sorted = true;
        }
        self.keys
    }

    /// The keys, ascending, without the `front` smallest and the `back`
    /// largest — unsorted still if none is left.
    fn without(&mut self, front: usize, back: usize) -> &[u32] {
        let end = self.len() - back;
        if front == end {
            return &[];
        }
        &self.ascending()[front..end]
    }
}

impl SortedColumn<'_> {
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
    // copies of the GM's value, then `highs_without(t)` — the two parts as
    // keys, mapped back by whoever reads them.

    fn lows_without(&mut self, t: usize) -> &[u32] {
        let ((front, ..), (.., back)) =
            (self.cut(t, self.lows.len()), self.cut(t, self.highs.len()));
        self.lows.without(front, back)
    }

    fn run_without(&self, t: usize) -> usize {
        self.run - self.cut(t, self.lows.len()).1 - self.cut(t, self.highs.len()).1
    }

    fn highs_without(&mut self, t: usize) -> &[u32] {
        let ((.., front), (back, ..)) =
            (self.cut(t, self.lows.len()), self.cut(t, self.highs.len()));
        self.highs.without(front, back)
    }

    /// The `k`-th smallest value.
    fn get(&mut self, k: usize) -> f32 {
        match k.checked_sub(self.lows.len()) {
            None => from_sort_key(self.lows.ascending()[k]),
            Some(past) if past < self.run => self.gm,
            Some(past) => from_sort_key(self.highs.ascending()[past - self.run]),
        }
    }
}

/// Columns per [`ColumnBlock`]: the block's counts and cursors (8 KB and
/// 16 KB) and the keys its hot columns receive (~60 KB at 5 %-dense
/// uploads) stay cache-resident from the scatter to the fold that reads
/// them. Sized for sparse rounds: a dense one's block holds ~2 MB of keys
/// at `n = 256`, and still combined faster than the per-column gather it
/// replaced (PR 26's dense A/B).
const TRANSPOSE_BLOCK: usize = 2048;

/// A block of consecutive columns transposed, each split around its GM
/// value as it arrives — the one copy between the rows and the sort.
///
/// A column the fold will gather (more than [`ColumnFold::margin`] values
/// to look at) holds `keys[starts[c]..starts[c + 1]]`, the [`sort_key`]s of
/// those values: the ones below its GM value's key from the start up to
/// `room[c][0]`, the others from the end down. Any other column gets no
/// room; its support entries are only counted. (Within a part the order is
/// the arrival order, highs reversed, and is never seen: a part is sorted
/// before it is read.)
#[derive(Default)]
struct ColumnBlock {
    /// Counted in `u32`: a block holds at most `TRANSPOSE_BLOCK · n` keys
    /// (`fill` asserts that this fits).
    starts: Vec<u32>,
    /// While scattering, the next free slot at each end of a column's
    /// range; afterwards both are where its lows end.
    room: Vec<[u32; 2]>,
    gm_keys: Vec<u32>,
    /// Each support row's first entry past the block.
    ends: Vec<usize>,
    /// One slot past the columns' ranges: a sink for the keys of columns
    /// without room, so that placing a key never branches.
    keys: Vec<u32>,
}

impl ColumnBlock {
    /// Transposes columns `first..first + gm.len()`, whose GM values are
    /// `gm`. `full[r]` is a row read in full, over those columns;
    /// `supports[r]` is a support row (`(indices, values)`, indices
    /// ascending) whose entries from `cursors[r]` on lie at or past `first`
    /// — on return, past the block.
    ///
    /// Counting and scattering walk the block's part of each row with a
    /// cursor per row (the way `kernels::support_matmul_into` walks its
    /// reduction blocks), so what they write stays cache-resident instead
    /// of sweeping a whole-model table once per row.
    fn fill(
        &mut self,
        first: usize,
        gm: &[f32],
        full: &[&[f32]],
        supports: &[(&[u32], &[f32])],
        cursors: &mut [usize],
        margin: usize,
    ) {
        let end = first + gm.len();
        assert!(
            (full.len() + supports.len()).saturating_mul(gm.len()) < u32::MAX as usize,
            "a block's keys are counted in u32"
        );
        self.starts.clear();
        self.starts.resize(gm.len() + 1, 0);
        self.ends.clear();
        for (&(indices, _), &cursor) in supports.iter().zip(&*cursors) {
            let mut stop = cursor;
            while stop < indices.len() && (indices[stop] as usize) < end {
                self.starts[indices[stop] as usize - first + 1] += 1;
                stop += 1;
            }
            self.ends.push(stop);
        }
        let mut total = 0;
        for start in &mut self.starts[1..] {
            let looked_at = *start + full.len() as u32;
            total += if looked_at as usize > margin {
                looked_at
            } else {
                0
            };
            *start = total;
        }
        self.room.clear();
        (self.room).extend(self.starts.windows(2).map(|range| [range[0], range[1]]));
        self.gm_keys.clear();
        self.gm_keys.extend(gm.iter().map(|&g| sort_key(g)));
        // Not cleared first: every slot of a range receives exactly one key
        // below, so what a previous block left there is never read.
        self.keys.resize(total as usize + 1, 0);

        let Self {
            room,
            gm_keys,
            ends,
            keys,
            ..
        } = self;
        let mut place = |c: usize, key: u32| {
            let [lo, hi] = &mut room[c];
            let (fits, low) = (*lo < *hi, key < gm_keys[c]);
            let slot = if !fits {
                total
            } else if low {
                *lo
            } else {
                *hi - 1
            };
            keys[slot as usize] = key;
            *lo += u32::from(fits & low);
            *hi -= u32::from(fits & !low);
        };
        for row in full {
            for (c, &v) in row.iter().enumerate() {
                place(c, sort_key(v));
            }
        }
        for ((&(indices, values), cursor), &stop) in supports.iter().zip(cursors).zip(&*ends) {
            for (&e, &v) in indices[*cursor..stop].iter().zip(&values[*cursor..stop]) {
                place(e as usize - first, sort_key(v));
            }
            *cursor = stop;
        }
    }

    /// The block's columns, in order, over `n` active rows: a gathered
    /// column's parts are its ranges of the keys, and the rows it holds no
    /// value from are equal to the GM there.
    fn columns<'b>(
        &'b mut self,
        gm: &'b [f32],
        n: usize,
    ) -> impl Iterator<Item = SortedColumn<'b>> + 'b {
        let mut rest = &mut self.keys[..];
        (self.starts.windows(2).zip(&self.room).zip(gm)).map(move |((range, room), &gm)| {
            let len = (range[1] - range[0]) as usize;
            let (column, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let (lows, highs) = column.split_at_mut((room[0] - range[0]) as usize);
            SortedColumn {
                lows: Part::unsorted(lows),
                gm,
                run: n - len,
                highs: Part::unsorted(highs),
            }
        })
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

/// Columns folded together. Sixty-four `s += g` chains, each as long as
/// its own column's run (~200 adds at 219 survivors of 5 %-dense uploads),
/// are independent of each other: side by side they fill eight vector
/// registers, enough to keep the adder busy instead of waiting out the add
/// latency one chain — or two registers' worth — runs at.
const COLUMN_BLOCK: usize = 64;

/// `sums[c] += addends[c]`, `runs[c]` times over, for every lane `c` —
/// each lane the same chain of adds it would be alone, the lanes advancing
/// together: unmasked while every lane still has adds to make, then each
/// lane's add kept only while its run lasts.
fn add_runs(
    sums: &mut [f32; COLUMN_BLOCK],
    addends: &[f32; COLUMN_BLOCK],
    runs: &[u32; COLUMN_BLOCK],
) {
    let shortest = runs.iter().copied().min().unwrap_or(0);
    let longest = runs.iter().copied().max().unwrap_or(0);
    // Register-resident copies: the chains never touch memory.
    let (mut s, g) = (*sums, *addends);
    for _ in 0..shortest {
        for c in 0..COLUMN_BLOCK {
            s[c] += g[c];
        }
    }
    for step in shortest..longest {
        for c in 0..COLUMN_BLOCK {
            let added = s[c] + g[c];
            s[c] = if step < runs[c] { added } else { s[c] };
        }
    }
    *sums = s;
}

/// Folds up to [`COLUMN_BLOCK`] columns into `out`, their runs in lockstep.
fn fold_lockstep(fold: &impl ColumnFold, columns: &mut [SortedColumn<'_>], out: &mut [f32]) {
    // Lanes past the last column stay at a run of zero.
    let (mut sums, mut runs) = ([0.0f32; COLUMN_BLOCK], [0u32; COLUMN_BLOCK]);
    let mut addends = [0.0f32; COLUMN_BLOCK];
    for (lane, column) in columns.iter_mut().enumerate() {
        (sums[lane], runs[lane]) = fold.before_run(column);
        addends[lane] = column.gm;
    }
    add_runs(&mut sums, &addends, &runs);
    for ((slot, column), sum) in out.iter_mut().zip(columns).zip(sums) {
        *slot = fold.after_run(sum, column);
    }
}

/// Applies `fold` to every coordinate's [`SortedColumn`] across the
/// active updates, tensor by tensor (in global-model order, fanned out
/// over threads), one [`ColumnBlock`] of columns after another and
/// [`COLUMN_BLOCK`] columns at a time.
///
/// An unclipped update whose delta row is stored as a support *is* the GM
/// outside that support, bit for bit: it enters a column through its
/// support entries or as one more copy of the GM's value. Every other
/// update — a dense row, or a clipped one, whose `GM + s·(LM − GM)` is
/// computed over every coordinate and need not return the GM's bits where
/// the delta is zero — is read in full, so a round whose rows are all
/// dense gathers all `n` values per coordinate, as it always did. A column
/// in which no more than [`ColumnFold::margin`] values would have to be
/// looked at is not gathered, partitioned or sorted — at 5 %-dense uploads
/// and a 10 % trim, five columns in six — and its support entries are
/// only counted.
///
/// The order is total and its sort unstable (`f32::total_cmp`, as integer
/// keys — see [`sort_key`]): updates reaching a combiner are finite, and
/// equal values are interchangeable in a sum or as an order statistic
/// (`-0.0` sorts before `0.0`, which can only flip the sign of an all-zero
/// sum or of a zero median).
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
            let mut cursors: Vec<usize> = (supports.iter())
                .map(|(indices, _)| indices.partition_point(|&e| (e as usize) < offset))
                .collect();
            let mut block = ColumnBlock::default();
            let mut out = vec![0.0f32; gm.len()];
            let blocks = (out.chunks_mut(TRANSPOSE_BLOCK))
                .zip(gm.as_slice().chunks(TRANSPOSE_BLOCK))
                .enumerate();
            for (b, (out, gm)) in blocks {
                let first = b * TRANSPOSE_BLOCK;
                let full: Vec<&[f32]> = (full.iter())
                    .map(|row| &row[first..first + gm.len()])
                    .collect();
                let (first, margin) = (offset + first, fold.margin());
                block.fill(first, gm, &full, &supports, &mut cursors, margin);
                let mut columns = block.columns(gm, n);
                let mut lanes = Vec::with_capacity(COLUMN_BLOCK);
                for out in out.chunks_mut(COLUMN_BLOCK) {
                    lanes.extend(columns.by_ref().take(out.len()));
                    fold_lockstep(fold, &mut lanes, out);
                    lanes.clear();
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
        let lows: f32 = (column.lows_without(self.t).iter())
            .map(|&k| from_sort_key(k))
            .sum();
        (lows, column.run_without(self.t) as u32)
    }

    fn after_run(&self, partial: f32, column: &mut SortedColumn<'_>) -> f32 {
        let sum =
            (column.highs_without(self.t).iter()).fold(partial, |sum, &k| sum + from_sort_key(k));
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

    fn column<'b>(lows: &'b mut [u32], run: usize, highs: &'b mut [u32]) -> SortedColumn<'b> {
        SortedColumn {
            lows: Part::unsorted(lows),
            gm: 0.5,
            run,
            highs: Part::unsorted(highs),
        }
    }

    fn values(keys: &[u32]) -> impl Iterator<Item = f32> + '_ {
        keys.iter().map(|&k| from_sort_key(k))
    }

    /// Every way `lows`, the run and `highs` can share a column of up to
    /// seven values, at every trim that leaves something: trimming is
    /// `skip(t).take(len − 2t)` of the sorted sequence, `get` indexes it,
    /// and a part is sorted exactly when something of it is read.
    #[test]
    fn a_sorted_column_trims_and_indexes_like_the_sequence_it_stands_for() {
        let (below, above) = ([-1.0f32, -3.0, -2.0], [3.0f32, 1.0, 4.0, 2.0]);
        let (below, above) = (below.map(sort_key), above.map(sort_key));
        for (lows, highs) in (0..=3).flat_map(|lows| (0..=4).map(move |highs| (lows, highs))) {
            for run in 0..=7 - lows - highs {
                let mut sequence: Vec<f32> = values(&below[..lows])
                    .chain(values(&above[..highs]))
                    .chain(vec![0.5; run])
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
                    let mut trimmed: Vec<f32> = values(column.lows_without(t)).collect();
                    trimmed.extend(vec![column.gm; column.run_without(t)]);
                    trimmed.extend(values(column.highs_without(t)));
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

    /// Values no range strategy draws: both zeros, the subnormal edges,
    /// both infinities, and NaNs of either sign with their payloads.
    const SPECIAL_BITS: [u32; 14] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x8000_0001,
        0x007F_FFFF, // largest subnormal
        0x807F_FFFF,
        0x0080_0000, // MIN_POSITIVE
        0x7F80_0000, // +∞
        0xFF80_0000, // −∞
        0x7FC0_0000, // quiet NaN
        0x7F80_0001, // signalling NaN, payload 1
        0x7FFF_FFFF, // NaN, every payload bit
        0xFFC0_0000, // negative NaN
        0xFFFF_FFFF,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The key sort is `sort_unstable_by(f32::total_cmp)`, `to_bits`,
        /// over raw bit patterns — every class of float, NaN payloads
        /// included — with the specials mixed in and duplicated.
        #[test]
        fn the_key_sort_is_the_total_cmp_sort_bitwise(
            bits in proptest::prop::collection::vec(0u32..=u32::MAX, 97),
            small in proptest::prop::collection::vec(-2.0f32..2.0, 31),
            pick in 0usize..SPECIAL_BITS.len(),
        ) {
            let mut values: Vec<f32> = (bits.iter().copied())
                .chain(SPECIAL_BITS)
                .chain(SPECIAL_BITS[pick..].iter().copied())
                .map(f32::from_bits)
                .chain(small.iter().copied())
                .chain(small[..7].iter().copied())
                .collect();
            let mut keys: Vec<u32> = values.iter().map(|&v| sort_key(v)).collect();
            for (&k, v) in keys.iter().zip(&values) {
                proptest::prop_assert_eq!(from_sort_key(k).to_bits(), v.to_bits());
            }
            keys.sort_unstable();
            values.sort_unstable_by(f32::total_cmp);
            let sorted: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            let from_keys: Vec<u32> = keys.iter().map(|&k| from_sort_key(k).to_bits()).collect();
            proptest::prop_assert_eq!(from_keys, sorted);
        }
    }

    /// The counting sort the blocked transpose replaced: every column
    /// scattered, one row at a time over the whole table.
    fn counting_sort_transpose(supports: &[(&[u32], &[f32])], dim: usize) -> Vec<Vec<f32>> {
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
        (0..dim)
            .map(|e| values[starts[e]..starts[e + 1]].to_vec())
            .collect()
    }

    fn to_bits(values: impl IntoIterator<Item = f32>) -> Vec<u32> {
        values.into_iter().map(f32::to_bits).collect()
    }

    /// The block transposer against the counting sort, column by column,
    /// `to_bits`, block after block as `coordinate_wise` runs it: a column
    /// is gathered exactly when its full-row values and support entries
    /// number more than the margin; its lows are then what arrived below the
    /// GM's value (the full rows first, then the supports, in row order),
    /// its highs the rest in reverse — an order no fold reads — and its run
    /// the rows it holds nothing from. Rows of every density, empty ones
    /// among them; columns every row holds on both sides of a block edge; a
    /// last, partial block; entries equal to the GM's value (highs, like
    /// the run); none, one and two full rows; margins from 0 (every column
    /// with a value) to at least `n` (none).
    #[test]
    fn the_block_transposer_keeps_what_the_counting_sort_found() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7A5);
        let dim = 2 * TRANSPOSE_BLOCK + 37;
        let everywhere = [0, TRANSPOSE_BLOCK - 1, TRANSPOSE_BLOCK, dim - 1];
        let gm: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..23)
            .map(|r| {
                let density = [0.0, 0.002, 0.05, 0.3][r % 4];
                (0..dim)
                    .filter_map(|e| {
                        let kept = everywhere.contains(&e) || rng.gen_range(0.0f32..1.0) < density;
                        let v = if r == 2 {
                            gm[e]
                        } else {
                            rng.gen_range(-1.0f32..1.0)
                        };
                        (kept && r != 5).then_some((e as u32, v))
                    })
                    .unzip()
            })
            .collect();
        assert!(rows[5].0.is_empty() && rows[0].0.len() == everywhere.len());
        let supports: Vec<(&[u32], &[f32])> = (rows.iter())
            .map(|(indices, values)| (indices.as_slice(), values.as_slice()))
            .collect();
        let reference = counting_sort_transpose(&supports, dim);
        assert!(everywhere
            .iter()
            .all(|&e| reference[e].len() == supports.len() - 1));
        let dense: Vec<Vec<f32>> = (0..2)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut block = ColumnBlock::default();
        for full_rows in 0..=2 {
            let n = full_rows + supports.len();
            for margin in [0, 1, 3, 6, n - 2, n - 1, n, 4 * n] {
                let mut cursors = vec![0; supports.len()];
                for first in (0..dim).step_by(TRANSPOSE_BLOCK) {
                    let gm = &gm[first..(first + TRANSPOSE_BLOCK).min(dim)];
                    let full: Vec<&[f32]> = (dense[..full_rows].iter())
                        .map(|row| &row[first..first + gm.len()])
                        .collect();
                    block.fill(first, gm, &full, &supports, &mut cursors, margin);
                    for (c, column) in block.columns(gm, n).enumerate() {
                        let e = first + c;
                        let mut arrived: Vec<f32> = (full.iter().map(|row| row[c]))
                            .chain(reference[e].iter().copied())
                            .collect();
                        if arrived.len() <= margin {
                            arrived.clear();
                        }
                        let (lows, mut highs): (Vec<f32>, Vec<f32>) =
                            (arrived.iter()).partition(|v| v.total_cmp(&gm[c]).is_lt());
                        highs.reverse();
                        let case = format!("column {e}, {full_rows} full, margin {margin}");
                        assert_eq!(to_bits(values(column.lows.keys)), to_bits(lows), "{case}");
                        assert_eq!(to_bits(values(column.highs.keys)), to_bits(highs), "{case}");
                        assert_eq!(column.run, n - arrived.len(), "{case}");
                    }
                }
                assert!(cursors.iter().zip(&rows).all(|(&c, row)| c == row.0.len()));
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
