//! Shared pairwise-distance computation for the aggregation rules.
//!
//! Krum, FEDCC-style clustering and related defenses all need the same
//! quantity: distances between every pair of this round's client updates.
//! The seed implementations recomputed distances per candidate — Krum paid
//! the full `O(n²·d)` *per* candidate, the exact scaling weakness Fang et
//! al. call out — and each aggregator rolled its own loop. This module
//! computes one symmetric matrix per round, with the pair set split across
//! threads, and every rule reads from it.
//!
//! Distances are stored condensed (upper triangle, `n·(n-1)/2` entries);
//! lookups are `O(1)` and symmetric by construction.

use crate::update::ClientUpdate;
use rayon::prelude::*;
use safeloc_nn::{kernels, Matrix};

/// Pairs below this count are computed serially — thread spawn costs more
/// than the distance arithmetic for tiny client fleets.
const PARALLEL_MIN_PAIRS: usize = 8;

/// [`DistanceMatrix::cosine_over_supports_into`] gathers a pair's dot
/// product through the shorter of its two supports while that support is
/// at most `1 / SUPPORT_DOT_MAX_DENSITY_INV` of the row, and takes the
/// dense [`kernels::dot`] past it.
///
/// ⅒ is the measured crossover (256 × 2 048 blocks of uniformly placed
/// supports, one core, all 32 640 pairs, gathered time over dense time):
/// ×0.22 at 1 %, ×0.56 at 5 %, ×0.67 at 6.25 %, ×0.79 at 8.3 %, ×0.88 at
/// 10 %, **×1.08 at 12.5 %**, ×1.7 at 25 % — a gathered term costs ~3.7
/// cycles (an indexed load and a lane read-modify-write) against a third of
/// a cycle per element of the vectorized sweep, which is L2-bound at ~670
/// cycles a pair. `cargo bench -p safeloc-bench --bench aggregation`
/// prints the table at the group's five densities
/// (`screening_sparse/{dense,view}/cosine_sampled/*`).
const SUPPORT_DOT_MAX_DENSITY_INV: usize = 10;

/// A symmetric `n x n` distance matrix stored as its upper triangle.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// `values[idx(i, j)]` for `i < j`.
    values: Vec<f32>,
}

impl DistanceMatrix {
    /// Builds the matrix by evaluating `metric(i, j)` for every pair
    /// `i < j`, in parallel for non-trivial pair counts.
    pub fn build(n: usize, metric: impl Fn(usize, usize) -> f32 + Sync + Send) -> Self {
        Self::build_into(n, Vec::new(), metric)
    }

    /// [`build`](Self::build) into a reused buffer: `scratch` (typically a
    /// previous round's matrix, via [`into_values`](Self::into_values)) is
    /// cleared and refilled, so steady-state rounds stop reallocating the
    /// O(n²) triangle. The computed values are identical to a fresh
    /// [`build`](Self::build) — buffer reuse never changes a distance.
    pub fn build_into(
        n: usize,
        scratch: Vec<f32>,
        metric: impl Fn(usize, usize) -> f32 + Sync + Send,
    ) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        let mut values = scratch;
        values.clear();
        if pairs < PARALLEL_MIN_PAIRS {
            values.extend((0..pairs).map(|p| {
                let (i, j) = unflatten(p, n);
                metric(i, j)
            }));
            return Self { n, values };
        }
        values.resize(pairs, 0.0);
        // The condensed triangle is row-contiguous: split it into one
        // mutable slice per row and fill rows in parallel. Same values as
        // the flat pair loop, just a different work partition.
        let mut rows: Vec<(usize, &mut [f32])> = Vec::with_capacity(n - 1);
        let mut rest = values.as_mut_slice();
        for i in 0..n - 1 {
            let (head, tail) = rest.split_at_mut(n - 1 - i);
            rows.push((i, head));
            rest = tail;
        }
        rows.into_par_iter()
            .map(|(i, row)| {
                for (offset, v) in row.iter_mut().enumerate() {
                    *v = metric(i, i + 1 + offset);
                }
            })
            .collect::<Vec<()>>();
        Self { n, values }
    }

    /// Squared L2 distances between the flattened parameters of every pair
    /// of updates — the matrix Krum scores against.
    pub fn squared_l2(updates: &[&ClientUpdate]) -> Self {
        Self::squared_l2_into(updates, Vec::new())
    }

    /// [`squared_l2`](Self::squared_l2) into a reused buffer.
    pub fn squared_l2_into(updates: &[&ClientUpdate], scratch: Vec<f32>) -> Self {
        Self::build_into(updates.len(), scratch, |i, j| {
            let d = updates[i].params.l2_distance(&updates[j].params);
            d * d
        })
    }

    /// Squared L2 distances between *clip-scaled* update deltas:
    /// `‖sᵢ·δᵢ − sⱼ·δⱼ‖²` for the rows `δ` of the `n × d` delta block and
    /// per-update clip scales `s`. This is the distance between the
    /// effective updates `GM + sᵢ·δᵢ` a clipping stage admits — what a
    /// selection rule must rank once any update has been norm-bounded,
    /// lest it score ghosts the aggregation will never apply. Exact over
    /// all `d` coordinates; rounds go through
    /// [`RoundContext::with_squared_l2_scaled`](crate::defense::RoundContext::with_squared_l2_scaled),
    /// which switches to the sampled block above `EXACT_SCREEN_MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` has a different row count than `scales`.
    pub fn squared_l2_scaled(deltas: &Matrix, scales: &[f32]) -> Self {
        Self::squared_l2_scaled_into(deltas, scales, Vec::new())
    }

    /// [`squared_l2_scaled`](Self::squared_l2_scaled) into a reused buffer.
    pub fn squared_l2_scaled_into(deltas: &Matrix, scales: &[f32], scratch: Vec<f32>) -> Self {
        assert_eq!(
            deltas.rows(),
            scales.len(),
            "one clip scale per update delta"
        );
        Self::build_into(deltas.rows(), scratch, |i, j| {
            kernels::squared_distance_scaled(deltas.row(i), scales[i], deltas.row(j), scales[j])
        })
    }

    /// Cosine distances (`1 − cos`) between flattened update deltas — the
    /// metric FEDCC-style clustering groups by. `deltas` is the `n × d`
    /// block of flattened `LM − GM` rows.
    pub fn cosine(deltas: &Matrix) -> Self {
        Self::cosine_into(deltas, Vec::new())
    }

    /// [`cosine`](Self::cosine) into a reused buffer.
    pub fn cosine_into(deltas: &Matrix, scratch: Vec<f32>) -> Self {
        let norms = row_norms(deltas);
        Self::build_into(deltas.rows(), scratch, |i, j| {
            let denom = norms[i] * norms[j];
            if denom == 0.0 {
                1.0
            } else {
                1.0 - kernels::dot(deltas.row(i), deltas.row(j)) / denom
            }
        })
    }

    /// [`cosine_into`](Self::cosine_into), bit for bit, for a block whose
    /// rows are mostly `+0.0` — the sampled block of a round of sparse
    /// uploads, 2 048 picks of which a 5 % row moves about a hundred. Each
    /// row's support (the elements that are not `+0.0` bit for bit, so a
    /// `−0.0` stays a member) is found once, and a pair's dot product is
    /// [`kernels::support_dot`] through the shorter of its two supports
    /// into the other row: the terms left out are `±0.0` added to lanes
    /// that started at `+0.0`, and a product does not depend on which
    /// operand is gathered (design rule 7 of `safeloc_nn::kernels`). Norms
    /// are taken over the rows as they are.
    ///
    /// A pair goes through [`kernels::dot`] instead when either row holds
    /// a non-finite value (`0 · ∞` is NaN, not a skippable zero) or when
    /// its shorter support is past `1 / SUPPORT_DOT_MAX_DENSITY_INV` of
    /// the row, where gathering has stopped paying — so a dense block
    /// costs what [`cosine_into`](Self::cosine_into) costs plus one scan.
    pub fn cosine_over_supports_into(deltas: &Matrix, scratch: Vec<f32>) -> Self {
        let (n, d) = deltas.shape();
        let norms = row_norms(deltas);
        // Row `i`'s support is `lens[i]` entries of the two flat buffers
        // from `starts[i]` on — stored only if a pair could gather through
        // it.
        let gatherable = |len: usize| len * SUPPORT_DOT_MAX_DENSITY_INV <= d;
        let (mut indices, mut values) = (Vec::<u32>::new(), Vec::<f32>::new());
        let (mut starts, mut lens, mut finite) = (vec![0; n], vec![0; n], vec![true; n]);
        let (mut row_indices, mut row_values) = (vec![0u32; d], vec![0.0f32; d]);
        for (i, row) in deltas.iter_rows().enumerate() {
            // Compacted without a branch: always written, kept if a member.
            let mut len = 0;
            for (e, &v) in row.iter().enumerate() {
                (row_indices[len], row_values[len]) = (e as u32, v);
                len += usize::from(v.to_bits() != 0);
            }
            (starts[i], lens[i]) = (indices.len(), len);
            finite[i] = !kernels::has_non_finite(&row_values[..len]);
            if finite[i] && gatherable(len) {
                indices.extend_from_slice(&row_indices[..len]);
                values.extend_from_slice(&row_values[..len]);
            }
        }
        Self::build_into(n, scratch, |i, j| {
            let denom = norms[i] * norms[j];
            if denom == 0.0 {
                return 1.0;
            }
            let (short, long) = if lens[i] <= lens[j] { (i, j) } else { (j, i) };
            let dot = if finite[i] && finite[j] && gatherable(lens[short]) {
                let at = starts[short]..starts[short] + lens[short];
                kernels::support_dot(&indices[at.clone()], &values[at], deltas.row(long))
            } else {
                kernels::dot(deltas.row(i), deltas.row(j))
            };
            1.0 - dot / denom
        })
    }

    /// The entries as bit patterns: `PartialEq` calls `−0.0` and `+0.0`
    /// equal and a NaN unequal to itself.
    #[cfg(test)]
    pub(crate) fn to_bits(&self) -> Vec<u32> {
        self.values.iter().map(|v| v.to_bits()).collect()
    }

    /// Dismantles the matrix into its value buffer, for reuse as the
    /// `scratch` of a later round's [`build_into`](Self::build_into).
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Number of points the matrix covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix covers no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.n && j < self.n, "distance index out of range");
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.values[condensed_index(lo, hi, self.n)]
    }

    /// All distances from point `i` to its peers (excluding itself),
    /// appended to `out`.
    pub fn distances_from(&self, i: usize, out: &mut Vec<f32>) {
        out.clear();
        for j in 0..self.n {
            if j != i {
                out.push(self.get(i, j));
            }
        }
    }

    /// The pair `(i, j)` with the largest distance, or `None` for fewer
    /// than two points. Ties resolve to the first pair in row-major order.
    pub fn max_pair(&self) -> Option<(usize, usize, f32)> {
        if self.n < 2 {
            return None;
        }
        let mut best = (0usize, 1usize, f32::NEG_INFINITY);
        for p in 0..self.values.len() {
            if self.values[p] > best.2 {
                let (i, j) = unflatten(p, self.n);
                best = (i, j, self.values[p]);
            }
        }
        Some(best)
    }
}

/// The L2 norm of every row, as the cosine matrices divide by it.
fn row_norms(deltas: &Matrix) -> Vec<f32> {
    deltas
        .iter_rows()
        .map(|row| kernels::sum_squares(row).sqrt())
        .collect()
}

/// Index of pair `(i, j)` with `i < j` in the condensed upper triangle.
#[inline]
fn condensed_index(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n);
    // Row i starts after all previous rows: sum_{r<i} (n-1-r).
    i * (n - 1) - i * (i + 1) / 2 + (j - 1)
}

/// Inverse of [`condensed_index`]: pair for flat position `p`.
#[inline]
fn unflatten(p: usize, n: usize) -> (usize, usize) {
    // Find row i such that row_start(i) <= p < row_start(i+1).
    let mut i = 0;
    let mut start = 0;
    loop {
        let row_len = n - 1 - i;
        if p < start + row_len {
            return (i, i + 1 + (p - start));
        }
        start += row_len;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensed_layout_round_trips() {
        for n in 2..10 {
            let mut p = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(condensed_index(i, j, n), p);
                    assert_eq!(unflatten(p, n), (i, j));
                    p += 1;
                }
            }
        }
    }

    #[test]
    fn symmetric_with_zero_diagonal() {
        let m = DistanceMatrix::build(5, |i, j| (i * 10 + j) as f32);
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn matches_direct_metric() {
        let pts = [0.0f32, 1.5, -2.0, 7.0];
        let m = DistanceMatrix::build(4, |i, j| (pts[i] - pts[j]).abs());
        for i in 0..4 {
            for j in 0..4 {
                assert!((m.get(i, j) - (pts[i] - pts[j]).abs()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn distances_from_excludes_self() {
        let m = DistanceMatrix::build(4, |i, j| (i + j) as f32);
        let mut out = Vec::new();
        m.distances_from(2, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out, vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn max_pair_finds_extreme() {
        let m = DistanceMatrix::build(4, |i, j| if (i, j) == (1, 3) { 9.0 } else { 1.0 });
        assert_eq!(m.max_pair(), Some((1, 3, 9.0)));
        assert_eq!(DistanceMatrix::build(1, |_, _| 0.0).max_pair(), None);
    }

    #[test]
    fn cosine_of_identical_directions_is_zero() {
        let deltas = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 3.0],
            vec![0.0, 0.0],
        ]);
        let m = DistanceMatrix::cosine(&deltas);
        assert!(m.get(0, 1).abs() < 1e-6, "parallel vectors");
        assert!((m.get(0, 2) - 1.0).abs() < 1e-6, "orthogonal vectors");
        assert!((m.get(0, 3) - 1.0).abs() < 1e-6, "zero vector convention");
    }

    /// A `rows × d` block with roughly `density` of each row set, half of
    /// it on columns every row shares (so pairs have common members) —
    /// deterministically, magnitudes spread over six decades, every ninth
    /// member an explicit `-0.0`.
    fn sparse_block(rows: usize, d: usize, density: f64) -> Matrix {
        let keep = (density * 1000.0) as usize;
        Matrix::from_fn(rows, d, |r, c| {
            let hash = (r * 7919 + c * 104_729 + r * c) % 1000;
            let member = hash < keep / 2 || c * 7717 % 1000 < keep.div_ceil(2);
            match (member, (r + c) % 9) {
                (false, _) => 0.0,
                (true, 0) => -0.0,
                (true, k) => ((hash as f32 - 40.0) * 0.013).sin() * 10f32.powi(k as i32 - 4),
            }
        })
    }

    /// The cosine matrix over supports is the dense one, bit for bit: on a
    /// sparse block (gathered pairs), a block past the crossover (dense
    /// pairs), and a mixed one — a row past the crossover among sparse
    /// ones, an all-zero row (`denom == 0 → 1.0`), a row of `-0.0`s only,
    /// and rows holding an infinity and a NaN, whose pairs must go through
    /// the dense kernel (`0 · ∞`). Bits, not `==`: NaN entries must match
    /// too.
    #[test]
    fn cosine_over_supports_matches_the_dense_cosine_bitwise() {
        let d = 700; // 21 full lane sweeps and a ragged tail
        for density in [0.0, 0.01, 0.05, 0.09, 0.11, 0.3, 1.0] {
            let block = sparse_block(12, d, density);
            assert_eq!(
                DistanceMatrix::cosine_over_supports_into(&block, vec![3.0; 7]).to_bits(),
                DistanceMatrix::cosine(&block).to_bits(),
                "density {density}"
            );
        }
        let mut mixed = sparse_block(14, d, 0.04);
        mixed
            .row_mut(1)
            .copy_from_slice(sparse_block(1, d, 0.6).row(0));
        mixed.row_mut(3).fill(0.0);
        mixed.row_mut(5).fill(0.0);
        mixed.row_mut(5)[17] = -0.0;
        mixed.row_mut(8)[40] = f32::INFINITY;
        mixed.row_mut(9)[41] = f32::NAN;
        mixed.row_mut(11)[40] = f32::NEG_INFINITY;
        let expected = DistanceMatrix::cosine(&mixed);
        let got = DistanceMatrix::cosine_over_supports_into(&mixed, Vec::new());
        assert_eq!(got.to_bits(), expected.to_bits());
        // Not vacuously: the corner rows produced what they should.
        assert_eq!(expected.get(3, 0), 1.0, "a zero row is at distance 1");
        assert_eq!(expected.get(5, 0), 1.0, "so is a row of -0.0");
        assert!(expected.get(8, 0).is_nan() && expected.get(9, 2).is_nan());
        let overlapping = (expected.values.iter())
            .filter(|v| v.is_finite() && **v != 1.0)
            .count();
        assert!(overlapping >= 30, "{overlapping} pairs share a member");
    }

    #[test]
    fn build_into_reuses_the_buffer_and_matches_a_fresh_build() {
        let metric = |i: usize, j: usize| ((i * 13 + j * 3) % 31) as f32;
        // Big enough for the parallel path, shrinking across rounds.
        let fresh = DistanceMatrix::build(12, metric);
        let prior = DistanceMatrix::build(20, |i, j| (i + j) as f32);
        let scratch = prior.into_values();
        let cap = scratch.capacity();
        let reused = DistanceMatrix::build_into(12, scratch, metric);
        assert_eq!(reused, fresh, "buffer reuse changed a distance");
        assert_eq!(
            reused.into_values().capacity(),
            cap,
            "the O(n²) buffer was reallocated instead of reused"
        );
        // The serial path reuses too.
        let tiny_fresh = DistanceMatrix::build(3, metric);
        let tiny = DistanceMatrix::build_into(3, vec![9.0; 50], metric);
        assert_eq!(tiny, tiny_fresh);
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        // 20 points -> 190 pairs, well above the serial cutoff.
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| DistanceMatrix::build(20, |i, j| ((i * 31 + j * 7) % 97) as f32));
        let parallel = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| DistanceMatrix::build(20, |i, j| ((i * 31 + j * 7) % 97) as f32));
        assert_eq!(serial, parallel);
    }
}
