//! The round's deltas `LM_i − GM`, one row per update, each stored dense
//! or as its *support* — whichever the row turned out to be (see "Dense
//! vs. sparse rows" in the [`context`](super::context) module docs).

use crate::update::ClientUpdate;
use rayon::prelude::*;
use safeloc_nn::{kernels, Matrix, NamedParams};
use std::borrow::Cow;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A row is stored as a support while at most `1 / SUPPORT_MAX_DENSITY_INV`
/// of its coordinates differ from the GM; discovery gives up on the row at
/// the first coordinate past that and the row is stored dense.
///
/// ⅛ is the measured break-even of the operation that crosses first
/// (the since-deleted criterion bench `aggregation`, group
/// `screening_sparse`, 256 × 46 953, one core, `view` time over `dense`
/// time, two runs): at 5 % norms ×0.16, a 2-means pass ×0.24–0.25, the
/// projection ×0.36–0.45, the trimmed mean ×0.21–0.25; at 12.5 % norms
/// ×0.29–0.40, a 2-means pass ×0.40–0.51 and the trimmed mean ×0.35 still
/// win while the **projection is level (×0.91–1.10)** — one in 2.4 of its
/// 4-step groups holds a support element and is evaluated whole, through
/// gathers; at 25 % the projection has lost (×1.6–1.8) and norms and
/// 2-means are about level (×0.7–1.0). (Since a group's lone member adds
/// over one projection row instead of four — design rule 7 of
/// `safeloc_nn::kernels` — the projection reads ×0.19 at 5 %, ×0.51 at
/// 12.5 % and ×1.25 at 25 %: it no longer crosses first, and every
/// operation now crosses between ⅛ and ¼.) A support element also costs 12
/// bytes (index, delta, LM value) against a dense coordinate's 4, so at ⅛
/// a support row is ⅜ of a dense one and at ⅓ nothing would be saved.
const SUPPORT_MAX_DENSITY_INV: usize = 8;

/// Coordinates compared per step of the discovery pass: one bit each of a
/// `u64` mask.
const DISCOVERY_CHUNK: usize = 64;
const _: () = assert!(
    DISCOVERY_CHUNK <= u64::BITS as usize,
    "one mask bit per coordinate"
);

/// The view's recyclable buffers (see
/// [`DistanceScratch`](super::DistanceScratch)).
#[derive(Debug, Default)]
pub(super) struct RowBuffers {
    /// The dense rows' block.
    dense: Vec<f32>,
    /// The sparse rows' `(index, LM − GM, LM)` regions.
    indices: Vec<u32>,
    deltas: Vec<f32>,
    lms: Vec<f32>,
}

#[cfg(test)]
impl RowBuffers {
    /// Total elements held (0 when cold).
    pub(super) fn capacity(&self) -> usize {
        self.dense.capacity()
            + self.indices.capacity()
            + self.deltas.capacity()
            + self.lms.capacity()
    }
}

/// Where one row of the view lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Row `.0` of the dense block.
    Dense(usize),
    /// The first `.0` entries of the row's region of the compact buffers.
    Support(usize),
}

/// What the discovery pass found out about one row.
enum Found {
    /// A support of this many coordinates, written to the row's region.
    Support(usize),
    /// More differing coordinates than a region holds.
    TooDense,
    /// A finite LM value whose delta is not (`LM − GM` overflowed): the
    /// round cannot promise the support kernels finite operands.
    Overflow,
}

/// One update's delta `LM − GM` as the screening stages read it: through
/// methods that give the same bits whichever way the row is stored.
#[derive(Debug, Clone, Copy)]
pub enum DeltaRow<'a> {
    /// All `d` coordinates of the flattened delta.
    Dense(&'a [f32]),
    /// Only the coordinates whose LM differs from the GM bit for bit —
    /// every other coordinate of the delta is exactly `+0.0`.
    Support {
        /// Flat parameter indices, strictly ascending.
        indices: &'a [u32],
        /// `LM − GM` at `indices`.
        deltas: &'a [f32],
        /// The LM's own values at `indices`.
        lms: &'a [f32],
    },
}

impl DeltaRow<'_> {
    /// `Σ δ²` — [`kernels::sum_squares`] of the flattened delta.
    pub fn sum_squares(&self) -> f32 {
        match *self {
            DeltaRow::Dense(row) => kernels::sum_squares(row),
            DeltaRow::Support {
                indices, deltas, ..
            } => kernels::support_sum_squares(indices, deltas),
        }
    }

    /// `Σ δ[e]·other[e]` — [`kernels::dot`] of the flattened delta with a
    /// finite `other`.
    pub fn dot(&self, other: &[f32]) -> f32 {
        match *self {
            DeltaRow::Dense(row) => kernels::dot(row, other),
            DeltaRow::Support {
                indices, deltas, ..
            } => kernels::support_dot(indices, deltas, other),
        }
    }

    /// `(self.dot(a), self.dot(b))` — bit for bit — reading a support row
    /// once for both ([`kernels::support_dot_pair`]).
    pub fn dot_pair(&self, a: &[f32], b: &[f32]) -> (f32, f32) {
        match *self {
            DeltaRow::Dense(row) => (kernels::dot(row, a), kernels::dot(row, b)),
            DeltaRow::Support {
                indices, deltas, ..
            } => kernels::support_dot_pair(indices, deltas, a, b),
        }
    }

    /// `acc[e] += weight · δ[e]`, for an accumulator that started at
    /// `+0.0` (a 2-means centroid being re-averaged).
    pub fn add_scaled_to(&self, acc: &mut [f32], weight: f32) {
        match *self {
            DeltaRow::Dense(row) => {
                for (c, v) in acc.iter_mut().zip(row) {
                    *c += weight * v;
                }
            }
            DeltaRow::Support {
                indices, deltas, ..
            } => kernels::support_axpy(acc, weight, indices, deltas),
        }
    }

    /// Writes the flattened delta into `out`, which must be one row (`d`
    /// elements) long.
    pub fn write_to(&self, out: &mut [f32]) {
        match *self {
            DeltaRow::Dense(row) => out.copy_from_slice(row),
            DeltaRow::Support {
                indices, deltas, ..
            } => {
                out.fill(0.0);
                for (&i, &v) in indices.iter().zip(deltas) {
                    out[i as usize] = v;
                }
            }
        }
    }
}

/// The round's deltas, row `i` for update `i` (see the module docs).
/// Built by [`RoundContext::delta_rows`](super::RoundContext::delta_rows).
pub struct DeltaRows<'a> {
    global: &'a NamedParams,
    updates: &'a [&'a ClientUpdate],
    slots: Vec<Slot>,
    dense_rows: usize,
    /// Region stride of the compact buffers: row `i` owns
    /// `[i·region, (i + 1)·region)` of each.
    region: usize,
    indices: Vec<u32>,
    deltas: Vec<f32>,
    lms: Vec<f32>,
    /// The dense rows' `n_dense × d` block, in update order — built when a
    /// stage first *reads* a dense row, so a round whose stages only ask
    /// which rows are sparse never materializes it.
    dense: OnceLock<Matrix>,
    dense_buffer: Mutex<Vec<f32>>,
}

impl<'a> DeltaRows<'a> {
    /// The discovery pass: finds every row's support, rows in parallel,
    /// each into its own region of the recycled compact buffers.
    pub(super) fn discover(
        global: &'a NamedParams,
        updates: &'a [&'a ClientUpdate],
        buffers: RowBuffers,
    ) -> Self {
        let (n, d) = (updates.len(), global.num_params());
        let region = d / SUPPORT_MAX_DENSITY_INV;
        let RowBuffers {
            dense,
            mut indices,
            mut deltas,
            mut lms,
        } = buffers;
        // A non-finite GM coordinate makes `LM − GM` NaN even where the two
        // agree bit for bit: no row of such a round has a support.
        let searchable = region > 0 && u32::try_from(d).is_ok() && !global.has_non_finite();
        let mut found: Vec<Found> = Vec::new();
        if searchable {
            // Grown by replacement, never by `resize`: `vec![0; len]` is a
            // zeroed allocation whose pages stay untouched until a row
            // writes them, and no region is read past what this round
            // wrote, so stale contents are as good as zeros.
            let len = n * region;
            if indices.len() < len {
                (indices, deltas, lms) = (vec![0; len], vec![0.0; len], vec![0.0; len]);
            }
            let mut regions: Vec<_> = indices
                .chunks_mut(region)
                .zip(deltas.chunks_mut(region))
                .zip(lms.chunks_mut(region))
                .zip(updates)
                .collect();
            found = regions
                .par_iter_mut()
                .map(|(((indices, deltas), lms), u)| {
                    find_support(&u.params, global, indices, deltas, lms)
                })
                .collect();
        }
        if found.iter().any(|f| matches!(f, Found::Overflow)) {
            found.clear();
        }
        let mut dense_rows = 0;
        let slots: Vec<Slot> = (0..n)
            .map(|i| match found.get(i) {
                Some(&Found::Support(len)) => Slot::Support(len),
                _ => {
                    dense_rows += 1;
                    Slot::Dense(dense_rows - 1)
                }
            })
            .collect();
        // det: telemetry only — which way rows were stored and how dense
        // the uploads are; nothing reads these series back.
        crate::metrics::fl_metrics().on_delta_view(
            dense_rows,
            slots.iter().filter_map(|slot| match *slot {
                Slot::Support(len) => Some(len as f64 / d as f64),
                Slot::Dense(_) => None,
            }),
        );
        Self {
            global,
            updates,
            slots,
            dense_rows,
            region,
            indices,
            deltas,
            lms,
            dense: OnceLock::new(),
            dense_buffer: Mutex::new(dense),
        }
    }

    /// Dismantles the view into its buffers, for the next round.
    pub(super) fn into_buffers(self) -> RowBuffers {
        RowBuffers {
            dense: match self.dense.into_inner() {
                Some(block) => block.into_vec(),
                // A poisoned lock is recovered: the buffer is overwritten
                // before it is read, whatever a panicking build left in it.
                None => self
                    .dense_buffer
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner),
            },
            indices: self.indices,
            deltas: self.deltas,
            lms: self.lms,
        }
    }

    /// Number of rows (the round's updates).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for a round without updates.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Coordinates per row (the model's parameter count).
    pub fn dim(&self) -> usize {
        self.global.num_params()
    }

    /// Update `i`'s delta.
    pub fn row(&self, i: usize) -> DeltaRow<'_> {
        match self.slots[i] {
            Slot::Dense(slot) => DeltaRow::Dense(self.dense_block().row(slot)),
            Slot::Support(len) => {
                let at = self.region_of(i, len);
                DeltaRow::Support {
                    indices: &self.indices[at.clone()],
                    deltas: &self.deltas[at.clone()],
                    lms: &self.lms[at],
                }
            }
        }
    }

    /// The first `len` entries of row `i`'s region of the compact buffers.
    fn region_of(&self, i: usize, len: usize) -> std::ops::Range<usize> {
        i * self.region..i * self.region + len
    }

    /// Update `i`'s part of the compact buffers when the row is stored as
    /// a support.
    fn support_range(&self, i: usize) -> Option<std::ops::Range<usize>> {
        match self.slots[i] {
            Slot::Support(len) => Some(self.region_of(i, len)),
            Slot::Dense(_) => None,
        }
    }

    /// Update `i`'s LM where it differs from the GM — `(indices, values)`
    /// — when the row is stored as a support, `None` when it is dense.
    /// Never builds the dense block.
    pub fn lm_support(&self, i: usize) -> Option<(&[u32], &[f32])> {
        let at = self.support_range(i)?;
        Some((&self.indices[at.clone()], &self.lms[at]))
    }

    /// Update `i`'s delta where its LM differs from the GM — `(indices,
    /// LM − GM)`, every other coordinate being exactly `+0.0` — when the
    /// row is stored as a support, `None` when it is dense. Never builds
    /// the dense block (which [`row`](Self::row) does for a dense row).
    pub fn delta_support(&self, i: usize) -> Option<(&[u32], &[f32])> {
        let at = self.support_range(i)?;
        Some((&self.indices[at.clone()], &self.deltas[at]))
    }

    /// `true` if update `i`'s LM carries a NaN or an infinity. A support
    /// row's LM equals the (finite — checked when the view was built) GM
    /// everywhere else, so its stored values are all there is to check; a
    /// dense row's parameters are swept whole. Never builds the dense
    /// block.
    pub fn lm_has_non_finite(&self, i: usize) -> bool {
        match self.lm_support(i) {
            Some((_, lms)) => kernels::has_non_finite(lms),
            None => self.updates[i].params.has_non_finite(),
        }
    }

    /// Number of rows stored dense.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// `true` once a stage has read a dense row (tests pin who does not).
    #[cfg(test)]
    pub(super) fn dense_block_is_built(&self) -> bool {
        self.dense.get().is_some()
    }

    /// The dense rows' block, built (rows in parallel, into the recycled
    /// buffer) on first use.
    fn dense_block(&self) -> &Matrix {
        self.dense.get_or_init(|| {
            let d = self.dim();
            let dense: Vec<&ClientUpdate> = (self.slots.iter().zip(self.updates))
                .filter(|(slot, _)| matches!(slot, Slot::Dense(_)))
                .map(|(_, &u)| u)
                .collect();
            let mut block = std::mem::take(
                &mut *self
                    .dense_buffer
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            // Not cleared first: every element of the prefix is overwritten
            // below, and skipping the clear skips a zero-fill (48 MB at 256
            // dense paper-sized rows) of memory about to be written anyway.
            block.resize(dense.len() * d, 0.0);
            let mut rows: Vec<(&mut [f32], &ClientUpdate)> =
                block.chunks_mut(d.max(1)).zip(dense).collect();
            rows.par_iter_mut()
                .for_each(|(row, u)| u.params.delta_flat_into(self.global, row));
            Matrix::from_vec(rows.len(), d, block).expect("n_dense·d elements by construction")
        })
    }

    /// Every row dense, as one `n × d` block — what the exact distance
    /// paths (rounds of at most
    /// [`EXACT_SCREEN_MAX`](super::EXACT_SCREEN_MAX) updates) read. The
    /// view's own block when no row is sparse, which is every paper-scale
    /// `Dense` round; a densified copy otherwise.
    pub(super) fn to_block(&self) -> Cow<'_, Matrix> {
        if self.dense_rows() == self.len() {
            return Cow::Borrowed(self.dense_block());
        }
        let d = self.dim();
        let mut block = vec![0.0f32; self.len() * d];
        for (i, out) in block.chunks_mut(d.max(1)).enumerate() {
            self.row(i).write_to(out);
        }
        Cow::Owned(Matrix::from_vec(self.len(), d, block).expect("n·d elements by construction"))
    }

    /// Rows `rows` times `projection` (`d × f`), as a `rows.len() × f`
    /// matrix, row `r` for update `rows[r]`: the whole dense block through
    /// one [`Matrix::matmul`] call if any asked-for row is dense (and
    /// neither the block nor its product otherwise — every row of a
    /// `TopK` round is a support), the asked-for support rows through one
    /// [`kernels::support_matmul_into`] call, each sweeping the tall
    /// projection from memory once. A row's features depend on that row
    /// alone, and either kernel gives a row the bits the other would — so a
    /// support row left out changes no other row's features, and a stage
    /// projects only the sparse rows it still screens.
    ///
    /// # Panics
    ///
    /// Panics unless `projection` has one row per coordinate, or if a row
    /// is out of range.
    pub fn project(&self, projection: &Matrix, rows: &[usize]) -> Matrix {
        assert_eq!(projection.rows(), self.dim(), "projection height");
        let f = projection.cols();
        // No dense row asked for, no dense block built or projected.
        let dense = (rows.iter())
            .any(|&i| matches!(self.slots[i], Slot::Dense(_)))
            .then(|| self.dense_block().matmul(projection));
        let supports: Vec<(&[u32], &[f32])> = (rows.iter())
            .filter_map(|&i| self.delta_support(i))
            .collect();
        let mut sparse = vec![0.0f32; supports.len() * f];
        kernels::support_matmul_into(&mut sparse, &supports, projection.as_slice(), self.dim(), f);
        // Back into the order asked for.
        let mut features = Vec::with_capacity(rows.len() * f);
        let mut sparse_rows = sparse.chunks(f.max(1));
        for &i in rows {
            features.extend_from_slice(match self.slots[i] {
                Slot::Dense(slot) => dense.as_ref().expect("a dense row was asked for").row(slot),
                Slot::Support(_) => sparse_rows.next().unwrap_or_default(),
            });
        }
        Matrix::from_vec(rows.len(), f, features).expect("rows·f elements by construction")
    }
}

/// One row's region of the compact buffers, being filled.
struct Region<'r> {
    indices: &'r mut [u32],
    deltas: &'r mut [f32],
    lms: &'r mut [f32],
    len: usize,
    overflow: bool,
}

impl Region<'_> {
    /// Appends the coordinates of one chunk (`xs` of the LM, `ys` of the
    /// GM, at most [`DISCOVERY_CHUNK`] long, starting at flat index
    /// `start`) that differ bit for bit; `false` once the region is full.
    /// One mask bit per coordinate: the comparison vectorizes, and only
    /// the set bits are walked.
    #[inline(always)]
    fn push_differing(&mut self, xs: &[f32], ys: &[f32], start: usize) -> bool {
        let mut differing = (xs.iter().zip(ys).enumerate()).fold(0u64, |mask, (e, (x, y))| {
            mask | (u64::from(x.to_bits() != y.to_bits()) << e)
        });
        while differing != 0 {
            let e = differing.trailing_zeros() as usize;
            differing &= differing - 1;
            if self.len == self.indices.len() {
                return false;
            }
            let delta = xs[e] - ys[e];
            self.overflow |= xs[e].is_finite() && !delta.is_finite();
            self.indices[self.len] = (start + e) as u32;
            self.deltas[self.len] = delta;
            self.lms[self.len] = xs[e];
            self.len += 1;
        }
        true
    }
}

/// Writes the coordinates where `lm` and `gm` differ *bit for bit* — the
/// only ones where `LM − GM` is not exactly `+0.0`, the GM being finite —
/// into the row's region, ascending, as `(flat index, LM − GM, LM)`.
/// Client-supplied metadata ([`ClientUpdate::repr`]) is never consulted:
/// an upload is as sparse as its parameters are.
///
/// # Panics
///
/// Panics if the architectures differ.
fn find_support(
    lm: &NamedParams,
    gm: &NamedParams,
    indices: &mut [u32],
    deltas: &mut [f32],
    lms: &mut [f32],
) -> Found {
    assert!(lm.same_arch(gm), "delta: architecture mismatch");
    let mut region = Region {
        indices,
        deltas,
        lms,
        len: 0,
        overflow: false,
    };
    let mut offset = 0;
    for ((_, lm), (_, gm)) in lm.iter().zip(gm.iter()) {
        let mut xs = lm.as_slice().chunks_exact(DISCOVERY_CHUNK);
        let mut ys = gm.as_slice().chunks_exact(DISCOVERY_CHUNK);
        for (xs, ys) in (&mut xs).zip(&mut ys) {
            if !region.push_differing(xs, ys, offset) {
                return Found::TooDense;
            }
            offset += DISCOVERY_CHUNK;
        }
        if !region.push_differing(xs.remainder(), ys.remainder(), offset) {
            return Found::TooDense;
        }
        offset += xs.remainder().len();
    }
    if region.overflow {
        Found::Overflow
    } else {
        Found::Support(region.len)
    }
}
