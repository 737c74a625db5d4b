//! Compressed client-update representations — the bandwidth lever of
//! city-scale rounds.
//!
//! A federated round moves one model-sized vector per client per round.
//! At paper scale that is negligible; at 10k–100k clients it is the
//! dominant cost, and the FL poisoning survey (arXiv:2306.03397) frames
//! sparsified/quantized updates as the standard mitigation. This module
//! makes the representation a first-class value:
//!
//! | Repr | Payload | Bytes (d params) | Lossy |
//! |---|---|---|---|
//! | [`DeltaRepr::Dense`] | full `f32` params | `4·d` | no |
//! | [`DeltaRepr::TopK`] | k largest-|δ| coords | `≈ 8·k` | yes |
//! | [`DeltaRepr::QuantizedI8`] | per-update scale + `i8` words | `≈ d + 4` | yes |
//!
//! Compression is **opt-in and lossy by design**: the dense path keeps the
//! repo's bitwise-trajectory invariant (full `f32` params round-trip
//! exactly; `f32` addition is not invertible, so even a dense *delta*
//! encoding would break it). A compressing client therefore re-materializes
//! its own update as `GM + decode(encode(δ))` before upload, so server and
//! client agree bit for bit on what was sent and the defense layer screens
//! exactly what it aggregates.
//!
//! Lossy compression without memory diverges; [`DeltaCompressor`] carries
//! the standard error-feedback accumulator (EF-SGD): each round compresses
//! `δ + residual` and banks what the encoding dropped, so the error stays
//! bounded instead of compounding. The accumulator is per-client state and
//! lives with the client across rounds.
//!
//! Top-k selection reuses the CLB attack's magnitude-partition machinery
//! ([`safeloc_attacks::select_top_k_by_magnitude`]) — same total order,
//! same deterministic tie-break, one implementation.

use safeloc_attacks::select_top_k_by_magnitude;
use serde::{Deserialize, Serialize};

/// The encoded form of one client update's delta, as it travels on the
/// wire and rides on [`ClientUpdate`](crate::ClientUpdate) for accounting.
///
/// The update's `params` field always holds the full re-materialized
/// model, whatever the repr — defenses and aggregation never read the
/// repr; they exploit the sparsity they observe (a `TopK` upload leaves
/// `LM == GM` bit for bit on most coordinates, and the round's delta view
/// finds that out from the parameters themselves). The repr records what
/// *would* cross the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum DeltaRepr {
    /// Full dense `f32` parameters — the exact, bitwise-pinned path.
    #[default]
    Dense,
    /// The `k` largest-magnitude delta coordinates, indices ascending.
    TopK {
        /// Flat parameter indices of the kept coordinates, ascending.
        indices: Vec<u32>,
        /// The kept delta values, parallel to `indices`.
        values: Vec<f32>,
        /// The selection size, kept explicit for reports: `indices.len()`,
        /// or the repr does not [`decode`](DeltaRepr::decode).
        k: usize,
    },
    /// The whole delta quantized to `i8` words under one per-update scale.
    QuantizedI8 {
        /// Dequantization scale: `value = word as f32 * scale`.
        scale: f32,
        /// One quantized word per parameter, in flat order.
        values: Vec<i8>,
    },
}

impl DeltaRepr {
    /// Bytes this representation occupies on the wire for a `num_params`
    /// model (payload only, excluding frame metadata). The dense figure is
    /// the raw `f32` tensor data an uncompressed update ships.
    pub fn wire_bytes(&self, num_params: usize) -> usize {
        match self {
            DeltaRepr::Dense => 4 * num_params,
            // u32 count + (u32 index, f32 value) pairs.
            DeltaRepr::TopK { indices, .. } => 4 + 8 * indices.len(),
            // f32 scale + u32 count + one byte per word.
            DeltaRepr::QuantizedI8 { values, .. } => 8 + values.len(),
        }
    }

    /// Decodes the repr into a flat dense delta of length `num_params`.
    ///
    /// Returns `None` for [`DeltaRepr::Dense`] — a dense update carries no
    /// separate delta payload (its `params` field *is* the exact model) —
    /// and for a repr that is not well-formed for a `num_params` model: a
    /// `TopK` whose indices are not strictly ascending and `< num_params`,
    /// whose `values` differ from them in length, or whose `k` is not
    /// their count, a `QuantizedI8` that is not exactly `num_params` words
    /// long. Such a payload is a protocol violation, not something to
    /// repair: dropping an index,
    /// letting a duplicate overwrite or padding a short vector would
    /// re-materialize a model the client never held and account bytes
    /// that were partly ignored. The checks are `O(k)`, and everything
    /// [`DeltaCompressor`] emits passes them and decodes to the same bytes
    /// as ever.
    pub fn decode(&self, num_params: usize) -> Option<Vec<f32>> {
        match self {
            DeltaRepr::Dense => None,
            DeltaRepr::TopK { indices, values, k } => {
                // Folded, not short-circuited: the comparison vectorizes,
                // and a well-formed payload never leaves early anyway.
                let ascending =
                    (indices.windows(2)).fold(true, |ok, pair| ok & (pair[0] < pair[1]));
                let in_range = indices.last().is_none_or(|&i| (i as usize) < num_params);
                let counted = values.len() == indices.len() && *k == indices.len();
                if !(ascending && in_range && counted) {
                    return None;
                }
                let mut out = vec![0.0; num_params];
                for (&i, &v) in indices.iter().zip(values) {
                    out[i as usize] = v;
                }
                Some(out)
            }
            DeltaRepr::QuantizedI8 { scale, values } => (values.len() == num_params)
                .then(|| values.iter().map(|&q| q as f32 * scale).collect()),
        }
    }

    /// Short display label (`"dense"`, `"topk(512)"`, `"q8"`).
    pub fn label(&self) -> String {
        match self {
            DeltaRepr::Dense => "dense".to_string(),
            DeltaRepr::TopK { k, .. } => format!("topk({k})"),
            DeltaRepr::QuantizedI8 { .. } => "q8".to_string(),
        }
    }
}

/// The `delta` scenario axis: which representation a cell's clients
/// compress their updates into.
///
/// Unknown repr names fail spec parsing with serde's unknown-variant
/// error (naming the offender and the valid set), matching the
/// `DefenseSpec` convention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DeltaSpec {
    /// No compression — the exact, bitwise-pinned path.
    #[default]
    Dense,
    /// Keep the `ceil(fraction · d)` largest-|δ| coordinates per round.
    TopK {
        /// Kept fraction of the parameter vector, clamped to `[0, 1]`.
        fraction: f32,
    },
    /// Quantize the whole delta to `i8` under one per-update scale.
    QuantizedI8,
}

impl DeltaSpec {
    /// `true` for the uncompressed representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, DeltaSpec::Dense)
    }

    /// The compressor this spec configures, or `None` for
    /// [`DeltaSpec::Dense`] (the exact path runs compressor-free).
    pub fn compressor(&self) -> Option<DeltaCompressor> {
        if self.is_dense() {
            None
        } else {
            Some(DeltaCompressor::new(*self))
        }
    }

    /// Display label (`"dense"`, `"topk=0.05"`, `"q8"`).
    pub fn label(&self) -> String {
        match self {
            DeltaSpec::Dense => "dense".to_string(),
            DeltaSpec::TopK { fraction } => format!("topk={fraction}"),
            DeltaSpec::QuantizedI8 => "q8".to_string(),
        }
    }
}

/// Per-client compressing encoder with an error-feedback accumulator.
///
/// Each round the client hands it the raw delta `δ = LM − GM` (flat); the
/// compressor encodes `δ + residual`, banks what the encoding dropped, and
/// returns both the wire repr and the decoded delta the update must
/// re-materialize from. Deterministic: same spec, same delta stream ⇒ same
/// reprs and residuals, independent of thread count (no RNG anywhere).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaCompressor {
    spec: DeltaSpec,
    /// What encoding dropped so far; empty until the first compression,
    /// then exactly parameter-sized.
    residual: Vec<f32>,
}

impl DeltaCompressor {
    /// A fresh compressor with a zero residual.
    pub fn new(spec: DeltaSpec) -> Self {
        Self {
            spec,
            residual: Vec::new(),
        }
    }

    /// The configured representation.
    pub fn spec(&self) -> DeltaSpec {
        self.spec
    }

    /// The banked residual (empty before the first compression).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// `true` once the accumulator carries round-to-round state — the
    /// signal generating fleet providers use to decide whether a reclaimed
    /// client must persist or can be rebuilt from its seed.
    pub fn has_state(&self) -> bool {
        !self.residual.is_empty()
    }

    /// One EF-SGD step: encodes `delta + residual`, banks the encoding
    /// error, and returns `(repr, decoded)` where `decoded` is the dense
    /// delta the server will reconstruct from `repr`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` changes length between calls (the model
    /// architecture is fixed for a session).
    pub fn compress(&mut self, delta: &[f32]) -> (DeltaRepr, Vec<f32>) {
        if self.residual.is_empty() {
            self.residual = vec![0.0; delta.len()];
        }
        assert_eq!(
            self.residual.len(),
            delta.len(),
            "delta length changed between rounds"
        );
        let target: Vec<f32> = delta
            .iter()
            .zip(&self.residual)
            .map(|(d, r)| d + r)
            .collect();
        let repr = encode(self.spec, &target);
        crate::metrics::fl_metrics().on_delta(4 * delta.len(), repr.wire_bytes(delta.len()));
        let decoded = repr.decode(delta.len()).unwrap_or_else(|| target.clone());
        for ((r, t), d) in self.residual.iter_mut().zip(&target).zip(&decoded) {
            *r = t - d;
        }
        (repr, decoded)
    }
}

/// Encodes one flat target vector under the given spec.
fn encode(spec: DeltaSpec, target: &[f32]) -> DeltaRepr {
    match spec {
        DeltaSpec::Dense => DeltaRepr::Dense,
        DeltaSpec::TopK { fraction } => {
            let d = target.len();
            let k = ((fraction.clamp(0.0, 1.0)) * d as f32).ceil() as usize;
            let k = k.min(d);
            let mut scratch: Vec<usize> = (0..d).collect();
            select_top_k_by_magnitude(target, k, &mut scratch);
            let mut kept: Vec<usize> = scratch[..k].to_vec();
            // Ascending indices: a canonical wire layout independent of
            // the partition's internal order.
            kept.sort_unstable();
            DeltaRepr::TopK {
                indices: kept.iter().map(|&i| i as u32).collect(),
                values: kept.iter().map(|&i| target[i]).collect(),
                k,
            }
        }
        DeltaSpec::QuantizedI8 => {
            let max_abs = target.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
            let values = target
                .iter()
                .map(|&v| {
                    if scale > 0.0 {
                        (v / scale).round().clamp(-127.0, 127.0) as i8
                    } else {
                        0
                    }
                })
                .collect();
            DeltaRepr::QuantizedI8 { scale, values }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> Vec<f32> {
        vec![0.5, -2.0, 0.01, 3.0, -0.02, 0.0, 1.5, -0.4]
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes_ascending() {
        let mut c = DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.375 });
        let (repr, decoded) = c.compress(&target());
        match &repr {
            DeltaRepr::TopK { indices, values, k } => {
                assert_eq!(*k, 3);
                assert_eq!(indices, &[1, 3, 6]);
                assert_eq!(values, &[-2.0, 3.0, 1.5]);
            }
            other => panic!("wrong repr {other:?}"),
        }
        let mut expect = vec![0.0; 8];
        expect[1] = -2.0;
        expect[3] = 3.0;
        expect[6] = 1.5;
        assert_eq!(decoded, expect);
        // The residual banks exactly what was dropped.
        assert_eq!(c.residual()[0], 0.5);
        assert_eq!(c.residual()[1], 0.0);
    }

    #[test]
    fn compression_round_trip_is_deterministic() {
        for spec in [DeltaSpec::TopK { fraction: 0.25 }, DeltaSpec::QuantizedI8] {
            let (r1, d1) = DeltaCompressor::new(spec).compress(&target());
            let (r2, d2) = DeltaCompressor::new(spec).compress(&target());
            assert_eq!(r1, r2, "same spec + delta must encode identically");
            assert_eq!(d1, d2);
            let json = serde_json::to_string(&r1).unwrap();
            let back: DeltaRepr = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r1, "reprs serde round-trip");
        }
    }

    #[test]
    fn error_feedback_residual_converges_on_a_fixed_target() {
        // Feed the same delta every round: with EF the *cumulative*
        // decoded sum approaches rounds · delta, i.e. nothing is
        // permanently lost to sparsification.
        let delta = target();
        let mut c = DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.25 });
        let mut cumulative = vec![0.0f32; delta.len()];
        let rounds = 40;
        for _ in 0..rounds {
            let (_, decoded) = c.compress(&delta);
            for (acc, d) in cumulative.iter_mut().zip(&decoded) {
                *acc += d;
            }
        }
        for (i, (&acc, &d)) in cumulative.iter().zip(&delta).enumerate() {
            let want = d * rounds as f32;
            // The residual bounds the shortfall by a few deltas' worth,
            // not by rounds' worth — the EF guarantee.
            assert!(
                (acc - want).abs() <= 4.0 * delta.iter().fold(0.0f32, |m, v| m.max(v.abs())),
                "coord {i}: cumulative {acc} vs ideal {want}"
            );
        }
        assert!(c.has_state());
    }

    #[test]
    fn quantization_error_is_bounded_by_half_a_step() {
        let mut c = DeltaCompressor::new(DeltaSpec::QuantizedI8);
        let (repr, decoded) = c.compress(&target());
        let scale = match repr {
            DeltaRepr::QuantizedI8 { scale, .. } => scale,
            other => panic!("wrong repr {other:?}"),
        };
        for (d, t) in decoded.iter().zip(&target()) {
            assert!((d - t).abs() <= scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn zero_delta_encodes_without_dividing_by_zero() {
        let zeros = vec![0.0f32; 6];
        let (repr, decoded) = DeltaCompressor::new(DeltaSpec::QuantizedI8).compress(&zeros);
        assert_eq!(decoded, zeros);
        assert!(matches!(repr, DeltaRepr::QuantizedI8 { scale, .. } if scale == 0.0));
        let (repr, decoded) =
            DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.5 }).compress(&zeros);
        assert_eq!(decoded.len(), 6);
        assert!(matches!(repr, DeltaRepr::TopK { k: 3, .. }));
    }

    /// Every way a compressed payload can disagree with the model it
    /// claims to encode is refused — none is silently repaired — while the
    /// same payload well-formed decodes.
    #[test]
    fn malformed_reprs_do_not_decode() {
        let topk = |indices: &[u32], values: &[f32]| DeltaRepr::TopK {
            indices: indices.to_vec(),
            values: values.to_vec(),
            k: indices.len(),
        };
        assert_eq!(
            topk(&[1, 3], &[0.5, -2.0]).decode(4),
            Some(vec![0.0, 0.5, 0.0, -2.0])
        );
        assert_eq!(topk(&[], &[]).decode(4), Some(vec![0.0; 4]));
        for (malformed, why) in [
            (topk(&[1, 4], &[0.5, -2.0]), "an index past the model"),
            (topk(&[1, 1], &[0.5, -2.0]), "a duplicate index"),
            (topk(&[3, 1], &[0.5, -2.0]), "descending indices"),
            (topk(&[1, 3], &[0.5]), "fewer values than indices"),
            (topk(&[1], &[0.5, -2.0]), "more values than indices"),
            (
                DeltaRepr::TopK {
                    indices: vec![1, 3],
                    values: vec![0.5, -2.0],
                    k: u32::MAX as usize,
                },
                "a k that is not the coefficient count",
            ),
        ] {
            assert_eq!(malformed.decode(4), None, "{why} decoded");
        }
        assert_eq!(topk(&[0], &[0.5]).decode(0), None, "an empty model");
        let q8 = |len: usize| DeltaRepr::QuantizedI8 {
            scale: 0.5,
            values: vec![2; len],
        };
        assert_eq!(q8(4).decode(4), Some(vec![1.0; 4]));
        assert_eq!(q8(3).decode(4), None, "a short vector was zero-extended");
        assert_eq!(q8(5).decode(4), None, "a long vector was truncated");
    }

    #[test]
    fn wire_bytes_shrink_proportionally_to_k() {
        let d = 10_000;
        let dense = DeltaRepr::Dense.wire_bytes(d);
        let topk = DeltaRepr::TopK {
            indices: vec![0; 500],
            values: vec![0.0; 500],
            k: 500,
        }
        .wire_bytes(d);
        let q8 = DeltaRepr::QuantizedI8 {
            scale: 1.0,
            values: vec![0; d],
        }
        .wire_bytes(d);
        assert_eq!(dense, 4 * d);
        assert!(topk < dense / 9, "5% top-k must shrink ~10x: {topk}");
        assert!(q8 < dense / 3, "i8 quantization must shrink ~4x: {q8}");
    }

    #[test]
    fn unknown_repr_names_fail_parsing_naming_the_offender() {
        let err = serde_json::from_str::<DeltaSpec>("{\"TopQ\":{\"fraction\":0.1}}")
            .expect_err("unknown variant must fail");
        let msg = format!("{err:?}");
        assert!(msg.contains("TopQ"), "error must name the offender: {msg}");
    }

    #[test]
    fn spec_labels_and_compressor_construction() {
        assert_eq!(DeltaSpec::Dense.label(), "dense");
        assert_eq!(DeltaSpec::TopK { fraction: 0.05 }.label(), "topk=0.05");
        assert_eq!(DeltaSpec::QuantizedI8.label(), "q8");
        assert!(DeltaSpec::Dense.compressor().is_none());
        assert!(DeltaSpec::QuantizedI8.compressor().is_some());
        assert_eq!(DeltaRepr::Dense.label(), "dense");
        assert_eq!(
            DeltaRepr::TopK {
                indices: vec![],
                values: vec![],
                k: 9
            }
            .label(),
            "topk(9)"
        );
    }
}
