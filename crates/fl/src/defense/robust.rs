//! Generic terminal combiners: the uniform mean the screened rules share,
//! plus the two classic robust-statistics combiners (coordinate-wise
//! trimmed mean and median) the defense literature composes with.

use crate::defense::{Combiner, RoundContext, Verdicts};
use rayon::prelude::*;
use safeloc_nn::{Matrix, NamedParams};
use std::borrow::Cow;

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

/// Materializes the active updates' effective parameters (clip scales
/// applied), shared by the coordinate-wise combiners.
fn effective_active<'c>(
    ctx: &'c RoundContext<'_>,
    verdicts: &Verdicts,
    active: &[usize],
) -> Vec<Cow<'c, NamedParams>> {
    active.iter().map(|&i| verdicts.effective(ctx, i)).collect()
}

/// Applies `fold` to every coordinate across the active updates: for each
/// tensor (in global-model order, fanned out over threads) and each
/// element, the update values are gathered into a scratch buffer and
/// reduced to the output element.
fn coordinate_wise(
    ctx: &RoundContext<'_>,
    sources: &[Cow<'_, NamedParams>],
    fold: impl Fn(&mut [f32]) -> f32 + Sync,
) -> NamedParams {
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

impl Combiner for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let n = active.len();
        let t = ((self.trim_fraction.clamp(0.0, 0.5) * n as f32).floor() as usize)
            .min(n.saturating_sub(1) / 2);
        let sources = effective_active(ctx, verdicts, &active);
        let params = coordinate_wise(ctx, &sources, |values| {
            // Unstable, total order: updates reaching a combiner are finite,
            // and equal values are interchangeable in a sum (`-0.0` now
            // sorts before `0.0`, which can only flip the sign of an
            // all-zero sum).
            values.sort_unstable_by(f32::total_cmp);
            let kept = &values[t..values.len() - t];
            kept.iter().sum::<f32>() / kept.len() as f32
        });
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

impl Combiner for CoordinateMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn combine(&mut self, ctx: &RoundContext<'_>, verdicts: &mut Verdicts) -> NamedParams {
        let active = verdicts.active_indices();
        let sources = effective_active(ctx, verdicts, &active);
        let params = coordinate_wise(ctx, &sources, |values| {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = values.len();
            if n % 2 == 1 {
                values[n / 2]
            } else {
                0.5 * (values[n / 2 - 1] + values[n / 2])
            }
        });
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
    use crate::aggregate::test_support::{params, update};
    use crate::defense::DefensePipeline;
    use crate::Aggregator;

    fn pipeline(combiner: Box<dyn Combiner>) -> DefensePipeline {
        DefensePipeline::new("test", Vec::new(), combiner)
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
