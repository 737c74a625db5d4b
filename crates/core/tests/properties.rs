//! Property-based tests for the SAFELOC core invariants.

use proptest::prelude::*;
use safeloc::{
    saliency_matrix, AggregationMode, FusedConfig, FusedNetwork, RceMode, SaliencyAggregator,
};
use safeloc_fl::{Aggregator, ClientUpdate};
use safeloc_nn::{HasParams, Matrix, NamedParams};

fn matrix_strategy(rows: usize, cols: usize, lo: f32, hi: f32) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(lo..hi, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

fn tiny_net(seed: u64) -> FusedNetwork {
    FusedNetwork::new(&FusedConfig {
        input_dim: 6,
        encoder_dims: vec![8, 4],
        decoder_hidden: vec![8],
        n_classes: 3,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Saliency values always live in (0, 1], for any sharpness.
    #[test]
    fn saliency_is_a_gate(
        lm in matrix_strategy(2, 5, -100.0, 100.0),
        gm in matrix_strategy(2, 5, -100.0, 100.0),
        k in 0.0f32..50.0,
    ) {
        let s = saliency_matrix(&lm, &gm, k);
        prop_assert!(s.as_slice().iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-6));
    }

    /// Zero deviation always maps to saliency exactly 1.
    #[test]
    fn identical_weights_have_full_saliency(
        w in matrix_strategy(1, 8, -10.0, 10.0),
        k in 0.0f32..50.0,
    ) {
        let s = saliency_matrix(&w, &w, k);
        prop_assert!(s.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    /// Bounded influence: `m` arbitrary finite uploads among `n` move each
    /// coordinate of the aggregate by less than a fixed bound, compared with
    /// the same round where those `m` uploads are the GM itself.
    ///
    /// Write `g` for a GM coordinate, `l_i = g + Δ_i` for upload `i`'s, `k`
    /// for the sharpness and `S_i = 1/(1 + k|Δ_i|)`. An upload equal to the
    /// GM has `Δ = 0` and `S = 1`.
    ///
    /// * `Normalized`: `g' = g + (1/n)·Σ_i S_i·Δ_i`. A GM upload adds `0`,
    ///   so the two aggregates differ by `(1/n)·Σ_{i∈A} Δ_i/(1 + k|Δ_i|)`
    ///   over the `m` attackers `A`, each term below `1/k` in magnitude:
    ///   `|Δg'| < m/(n·k)`, whatever the honest uploads are.
    /// * `Literal`: `g' = (g + (1/n)·Σ_i S_i·l_i) / 2`. A GM upload adds
    ///   `g`, so the aggregates differ by `(1/2n)·Σ_{i∈A} (S_i·l_i − g)`.
    ///   With `t_i = k|Δ_i|/(1 + k|Δ_i|) ∈ [0, 1)`,
    ///   `S_i·l_i − g = Δ_i/(1 + k|Δ_i|) − t_i·g = t_i·(±1/k − g)`, so each
    ///   term is below `1/k + |g|` in magnitude:
    ///   `|Δg'| < m·(1/k + |g|)/(2n)`. The attacker's `l_i/(1 + k|Δ_i|)`
    ///   stands against the GM's own value, which is why the bound carries
    ///   `|g|`: an upload far from the GM pulls the coordinate towards `±1/k`.
    ///
    /// Each case checks the drawn cohort (`n ≤ 8`, the first `m` uploads
    /// the attackers) and the one-update cohort `n = m = 1`, in both
    /// modes. Half of an attacker's coordinates are `g + U(±100)`, the
    /// other half arbitrary finite bit patterns (from subnormals to
    /// `f32::MAX`); honest uploads are `g + U(±1)`. The slack covers the
    /// f32 rounding of the two aggregates.
    #[test]
    fn normalized_aggregation_is_bounded(
        gm_vals in prop::collection::vec(-2.0f32..2.0, 6),
        n in 1usize..=8,
        m_draw in 0usize..=8,
        near in prop::collection::vec(-100.0f32..100.0, 8 * 6),
        bits in prop::collection::vec(0u32..=u32::MAX, 8 * 6),
        honest in prop::collection::vec(-1.0f32..1.0, 8 * 6),
    ) {
        const SLACK: f32 = 1e-5;
        let params = |w: Vec<f32>| {
            NamedParams::new(vec![("w".into(), Matrix::from_vec(1, 6, w).unwrap())])
        };
        let gm = params(gm_vals.clone());
        let attacker = |i: usize| {
            (0..6)
                .map(|j| {
                    let wild = f32::from_bits(bits[6 * i + j]);
                    if j % 2 == 1 && wild.is_finite() {
                        wild
                    } else {
                        gm_vals[j] + near[6 * i + j]
                    }
                })
                .collect::<Vec<f32>>()
        };
        let benign =
            |i: usize| gm_vals.iter().zip(&honest[6 * i..]).map(|(g, d)| g + d).collect();
        for (n, m) in [(1, 1), (n, m_draw.min(n))] {
            let upload = |i: usize, w: Vec<f32>| ClientUpdate::new(i, params(w), 1);
            let full: Vec<ClientUpdate> = (0..n)
                .map(|i| upload(i, if i < m { attacker(i) } else { benign(i) }))
                .collect();
            let reference: Vec<ClientUpdate> = (0..n)
                .map(|i| upload(i, if i < m { gm_vals.clone() } else { benign(i) }))
                .collect();
            for mode in [AggregationMode::Normalized, AggregationMode::Literal] {
                let agg = SaliencyAggregator::new(mode);
                let k = agg.sharpness;
                let moved = agg.into_pipeline().aggregate(&gm, &full).params;
                let stayed = agg.into_pipeline().aggregate(&gm, &reference).params;
                let diff = moved.get("w").unwrap().sub(stayed.get("w").unwrap());
                for (j, (&d, &g)) in diff.as_slice().iter().zip(&gm_vals).enumerate() {
                    let bound = match mode {
                        AggregationMode::Normalized => m as f32 / (n as f32 * k),
                        AggregationMode::Literal => {
                            m as f32 * (1.0 / k + g.abs()) / (2.0 * n as f32)
                        }
                    };
                    prop_assert!(
                        d.abs() < bound + SLACK,
                        "{mode:?}, {m} of {n} attackers: coordinate {j} moved {d}, bound {bound}"
                    );
                }
            }
        }
    }

    /// Aggregating any set of finite updates never produces non-finite
    /// weights, in either mode.
    #[test]
    fn aggregation_preserves_finiteness(
        vals in prop::collection::vec(-1000.0f32..1000.0, 12),
        literal in any::<bool>(),
    ) {
        let gm = NamedParams::new(vec![(
            "w".into(),
            Matrix::from_vec(1, 4, vals[..4].to_vec()).unwrap(),
        )]);
        let updates: Vec<ClientUpdate> = (0..2)
            .map(|i| {
                ClientUpdate::new(
                    i,
                    NamedParams::new(vec![(
                        "w".into(),
                        Matrix::from_vec(1, 4, vals[4 * (i + 1)..4 * (i + 2)].to_vec()).unwrap(),
                    )]),
                    1,
                )
            })
            .collect();
        let mode = if literal { AggregationMode::Literal } else { AggregationMode::Normalized };
        let out = SaliencyAggregator::new(mode).into_pipeline().aggregate(&gm, &updates);
        prop_assert!(!out.params.has_non_finite());
    }

    /// The detection pipeline never panics and always returns one label and
    /// one flag per row, for arbitrary normalized inputs and thresholds.
    #[test]
    fn detection_is_total(
        x in matrix_strategy(3, 6, 0.0, 1.0),
        tau in 0.0f32..5.0,
        seed in 0u64..50,
    ) {
        let net = tiny_net(seed);
        let out = net.predict_with_detection(&x, tau, RceMode::Relative);
        prop_assert_eq!(out.labels.len(), 3);
        prop_assert_eq!(out.flagged.len(), 3);
        prop_assert_eq!(out.rce.len(), 3);
        prop_assert!(out.labels.iter().all(|&l| l < 3));
        prop_assert!(out.rce.iter().all(|r| r.is_finite() && *r >= 0.0));
    }

    /// De-noising returns values in [0,1] and touches only flagged rows.
    #[test]
    fn denoise_only_touches_flagged_rows(
        x in matrix_strategy(4, 6, 0.0, 1.0),
        tau in 0.05f32..3.0,
        seed in 0u64..50,
    ) {
        let net = tiny_net(seed);
        let (den, flagged) = net.denoise_matrix(&x, tau, RceMode::Relative);
        prop_assert!(den.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        for (r, &was_flagged) in flagged.iter().enumerate() {
            if !was_flagged {
                prop_assert_eq!(den.row(r), x.row(r), "unflagged row {} was altered", r);
            }
        }
    }

    /// An infinite threshold flags nothing; a negative threshold flags
    /// everything (RCE >= 0).
    #[test]
    fn threshold_extremes(
        x in matrix_strategy(3, 6, 0.01, 1.0),
        seed in 0u64..20,
    ) {
        let net = tiny_net(seed);
        let none = net.predict_with_detection(&x, f32::INFINITY, RceMode::Relative);
        prop_assert!(none.flagged.iter().all(|&f| !f));
        let all = net.predict_with_detection(&x, -1.0, RceMode::Relative);
        prop_assert!(all.flagged.iter().all(|&f| f));
    }

    /// Snapshot/load through NamedParams preserves fused-network behaviour.
    #[test]
    fn fused_snapshot_round_trip(seed in 0u64..100) {
        let net = tiny_net(seed);
        let mut other = tiny_net(seed + 1);
        other.load(&net.snapshot()).unwrap();
        let x = Matrix::from_rows(&[vec![0.25; 6]]);
        prop_assert_eq!(net.predict(&x), other.predict(&x));
        let a = net.rce(&x, RceMode::Relative);
        let b = other.rce(&x, RceMode::Relative);
        prop_assert!((a[0] - b[0]).abs() < 1e-6);
    }
}
