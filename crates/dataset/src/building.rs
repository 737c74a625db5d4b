//! Building floorplans: reference points on a walking path plus access
//! points scattered over the floor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A reference point (RP): a labelled position on the floorplan at which
/// fingerprints are collected. The paper uses 1 m granularity between RPs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReferencePoint {
    /// X coordinate in meters.
    pub x: f32,
    /// Y coordinate in meters.
    pub y: f32,
}

impl ReferencePoint {
    /// Euclidean distance to another RP, in meters — the unit every
    /// localization-error figure in the paper reports.
    pub fn distance(&self, other: &ReferencePoint) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A Wi-Fi access point with a position and transmit power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessPoint {
    /// X coordinate in meters.
    pub x: f32,
    /// Y coordinate in meters.
    pub y: f32,
    /// Z offset in meters (APs are usually ceiling-mounted).
    pub z: f32,
    /// Received power at the 1 m reference distance, in dBm.
    pub tx_dbm: f32,
}

/// A building floorplan: RPs along a serpentine walking path at 1 m
/// granularity, and APs placed uniformly over the floor.
///
/// [`Building::paper`] reproduces the five buildings of the paper's §V.A
/// with the exact RP/AP counts; geometry is synthetic, because the paper's
/// floorplans and fingerprints are not public (see the crate docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Building {
    /// Identifier (1-based for the paper buildings).
    pub id: usize,
    /// Human-readable name.
    pub name: String,
    /// Floor width in meters.
    pub width: f32,
    /// Floor height in meters.
    pub height: f32,
    rps: Vec<ReferencePoint>,
    aps: Vec<AccessPoint>,
}

impl Building {
    /// Generates a building with `n_rps` reference points on a serpentine
    /// path (1 m spacing) and `n_aps` access points placed uniformly.
    ///
    /// The same `(id, n_rps, n_aps, seed)` always produces the same
    /// building.
    ///
    /// # Panics
    ///
    /// Panics if `n_rps == 0` or `n_aps == 0`.
    pub fn generate(id: usize, name: &str, n_rps: usize, n_aps: usize, seed: u64) -> Self {
        assert!(n_rps > 0, "a building needs at least one RP");
        assert!(n_aps > 0, "a building needs at least one AP");
        // Serpentine path over a roughly square grid with 1 m pitch and
        // 2 m corridor spacing between passes.
        let per_row = (n_rps as f32).sqrt().ceil() as usize;
        let rows = n_rps.div_ceil(per_row);
        let width = per_row as f32 + 2.0;
        let height = rows as f32 * 2.0 + 2.0;

        let mut rps = Vec::with_capacity(n_rps);
        'outer: for row in 0..rows {
            for col in 0..per_row {
                if rps.len() == n_rps {
                    break 'outer;
                }
                let x = if row % 2 == 0 {
                    col as f32 + 1.0
                } else {
                    (per_row - 1 - col) as f32 + 1.0
                };
                let y = row as f32 * 2.0 + 1.0;
                rps.push(ReferencePoint { x, y });
            }
        }

        let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let aps = (0..n_aps)
            .map(|_| AccessPoint {
                x: rng.gen_range(0.0..width),
                y: rng.gen_range(0.0..height),
                z: rng.gen_range(2.0..3.0),
                // Typical measured power at 1 m from consumer APs seen
                // through at least one wall; weak enough that distant APs
                // drop below device sensitivity, giving realistically
                // sparse fingerprints.
                tx_dbm: rng.gen_range(-55.0..-42.0),
            })
            .collect();

        Self {
            id,
            name: name.to_string(),
            width,
            height,
            rps,
            aps,
        }
    }

    /// One of the paper's five buildings (`1..=5`), with the published
    /// RP/AP counts:
    ///
    /// | Building | RPs | visible APs |
    /// |---|---|---|
    /// | 1 | 60 | 203 |
    /// | 2 | 48 | 201 |
    /// | 3 | 70 | 187 |
    /// | 4 | 80 | 135 |
    /// | 5 | 90 | 78 |
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=5`.
    pub fn paper(id: usize) -> Self {
        let (n_rps, n_aps) = match id {
            1 => (60, 203),
            2 => (48, 201),
            3 => (70, 187),
            4 => (80, 135),
            5 => (90, 78),
            _ => panic!("paper buildings are numbered 1..=5, got {id}"),
        };
        Self::generate(
            id,
            &format!("Building {id}"),
            n_rps,
            n_aps,
            0xB17D + id as u64,
        )
    }

    /// All five paper buildings.
    pub fn paper_all() -> Vec<Self> {
        (1..=5).map(Self::paper).collect()
    }

    /// A small building (8 RPs, 12 APs) for fast tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self::generate(0, "Tiny", 8, 12, seed)
    }

    /// Number of reference points (= number of classification labels).
    pub fn num_rps(&self) -> usize {
        self.rps.len()
    }

    /// Number of access points (= model input dimensionality).
    pub fn num_aps(&self) -> usize {
        self.aps.len()
    }

    /// The reference points in label order.
    pub fn rps(&self) -> &[ReferencePoint] {
        &self.rps
    }

    /// The access points in feature order.
    pub fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }

    /// Coordinate of RP `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= num_rps()`.
    pub fn rp_coord(&self, label: usize) -> ReferencePoint {
        self.rps[label]
    }

    /// Localization error in meters between a predicted and a true label.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn label_error_m(&self, predicted: usize, truth: usize) -> f32 {
        self.rps[predicted].distance(&self.rps[truth])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_buildings_match_published_counts() {
        let expected = [(60, 203), (48, 201), (70, 187), (80, 135), (90, 78)];
        for (i, (rps, aps)) in expected.iter().enumerate() {
            let b = Building::paper(i + 1);
            assert_eq!(b.num_rps(), *rps, "building {}", i + 1);
            assert_eq!(b.num_aps(), *aps, "building {}", i + 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Building::paper(1), Building::paper(1));
        assert_eq!(Building::tiny(3), Building::tiny(3));
        assert_ne!(Building::tiny(3), Building::tiny(4));
    }

    #[test]
    fn rps_have_one_meter_pitch_along_path() {
        let b = Building::paper(1);
        let rps = b.rps();
        // Consecutive RPs on the same row are exactly 1 m apart; row changes
        // are 2 m. Every step is between 1 and 2.24 m (diagonal at turn).
        for w in rps.windows(2) {
            let d = w[0].distance(&w[1]);
            assert!((0.99..=2.4).contains(&d), "step {d}");
        }
    }

    #[test]
    fn rps_are_unique_positions() {
        let b = Building::paper(5);
        let rps = b.rps();
        for i in 0..rps.len() {
            for j in (i + 1)..rps.len() {
                assert!(rps[i].distance(&rps[j]) > 0.5, "RPs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn aps_are_inside_floor() {
        for b in Building::paper_all() {
            for ap in b.aps() {
                assert!((0.0..=b.width).contains(&ap.x));
                assert!((0.0..=b.height).contains(&ap.y));
            }
        }
    }

    #[test]
    fn label_error_is_zero_for_correct_prediction() {
        let b = Building::tiny(0);
        assert_eq!(b.label_error_m(3, 3), 0.0);
        assert!(b.label_error_m(0, 7) > 0.0);
    }

    #[test]
    fn correct_predictions_have_zero_error() {
        let b = Building::tiny(0);
        for label in 0..b.num_rps() {
            assert_eq!(b.label_error_m(label, label), 0.0, "rp {label}");
        }
    }

    #[test]
    fn label_error_is_symmetric() {
        let b = Building::paper(2);
        assert_eq!(b.label_error_m(0, 10), b.label_error_m(10, 0));
    }

    #[test]
    fn neighbouring_rp_costs_about_one_meter() {
        // RPs 0 and 1 are adjacent on the 1 m path.
        let error = Building::paper(1).label_error_m(1, 0);
        assert!((error - 1.0).abs() < 0.01, "got {error}");
    }

    #[test]
    fn distant_rp_costs_more() {
        let b = Building::paper(1);
        assert!(b.label_error_m(59, 0) > b.label_error_m(1, 0) * 3.0);
    }

    #[test]
    #[should_panic(expected = "numbered 1..=5")]
    fn paper_rejects_bad_id() {
        let _ = Building::paper(9);
    }
}
