//! Device heterogeneity profiles.
//!
//! Different phones report systematically different RSS for the same radio
//! environment: antenna gain, AGC curves, chipset sensitivity and driver
//! quantization all differ. The paper's six phones are modelled as affine
//! dB-domain transforms plus a sensitivity floor and measurement noise —
//! the standard heterogeneity model in the Wi-Fi fingerprinting literature.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How one device model distorts ground-truth RSS.
///
/// A measured value is `scale * rss + offset_db + N(0, noise_db)`, reported
/// only if above `sensitivity_dbm` (otherwise the AP is "not heard" and the
/// fingerprint records the −100 dBm floor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Device model name.
    pub name: String,
    /// Additive dB offset (antenna gain / calibration bias).
    pub offset_db: f32,
    /// Multiplicative distortion of the dB value (AGC curvature).
    pub scale: f32,
    /// Weakest RSS the chipset reports; below this the AP is missed.
    pub sensitivity_dbm: f32,
    /// Standard deviation of per-measurement Gaussian noise, in dB.
    pub noise_db: f32,
    /// Standard deviation of the *per-AP* gain deviation, in dB: each
    /// (device, AP) pair has a fixed gain error (antenna pattern, channel
    /// response), which is what makes cross-device generalization genuinely
    /// hard — a global offset alone is easy for a DNN to absorb.
    pub ap_gain_db: f32,
    /// Seed of the device's per-AP gain pattern.
    pub gain_seed: u64,
}

impl DeviceProfile {
    /// The six phones used in the paper's data collection.
    ///
    /// `Motorola Z2` (index 2) is the training device; `HTC U11` (index 5)
    /// is the device the paper compromises in the attack experiments.
    pub fn paper_fleet() -> Vec<DeviceProfile> {
        vec![
            DeviceProfile {
                name: "Samsung Galaxy S7".into(),
                offset_db: 3.5,
                scale: 1.04,
                sensitivity_dbm: -93.0,
                noise_db: 1.8,
                ap_gain_db: 3.0,
                gain_seed: 0xF1EE7001,
            },
            DeviceProfile {
                name: "OnePlus 3".into(),
                offset_db: -4.0,
                scale: 0.97,
                sensitivity_dbm: -92.5,
                noise_db: 2.2,
                ap_gain_db: 4.0,
                gain_seed: 0xF1EE7002,
            },
            DeviceProfile {
                name: "Motorola Z2".into(),
                offset_db: 0.0,
                scale: 1.0,
                sensitivity_dbm: -94.0,
                noise_db: 1.5,
                ap_gain_db: 1.0,
                gain_seed: 0xF1EE7003,
            },
            DeviceProfile {
                name: "LG V20".into(),
                offset_db: 2.0,
                scale: 0.93,
                sensitivity_dbm: -92.0,
                noise_db: 2.5,
                ap_gain_db: 3.5,
                gain_seed: 0xF1EE7004,
            },
            DeviceProfile {
                name: "BLU Vivo 8".into(),
                offset_db: -5.0,
                scale: 1.06,
                sensitivity_dbm: -91.5,
                noise_db: 3.0,
                ap_gain_db: 3.5,
                gain_seed: 0xF1EE7005,
            },
            DeviceProfile {
                name: "HTC U11".into(),
                offset_db: 1.5,
                scale: 1.02,
                sensitivity_dbm: -93.0,
                noise_db: 2.0,
                ap_gain_db: 3.0,
                gain_seed: 0xF1EE7006,
            },
        ]
    }

    /// Index of the training device (Motorola Z2) within
    /// [`DeviceProfile::paper_fleet`].
    pub const TRAIN_DEVICE: usize = 2;

    /// Index of the attacker device (HTC U11) within
    /// [`DeviceProfile::paper_fleet`].
    pub const ATTACKER_DEVICE: usize = 5;

    /// A synthetic phone for scalability experiments beyond the six real
    /// devices (Fig. 7 grows the fleet to 24 clients).
    ///
    /// Deterministic per `(index, seed)`.
    pub fn synthetic(index: usize, seed: u64) -> DeviceProfile {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        DeviceProfile {
            name: format!("Synthetic Phone {index}"),
            offset_db: rng.gen_range(-6.0..6.0),
            scale: rng.gen_range(0.92..1.08),
            sensitivity_dbm: rng.gen_range(-94.0..-91.0),
            noise_db: rng.gen_range(1.2..3.2),
            ap_gain_db: rng.gen_range(2.0..4.0),
            gain_seed: seed ^ (index as u64).wrapping_mul(0xA5A5_5A5A_1234_5678),
        }
    }

    /// Builds a fleet of `n` devices: the six paper phones first, topped up
    /// with synthetic ones.
    pub fn fleet(n: usize, seed: u64) -> Vec<DeviceProfile> {
        let mut fleet = Self::paper_fleet();
        fleet.truncate(n);
        for i in fleet.len()..n {
            fleet.push(Self::synthetic(i, seed));
        }
        fleet
    }

    /// Fixed per-AP gain deviation of this device, in dB (deterministic
    /// for a given `(gain_seed, ap)` pair).
    pub fn ap_gain(&self, ap: usize) -> f32 {
        if self.ap_gain_db == 0.0 {
            return 0.0;
        }
        // SplitMix64 hash of (gain_seed, ap) -> approximately N(0, 1) via
        // the sum of four uniforms, scaled to ap_gain_db.
        let mut z = self
            .gain_seed
            .wrapping_add((ap as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut acc = 0.0f32;
        for _ in 0..4 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            acc += (x >> 40) as f32 / (1u64 << 24) as f32; // uniform [0,1)
        }
        // Sum of 4 uniforms: mean 2, std sqrt(4/12) = 0.577.
        (acc - 2.0) / 0.577 * self.ap_gain_db
    }

    /// Applies the device transform to a ground-truth dB value from AP
    /// `ap` (no measurement noise).
    pub fn distort_db(&self, rss_dbm: f32, ap: usize) -> f32 {
        self.scale * rss_dbm + self.offset_db + self.ap_gain(ap)
    }

    /// Applies the device transform plus Gaussian measurement noise,
    /// returning the reported dBm (floored at −100 when below sensitivity).
    pub fn measure_dbm(&self, rss_dbm: f32, ap: usize, rng: &mut impl Rng) -> f32 {
        use crate::normalize::RSS_FLOOR_DBM;
        use rand_distr::{Distribution, Normal};
        let noisy = self.distort_db(rss_dbm, ap)
            + if self.noise_db > 0.0 {
                Normal::new(0.0, self.noise_db)
                    .expect("noise_db is finite and non-negative")
                    .sample(rng)
            } else {
                0.0
            };
        if noisy < self.sensitivity_dbm {
            RSS_FLOOR_DBM
        } else {
            // Chipsets report integer dBm.
            noisy.round().clamp(RSS_FLOOR_DBM, 0.0)
        }
    }
}

/// A lookup table from reported device-model names to their
/// [`DeviceProfile`]s — the serving front's HetNN mapping.
///
/// Phones report a free-form model string; the catalog resolves it to a
/// known device class (case-insensitively) so the server can route the
/// request to that class's model variant. Unknown devices resolve to
/// `None`, and the caller falls back to the building's default model —
/// serving must degrade gracefully for phones the survey never saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceCatalog {
    profiles: Vec<DeviceProfile>,
}

impl DeviceCatalog {
    /// A catalog over an explicit fleet.
    pub fn new(profiles: Vec<DeviceProfile>) -> Self {
        Self { profiles }
    }

    /// The catalog of the paper's six phones.
    pub fn paper() -> Self {
        Self::new(DeviceProfile::paper_fleet())
    }

    /// Resolves a reported model name to its class index
    /// (case-insensitive, surrounding whitespace ignored).
    pub fn class_of(&self, name: &str) -> Option<usize> {
        let wanted = name.trim();
        self.profiles
            .iter()
            .position(|p| p.name.eq_ignore_ascii_case(wanted))
    }

    /// Resolves a reported model name to its profile.
    pub fn resolve(&self, name: &str) -> Option<&DeviceProfile> {
        self.class_of(name).map(|i| &self.profiles[i])
    }

    /// The canonical class name for a reported model name (the catalog's
    /// spelling, not the phone's), or `None` for unknown devices.
    pub fn canonical_name(&self, name: &str) -> Option<&str> {
        self.resolve(name).map(|p| p.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fleet_has_six_paper_phones() {
        let fleet = DeviceProfile::paper_fleet();
        assert_eq!(fleet.len(), 6);
        assert_eq!(fleet[DeviceProfile::TRAIN_DEVICE].name, "Motorola Z2");
        assert_eq!(fleet[DeviceProfile::ATTACKER_DEVICE].name, "HTC U11");
    }

    #[test]
    fn train_device_is_identity_transform() {
        let z2 = &DeviceProfile::paper_fleet()[DeviceProfile::TRAIN_DEVICE];
        assert!((z2.distort_db(-60.0, 0) - -60.0).abs() <= z2.ap_gain_db * 4.0);
    }

    #[test]
    fn devices_actually_differ() {
        let fleet = DeviceProfile::paper_fleet();
        let base = -60.0;
        let readings: Vec<f32> = fleet.iter().map(|d| d.distort_db(base, 0)).collect();
        let min = readings.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = readings.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(max - min > 5.0, "heterogeneity too small: {readings:?}");
    }

    #[test]
    fn weak_signals_hit_sensitivity_floor() {
        let d = &DeviceProfile::paper_fleet()[4]; // BLU Vivo 8, -87 dBm floor
        let mut rng = StdRng::seed_from_u64(1);
        let measured = d.measure_dbm(-99.0, 0, &mut rng);
        assert_eq!(measured, crate::normalize::RSS_FLOOR_DBM);
    }

    #[test]
    fn measurement_noise_is_bounded_and_nonzero() {
        let d = &DeviceProfile::paper_fleet()[0];
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f32> = (0..200)
            .map(|_| d.measure_dbm(-50.0, 0, &mut rng))
            .collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let expect = d.distort_db(-50.0, 0);
        assert!(
            (mean - expect).abs() < 1.0,
            "mean {mean} vs expected {expect}"
        );
        let spread = samples
            .iter()
            .map(|s| (s - mean).abs())
            .fold(0.0f32, f32::max);
        assert!(spread > 0.5, "no noise observed");
        assert!(spread < 15.0, "noise implausibly large");
    }

    #[test]
    fn synthetic_devices_are_deterministic_and_distinct() {
        let a = DeviceProfile::synthetic(7, 42);
        let b = DeviceProfile::synthetic(7, 42);
        let c = DeviceProfile::synthetic(8, 42);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn catalog_resolves_names_case_insensitively() {
        let catalog = DeviceCatalog::paper();
        assert_eq!(catalog.class_of("Motorola Z2"), Some(2));
        assert_eq!(catalog.class_of("  htc u11 "), Some(5));
        assert_eq!(catalog.canonical_name("HTC U11"), Some("HTC U11"));
        assert_eq!(catalog.class_of("Pixel 9"), None);
        assert!(catalog.resolve("Pixel 9").is_none());
        assert_eq!(catalog.profiles.len(), 6);
    }

    #[test]
    fn fleet_tops_up_with_synthetics() {
        let fleet = DeviceProfile::fleet(10, 0);
        assert_eq!(fleet.len(), 10);
        assert_eq!(fleet[2].name, "Motorola Z2");
        assert!(fleet[9].name.starts_with("Synthetic"));
        let small = DeviceProfile::fleet(3, 0);
        assert_eq!(small.len(), 3);
    }
}
