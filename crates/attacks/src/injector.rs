//! Client-side poison injection: applies an [`Attack`] to a fingerprint set,
//! the way a compromised device poisons its local training data.

use crate::attack::Attack;
use crate::gradient::GradientSource;
use rand::rngs::StdRng;
use rand::SeedableRng;
use safeloc_dataset::FingerprintSet;
use serde::{Deserialize, Serialize};

/// A reusable, seeded poisoner bound to one attack configuration.
///
/// The FL layer hands each malicious client an injector; clean clients have
/// none. Every call advances a per-injector RNG stream derived from the
/// seed, so a simulation is reproducible regardless of client ordering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoisonInjector {
    attack: Attack,
    seed: u64,
    invocation: u64,
    #[serde(default = "default_boost")]
    boost: f32,
}

fn default_boost() -> f32 {
    1.0
}

impl PoisonInjector {
    /// Creates an injector for `attack` with a deterministic seed.
    pub fn new(attack: Attack, seed: u64) -> Self {
        Self {
            attack,
            seed,
            invocation: 0,
            boost: 1.0,
        }
    }

    /// Sets the attacker's update-boost factor.
    ///
    /// A malicious client is not bound by the honest training protocol: to
    /// dominate sample-weighted averaging it scales its model delta by
    /// `boost` before upload (`LM' = GM + boost · (LM − GM)`), the
    /// *model-replacement* technique of Bagdasaryan et al. With
    /// `boost = n_clients` one compromised phone steers a plain FedAvg
    /// aggregate completely — this compresses the paper's long-running
    /// poisoning deployment into a handful of rounds.
    pub fn with_boost(mut self, boost: f32) -> Self {
        self.boost = boost;
        self
    }

    /// The attacker's update-boost factor (1.0 = honest magnitude).
    pub fn boost(&self) -> f32 {
        self.boost
    }

    /// The configured attack.
    pub fn attack(&self) -> &Attack {
        &self.attack
    }

    /// Poisons `set` using gradients from `model`, returning the poisoned
    /// copy. `n_classes` is the number of reference points.
    ///
    /// # Panics
    ///
    /// Panics on label/row mismatch inside `set` (impossible for sets built
    /// through [`FingerprintSet::new`]).
    pub fn poison_set(
        &mut self,
        set: &FingerprintSet,
        model: &dyn GradientSource,
        n_classes: usize,
    ) -> FingerprintSet {
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.invocation.wrapping_mul(0x9E37_79B9));
        self.invocation += 1;
        let (x, labels) = self
            .attack
            .poison(&set.x, &set.labels, model, n_classes, &mut rng);
        FingerprintSet::new(x, labels)
    }

    /// Applies the attack's *label* component only: a label-flipping
    /// attacker flips a fraction of `labels`; backdoor attacks leave labels
    /// untouched (their damage is done to the RSS earlier in the pipeline).
    pub fn poison_labels(&mut self, labels: &[usize], n_classes: usize) -> Vec<usize> {
        if self.attack.kind().is_backdoor() {
            return labels.to_vec();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.invocation.wrapping_mul(0x9E37_79B9));
        self.invocation += 1;
        let dummy = safeloc_nn::Matrix::zeros(labels.len(), 1);
        let (_, flipped) = self
            .attack
            .poison(&dummy, labels, &NoGradient, n_classes, &mut rng);
        flipped
    }
}

/// Gradient source for label-only poisoning, where no model is involved.
struct NoGradient;

impl GradientSource for NoGradient {
    fn loss_input_gradient(&self, x: &safeloc_nn::Matrix, _labels: &[usize]) -> safeloc_nn::Matrix {
        safeloc_nn::Matrix::zeros(x.rows(), x.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_nn::{Activation, Matrix, Sequential};

    fn set() -> FingerprintSet {
        FingerprintSet::new(
            Matrix::from_rows(&[vec![0.5, 0.5, 0.5], vec![0.2, 0.8, 0.4]]),
            vec![0, 1],
        )
    }

    fn model() -> Sequential {
        Sequential::mlp(&[3, 6, 2], Activation::Relu, 0)
    }

    #[test]
    fn backdoor_injection_preserves_labels() {
        let mut inj = PoisonInjector::new(Attack::fgsm(0.1), 7);
        let poisoned = inj.poison_set(&set(), &model(), 2);
        assert_eq!(poisoned.labels, set().labels);
        assert_ne!(poisoned.x, set().x);
    }

    #[test]
    fn label_flip_injection_preserves_rss() {
        let mut inj = PoisonInjector::new(Attack::label_flip(1.0), 7);
        let poisoned = inj.poison_set(&set(), &model(), 2);
        assert_eq!(poisoned.x, set().x);
        assert_ne!(poisoned.labels, set().labels);
    }

    #[test]
    fn invocations_use_fresh_randomness_but_stay_deterministic() {
        let mut a = PoisonInjector::new(Attack::label_flip(0.5), 3);
        let mut b = PoisonInjector::new(Attack::label_flip(0.5), 3);
        let s = FingerprintSet::new(Matrix::zeros(20, 3), (0..20).map(|i| i % 5).collect());
        let m = model3();
        let a1 = a.poison_set(&s, &m, 5);
        let a2 = a.poison_set(&s, &m, 5);
        let b1 = b.poison_set(&s, &m, 5);
        assert_eq!(a1, b1, "same seed, same first invocation");
        assert_ne!(a1, a2, "second invocation should differ");
    }

    fn model3() -> Sequential {
        Sequential::mlp(&[3, 4, 5], Activation::Relu, 0)
    }
}
