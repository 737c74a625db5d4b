//! Data-poisoning attacks against FL indoor localization (paper §III.A).
//!
//! Five attacks are implemented, matching the paper's threat model:
//!
//! | Attack | Type | Mechanism |
//! |---|---|---|
//! | [`Attack::CleanLabelBackdoor`] | backdoor | sparse gradient-masked perturbation, labels untouched (Eq. 1) |
//! | [`Attack::Fgsm`] | backdoor | one-step sign-gradient perturbation (Eq. 2) |
//! | [`Attack::Pgd`] | backdoor | iterative normalized-gradient ascent, projected into the ε-ball (Eq. 3) |
//! | [`Attack::Mim`] | backdoor | momentum-accumulated iterative ascent (Eq. 4) |
//! | [`Attack::LabelFlip`] | label flipping | RSS untouched, a fraction ε of labels flipped (Eq. 5) |
//!
//! Backdoor attacks need the gradient of the global model's loss with
//! respect to the *input*; any model exposing [`GradientSource`] can be
//! attacked (both the baselines' `Sequential` DNNs and SAFELOC's fused
//! network implement it).
//!
//! ε is the perturbation magnitude in normalized RSS units for the
//! gradient attacks and the fraction of poisoned samples for label
//! flipping, so one ε axis (Fig. 5) sweeps both families.
//!
//! # Example
//!
//! ```
//! use safeloc_attacks::Attack;
//! use safeloc_nn::{Activation, Matrix, Sequential};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = Sequential::mlp(&[4, 8, 3], Activation::Relu, 0);
//! let x = Matrix::from_rows(&[vec![0.2, 0.4, 0.6, 0.8]]);
//! let labels = vec![1usize];
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let attack = Attack::fgsm(0.1);
//! let (px, plabels) = attack.poison(&x, &labels, &model, 3, &mut rng);
//! assert_eq!(plabels, labels); // FGSM is a backdoor: labels stay clean
//! assert!(px.sub(&x).max_abs() <= 0.1 + 1e-6);
//! ```

pub mod attack;
pub mod gradient;
pub mod injector;
pub mod sweep;

pub use attack::{select_top_k_by_magnitude, Attack, AttackKind, ALL_ATTACK_KINDS, BACKDOOR_KINDS};
pub use gradient::GradientSource;
pub use injector::PoisonInjector;
pub use sweep::{paper_epsilon_grid, paper_tau_grid};
