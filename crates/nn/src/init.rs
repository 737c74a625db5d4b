//! Weight initialization schemes.

use crate::tensor::Matrix;
use rand::Rng;

/// Weight initialization scheme for dense layers.
///
/// The SAFELOC models use ReLU activations throughout, so [`Init::HeUniform`]
/// is the default for weights; [`Init::Uniform`] draws fixed-scale random
/// projections.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Init {
    /// He/Kaiming uniform: `U(-sqrt(6/fan_in), sqrt(6/fan_in))`.
    #[default]
    HeUniform,
    /// Uniform in `[-a, a]`.
    Uniform(f32),
}

impl Init {
    /// Materializes a `rows x cols` matrix under this scheme.
    ///
    /// For the purposes of fan computation, `rows` is treated as `fan_in` and
    /// `cols` as `fan_out`, matching the `(in_dim, out_dim)` weight layout of
    /// [`crate::Dense`].
    pub fn matrix(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let bound = match self {
            Init::HeUniform => (6.0 / rows.max(1) as f32).sqrt(),
            Init::Uniform(a) => a.abs(),
        };
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let fan_in = 24;
        let bound = (6.0 / fan_in as f32).sqrt();
        let m = Init::HeUniform.matrix(fan_in, 16, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
        // Not degenerate: values actually spread out.
        assert!(m.max_abs() > bound * 0.5);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Init::HeUniform.matrix(5, 5, &mut StdRng::seed_from_u64(42));
        let b = Init::HeUniform.matrix(5, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_uses_abs_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Init::Uniform(-0.5).matrix(4, 4, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }
}
