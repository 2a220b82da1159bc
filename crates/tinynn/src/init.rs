//! Weight initializers.
//!
//! The paper (Appendix A, Table 4) initializes network weights from
//! `Uniform(-0.1, 0.1)` and the remaining learnable parameters from
//! `Normal(0, 0.01)`; both are provided here alongside the standard
//! Xavier/He schemes used by the ablation experiments.

use crate::matrix::Matrix;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Weight initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// `Uniform(-a, a)` — the paper uses `a = 0.1` for network weights.
    Uniform(f32),
    /// `Normal(0, sigma)` — the paper uses `sigma = 0.01` for learnable
    /// parameters such as batch-norm scales.
    Normal(f32),
    /// Xavier/Glorot uniform: `Uniform(-sqrt(6/(fan_in+fan_out)), ·)`.
    XavierUniform,
    /// He/Kaiming normal: `Normal(0, sqrt(2/fan_in))`, suited to ReLU.
    HeNormal,
    /// All zeros (biases).
    Zeros,
}

impl Init {
    /// Samples a `rows x cols` matrix. `rows` is treated as fan-in and
    /// `cols` as fan-out for the shape-aware schemes.
    pub fn sample(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let n = rows * cols;
        let data = match self {
            Init::Uniform(a) => (0..n).map(|_| rng.gen_range(-a..=a)).collect(),
            Init::Normal(sigma) => {
                // lint:allow(panic) reason=sigma is a finite compile-time scheme constant
                let dist = Normal::new(0.0, f64::from(sigma)).expect("valid sigma");
                (0..n).map(|_| dist.sample(rng) as f32).collect()
            }
            Init::XavierUniform => {
                let a = (6.0 / (rows + cols) as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..=a)).collect()
            }
            Init::HeNormal => {
                let sigma = (2.0 / rows.max(1) as f32).sqrt();
                // lint:allow(panic) reason=sigma derived from max(1) fan-in is finite and positive
                let dist = Normal::new(0.0, f64::from(sigma)).expect("valid sigma");
                (0..n).map(|_| dist.sample(rng) as f32).collect()
            }
            Init::Zeros => vec![0.0; n],
        };
        Matrix::from_vec(rows, cols, data)
    }
}

/// The paper's default weight initializer: `Uniform(-0.1, 0.1)` (Table 4).
pub const PAPER_WEIGHT_INIT: Init = Init::Uniform(0.1);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::Uniform(0.1).sample(50, 50, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-0.1..=0.1).contains(&x)));
    }

    #[test]
    fn normal_has_small_mean_and_expected_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::Normal(0.01).sample(100, 100, &mut rng);
        let mean = m.mean();
        assert!(mean.abs() < 1e-3, "mean {mean} too far from 0");
        let var =
            m.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / (100.0 * 100.0);
        assert!((var.sqrt() - 0.01).abs() < 2e-3);
    }

    #[test]
    fn zeros_is_all_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::Zeros.sample(3, 4, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn xavier_bound_shrinks_with_fanin() {
        let mut rng = StdRng::seed_from_u64(7);
        let wide = Init::XavierUniform.sample(1000, 1000, &mut rng);
        let bound = (6.0f32 / 2000.0).sqrt();
        assert!(wide.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
    }
}
