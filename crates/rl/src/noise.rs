//! Exploration noise for deterministic policies.
//!
//! DDPG explores by perturbing the actor's output. CDBTune's
//! try-and-error exploration (§3.1) maps to independent Gaussian noise
//! with a decay schedule.

use rand_distr::{Distribution, Normal};

/// A noise process over action vectors.
pub trait NoiseProcess {
    /// Samples a noise vector of the action dimensionality.
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> Vec<f32>;

    /// Resets internal state (start of an episode).
    fn reset(&mut self);

    /// Decays the noise scale (end of an episode / step schedule).
    fn decay(&mut self);

    /// Current scale (diagnostic).
    fn scale(&self) -> f32;
}

/// Independent Gaussian noise with exponential decay.
pub struct GaussianNoise {
    dim: usize,
    sigma: f32,
    sigma_min: f32,
    decay_factor: f32,
}

impl GaussianNoise {
    /// Creates Gaussian noise of initial scale `sigma` decaying by
    /// `decay_factor` per [`NoiseProcess::decay`] call down to `sigma_min`.
    pub fn new(dim: usize, sigma: f32, sigma_min: f32, decay_factor: f32) -> Self {
        Self { dim, sigma, sigma_min, decay_factor }
    }
}

impl NoiseProcess for GaussianNoise {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> Vec<f32> {
        // lint:allow(panic) reason=max(1e-9) keeps sigma finite and positive even for NaN input
        let normal = Normal::new(0.0f32, self.sigma.max(1e-9)).expect("valid sigma");
        (0..self.dim).map(|_| normal.sample(rng)).collect()
    }

    fn reset(&mut self) {}

    fn decay(&mut self) {
        self.sigma = (self.sigma * self.decay_factor).max(self.sigma_min);
    }

    fn scale(&self) -> f32 {
        self.sigma
    }
}

/// Applies noise to an action and clamps into the `[0, 1]` box.
pub fn perturb(action: &[f32], noise: &[f32]) -> Vec<f32> {
    action
        .iter()
        .zip(noise)
        .map(|(a, n)| (a + n).clamp(0.0, 1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_decays_to_floor() {
        let mut g = GaussianNoise::new(4, 1.0, 0.01, 0.5);
        for _ in 0..20 {
            g.decay();
        }
        assert!((g.scale() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn perturb_clamps_to_unit_box() {
        let a = vec![0.05, 0.95, 0.5];
        let n = vec![-0.2, 0.2, 0.1];
        let p = perturb(&a, &n);
        assert_eq!(p[0], 0.0);
        assert_eq!(p[1], 1.0);
        assert!((p[2] - 0.6).abs() < 1e-6);
    }
}
