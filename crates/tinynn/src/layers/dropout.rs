//! Inverted dropout.
//!
//! Table 5 uses dropout rates of 0.2 and 0.3 in the actor/critic stacks.
//! Inverted scaling (`1 / (1 - p)` at train time) keeps evaluation a no-op.

use super::{Grads, Layer};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dropout layer with drop probability `p`. The mask matrix is owned and
/// resized in place, so regenerating it each step allocates nothing.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Matrix,
    active: bool,
}

impl Dropout {
    /// Creates a dropout layer. `seed` makes training deterministic.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1), got {p}");
        Self { p, rng: StdRng::seed_from_u64(seed), mask: Matrix::default(), active: false }
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, train: bool) {
        if !train || self.p == 0.0 {
            self.active = false;
            out.copy_from(input);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.resize(input.rows(), input.cols());
        for m in self.mask.as_mut_slice() {
            *m = if self.rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
        input.zip_map_into(&self.mask, out, |x, m| x * m);
        self.active = true;
    }

    fn backward_into(
        &mut self,
        _input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Grads,
    ) {
        if !grads.input() {
            return; // no parameters
        }
        if self.active {
            grad_out.zip_map_into(&self.mask, grad_in, |g, m| g * m);
        } else {
            grad_in.copy_from(grad_out);
        }
    }

    fn prewarm(&mut self, rows: usize, in_width: usize, train: bool) {
        if train {
            self.mask.resize(rows, in_width);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn rng_word(&self) -> Option<u64> {
        Some(self.rng.state())
    }

    fn set_rng_word(&mut self, word: u64) {
        self.rng = StdRng::from_state(word);
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::{bwd, fwd};

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 42);
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fwd(&mut d, &x, false), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 42);
        let x = Matrix::filled(200, 50, 1.0);
        let y = fwd(&mut d, &x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean} drifted from 1.0");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Matrix::filled(4, 4, 1.0);
        let y = fwd(&mut d, &x, true);
        let g = Matrix::filled(4, 4, 1.0);
        let dx = bwd(&mut d, &x, &y, &g);
        // Where forward zeroed, backward must zero too.
        for (yo, go) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut d = Dropout::new(0.0, 1);
        let x = Matrix::filled(8, 8, 3.0);
        assert_eq!(fwd(&mut d, &x, true), x);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn eval_after_train_ignores_stale_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::filled(4, 4, 2.0);
        let _ = fwd(&mut d, &x, true);
        // The next eval forward must not reuse the training mask.
        assert_eq!(fwd(&mut d, &x, false), x);
        let g = Matrix::filled(4, 4, 1.0);
        let dx = bwd(&mut d, &x, &x, &g);
        assert_eq!(dx, g);
    }
}
