//! 1-D batch normalization over features.
//!
//! Table 5 places a `BatchNorm` after the second dense layer of the actor
//! network. Training mode normalizes with batch statistics and maintains
//! exponential running estimates; evaluation mode uses the running estimates,
//! which matters because online tuning (Section 2.1.2) runs the actor on
//! single states (batch size 1) where batch statistics are degenerate.

use super::{Grads, Layer, Param};
use crate::matrix::Matrix;

/// Batch normalization over the feature (column) dimension.
///
/// The per-step tensors (`x_hat`, batch statistics, backward means) live in
/// owned scratch matrices that are resized in place, so steady-state
/// training touches no allocator.
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Matrix,
    running_var: Matrix,
    momentum: f32,
    eps: f32,
    // Reusable forward/backward scratch (not part of persisted state).
    mean: Matrix,
    var: Matrix,
    x_hat: Matrix,
    batch_std: Matrix,
    gxh: Matrix,
    mean_dy: Matrix,
    mean_dy_xhat: Matrix,
    /// Per-column `gamma / std` of the backward pass.
    gain: Matrix,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `dim` features with momentum 0.9.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::filled(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            running_mean: Matrix::zeros(1, dim),
            running_var: Matrix::filled(1, dim, 1.0),
            momentum: 0.9,
            eps: 1e-5,
            mean: Matrix::default(),
            var: Matrix::default(),
            x_hat: Matrix::default(),
            batch_std: Matrix::default(),
            gxh: Matrix::default(),
            mean_dy: Matrix::default(),
            mean_dy_xhat: Matrix::default(),
            gain: Matrix::default(),
        }
    }

    fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

impl Layer for BatchNorm {
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, train: bool) {
        debug_assert_eq!(input.cols(), self.dim(), "batchnorm width mismatch");
        let n = input.rows() as f32;
        if train && input.rows() > 1 {
            input.col_mean_into(&mut self.mean);
            self.var.resize(1, self.dim());
            self.var.fill(0.0);
            for r in 0..input.rows() {
                for (v, (&x, &m)) in self
                    .var
                    .row_mut(0)
                    .iter_mut()
                    .zip(input.row(r).iter().zip(self.mean.row(0)))
                {
                    *v += (x - m) * (x - m);
                }
            }
            self.var.scale(1.0 / n);
            // Update running statistics.
            for (r, &b) in self.running_mean.as_mut_slice().iter_mut().zip(self.mean.as_slice())
            {
                *r = self.momentum * *r + (1.0 - self.momentum) * b;
            }
            for (r, &b) in self.running_var.as_mut_slice().iter_mut().zip(self.var.as_slice()) {
                *r = self.momentum * *r + (1.0 - self.momentum) * b;
            }
        } else {
            self.mean.copy_from(&self.running_mean);
            self.var.copy_from(&self.running_var);
        }

        self.batch_std.copy_from(&self.var);
        let eps = self.eps;
        self.batch_std.map_inplace(|v| (v + eps).sqrt());

        self.x_hat.copy_from(input);
        for r in 0..self.x_hat.rows() {
            let (mean_row, std_row) = (self.mean.row(0), self.batch_std.row(0));
            // Split the borrow: rows of x_hat vs the 1-row statistics.
            let x_row =
                // lint:allow(panic) reason=the row range derives from x_hat's own dims after copy_from
                &mut self.x_hat.as_mut_slice()[r * input.cols()..(r + 1) * input.cols()];
            for (x, (&m, &s)) in x_row.iter_mut().zip(mean_row.iter().zip(std_row)) {
                *x = (*x - m) / s;
            }
        }
        out.copy_from(&self.x_hat);
        for r in 0..out.rows() {
            for (y, (&g, &b)) in out
                .row_mut(r)
                .iter_mut()
                .zip(self.gamma.value.row(0).iter().zip(self.beta.value.row(0)))
            {
                *y = *y * g + b;
            }
        }
    }

    fn backward_into(
        &mut self,
        _input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Grads,
    ) {
        // d gamma += colsum(g * x_hat); d beta += colsum(g)
        grad_out.zip_map_into(&self.x_hat, &mut self.gxh, |g, xh| g * xh);
        if grads.params() {
            self.gxh.col_sum_acc(&mut self.gamma.grad);
            grad_out.col_sum_acc(&mut self.beta.grad);
        }
        if !grads.input() {
            return;
        }

        // Standard batch-norm input gradient:
        // dX = gamma/std * (dY - mean(dY) - x_hat * mean(dY * x_hat))
        grad_out.col_mean_into(&mut self.mean_dy);
        self.gxh.col_mean_into(&mut self.mean_dy_xhat);
        grad_in.resize(grad_out.rows(), grad_out.cols());
        // `gamma / s * x` parses as `(gamma / s) * x`, so one gain per
        // column gives every element the same bits.
        self.gamma.value.zip_map_into(&self.batch_std, &mut self.gain, |gamma, s| gamma / s);
        let (gain, mean_dy, mean_dy_xhat) =
            (self.gain.as_slice(), self.mean_dy.as_slice(), self.mean_dy_xhat.as_slice());
        for r in 0..grad_out.rows() {
            let (dx, dy) = (grad_in.row_mut(r), grad_out.row(r));
            if grad_out.rows() == 1 {
                // Eval-style normalization (running stats treated as
                // constants): gradient is a simple per-feature scale.
                for (dx, (&k, &g)) in dx.iter_mut().zip(gain.iter().zip(dy)) {
                    *dx = k * g;
                }
                continue;
            }
            let means = mean_dy.iter().zip(mean_dy_xhat);
            for ((dx, (&k, &g)), (&xh, (&m, &mx))) in
                dx.iter_mut().zip(gain.iter().zip(dy)).zip(self.x_hat.row(r).iter().zip(means))
            {
                *dx = k * (g - m - xh * mx);
            }
        }
    }

    fn prewarm(&mut self, rows: usize, _in_width: usize, train: bool) {
        let d = self.dim();
        self.mean.resize(1, d);
        self.var.resize(1, d);
        self.batch_std.resize(1, d);
        self.x_hat.resize(rows, d);
        if train {
            self.mean_dy.resize(1, d);
            self.mean_dy_xhat.resize(1, d);
            self.gain.resize(1, d);
            self.gxh.resize(rows, d);
        }
    }

    fn soft_update_from(&mut self, source: &dyn Layer, tau: f32) {
        let src = source
            .as_any()
            .downcast_ref::<BatchNorm>()
            .expect("soft update source must be a BatchNorm layer");
        self.gamma.value.polyak_from(&src.gamma.value, tau);
        self.beta.value.polyak_from(&src.beta.value, tau);
        self.running_mean.polyak_from(&src.running_mean, tau);
        self.running_var.polyak_from(&src.running_var, tau);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn state(&self) -> Vec<Matrix> {
        vec![
            self.gamma.value.clone(),
            self.beta.value.clone(),
            self.running_mean.clone(),
            self.running_var.clone(),
        ]
    }

    fn into_state(self: Box<Self>) -> Vec<Matrix> {
        vec![self.gamma.value, self.beta.value, self.running_mean, self.running_var]
    }

    fn load_state(&mut self, state: &[Matrix]) {
        let [gamma, beta, mean, var] = state else {
            // lint:allow(panic) reason=Layer::load_state documents a panic on a mismatched snapshot
            panic!("batchnorm expects [gamma, beta, mean, var], got {} matrices", state.len())
        };
        for m in state {
            assert_eq!((m.rows(), m.cols()), (1, self.dim()), "batchnorm state shape mismatch");
        }
        // Same shapes, so these copy into the existing buffers.
        self.gamma.value.copy_from(gamma);
        self.beta.value.copy_from(beta);
        self.running_mean.copy_from(mean);
        self.running_var.copy_from(var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::gradcheck::{bwd, fwd};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn normalizes_batch_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bn = BatchNorm::new(4);
        let x = Init::Normal(3.0).sample(64, 4, &mut rng);
        let y = fwd(&mut bn, &x, true);
        let mut mean = Matrix::default();
        y.col_mean_into(&mut mean);
        assert!(mean.as_slice().iter().all(|m| m.abs() < 1e-4), "mean {mean:?}");
        for c in 0..4 {
            let var: f32 = (0..64).map(|r| y[(r, c)].powi(2)).sum::<f32>() / 64.0;
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut bn = BatchNorm::new(2);
        // Feed several biased batches so the running mean drifts toward 5.
        for _ in 0..200 {
            let mut x = Init::Normal(1.0).sample(32, 2, &mut rng);
            x.map_inplace(|v| v + 5.0);
            let _ = fwd(&mut bn, &x, true);
        }
        // A single eval sample at the running mean should normalize to ~beta.
        let x = Matrix::from_vec(1, 2, vec![5.0, 5.0]);
        let y = fwd(&mut bn, &x, false);
        assert!(y.as_slice().iter().all(|v| v.abs() < 0.3), "eval output {y:?}");
    }

    #[test]
    fn single_row_train_falls_back_to_running_stats() {
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        // Fresh running stats are mean 0, var 1 → output ≈ input.
        let y = fwd(&mut bn, &x, true);
        assert!((y[(0, 0)] - 1.0).abs() < 1e-3);
        assert!((y[(0, 1)] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bn = BatchNorm::new(3);
        let x = Init::Normal(2.0).sample(16, 3, &mut rng);
        let _ = fwd(&mut bn, &x, true);
        let state = bn.state();
        let mut bn2 = BatchNorm::new(3);
        bn2.load_state(&state);
        let probe = Init::Normal(1.0).sample(4, 3, &mut rng);
        assert_eq!(fwd(&mut bn, &probe, false), fwd(&mut bn2, &probe, false));
    }

    /// The input gradient as `backward_into` computed it before it walked
    /// row slices: the indexed loop with `gamma / s` per element, read
    /// from the layer's state after a backward pass.
    fn input_grad_reference(bn: &BatchNorm, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::zeros(grad_out.rows(), grad_out.cols());
        let single_sample = grad_out.rows() == 1;
        for r in 0..grad_out.rows() {
            for c in 0..grad_out.cols() {
                let g = grad_out[(r, c)];
                let gamma = bn.gamma.value[(0, c)];
                let s = bn.batch_std[(0, c)];
                grad_in[(r, c)] = if single_sample {
                    gamma / s * g
                } else {
                    gamma / s * (g - bn.mean_dy[(0, c)] - bn.x_hat[(r, c)] * bn.mean_dy_xhat[(0, c)])
                };
            }
        }
        grad_in
    }

    #[test]
    fn backward_equals_the_indexed_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        for rows in [1, 32] {
            let mut bn = BatchNorm::new(11);
            // Move gamma off 1.0 so `gamma / s` rounds.
            for g in bn.gamma.value.as_mut_slice() {
                *g = rng.gen_range(0.5f32..1.5);
            }
            let x = Init::Normal(2.0).sample(rows, 11, &mut rng);
            let y = fwd(&mut bn, &x, true);
            let g = Init::Normal(1.0).sample(rows, 11, &mut rng);
            let dx = bwd(&mut bn, &x, &y, &g);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dx), bits(&input_grad_reference(&bn, &g)), "rows {rows}");
        }
    }

    #[test]
    fn backward_gradient_shapes() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut bn = BatchNorm::new(3);
        let x = Init::Normal(1.0).sample(8, 3, &mut rng);
        let y = fwd(&mut bn, &x, true);
        let g = Matrix::filled(y.rows(), y.cols(), 1.0);
        let dx = bwd(&mut bn, &x, &y, &g);
        assert_eq!((dx.rows(), dx.cols()), (8, 3));
        // With dY = const, the projection terms cancel: dX should be ~0.
        assert!(dx.as_slice().iter().all(|v| v.abs() < 1e-4), "dx {dx:?}");
    }
}
