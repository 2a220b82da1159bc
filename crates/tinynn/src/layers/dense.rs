//! Fully-connected (affine) layer: `Y = X·W + b`.

use super::{Grads, Layer, Param};
use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;

/// Fully-connected layer with weights `W (in x out)` and bias `b (1 x out)`.
///
/// Holds no forward cache: the owning network lends the forward input back
/// to [`Layer::backward_into`], so a training step never clones activations.
pub struct Dense {
    weight: Param,
    bias: Param,
}

impl Dense {
    /// Creates a dense layer with `weight_init` for `W`; bias starts at zero.
    pub fn new(in_dim: usize, out_dim: usize, weight_init: Init, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(weight_init.sample(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Creates a dense layer from existing parameters — `weight` is
    /// `in x out`, `bias` `1 x out` — with no initializer to run: how a
    /// network is rebuilt straight from a snapshot, with gradients
    /// ([`Param::new`]) or without ([`Param::without_grad`]).
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x weight.cols()`.
    pub fn from_params(weight: Param, bias: Param) -> Self {
        let (w, b) = (&weight.value, &bias.value);
        assert_eq!((b.rows(), b.cols()), (1, w.cols()), "dense bias shape mismatch");
        Self { weight, bias }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }
}

impl Layer for Dense {
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, _train: bool) {
        debug_assert_eq!(input.cols(), self.in_dim(), "dense input width mismatch");
        input.matmul_into(&self.weight.value, out);
        out.add_row_broadcast(&self.bias.value);
    }

    fn backward_into(
        &mut self,
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Grads,
    ) {
        // dW += Xᵀ·dY, db += colsum(dY), dX = dY·Wᵀ
        if grads.params() {
            input.t_matmul_acc(grad_out, &mut self.weight.grad);
            grad_out.col_sum_acc(&mut self.bias.grad);
        }
        if grads.input() {
            grad_out.matmul_t_into(&self.weight.value, grad_in);
        }
    }

    fn out_width(&self, _in_width: usize) -> usize {
        self.out_dim()
    }

    fn soft_update_from(&mut self, source: &dyn Layer, tau: f32) {
        let src = source
            .as_any()
            .downcast_ref::<Dense>()
            .expect("soft update source must be a Dense layer");
        self.weight.value.polyak_from(&src.weight.value, tau);
        self.bias.value.polyak_from(&src.bias.value, tau);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn state(&self) -> Vec<Matrix> {
        vec![self.weight.value.clone(), self.bias.value.clone()]
    }

    fn into_state(self: Box<Self>) -> Vec<Matrix> {
        vec![self.weight.value, self.bias.value]
    }

    fn load_state(&mut self, state: &[Matrix]) {
        let [weight, bias] = state else {
            // lint:allow(panic) reason=Layer::load_state documents a panic on a mismatched snapshot
            panic!("dense expects [weight, bias], got {} matrices", state.len())
        };
        assert_eq!(
            (weight.rows(), weight.cols()),
            (self.in_dim(), self.out_dim()),
            "dense weight shape mismatch"
        );
        assert_eq!((bias.rows(), bias.cols()), (1, self.out_dim()), "dense bias shape mismatch");
        // Same shapes, so these copy into the existing buffers.
        self.weight.value.copy_from(weight);
        self.bias.value.copy_from(bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::{bwd, check_input_gradient, fwd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, Init::Zeros, &mut rng);
        d.load_state(&[
            Matrix::zeros(3, 2),
            Matrix::from_vec(1, 2, vec![1.5, -0.5]),
        ]);
        let x = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let y = fwd(&mut d, &x, false);
        assert_eq!((y.rows(), y.cols()), (2, 2));
        assert_eq!(y.row(0), &[1.5, -0.5]);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(4, 3, Init::Uniform(0.5), &mut rng);
        let x = Init::Uniform(1.0).sample(5, 4, &mut rng);
        check_input_gradient(&mut d, &x, 1e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, Init::Uniform(0.5), &mut rng);
        let x = Init::Uniform(1.0).sample(3, 2, &mut rng);

        // loss = sum(forward(x)); dL/dY = ones
        let y = fwd(&mut d, &x, true);
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        d.zero_grad();
        let _ = bwd(&mut d, &x, &y, &ones);
        let mut analytic = Vec::new();
        d.visit_params(&mut |p| analytic.push(p.grad.clone()));

        let eps = 1e-3f32;
        let base_state = d.state();
        for (pi, (label, shape)) in
            [("weight", (2usize, 2usize)), ("bias", (1usize, 2usize))].iter().enumerate()
        {
            for idx in 0..shape.0 * shape.1 {
                let mut plus = base_state.clone();
                plus[pi].as_mut_slice()[idx] += eps;
                d.load_state(&plus);
                let lp: f32 = fwd(&mut d, &x, true).as_slice().iter().sum();

                let mut minus = base_state.clone();
                minus[pi].as_mut_slice()[idx] -= eps;
                d.load_state(&minus);
                let lm: f32 = fwd(&mut d, &x, true).as_slice().iter().sum();

                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[pi].as_slice()[idx];
                assert!(
                    (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                    "{label} grad mismatch at {idx}: analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(2, 2, Init::Uniform(0.5), &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = fwd(&mut d, &x, true);
        let _ = bwd(&mut d, &x, &y, &g);
        let mut first = Matrix::zeros(1, 1);
        d.visit_params(&mut |p| first = p.grad.clone());
        let y = fwd(&mut d, &x, true);
        let _ = bwd(&mut d, &x, &y, &g);
        let mut second = Matrix::zeros(1, 1);
        d.visit_params(&mut |p| second = p.grad.clone());
        assert!(second.as_slice()[0] > first.as_slice()[0] - 1e-9);
        d.zero_grad();
        d.visit_params(&mut |p| assert!(p.grad.as_slice().iter().all(|&x| x == 0.0)));
    }

    #[test]
    #[should_panic(expected = "dense bias shape mismatch")]
    fn load_state_refuses_a_two_row_bias() {
        // Used to load, then panic in the next forward's broadcast.
        let mut rng = StdRng::seed_from_u64(6);
        let mut d = Dense::new(3, 2, Init::Zeros, &mut rng);
        d.load_state(&[Matrix::zeros(3, 2), Matrix::zeros(2, 2)]);
    }

    #[test]
    fn load_state_copies_into_the_existing_buffers() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Dense::new(3, 2, Init::Zeros, &mut rng);
        let src = Dense::new(3, 2, Init::Uniform(0.5), &mut rng);
        let ptrs = |d: &Dense| [d.weight.value.as_slice().as_ptr(), d.bias.value.as_slice().as_ptr()];
        let held = ptrs(&d);
        d.load_state(&src.state());
        assert_eq!(ptrs(&d), held);
        assert_eq!(d.state(), src.state());
    }

    #[test]
    fn soft_update_blends_toward_source() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dst = Dense::new(2, 2, Init::Zeros, &mut rng);
        let src = Dense::new(2, 2, Init::Uniform(0.5), &mut rng);
        dst.soft_update_from(&src, 1.0);
        assert_eq!(dst.state(), src.state());
    }
}
