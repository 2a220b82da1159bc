//! Element-wise activation layers: ReLU and Tanh.

use super::{Grads, Layer};
use crate::matrix::Matrix;

/// Which activation function an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationKind {
    /// `max(0, x)`
    Relu,
    /// Hyperbolic tangent, used by the paper's actor output so actions land
    /// in `[-1, 1]` before being scaled to knob ranges.
    Tanh,
}

/// A stateless element-wise activation. The backward pass derives the local
/// derivative from the forward input/output the network lends back, so the
/// layer keeps no cache of its own.
pub struct Activation {
    kind: ActivationKind,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind }
    }
}

/// Convenience constructor for a ReLU layer.
#[allow(non_snake_case)]
pub fn Relu() -> Activation {
    Activation::new(ActivationKind::Relu)
}

/// Convenience constructor for a Tanh layer.
#[allow(non_snake_case)]
pub fn Tanh() -> Activation {
    Activation::new(ActivationKind::Tanh)
}

impl Layer for Activation {
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, _train: bool) {
        match self.kind {
            ActivationKind::Relu => input.map_into(out, |x| x.max(0.0)),
            ActivationKind::Tanh => input.tanh_into(out),
        }
    }

    fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Grads,
    ) {
        if !grads.input() {
            return; // no parameters
        }
        match self.kind {
            // ReLU derives from the input sign…
            ActivationKind::Relu => {
                grad_out.zip_map_into(input, grad_in, |g, x| if x > 0.0 { g } else { 0.0 })
            }
            // …while tanh reuses the forward output.
            ActivationKind::Tanh => {
                grad_out.zip_map_into(output, grad_in, |g, y| g * (1.0 - y * y))
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::{bwd, check_input_gradient, fwd};
    use crate::init::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_negative() {
        let mut a = Relu();
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.1, 0.0, 3.0]);
        let y = fwd(&mut a, &x, false);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn tanh_bounded() {
        let mut a = Tanh();
        let x = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]);
        let y = fwd(&mut a, &x, false);
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        // Keep inputs away from the ReLU kink to make finite differences valid.
        let x = Init::Uniform(2.0)
            .sample(3, 5, &mut rng)
            .map(|v| if v.abs() < 0.05 { v + 0.1 } else { v });
        for kind in [ActivationKind::Relu, ActivationKind::Tanh] {
            let mut layer = Activation::new(kind);
            check_input_gradient(&mut layer, &x, 1e-2);
        }
    }

    #[test]
    fn backward_masks_by_forward_input() {
        let mut a = Relu();
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        let y = fwd(&mut a, &x, true);
        let g = Matrix::filled(1, 3, 1.0);
        let dx = bwd(&mut a, &x, &y, &g);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0]);
    }
}
