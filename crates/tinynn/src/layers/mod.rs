//! Network layers.
//!
//! Layers are driven through caller-owned buffers: [`Layer::forward_into`]
//! writes the output into a buffer the [`crate::Mlp`] scratch arena owns, and
//! [`Layer::backward_into`] receives the forward input *and* output back by
//! borrow, so layers no longer clone their inputs into per-layer caches. A
//! training step is always the strict sequence `forward_into(train = true)` →
//! loss gradient → `backward_into` with the same arena tensors. The layer
//! set is exactly what Table 5 of the paper requires: fully-connected
//! layers, ReLU and Tanh activations, batch normalization, and dropout.

mod activation;
mod batchnorm;
mod dense;
mod dropout;

pub use activation::{Activation, ActivationKind, Relu, Tanh};
pub use batchnorm::BatchNorm;
pub use dense::Dense;
pub use dropout::Dropout;

use crate::matrix::Matrix;

/// A learnable parameter: a value matrix plus its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter values.
    pub value: Matrix,
    /// Gradient of the loss w.r.t. `value`, populated by `backward`.
    pub grad: Matrix,
}

impl Param {
    /// Wraps a value matrix with a zeroed gradient of the same shape.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
    }
}

/// Which gradients a backward pass computes — what its caller consumes.
/// Skipping one never changes the bits of the other: each is computed by
/// its own products from the same `grad_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grads {
    /// Accumulate parameter gradients and write dL/d input.
    All,
    /// Accumulate parameter gradients only; `grad_in` is left untouched.
    Params,
    /// Write dL/d input only; parameter gradients are left untouched.
    Input,
}

impl Grads {
    /// Whether parameter gradients are accumulated.
    pub fn params(self) -> bool {
        self != Grads::Input
    }

    /// Whether dL/d input is written.
    pub fn input(self) -> bool {
        self != Grads::Params
    }
}

/// A differentiable network layer.
pub trait Layer: Send {
    /// Computes the layer output for a batch (`rows` = batch size) into a
    /// caller-owned buffer (resized and overwritten; allocation-free once
    /// warm). `train` switches batch-norm to batch statistics and enables
    /// dropout.
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix, train: bool);

    /// Backpropagates `grad_out` (dL/d output): accumulates parameter
    /// gradients if `grads.params()` and writes dL/d input into `grad_in`
    /// (resized and overwritten) if `grads.input()`. `input` and `output`
    /// are the tensors of the matching `forward_into` call, lent back by the
    /// network's scratch arena so the layer never has to clone them.
    fn backward_into(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Grads,
    );

    /// Output width this layer produces for a given input width — used to
    /// size the scratch arena at build time. Shape-preserving layers keep
    /// the default.
    fn out_width(&self, in_width: usize) -> usize {
        in_width
    }

    /// Pre-sizes any layer-internal scratch (masks, normalization caches)
    /// for a `rows x in_width` batch so steady-state training never grows a
    /// buffer. Layers without internal scratch keep the default no-op.
    fn prewarm(&mut self, _rows: usize, _in_width: usize) {}

    /// Polyak-blends this layer's persistent state toward `source`
    /// (`self = tau * source + (1 - tau) * self`) without allocating.
    /// Stateless layers keep the default no-op.
    ///
    /// # Panics
    /// Implementations panic when `source` is a different layer type.
    fn soft_update_from(&mut self, _source: &dyn Layer, _tau: f32) {}

    /// Self as `Any`, so [`Layer::soft_update_from`] implementations can
    /// downcast their source to the concrete layer type.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Visits every learnable parameter in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Serializable state: parameters plus any persistent buffers
    /// (e.g. batch-norm running statistics), in a stable order.
    fn state(&self) -> Vec<Matrix> {
        Vec::new()
    }

    /// [`Layer::state`] by move: the layer is consumed and its matrices
    /// leave without a copy. Layers holding state override the default.
    fn into_state(self: Box<Self>) -> Vec<Matrix> {
        self.state()
    }

    /// Restores state previously produced by [`Layer::state`].
    ///
    /// # Panics
    /// Implementations panic if shapes or counts disagree.
    fn load_state(&mut self, _state: &[Matrix]) {}

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking plus allocating convenience
    //! wrappers over the `_into` layer API, shared by the layer tests.
    use super::*;

    /// Allocating wrapper over [`Layer::forward_into`] for tests that drive
    /// a layer outside an [`crate::Mlp`].
    pub fn fwd(layer: &mut dyn Layer, input: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::default();
        layer.forward_into(input, &mut out, train);
        out
    }

    /// Allocating wrapper over [`Layer::backward_into`].
    pub fn bwd(layer: &mut dyn Layer, input: &Matrix, output: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::default();
        layer.backward_into(input, output, grad_out, &mut grad_in, Grads::All);
        grad_in
    }

    /// Checks dL/d input of `layer` against central finite differences,
    /// where the loss is `sum(output * seed)` for a fixed random-ish seed.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Matrix, tol: f32) {
        let seed = input_seed(layer, input);
        let out = fwd(layer, input, true);
        let analytic = bwd(layer, input, &out, &seed);

        let eps = 1e-3f32;
        for idx in 0..input.as_slice().len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            // Deterministic layers only: forward twice with the same mode.
            let lp = loss_of(layer, &plus, &seed);
            let lm = loss_of(layer, &minus, &seed);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {idx}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn input_seed(layer: &mut dyn Layer, input: &Matrix) -> Matrix {
        let out = fwd(layer, input, true);
        let mut seed = Matrix::zeros(out.rows(), out.cols());
        for (i, x) in seed.as_mut_slice().iter_mut().enumerate() {
            *x = ((i % 7) as f32 - 3.0) * 0.31;
        }
        seed
    }

    fn loss_of(layer: &mut dyn Layer, input: &Matrix, seed: &Matrix) -> f32 {
        let out = fwd(layer, input, true);
        out.as_slice().iter().zip(seed.as_slice()).map(|(&o, &s)| o * s).sum()
    }
}
