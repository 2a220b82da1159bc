//! A sequential multi-layer perceptron with manual backpropagation, plus the
//! soft-update and parameter-blending utilities DDPG target networks need.
//!
//! The network owns a `Scratch` arena: one activation matrix per layer
//! boundary plus two ping-pong gradient buffers, all resized in place. A
//! steady-state `forward_ref` → `backward_ref` cycle therefore performs zero
//! heap allocations — see DESIGN.md §11 for the ownership rules.

use crate::layers::{Grads, Layer, Param};
use crate::matrix::Matrix;

/// Reusable forward/backward tensors owned by an [`Mlp`].
///
/// `acts[i]` is the input of layer `i`; `acts[i + 1]` its output; the
/// gradient flows backward alternating between the two ping-pong buffers so
/// a layer always reads one while writing the other.
struct Scratch {
    acts: Vec<Matrix>,
    g_a: Matrix,
    g_b: Matrix,
}

/// A feed-forward network: an ordered stack of [`Layer`]s.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
    scratch: Scratch,
}

/// Serializable snapshot of an [`Mlp`]'s learnable state (parameters and
/// persistent buffers such as batch-norm running statistics).
#[derive(Clone, Debug, PartialEq)]
pub struct NetState {
    /// Per-layer state matrices, in layer order.
    pub layers: Vec<Vec<Matrix>>,
}

impl Mlp {
    /// Creates an MLP from a layer stack.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let acts = (0..layers.len() + 1).map(|_| Matrix::default()).collect();
        Self { layers, scratch: Scratch { acts, g_a: Matrix::default(), g_b: Matrix::default() } }
    }

    /// Pre-sizes the scratch arena (and every layer's internal scratch) for
    /// batches of `rows x in_width`, so the first training step already runs
    /// allocation-free. Optional: buffers also grow lazily on first use.
    pub fn prewarm(&mut self, rows: usize, in_width: usize) {
        let Self { layers, scratch } = self;
        let mut acts = scratch.acts.iter_mut();
        if let Some(input) = acts.next() {
            input.resize(rows, in_width);
        }
        let mut width = in_width;
        let mut max_width = in_width;
        for (layer, out) in layers.iter_mut().zip(acts) {
            layer.prewarm(rows, width);
            width = layer.out_width(width);
            max_width = max_width.max(width);
            out.resize(rows, width);
        }
        scratch.g_a.resize(rows, max_width);
        scratch.g_b.resize(rows, max_width);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the network forward through the scratch arena and returns a
    /// borrow of the output activation. Zero allocations once the arena is
    /// warm; the borrow is invalidated by the next forward/backward call.
    pub fn forward_ref(&mut self, input: &Matrix, train: bool) -> &Matrix {
        let Self { layers, scratch } = self;
        scratch.acts[0].copy_from(input);
        for (i, layer) in layers.iter_mut().enumerate() {
            let (lo, hi) = scratch.acts.split_at_mut(i + 1);
            layer.forward_into(&lo[i], &mut hi[0], train);
        }
        &scratch.acts[layers.len()]
    }

    /// Runs the network forward. `train` enables dropout and batch
    /// statistics. Clones the output activation out of the scratch arena;
    /// hot paths use [`Mlp::forward_ref`] instead.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        self.forward_ref(input, train).clone()
    }

    /// Convenience: forward in evaluation mode.
    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        self.forward(input, false)
    }

    /// Backpropagates `grad_out` through the stack (must follow a forward
    /// pass), accumulating parameter gradients. Returns a borrow of
    /// dL/d input inside the scratch arena; zero allocations once warm.
    pub fn backward_ref(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backward_walk(grad_out, Grads::All)
    }

    /// [`Mlp::backward_ref`] for a caller that only steps the optimizer:
    /// accumulates the same parameter gradients, bit for bit, but the first
    /// layer skips dL/d input (for a `Dense` first layer, one `dY·Wᵀ`
    /// product).
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.backward_walk(grad_out, Grads::Params);
    }

    /// [`Mlp::backward_ref`] for a caller that only wants dL/d input (the
    /// actor's pass through the critic): returns the same matrix, bit for
    /// bit, but no layer touches its parameter gradients (for a `Dense`
    /// layer, no `Xᵀ·dY` product and no bias sum).
    pub fn backward_input(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backward_walk(grad_out, Grads::Input)
    }

    /// The one layer walk behind the three backward passes. Every layer
    /// above the first must pass dL/d its input down, so `Grads::Params`
    /// narrows to parameters at layer 0 only.
    fn backward_walk(&mut self, grad_out: &Matrix, grads: Grads) -> &Matrix {
        let Self { layers, scratch } = self;
        let n = layers.len();
        if n == 0 {
            scratch.g_a.copy_from(grad_out);
            return &scratch.g_a;
        }
        let Scratch { acts, g_a, g_b } = scratch;
        let mut from_a = false;
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let input = &acts[i];
            let output = &acts[i + 1];
            let grads = if grads == Grads::Params && i > 0 { Grads::All } else { grads };
            if i == n - 1 {
                layer.backward_into(input, output, grad_out, g_a, grads);
                from_a = true;
            } else if from_a {
                layer.backward_into(input, output, g_a, g_b, grads);
                from_a = false;
            } else {
                layer.backward_into(input, output, g_b, g_a, grads);
                from_a = true;
            }
        }
        if from_a {
            g_a
        } else {
            g_b
        }
    }

    /// Backpropagates `grad_out`, cloning dL/d input out of the scratch
    /// arena; hot paths use [`Mlp::backward_ref`] instead.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_ref(grad_out).clone()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every learnable parameter in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Clips the global gradient norm to `max_norm` (no-op when below).
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let mut sq = 0.0f32;
        self.visit_params(&mut |p| {
            sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.visit_params(&mut |p| p.grad.scale(scale));
        }
    }

    /// Captures a serializable snapshot of parameters and buffers.
    pub fn state(&self) -> NetState {
        NetState { layers: self.layers.iter().map(|l| l.state()).collect() }
    }

    /// [`Mlp::state`] by move: the network is consumed and every matrix
    /// leaves without a copy.
    pub fn into_state(self) -> NetState {
        NetState { layers: self.layers.into_iter().map(|l| l.into_state()).collect() }
    }

    /// Restores a snapshot created by [`Mlp::state`].
    ///
    /// # Panics
    /// Panics if the architecture does not match the snapshot.
    pub fn load_state(&mut self, state: &NetState) {
        assert_eq!(
            state.layers.len(),
            self.layers.len(),
            "snapshot has {} layers, network has {}",
            state.layers.len(),
            self.layers.len()
        );
        for (layer, s) in self.layers.iter_mut().zip(&state.layers) {
            layer.load_state(s);
        }
    }

    /// Polyak soft update: `self = tau * source + (1 - tau) * self`, applied
    /// to every state matrix (parameters and buffers alike). This is the
    /// target-network update used by DDPG. Runs layer-pairwise in place —
    /// unlike a snapshot round trip, it allocates nothing, which matters
    /// because DDPG calls it on every training step.
    ///
    /// # Panics
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f32) {
        assert_eq!(
            self.layers.len(),
            source.layers.len(),
            "soft update layer count mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            dst.soft_update_from(src.as_ref(), tau);
        }
    }

    /// Hard copy of all state from `source` (equivalent to `tau = 1`).
    pub fn copy_from(&mut self, source: &Mlp) {
        self.load_state(&source.state());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{BatchNorm, Dense, Dropout, Relu, Tanh};
    use crate::loss::mse_loss;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Mlp {
        Mlp::new(vec![
            Box::new(Dense::new(2, 16, Init::XavierUniform, rng)),
            Box::new(Relu()),
            Box::new(Dense::new(16, 1, Init::XavierUniform, rng)),
        ])
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut net = tiny_net(&mut rng);
        let mut opt = Adam::new(1e-2);
        // y = 2a - b
        let xs = Init::Uniform(1.0).sample(64, 2, &mut rng);
        let mut ys = Matrix::zeros(64, 1);
        for r in 0..64 {
            ys[(r, 0)] = 2.0 * xs[(r, 0)] - xs[(r, 1)];
        }
        let mut last = f32::MAX;
        for _ in 0..500 {
            let pred = net.forward(&xs, true);
            let (loss, grad) = mse_loss(&pred, &ys);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net);
            last = loss;
        }
        assert!(last < 1e-3, "final loss {last}");
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut rng = StdRng::seed_from_u64(101);
        let src = tiny_net(&mut rng);
        let mut dst = tiny_net(&mut rng);
        for _ in 0..400 {
            dst.soft_update_from(&src, 0.05);
        }
        let a = src.state();
        let b = dst.state();
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            for (ma, mb) in la.iter().zip(lb) {
                for (&x, &y) in ma.as_slice().iter().zip(mb.as_slice()) {
                    assert!((x - y).abs() < 1e-4, "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn state_loads_into_a_fresh_network() {
        let mut rng = StdRng::seed_from_u64(102);
        let mut net = Mlp::new(vec![
            Box::new(Dense::new(3, 8, Init::XavierUniform, &mut rng)),
            Box::new(BatchNorm::new(8)),
            Box::new(Tanh()),
            Box::new(Dropout::new(0.2, 1)),
            Box::new(Dense::new(8, 2, Init::XavierUniform, &mut rng)),
        ]);
        let x = Init::Uniform(1.0).sample(16, 3, &mut rng);
        let _ = net.forward(&x, true); // populate running stats
        let restored = net.state();

        let mut net2 = Mlp::new(vec![
            Box::new(Dense::new(3, 8, Init::Zeros, &mut rng)),
            Box::new(BatchNorm::new(8)),
            Box::new(Tanh()),
            Box::new(Dropout::new(0.2, 1)),
            Box::new(Dense::new(8, 2, Init::Zeros, &mut rng)),
        ]);
        net2.load_state(&restored);
        let probe = Init::Uniform(1.0).sample(4, 3, &mut rng);
        assert_eq!(net.predict(&probe), net2.predict(&probe));
    }

    /// The DDPG actor's layer pattern (dense, ReLU, batch norm, tanh,
    /// dropout, linear head) at small widths.
    fn actor_shaped(rng: &mut StdRng) -> Mlp {
        Mlp::new(vec![
            Box::new(Dense::new(7, 16, Init::Uniform(0.1), rng)),
            Box::new(Relu()),
            Box::new(BatchNorm::new(16)),
            Box::new(Dense::new(16, 12, Init::Uniform(0.1), rng)),
            Box::new(Tanh()),
            Box::new(Dropout::new(0.3, 5)),
            Box::new(Dense::new(12, 5, Init::Uniform(0.1), rng)),
        ])
    }

    /// The DDPG critic's layer pattern (dense, ReLU, dropout, tanh, scalar
    /// head) over a `[state | action]` input.
    fn critic_shaped(rng: &mut StdRng) -> Mlp {
        Mlp::new(vec![
            Box::new(Dense::new(12, 24, Init::Uniform(0.1), rng)),
            Box::new(Relu()),
            Box::new(Dropout::new(0.3, 6)),
            Box::new(Dense::new(24, 9, Init::Uniform(0.1), rng)),
            Box::new(Tanh()),
            Box::new(Dense::new(9, 1, Init::XavierUniform, rng)),
        ])
    }

    fn grad_bits(net: &mut Mlp) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |p| bits.extend(p.grad.as_slice().iter().map(|g| g.to_bits())));
        bits
    }

    #[test]
    fn narrowed_backward_passes_match_the_full_one_bit_for_bit() {
        type Build = fn(&mut StdRng) -> Mlp;
        for (build, in_w) in [(actor_shaped as Build, 7), (critic_shaped, 12)] {
            let fresh = || build(&mut StdRng::seed_from_u64(31));
            let (mut full, mut params, mut input) = (fresh(), fresh(), fresh());
            let mut rng = StdRng::seed_from_u64(32);
            // Two train-mode steps, so gradients accumulate and each step
            // draws its own dropout masks (the same in all three nets).
            for _ in 0..2 {
                let x = Init::Uniform(1.0).sample(9, in_w, &mut rng);
                let out_w = full.forward_ref(&x, true).cols();
                let g = Init::Uniform(1.0).sample(9, out_w, &mut rng);
                let _ = params.forward_ref(&x, true);
                let _ = input.forward_ref(&x, true);
                let dx: Vec<u32> = full.backward_ref(&g).as_slice().iter().map(|v| v.to_bits()).collect();
                params.backward_params(&g);
                let dx_in: Vec<u32> =
                    input.backward_input(&g).as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(dx, dx_in, "input-only dL/dx differs");
                assert_eq!(grad_bits(&mut full), grad_bits(&mut params), "params-only grads differ");
            }
            assert!(grad_bits(&mut input).iter().all(|&b| b == 0), "input-only touched a gradient");
        }
    }

    #[test]
    fn clip_grad_norm_caps_large_gradients() {
        let mut rng = StdRng::seed_from_u64(103);
        let mut net = tiny_net(&mut rng);
        let x = Init::Uniform(1.0).sample(8, 2, &mut rng);
        let y = net.forward(&x, true);
        let big = Matrix::filled(y.rows(), y.cols(), 1e4);
        net.zero_grad();
        net.backward(&big);
        net.clip_grad_norm(1.0);
        let mut sq = 0.0;
        net.visit_params(&mut |p| sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>());
        assert!(sq.sqrt() <= 1.0 + 1e-4);
    }

    #[test]
    fn param_count_matches_architecture() {
        // `visit_params` reaches every weight the optimizer must update:
        // (2*16 + 16) + (16*1 + 1) = 48 + 17 = 65.
        let mut rng = StdRng::seed_from_u64(104);
        let mut net = tiny_net(&mut rng);
        let mut n = 0;
        net.visit_params(&mut |p| n += p.value.as_slice().len());
        assert_eq!(n, 65);
    }
}
