//! A sequential multi-layer perceptron with manual backpropagation, plus the
//! soft-update and parameter-blending utilities DDPG target networks need.
//!
//! The network owns a `Scratch` arena: one activation matrix per layer
//! boundary plus two ping-pong gradient buffers, all resized in place. A
//! steady-state `forward_ref` → `backward_ref` cycle therefore performs zero
//! heap allocations — see DESIGN.md §11 for the ownership rules.

use crate::kernels;
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
    /// False for an [`Mlp::inference_only`] network.
    trainable: bool,
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
        let scratch = Scratch { acts, g_a: Matrix::default(), g_b: Matrix::default() };
        Self { layers, scratch, trainable: true }
    }

    /// Creates a network that only runs forward: every parameter's gradient
    /// is dropped (a no-op for one built with [`Param::without_grad`]),
    /// [`Mlp::prewarm`] sizes no backward scratch, and a backward pass
    /// panics. Its values still load, blend ([`Mlp::soft_update_from`]) and
    /// snapshot like any network's — what a DDPG target network needs.
    pub fn inference_only(layers: Vec<Box<dyn Layer>>) -> Self {
        let mut net = Self::new(layers);
        net.visit_params(&mut |p| p.grad = Matrix::default());
        net.trainable = false;
        net
    }

    /// Pre-sizes the scratch arena (and every layer's internal scratch) for
    /// batches of `rows x in_width`, so the first training step already runs
    /// allocation-free; an inference-only network sizes only what its
    /// forward pass uses. Optional: buffers also grow lazily on first use.
    pub fn prewarm(&mut self, rows: usize, in_width: usize) {
        let Self { layers, scratch, trainable } = self;
        let mut acts = scratch.acts.iter_mut();
        if let Some(input) = acts.next() {
            input.resize(rows, in_width);
        }
        let mut width = in_width;
        let mut max_width = in_width;
        for (layer, out) in layers.iter_mut().zip(acts) {
            layer.prewarm(rows, width, *trainable);
            width = layer.out_width(width);
            max_width = max_width.max(width);
            out.resize(rows, width);
        }
        if *trainable {
            scratch.g_a.resize(rows, max_width);
            scratch.g_b.resize(rows, max_width);
        }
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
        let Self { layers, scratch, .. } = self;
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
    ///
    /// # Panics
    /// Panics on an [`Mlp::inference_only`] network.
    fn backward_walk(&mut self, grad_out: &Matrix, grads: Grads) -> &Matrix {
        assert!(self.trainable, "backward pass through an inference-only network");
        let Self { layers, scratch, .. } = self;
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
    ///
    /// The norm is the f32 chain `sq += Σ g·g`: each parameter's squares
    /// summed in order, then added to `sq`. The gradients are scaled by
    /// `max_norm / √sq` when `√sq > max_norm`. That chain is serial, so a
    /// vectorized f64 sum first proves most calls cannot clip, and only the
    /// rest run it:
    ///
    /// - Over N gradients in P parameters the chain rounds N squares and
    ///   K = N + P additions, all of non-negative terms. With u = 2⁻²⁴, a
    ///   square errs by a relative u, or by 2⁻¹⁵⁰ absolute where it
    ///   underflows, and an addition by a relative u. So
    ///   `sq ≤ (1 + u)^(K+1)·S + N·2⁻¹⁴⁹`, where S is the exact `Σ g²`.
    /// - `est`, the f64 sum of the squares ([`crate::kernels`]' `sum_sq`),
    ///   adds exact terms (an f32 squared fits an f64), so in any order
    ///   `S ≤ est·(1 + N·2⁻⁵²)`.
    /// - With (K + 1)·u ≤ 1/8, `(1 + u)^(K+1) ≤ 1 + 1.07·(K + 1)·u`. Hence
    ///   `sq < est·(1 + 2(K + 1)·u) + N·2⁻¹⁴⁹`; the factor 2 also covers
    ///   the f64 sum's and this bound's own roundings.
    /// - Every partial sum obeys the same bound, so if it is also below
    ///   `f32::MAX`, no rounding overflows and the steps above hold.
    /// - If the bound is below `max_norm²`, so is `sq`. Then `√sq`, rounded,
    ///   is at most `max_norm`, and the chain would not clip.
    ///
    /// A NaN or infinite gradient makes `est` NaN or infinite, and the
    /// comparison false, so such calls take the exact chain, as does a
    /// `max_norm` that is not positive.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        if self.cannot_clip(max_norm) {
            return;
        }
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

    /// The bound of [`Mlp::clip_grad_norm`]: true when the exact chain is
    /// proven not to clip at `max_norm`.
    fn cannot_clip(&mut self, max_norm: f32) -> bool {
        const U: f64 = f32::EPSILON as f64 / 2.0; // 2⁻²⁴
        const TINY: f64 = f32::from_bits(1) as f64; // 2⁻¹⁴⁹
        let (mut est, mut n, mut k) = (0.0f64, 0.0f64, 0.0f64);
        self.visit_params(&mut |p| {
            let g = p.grad.as_slice();
            est += kernels::sum_sq(g);
            n += g.len() as f64;
            k += g.len() as f64 + 1.0;
        });
        let bound = est * (1.0 + 2.0 * (k + 1.0) * U) + n * TINY;
        let limit = (f64::from(max_norm) * f64::from(max_norm)).min(f64::from(f32::MAX));
        max_norm > 0.0 && (k + 1.0) * U <= 0.125 && bound < limit
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

    /// The words of the layers' random streams, in layer order (one per
    /// dropout layer). Reading them draws nothing.
    pub fn rng_words(&self) -> Vec<u64> {
        self.layers.iter().filter_map(|l| l.rng_word()).collect()
    }

    /// Continues every layer's random stream from [`Mlp::rng_words`].
    ///
    /// # Panics
    /// Panics unless there is one word per layer that draws.
    pub fn set_rng_words(&mut self, words: &[u64]) {
        let mut words = words.iter();
        for layer in self.layers.iter_mut().filter(|l| l.rng_word().is_some()) {
            // lint:allow(panic) reason=set_rng_words documents a panic on a word count that does not match
            layer.set_rng_word(*words.next().expect("one word per drawing layer"));
        }
        assert!(words.next().is_none(), "more words than drawing layers");
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
    use rand::{Rng, SeedableRng};

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
    fn inference_only_forward_matches_and_holds_no_gradient() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut trained = actor_shaped(&mut rng);
        let x = Init::Uniform(1.0).sample(9, 7, &mut rng);
        let _ = trained.forward_ref(&x, true); // move the running statistics
        let mut frozen = Mlp::inference_only(actor_shaped(&mut rng).layers);
        frozen.load_state(&trained.state());
        frozen.prewarm(9, 7);
        assert!(frozen.scratch.g_a.as_slice().is_empty() && frozen.scratch.g_b.as_slice().is_empty());
        let mut grads = 0;
        frozen.visit_params(&mut |p| grads += p.grad.as_slice().len());
        assert_eq!(grads, 0, "an inference-only network holds no gradient");
        assert_eq!(frozen.forward(&x, false), trained.forward(&x, false));
        frozen.soft_update_from(&trained, 0.5);
        assert_eq!(frozen.state(), trained.state());
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn inference_only_network_refuses_a_backward_pass() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut net = Mlp::inference_only(vec![Box::new(Dense::new(2, 3, Init::Uniform(0.1), &mut rng))]);
        let y = net.forward(&Matrix::filled(4, 2, 1.0), false);
        let _ = net.backward_ref(&y);
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

    /// `clip_grad_norm` as it was before the f64 bound: the exact f32 chain
    /// on every call, the reference the bound must not change a bit of.
    fn clip_reference(net: &mut Mlp, max_norm: f32) {
        let mut sq = 0.0f32;
        net.visit_params(&mut |p| {
            sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            net.visit_params(&mut |p| p.grad.scale(scale));
        }
    }

    fn set_grads(net: &mut Mlp, grads: &[f32]) {
        let mut at = 0;
        net.visit_params(&mut |p| {
            let g = p.grad.as_mut_slice();
            g.copy_from_slice(&grads[at..at + g.len()]);
            at += g.len();
        });
        assert_eq!(at, grads.len());
    }

    /// 3 656 parameters in two dense layers: room for the 2 001-element
    /// chain of `clip_bound_covers_a_chain_that_rounds_up_every_step`.
    fn clip_net() -> Mlp {
        let rng = &mut StdRng::seed_from_u64(33);
        Mlp::new(vec![
            Box::new(Dense::new(48, 64, Init::Uniform(0.1), rng)),
            Box::new(Relu()),
            Box::new(Dense::new(64, 8, Init::Uniform(0.1), rng)),
        ])
    }

    /// Clips one gradient set with `clip_grad_norm` and with the reference
    /// on two copies of the net; returns whether the reference clipped.
    fn clip_both_ways(grads: &[f32], max_norm: f32, what: &str) -> bool {
        let (mut fast, mut reference) = (clip_net(), clip_net());
        set_grads(&mut fast, grads);
        set_grads(&mut reference, grads);
        fast.clip_grad_norm(max_norm);
        clip_reference(&mut reference, max_norm);
        let (got, want) = (grad_bits(&mut fast), grad_bits(&mut reference));
        assert_eq!(got, want, "{what}");
        want != grads.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
    }

    #[test]
    fn clip_grad_norm_equals_the_exact_chain_bit_for_bit() {
        let mut n = 0;
        clip_net().visit_params(&mut |p| n += p.grad.as_slice().len());
        let max_norm = 5.0f32;
        let mut rng = StdRng::seed_from_u64(34);
        let mut clipped = [0usize; 5];
        for set in 0..40 {
            let raw: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..40) {
                    0 => 0.0,
                    1 => f32::from_bits(rng.gen_range(1..0x0080_0000)), // subnormal
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            let norm = raw.iter().map(|&g| f64::from(g) * f64::from(g)).sum::<f64>().sqrt();
            for (i, factor) in [0.5, 0.999, 1.0, 1.001, 2.0].into_iter().enumerate() {
                let scale = (factor * f64::from(max_norm) / norm) as f32;
                let grads: Vec<f32> = raw.iter().map(|g| g * scale).collect();
                clipped[i] += usize::from(clip_both_ways(&grads, max_norm, &format!("set {set} ×{factor}")));
            }
        }
        assert_eq!((clipped[0], clipped[1], clipped[4]), (0, 0, 40), "clip counts {clipped:?}");
        // Special entries take the exact chain: all zeros, all subnormal, a
        // NaN, ±inf, and a square that overflows f32.
        let special: [(&str, f32); 6] = [
            ("zero", 0.0),
            ("subnormal", f32::from_bits(3)),
            ("nan", f32::NAN),
            ("inf", f32::INFINITY),
            ("-inf", f32::NEG_INFINITY),
            ("overflow", 2.0e19),
        ];
        for (what, x) in special {
            let mut grads = vec![if what == "subnormal" { x } else { 1e-3 }; n];
            grads[n / 2] = x;
            clip_both_ways(&grads, max_norm, what);
            clip_both_ways(&grads, 1e30, &format!("{what}, max_norm 1e30"));
        }
        assert!(!clip_both_ways(&vec![0.0; n], max_norm, "all zero"));
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            clip_both_ways(&vec![1.0; n], bad, &format!("max_norm {bad}"));
        }
    }

    /// A gradient set whose f32 chain rounds up on every addition: one
    /// square just under `max_norm²` first, then 2 000 squares of ≈ 0.75
    /// ulp of the running sum. The exact sum (and the f64 estimate) stays
    /// below `max_norm²`, the chain crosses it and clips. Only the
    /// `(K + 1)` slack of the bound sends this set down the exact chain.
    #[test]
    fn clip_bound_covers_a_chain_that_rounds_up_every_step() {
        let mut n = 0;
        clip_net().visit_params(&mut |p| n += p.grad.as_slice().len());
        let tiny = (0.75 * 2f64.powi(-19)).sqrt() as f32; // the running sum sits in [16, 32)
        let mut grads = vec![0.0f32; n];
        grads[1..=2_000].fill(tiny);
        let rest: f64 = grads.iter().map(|&g| f64::from(g) * f64::from(g)).sum();
        grads[0] = (25.0 - 4e-4 - rest).sqrt() as f32;
        let est: f64 = grads.iter().map(|&g| f64::from(g) * f64::from(g)).sum();
        assert!(est < 25.0, "estimate {est}");
        assert!(clip_both_ways(&grads, 5.0, "rounding-up chain"), "the chain should clip");
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
