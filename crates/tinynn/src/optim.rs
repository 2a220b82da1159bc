//! The Adam optimizer.
//!
//! Optimizer state (the Adam moments) is keyed by parameter visitation
//! order, which is stable because network architectures are fixed after
//! construction.

use crate::kernels::{self, AdamStep};
use crate::matrix::Matrix;
use crate::net::Mlp;

/// Adam optimizer (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// What an [`Adam`] has learned about its parameters: the step count and
/// both moment estimates, one matrix per parameter in visitation order
/// (none before the first step). The rates are configuration, not state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Steps taken.
    pub t: u64,
    /// First-moment estimates.
    pub m: Vec<Matrix>,
    /// Second-moment estimates.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self::with_state(lr, AdamState::default())
    }

    /// Adam that continues from `state`: the next step is step `state.t + 1`
    /// on those moments.
    pub fn with_state(lr: f32, state: AdamState) -> Self {
        let AdamState { t, m, v } = state;
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t, m, v }
    }

    /// The step count and moments ([`Adam::with_state`] takes them back).
    pub fn state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Applies one update using the gradients currently accumulated in the
    /// network (does not zero them).
    pub fn step(&mut self, net: &mut Mlp) {
        self.t += 1;
        let t = self.t as f32;
        let (b1, b2) = (self.beta1, self.beta2);
        let h = AdamStep {
            lr: self.lr,
            b1,
            b2,
            eps: self.eps,
            bc1: 1.0 - b1.powf(t),
            bc2: 1.0 - b2.powf(t),
        };
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                vs.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
            // lint:allow(panic) reason=the branch above grows ms and vs past idx
            let m = &mut ms[idx];
            // lint:allow(panic) reason=the branch above grows ms and vs past idx
            let v = &mut vs[idx];
            let (w, g) = (p.value.as_mut_slice(), p.grad.as_slice());
            kernels::adam(h, w, g, m.as_mut_slice(), v.as_mut_slice());
            idx += 1;
        });
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::Dense;
    use crate::loss::mse_loss;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn one_dense(rng: &mut StdRng) -> Mlp {
        Mlp::new(vec![Box::new(Dense::new(1, 1, Init::Uniform(0.1), rng))])
    }

    fn train(net: &mut Mlp, opt: &mut Adam, iters: usize) -> f32 {
        // Fit y = 3x + 1.
        let xs = Matrix::from_vec(4, 1, vec![-1.0, 0.0, 1.0, 2.0]);
        let ys = Matrix::from_vec(4, 1, vec![-2.0, 1.0, 4.0, 7.0]);
        let mut loss = f32::MAX;
        for _ in 0..iters {
            let pred = net.forward(&xs, true);
            let (l, grad) = mse_loss(&pred, &ys);
            net.zero_grad();
            net.backward(&grad);
            opt.step(net);
            loss = l;
        }
        loss
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = one_dense(&mut rng);
        let mut opt = Adam::new(0.05);
        assert!(train(&mut net, &mut opt, 500) < 1e-4);
    }

    /// `Adam::step` as it was before the kernel: three divisions per
    /// element at every t, the reference the kernel must not change a bit
    /// of.
    fn step_reference(opt: &mut Adam, net: &mut Mlp) {
        opt.t += 1;
        let t = opt.t as f32;
        let bc1 = 1.0 - opt.beta1.powf(t);
        let bc2 = 1.0 - opt.beta2.powf(t);
        let (lr, b1, b2, eps) = (opt.lr, opt.beta1, opt.beta2, opt.eps);
        let (ms, vs) = (&mut opt.m, &mut opt.v);
        let mut idx = 0;
        net.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                vs.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            let w = p.value.as_mut_slice();
            let g = p.grad.as_slice();
            for ((w, &g), (mi, vi)) in
                w.iter_mut().zip(g).zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn bits(net: &mut Mlp, opt: &Adam) -> Vec<u32> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.extend(p.value.as_slice().iter().map(|w| w.to_bits())));
        for m in opt.m.iter().chain(&opt.v) {
            out.extend(m.as_slice().iter().map(|x| x.to_bits()));
        }
        out
    }

    /// Around t = 165, where `bc1` becomes exactly 1.0 and its division is
    /// skipped, and far past it, the kernel's step equals the reference's
    /// bit for bit, on moments that include subnormals and zeros and
    /// gradients that include zeros, subnormals and ±1e30.
    #[test]
    fn adam_step_equals_the_reference_bit_for_bit() {
        let bc1 = |t: u64| 1.0 - 0.9f32.powf(t as f32);
        assert!(bc1(164) < 1.0 && bc1(165) == 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let edge = |rng: &mut StdRng| match rng.gen_range(0..16) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            2 => 1e30,
            3 => -1e30,
            _ => rng.gen_range(-1.0f32..1.0),
        };
        for t in [1u64, 164, 165, 166, 17_000, 20_000] {
            let build = || {
                let rng = &mut StdRng::seed_from_u64(5);
                Mlp::new(vec![
                    Box::new(Dense::new(9, 17, Init::Uniform(0.1), rng)),
                    Box::new(Dense::new(17, 3, Init::Uniform(0.1), rng)),
                ])
            };
            let (mut net, mut net_ref) = (build(), build());
            let (mut opt, mut opt_ref) = (Adam::new(1e-3), Adam::new(1e-3));
            // One step each sizes the moments; then overwrite the state of
            // both with the same moments, gradients and step count.
            opt.step(&mut net);
            step_reference(&mut opt_ref, &mut net_ref);
            for (m, m_ref) in opt.m.iter_mut().zip(&mut opt_ref.m).chain(opt.v.iter_mut().zip(&mut opt_ref.v)) {
                for (x, y) in m.as_mut_slice().iter_mut().zip(m_ref.as_mut_slice()) {
                    *x = edge(&mut rng).abs();
                    *y = *x;
                }
            }
            let grads: Vec<f32> = (0..9 * 17 + 17 + 17 * 3 + 3).map(|_| edge(&mut rng)).collect();
            for n in [&mut net, &mut net_ref] {
                let mut at = 0;
                n.visit_params(&mut |p| {
                    let g = p.grad.as_mut_slice();
                    g.copy_from_slice(&grads[at..at + g.len()]);
                    at += g.len();
                });
            }
            (opt.t, opt_ref.t) = (t - 1, t - 1);
            opt.step(&mut net);
            step_reference(&mut opt_ref, &mut net_ref);
            assert_eq!(bits(&mut net, &opt), bits(&mut net_ref, &opt_ref), "t = {t}");
        }
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.001);
        opt.set_learning_rate(1e-4);
        assert_eq!(opt.learning_rate(), 1e-4);
    }
}
