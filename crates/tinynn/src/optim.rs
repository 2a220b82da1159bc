//! The Adam optimizer.
//!
//! Optimizer state (the Adam moments) is keyed by parameter visitation
//! order, which is stable because network architectures are fixed after
//! construction.

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

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update using the gradients currently accumulated in the
    /// network (does not zero them).
    pub fn step(&mut self, net: &mut Mlp) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
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
    use rand::SeedableRng;

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

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.001);
        opt.set_learning_rate(1e-4);
        assert_eq!(opt.learning_rate(), 1e-4);
    }
}
