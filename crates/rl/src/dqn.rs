//! Deep Q-Network (Section 3.3, \[32\]).
//!
//! DQN replaces the Q-table with a network `Q(s, ·; ω)` but keeps discrete
//! actions — which is exactly why the paper rejects it for knob tuning:
//! discretizing 266 continuous knobs at 100 levels yields 100^266 actions.
//! The implementation supports the paper's discussion experiment: DQN works
//! on a *small* discretized knob subset and degrades as the action
//! enumeration grows, while DDPG's continuous actor does not.

use crate::env::Transition;
use crate::replay::ReplayBuffer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
#[allow(unused_imports)]
use rand::RngCore;
use tinynn::{Adam, Dense, Init, Layer, Matrix, Mlp, Relu};

/// DQN hyper-parameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// State dimensionality.
    pub state_dim: usize,
    /// Number of enumerated discrete actions.
    pub n_actions: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// ε-greedy exploration, decayed externally.
    pub epsilon: f32,
    /// Target-network refresh interval (train steps).
    pub target_refresh: usize,
    /// Seed.
    pub seed: u64,
}

/// The DQN agent.
pub struct Dqn {
    cfg: DqnConfig,
    q: Mlp,
    q_target: Mlp,
    opt: Adam,
    steps: usize,
    rng: StdRng,
    /// Current exploration rate (public for schedule control).
    pub epsilon: f32,
}

fn build_q(cfg: &DqnConfig, rng: &mut StdRng) -> Mlp {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = cfg.state_dim;
    for &h in &cfg.hidden {
        layers.push(Box::new(Dense::new(prev, h, Init::HeNormal, rng)));
        layers.push(Box::new(Relu()));
        prev = h;
    }
    layers.push(Box::new(Dense::new(prev, cfg.n_actions, Init::XavierUniform, rng)));
    Mlp::new(layers)
}

impl Dqn {
    /// Builds the agent.
    pub fn new(cfg: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let q = build_q(&cfg, &mut rng);
        let mut q_target = build_q(&cfg, &mut rng);
        q_target.copy_from(&q);
        let opt = Adam::new(cfg.lr);
        let epsilon = cfg.epsilon;
        Self { cfg, q, q_target, opt, steps: 0, rng, epsilon }
    }

    /// Number of enumerated actions (the §3.3 exponential-blow-up axis).
    pub fn n_actions(&self) -> usize {
        self.cfg.n_actions
    }

    /// ε-greedy action index for a state.
    pub fn select_action(&mut self, state: &[f32]) -> usize {
        if self.rng.gen::<f32>() < self.epsilon {
            return self.rng.gen_range(0..self.cfg.n_actions);
        }
        self.greedy_action(state)
    }

    /// Greedy action index.
    pub fn greedy_action(&mut self, state: &[f32]) -> usize {
        let s = Matrix::from_vec(1, self.cfg.state_dim, state.to_vec());
        let qs = self.q.predict(&s);
        let row = qs.row(0);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// One training step on a minibatch. The `action` field of each
    /// transition holds the discrete index in component 0.
    pub fn train_step(&mut self, batch: &[&Transition]) -> f32 {
        let b = batch.len();
        let ds = self.cfg.state_dim;
        let s = Matrix::from_vec(
            b,
            ds,
            batch.iter().flat_map(|t| t.state.iter().copied()).collect(),
        );
        let s2 = Matrix::from_vec(
            b,
            ds,
            batch.iter().flat_map(|t| t.next_state.iter().copied()).collect(),
        );
        let q2 = self.q_target.predict(&s2);
        let q = self.q.forward(&s, true);
        let mut grad = Matrix::zeros(b, self.cfg.n_actions);
        let mut loss = 0.0f32;
        for (i, t) in batch.iter().enumerate() {
            let a = t.action[0] as usize;
            let max_next = q2.row(i).iter().cloned().fold(f32::MIN, f32::max);
            let y = if t.done { t.reward } else { t.reward + self.cfg.gamma * max_next };
            let td = q[(i, a)] - y;
            loss += td * td;
            grad[(i, a)] = 2.0 * td / b as f32;
        }
        self.q.zero_grad();
        let _ = self.q.backward(&grad);
        self.q.clip_grad_norm(5.0);
        self.opt.step(&mut self.q);
        self.steps += 1;
        if self.steps.is_multiple_of(self.cfg.target_refresh) {
            self.q_target.copy_from(&self.q);
        }
        loss / b as f32
    }

    /// Convenience training loop over an environment with enumerated
    /// actions decoded by `decode` into continuous action vectors.
    pub fn train_on_env(
        &mut self,
        env: &mut dyn crate::env::Environment,
        decode: &dyn Fn(usize) -> Vec<f32>,
        episodes: usize,
        steps_per_episode: usize,
    ) -> f32 {
        let mut replay = ReplayBuffer::new(50_000);
        let mut last_return = 0.0;
        for _ in 0..episodes {
            let mut state = env.reset();
            let mut ep_return = 0.0;
            for _ in 0..steps_per_episode {
                let a = self.select_action(&state);
                let result = env.step(&decode(a));
                ep_return += result.reward;
                replay.push(Transition {
                    state: state.clone(),
                    action: vec![a as f32],
                    reward: result.reward,
                    next_state: result.next_state.clone(),
                    done: result.done,
                });
                state = result.next_state;
                if replay.len() >= 64 {
                    let mut rng = StdRng::seed_from_u64(self.steps as u64);
                    let batch = replay.sample(32, &mut rng);
                    let _ = self.train_step(&batch);
                }
                if result.done {
                    break;
                }
            }
            self.epsilon = (self.epsilon * 0.97).max(0.02);
            last_return = ep_return;
        }
        last_return
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::TargetEnv;
    use crate::env::Environment;

    fn cfg(n_actions: usize) -> DqnConfig {
        DqnConfig {
            state_dim: 1,
            n_actions,
            hidden: vec![32],
            lr: 5e-3,
            gamma: 0.9,
            epsilon: 1.0,
            target_refresh: 50,
            seed: 3,
        }
    }

    #[test]
    fn greedy_action_is_argmax() {
        let mut agent = Dqn::new(cfg(4));
        let s = [0.5f32];
        let best = agent.greedy_action(&s);
        assert!(best < 4);
        // Deterministic across calls.
        assert_eq!(best, agent.greedy_action(&s));
    }

    #[test]
    fn learns_a_discretized_one_dim_target() {
        // Target 0.7 on one knob; 8 discrete levels → best action index 6
        // (0.857) or 5 (0.714).
        let mut env = TargetEnv::new(vec![0.7], 5);
        let mut agent = Dqn::new(cfg(8));
        let decode = |a: usize| vec![a as f32 / 7.0];
        let _ = agent.train_on_env(&mut env, &decode, 150, 5);
        agent.epsilon = 0.0;
        let a = agent.greedy_action(&env.reset());
        let val = a as f32 / 7.0;
        assert!(
            (val - 0.7).abs() <= 0.15,
            "greedy action {a} decodes to {val}, expected near 0.7"
        );
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut agent = Dqn::new(cfg(3));
        let t = Transition {
            state: vec![0.2],
            action: vec![1.0],
            reward: 1.0,
            next_state: vec![0.2],
            done: true,
        };
        let refs = vec![&t; 8];
        let first = agent.train_step(&refs);
        let mut last = first;
        for _ in 0..200 {
            last = agent.train_step(&refs);
        }
        assert!(last < first * 0.1, "{first} -> {last}");
    }

    #[test]
    fn action_enumeration_grows_exponentially_with_knobs() {
        // The §3.3 argument in code: enumerating k knobs at L levels needs
        // L^k actions. Even 8 knobs at 10 levels exceed 10^8 outputs.
        let levels: u64 = 10;
        let mut actions: u64 = 1;
        for knobs in 1..=8u32 {
            actions = actions.saturating_mul(levels);
            assert_eq!(actions, levels.pow(knobs));
        }
        assert!(actions > 10_000_000);
    }
}
