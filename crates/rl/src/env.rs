//! The environment abstraction: anything an agent can act on.

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Observation after the action.
    pub next_state: Vec<f32>,
    /// Scalar reward.
    pub reward: f32,
    /// Episode terminated (for DB tuning: step budget exhausted or the
    /// instance crashed).
    pub done: bool,
}

/// A reinforcement-learning environment with continuous observations and a
/// continuous `[0, 1]`-box action space (the normalized knob vector).
pub trait Environment {
    /// Observation dimensionality (63 internal metrics for CDBTune).
    fn state_dim(&self) -> usize;

    /// Action dimensionality (number of tuned knobs).
    fn action_dim(&self) -> usize;

    /// Resets the environment and returns the initial observation.
    fn reset(&mut self) -> Vec<f32>;

    /// Applies an action (each component in `[0, 1]`) and observes.
    fn step(&mut self, action: &[f32]) -> StepResult;
}

/// One experience tuple `(s_t, a_t, r_t, s_{t+1})` (§2.2.4 calls this a
/// *transition* in the experience replay memory).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f32>,
    /// Action taken.
    pub action: Vec<f32>,
    /// Reward received.
    pub reward: f32,
    /// State after the action.
    pub next_state: Vec<f32>,
    /// Terminal flag.
    pub done: bool,
}

#[cfg(test)]
pub(crate) mod testenv {
    //! A tiny deterministic environment for algorithm tests: the reward is
    //! highest when the action matches a fixed target vector, and the state
    //! carries the previous action (so the policy must read the state).
    use super::*;

    pub struct TargetEnv {
        pub target: Vec<f32>,
        pub state: Vec<f32>,
        pub steps: usize,
        pub horizon: usize,
    }

    impl TargetEnv {
        pub fn new(target: Vec<f32>, horizon: usize) -> Self {
            let dim = target.len();
            Self { target, state: vec![0.5; dim], steps: 0, horizon }
        }
    }

    impl Environment for TargetEnv {
        fn state_dim(&self) -> usize {
            self.target.len()
        }
        fn action_dim(&self) -> usize {
            self.target.len()
        }
        fn reset(&mut self) -> Vec<f32> {
            self.steps = 0;
            self.state = vec![0.5; self.target.len()];
            self.state.clone()
        }
        fn step(&mut self, action: &[f32]) -> StepResult {
            let dist: f32 = action
                .iter()
                .zip(&self.target)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f32>()
                .sqrt();
            self.state = action.to_vec();
            self.steps += 1;
            StepResult {
                next_state: self.state.clone(),
                reward: 1.0 - dist,
                done: self.steps >= self.horizon,
            }
        }
    }
}
