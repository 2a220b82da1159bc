//! Evaluation-only policy built from a [`DdpgSnapshot`] — the serving
//! tier's view of a trained model.
//!
//! A [`SnapshotPolicy`] materializes just the online actor (no critic, no
//! targets, no optimizers, no replay scratch), loads the snapshot weights,
//! and serves forward passes: one state row for the serving tier, or many
//! states packed into one `[batch x state_dim]` matrix through a single
//! [`tinynn::Mlp::forward_ref`] call. Inference runs strictly in evaluation
//! mode (dropout off, batch-norm on running statistics), so a policy built
//! from a snapshot produces bit-identical actions to [`crate::Ddpg::act`]
//! on the same weights — the differential tests below pin that equivalence.
//!
//! Compared to [`crate::Ddpg::from_snapshot`], which rebuilds all four
//! networks plus two Adam optimizers, this is one network and none of the
//! optimizer state: cheap enough to keep one per published registry
//! version in a serving process.

use crate::ddpg::{build_actor, DdpgSnapshot, Weights};
use tinynn::{Matrix, Mlp};

/// Evaluation-mode actor over one immutable snapshot's weights. All entry
/// points reuse internal scratch, so steady-state calls with a warm arena
/// and warm caller buffers allocate nothing.
pub struct SnapshotPolicy {
    state_dim: usize,
    action_dim: usize,
    actor: Mlp,
    /// Single-row staging for [`SnapshotPolicy::act_row`].
    one_row: Matrix,
}

impl SnapshotPolicy {
    /// Builds the policy from a snapshot: the actor network is constructed
    /// at the snapshot's architecture and its weights (and batch-norm
    /// running statistics) loaded from it.
    pub fn from_snapshot(snap: &DdpgSnapshot) -> Self {
        let cfg = &snap.config;
        let actor = build_actor(cfg, &mut Weights::Inference(&snap.actor), 0xA0);
        Self {
            state_dim: cfg.state_dim,
            action_dim: cfg.action_dim,
            actor,
            one_row: Matrix::default(),
        }
    }

    /// State width the policy expects.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action width the policy produces.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Pre-sizes the actor's scratch arena for `rows`-high batches so the
    /// first serving call already runs allocation-free.
    pub fn prewarm(&mut self, rows: usize) {
        self.actor.prewarm(rows.max(1), self.state_dim);
    }

    /// One batched actor forward: `states` is `[batch x state_dim]`, `out`
    /// becomes `[batch x action_dim]` with every element clamped into the
    /// `[0, 1]` knob box (the same clamp [`crate::Ddpg::act`] applies).
    ///
    /// # Panics
    /// Panics if `states` has the wrong width.
    pub fn act_batch_into(&mut self, states: &Matrix, out: &mut Matrix) {
        assert_eq!(states.cols(), self.state_dim, "state width mismatch");
        out.resize(states.rows(), self.action_dim);
        let act = self.actor.forward_ref(states, false);
        for (o, &v) in out.as_mut_slice().iter_mut().zip(act.as_slice()) {
            *o = v.clamp(0.0, 1.0);
        }
    }

    /// Single-state forward: the serving tier's one-row request.
    pub fn act_row(&mut self, state: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.state_dim, "state width mismatch");
        self.one_row.resize(1, self.state_dim);
        self.one_row.as_mut_slice().copy_from_slice(state);
        let act = self.actor.forward_ref(&self.one_row, false);
        act.row(0).iter().map(|x| x.clamp(0.0, 1.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpg::{Ddpg, DdpgConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_cfg() -> DdpgConfig {
        DdpgConfig {
            state_dim: 9,
            action_dim: 4,
            actor_hidden: vec![32, 16],
            critic_hidden: vec![32, 16],
            actor_lr: 3e-4,
            critic_lr: 2e-3,
            gamma: 0.3,
            tau: 0.01,
            batch_size: 32,
            dropout: 0.3,
            seed: 7,
        }
    }

    fn random_states(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, dim);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-2.0..2.0);
        }
        m
    }

    #[test]
    fn batched_actor_forward_matches_per_state_act() {
        let mut agent = Ddpg::new(tiny_cfg());
        let policy_src = agent.snapshot();
        let mut policy = SnapshotPolicy::from_snapshot(&policy_src);
        policy.prewarm(32);
        let mut out = Matrix::default();
        for &batch in &[1usize, 7, 32] {
            let states = random_states(batch, 9, 0x100 + batch as u64);
            policy.act_batch_into(&states, &mut out);
            assert_eq!(out.rows(), batch);
            assert_eq!(out.cols(), 4);
            for r in 0..batch {
                let reference = agent.act(states.row(r));
                for (a, b) in out.row(r).iter().zip(&reference) {
                    assert!((a - b).abs() < 1e-6, "batch {batch} row {r}: {a} vs {b}");
                    assert!((0.0..=1.0).contains(a), "action out of the knob box: {a}");
                }
            }
        }
    }

    #[test]
    fn ragged_final_batch_matches_the_reference() {
        // 39 requests through a max-batch-32 server: one full flush plus a
        // ragged 7-row tail. Both heights must agree with the row-at-a-time
        // reference path.
        let mut agent = Ddpg::new(tiny_cfg());
        let src = agent.snapshot();
        let mut policy = SnapshotPolicy::from_snapshot(&src);
        policy.prewarm(32);
        let all = random_states(39, 9, 0x2A);
        let mut out = Matrix::default();
        let mut checked = 0;
        for chunk_start in (0..39).step_by(32) {
            let height = (39 - chunk_start).min(32);
            let mut chunk = Matrix::zeros(height, 9);
            for r in 0..height {
                chunk.row_mut(r).copy_from_slice(all.row(chunk_start + r));
            }
            policy.act_batch_into(&chunk, &mut out);
            for r in 0..height {
                let reference = agent.act(all.row(chunk_start + r));
                for (a, b) in out.row(r).iter().zip(&reference) {
                    assert!((a - b).abs() < 1e-6, "row {}: {a} vs {b}", chunk_start + r);
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 39);
    }

    #[test]
    fn large_batch_matches_row_at_a_time() {
        // 200 rows go through the same single forward pass as 1 or 32; it
        // must agree with the per-row reference exactly like they do.
        let mut agent = Ddpg::new(tiny_cfg());
        let src = agent.snapshot();
        let mut policy = SnapshotPolicy::from_snapshot(&src);
        policy.prewarm(256);
        let states = random_states(200, 9, 0x77);
        let mut out = Matrix::default();
        policy.act_batch_into(&states, &mut out);
        assert_eq!((out.rows(), out.cols()), (200, 4));
        for r in 0..200 {
            let reference = agent.act(states.row(r));
            for (a, b) in out.row(r).iter().zip(&reference) {
                assert!((a - b).abs() < 1e-6, "row {r}: {a} vs {b}");
                assert!((0.0..=1.0).contains(a));
            }
        }
    }

    #[test]
    fn single_row_wrappers_match_the_agent() {
        let mut agent = Ddpg::new(tiny_cfg());
        let src = agent.snapshot();
        let mut policy = SnapshotPolicy::from_snapshot(&src);
        let states = random_states(3, 9, 0xD0);
        for r in 0..3 {
            let got = policy.act_row(states.row(r));
            let reference = agent.act(states.row(r));
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }
}
