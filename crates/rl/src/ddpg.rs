//! Deep Deterministic Policy Gradient (Section 4.1, Algorithm 1, Table 5).
//!
//! The actor maps the 63-metric state to a knob vector in `[0, 1]^m`
//! (denormalized to knob domains by the tuner); the critic scores
//! `(state, action)` pairs. Training follows Algorithm 1 with the two
//! standard stabilizers of the original DDPG paper \[29\]: target networks
//! with Polyak updates and (optionally prioritized) experience replay.
//!
//! Two implementation notes. First, Table 5's critic starts with a
//! "parallel full connection 128+128" over state and action; a single dense
//! layer over the concatenated `[state | action]` vector strictly subsumes
//! that structure (parallel heads are the special case with the
//! cross-blocks zeroed), so the critic here is a plain MLP over the
//! concatenation. Second, the actor's output layer is *linear* with actions
//! clamped into `[0, 1]` at act time and trained with inverting gradients
//! (Hausknecht & Stone, 2016) rather than a squashing activation: a sigmoid
//! output saturates irrecoverably when early critic gradients are large,
//! which kills exactly the high-dimensional knob spaces the paper targets.

use crate::batch::TransitionBatch;
use crate::env::Transition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{
    Adam, AdamState, BatchNorm, Dense, Dropout, Init, Layer, Matrix, Mlp, NetState, Param, Relu,
    Tanh, PAPER_WEIGHT_INIT,
};

/// DDPG hyper-parameters. Defaults follow the paper: learning rate 0.001
/// (Table 4), discount 0.99 (Table 4), the Table 5 layer sizes, and dropout
/// 0.3.
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// State dimensionality (63 for CDBTune).
    pub state_dim: usize,
    /// Action dimensionality (number of tuned knobs).
    pub action_dim: usize,
    /// Actor hidden widths (Table 5 default `[128, 128, 64]`).
    pub actor_hidden: Vec<usize>,
    /// Critic hidden widths over the `[state|action]` concatenation
    /// (Table 5 default `[256, 64, 16]`).
    pub critic_hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak coefficient for target-network updates.
    pub tau: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Dropout probability in both networks.
    pub dropout: f32,
    /// RNG seed (weights, dropout).
    pub seed: u64,
}

impl DdpgConfig {
    /// The paper's configuration for a given state/action size.
    pub fn paper(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            actor_hidden: vec![128, 128, 64],
            critic_hidden: vec![256, 64, 16],
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            gamma: 0.99,
            tau: 0.005,
            batch_size: 32,
            dropout: 0.3,
            seed: 0,
        }
    }
}

/// Statistics from one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Critic MSE loss.
    pub critic_loss: f32,
    /// Mean Q value of the batch under the current critic.
    pub mean_q: f32,
    /// Mean absolute TD error (feeds prioritized replay).
    pub mean_td_error: f32,
}

/// Serializable snapshot of all four networks (the "model" the paper trains
/// offline once and reuses for every online tuning request, §2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgSnapshot {
    /// Config used to build the networks.
    pub config: DdpgConfig,
    /// Actor weights.
    pub actor: NetState,
    /// Critic weights.
    pub critic: NetState,
    /// Actor target weights.
    pub actor_target: NetState,
    /// Critic target weights.
    pub critic_target: NetState,
}

impl DdpgSnapshot {
    /// State dimension (observation length) the networks were built for.
    pub fn state_dim(&self) -> usize {
        self.config.state_dim
    }

    /// Action dimension (knob count) the networks were built for.
    pub fn action_dim(&self) -> usize {
        self.config.action_dim
    }

    /// Checks that [`Ddpg::from_snapshot`] will accept this snapshot: a
    /// dropout probability and batch size the builders take, and in all
    /// four networks exactly the layer shapes `config` builds. A snapshot
    /// decoded from a file goes through this first, so a damaged file is an
    /// error at the reader, not an assert (or an allocation sized by a bad
    /// field) in the network code: every width is compared against a
    /// matrix already in memory.
    pub fn validate(&self) -> Result<(), String> {
        let cfg = &self.config;
        if !(0.0..1.0).contains(&cfg.dropout) {
            return Err(format!("dropout {} is outside [0, 1)", cfg.dropout));
        }
        if cfg.batch_size > MAX_BATCH_SIZE {
            return Err(format!("batch size {} exceeds {MAX_BATCH_SIZE}", cfg.batch_size));
        }
        let critic_in = cfg
            .state_dim
            .checked_add(cfg.action_dim)
            .ok_or_else(|| "state_dim + action_dim overflows".to_string())?;
        let actor = state_shapes(cfg.state_dim, &cfg.actor_hidden, cfg.action_dim, true, false);
        let critic = state_shapes(critic_in, &cfg.critic_hidden, 1, false, false);
        for (name, net, want) in [
            ("actor", &self.actor, &actor),
            ("critic", &self.critic, &critic),
            ("actor_target", &self.actor_target, &actor),
            ("critic_target", &self.critic_target, &critic),
        ] {
            let found = net
                .layers
                .iter()
                .map(|l| l.iter().map(|m| (m.rows(), m.cols())).collect::<Vec<_>>());
            if !found.eq(want.iter().cloned()) {
                return Err(format!("{name} layer shapes do not match the snapshot's config"));
            }
        }
        Ok(())
    }
}

/// Everything an agent carries from one training step to the next: the
/// inference [`DdpgSnapshot`], both optimizers' step counts and moments, and
/// the words of its random streams. [`Ddpg::from_learner_state`] continues
/// training exactly where [`Ddpg::learner_state`] left it, where
/// [`Ddpg::from_snapshot`] restarts the optimizers and the streams.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerState {
    /// The four networks.
    pub snapshot: DdpgSnapshot,
    /// The actor's optimizer.
    pub actor_opt: AdamState,
    /// The critic's optimizer.
    pub critic_opt: AdamState,
    /// The target-policy smoothing stream.
    pub smoothing_rng: u64,
    /// The dropout layers' streams: the actor's, then the critic's.
    pub dropout_rngs: Vec<u64>,
}

impl LearnerState {
    /// Checks that [`Ddpg::from_learner_state`] will accept this state: a
    /// snapshot [`DdpgSnapshot::validate`] accepts, moments shaped like the
    /// parameters they track (none before the first step), and one stream
    /// word per dropout layer.
    pub fn validate(&self) -> Result<(), String> {
        self.snapshot.validate()?;
        let cfg = &self.snapshot.config;
        let (ds, da) = (cfg.state_dim, cfg.action_dim);
        let actor = state_shapes(ds, &cfg.actor_hidden, da, true, true).concat();
        let critic = state_shapes(ds + da, &cfg.critic_hidden, 1, false, true).concat();
        for (name, opt, shapes) in
            [("actor_opt", &self.actor_opt, actor), ("critic_opt", &self.critic_opt, critic)]
        {
            let fits = |ms: &[Matrix]| {
                ms.is_empty() || ms.iter().map(|m| (m.rows(), m.cols())).eq(shapes.iter().copied())
            };
            if opt.m.len() != opt.v.len() || !fits(&opt.m) || !fits(&opt.v) {
                return Err(format!("{name} moments do not match the networks' parameters"));
            }
        }
        // build_actor puts dropout after its second hidden layer, build_critic after its first.
        let dropouts =
            usize::from(cfg.actor_hidden.len() >= 2) + usize::from(!cfg.critic_hidden.is_empty());
        match self.dropout_rngs.len() {
            n if n == dropouts => Ok(()),
            n => Err(format!("{n} dropout streams for {dropouts} dropout layers")),
        }
    }
}

/// Largest minibatch [`DdpgSnapshot::validate`] accepts (the paper trains
/// at 16–32): [`Ddpg::new`] pre-sizes its arenas for this many rows.
const MAX_BATCH_SIZE: usize = 1 << 16;

/// The state-matrix shapes, layer by layer, of the network
/// [`build_actor`] (`actor`) or [`build_critic`] makes for these widths:
/// the same walk without allocating a weight. `snapshot_of_a_fresh_agent_
/// validates` pins the two together. With `params_only`, only the shapes
/// of the learnable parameters, which the optimizer's moments follow.
fn state_shapes(
    input: usize,
    hidden: &[usize],
    output: usize,
    actor: bool,
    params_only: bool,
) -> Vec<Vec<(usize, usize)>> {
    let dense = |i, o| vec![(i, o), (1, o)];
    let mut layers = Vec::new();
    let mut prev = input;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(dense(prev, h));
        layers.push(Vec::new()); // activation
        match (i, actor) {
            // batch norm: γ and β, then the running mean and variance
            (0, true) => layers.push(vec![(1, h); if params_only { 2 } else { 4 }]),
            (1, true) | (0, false) => layers.push(Vec::new()), // dropout
            _ => {}
        }
        prev = h;
    }
    layers.push(dense(prev, output));
    layers
}

/// Reusable per-step tensors owned by the agent so a steady-state
/// [`Ddpg::train_step_batch`] performs zero heap allocations. All buffers
/// are resized in place; see DESIGN.md §11.
#[derive(Default)]
struct DdpgScratch {
    /// `[state | action]` critic input (also reused for the actor phase
    /// with the action columns overwritten in place).
    sa: Matrix,
    /// `[next_state | target_action]` target-critic input.
    s2a2: Matrix,
    /// Smoothed target action, copied out of the target actor's arena.
    a2: Matrix,
    /// Current-policy action, copied out of the actor's arena.
    a_pred: Matrix,
    /// Bootstrap targets `y` (b x 1).
    y: Matrix,
    /// Critic loss gradient (b x 1).
    grad: Matrix,
    /// Policy-gradient seed `-1/b` (b x 1).
    up: Matrix,
    /// Inverting-gradients actor seed (b x action_dim).
    g_action: Matrix,
    /// One-row input staging for [`Ddpg::act`].
    one_row: Matrix,
    /// Staging batch for the slice-of-refs [`Ddpg::train_step`] wrapper.
    compat: TransitionBatch,
}

/// The DDPG agent.
pub struct Ddpg {
    cfg: DdpgConfig,
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    smoothing_rng: StdRng,
    scratch: DdpgScratch,
}

/// Where [`build_actor`] and [`build_critic`] take a network's parameters
/// from.
pub(crate) enum Weights<'a> {
    /// Sample Table 4's initializers from this RNG ([`Ddpg::new`]).
    Sample(&'a mut StdRng),
    /// Copy them out of a snapshot, layer by layer ([`Ddpg::from_snapshot`]):
    /// nothing is sampled only to be overwritten.
    Load(&'a NetState),
    /// [`Weights::Load`] into an [`Mlp::inference_only`] network: the target
    /// networks and the serving policy, which only ever run forward, carry
    /// no gradient and no backward scratch.
    Inference(&'a NetState),
}

impl Weights<'_> {
    /// Layer `layer` of the network: a dense `in_dim x out_dim` layer.
    fn dense(&mut self, layer: usize, in_dim: usize, out_dim: usize, init: Init) -> Box<dyn Layer> {
        match self {
            Weights::Sample(rng) => Box::new(Dense::new(in_dim, out_dim, init, *rng)),
            Weights::Load(net) | Weights::Inference(net) => {
                let Some([w, b]) = net.layers.get(layer).map(Vec::as_slice) else {
                    // lint:allow(panic) reason=from_snapshot documents a panic on a mismatched snapshot
                    panic!("snapshot layer {layer} is not a dense layer")
                };
                assert_eq!((w.rows(), w.cols()), (in_dim, out_dim), "snapshot layer {layer} shape");
                let param = if matches!(self, Weights::Inference(_)) { Param::without_grad } else { Param::new };
                Box::new(Dense::from_params(param(w.clone()), param(b.clone())))
            }
        }
    }

    /// Layer `layer` of the network: batch norm over `dim` features.
    fn batch_norm(&self, layer: usize, dim: usize) -> Box<dyn Layer> {
        let mut bn = BatchNorm::new(dim);
        if let Weights::Load(net) | Weights::Inference(net) = self {
            bn.load_state(net.layers.get(layer).map_or(&[], Vec::as_slice));
        }
        Box::new(bn)
    }

    /// The finished network; a snapshot must have had exactly its layers.
    fn finish(&self, layers: Vec<Box<dyn Layer>>) -> Mlp {
        if let Weights::Load(net) | Weights::Inference(net) = self {
            assert_eq!(net.layers.len(), layers.len(), "snapshot layer count");
        }
        if matches!(self, Weights::Inference(_)) {
            Mlp::inference_only(layers)
        } else {
            Mlp::new(layers)
        }
    }
}

pub(crate) fn build_actor(cfg: &DdpgConfig, weights: &mut Weights<'_>, seed_salt: u64) -> Mlp {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = cfg.state_dim;
    for (i, &h) in cfg.actor_hidden.iter().enumerate() {
        layers.push(weights.dense(layers.len(), prev, h, PAPER_WEIGHT_INIT));
        match i {
            0 => {
                layers.push(Box::new(Relu()));
                layers.push(weights.batch_norm(layers.len(), h));
            }
            1 => {
                layers.push(Box::new(Tanh()));
                layers.push(Box::new(Dropout::new(cfg.dropout, cfg.seed ^ seed_salt)));
            }
            _ => layers.push(Box::new(Tanh())),
        }
        prev = h;
    }
    // Linear output, clamped to the [0, 1] knob box at act time and kept
    // in-box during training by inverting gradients.
    layers.push(weights.dense(layers.len(), prev, cfg.action_dim, PAPER_WEIGHT_INIT));
    weights.finish(layers)
}

fn build_critic(cfg: &DdpgConfig, weights: &mut Weights<'_>, seed_salt: u64) -> Mlp {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = cfg.state_dim + cfg.action_dim;
    for (i, &h) in cfg.critic_hidden.iter().enumerate() {
        layers.push(weights.dense(layers.len(), prev, h, PAPER_WEIGHT_INIT));
        match i {
            0 => {
                layers.push(Box::new(Relu()));
                layers.push(Box::new(Dropout::new(cfg.dropout, cfg.seed ^ seed_salt ^ 0xC1)));
            }
            _ => layers.push(Box::new(Tanh())),
        }
        prev = h;
    }
    layers.push(weights.dense(layers.len(), prev, 1, Init::XavierUniform));
    weights.finish(layers)
}

impl Ddpg {
    /// Builds an agent (all four networks, with targets initialized to the
    /// online networks). Network and agent scratch arenas are pre-sized for
    /// `cfg.batch_size` minibatches so the first step already runs warm.
    pub fn new(cfg: DdpgConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let actor = build_actor(&cfg, &mut Weights::Sample(&mut rng), 0xA0);
        let critic = build_critic(&cfg, &mut Weights::Sample(&mut rng), 0xB0);
        // The targets start as copies of the online networks.
        let actor_target = build_actor(&cfg, &mut Weights::Inference(&actor.state()), 0xA1);
        let critic_target = build_critic(&cfg, &mut Weights::Inference(&critic.state()), 0xB1);
        Self::assemble(cfg, actor, critic, actor_target, critic_target)
    }

    /// The agent around four built networks: fresh optimizers and RNG
    /// streams, every arena pre-sized for `cfg.batch_size` rows.
    fn assemble(
        cfg: DdpgConfig,
        mut actor: Mlp,
        mut critic: Mlp,
        mut actor_target: Mlp,
        mut critic_target: Mlp,
    ) -> Self {
        let b = cfg.batch_size.max(1);
        actor.prewarm(b, cfg.state_dim);
        actor_target.prewarm(b, cfg.state_dim);
        critic.prewarm(b, cfg.state_dim + cfg.action_dim);
        critic_target.prewarm(b, cfg.state_dim + cfg.action_dim);
        let actor_opt = Adam::new(cfg.actor_lr);
        let critic_opt = Adam::new(cfg.critic_lr);
        let smoothing_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5A5A);
        Self {
            cfg,
            actor,
            actor_target,
            critic,
            critic_target,
            actor_opt,
            critic_opt,
            smoothing_rng,
            scratch: DdpgScratch::default(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &DdpgConfig {
        &self.cfg
    }

    /// Scales both learning rates (online fine-tuning uses a fraction of
    /// the offline rates so a handful of samples cannot wreck the policy).
    pub fn scale_learning_rates(&mut self, factor: f32) {
        self.actor_opt.set_learning_rate(self.cfg.actor_lr * factor);
        self.critic_opt.set_learning_rate(self.cfg.critic_lr * factor);
    }

    /// Deterministic action for a state (evaluation mode; the
    /// "recommendation time" of Table 2).
    pub fn act(&mut self, state: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.cfg.state_dim, "state width mismatch");
        self.scratch.one_row.resize(1, self.cfg.state_dim);
        self.scratch.one_row.as_mut_slice().copy_from_slice(state);
        self.actor
            .forward_ref(&self.scratch.one_row, false)
            .row(0)
            .iter()
            .map(|x| x.clamp(0.0, 1.0))
            .collect()
    }

    /// One Algorithm-1 training step on a slice of borrowed transitions.
    ///
    /// Compatibility wrapper: stages the slice into an internal
    /// [`TransitionBatch`] and delegates to [`Ddpg::train_step_batch`],
    /// which is the allocation-free path replay buffers sample into
    /// directly.
    pub fn train_step(
        &mut self,
        batch: &[&Transition],
        is_weights: Option<&[f32]>,
        td_out: Option<&mut Vec<f32>>,
    ) -> TrainStats {
        // Take the staging batch out of the agent so filling it and then
        // borrowing the agent mutably for the step do not conflict.
        let mut staged = std::mem::take(&mut self.scratch.compat);
        staged.begin(batch.len(), self.cfg.state_dim, self.cfg.action_dim);
        for t in batch {
            staged.push(t);
        }
        let stats = self.train_step_batch(&staged, is_weights, td_out);
        self.scratch.compat = staged;
        stats
    }

    /// One Algorithm-1 training step on a packed minibatch. `is_weights`
    /// are importance weights from prioritized replay (uniform if `None`).
    /// Returns stats plus per-sample TD errors via `td_out` when provided.
    ///
    /// This is the hot path: every intermediate tensor lives in the agent's
    /// scratch arena or the networks' own arenas, so a steady-state call
    /// performs zero heap allocations (enforced by
    /// `crates/rl/tests/zero_alloc.rs`).
    pub fn train_step_batch(
        &mut self,
        batch: &TransitionBatch,
        is_weights: Option<&[f32]>,
        mut td_out: Option<&mut Vec<f32>>,
    ) -> TrainStats {
        let b = batch.len();
        assert!(b > 0, "empty minibatch");
        assert_eq!(b, batch.rows(), "partially filled minibatch");
        let ds = self.cfg.state_dim;
        let da = self.cfg.action_dim;
        assert_eq!(batch.states().cols(), ds, "state width mismatch");
        assert_eq!(batch.actions().cols(), da, "action width mismatch");

        // Steps 2–4: bootstrap target values through the target networks,
        // with target-policy smoothing (clipped noise on the target action)
        // to damp critic over-estimation at out-of-distribution actions.
        self.scratch.a2.copy_from(self.actor_target.forward_ref(batch.next_states(), false));
        for x in self.scratch.a2.as_mut_slice() {
            let noise: f32 = (self.smoothing_rng.gen::<f32>() - 0.5) * 0.1;
            *x = (*x + noise.clamp(-0.05, 0.05)).clamp(0.0, 1.0);
        }
        Matrix::hconcat_into(batch.next_states(), &self.scratch.a2, &mut self.scratch.s2a2);
        self.scratch.y.resize(b, 1);
        {
            let q2 = self.critic_target.forward_ref(&self.scratch.s2a2, false);
            for i in 0..b {
                let bootstrap =
                    if batch.done()[i] { 0.0 } else { self.cfg.gamma * q2[(i, 0)] };
                self.scratch.y[(i, 0)] = batch.rewards()[i] + bootstrap;
            }
        }

        // Steps 5–6: critic regression toward y (importance-weighted MSE).
        Matrix::hconcat_into(batch.states(), batch.actions(), &mut self.scratch.sa);
        self.scratch.grad.resize(b, 1);
        let mut loss = 0.0f32;
        let mut td_sum = 0.0f32;
        if let Some(out) = td_out.as_deref_mut() {
            out.clear();
        }
        {
            let q = self.critic.forward_ref(&self.scratch.sa, true);
            for i in 0..b {
                let w = is_weights.map(|ws| ws[i]).unwrap_or(1.0);
                let td = q[(i, 0)] - self.scratch.y[(i, 0)];
                loss += w * td * td;
                self.scratch.grad[(i, 0)] = 2.0 * w * td / b as f32;
                td_sum += td.abs();
                if let Some(out) = td_out.as_deref_mut() {
                    out.push(td);
                }
            }
        }
        loss /= b as f32;
        // The critic fit consumes the critic's weight gradients only, so its
        // first layer skips dL/d[s | a].
        self.critic.zero_grad();
        self.critic.backward_params(&self.scratch.grad);
        self.critic.clip_grad_norm(5.0);
        self.critic_opt.step(&mut self.critic);

        // Step 7: policy gradient — push the actor toward actions the
        // critic scores higher. dJ/dθ = ∇a Q(s, a)|a=µ(s) · ∇θ µ(s).
        // The [state | action] buffer still holds the batch states, so only
        // the action columns need rewriting with the clamped policy output.
        self.scratch.a_pred.copy_from(self.actor.forward_ref(batch.states(), true));
        for r in 0..b {
            for (c, dst) in self.scratch.sa.row_mut(r)[ds..].iter_mut().enumerate() {
                *dst = self.scratch.a_pred[(r, c)].clamp(0.0, 1.0);
            }
        }
        let mean_q;
        {
            let q_pi = self.critic.forward_ref(&self.scratch.sa, true);
            mean_q = q_pi.mean();
        }
        self.scratch.up.resize(b, 1);
        self.scratch.up.fill(-1.0 / b as f32); // maximize mean Q
        // The actor pass consumes dQ/d[s | a] only: the critic's weight
        // gradients are neither computed nor touched (the critic was
        // already stepped above), so there is nothing to zero or discard.
        let g_input = self.critic.backward_input(&self.scratch.up);
        // Split off the action columns of the critic's input gradient and
        // apply inverting gradients: scale by the remaining headroom toward
        // the boundary the gradient pushes at, reversing once the
        // (unclamped) output leaves the box. Keeps actions in [0, 1]
        // without a saturating activation.
        self.scratch.g_action.resize(b, da);
        for r in 0..b {
            for (c, dst) in self.scratch.g_action.row_mut(r).iter_mut().enumerate() {
                let a = self.scratch.a_pred[(r, c)];
                let g = g_input[(r, ds + c)].clamp(-1.0, 1.0);
                // Minimizing L = -Q: g < 0 increases a, g > 0 decreases it.
                *dst = if g < 0.0 { g * (1.0 - a) } else { g * a };
            }
        }
        // The actor step consumes the actor's weight gradients only, so its
        // first layer skips dL/ds.
        self.actor.zero_grad();
        self.actor.backward_params(&self.scratch.g_action);
        self.actor.clip_grad_norm(5.0);
        self.actor_opt.step(&mut self.actor);

        // Target tracking (layer-pairwise Polyak blend, no snapshots).
        self.actor_target.soft_update_from(&self.actor, self.cfg.tau);
        self.critic_target.soft_update_from(&self.critic, self.cfg.tau);

        TrainStats { critic_loss: loss, mean_q, mean_td_error: td_sum / b as f32 }
    }

    /// Captures the model for persistence (the pre-trained "standard model"
    /// shipped from offline training to online tuning, §2.1.2).
    pub fn snapshot(&self) -> DdpgSnapshot {
        DdpgSnapshot {
            config: self.cfg.clone(),
            actor: self.actor.state(),
            critic: self.critic.state(),
            actor_target: self.actor_target.state(),
            critic_target: self.critic_target.state(),
        }
    }

    /// [`Ddpg::snapshot`] by move: the agent is consumed and its weights
    /// leave without a copy. What an online request returns as its
    /// fine-tuned model.
    pub fn into_snapshot(self) -> DdpgSnapshot {
        DdpgSnapshot {
            config: self.cfg,
            actor: self.actor.into_state(),
            critic: self.critic.into_state(),
            actor_target: self.actor_target.into_state(),
            critic_target: self.critic_target.into_state(),
        }
    }

    /// The agent's whole training state, drawing nothing
    /// ([`Ddpg::from_learner_state`] takes it back).
    pub fn learner_state(&self) -> LearnerState {
        LearnerState {
            snapshot: self.snapshot(),
            actor_opt: self.actor_opt.state(),
            critic_opt: self.critic_opt.state(),
            smoothing_rng: self.smoothing_rng.state(),
            dropout_rngs: [self.actor.rng_words(), self.critic.rng_words()].concat(),
        }
    }

    /// The agent [`Ddpg::learner_state`] described: its next training step
    /// is the one the original agent would have taken, bit for bit.
    ///
    /// # Panics
    /// Panics where [`LearnerState::validate`] reports an error.
    pub fn from_learner_state(state: &LearnerState) -> Self {
        let mut agent = Self::from_snapshot(&state.snapshot);
        agent.actor_opt = Adam::with_state(agent.cfg.actor_lr, state.actor_opt.clone());
        agent.critic_opt = Adam::with_state(agent.cfg.critic_lr, state.critic_opt.clone());
        agent.smoothing_rng = StdRng::from_state(state.smoothing_rng);
        let (actor, critic) = state.dropout_rngs.split_at(agent.actor.rng_words().len());
        agent.actor.set_rng_words(actor);
        agent.critic.set_rng_words(critic);
        agent
    }

    /// Rebuilds an agent from a snapshot alone — the same agent, bit for
    /// bit, as `Ddpg::new(snap.config)` with the snapshot's weights loaded
    /// over its four networks, but the networks are built straight
    /// from the snapshot's matrices: no weight is sampled only to be
    /// overwritten. Every online request and daemon session pays this.
    ///
    /// # Panics
    /// Panics if a network's layers do not match the config (what
    /// [`DdpgSnapshot::validate`] reports as an error).
    pub fn from_snapshot(snap: &DdpgSnapshot) -> Self {
        let cfg = snap.config.clone();
        let actor = build_actor(&cfg, &mut Weights::Load(&snap.actor), 0xA0);
        let critic = build_critic(&cfg, &mut Weights::Load(&snap.critic), 0xB0);
        let actor_target = build_actor(&cfg, &mut Weights::Inference(&snap.actor_target), 0xA1);
        let critic_target = build_critic(&cfg, &mut Weights::Inference(&snap.critic_target), 0xB1);
        Self::assemble(cfg, actor, critic, actor_target, critic_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenv::TargetEnv;
    use crate::env::Environment;
    use crate::noise::{perturb, GaussianNoise, NoiseProcess};
    use crate::replay::ReplayBuffer;
    use rand::Rng;

    /// The restore [`Ddpg::from_snapshot`] must equal: the snapshot's
    /// weights loaded over an identically configured agent.
    fn load_snapshot(agent: &mut Ddpg, snap: &DdpgSnapshot) {
        agent.actor.load_state(&snap.actor);
        agent.critic.load_state(&snap.critic);
        agent.actor_target.load_state(&snap.actor_target);
        agent.critic_target.load_state(&snap.critic_target);
    }

    fn tiny_cfg() -> DdpgConfig {
        DdpgConfig {
            state_dim: 3,
            action_dim: 3,
            actor_hidden: vec![32, 16],
            critic_hidden: vec![32, 16],
            actor_lr: 3e-4,
            critic_lr: 2e-3,
            gamma: 0.3,
            tau: 0.01,
            batch_size: 32,
            dropout: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn act_outputs_unit_box_actions() {
        let mut agent = Ddpg::new(tiny_cfg());
        let a = agent.act(&[0.1, 0.5, 0.9]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)), "{a:?}");
    }

    #[test]
    fn frozen_weights_report_their_dimensions() {
        // The cdbtune model registry keys compatibility off these
        // accessors when matching persisted weights to a live session.
        let agent = Ddpg::new(tiny_cfg());
        let frozen = agent.snapshot();
        assert_eq!(frozen.state_dim(), 3);
        assert_eq!(frozen.action_dim(), 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_policy() {
        let mut agent = Ddpg::new(tiny_cfg());
        let mut agent2 = Ddpg::from_snapshot(&agent.snapshot());
        let s = [0.3, 0.6, 0.2];
        assert_eq!(agent.act(&s), agent2.act(&s));
    }

    #[test]
    fn from_snapshot_is_new_plus_load_snapshot_bit_for_bit() {
        // A trained snapshot (moved weights, batch-norm running stats, and
        // targets that differ from the online nets) into both routes, then
        // five training steps each: same RNG streams, same optimizer start.
        let cfg = DdpgConfig { dropout: 0.3, ..tiny_cfg() };
        let mut trained = Ddpg::new(cfg.clone());
        let batch: Vec<Transition> = (0..8)
            .map(|i| {
                let x = (i as f32) / 8.0;
                Transition {
                    state: vec![x, 1.0 - x, 0.5],
                    action: vec![x, 0.5, 1.0 - x],
                    reward: x - 0.5,
                    next_state: vec![1.0 - x, x, 0.5],
                    done: i % 3 == 0,
                }
            })
            .collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        for _ in 0..3 {
            let _ = trained.train_step(&refs, None, None);
        }
        let snap = trained.snapshot();
        let mut forked = Ddpg::from_snapshot(&snap);
        let mut loaded = Ddpg::new(cfg);
        load_snapshot(&mut loaded, &snap);
        assert!(forked.snapshot() == snap);
        for _ in 0..5 {
            let s1 = forked.train_step(&refs, Some(&[0.5f32; 8][..]), None);
            let s2 = loaded.train_step(&refs, Some(&[0.5f32; 8][..]), None);
            assert_eq!(s1, s2);
        }
        assert!(forked.snapshot() == loaded.snapshot(), "weights diverged after five steps");
        let probe = [0.3, 0.7, 0.1];
        let bits = |a: Vec<f32>| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(forked.act(&probe)), bits(loaded.act(&probe)));
    }

    #[test]
    fn an_agent_restored_from_its_learner_state_trains_on_bit_for_bit() {
        // Three updates, then the learner state out and back in: over five
        // more updates on the same batches the restored agent reaches the
        // same weights, Adam moments, smoothing draws and dropout masks as
        // the agent that was never interrupted.
        let cfg = DdpgConfig { dropout: 0.3, ..tiny_cfg() };
        let mut rng = StdRng::seed_from_u64(0x1EA);
        let batches: Vec<Vec<Transition>> = (0..8)
            .map(|_| {
                (0..8)
                    .map(|_| Transition {
                        state: (0..3).map(|_| rng.gen()).collect(),
                        action: (0..3).map(|_| rng.gen()).collect(),
                        reward: rng.gen_range(-1.0..1.0),
                        next_state: (0..3).map(|_| rng.gen()).collect(),
                        done: rng.gen_bool(0.2),
                    })
                    .collect()
            })
            .collect();
        let step = |agent: &mut Ddpg, batch: &[Transition]| {
            let refs: Vec<&Transition> = batch.iter().collect();
            agent.train_step(&refs, Some(&[0.75f32; 8][..]), None)
        };
        let mut uninterrupted = Ddpg::new(cfg);
        for batch in &batches[..3] {
            let _ = step(&mut uninterrupted, batch);
        }
        let state = uninterrupted.learner_state();
        state.validate().unwrap();
        assert_eq!(state.actor_opt.t, 3);
        assert_eq!(state.dropout_rngs.len(), 2, "one dropout layer in each network");
        let mut restored = Ddpg::from_learner_state(&state);
        assert!(restored.learner_state() == state, "the restore is not the state it was given");
        for batch in &batches[3..] {
            assert_eq!(step(&mut restored, batch), step(&mut uninterrupted, batch));
        }
        assert!(restored.learner_state() == uninterrupted.learner_state());
        // A restore through the snapshot alone restarts Adam and the
        // streams, and its next update already differs.
        let mut from_snapshot = Ddpg::from_snapshot(&state.snapshot);
        let mut again = Ddpg::from_learner_state(&state);
        assert_ne!(step(&mut from_snapshot, &batches[3]), step(&mut again, &batches[3]));
    }

    #[test]
    fn learner_state_validation_names_what_does_not_fit() {
        let mut agent = Ddpg::new(tiny_cfg());
        let t = Transition {
            state: vec![0.5; 3],
            action: vec![0.5; 3],
            reward: 1.0,
            next_state: vec![0.5; 3],
            done: false,
        };
        let _ = agent.train_step(&[&t, &t], None, None);
        let good = agent.learner_state();
        good.validate().unwrap();
        let mut fresh = Ddpg::new(tiny_cfg()).learner_state();
        assert_eq!(fresh.actor_opt.t, 0);
        fresh.validate().expect("no moments before the first step");
        fresh.actor_opt.m = good.actor_opt.m.clone();
        assert!(fresh.validate().unwrap_err().contains("actor_opt"), "m without v");
        let mut short = good.clone();
        short.critic_opt.m.pop();
        short.critic_opt.v.pop();
        assert!(short.validate().unwrap_err().contains("critic_opt"));
        let mut streams = good;
        streams.dropout_rngs.push(1);
        assert!(streams.validate().unwrap_err().contains("dropout"));
    }

    #[test]
    fn into_snapshot_equals_snapshot_bit_for_bit() {
        // A trained agent (batch norm and dropout in the nets, targets that
        // trail the online nets): moving the weights out yields exactly the
        // matrices copying them does.
        let cfg = DdpgConfig { dropout: 0.3, ..DdpgConfig::paper(3, 3) };
        let mut agent = Ddpg::new(cfg);
        let batch: Vec<Transition> = (0..8)
            .map(|i| {
                let x = (i as f32) / 8.0;
                Transition {
                    state: vec![x, 1.0 - x, 0.5],
                    action: vec![x, 0.5, 1.0 - x],
                    reward: x - 0.5,
                    next_state: vec![1.0 - x, x, 0.5],
                    done: i % 3 == 0,
                }
            })
            .collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        for _ in 0..4 {
            let _ = agent.train_step(&refs, None, None);
        }
        let copied = agent.snapshot();
        let moved = agent.into_snapshot();
        assert_eq!(moved.config, copied.config);
        let bits = |s: &DdpgSnapshot| -> Vec<Vec<u32>> {
            [&s.actor, &s.critic, &s.actor_target, &s.critic_target]
                .into_iter()
                .flat_map(|net| net.layers.iter().flatten())
                .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let shapes = |s: &DdpgSnapshot| -> Vec<Vec<(usize, usize)>> {
            [&s.actor, &s.critic, &s.actor_target, &s.critic_target]
                .into_iter()
                .flat_map(|net| &net.layers)
                .map(|layer| layer.iter().map(|m| (m.rows(), m.cols())).collect())
                .collect()
        };
        assert_eq!(shapes(&moved), shapes(&copied));
        assert_eq!(bits(&moved), bits(&copied));
    }

    #[test]
    fn target_networks_hold_no_gradient_on_either_build_path() {
        let agent = Ddpg::new(tiny_cfg());
        let restored = Ddpg::from_snapshot(&agent.snapshot());
        for mut a in [agent, restored] {
            let (mut online, mut target) = (0, 0);
            a.actor.visit_params(&mut |p| online += p.grad.as_slice().len());
            a.critic.visit_params(&mut |p| online += p.grad.as_slice().len());
            a.actor_target.visit_params(&mut |p| target += p.grad.as_slice().len());
            a.critic_target.visit_params(&mut |p| target += p.grad.as_slice().len());
            assert!(online > 0);
            assert_eq!(target, 0, "a target network carries gradients");
        }
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn a_backward_pass_through_a_target_network_panics() {
        let mut agent = Ddpg::new(tiny_cfg());
        let y = agent.critic_target.forward(&Matrix::filled(4, 6, 0.5), false);
        let _ = agent.critic_target.backward_ref(&y);
    }

    #[test]
    #[should_panic(expected = "snapshot layer count")]
    fn from_snapshot_refuses_a_mismatched_layer_count() {
        let mut snap = Ddpg::new(tiny_cfg()).snapshot();
        snap.critic.layers.push(Vec::new());
        let _ = Ddpg::from_snapshot(&snap);
    }

    #[test]
    fn snapshot_of_a_fresh_agent_validates() {
        for cfg in [tiny_cfg(), DdpgConfig::paper(63, 64), DdpgConfig::paper(63, 1)] {
            Ddpg::new(cfg).snapshot().validate().unwrap();
        }
    }

    #[test]
    fn validate_refuses_what_from_snapshot_would_panic_on() {
        let good = Ddpg::new(tiny_cfg()).snapshot();
        let mut wide = good.clone();
        wide.config.actor_hidden[0] += 1;
        assert!(wide.validate().unwrap_err().contains("actor"));
        let mut short = good.clone();
        short.critic_target.layers.pop();
        assert!(short.validate().unwrap_err().contains("critic_target"));
        let mut dropout = good.clone();
        dropout.config.dropout = 1.0;
        assert!(dropout.validate().is_err());
        let mut batch = good.clone();
        batch.config.batch_size = usize::MAX;
        assert!(batch.validate().is_err());
        let mut dims = good;
        dims.config.state_dim = usize::MAX;
        assert!(dims.validate().is_err());
    }

    #[test]
    fn train_step_reduces_critic_loss_on_fixed_batch() {
        let mut agent = Ddpg::new(tiny_cfg());
        let batch: Vec<Transition> = (0..32)
            .map(|i| {
                let x = (i as f32) / 32.0;
                Transition {
                    state: vec![x, 1.0 - x, 0.5],
                    action: vec![x, x, x],
                    reward: x,
                    next_state: vec![x, 1.0 - x, 0.5],
                    done: true, // no bootstrap: pure regression target
                }
            })
            .collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        let first = agent.train_step(&refs, None, None).critic_loss;
        let mut last = first;
        for _ in 0..300 {
            last = agent.train_step(&refs, None, None).critic_loss;
        }
        assert!(last < first * 0.2, "critic loss {first} -> {last}");
    }

    #[test]
    fn td_errors_are_reported_per_sample() {
        let mut agent = Ddpg::new(tiny_cfg());
        let t = Transition {
            state: vec![0.0; 3],
            action: vec![0.5; 3],
            reward: 1.0,
            next_state: vec![0.0; 3],
            done: false,
        };
        let refs = vec![&t, &t, &t];
        let mut tds = Vec::new();
        let stats = agent.train_step(&refs, None, Some(&mut tds));
        assert_eq!(tds.len(), 3);
        let mean = tds.iter().map(|x| x.abs()).sum::<f32>() / 3.0;
        assert!((stats.mean_td_error - mean).abs() < 1e-5);
    }

    #[test]
    fn learns_target_env_policy() {
        // The classic smoke test: reward peaks when action == target; a
        // trained actor must move its action toward the target.
        let target = vec![0.8, 0.2, 0.6];
        let mut env = TargetEnv::new(target.clone(), 10);
        let mut agent = Ddpg::new(tiny_cfg());
        let mut replay = ReplayBuffer::new(10_000);
        let mut noise = GaussianNoise::new(3, 0.4, 0.02, 0.99);
        let mut rng = StdRng::seed_from_u64(3);

        let initial_action = agent.act(&env.reset());
        let initial_dist: f32 = initial_action
            .iter()
            .zip(&target)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f32>()
            .sqrt();

        let mut state = env.reset();
        for step in 0..3000 {
            let raw = agent.act(&state);
            let action = perturb(&raw, &noise.sample(&mut rng));
            let result = env.step(&action);
            replay.push(Transition {
                state: state.clone(),
                action,
                reward: result.reward,
                next_state: result.next_state.clone(),
                done: result.done,
            });
            state = if result.done { env.reset() } else { result.next_state };
            if replay.len() >= 64 {
                let batch = replay.sample(32, &mut rng);
                let _ = agent.train_step(&batch, None, None);
            }
            if step % 20 == 0 {
                noise.decay();
            }
        }
        let final_action = agent.act(&env.reset());
        let final_dist: f32 = final_action
            .iter()
            .zip(&target)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f32>()
            .sqrt();
        assert!(
            final_dist < initial_dist * 0.7 && final_dist < 0.32,
            "policy did not move toward target: {initial_dist} -> {final_dist} ({final_action:?})"
        );
    }

    #[test]
    fn batch_path_matches_slice_path() {
        // The slice-of-refs wrapper and the packed-batch hot path must be
        // bit-identical: same networks, same RNG draws, same arithmetic.
        let mut a1 = Ddpg::new(tiny_cfg());
        let mut a2 = Ddpg::new(tiny_cfg());
        let batch: Vec<Transition> = (0..8)
            .map(|i| {
                let x = (i as f32) / 8.0;
                Transition {
                    state: vec![x, 1.0 - x, 0.5],
                    action: vec![x, 0.5, 1.0 - x],
                    reward: x - 0.5,
                    next_state: vec![1.0 - x, x, 0.5],
                    done: i % 3 == 0,
                }
            })
            .collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        let mut packed = crate::batch::TransitionBatch::new();
        packed.begin(batch.len(), 3, 3);
        for t in &batch {
            packed.push(t);
        }
        for _ in 0..5 {
            let s1 = a1.train_step(&refs, None, None);
            let s2 = a2.train_step_batch(&packed, None, None);
            assert_eq!(s1, s2);
        }
        let probe = [0.3, 0.7, 0.1];
        assert_eq!(a1.act(&probe), a2.act(&probe));
    }

    #[test]
    fn train_step_weights_bit_identical_for_the_same_seed() {
        // Paper-sized layers at a batch of 64: two agents built from the
        // same config and fed the same batch must end on identical weights
        // and act identically, bit for bit.
        let cfg = DdpgConfig::paper(63, 16);
        let mut packed = crate::batch::TransitionBatch::new();
        packed.begin(64, 63, 16);
        let mut rng = StdRng::seed_from_u64(0x517);
        let transitions: Vec<Transition> = (0..64)
            .map(|_| Transition {
                state: (0..63).map(|_| rng.gen_range(0.0..1.0)).collect(),
                action: (0..16).map(|_| rng.gen_range(0.0..1.0)).collect(),
                reward: rng.gen_range(-1.0f32..1.0),
                next_state: (0..63).map(|_| rng.gen_range(0.0..1.0)).collect(),
                done: false,
            })
            .collect();
        for t in &transitions {
            packed.push(t);
        }
        let run = || {
            let mut agent = Ddpg::new(cfg.clone());
            for _ in 0..3 {
                let _ = agent.train_step_batch(&packed, None, None);
            }
            let probe: Vec<f32> = (0..63).map(|i| (i as f32) / 63.0).collect();
            let action = agent.act(&probe);
            (agent.snapshot(), action)
        };
        let (m1, a1) = run();
        let (m2, a2) = run();
        assert!(m1 == m2, "weights diverged between two same-seed runs");
        for (x, y) in a1.iter().zip(&a2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn importance_weights_scale_gradients() {
        let mut a1 = Ddpg::new(tiny_cfg());
        let mut a2 = Ddpg::new(tiny_cfg());
        let t = Transition {
            state: vec![0.2; 3],
            action: vec![0.5; 3],
            reward: 2.0,
            next_state: vec![0.2; 3],
            done: true,
        };
        let refs = vec![&t];
        let s1 = a1.train_step(&refs, Some(&[1.0]), None);
        let s2 = a2.train_step(&refs, Some(&[0.1]), None);
        assert!((s1.critic_loss - 10.0 * s2.critic_loss).abs() < 1e-3);
    }

    #[test]
    fn mismatched_state_width_panics() {
        let mut agent = Ddpg::new(tiny_cfg());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = agent.act(&[0.0; 5]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn random_batches_do_not_nan() {
        let mut agent = Ddpg::new(tiny_cfg());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let batch: Vec<Transition> = (0..16)
                .map(|_| Transition {
                    state: (0..3).map(|_| rng.gen()).collect(),
                    action: (0..3).map(|_| rng.gen()).collect(),
                    reward: rng.gen_range(-100.0..100.0),
                    next_state: (0..3).map(|_| rng.gen()).collect(),
                    done: rng.gen_bool(0.1),
                })
                .collect();
            let refs: Vec<&Transition> = batch.iter().collect();
            let stats = agent.train_step(&refs, None, None);
            assert!(stats.critic_loss.is_finite());
            assert!(stats.mean_q.is_finite());
        }
    }
}
