//! The experience memory pool (§2.2.4).
//!
//! "Like the DBA's brain, it constantly accumulates data and replay\[s\]
//! experience." One interface over the two backends the paper uses: plain
//! uniform replay, and the prioritized replay \[38\] that §5.1 adds to halve
//! convergence time.
//!
//! Every learner feeds and replays the pool the same way — offline
//! training, the parallel cold start and online fine-tuning alike: a step's
//! transition comes from [`measured_transition`] (a degraded step yields
//! none), enters through [`MemoryPool::store`] (the one place an env reward
//! is scaled to the stored scale), and is learned from by
//! [`MemoryPool::learn`].

use crate::env::StepOutcome;
use crate::telemetry::ReplayTrace;
use rl::{Ddpg, PerStats, PrioritizedReplay, ReplayBuffer, Transition, TransitionBatch};

/// Which replay backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// Uniform random replay (§2.2.4).
    Uniform,
    /// Prioritized experience replay (§5.1, \[38\]).
    Prioritized,
}

/// Prioritized-replay hyper-parameters (\[38\]'s α and initial β), plumbed
/// from the trainer config instead of hardcoded in the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerConfig {
    /// Prioritization exponent α (0 = uniform, 1 = fully proportional).
    pub alpha: f64,
    /// Initial importance-sampling exponent β, annealed toward 1.
    pub beta: f64,
}

impl Default for PerConfig {
    fn default() -> Self {
        // The values \[38\] recommends for proportional prioritization.
        Self { alpha: 0.6, beta: 0.4 }
    }
}

/// Reusable minibatch buffers for [`MemoryPool::sample_into`]. Owned by the
/// training loop and refilled in place each update, so steady-state sampling
/// performs zero heap allocations regardless of backend.
#[derive(Default)]
pub struct BatchScratch {
    /// The packed minibatch tensors.
    pub batch: TransitionBatch,
    indices: Vec<usize>,
    weights: Vec<f32>,
    prioritized: bool,
    /// TD errors of the last update, fed back as priorities.
    td: Vec<f32>,
}

impl BatchScratch {
    /// Creates empty scratch; buffers grow on first sample and are reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Importance weights of the last sample (`None` for uniform replay).
    pub fn is_weights(&self) -> Option<&[f32]> {
        if self.prioritized {
            Some(&self.weights)
        } else {
            None
        }
    }

    /// Buffer slots of the last sample (`None` for uniform replay); feed TD
    /// errors back through [`MemoryPool::update_priorities`].
    pub fn sampled_indices(&self) -> Option<&[usize]> {
        if self.prioritized {
            Some(&self.indices)
        } else {
            None
        }
    }
}

/// The transition a step stores: `None` when the step was degraded (it
/// carries no measurement, so there is nothing to learn from), otherwise
/// `state → action → out.state` with the env's raw reward, which
/// [`MemoryPool::store`] scales.
pub fn measured_transition(state: &[f32], action: &[f32], out: &StepOutcome) -> Option<Transition> {
    (!out.degraded).then(|| Transition {
        state: state.to_vec(),
        action: action.to_vec(),
        reward: out.reward as f32,
        next_state: out.state.clone(),
        done: out.done,
    })
}

/// The memory pool.
pub enum MemoryPool {
    /// Uniform backend.
    Uniform(ReplayBuffer),
    /// Prioritized backend.
    Prioritized(PrioritizedReplay),
}

impl MemoryPool {
    /// Creates a pool of the given kind and capacity with default PER
    /// hyper-parameters.
    pub fn new(kind: MemoryKind, capacity: usize) -> Self {
        Self::with_per(kind, capacity, PerConfig::default())
    }

    /// Creates a pool with explicit PER hyper-parameters (ignored by the
    /// uniform backend).
    pub fn with_per(kind: MemoryKind, capacity: usize, per: PerConfig) -> Self {
        match kind {
            MemoryKind::Uniform => MemoryPool::Uniform(ReplayBuffer::new(capacity)),
            MemoryKind::Prioritized => {
                MemoryPool::Prioritized(PrioritizedReplay::new(capacity, per.alpha, per.beta))
            }
        }
    }

    /// Replay observability counters (`None` for the uniform backend).
    pub fn replay_stats(&self) -> Option<PerStats> {
        match self {
            MemoryPool::Uniform(_) => None,
            MemoryPool::Prioritized(p) => Some(p.stats()),
        }
    }

    /// Stored transition count.
    pub fn len(&self) -> usize {
        match self {
            MemoryPool::Uniform(b) => b.len(),
            MemoryPool::Prioritized(p) => p.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a transition.
    pub fn push(&mut self, t: Transition) {
        match self {
            MemoryPool::Uniform(b) => b.push(t),
            MemoryPool::Prioritized(p) => p.push(t),
        }
    }

    /// Stores a transition carrying a raw env reward, scaled by
    /// `reward_scale` (the model's [`crate::trainer::TrainedModel::reward_scale`]).
    pub fn store(&mut self, mut t: Transition, reward_scale: f32) {
        t.reward *= reward_scale;
        self.push(t);
    }

    /// Runs `updates` minibatch updates of `n` rows on `agent`: each samples
    /// into `scratch`, trains on the batch with its importance weights, and
    /// feeds the TD errors back as priorities. Returns the range of the
    /// drawn IS weights, `(1, 1)` for uniform replay.
    pub fn learn(
        &mut self,
        agent: &mut Ddpg,
        updates: usize,
        n: usize,
        rng: &mut impl rand::Rng,
        scratch: &mut BatchScratch,
    ) -> (f64, f64) {
        let (mut lo, mut hi) = (1.0f64, 1.0f64);
        for _ in 0..updates {
            // Sample straight into the reusable scratch tensors and train on
            // them in place — no transition clones, no per-update
            // allocations (DESIGN.md §11).
            self.sample_into(n, rng, scratch);
            let weights = scratch.prioritized.then_some(scratch.weights.as_slice());
            for &x in weights.unwrap_or_default() {
                lo = lo.min(f64::from(x));
                hi = hi.max(f64::from(x));
            }
            // lint:allow(panic) reason=the training kernel indexes scratch matrices it resizes to the asserted batch geometry
            let _ = agent.train_step_batch(&scratch.batch, weights, Some(&mut scratch.td));
            self.update_priorities(scratch.sampled_indices(), &scratch.td);
        }
        (lo, hi)
    }

    /// The pool's part of a step's trace event, with the step's IS-weight
    /// range as [`MemoryPool::learn`] returned it.
    pub fn trace(&self, (is_weight_min, is_weight_max): (f64, f64)) -> ReplayTrace {
        match self.replay_stats() {
            Some(s) => ReplayTrace {
                len: s.len as u64,
                beta: s.beta,
                max_priority: s.max_priority,
                is_weight_min,
                is_weight_max,
                fallback_hits: s.fallback_hits,
                tree_rebuilds: s.tree_rebuilds,
            },
            None => ReplayTrace {
                len: self.len() as u64,
                is_weight_min,
                is_weight_max,
                ..ReplayTrace::default()
            },
        }
    }

    /// Samples a minibatch into caller-owned scratch buffers (the zero-
    /// allocation path the training loop uses; see DESIGN.md §11).
    pub fn sample_into(&mut self, n: usize, rng: &mut impl rand::Rng, out: &mut BatchScratch) {
        match self {
            MemoryPool::Uniform(b) => {
                b.sample_into(n, rng, &mut out.batch);
                out.indices.clear();
                out.weights.clear();
                out.prioritized = false;
            }
            MemoryPool::Prioritized(p) => {
                p.sample_into(n, rng, &mut out.batch, &mut out.indices, &mut out.weights);
                out.prioritized = true;
            }
        }
    }

    /// Clones out every stored transition in slot order (crash-safe
    /// training checkpoints persist the pool this way; priorities are
    /// rebuilt as max-priority on reload, which re-anneals quickly).
    pub fn transitions(&self) -> Vec<Transition> {
        match self {
            MemoryPool::Uniform(b) => b.iter().cloned().collect(),
            MemoryPool::Prioritized(p) => p.iter().cloned().collect(),
        }
    }

    /// Feeds TD errors back after a train step (no-op for uniform).
    pub fn update_priorities(&mut self, indices: Option<&[usize]>, td_errors: &[f32]) {
        if let (MemoryPool::Prioritized(p), Some(idx)) = (self, indices) {
            p.update_priorities(idx, td_errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f32) -> Transition {
        Transition {
            state: vec![r],
            action: vec![r],
            reward: r,
            next_state: vec![r],
            done: false,
        }
    }

    #[test]
    fn uniform_pool_has_no_weights() {
        let mut pool = MemoryPool::new(MemoryKind::Uniform, 16);
        pool.push(t(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = BatchScratch::new();
        pool.sample_into(4, &mut rng, &mut scratch);
        assert!(scratch.is_weights().is_none());
        assert!(scratch.sampled_indices().is_none());
        assert_eq!(scratch.batch.len(), 4);
    }

    #[test]
    fn prioritized_pool_reports_metadata() {
        let mut pool = MemoryPool::new(MemoryKind::Prioritized, 16);
        for i in 0..8 {
            pool.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = BatchScratch::new();
        pool.sample_into(4, &mut rng, &mut scratch);
        assert_eq!(scratch.sampled_indices().unwrap().len(), 4);
        assert_eq!(scratch.is_weights().unwrap().len(), 4);
    }

    #[test]
    fn priority_updates_flow_through() {
        let mut pool = MemoryPool::new(MemoryKind::Prioritized, 8);
        for i in 0..8 {
            pool.push(t(i as f32));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = BatchScratch::new();
        pool.sample_into(4, &mut rng, &mut scratch);
        pool.update_priorities(scratch.sampled_indices(), &vec![9.0; scratch.batch.len()]);
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn transitions_round_trip_both_backends() {
        for kind in [MemoryKind::Uniform, MemoryKind::Prioritized] {
            let mut pool = MemoryPool::new(kind, 16);
            for i in 0..5 {
                pool.push(t(i as f32));
            }
            let out = pool.transitions();
            assert_eq!(out.len(), 5, "{kind:?}");
            let mut rebuilt = MemoryPool::new(kind, 16);
            for tr in out {
                rebuilt.push(tr);
            }
            assert_eq!(rebuilt.len(), 5, "{kind:?}");
        }
    }

    #[test]
    fn per_hyperparameters_are_plumbed_not_hardcoded() {
        let pool =
            MemoryPool::with_per(MemoryKind::Prioritized, 8, PerConfig { alpha: 0.9, beta: 0.7 });
        let stats = pool.replay_stats().expect("prioritized pool reports stats");
        assert!((stats.alpha - 0.9).abs() < 1e-12);
        assert!((stats.beta - 0.7).abs() < 1e-12);
        // `new` keeps the [38] defaults.
        let default_pool = MemoryPool::new(MemoryKind::Prioritized, 8);
        let d = default_pool.replay_stats().unwrap();
        assert!((d.alpha - 0.6).abs() < 1e-12 && (d.beta - 0.4).abs() < 1e-12);
        assert!(MemoryPool::new(MemoryKind::Uniform, 8).replay_stats().is_none());
    }

    #[test]
    fn sample_into_reports_backend_metadata() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut scratch = BatchScratch::new();

        let mut uni = MemoryPool::new(MemoryKind::Uniform, 8);
        for i in 0..8 {
            uni.push(t(i as f32));
        }
        uni.sample_into(4, &mut rng, &mut scratch);
        assert_eq!(scratch.batch.len(), 4);
        assert!(scratch.is_weights().is_none());
        assert!(scratch.sampled_indices().is_none());

        let mut pri = MemoryPool::new(MemoryKind::Prioritized, 8);
        for i in 0..8 {
            pri.push(t(i as f32));
        }
        pri.sample_into(4, &mut rng, &mut scratch);
        assert_eq!(scratch.batch.len(), 4);
        assert_eq!(scratch.is_weights().map(<[f32]>::len), Some(4));
        let idx = scratch.sampled_indices().map(<[usize]>::to_vec);
        assert_eq!(idx.as_ref().map(Vec::len), Some(4));
        pri.update_priorities(idx.as_deref(), &[1.0; 4]);

        // A later uniform sample must clear the prioritized metadata.
        uni.sample_into(4, &mut rng, &mut scratch);
        assert!(scratch.is_weights().is_none());
    }

    fn small_agent() -> Ddpg {
        let mut cfg = rl::DdpgConfig::paper(1, 1);
        cfg.actor_hidden = vec![8];
        cfg.critic_hidden = vec![8];
        cfg.seed = 5;
        Ddpg::new(cfg)
    }

    #[test]
    fn learn_reports_the_drawn_is_weight_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = BatchScratch::new();
        let mut agent = small_agent();

        // Uniform replay draws no weights and holds no priorities.
        let mut uni = MemoryPool::new(MemoryKind::Uniform, 16);
        for i in 0..8 {
            uni.store(t(i as f32), 0.1);
        }
        assert_eq!(uni.learn(&mut agent, 2, 4, &mut rng, &mut scratch), (1.0, 1.0));
        assert!(scratch.sampled_indices().is_none() && uni.replay_stats().is_none());
        assert_eq!(uni.trace((1.0, 1.0)).max_priority, 0.0);

        // Prioritized replay: the first update feeds TD errors back, so the
        // second draws unequal weights, and a one-update call reports the
        // range of the batch it drew.
        let mut pri = MemoryPool::new(MemoryKind::Prioritized, 16);
        for i in 0..8 {
            pri.store(t(i as f32), 0.1);
        }
        let _ = pri.learn(&mut agent, 1, 4, &mut rng, &mut scratch);
        let (lo, hi) = pri.learn(&mut agent, 1, 4, &mut rng, &mut scratch);
        let w = scratch.is_weights().expect("prioritized draws carry weights");
        let min = w.iter().copied().fold(f32::INFINITY, f32::min);
        assert_eq!(lo, f64::from(min));
        assert_eq!(hi, 1.0, "IS weights are normalized to a maximum of 1");
        assert!(lo < 1.0, "TD feedback made the priorities unequal");
        let trace = pri.trace((lo, hi));
        assert_eq!((trace.len, trace.is_weight_min), (8, lo));
        assert!(trace.max_priority > 0.0);
    }

    #[test]
    fn uniform_ignores_priority_updates() {
        let mut pool = MemoryPool::new(MemoryKind::Uniform, 8);
        pool.push(t(0.0));
        pool.update_priorities(None, &[1.0]); // must not panic
        assert_eq!(pool.len(), 1);
    }
}
