//! Offline training (§2.1.1).
//!
//! Cold start: with no historical experience, the trainer generates samples
//! by try-and-error against standard workloads — random exploration first,
//! then the noisy actor — storing every transition in the memory pool and
//! updating the DDPG networks from random minibatches, up to the step
//! budget. Once the random warm-up is over, the first step of each episode
//! that resets to the default configuration plays the deterministic policy
//! — what a tuning request plays. That evaluation curve picks the shipped
//! model, and the iterations to converge that Figs. 8, 14 and Table 6 plot
//! are read off it ([`TrainingReport::steps_to_bar`]).
//!
//! The hours of try-and-error are paid once, so they are checkpointed: at
//! the end of every episode the trainer's whole state — the agent with its
//! optimizers, the exact replay pool, every random stream and what the
//! environment carries into the next episode — is one [`TrainingCheckpoint`].
//! [`train_offline`] starts that state fresh, [`resume_from_checkpoint`]
//! loads it, and both run the same loop, so a resumed run is the run it
//! interrupted.

use crate::env::{DbEnv, EnvCarry, RecoveryStats};
use crate::memory_pool::{measured_transition, BatchScratch, MemoryKind, MemoryPool, PerConfig};
use crate::persist::{self, PersistError};
use crate::reward::RewardConfig;
use crate::state::StateProcessor;
use crate::telemetry::{TraceEvent, TraceLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{
    perturb, Ddpg, DdpgConfig, DdpgSnapshot, GaussianNoise, LearnerState, NoiseProcess,
    PriorityState, RingState, Transition,
};
use std::fmt;

/// Offline-training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Training episodes (each starts from the default configuration).
    pub episodes: usize,
    /// Steps per episode (must not exceed the env horizon).
    pub steps_per_episode: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient updates per environment step.
    pub updates_per_step: usize,
    /// Replay backend (§5.1 uses prioritized).
    pub memory: MemoryKind,
    /// Replay capacity.
    pub memory_capacity: usize,
    /// Prioritized-replay α/β (ignored by the uniform backend).
    pub per: PerConfig,
    /// Initial exploration noise scale.
    pub noise_sigma: f32,
    /// Noise floor.
    pub noise_sigma_min: f32,
    /// Noise decay per episode.
    pub noise_decay: f32,
    /// Pure-random steps before the actor drives exploration (cold start).
    pub random_warmup_steps: usize,
    /// Actor hidden widths (Table 5 default when `None`).
    pub actor_hidden: Option<Vec<usize>>,
    /// Critic hidden widths (Table 5 default when `None`).
    pub critic_hidden: Option<Vec<usize>>,
    /// Learning rate (paper: 0.001 for both networks).
    pub learning_rate: f32,
    /// Discount factor (paper: 0.99).
    pub gamma: f32,
    /// Scale applied to rewards before they enter the replay pool. The raw
    /// Eq.-6 rewards reach ±30 on large performance swings (and −100 on
    /// crashes), which destabilizes the critic and saturates the sigmoid
    /// actor; 0.1 keeps TD targets in a friendly range without changing the
    /// ordering. Stored in the model so online fine-tuning matches.
    pub reward_scale: f32,
    /// RNG seed.
    pub seed: u64,
    /// Directory for crash-safe training checkpoints (`None` disables
    /// checkpointing). A [`TrainingCheckpoint`] is written at the end of
    /// every episode and holds the trainer's whole state there: the agent
    /// with its optimizers, the exact replay pool, every stream and the
    /// environment's carry-over. It is written atomically (temp file +
    /// rename) so a kill mid-write leaves the previous checkpoint intact.
    pub checkpoint_dir: Option<String>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            episodes: 36,
            steps_per_episode: 20,
            batch_size: 32,
            updates_per_step: 8,
            memory: MemoryKind::Prioritized,
            memory_capacity: 100_000,
            per: PerConfig::default(),
            noise_sigma: 0.35,
            noise_sigma_min: 0.08,
            noise_decay: 0.96,
            random_warmup_steps: 40,
            actor_hidden: None,
            critic_hidden: None,
            learning_rate: 1e-3,
            gamma: 0.99,
            reward_scale: DEFAULT_REWARD_SCALE,
            seed: 0,
            checkpoint_dir: None,
        }
    }
}

impl TrainerConfig {
    /// A small configuration for unit tests and quick demos.
    pub fn smoke() -> Self {
        Self {
            episodes: 4,
            steps_per_episode: 8,
            batch_size: 16,
            updates_per_step: 2,
            random_warmup_steps: 12,
            memory_capacity: 10_000,
            ..Self::default()
        }
    }

    fn ddpg_config(&self, state_dim: usize, action_dim: usize) -> DdpgConfig {
        let mut cfg = DdpgConfig::paper(state_dim, action_dim);
        if let Some(h) = &self.actor_hidden {
            cfg.actor_hidden = h.clone();
        }
        if let Some(h) = &self.critic_hidden {
            cfg.critic_hidden = h.clone();
        }
        cfg.actor_lr = self.learning_rate * 0.3; // actor trails the critic
        cfg.critic_lr = self.learning_rate;
        cfg.gamma = self.gamma;
        cfg.batch_size = self.batch_size;
        cfg.seed = self.seed;
        cfg
    }
}

/// The trained artifact: networks + the state normalizer + reward config +
/// the tuned knob subset. This is what offline training produces once and
/// every online tuning request reuses (§2.1).
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// DDPG networks.
    pub snapshot: DdpgSnapshot,
    /// State normalizer fitted during training.
    pub processor: StateProcessor,
    /// Reward function the model was trained with.
    pub reward: RewardConfig,
    /// Registry indices of the tuned knobs, in action order.
    pub action_indices: Vec<usize>,
    /// Reward scale used during training (online fine-tuning must match).
    pub reward_scale: f32,
}

/// [`TrainerConfig::reward_scale`]'s default, which a model file written
/// before the field existed is read with.
pub(crate) const DEFAULT_REWARD_SCALE: f32 = 0.1;

impl TrainedModel {
    /// Serializes to JSON (the persisted "standard model"; the format is
    /// [`crate::persist`]'s).
    pub fn to_json(&self) -> String {
        persist::model_to_json(self)
    }

    /// Restores from JSON, checking everything [`rl::Ddpg::from_snapshot`]
    /// and the tuning loop would otherwise assert.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        persist::model_from_json(json)
    }

    /// A freshly initialized (untrained) model for the given knob subset:
    /// Table-5 networks seeded with `seed`, an empty normalizer, and the
    /// given reward. The `cdbtuned` daemon uses this when the registry has
    /// no compatible entry, so cold and warm-started sessions flow through
    /// the same fine-tuning path.
    pub fn cold(action_indices: Vec<usize>, reward: RewardConfig, seed: u64) -> Self {
        let mut cfg = DdpgConfig::paper(simdb::TOTAL_METRIC_COUNT, action_indices.len());
        cfg.seed = seed;
        Self {
            snapshot: Ddpg::new(cfg).snapshot(),
            processor: StateProcessor::new(),
            reward,
            action_indices,
            reward_scale: DEFAULT_REWARD_SCALE,
        }
    }
}

/// What happened during offline training.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Environment steps taken.
    pub total_steps: usize,
    /// Reward per step.
    pub reward_history: Vec<f64>,
    /// Measured throughput per step.
    pub throughput_history: Vec<f64>,
    /// Measured p99 latency per step (µs).
    pub latency_history: Vec<f64>,
    /// Best throughput observed.
    pub best_throughput: f64,
    /// p99 latency at the best-throughput step (µs).
    pub best_latency_us: f64,
    /// Action that produced the best throughput.
    pub best_action: Vec<f32>,
    /// The evaluation curve: `(step, throughput)` of the deterministic
    /// policy at the first step of every post-warm-up episode that reset to
    /// the default configuration, steps counted from 1. A crashed or
    /// degraded evaluation reads 0 tps.
    pub actor_eval_history: Vec<(usize, f64)>,
    /// Crashes triggered by exploration.
    pub crashes: u64,
    /// Wall-clock training time, seconds (accumulated across resumes).
    pub wall_seconds: f64,
    /// Recovery actions taken while training (retries, rollbacks,
    /// quarantines, imputed metrics, checkpoints).
    pub recovery: RecoveryStats,
}

/// The share of the evaluation curve's final best that counts as converged.
const BAR: f64 = 0.95;

impl TrainingReport {
    /// Iterations to converge (Figs. 8, 14 and Table 6 plot them): the
    /// first step at which the evaluation curve's best-so-far reaches `BAR`
    /// (0.95) × its final best. `None` is censored: the curve is empty,
    /// reaches nothing, or first meets the bar only at its last point, so
    /// it was still climbing at the budget. A pure function of
    /// [`TrainingReport::actor_eval_history`], so nothing is checkpointed
    /// for it.
    pub fn steps_to_bar(&self) -> Option<usize> {
        let curve = &self.actor_eval_history;
        let best = curve.iter().fold(0.0, |best, &(_, tps)| f64::max(best, tps));
        let mut met = curve.iter().skip_while(|&&(_, tps)| best <= 0.0 || tps < BAR * best);
        let &(step, _) = met.next()?;
        met.next().map(|_| step)
    }
}

/// A crash-safe checkpoint of an offline-training run, taken at the end of
/// an episode: the trainer's whole state there, so a resume is the run it
/// interrupted. At that boundary [`DbEnv::reset_episode`] redeploys the
/// baseline and reboots the engine, so besides the engine's tables only
/// what [`EnvCarry`] holds crosses it. Written atomically
/// (`checkpoint.json.tmp` + rename), so an interrupted write never
/// clobbers the previous good checkpoint.
#[derive(Debug, Clone)]
pub struct TrainingCheckpoint {
    /// Checkpoint format version ([`crate::persist::CHECKPOINT_VERSION`]
    /// when written by this build).
    pub version: u32,
    /// Trainer seed the run started with; a resume under another seed is
    /// refused.
    pub seed: u64,
    /// Episodes completed: the resumed run opens this one.
    pub episode: usize,
    /// The agent: networks, optimizers and their streams.
    pub learner: LearnerState,
    /// The replay ring.
    pub replay: RingState,
    /// The prioritized backend's sampling state (`None` for uniform
    /// replay).
    pub priorities: Option<PriorityState>,
    /// The trainer's stream (exploration and minibatch draws).
    pub rng: u64,
    /// The exploration noise's scale for the next episode.
    pub noise_sigma: f32,
    /// What the environment carries into the next episode.
    pub env: EnvCarry,
    /// Report accumulated so far (histories, bests, recovery counters).
    pub report: TrainingReport,
    /// Best deterministic-policy evaluation so far.
    pub best_eval: f64,
    /// Best (networks, normalizer) pair so far — the shipped model.
    pub best_snapshot: Option<(DdpgSnapshot, StateProcessor)>,
}

/// Why a [`TrainingCheckpoint`] cannot drive the current session. Before
/// this type existed, loading a checkpoint trained against a different
/// knob subset or metric schema silently resumed and crashed (or worse,
/// trained garbage) deep inside the network math; the registry serving
/// mixed fingerprints makes the explicit rejection mandatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint's network/replay dimensions do not match the session.
    SpecMismatch {
        /// Knob count (action dimension) the session tunes.
        expected_knobs: usize,
        /// Knob count the checkpoint was trained with.
        found_knobs: usize,
        /// State dimension (metric count) the session observes.
        expected_state_dim: usize,
        /// State dimension the checkpoint was trained with.
        found_state_dim: usize,
    },
    /// The checkpoint was written by a run started from another seed, so
    /// its environment streams belong to another instance.
    SeedMismatch {
        /// Seed the session was started with.
        expected: u64,
        /// Seed the checkpointed run was started with.
        found: u64,
    },
    /// A part of the checkpoint cannot be restored into this session: an
    /// inconsistent learner state, or a replay pool of another backend or
    /// capacity.
    Unfit {
        /// Which part (`learner` or `replay`).
        part: &'static str,
        /// What is wrong with it.
        problem: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::SpecMismatch {
                expected_knobs,
                found_knobs,
                expected_state_dim,
                found_state_dim,
            } => write!(
                f,
                "checkpoint tunes {found_knobs} knobs over {found_state_dim} metrics, \
                 but the session expects {expected_knobs} knobs over \
                 {expected_state_dim} metrics"
            ),
            CheckpointError::SeedMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a run seeded {found}, but the session is seeded \
                 {expected}"
            ),
            CheckpointError::Unfit { part, problem } => {
                write!(f, "the checkpoint's {part} does not fit the session: {problem}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl TrainingCheckpoint {
    /// The checkpoint file inside `dir`.
    pub fn path_in(dir: &str) -> std::path::PathBuf {
        std::path::Path::new(dir).join("checkpoint.json")
    }

    /// Rejects the checkpoint unless its networks (the learner's and the
    /// best snapshot's) and buffered transitions match the session's
    /// state/action dimensions, and its learner state is consistent.
    pub fn validate_against(
        &self,
        state_dim: usize,
        action_dim: usize,
    ) -> Result<(), CheckpointError> {
        let best = self.best_snapshot.as_ref().map(|(snapshot, _)| snapshot);
        for config in std::iter::once(&self.learner.snapshot).chain(best).map(|s| &s.config) {
            if (config.state_dim, config.action_dim) != (state_dim, action_dim) {
                return Err(CheckpointError::SpecMismatch {
                    expected_knobs: action_dim,
                    found_knobs: config.action_dim,
                    expected_state_dim: state_dim,
                    found_state_dim: config.state_dim,
                });
            }
        }
        let transitions_fit = self.replay.slots.iter().all(|t| {
            t.state.len() == state_dim
                && t.next_state.len() == state_dim
                && t.action.len() == action_dim
        });
        if !transitions_fit {
            return Err(CheckpointError::SpecMismatch {
                expected_knobs: action_dim,
                found_knobs: action_dim,
                expected_state_dim: state_dim,
                found_state_dim: state_dim,
            });
        }
        let unfit = |problem| CheckpointError::Unfit { part: "learner", problem };
        self.learner.validate().map_err(unfit)
    }

    /// Writes atomically: serialize to `checkpoint.json.tmp`, then rename
    /// over `checkpoint.json`. A kill at any point leaves either the old
    /// or the new checkpoint complete on disk, never a torn file.
    pub fn save_atomic(&self, dir: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = std::path::Path::new(dir).join("checkpoint.json.tmp");
        std::fs::write(&tmp, persist::checkpoint_to_json(self))?;
        std::fs::rename(&tmp, Self::path_in(dir))?;
        Ok(())
    }

    /// Loads the checkpoint from `dir`; `Ok(None)` when none exists. A
    /// file that does not decode is `InvalidData` wrapping the
    /// [`PersistError`].
    pub fn load(dir: &str) -> std::io::Result<Option<Self>> {
        let path = Self::path_in(dir);
        if !path.exists() {
            return Ok(None);
        }
        let json = std::fs::read_to_string(&path)?;
        persist::checkpoint_from_json(&json)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The trainer between two episodes: everything a run carries from one to
/// the next, which a [`TrainingCheckpoint`] persists.
struct Run {
    /// The episode to open next.
    episode: usize,
    agent: Ddpg,
    pool: MemoryPool,
    rng: StdRng,
    noise: GaussianNoise,
    report: TrainingReport,
    best_eval: f64,
    best_snapshot: Option<(DdpgSnapshot, StateProcessor)>,
}

/// Runs offline training on an environment, returning the trained model and
/// the report. `seed_transitions` pre-fills the memory pool (incremental
/// training on accumulated user feedback, §2.1.1, or parallel collection);
/// they carry raw env rewards, which the pool scales by
/// [`TrainerConfig::reward_scale`] like every step's.
/// With [`TrainerConfig::checkpoint_dir`] set, a [`TrainingCheckpoint`] is
/// written at the end of every episode.
pub fn train_offline(
    env: &mut DbEnv,
    cfg: &TrainerConfig,
    seed_transitions: Vec<Transition>,
) -> (TrainedModel, TrainingReport) {
    let action_dim = env.space().dim();
    let mut pool = MemoryPool::with_per(cfg.memory, cfg.memory_capacity, cfg.per);
    for t in seed_transitions {
        pool.store(t, cfg.reward_scale);
    }
    let run = Run {
        episode: 0,
        agent: Ddpg::new(cfg.ddpg_config(simdb::TOTAL_METRIC_COUNT, action_dim)),
        pool,
        rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0x7157)),
        noise: GaussianNoise::new(action_dim, cfg.noise_sigma, cfg.noise_sigma_min, cfg.noise_decay),
        report: TrainingReport {
            total_steps: 0,
            reward_history: Vec::new(),
            throughput_history: Vec::new(),
            latency_history: Vec::new(),
            best_throughput: 0.0,
            best_latency_us: f64::MAX,
            best_action: vec![0.5; action_dim],
            actor_eval_history: Vec::new(),
            crashes: 0,
            wall_seconds: 0.0,
            recovery: RecoveryStats::default(),
        },
        best_eval: f64::MIN,
        best_snapshot: None,
    };
    train(env, cfg, run)
}

/// Resumes an interrupted run from a [`TrainingCheckpoint`] and trains to
/// the episode budget in `cfg`. The resumed run continues the interrupted
/// one bit for bit: the same steps, rewards and shipped model as a run
/// never interrupted, on a workload that writes no rows (DESIGN.md §7).
/// The checkpoint is validated against the environment first — one from a
/// different knob subset, metric schema, seed or replay pool is a typed
/// [`CheckpointError`], not a silent resume.
pub fn resume_from_checkpoint(
    env: &mut DbEnv,
    cfg: &TrainerConfig,
    checkpoint: TrainingCheckpoint,
) -> Result<(TrainedModel, TrainingReport), CheckpointError> {
    checkpoint.validate_against(simdb::TOTAL_METRIC_COUNT, env.space().dim())?;
    if checkpoint.seed != cfg.seed {
        return Err(CheckpointError::SeedMismatch { expected: cfg.seed, found: checkpoint.seed });
    }
    let TrainingCheckpoint {
        episode, learner, replay, priorities, rng, noise_sigma, env: carry, mut report, best_eval,
        best_snapshot, ..
    } = checkpoint;
    let pool = MemoryPool::from_state(cfg.memory, cfg.memory_capacity, cfg.per, replay, priorities)
        .map_err(|problem| CheckpointError::Unfit { part: "replay", problem })?;
    env.resume(carry);
    report.recovery.checkpoints_loaded += 1;
    let action_dim = env.space().dim();
    let run = Run {
        episode,
        agent: Ddpg::from_learner_state(&learner),
        pool,
        rng: StdRng::from_state(rng),
        noise: GaussianNoise::new(action_dim, noise_sigma, cfg.noise_sigma_min, cfg.noise_decay),
        report,
        best_eval,
        best_snapshot,
    };
    Ok(train(env, cfg, run))
}

/// The training loop behind [`train_offline`] and
/// [`resume_from_checkpoint`]: runs `run` from its next episode to the
/// budget.
fn train(env: &mut DbEnv, cfg: &TrainerConfig, run: Run) -> (TrainedModel, TrainingReport) {
    // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
    let start = std::time::Instant::now();
    let state_dim = simdb::TOTAL_METRIC_COUNT;
    let action_dim = env.space().dim();
    let registry = std::sync::Arc::clone(env.engine().registry());
    let crashes0 = env.crash_count();
    let recovery0 = *env.recovery_stats();
    let telemetry = env.telemetry().clone();
    telemetry.emit(&TraceEvent::RunStart {
        mode: "train".to_string(),
        seed: cfg.seed,
        knobs: action_dim as u64,
        state_dim: state_dim as u64,
    });

    let Run {
        episode: first,
        mut agent,
        mut pool,
        mut rng,
        mut noise,
        mut report,
        mut best_eval,
        mut best_snapshot,
    } = run;
    let mut batch_scratch = BatchScratch::new();
    for episode in first..cfg.episodes {
        // Every other episode resets to the best configuration found so
        // far instead of the default baseline. Warm starts concentrate
        // exploration around discovered good regions — the episodic
        // analogue of the paper's online tuning continuing from the
        // instance's current configuration rather than from scratch.
        let warm = episode % 2 == 1;
        let baseline = if warm && report.best_throughput > 0.0 {
            env.space().to_config(&registry.default_config(), &report.best_action)
        } else {
            registry.default_config()
        };
        let mut state = env.reset_episode(baseline);
        telemetry.emit(&TraceEvent::EpisodeStart {
            episode: episode as u64,
            warm_start: warm,
            baseline_tps: env.initial_perf().throughput_tps,
            baseline_p99_us: env.initial_perf().p99_latency_us,
        });
        let mut ep_steps = 0u64;
        let mut ep_reward_sum = 0.0;
        let mut ep_best_tps = 0.0f64;
        for ep_step in 0..cfg.steps_per_episode {
            // The first step of each post-warmup episode that reset to the
            // default configuration plays the deterministic policy from
            // there — exactly the recommendation online tuning will make —
            // and the shipped model is the snapshot whose such evaluation
            // was best.
            let evaluate = ep_step == 0 && !warm && report.total_steps >= cfg.random_warmup_steps;
            // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
            let t_rec = std::time::Instant::now();
            let action: Vec<f32> = if evaluate {
                agent.act(&state)
            } else if report.total_steps < cfg.random_warmup_steps {
                (0..action_dim).map(|_| rng.gen()).collect()
            } else {
                perturb(&agent.act(&state), &noise.sample(&mut rng))
            };
            let recommendation_wall_us = t_rec.elapsed().as_micros() as u64;
            let mut out = env.step_action(&action);
            out.timing.recommendation_wall_us = recommendation_wall_us;
            if evaluate {
                let measured = !out.crashed && !out.degraded;
                let tps = if measured { out.perf.throughput_tps } else { 0.0 };
                report.actor_eval_history.push((report.total_steps + 1, tps));
                if measured && tps > best_eval {
                    best_eval = tps;
                    // Capture the normalizer together with the weights: the
                    // policy only reproduces its evaluation behaviour with
                    // the exact state encoding it was selected under.
                    best_snapshot = Some((agent.snapshot(), env.processor().clone()));
                }
            }
            report.total_steps += 1;
            report.reward_history.push(out.reward);
            report.throughput_history.push(out.perf.throughput_tps);
            report.latency_history.push(out.perf.p99_latency_us);
            if !out.crashed && !out.degraded && out.perf.throughput_tps > report.best_throughput {
                report.best_throughput = out.perf.throughput_tps;
                report.best_latency_us = out.perf.p99_latency_us;
                report.best_action = action.clone();
            }

            // Degraded steps are recorded in the histories but not replayed.
            if let Some(t) = measured_transition(&state, &action, &out) {
                pool.store(t, cfg.reward_scale);
            }

            // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
            let t_upd = std::time::Instant::now();
            let is_weights = if pool.len() >= cfg.batch_size {
                let (n, k) = (cfg.batch_size, cfg.updates_per_step);
                pool.learn(&mut agent, k, n, &mut rng, &mut batch_scratch)
            } else {
                (1.0, 1.0)
            };
            out.timing.model_update_wall_us = t_upd.elapsed().as_micros() as u64;

            ep_steps += 1;
            ep_reward_sum += out.reward;
            if !out.crashed && !out.degraded {
                ep_best_tps = ep_best_tps.max(out.perf.throughput_tps);
            }
            if telemetry.enabled(TraceLevel::Step) {
                telemetry.emit(&out.trace_event(
                    report.total_steps as u64,
                    episode as u64,
                    &action,
                    pool.trace(is_weights),
                    env.engine_sample(),
                ));
            }
            state = out.state;
            if out.done {
                break;
            }
        }
        telemetry.emit(&TraceEvent::EpisodeEnd {
            episode: episode as u64,
            steps: ep_steps,
            mean_reward: if ep_steps > 0 { ep_reward_sum / ep_steps as f64 } else { 0.0 },
            best_tps: ep_best_tps,
        });
        noise.decay();

        if let Some(dir) = &cfg.checkpoint_dir {
            report.recovery.checkpoints_written += 1;
            let mut ck_report = report.clone();
            ck_report.crashes += env.crash_count() - crashes0;
            ck_report.recovery.merge(&env.recovery_stats().since(&recovery0));
            ck_report.wall_seconds += start.elapsed().as_secs_f64();
            let (replay, priorities) = pool.state();
            let ck = TrainingCheckpoint {
                version: persist::CHECKPOINT_VERSION,
                seed: cfg.seed,
                episode: episode + 1,
                learner: agent.learner_state(),
                replay,
                priorities,
                rng: rng.state(),
                noise_sigma: noise.scale(),
                env: env.carry(),
                report: ck_report,
                best_eval,
                best_snapshot: best_snapshot.clone(),
            };
            if ck.save_atomic(dir).is_err() {
                report.recovery.checkpoints_written -= 1;
            }
        }
    }
    report.crashes += env.crash_count() - crashes0;
    report.recovery.merge(&env.recovery_stats().since(&recovery0));
    report.wall_seconds += start.elapsed().as_secs_f64();
    telemetry.emit(&TraceEvent::RunEnd {
        mode: "train".to_string(),
        total_steps: report.total_steps as u64,
        best_tps: report.best_throughput,
        crashes: report.crashes,
        wall_seconds: report.wall_seconds,
    });
    telemetry.flush();

    let (snapshot, processor) =
        best_snapshot.unwrap_or_else(|| (agent.snapshot(), env.processor().clone()));
    let model = TrainedModel {
        snapshot,
        processor,
        reward: *env.reward_config(),
        action_indices: env.space().indices().to_vec(),
        reward_scale: cfg.reward_scale,
    };
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::tests::{tiny_env, tiny_env_on};
    use workload::WorkloadKind;

    #[test]
    fn smoke_training_produces_model_and_report() {
        let mut env = tiny_env();
        let cfg = TrainerConfig { episodes: 2, steps_per_episode: 5, ..TrainerConfig::smoke() };
        let (model, report) = train_offline(&mut env, &cfg, Vec::new());
        assert_eq!(report.total_steps, 10);
        assert_eq!(report.reward_history.len(), 10);
        assert!(report.best_throughput > 0.0);
        assert_eq!(model.action_indices.len(), 6);
        assert!(model.processor.observations() > 0);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn training_emits_the_golden_event_sequence() {
        use crate::telemetry::{Telemetry, TraceEvent, TraceLevel};
        let mut env = tiny_env();
        env.set_telemetry(Telemetry::ring(256, TraceLevel::Debug));
        let cfg = TrainerConfig { episodes: 1, steps_per_episode: 1, ..TrainerConfig::smoke() };
        let (_, report) = train_offline(&mut env, &cfg, Vec::new());
        assert_eq!(report.total_steps, 1);
        let events = env.telemetry().drain_ring();
        // Recovery events are fault-dependent noise; everything else is the
        // golden sequence, in order.
        let tags: Vec<&str> = events
            .iter()
            .filter(|e| !matches!(e, TraceEvent::Recovery { .. }))
            .map(TraceEvent::type_tag)
            .collect();
        assert_eq!(tags, ["run_start", "episode_start", "step", "episode_end", "run_end"]);
        let step = events
            .iter()
            .find(|e| matches!(e, TraceEvent::Step { .. }))
            .expect("one step event");
        let TraceEvent::Step {
            step, action, reward, throughput_tps, p99_latency_us, replay, timing, ..
        } = step
        else {
            unreachable!()
        };
        assert_eq!(*step, 1);
        assert_eq!(action.len(), 6, "action vector matches the tuned knob count");
        assert!(reward.is_finite(), "reward decomposition has non-finite terms: {reward:?}");
        assert!(throughput_tps.is_finite() && p99_latency_us.is_finite());
        assert!(replay.len >= 1, "step was pushed before the event was composed");
        assert!(replay.is_weight_min > 0.0 && replay.is_weight_min <= replay.is_weight_max);
        assert!(replay.is_weight_max <= 1.0 + 1e-9, "IS weights are normalized to max 1");
        assert!(timing.stress_wall_us > 0, "stress window was timed");
        assert!(timing.stress_simulated_sec > 0.0);
        // Round-trip the whole sequence through the JSONL encoding: what
        // the trainer emits is exactly what a reader gets back.
        for ev in &events {
            assert_eq!(&TraceEvent::from_json_line(&ev.to_json_line()).unwrap(), ev);
        }
    }

    #[test]
    fn model_json_roundtrip() {
        let mut env = tiny_env();
        let cfg = TrainerConfig { episodes: 1, steps_per_episode: 3, ..TrainerConfig::smoke() };
        let (model, _) = train_offline(&mut env, &cfg, Vec::new());
        let restored = TrainedModel::from_json(&model.to_json()).unwrap();
        assert_eq!(restored.action_indices, model.action_indices);
        assert_eq!(restored.snapshot, model.snapshot);
    }

    #[test]
    fn seed_transitions_prefill_the_pool() {
        let mut env = tiny_env();
        let seed = vec![
            Transition {
                state: vec![0.0; 63],
                action: vec![0.5; 6],
                reward: 0.1,
                next_state: vec![0.0; 63],
                done: false,
            };
            64
        ];
        let cfg = TrainerConfig { episodes: 1, steps_per_episode: 2, ..TrainerConfig::smoke() };
        // With 64 seeds the pool is past batch size from step one; training
        // must run updates without panicking.
        let (_, report) = train_offline(&mut env, &cfg, seed);
        assert_eq!(report.total_steps, 2);
    }

    #[test]
    fn seed_transitions_are_stored_at_the_reward_scale() {
        // A seed carries a raw env reward; the pool stores it scaled, like
        // every step's, and a checkpoint reads the pool back verbatim.
        let dir = ckpt_dir("seedscale");
        let _ = std::fs::remove_dir_all(&dir);
        let mut env = tiny_env();
        let seed = Transition {
            state: vec![0.0; 63],
            action: vec![0.5; 6],
            reward: 5.0,
            next_state: vec![0.0; 63],
            done: false,
        };
        let cfg = TrainerConfig {
            episodes: 1,
            steps_per_episode: 1,
            checkpoint_dir: Some(dir.clone()),
            ..TrainerConfig::smoke()
        };
        let _ = train_offline(&mut env, &cfg, vec![seed]);
        let ck = TrainingCheckpoint::load(&dir).unwrap().expect("checkpoint written");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(ck.replay.slots[0].reward, 5.0 * cfg.reward_scale);
    }

    fn ckpt_dir(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("cdbtune-ckpt-{tag}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn checkpoints_are_written_atomically_and_round_trip() {
        let dir = ckpt_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut env = tiny_env();
        let cfg = TrainerConfig {
            episodes: 3,
            steps_per_episode: 2,
            checkpoint_dir: Some(dir.clone()),
            ..TrainerConfig::smoke()
        };
        let (_, report) = train_offline(&mut env, &cfg, Vec::new());
        assert_eq!(report.recovery.checkpoints_written, 3, "one checkpoint per episode");
        let ck = TrainingCheckpoint::load(&dir).unwrap().expect("checkpoint exists");
        assert_eq!(ck.report.total_steps, 6);
        assert_eq!(ck.episode, 3);
        assert_eq!(ck.replay.slots.len(), 6);
        assert_eq!(ck.report.recovery.checkpoints_written, 3);
        // The temp file never outlives the rename.
        assert!(!std::path::Path::new(&dir).join("checkpoint.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reaches_the_uninterrupted_step_count() {
        let dir = ckpt_dir("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let full = TrainerConfig {
            episodes: 3,
            steps_per_episode: 5,
            checkpoint_dir: Some(dir.clone()),
            ..TrainerConfig::smoke()
        };
        // Uninterrupted reference run.
        let mut env = tiny_env();
        let (_, uninterrupted) = train_offline(&mut env, &full, Vec::new());
        assert_eq!(uninterrupted.total_steps, 15);
        let _ = std::fs::remove_dir_all(&dir);
        // "Killed" run: same config, dead after episode 0 (5 of 15 steps).
        let mut env = tiny_env();
        let cut = TrainerConfig { episodes: 1, ..full.clone() };
        let (_, partial) = train_offline(&mut env, &cut, Vec::new());
        assert_eq!(partial.total_steps, 5);
        let ck = TrainingCheckpoint::load(&dir).unwrap().expect("checkpoint written");
        let buffered = ck.replay.slots.len();
        assert!(buffered > 0);
        // Resume with the full budget against a fresh environment.
        let mut env = tiny_env();
        let (model, resumed) =
            resume_from_checkpoint(&mut env, &full, ck).expect("checkpoint fits the session");
        assert_eq!(resumed.total_steps, uninterrupted.total_steps);
        assert_eq!(resumed.reward_history.len(), uninterrupted.reward_history.len());
        assert_eq!(resumed.recovery.checkpoints_loaded, 1);
        assert!(model.processor.observations() > 0);
        // The resumed pool kept the interrupted run's experience.
        let final_ck = TrainingCheckpoint::load(&dir).unwrap().unwrap();
        assert!(final_ck.replay.slots.len() >= buffered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn blank_report(action_dim: usize) -> TrainingReport {
        TrainingReport {
            total_steps: 0,
            reward_history: Vec::new(),
            throughput_history: Vec::new(),
            latency_history: Vec::new(),
            best_throughput: 0.0,
            best_latency_us: f64::MAX,
            best_action: vec![0.5; action_dim],
            actor_eval_history: Vec::new(),
            crashes: 0,
            wall_seconds: 0.0,
            recovery: RecoveryStats::default(),
        }
    }

    fn in_memory_ck(state_dim: usize, action_dim: usize) -> TrainingCheckpoint {
        let agent = Ddpg::new(DdpgConfig::paper(state_dim, action_dim));
        let cfg = TrainerConfig::smoke();
        let pool = MemoryPool::with_per(cfg.memory, cfg.memory_capacity, cfg.per);
        let (replay, priorities) = pool.state();
        TrainingCheckpoint {
            version: persist::CHECKPOINT_VERSION,
            seed: cfg.seed,
            episode: 0,
            learner: agent.learner_state(),
            replay,
            priorities,
            rng: 0,
            noise_sigma: cfg.noise_sigma,
            env: tiny_env().carry(),
            report: blank_report(action_dim),
            best_eval: f64::MIN,
            best_snapshot: None,
        }
    }

    #[test]
    fn resumed_checkpoint_restores_quarantine_state() {
        // Quarantine a region in one session, checkpoint it, and resume
        // into a fresh environment: the resumed run must not re-explore
        // the cell — stepping it short-circuits as a crash, exactly as it
        // would have in the interrupted run.
        let mut env = tiny_env();
        let bad = [0.9, 0.1, 0.9, 0.1, 0.9, 0.1];
        assert!(env.quarantine_action(&bad));
        let mut ck = in_memory_ck(simdb::TOTAL_METRIC_COUNT, 6);
        ck.env.quarantined = env.quarantined_keys();
        assert!(!ck.env.quarantined.is_empty());

        let mut fresh = tiny_env();
        assert!(!fresh.is_quarantined(&bad));
        let cfg = TrainerConfig { episodes: 1, steps_per_episode: 2, ..TrainerConfig::smoke() };
        resume_from_checkpoint(&mut fresh, &cfg, ck).expect("checkpoint fits the session");
        assert!(fresh.is_quarantined(&bad), "resume must restore quarantined cells");
        let out = fresh.step_action(&bad);
        assert!(out.crashed, "a quarantined cell must stay fenced off after resume");
    }

    #[test]
    fn resume_equals_the_uninterrupted_run_bit_for_bit() {
        // Six episodes on a read-only workload, each ended by the horizon at
        // 6 steps, cut after three: the random warm-up, updates, a warm
        // episode and an evaluation fall on each side of the cut. At this
        // scale the data (173 MB) outgrows the default buffer pool, so every
        // boot's pre-warm draws from the engine's stream.
        let ro = || tiny_env_on(WorkloadKind::SysbenchRo, 0.02);
        let (dir, cut_dir) = (ckpt_dir("bit-for-bit"), ckpt_dir("bit-for-bit-cut"));
        let _ = (std::fs::remove_dir_all(&dir), std::fs::remove_dir_all(&cut_dir));
        let full = TrainerConfig { episodes: 6, checkpoint_dir: Some(dir.clone()), ..TrainerConfig::smoke() };
        let (model, uninterrupted) = train_offline(&mut ro(), &full, Vec::new());
        let last = TrainingCheckpoint::load(&dir).unwrap().expect("a checkpoint at the end");
        let cut = TrainerConfig { episodes: 3, checkpoint_dir: Some(cut_dir.clone()), ..full.clone() };
        let (_, partial) = train_offline(&mut ro(), &cut, Vec::new());
        let ck = TrainingCheckpoint::load(&cut_dir).unwrap().expect("checkpoint written at the cut");
        assert_eq!(ck.episode, 3);
        assert!(ck.learner.critic_opt.t > 0, "no update ran before the cut");
        assert_eq!(partial.actor_eval_history.len(), 1, "one evaluation before the cut");

        let resume_cfg = TrainerConfig { checkpoint_dir: Some(cut_dir.clone()), ..full.clone() };
        let (resumed_model, resumed) =
            resume_from_checkpoint(&mut ro(), &resume_cfg, ck).expect("checkpoint fits the session");
        let resumed_last = TrainingCheckpoint::load(&cut_dir).unwrap().expect("a checkpoint at the end");
        let _ = (std::fs::remove_dir_all(&dir), std::fs::remove_dir_all(&cut_dir));
        assert!(resumed.actor_eval_history.len() > 1, "no evaluation after the cut");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.reward_history), bits(&uninterrupted.reward_history));
        assert_eq!(bits(&resumed.throughput_history), bits(&uninterrupted.throughput_history));
        let curve = |r: &TrainingReport| {
            r.actor_eval_history.iter().map(|&(step, tps)| (step, tps.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(curve(&resumed), curve(&uninterrupted));
        assert!(resumed_model.to_json() == model.to_json(), "the shipped model differs");
        // The whole state at the end, too: learner, replay with its sum
        // tree, streams and the environment's carry-over.
        assert!(resumed_last.learner == last.learner, "the learner differs");
        assert_eq!((&resumed_last.replay, &resumed_last.priorities), (&last.replay, &last.priorities));
        assert_eq!((resumed_last.rng, resumed_last.noise_sigma), (last.rng, last.noise_sigma));
        assert_eq!(resumed_last.env, last.env);
    }

    #[test]
    fn a_checkpoint_of_another_seed_is_refused() {
        let ck = in_memory_ck(simdb::TOTAL_METRIC_COUNT, 6);
        let cfg = TrainerConfig { seed: 7, ..TrainerConfig::smoke() };
        let err = resume_from_checkpoint(&mut tiny_env(), &cfg, ck)
            .expect_err("a checkpoint of seed 0 must not drive a session of seed 7");
        assert_eq!(err, CheckpointError::SeedMismatch { expected: 7, found: 0 });
        assert!(err.to_string().contains("seeded 0"), "{err}");
    }

    #[test]
    fn a_best_snapshot_of_another_width_is_refused() {
        // The learner fits the 6-knob session, but the best snapshot, which
        // is what ships when no later evaluation beats it, has 4 outputs.
        let mut ck = in_memory_ck(simdb::TOTAL_METRIC_COUNT, 6);
        let narrow = Ddpg::new(DdpgConfig::paper(simdb::TOTAL_METRIC_COUNT, 4)).snapshot();
        ck.best_snapshot = Some((narrow, StateProcessor::new()));
        let err = resume_from_checkpoint(&mut tiny_env(), &TrainerConfig::smoke(), ck)
            .expect_err("a 4-knob best snapshot must not ship for a 6-knob session");
        assert_eq!(
            err,
            CheckpointError::SpecMismatch {
                expected_knobs: 6,
                found_knobs: 4,
                expected_state_dim: simdb::TOTAL_METRIC_COUNT,
                found_state_dim: simdb::TOTAL_METRIC_COUNT,
            }
        );
    }

    #[test]
    fn spec_mismatch_rejection_is_typed() {
        // tiny_env tunes 6 knobs over the 63-metric state; a snapshot
        // trained on 4 knobs must be rejected with the typed error, not
        // silently resumed into dimension-mismatched network math.
        let mut env = tiny_env();
        let wrong_knobs = in_memory_ck(simdb::TOTAL_METRIC_COUNT, 4);
        let err = resume_from_checkpoint(&mut env, &TrainerConfig::smoke(), wrong_knobs)
            .expect_err("4-knob snapshot must not drive a 6-knob session");
        assert_eq!(
            err,
            CheckpointError::SpecMismatch {
                expected_knobs: 6,
                found_knobs: 4,
                expected_state_dim: simdb::TOTAL_METRIC_COUNT,
                found_state_dim: simdb::TOTAL_METRIC_COUNT,
            }
        );
        assert!(err.to_string().contains("4 knobs"), "{err}");

        let wrong_state = in_memory_ck(10, 6);
        assert!(resume_from_checkpoint(&mut env, &TrainerConfig::smoke(), wrong_state).is_err());

        // Matching networks but a foreign replay pool is also a mismatch.
        let mut stale_pool = in_memory_ck(simdb::TOTAL_METRIC_COUNT, 6);
        stale_pool.replay.slots.push(Transition {
            state: vec![0.0; 10],
            action: vec![0.5; 6],
            reward: 0.0,
            next_state: vec![0.0; 10],
            done: false,
        });
        assert!(stale_pool.validate_against(simdb::TOTAL_METRIC_COUNT, 6).is_err());

        // And the well-formed case passes validation.
        assert!(in_memory_ck(simdb::TOTAL_METRIC_COUNT, 6)
            .validate_against(simdb::TOTAL_METRIC_COUNT, 6)
            .is_ok());
    }

    #[test]
    fn training_run_is_bit_identical_for_the_same_seed() {
        // End-to-end determinism gate: a full seeded training run —
        // environment stepping, replay sampling, forward/backward/Adam/
        // polyak at a batch of 64, actor evals — run twice must produce an
        // identical TrainingReport and model snapshot.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let seed_pool: Vec<Transition> = {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE);
            (0..96)
                .map(|i| Transition {
                    state: (0..simdb::TOTAL_METRIC_COUNT).map(|_| rng.gen()).collect(),
                    action: (0..6).map(|_| rng.gen()).collect(),
                    reward: rng.gen::<f32>(),
                    next_state: (0..simdb::TOTAL_METRIC_COUNT).map(|_| rng.gen()).collect(),
                    done: i % 9 == 8,
                })
                .collect()
        };
        let run = || {
            let mut env = tiny_env();
            let cfg = TrainerConfig {
                episodes: 2,
                steps_per_episode: 5,
                batch_size: 64,
                random_warmup_steps: 4,
                ..TrainerConfig::smoke()
            };
            let (model, mut report) = train_offline(&mut env, &cfg, seed_pool.clone());
            report.wall_seconds = 0.0; // the one field that may legitimately differ
            (model, report)
        };
        let (m1, r1) = run();
        let (m2, r2) = run();
        assert_eq!(m1.snapshot, m2.snapshot, "model weights must be bit-identical");
        assert_eq!(m1.action_indices, m2.action_indices);
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "training reports must match field-for-field"
        );
    }

    #[test]
    fn cold_model_matches_the_requested_subspace() {
        let env = tiny_env();
        let model =
            TrainedModel::cold(env.space().indices().to_vec(), *env.reward_config(), 7);
        assert_eq!(model.action_indices, env.space().indices());
        assert_eq!(model.snapshot.config.action_dim, 6);
        assert_eq!(model.snapshot.config.state_dim, simdb::TOTAL_METRIC_COUNT);
        assert_eq!(model.processor.observations(), 0);
        // Determinism: the same seed initializes identical networks.
        let again =
            TrainedModel::cold(env.space().indices().to_vec(), *env.reward_config(), 7);
        assert_eq!(again.snapshot, model.snapshot);
    }

    #[test]
    fn missing_checkpoint_loads_as_none() {
        let dir = ckpt_dir("missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(TrainingCheckpoint::load(&dir).unwrap().is_none());
    }

    fn curve(points: &[(usize, f64)]) -> TrainingReport {
        TrainingReport { actor_eval_history: points.to_vec(), ..blank_report(6) }
    }

    #[test]
    fn steps_to_bar_is_the_first_step_within_the_bar_of_the_final_best() {
        // Best 1 000, bar 950: the point at step 61 (960) is the first to
        // reach it, and a later dip does not undo that.
        let report = curve(&[(41, 100.0), (61, 960.0), (81, 1000.0), (101, 900.0)]);
        assert_eq!(report.steps_to_bar(), Some(61));
        // A crashed or degraded evaluation reads 0 tps and reaches nothing.
        let report = curve(&[(41, 0.0), (61, 500.0), (81, 520.0)]);
        assert_eq!(report.steps_to_bar(), Some(61));
    }

    #[test]
    fn steps_to_bar_is_censored_while_the_curve_still_climbs() {
        assert_eq!(curve(&[]).steps_to_bar(), None, "no evaluation yet");
        assert_eq!(curve(&[(41, 700.0)]).steps_to_bar(), None, "one point");
        let climbing = curve(&[(41, 100.0), (61, 500.0), (81, 1000.0)]);
        assert_eq!(climbing.steps_to_bar(), None, "first at the bar at the last point");
        assert_eq!(curve(&[(41, 0.0), (61, 0.0)]).steps_to_bar(), None, "every evaluation crashed");
    }

    #[test]
    fn every_evaluation_opens_an_episode_reset_to_the_default() {
        // Six episodes, each ended after 6 steps by the env's horizon, and
        // 12 random steps. Episodes 2 and 4 reset to the default and open
        // with an evaluation, at steps 13 and 25; the warm episodes 3 and 5
        // reset to the best configuration found and evaluate nothing.
        use crate::telemetry::{Telemetry, TraceEvent, TraceLevel};
        let mut env = tiny_env();
        env.set_telemetry(Telemetry::ring(64, TraceLevel::Summary));
        let cfg = TrainerConfig { episodes: 6, ..TrainerConfig::smoke() };
        let (_, report) = train_offline(&mut env, &cfg, Vec::new());
        let (mut first_step, mut warm, mut opened) = (1, Vec::new(), Vec::new());
        for event in env.telemetry().drain_ring() {
            match event {
                TraceEvent::EpisodeStart { warm_start, .. } => warm.push(warm_start),
                TraceEvent::EpisodeEnd { steps, .. } => {
                    opened.push(first_step);
                    first_step += steps as usize;
                }
                _ => {}
            }
        }
        assert_eq!(warm, [false, true, false, true, false, true]);
        let steps: Vec<usize> = report.actor_eval_history.iter().map(|p| p.0).collect();
        assert_eq!(steps, [13, 25]);
        for &(step, tps) in &report.actor_eval_history {
            let episode = opened.iter().position(|&s| s == step).expect("an episode's first step");
            assert!(!warm[episode], "step {step} opens warm episode {episode}");
            let measured = report.throughput_history[step - 1];
            assert!(tps == measured || tps == 0.0, "step {step}: {tps} against {measured}");
        }
    }
}
