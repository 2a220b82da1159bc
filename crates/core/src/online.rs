//! Online tuning (§2.1.2).
//!
//! A tuning request replays the user's workload against the instance,
//! feeds the observed state through the pre-trained model, deploys the
//! recommended knobs, and repeats for at most five steps (the paper's
//! maximum). The pre-trained model is *fine-tuned* on the transitions
//! observed during the request so it adapts to the real workload, through
//! the same memory-pool path offline training stores and learns by
//! ([`crate::memory_pool`]), and the configuration with the best observed
//! performance is recommended.
//!
//! With [`OnlineConfig::safety`] set, the loop runs under the safety
//! layer: proposals are clamped to a trust region around the
//! best-known-safe action ([`crate::safety`]), a per-window regret budget
//! adapts the region, steps that degrade throughput beyond the threshold
//! roll the instance back and quarantine the offending region, and a
//! drift detector over the metric stream ([`crate::drift`]) flags
//! workload shifts for re-tuning. Safety is off by default so the plain
//! paper behaviour (and its determinism guarantees) is unchanged.

use crate::drift::{offered_load, DriftDetector};
use crate::env::{DbEnv, RecoveryStats, StepOutcome};
use crate::memory_pool::{measured_transition, BatchScratch, MemoryKind, MemoryPool};
use crate::safety::{SafetyConfig, SafetyController, SafetyReport};
use crate::telemetry::{ReplayTrace, TraceEvent, TraceLevel};
use crate::trainer::TrainedModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{perturb, Ddpg, DdpgSnapshot, GaussianNoise, NoiseProcess};
use simdb::{KnobConfig, PerfMetrics};
use std::sync::Arc;

/// A shared inference backend serving actor forward passes for many
/// sessions at once (the daemon's shared serving tier). A session
/// admitted against a published model version calls through this instead of
/// owning a private [`Ddpg`] until its first fine-tune update forks a
/// private copy. `None` replies mean the backend no longer serves that
/// version (e.g. it is shutting down); the session then forks and continues
/// on its own agent, so serving-tier availability can never wedge a tuning
/// request.
pub trait SharedPolicy: Send + Sync {
    /// Deterministic evaluation-mode action for `state` under `version`'s
    /// weights, clamped to the `[0, 1]` knob box.
    fn act(&self, version: u64, state: &[f32]) -> Option<Vec<f32>>;
}

/// Online-tuning parameters.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Maximum tuning steps per request (paper: 5).
    pub max_steps: usize,
    /// Small exploration noise during online steps (the paper's
    /// accumulated-trying-steps exploration, §5.1.3).
    pub noise_sigma: f32,
    /// Fraction of knobs perturbed per exploration step. Dense noise over
    /// hundreds of knobs moves the configuration far off the policy's
    /// point in aggregate; perturbing a small random subset (the way a DBA
    /// double-checks a couple of knobs at a time) keeps exploration local.
    pub noise_fraction: f32,
    /// RNG seed.
    pub seed: u64,
    /// Safety layer for live instances: trust-region clamping, regret
    /// budgeting, degradation rollback, and drift detection. `None`
    /// (default) reproduces the paper's unguarded loop.
    pub safety: Option<SafetyConfig>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            max_steps: 5,
            noise_sigma: 0.15,
            noise_fraction: 0.1,
            seed: 0,
            safety: None,
        }
    }
}

/// Why a tuning request ended early in a degraded state. The request still
/// returns a safe recommendation (the best configuration it measured, or
/// the unchanged baseline) — degradation is graceful, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// This many consecutive steps failed (crashed or could not be
    /// measured), so the request stopped risking further deploys.
    RepeatedStepFailures {
        /// Consecutive failed steps at abort time.
        consecutive: u32,
    },
    /// The baseline itself could not be measured (infrastructure failures
    /// exhausted every retry); the recommendation is the unchanged
    /// current configuration.
    BaselineUnmeasurable,
}

/// One recorded online step.
#[derive(Debug, Clone)]
pub struct OnlineStep {
    /// Step index (1-based).
    pub step: usize,
    /// Throughput after deploying this step's recommendation.
    pub throughput_tps: f64,
    /// p99 latency (µs).
    pub p99_latency_us: f64,
    /// Reward.
    pub reward: f64,
    /// The recommendation crashed the instance.
    pub crashed: bool,
    /// The step could not be measured (infrastructure failure, not the
    /// configuration's fault); its metrics repeat the previous step's.
    pub degraded: bool,
    /// The safety layer reverted this step's configuration after measuring
    /// it (throughput dropped beyond the rollback threshold).
    pub rolled_back: bool,
}

/// Result of one tuning request.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// The recommended configuration (best observed performance).
    pub best_config: KnobConfig,
    /// Its external metrics.
    pub best_perf: PerfMetrics,
    /// Baseline (pre-tuning) metrics.
    pub initial_perf: PerfMetrics,
    /// Per-step trace.
    pub steps: Vec<OnlineStep>,
    /// The fine-tuned model (reuse for the next request — incremental
    /// training, §2.1.1).
    pub updated_model: TrainedModel,
    /// Set when the request ended early in a degraded state; the
    /// recommendation is still safe to deploy.
    pub degraded: Option<DegradedReason>,
    /// Recovery actions taken while serving this request.
    pub recovery: RecoveryStats,
    /// Safety-layer activity (`None` when the request ran unguarded).
    pub safety: Option<SafetyReport>,
}

impl TuningOutcome {
    /// Throughput improvement over the baseline.
    pub fn throughput_gain(&self) -> f64 {
        if self.initial_perf.throughput_tps <= 0.0 {
            0.0
        } else {
            self.best_perf.throughput_tps / self.initial_perf.throughput_tps - 1.0
        }
    }

    /// p99 latency reduction over the baseline (positive = faster).
    pub fn latency_reduction(&self) -> f64 {
        if self.initial_perf.p99_latency_us <= 0.0 {
            0.0
        } else {
            1.0 - self.best_perf.p99_latency_us / self.initial_perf.p99_latency_us
        }
    }
}

/// One online tuning request as a resumable state machine. [`tune_online`]
/// drives a session to completion in a tight loop; the `cdbtuned` daemon
/// instead advances many interleaved sessions one [`OnlineSession::step`]
/// at a time across its worker pool, and [`OnlineSession::finish`] closes
/// any of them out with the same [`TuningOutcome`] the one-shot call
/// produces.
pub struct OnlineSession {
    /// The weights the session acts with.
    weights: Weights,
    cfg: OnlineConfig,
    reward: crate::reward::RewardConfig,
    action_indices: Vec<usize>,
    reward_scale: f32,
    rng: StdRng,
    noise: GaussianNoise,
    /// The transitions observed so far, fine-tuned on (uniform replay).
    pool: MemoryPool,
    scratch: BatchScratch,
    recovery0: RecoveryStats,
    start: std::time::Instant,
    telemetry: crate::telemetry::Telemetry,
    initial_perf: PerfMetrics,
    best_perf: PerfMetrics,
    best_config: KnobConfig,
    state: Vec<f32>,
    steps: Vec<OnlineStep>,
    degraded: Option<DegradedReason>,
    consecutive_failures: u32,
    finished: bool,
    warm_action: Option<Vec<f32>>,
    safety: Option<SafetyController>,
    drift: Option<DriftDetector>,
    best_action: Vec<f32>,
}

/// The weights an [`OnlineSession`] acts with: exactly one copy.
enum Weights {
    /// The registry's published snapshot, held by a reference-counted bump
    /// (no weights copied at admission) and served through the shared tier
    /// as `version`, until the first fine-tune update or the first
    /// shared-tier refusal forks a private agent (copy-on-write).
    Shared { model: Arc<TrainedModel>, version: u64, tier: Arc<dyn SharedPolicy> },
    /// A privately owned agent, fine-tuned in place.
    Owned(Box<Ddpg>),
}

/// A private agent for online fine-tuning, built from `snapshot`.
fn online_agent(snapshot: &DdpgSnapshot) -> Box<Ddpg> {
    let mut agent = Ddpg::from_snapshot(snapshot);
    // A handful of online samples must refine, not replace, hours of
    // offline training.
    agent.scale_learning_rates(0.05);
    Box::new(agent)
}

impl OnlineSession {
    /// Opens a session: loads the model, measures the baseline, and emits
    /// the run/episode-start telemetry. A baseline that cannot be measured
    /// leaves the session already finished with
    /// [`DegradedReason::BaselineUnmeasurable`]; [`OnlineSession::finish`]
    /// then recommends the unchanged configuration.
    ///
    /// # Panics
    /// When the model was trained for a different knob subset than the
    /// environment exposes.
    pub fn begin(env: &mut DbEnv, model: &TrainedModel, cfg: &OnlineConfig) -> Self {
        Self::open(env, model, Weights::Owned(online_agent(&model.snapshot)), cfg)
    }

    /// [`OnlineSession::begin`] for the serving tier: the session borrows
    /// the shared `model` snapshot (an `Arc` bump, no weight copy), which
    /// `tier` publishes as `version`, and serves actor forwards through the
    /// tier until the first fine-tune update forks a private agent
    /// (copy-on-write).
    ///
    /// # Panics
    /// When the model was trained for a different knob subset than the
    /// environment exposes.
    pub fn begin_shared(
        env: &mut DbEnv,
        model: Arc<TrainedModel>,
        cfg: &OnlineConfig,
        (version, tier): (u64, Arc<dyn SharedPolicy>),
    ) -> Self {
        let weights = Weights::Shared { model: Arc::clone(&model), version, tier };
        Self::open(env, &model, weights, cfg)
    }

    /// The body of [`OnlineSession::begin`] and
    /// [`OnlineSession::begin_shared`] once the weights are chosen.
    fn open(env: &mut DbEnv, model: &TrainedModel, weights: Weights, cfg: &OnlineConfig) -> Self {
        assert_eq!(
            model.action_indices,
            env.space().indices(),
            "model was trained for a different knob subset"
        );
        env.set_processor(model.processor.clone());
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x0411));
        let noise =
            GaussianNoise::new(env.space().dim(), cfg.noise_sigma, cfg.noise_sigma * 0.2, 0.9);
        let recovery0 = *env.recovery_stats();
        let telemetry = env.telemetry().clone();
        telemetry.emit(&TraceEvent::RunStart {
            mode: "tune".to_string(),
            seed: cfg.seed,
            knobs: env.space().dim() as u64,
            state_dim: simdb::TOTAL_METRIC_COUNT as u64,
        });

        let baseline = env.current_config().clone();
        let baseline_action = env.space().from_config(&baseline);
        let safety = cfg
            .safety
            .map(|s| SafetyController::new(s, baseline_action.clone()));
        let drift = cfg.safety.map(|s| DriftDetector::new(s.drift));
        let mut session = Self {
            reward: model.reward,
            action_indices: model.action_indices.clone(),
            reward_scale: model.reward_scale,
            weights,
            cfg: cfg.clone(),
            rng,
            noise,
            pool: MemoryPool::new(MemoryKind::Uniform, Self::REPLAY_CAPACITY),
            scratch: BatchScratch::new(),
            recovery0,
            // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
            start: std::time::Instant::now(),
            telemetry,
            initial_perf: PerfMetrics::default(),
            best_perf: PerfMetrics::default(),
            best_config: baseline.clone(),
            state: Vec::new(),
            // Not sized by `max_steps`: that is the caller's budget, and a
            // daemon client sets it.
            steps: Vec::new(),
            degraded: None,
            consecutive_failures: 0,
            finished: false,
            warm_action: None,
            safety,
            drift,
            best_action: baseline_action,
        };
        match env.try_reset_episode(baseline) {
            Ok(state) => {
                session.state = state;
                session.initial_perf = *env.initial_perf();
                session.best_perf = session.initial_perf;
                session.telemetry.emit(&TraceEvent::EpisodeStart {
                    episode: 0,
                    warm_start: true,
                    baseline_tps: session.initial_perf.throughput_tps,
                    baseline_p99_us: session.initial_perf.p99_latency_us,
                });
            }
            Err(_) => {
                // Nothing measurable: recommend the unchanged baseline
                // rather than deploying blind.
                let perf = *env.last_perf();
                session.initial_perf = perf;
                session.best_perf = perf;
                session.degraded = Some(DegradedReason::BaselineUnmeasurable);
                session.finished = true;
            }
        }
        session
    }

    /// Overrides the first step's deployment with a known-good normalized
    /// action instead of the raw actor output. The daemon's registry uses
    /// this to replay the best configuration a near-identical fingerprint
    /// already discovered (OtterTune-style experience reuse); later steps
    /// explore around the warm-started policy as usual.
    pub fn set_warm_action(&mut self, action: Vec<f32>) {
        self.warm_action = Some(action);
    }

    /// The shared snapshot while [`OnlineSession::shares_model`] holds
    /// (`None` once the session owns its agent). It is then the *only*
    /// resident copy of the weights the session references — K
    /// warm-started sessions off one registry snapshot keep O(1) weight
    /// memory total.
    pub fn model(&self) -> Option<&Arc<TrainedModel>> {
        match &self.weights {
            Weights::Shared { model, .. } => Some(model),
            Weights::Owned(_) => None,
        }
    }

    /// True while the session still borrows the shared snapshot (no
    /// private agent has been forked yet).
    pub fn shares_model(&self) -> bool {
        matches!(self.weights, Weights::Shared { .. })
    }

    /// Materializes the private copy-on-write fork off the shared snapshot,
    /// dropping the shared-tier handle. A no-op once forked.
    fn fork_agent(&mut self) {
        if let Weights::Shared { model, .. } = &self.weights {
            self.weights = Weights::Owned(online_agent(&model.snapshot));
        }
    }

    /// Actor recommendation for the current state: the owned agent once
    /// forked, the shared tier otherwise. A shared-tier refusal
    /// (version retired, backend draining) forks on the spot.
    fn policy_act(&mut self) -> Vec<f32> {
        match &mut self.weights {
            Weights::Owned(agent) => agent.act(&self.state),
            Weights::Shared { model, version, tier } => match tier.act(*version, &self.state) {
                Some(action) => action,
                None => {
                    let mut agent = online_agent(&model.snapshot);
                    let action = agent.act(&self.state);
                    self.weights = Weights::Owned(agent);
                    action
                }
            },
        }
    }

    fn sparse_perturb(&mut self, raw: &[f32]) -> Vec<f32> {
        let dim = raw.len();
        let k = ((dim as f32 * self.cfg.noise_fraction).ceil() as usize).clamp(1, dim);
        let full = self.noise.sample(&mut self.rng);
        let mut sparse = vec![0.0f32; dim];
        for _ in 0..k {
            let i = self.rng.gen_range(0..dim);
            // lint:allow(panic) reason=i < dim by the gen_range bound and both vecs have len dim
            sparse[i] = full[i];
        }
        perturb(raw, &sparse)
    }

    /// Transitions the session's pool holds before its ring overwrites
    /// the oldest.
    const REPLAY_CAPACITY: usize = 4096;
    /// Stored transitions before fine-tuning starts.
    const MIN_REPLAY: usize = 3;
    /// Largest fine-tune minibatch (capped by the stored transitions).
    const MINIBATCH: usize = 16;
    /// Gradient updates per online step once fine-tuning.
    const UPDATES_PER_STEP: usize = 2;
    /// Consecutive failed steps (crashes or unmeasurable degraded steps)
    /// before the request aborts and recommends the best configuration
    /// known so far instead of risking further deploys.
    const MAX_CONSECUTIVE_FAILURES: u32 = 3;

    /// Advances the session by one tuning step; `None` once the session is
    /// finished (budget exhausted or aborted).
    pub fn step(&mut self, env: &mut DbEnv) -> Option<OnlineStep> {
        if self.finished || self.steps.len() >= self.cfg.max_steps {
            self.finished = true;
            return None;
        }
        let step = self.steps.len() + 1;
        // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
        let t_rec = std::time::Instant::now();
        // Step 1 deploys the registry's warm action, or else the model's
        // recommendation verbatim; later steps explore around the
        // (fine-tuned) policy. The policy is asked only when its action
        // is deployed.
        let mut action = if step > 1 {
            let raw = self.policy_act();
            self.sparse_perturb(&raw)
        } else if let Some(warm) = self.warm_action.take() {
            warm
        } else {
            self.policy_act()
        };
        let recommendation_wall_us = t_rec.elapsed().as_micros() as u64;
        // Trust region: pull the proposal back toward the best-known-safe
        // action before it touches the instance.
        if let Some(safety) = self.safety.as_mut() {
            let clamp = safety.clamp(&mut action);
            if clamp.clamped_knobs > 0 && self.telemetry.enabled(TraceLevel::Step) {
                self.telemetry.emit(&TraceEvent::SafetyClamp {
                    step: step as u64,
                    clamped_knobs: clamp.clamped_knobs as u64,
                    max_delta: clamp.max_delta,
                    radius: clamp.radius,
                });
            }
        }
        let status_before = self.drift.as_ref().map(|_| env.engine().metrics());
        let mut out = env.step_action(&action);
        out.timing.recommendation_wall_us = recommendation_wall_us;
        let mut rolled_back = false;
        if let Some(safety) = self.safety.as_mut() {
            let best_safe_tps = self.best_perf.throughput_tps;
            let verdict =
                safety.assess(out.perf.throughput_tps, best_safe_tps, out.crashed, out.degraded);
            if verdict.rollback {
                // Degraded beyond the threshold without crashing: revert to
                // the best-known-safe config through the escalation path
                // and mark the offending region off-limits.
                env.rollback_to_action(&self.best_action);
                env.quarantine_action(&action);
                rolled_back = true;
                self.telemetry.emit(&TraceEvent::Rollback {
                    step: step as u64,
                    from_tps: out.perf.throughput_tps,
                    to_tps: best_safe_tps,
                    drop_frac: verdict.drop_frac,
                    quarantined: true,
                });
            }
            if let Some(w) = verdict.window {
                self.telemetry.emit(&TraceEvent::RegretWindow {
                    window: w.window,
                    regret: w.regret,
                    budget: w.budget,
                    over_budget: w.over_budget,
                    radius: safety.radius(),
                });
            }
        }
        // A crashed or degraded step ran no stress window: nothing was
        // offered, so there is nothing for the detector to see.
        let measured = !out.crashed && !out.degraded;
        if let (Some(drift), Some(before), true) = (self.drift.as_mut(), status_before, measured) {
            if let Some(ev) = drift.observe(&offered_load(&env.engine().metrics(), &before)) {
                self.telemetry.emit(&TraceEvent::DriftDetected {
                    step: step as u64,
                    distance: ev.distance,
                    threshold: ev.threshold,
                    reference_age: ev.reference_age,
                });
                if let Some(safety) = self.safety.as_mut() {
                    // The workload moved under us: the old optimum no
                    // longer binds, so widen exploration to re-adapt.
                    safety.note_drift();
                }
            }
        }
        let recorded = OnlineStep {
            step,
            throughput_tps: out.perf.throughput_tps,
            p99_latency_us: out.perf.p99_latency_us,
            reward: out.reward,
            crashed: out.crashed,
            degraded: out.degraded,
            rolled_back,
        };
        self.steps.push(recorded.clone());
        // The step event goes out once the step's fine-tune has run, but
        // reports the replay pool as the step found it.
        let replay = self.pool.trace((1.0, 1.0));
        if out.crashed || out.degraded {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= Self::MAX_CONSECUTIVE_FAILURES {
                // The instance (or its infrastructure) is in no state to
                // keep experimenting on; settle for the best so far.
                self.degraded = Some(DegradedReason::RepeatedStepFailures {
                    consecutive: self.consecutive_failures,
                });
                self.finished = true;
                self.emit_step(env, step, &action, &out, replay);
                return Some(recorded);
            }
        } else {
            self.consecutive_failures = 0;
        }
        if !out.crashed && !out.degraded && !rolled_back
            && out.perf.throughput_tps > self.best_perf.throughput_tps
        {
            self.best_perf = out.perf;
            self.best_config = env.current_config().clone();
            self.best_action.clear();
            self.best_action.extend_from_slice(&action);
            if let Some(safety) = self.safety.as_mut() {
                safety.recenter(&action);
            }
        }
        if let Some(t) = measured_transition(&self.state, &action, &out) {
            self.pool.store(t, self.reward_scale);
        }

        if self.pool.len() >= Self::MIN_REPLAY {
            // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
            let t_upd = std::time::Instant::now();
            // First gradient update: a shared session forks its private
            // copy of the weights here (copy-on-write) — the published
            // snapshot other sessions serve from stays immutable.
            self.fork_agent();
            if let Weights::Owned(agent) = &mut self.weights {
                let n = self.pool.len().min(Self::MINIBATCH);
                let k = Self::UPDATES_PER_STEP;
                self.pool.learn(agent, k, n, &mut self.rng, &mut self.scratch);
            }
            out.timing.model_update_wall_us = t_upd.elapsed().as_micros() as u64;
        }
        self.emit_step(env, step, &action, &out, replay);
        self.state = out.state;
        self.noise.decay();

        if self.steps.len() >= self.cfg.max_steps {
            self.finished = true;
        }
        Some(recorded)
    }

    /// Emits the step's trace event (at [`TraceLevel::Step`]).
    fn emit_step(
        &self,
        env: &DbEnv,
        step: usize,
        action: &[f32],
        out: &StepOutcome,
        replay: ReplayTrace,
    ) {
        if self.telemetry.enabled(TraceLevel::Step) {
            let event = out.trace_event(step as u64, 0, action, replay, env.engine_sample());
            self.telemetry.emit(&event);
        }
    }

    /// True once [`OnlineSession::step`] has nothing left to do.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps.len()
    }

    /// Baseline (pre-tuning) metrics.
    pub fn initial_perf(&self) -> PerfMetrics {
        self.initial_perf
    }

    /// Best metrics observed so far.
    pub fn best_perf(&self) -> PerfMetrics {
        self.best_perf
    }

    /// The best configuration observed so far (the baseline until a step
    /// beats it).
    pub fn best_config(&self) -> &KnobConfig {
        &self.best_config
    }

    /// Set when the session ended early in a degraded state.
    pub fn degraded(&self) -> Option<DegradedReason> {
        self.degraded
    }

    /// Drift detections fired so far (0 when no detector is configured).
    pub fn drift_detections(&self) -> u64 {
        self.drift.as_ref().map_or(0, |d| d.detections())
    }

    /// Snapshots the live session as a
    /// [`crate::trainer::TrainingCheckpoint`] so the `cdbtuned` shutdown
    /// drain persists in-flight fine-tuning work with the same machinery
    /// (and the same atomic-write guarantees) offline training uses. The report carries the per-step histories observed so
    /// far; the transitions are the session's replay contents.
    pub fn drain_checkpoint(&self, env: &DbEnv) -> crate::trainer::TrainingCheckpoint {
        use crate::trainer::{TrainingCheckpoint, TrainingReport};
        let report = TrainingReport {
            total_steps: self.steps.len(),
            reward_history: self.steps.iter().map(|s| s.reward).collect(),
            throughput_history: self.steps.iter().map(|s| s.throughput_tps).collect(),
            latency_history: self.steps.iter().map(|s| s.p99_latency_us).collect(),
            best_throughput: self.best_perf.throughput_tps,
            best_latency_us: self.best_perf.p99_latency_us,
            best_action: env.space().from_config(&self.best_config),
            actor_eval_history: Vec::new(),
            crashes: self.steps.iter().filter(|s| s.crashed).count() as u64,
            wall_seconds: self.start.elapsed().as_secs_f64(),
            recovery: env.recovery_stats().since(&self.recovery0),
        };
        TrainingCheckpoint {
            version: crate::persist::FORMAT_VERSION,
            seed: self.cfg.seed,
            episode: 0,
            ep_step: self.steps.len(),
            snapshot: match &self.weights {
                Weights::Owned(agent) => agent.snapshot(),
                // Never forked: the session's weights are still exactly
                // the shared snapshot it was admitted against.
                Weights::Shared { model, .. } => model.snapshot.clone(),
            },
            processor: env.processor().clone(),
            transitions: self.pool.transitions(),
            report,
            best_eval: f64::MIN,
            best_snapshot: None,
            quarantined: env.quarantined_keys(),
        }
    }

    /// Closes the session: emits run-end telemetry and returns the same
    /// [`TuningOutcome`] the one-shot [`tune_online`] produces.
    pub fn finish(self, env: &mut DbEnv) -> TuningOutcome {
        let updated_model = TrainedModel {
            // The fine-tuned weights move out; only a never-forked session
            // copies, off the snapshot it shares.
            snapshot: match self.weights {
                Weights::Owned(agent) => agent.into_snapshot(),
                Weights::Shared { model, .. } => model.snapshot.clone(),
            },
            processor: env.processor().clone(),
            reward: self.reward,
            action_indices: self.action_indices,
            reward_scale: self.reward_scale,
        };
        self.telemetry.emit(&TraceEvent::RunEnd {
            mode: "tune".to_string(),
            total_steps: self.steps.len() as u64,
            best_tps: self.best_perf.throughput_tps,
            crashes: self.steps.iter().filter(|s| s.crashed).count() as u64,
            wall_seconds: self.start.elapsed().as_secs_f64(),
        });
        self.telemetry.flush();
        TuningOutcome {
            best_config: self.best_config,
            best_perf: self.best_perf,
            initial_perf: self.initial_perf,
            steps: self.steps,
            updated_model,
            degraded: self.degraded,
            recovery: env.recovery_stats().since(&self.recovery0),
            safety: self.safety.as_ref().map(|s| s.report()),
        }
    }
}

/// Serves one online tuning request. The environment's workload should be
/// the user's replayed trace (or the live generator standing in for it);
/// the baseline is the instance's currently deployed configuration.
pub fn tune_online(env: &mut DbEnv, model: &TrainedModel, cfg: &OnlineConfig) -> TuningOutcome {
    let mut session = OnlineSession::begin(env, model, cfg);
    while session.step(env).is_some() {}
    session.finish(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::tests::tiny_env;
    use crate::trainer::{train_offline, TrainerConfig};

    fn trained() -> (crate::env::DbEnv, TrainedModel) {
        let mut env = tiny_env();
        let cfg = TrainerConfig { episodes: 3, steps_per_episode: 6, ..TrainerConfig::smoke() };
        let (model, _) = train_offline(&mut env, &cfg, Vec::new());
        (env, model)
    }

    #[test]
    fn runs_at_most_five_steps_by_default() {
        let (mut env, model) = trained();
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert!(outcome.steps.len() <= 5);
        assert!(!outcome.steps.is_empty());
        assert!(outcome.best_perf.throughput_tps >= outcome.initial_perf.throughput_tps);
    }

    #[test]
    fn best_config_never_loses_to_baseline() {
        // The recommender keeps the baseline when every recommendation is
        // worse, so the reported gain is never negative.
        let (mut env, model) = trained();
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert!(outcome.throughput_gain() >= 0.0);
    }

    #[test]
    fn fine_tuning_updates_the_model() {
        let (mut env, model) = trained();
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert_ne!(
            outcome.updated_model.snapshot.actor, model.snapshot.actor,
            "fine-tuning must move the actor weights"
        );
    }

    #[test]
    fn a_huge_step_budget_still_steps() {
        // The budget is a caller's number (the daemon takes it off the
        // wire); sizing the step history by it aborted the process.
        let (mut env, model) = trained();
        let cfg = OnlineConfig { max_steps: 1 << 40, ..OnlineConfig::default() };
        let mut session = OnlineSession::begin(&mut env, &model, &cfg);
        assert_eq!(session.step(&mut env).map(|s| s.step), Some(1));
        assert!(!session.is_finished());
    }

    #[test]
    fn repeated_step_failures_abort_with_a_safe_recommendation() {
        let (mut env, model) = trained();
        // Every deploy fails: each step degrades; after three in a row the
        // request aborts and recommends the (measured) baseline.
        env.engine_mut()
            .set_fault_plan(Some(simdb::FaultPlan::new(2).with_restart_failure(1.0)));
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert_eq!(
            outcome.degraded,
            Some(DegradedReason::RepeatedStepFailures { consecutive: 3 })
        );
        assert_eq!(outcome.steps.len(), 3);
        assert!(outcome.steps.iter().all(|s| s.degraded));
        assert!(outcome.recovery.retries > 0);
        assert!(outcome.throughput_gain() >= 0.0, "the baseline recommendation is safe");
        assert!(env.engine().is_running());
    }

    #[test]
    fn unmeasurable_baseline_returns_the_unchanged_config() {
        let (mut env, model) = trained();
        let before = env.current_config().clone();
        // Every stress window dies mid-run: the baseline cannot be measured.
        env.engine_mut()
            .set_fault_plan(Some(simdb::FaultPlan::new(4).with_spurious_crash(1.0)));
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert_eq!(outcome.degraded, Some(DegradedReason::BaselineUnmeasurable));
        assert!(outcome.steps.is_empty());
        assert_eq!(outcome.best_config.values().len(), before.values().len());
        assert!(outcome.recovery.retries > 0);
    }

    #[test]
    fn stepwise_session_matches_the_one_shot_call() {
        // The daemon drives sessions one step() at a time; interleaving
        // must not change what a request observes or recommends, so the
        // incremental API replays the one-shot call exactly.
        let (mut env_a, model_a) = trained();
        let one_shot = tune_online(&mut env_a, &model_a, &OnlineConfig::default());

        let (mut env_b, model_b) = trained();
        let mut session = OnlineSession::begin(&mut env_b, &model_b, &OnlineConfig::default());
        let mut recorded = Vec::new();
        while let Some(s) = session.step(&mut env_b) {
            assert_eq!(session.steps_taken(), recorded.len() + 1);
            recorded.push(s);
        }
        assert!(session.is_finished());
        let stepwise = session.finish(&mut env_b);
        assert_eq!(stepwise.steps.len(), one_shot.steps.len());
        for (a, b) in one_shot.steps.iter().zip(&stepwise.steps) {
            assert_eq!(a.throughput_tps, b.throughput_tps, "step {}", a.step);
            assert_eq!(a.reward, b.reward, "step {}", a.step);
        }
        assert_eq!(stepwise.best_perf.throughput_tps, one_shot.best_perf.throughput_tps);
        assert_eq!(stepwise.initial_perf.throughput_tps, one_shot.initial_perf.throughput_tps);
        assert_eq!(recorded.len(), stepwise.steps.len());
    }

    #[test]
    fn warm_action_overrides_the_first_deployment() {
        use crate::telemetry::{Telemetry, TraceEvent, TraceLevel};
        let (mut env, model) = trained();
        env.set_telemetry(Telemetry::ring(64, TraceLevel::Step));
        let warm = vec![0.75f32; env.space().dim()];
        let mut session = OnlineSession::begin(&mut env, &model, &OnlineConfig::default());
        session.set_warm_action(warm.clone());
        let _ = session.step(&mut env).expect("first step runs");
        let events = env.telemetry().drain_ring();
        let first = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Step { step: 1, action, .. } => Some(action.clone()),
                _ => None,
            })
            .expect("step 1 traced");
        let expected: Vec<f64> = warm.iter().map(|&x| f64::from(x)).collect();
        assert_eq!(first, expected, "step 1 deployed the warm action verbatim");
        let _ = session.finish(&mut env);
    }

    #[test]
    fn drained_session_state_fits_validation() {
        let (mut env, model) = trained();
        let mut session = OnlineSession::begin(&mut env, &model, &OnlineConfig::default());
        let _ = session.step(&mut env);
        let _ = session.step(&mut env);
        let ck = session.drain_checkpoint(&env);
        assert_eq!(ck.report.total_steps, 2);
        assert_eq!(ck.ep_step, 2);
        assert_eq!(ck.report.reward_history.len(), 2);
        assert_eq!(ck.report.best_action.len(), env.space().dim());
        // The drained state passes the same spec validation a resume would
        // apply, so a drained session can seed later offline training.
        ck.validate_against(simdb::TOTAL_METRIC_COUNT, env.space().dim())
            .expect("drained checkpoint fits its own session");
        let _ = session.finish(&mut env);
    }

    #[test]
    fn drained_checkpoint_reads_back_in_the_format_it_was_written() {
        use crate::trainer::TrainingCheckpoint;
        let (mut env, model) = trained();
        let mut session = OnlineSession::begin(&mut env, &model, &OnlineConfig::default());
        let _ = session.step(&mut env);
        let dir = std::env::temp_dir()
            .join(format!("cdbtune-drain-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        session.drain_checkpoint(&env).save_atomic(&dir).expect("checkpoint written");
        let ck = TrainingCheckpoint::load(&dir).expect("decodes").expect("exists");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(ck.version, crate::persist::FORMAT_VERSION);
        assert_eq!(ck.report.total_steps, 1);
        let _ = session.finish(&mut env);
    }

    #[test]
    fn fine_tuned_steps_report_their_update_time() {
        use crate::telemetry::{Telemetry, TraceEvent, TraceLevel};
        let (mut env, model) = trained();
        env.set_telemetry(Telemetry::ring(64, TraceLevel::Step));
        let outcome = tune_online(&mut env, &model, &OnlineConfig::default());
        assert_eq!(outcome.steps.len(), 5);
        let updates: Vec<(u64, u64, u64)> = env
            .telemetry()
            .drain_ring()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Step { step, replay, timing, .. } => {
                    Some((*step, replay.len, timing.model_update_wall_us))
                }
                _ => None,
            })
            .collect();
        assert_eq!(updates.len(), 5);
        for (step, replay_len, update_us) in updates {
            // The pool as the step found it: one transition per earlier step.
            assert_eq!(replay_len, step - 1);
            // Fine-tuning starts once the pool holds 3 transitions.
            if step >= 3 {
                assert!(update_us > 0, "step {step} fine-tuned in {update_us} µs");
            } else {
                assert_eq!(update_us, 0, "step {step} did not fine-tune");
            }
        }
    }

    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Test double for the daemon's batched tier: serves through an
    /// [`rl::SnapshotPolicy`] (bit-identical to the agent's own forward
    /// pass) while counting calls, and can be told to refuse service.
    struct CountingShared {
        policy: Mutex<rl::SnapshotPolicy>,
        acts: AtomicU64,
        refuse: AtomicBool,
    }

    impl CountingShared {
        fn new(model: &TrainedModel) -> Arc<Self> {
            Arc::new(Self {
                policy: Mutex::new(rl::SnapshotPolicy::from_snapshot(&model.snapshot)),
                acts: AtomicU64::new(0),
                refuse: AtomicBool::new(false),
            })
        }
    }

    impl SharedPolicy for CountingShared {
        fn act(&self, _version: u64, state: &[f32]) -> Option<Vec<f32>> {
            if self.refuse.load(Ordering::SeqCst) {
                return None;
            }
            self.acts.fetch_add(1, Ordering::SeqCst);
            Some(self.policy.lock().ok()?.act_row(state))
        }
    }

    #[test]
    fn shared_session_serves_through_the_tier_and_matches_private() {
        // A shared session serves steps 1–3 through the shared tier (one
        // actor call each) and forks its private agent at step 3's first
        // update. An eval-mode forward draws no dropout RNG and updates no
        // batch-norm statistic, so the fork starts from the state a
        // private session's agent still has then: the observed steps and
        // the fine-tuned actor are bit-identical to the private session's.
        let cfg = OnlineConfig::default();
        let (mut env_a, model_a) = trained();
        let private = tune_online(&mut env_a, &model_a, &cfg);

        let (mut env_b, model_b) = trained();
        let tier = CountingShared::new(&model_b);
        let arc_model = Arc::new(model_b.clone());
        let mut session = OnlineSession::begin_shared(
            &mut env_b,
            arc_model.clone(),
            &cfg,
            (1, tier.clone()),
        );
        assert!(session.shares_model(), "admission must not fork");
        let held = session.model().expect("a shared session holds the snapshot");
        assert!(Arc::ptr_eq(held, &arc_model), "no weight copy at admission");
        for _ in 0..2 {
            let _ = session.step(&mut env_b);
        }
        assert!(session.shares_model(), "no update before step 3, no fork");
        let _ = session.step(&mut env_b);
        assert!(!session.shares_model(), "step 3's first update forks");
        while session.step(&mut env_b).is_some() {}
        assert_eq!(tier.acts.load(Ordering::SeqCst), 3, "one tier call per step before the fork");
        let out = session.finish(&mut env_b);
        assert_eq!(out.updated_model.snapshot.actor, private.updated_model.snapshot.actor);
        assert_ne!(out.updated_model.snapshot.actor, model_b.snapshot.actor);
        assert_eq!(out.steps.len(), private.steps.len());
        for (a, b) in private.steps.iter().zip(&out.steps) {
            assert_eq!(a.throughput_tps, b.throughput_tps, "step {}", a.step);
            assert_eq!(a.reward, b.reward, "step {}", a.step);
        }
    }

    #[test]
    fn fine_tune_forks_a_private_copy_on_first_update() {
        let (mut env, model) = trained();
        let tier = CountingShared::new(&model);
        let mut session = OnlineSession::begin_shared(
            &mut env,
            Arc::new(model.clone()),
            &OnlineConfig::default(),
            (1, tier.clone()),
        );
        // Fine-tuning starts once replay holds 3 transitions, i.e. inside
        // the 3rd step; the first two steps must stay on the shared tier.
        let _ = session.step(&mut env);
        let _ = session.step(&mut env);
        assert!(session.shares_model(), "no update yet, no fork");
        // A drained-before-fork session snapshots the shared weights.
        let ck = session.drain_checkpoint(&env);
        assert_eq!(ck.snapshot.actor, model.snapshot.actor);
        let _ = session.step(&mut env);
        assert!(!session.shares_model(), "the first update forks");
        while session.step(&mut env).is_some() {}
        assert_eq!(tier.acts.load(Ordering::SeqCst), 3, "one call per step, none after the fork");
        let out = session.finish(&mut env);
        assert_ne!(
            out.updated_model.snapshot.actor, model.snapshot.actor,
            "the fork fine-tunes its own copy"
        );
    }

    #[test]
    fn a_refusing_shared_tier_forks_immediately() {
        // A retired version / draining backend answers None; the session
        // must fork on the spot and complete on its private agent rather
        // than wedge.
        let (mut env, model) = trained();
        let tier = CountingShared::new(&model);
        tier.refuse.store(true, Ordering::SeqCst);
        let mut session = OnlineSession::begin_shared(
            &mut env,
            Arc::new(model.clone()),
            &OnlineConfig::default(),
            (1, tier.clone()),
        );
        let first = session.step(&mut env);
        assert!(first.is_some());
        assert!(!session.shares_model(), "refusal forks immediately");
        while session.step(&mut env).is_some() {}
        let out = session.finish(&mut env);
        assert!(!out.steps.is_empty());
        assert_eq!(tier.acts.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "different knob subset")]
    fn model_space_mismatch_panics() {
        let (mut env, mut model) = trained();
        model.action_indices.pop();
        let _ = tune_online(&mut env, &model, &OnlineConfig::default());
    }

    fn safe_cfg() -> OnlineConfig {
        OnlineConfig {
            max_steps: 8,
            safety: Some(crate::safety::SafetyConfig {
                regret_window: 4,
                ..crate::safety::SafetyConfig::default()
            }),
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn guarded_run_reports_safety_activity_and_stays_safe() {
        let (mut env, model) = trained();
        let outcome = tune_online(&mut env, &model, &safe_cfg());
        let report = outcome.safety.expect("guarded run carries a safety report");
        assert!(report.regret_windows >= 1, "8 steps close at least one window of 4");
        assert!(report.final_radius > 0.0);
        assert_eq!(report.regret_budget, crate::safety::SafetyConfig::default().regret_budget);
        // The recommendation is still never worse than the baseline.
        assert!(outcome.throughput_gain() >= 0.0);
        // Unguarded runs carry no report.
        let (mut env2, model2) = trained();
        let plain = tune_online(&mut env2, &model2, &OnlineConfig::default());
        assert!(plain.safety.is_none());
    }

    #[test]
    fn trust_region_keeps_deployments_near_the_safe_center() {
        use crate::telemetry::{Telemetry, TraceLevel};
        let (mut env, model) = trained();
        env.set_telemetry(Telemetry::ring(256, TraceLevel::Step));
        // A tight region forces clamping of essentially every exploration.
        let cfg = OnlineConfig {
            max_steps: 6,
            noise_sigma: 0.6,
            noise_fraction: 1.0,
            safety: Some(crate::safety::SafetyConfig {
                trust_radius: 0.05,
                min_radius: 0.05,
                max_radius: 0.05,
                ..crate::safety::SafetyConfig::default()
            }),
            ..OnlineConfig::default()
        };
        let mut session = OnlineSession::begin(&mut env, &model, &cfg);
        let baseline_action = env.space().from_config(env.current_config());
        while session.step(&mut env).is_some() {}
        let report = session.finish(&mut env).safety.unwrap();
        let events = env.telemetry().drain_ring();
        let mut clamp_events = 0u64;
        for e in &events {
            match e {
                TraceEvent::SafetyClamp { radius, .. } => {
                    clamp_events += 1;
                    assert!((radius - 0.05).abs() < 1e-9);
                }
                // Every deployed action sits inside the region around
                // the center in force at deploy time; with a frozen
                // radius the center only moves onto measured-safe
                // actions, so distance from the *baseline* center can
                // only grow radius-by-radius. Step 1 deploys the raw
                // recommendation clamped to the baseline center.
                TraceEvent::Step { step: 1, action, crashed: false, degraded: false, .. } => {
                    for (a, c) in action.iter().zip(&baseline_action) {
                        assert!(
                            (a - f64::from(*c)).abs() <= 0.05 + 1e-6,
                            "step 1 escaped the trust region: |{a} - {c}|"
                        );
                    }
                }
                _ => {}
            }
        }
        assert!(clamp_events > 0, "aggressive noise under a tight region must clamp");
        assert_eq!(report.clamped_steps, clamp_events);
    }

    #[test]
    fn rollback_fires_within_k_steps_of_injected_degradation() {
        let (mut env, model) = trained();
        // Healthy baseline, then a straggler fault slows every window by
        // 4x from engine tick 6 onward — throughput craters without a
        // crash, which is exactly the case rollback exists for.
        env.engine_mut().set_fault_plan(Some(
            simdb::FaultPlan::new(3).with_straggler(1.0, 4.0).in_window(6, u64::MAX),
        ));
        // The trained() env already burned fault ticks during offline
        // training; re-base so the window counts from this request.
        env.engine_mut().reset_fault_clock();
        let cfg = OnlineConfig {
            max_steps: 8,
            safety: Some(crate::safety::SafetyConfig {
                rollback_threshold: 0.3,
                ..crate::safety::SafetyConfig::default()
            }),
            ..OnlineConfig::default()
        };
        let outcome = tune_online(&mut env, &model, &cfg);
        let report = outcome.safety.unwrap();
        assert!(report.rollbacks >= 1, "a 4x slowdown must trigger rollback");
        let first_slow = outcome
            .steps
            .iter()
            .position(|s| s.throughput_tps < outcome.initial_perf.throughput_tps * 0.7);
        let first_rollback = outcome.steps.iter().position(|s| s.rolled_back);
        let (slow, rb) = (first_slow.expect("degradation visible"), first_rollback.unwrap());
        assert!(
            rb <= slow + 1,
            "rollback within K=2 steps of degradation (slow at {slow}, rollback at {rb})"
        );
        assert!(env.recovery_stats().rollbacks >= 1);
        assert!(env.quarantined_count() >= 1, "the offending region is quarantined");
    }

    #[test]
    fn drift_detection_surfaces_in_the_outcome() {
        use crate::telemetry::{Telemetry, TraceLevel};
        let (mut env, model) = trained();
        env.set_telemetry(Telemetry::ring(256, TraceLevel::Summary));
        // Shift the workload mid-run: read-write -> write-only at window 8
        // with a flash crowd, driven by the dynamic trace.
        let spec = workload::DynamicSpec::steady(workload::WorkloadKind::SysbenchRw, 0.005)
            .with_shift(8, workload::WorkloadKind::SysbenchWo)
            .with_flash(8, 1000, 2.5);
        env.install_workload(Box::new(workload::DynamicWorkload::new(spec)), None);
        let cfg = OnlineConfig {
            max_steps: 12,
            safety: Some(crate::safety::SafetyConfig {
                drift: crate::drift::DriftConfig { window: 3 },
                ..crate::safety::SafetyConfig::default()
            }),
            ..OnlineConfig::default()
        };
        let outcome = tune_online(&mut env, &model, &cfg);
        let report = outcome.safety.unwrap();
        assert!(report.drift_events >= 1, "the mix shift + flash crowd must register");
        let events = env.telemetry().drain_ring();
        assert!(
            events.iter().any(|e| matches!(e, TraceEvent::DriftDetected { .. })),
            "drift telemetry emitted"
        );
    }
}
