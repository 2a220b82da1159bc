//! The tuning environment: a database instance plus a workload, exposed to
//! the agent as states/actions/rewards (Figure 3's correspondence).
//!
//! One environment step is one tuning iteration of §2.1: deploy a knob
//! configuration (restarting the instance), replay the workload as a stress
//! test, collect the 63-metric window delta as the state, and compute the
//! reward from throughput/latency against the previous step and the initial
//! configuration. A crashing configuration (redo log exceeding disk,
//! §5.2.3) earns [`crate::reward::CRASH_REWARD`] and the instance is
//! restored to the last healthy configuration.
//!
//! # Resilience
//!
//! The environment assumes hostile infrastructure (see
//! [`simdb::FaultPlan`]): transient deploy failures are retried with
//! exponential backoff under a deadline (4 retries, waiting 250 ms doubling
//! to at most 4 s each and 15 s in all); a config that crashes the instance
//! 3 consecutive times is quarantined and never deployed again; every
//! failure path rolls back to the last healthy configuration (escalating to
//! a forced restart, which cannot fail, so the environment never wedges).
//! Backoff is *simulated* — accounted in [`RecoveryStats::backoff_ms`],
//! never slept — matching the repo-wide simulated-time discipline. Collected metric deltas are
//! sanitized ([`crate::state::StateProcessor::sanitize`]) so dropped
//! metrics never poison the actor input.

use crate::action::ActionSpace;
use crate::reward::{Perf, RewardConfig, CRASH_REWARD};
use crate::state::StateProcessor;
use crate::telemetry::{
    EngineSample, PhaseTiming, RecoveryDelta, ReplayTrace, RewardTrace, Telemetry, TraceEvent,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Environment, StepResult};
use simdb::{Engine, KnobConfig, PerfMetrics, SimDbError, Txn};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;
use workload::Workload;

/// Counters of every recovery action taken. Cumulative over the
/// environment's lifetime; [`RecoveryStats::since`] diffs two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient failures retried (deploys and stress windows).
    pub retries: u64,
    /// Simulated exponential-backoff time accrued, milliseconds.
    pub backoff_ms: u64,
    /// Rollbacks to the last healthy configuration.
    pub rollbacks: u64,
    /// Forced engine restarts (the escalation when even the rollback
    /// deploy kept failing).
    pub forced_restarts: u64,
    /// Configuration cells quarantined after repeated crashes.
    pub quarantined_configs: u64,
    /// Steps short-circuited because the action hit a quarantined cell.
    pub quarantine_hits: u64,
    /// Steps that ended degraded (no measurement; neutral reward).
    pub degraded_steps: u64,
    /// Metric entries imputed from the running mean (dropouts).
    pub imputed_metrics: u64,
    /// Training checkpoints written (filled in by the trainer).
    pub checkpoints_written: u64,
    /// Training checkpoints loaded on resume (filled in by the trainer).
    pub checkpoints_loaded: u64,
}

impl RecoveryStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.rollbacks += other.rollbacks;
        self.forced_restarts += other.forced_restarts;
        self.quarantined_configs += other.quarantined_configs;
        self.quarantine_hits += other.quarantine_hits;
        self.degraded_steps += other.degraded_steps;
        self.imputed_metrics += other.imputed_metrics;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoints_loaded += other.checkpoints_loaded;
    }

    /// Field-wise difference against an `earlier` snapshot (saturating).
    pub fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            retries: self.retries.saturating_sub(earlier.retries),
            backoff_ms: self.backoff_ms.saturating_sub(earlier.backoff_ms),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            forced_restarts: self.forced_restarts.saturating_sub(earlier.forced_restarts),
            quarantined_configs: self
                .quarantined_configs
                .saturating_sub(earlier.quarantined_configs),
            quarantine_hits: self.quarantine_hits.saturating_sub(earlier.quarantine_hits),
            degraded_steps: self.degraded_steps.saturating_sub(earlier.degraded_steps),
            imputed_metrics: self.imputed_metrics.saturating_sub(earlier.imputed_metrics),
            checkpoints_written: self
                .checkpoints_written
                .saturating_sub(earlier.checkpoints_written),
            checkpoints_loaded: self
                .checkpoints_loaded
                .saturating_sub(earlier.checkpoints_loaded),
        }
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} retries ({} ms backoff), {} rollbacks, {} forced restarts, \
             {} quarantined, {} quarantine hits, {} degraded steps, \
             {} imputed metrics, {} ckpts written / {} loaded",
            self.retries,
            self.backoff_ms,
            self.rollbacks,
            self.forced_restarts,
            self.quarantined_configs,
            self.quarantine_hits,
            self.degraded_steps,
            self.imputed_metrics,
            self.checkpoints_written,
            self.checkpoints_loaded
        )
    }
}

/// Typed environment failure: what operation kept failing, after how many
/// attempts, and the engine error that ended it.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// Deploying a configuration failed terminally (a crash) or kept
    /// failing transiently until retries/deadline ran out.
    DeployFailed {
        /// Deploy attempts made.
        attempts: u32,
        /// The last engine error.
        source: SimDbError,
    },
    /// A stress-test window kept failing until retries/deadline ran out.
    WindowFailed {
        /// Window attempts made.
        attempts: u32,
        /// The last engine error.
        source: SimDbError,
    },
}

impl EnvError {
    /// The underlying engine error.
    pub fn source_error(&self) -> &SimDbError {
        match self {
            EnvError::DeployFailed { source, .. } | EnvError::WindowFailed { source, .. } => source,
        }
    }
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::DeployFailed { attempts, source } => {
                write!(f, "configuration deploy failed after {attempts} attempt(s): {source}")
            }
            EnvError::WindowFailed { attempts, source } => {
                write!(f, "stress window failed after {attempts} attempt(s): {source}")
            }
        }
    }
}

impl std::error::Error for EnvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source_error())
    }
}

/// Environment parameters.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Unmeasured warm-up transactions per stress test.
    pub warmup_txns: usize,
    /// Measured transactions per stress test window.
    pub measure_txns: usize,
    /// Steps per training episode.
    pub horizon: usize,
    /// Reward function.
    pub reward: RewardConfig,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self {
            warmup_txns: 100,
            measure_txns: 600,
            horizon: 20,
            reward: RewardConfig::default(),
            seed: 0,
        }
    }
}

/// Everything observed in one tuning step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Normalized 63-metric state after the step.
    pub state: Vec<f32>,
    /// Reward earned.
    pub reward: f64,
    /// External metrics of the stress window (the *previous* window's
    /// metrics when the configuration crashed or the step degraded).
    pub perf: PerfMetrics,
    /// The configuration crashed the instance (or hit a quarantined cell).
    pub crashed: bool,
    /// The step could not be measured (infrastructure failures exhausted
    /// the retry budget): the environment rolled back, reward is neutral,
    /// and `state`/`perf` repeat the last healthy observation. Degraded
    /// transitions should not be trained on.
    pub degraded: bool,
    /// Episode step budget exhausted.
    pub done: bool,
    /// Reward decomposition (Eq. 4–7 terms and which rules fired).
    pub reward_trace: RewardTrace,
    /// Wall/simulated timings of the environment-side phases (deployment,
    /// stress, metrics collection). The trainer and the online session add
    /// recommendation and model-update time before tracing the full step.
    pub timing: PhaseTiming,
    /// Recovery actions accrued during this step alone.
    pub recovery: RecoveryDelta,
}

impl StepOutcome {
    /// The step's [`TraceEvent::Step`]: this outcome plus what its caller
    /// knows around it — where the step falls, the action deployed, the
    /// replay pool and the engine counters.
    pub(crate) fn trace_event(
        &self,
        step: u64,
        episode: u64,
        action: &[f32],
        replay: ReplayTrace,
        engine: EngineSample,
    ) -> TraceEvent {
        TraceEvent::Step {
            step,
            episode,
            action: action.iter().map(|&x| f64::from(x)).collect(),
            reward: self.reward_trace,
            throughput_tps: self.perf.throughput_tps,
            p99_latency_us: self.perf.p99_latency_us,
            crashed: self.crashed,
            degraded: self.degraded,
            replay,
            recovery: self.recovery,
            engine,
            timing: self.timing,
        }
    }
}

/// Coarse action-cell key for crash-loop bookkeeping: each knob dimension
/// quantized to 32 bins, FNV-folded. Actions land in the same cell when
/// every knob is within ~3 % — close enough to share a crash verdict.
fn quantize_action_key(action: &[f32]) -> u64 {
    let mut key = 0xcbf2_9ce4_8422_2325u64;
    for &a in action {
        let bin = (a.clamp(0.0, 1.0) * 31.0).round() as u64;
        key = (key ^ bin).wrapping_mul(0x100_0000_01B3);
    }
    key
}

/// A tuning environment over a live engine and workload.
pub struct DbEnv {
    engine: Engine,
    workload: Box<dyn Workload>,
    space: ActionSpace,
    cfg: EnvConfig,
    processor: StateProcessor,
    rng: StdRng,
    clients: u32,
    initial: Perf,
    previous: Perf,
    initial_metrics: PerfMetrics,
    last_perf: PerfMetrics,
    last_state: Vec<f32>,
    last_good: KnobConfig,
    steps_in_episode: usize,
    total_steps: u64,
    crashes: u64,
    stats: RecoveryStats,
    quarantined: HashSet<u64>,
    crash_streaks: HashMap<u64, u32>,
    telemetry: Telemetry,
}

impl DbEnv {
    /// Builds an environment. `workload.setup` must not have run yet — the
    /// environment loads it into `engine` itself.
    pub fn new(
        mut engine: Engine,
        mut workload: Box<dyn Workload>,
        space: ActionSpace,
        cfg: EnvConfig,
    ) -> Self {
        workload.setup(&mut engine);
        let clients = workload.default_clients();
        let last_good = engine.current_config().clone();
        let seed = cfg.seed;
        Self {
            engine,
            workload,
            space,
            cfg,
            processor: StateProcessor::new(),
            rng: StdRng::seed_from_u64(seed),
            clients,
            initial: Perf { throughput: 0.0, latency: 0.0 },
            previous: Perf { throughput: 0.0, latency: 0.0 },
            initial_metrics: PerfMetrics::from_latencies(&mut Vec::new(), 1, 0),
            last_perf: PerfMetrics::from_latencies(&mut Vec::new(), 1, 0),
            last_state: Vec::new(),
            last_good,
            steps_in_episode: 0,
            total_steps: 0,
            crashes: 0,
            stats: RecoveryStats::default(),
            quarantined: HashSet::new(),
            crash_streaks: HashMap::new(),
            telemetry: Telemetry::null(),
        }
    }

    /// Installs a telemetry handle. The environment emits
    /// [`TraceEvent::Recovery`] events (Debug level) for every recovery
    /// action and fills the per-step trace fields of [`StepOutcome`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle ([`Telemetry::null`] by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Engine counters for the step trace.
    pub fn engine_sample(&self) -> EngineSample {
        EngineSample {
            restarts: self.engine.restart_count(),
            crashes: self.engine.crash_count(),
            running: self.engine.is_running(),
        }
    }

    fn recovery_delta_since(&self, before: &RecoveryStats) -> RecoveryDelta {
        let d = self.stats.since(before);
        RecoveryDelta {
            retries: d.retries,
            backoff_ms: d.backoff_ms,
            rollbacks: d.rollbacks,
            forced_restarts: d.forced_restarts,
            quarantined_configs: d.quarantined_configs,
            quarantine_hits: d.quarantine_hits,
            degraded_steps: d.degraded_steps,
            imputed_metrics: d.imputed_metrics,
        }
    }

    /// The action space.
    pub fn space(&self) -> &ActionSpace {
        &self.space
    }

    /// Replaces the action space (knob-count sweeps). Resets episode state
    /// and the quarantine bookkeeping (cell keys are dimension-specific).
    pub fn set_space(&mut self, space: ActionSpace) {
        self.space = space;
        self.quarantined.clear();
        self.crash_streaks.clear();
    }

    /// The live engine (inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (experiment setup, e.g. installing a
    /// [`simdb::FaultPlan`]; swapping hardware requires building a new env
    /// instead).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Performance of the initial (baseline) configuration.
    pub fn initial_perf(&self) -> &PerfMetrics {
        &self.initial_metrics
    }

    /// Performance of the latest stress window.
    pub fn last_perf(&self) -> &PerfMetrics {
        &self.last_perf
    }

    /// Currently deployed configuration.
    pub fn current_config(&self) -> &KnobConfig {
        self.engine.current_config()
    }

    /// Crashes caused by agent actions so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }

    /// Recovery counters accumulated over the environment's lifetime.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Number of quarantined configuration cells.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// The quarantined configuration-cell keys, sorted (stable for
    /// checkpoint persistence).
    pub fn quarantined_keys(&self) -> Vec<u64> {
        // lint:allow(determinism) reason=the collected keys are sorted on the next line
        let mut keys: Vec<u64> = self.quarantined.iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Restores quarantined cells drained into a checkpoint, so a resumed
    /// run never re-explores a region a previous run already proved
    /// poisonous. Counters are left untouched — the cells were already
    /// counted by the run that quarantined them.
    pub fn restore_quarantine(&mut self, keys: &[u64]) {
        self.quarantined.extend(keys.iter().copied());
    }

    /// Quarantines the cell containing `action` directly (the safety
    /// layer marks rolled-back regions off-limits without waiting for a
    /// crash streak). Returns `true` when the cell was newly quarantined.
    pub fn quarantine_action(&mut self, action: &[f32]) -> bool {
        let inserted = self.quarantined.insert(quantize_action_key(action));
        if inserted {
            self.stats.quarantined_configs += 1;
            self.emit_recovery("quarantine", "safety", 0, 0);
        }
        inserted
    }

    /// True when `action` falls in a quarantined cell.
    #[cfg(test)]
    pub fn is_quarantined(&self, action: &[f32]) -> bool {
        self.quarantined.contains(&quantize_action_key(action))
    }

    /// Reverts the live instance to `action`'s configuration through the
    /// rollback-with-restart escalation path: deploy with retry, and if
    /// even that fails, force a restart that boots the target config. The
    /// restored configuration becomes the new last-good. Used by the
    /// safety layer when a step degrades beyond its threshold.
    pub fn rollback_to_action(&mut self, action: &[f32]) {
        let config = self.space.to_config(&self.last_good, action);
        self.stats.rollbacks += 1;
        self.emit_recovery("rollback", "safety", 0, 0);
        if self.deploy_with_retry(&config).is_err() {
            self.engine.restart();
            self.stats.forced_restarts += 1;
            self.emit_recovery("forced_restart", "safety", 0, 0);
        }
        self.last_good = config;
    }

    /// The state processor (ship it with the trained model).
    pub fn processor(&self) -> &StateProcessor {
        &self.processor
    }

    /// Installs a processor from a trained model (online tuning must
    /// normalize exactly like offline training did).
    pub fn set_processor(&mut self, processor: StateProcessor) {
        self.processor = processor;
    }

    /// Reward configuration in force.
    pub fn reward_config(&self) -> &RewardConfig {
        &self.cfg.reward
    }

    /// Swaps the workload (e.g. for the replay of a user's recorded trace,
    /// §2.2.1). The new workload's `setup` is **not** run — the engine
    /// keeps its loaded tables, which is exactly what replaying a trace
    /// against the same instance requires. `clients` overrides concurrency
    /// (`None` keeps the new workload's default).
    pub fn set_workload(&mut self, workload: Box<dyn Workload>, clients: Option<u32>) {
        self.clients = clients.unwrap_or_else(|| workload.default_clients());
        self.workload = workload;
    }

    /// Swaps the workload *and* runs its `setup` against the engine first.
    /// Unlike [`DbEnv::set_workload`], this is for workloads whose
    /// generators own their table universe — e.g. a
    /// [`workload::DynamicWorkload`] drift trace whose per-kind generators
    /// were never loaded into this engine and would otherwise panic on
    /// their first window.
    pub fn install_workload(&mut self, mut workload: Box<dyn Workload>, clients: Option<u32>) {
        workload.setup(&mut self.engine);
        self.set_workload(workload, clients);
    }

    /// Retries after the first attempt of a deploy or stress window.
    const MAX_RETRIES: u32 = 4;
    /// First retry's simulated backoff, milliseconds; it doubles per retry.
    const BASE_BACKOFF_MS: u64 = 250;
    /// Backoff ceiling, milliseconds.
    const MAX_BACKOFF_MS: u64 = 4_000;
    /// Total simulated backoff per operation, milliseconds: retries stop
    /// once the next wait would cross it.
    const DEADLINE_MS: u64 = 15_000;

    /// Runs `attempt` (passed the retries made so far) until it succeeds,
    /// fails with an error `retryable` rejects, or runs out of retries or
    /// deadline. Every retry is counted, accrues its simulated backoff and
    /// emits a `retry` event `during` the named operation. The error carries
    /// the attempts made.
    fn with_retry<T>(
        &mut self,
        during: &str,
        retryable: fn(&SimDbError) -> bool,
        mut attempt: impl FnMut(&mut Self, u32) -> simdb::Result<T>,
    ) -> Result<T, (u32, SimDbError)> {
        let mut waited = 0u64;
        let mut retries = 0u32;
        loop {
            match attempt(self, retries) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    let wait = (Self::BASE_BACKOFF_MS << retries).min(Self::MAX_BACKOFF_MS);
                    if !retryable(&e)
                        || retries >= Self::MAX_RETRIES
                        || waited + wait > Self::DEADLINE_MS
                    {
                        return Err((retries + 1, e));
                    }
                    waited += wait;
                    retries += 1;
                    self.stats.retries += 1;
                    self.stats.backoff_ms += wait;
                    self.emit_recovery("retry", during, u64::from(retries), wait);
                }
            }
        }
    }

    /// Deploys with retry for transient failures. Terminal errors —
    /// crashes, knob-domain errors — return immediately: they are the
    /// configuration's fault and retrying would redeploy the same poison.
    fn deploy_with_retry(&mut self, config: &KnobConfig) -> Result<(), EnvError> {
        self.with_retry("deploy", SimDbError::is_transient, |env, _| {
            env.engine.apply_config(config.clone())
        })
        .map_err(|(attempts, source)| EnvError::DeployFailed { attempts, source })
    }

    fn emit_recovery(&self, action: &str, during: &str, attempt: u64, backoff_ms: u64) {
        if self.telemetry.enabled(crate::telemetry::TraceLevel::Debug) {
            self.telemetry.emit(&TraceEvent::Recovery {
                action: action.to_string(),
                during: during.to_string(),
                attempt,
                backoff_ms,
            });
        }
    }

    /// Restores the last healthy configuration. When even that deploy keeps
    /// failing, escalates to a forced restart — `apply_config` installs the
    /// configuration before any failure path, so `Engine::restart` (which
    /// cannot fail) boots it. The environment therefore never wedges.
    fn rollback_to_last_good(&mut self) {
        self.stats.rollbacks += 1;
        self.emit_recovery("rollback", "deploy", 0, 0);
        let last_good = self.last_good.clone();
        if self.deploy_with_retry(&last_good).is_err() {
            self.engine.restart();
            self.stats.forced_restarts += 1;
            self.emit_recovery("forced_restart", "deploy", 0, 0);
        }
    }

    /// One stress-window attempt: runs the workload, collects the metric
    /// delta through the faulty collection path, sanitizes it, and folds it
    /// into the state processor.
    fn run_stress_window(&mut self) -> simdb::Result<(PerfMetrics, Vec<f32>, PhaseTiming)> {
        let warmup: Vec<Txn> = self.workload.window(self.cfg.warmup_txns, &mut self.rng);
        let measure: Vec<Txn> = self.workload.window(self.cfg.measure_txns, &mut self.rng);
        let before = self.engine.metrics();
        // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
        let t0 = Instant::now();
        let perf = self.engine.stress_test(&warmup, &measure, self.clients)?;
        let stress_wall_us = t0.elapsed().as_micros() as u64;
        // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
        let t0 = Instant::now();
        let mut delta = self.engine.collect_window_delta(&before);
        self.stats.imputed_metrics += self.processor.sanitize(&mut delta);
        let state = self.processor.process(&delta);
        let metrics_wall_us = t0.elapsed().as_micros() as u64;
        let stress_simulated_sec = if perf.throughput_tps > 0.0 {
            perf.ops as f64 / perf.throughput_tps
        } else {
            0.0
        };
        let timing = PhaseTiming {
            stress_wall_us,
            stress_simulated_sec,
            metrics_wall_us,
            ..PhaseTiming::default()
        };
        Ok((perf, state, timing))
    }

    /// Stress window with retry on any failure: a crashed/stopped instance
    /// is restarted between attempts. The returned timing covers the
    /// successful window; failed attempts surface as retry counters and
    /// simulated backoff instead.
    fn stress_window_with_retry(&mut self) -> Result<(PerfMetrics, Vec<f32>, PhaseTiming), EnvError> {
        self.with_retry("stress", |_| true, |env, retries| {
            if retries > 0 && !env.engine.is_running() {
                env.engine.restart();
                env.stats.forced_restarts += 1;
                env.emit_recovery("forced_restart", "stress", u64::from(retries), 0);
            }
            env.run_stress_window()
        })
        .map_err(|(attempts, source)| EnvError::WindowFailed { attempts, source })
    }

    /// Stress windows averaged for the baseline measurement at episode
    /// reset. The recommendation the actor makes from the baseline state is
    /// only as stable as that state; averaging a couple of windows mirrors
    /// the paper's 150 s observation sampled every 5 s (§2.2.2).
    const BASELINE_WINDOWS: usize = 2;

    /// Starts an episode: redeploys the baseline configuration, measures
    /// the initial performance `D_0` (§4.2) and returns the initial state.
    /// Fails only when the baseline itself is terminally undeployable or
    /// every baseline window ran out of retries.
    pub fn try_reset_episode(&mut self, baseline: KnobConfig) -> Result<Vec<f32>, EnvError> {
        if let Err(e) = self.deploy_with_retry(&baseline) {
            if !e.source_error().is_transient() {
                return Err(e);
            }
            // Transient exhaustion: the baseline is already installed as
            // the engine's config, so a forced restart boots it.
            self.engine.restart();
            self.stats.forced_restarts += 1;
        }
        self.last_good = baseline;
        let windows = Self::BASELINE_WINDOWS;
        let mut state = vec![0.0f32; simdb::TOTAL_METRIC_COUNT];
        let mut perf = self.last_perf;
        let mut tps = 0.0;
        let mut p99 = 0.0;
        for _ in 0..windows {
            let (w_perf, w_state, _) = self.stress_window_with_retry()?;
            for (acc, x) in state.iter_mut().zip(&w_state) {
                *acc += x / windows as f32;
            }
            tps += w_perf.throughput_tps / windows as f64;
            p99 += w_perf.p99_latency_us / windows as f64;
            perf = w_perf;
        }
        perf.throughput_tps = tps;
        perf.p99_latency_us = p99;
        self.initial = Perf { throughput: tps, latency: p99 };
        self.previous = self.initial;
        self.initial_metrics = perf;
        self.last_perf = perf;
        self.last_state = state.clone();
        self.steps_in_episode = 0;
        Ok(state)
    }

    /// Infallible [`DbEnv::try_reset_episode`]: when even the resilient
    /// reset fails, the episode starts degraded from the last known
    /// state (all-zero before any successful window) instead of panicking.
    pub fn reset_episode(&mut self, baseline: KnobConfig) -> Vec<f32> {
        match self.try_reset_episode(baseline) {
            Ok(state) => state,
            Err(_) => {
                self.stats.degraded_steps += 1;
                if !self.engine.is_running() {
                    self.engine.restart();
                    self.stats.forced_restarts += 1;
                }
                let state = if self.last_state.is_empty() {
                    vec![0.0f32; simdb::TOTAL_METRIC_COUNT]
                } else {
                    self.last_state.clone()
                };
                self.last_state = state.clone();
                self.steps_in_episode = 0;
                state
            }
        }
    }

    fn crash_outcome(&self, done: bool, timing: PhaseTiming, before: &RecoveryStats) -> StepOutcome {
        StepOutcome {
            state: self.last_state.clone(),
            reward: CRASH_REWARD,
            perf: self.last_perf,
            crashed: true,
            degraded: false,
            done,
            reward_trace: RewardTrace::crash(CRASH_REWARD),
            timing,
            recovery: self.recovery_delta_since(before),
        }
    }

    fn degraded_outcome(&mut self, done: bool, before: &RecoveryStats) -> StepOutcome {
        self.stats.degraded_steps += 1;
        StepOutcome {
            state: self.last_state.clone(),
            reward: 0.0,
            perf: self.last_perf,
            crashed: false,
            degraded: true,
            done,
            reward_trace: RewardTrace::default(),
            timing: PhaseTiming::default(),
            recovery: self.recovery_delta_since(before),
        }
    }

    /// Consecutive crashes of one configuration cell before it is
    /// quarantined (never deployed again).
    const QUARANTINE_THRESHOLD: u32 = 3;

    /// Records a crash for the action's quarantine cell; quarantines it
    /// after `QUARANTINE_THRESHOLD` consecutive crashes.
    fn note_crash(&mut self, key: u64) {
        let streak = self.crash_streaks.entry(key).or_insert(0);
        *streak += 1;
        if *streak >= Self::QUARANTINE_THRESHOLD && self.quarantined.insert(key) {
            self.stats.quarantined_configs += 1;
            self.emit_recovery("quarantine", "deploy", 0, 0);
        }
    }

    /// Applies an action as a knob deployment + stress test (one §2.1
    /// tuning iteration), with typed errors for unrecoverable
    /// infrastructure failures. Crashing configurations are *not* errors —
    /// they produce the punished [`StepOutcome`] of §5.2.3. On `Err` the
    /// environment has already rolled back and remains usable.
    pub fn try_step_action(&mut self, action: &[f32]) -> Result<StepOutcome, EnvError> {
        assert!(!self.last_state.is_empty(), "reset_episode must run before step_action");
        self.total_steps += 1;
        self.steps_in_episode += 1;
        let done = self.steps_in_episode >= self.cfg.horizon;
        let stats0 = self.stats;

        let key = quantize_action_key(action);
        if self.quarantined.contains(&key) {
            // Known crash loop: punish without risking the instance.
            self.stats.quarantine_hits += 1;
            self.emit_recovery("quarantine_hit", "deploy", 0, 0);
            return Ok(self.crash_outcome(done, PhaseTiming::default(), &stats0));
        }

        let config = self.space.to_config(&self.last_good, action);
        // lint:allow(determinism) reason=wall-clock feeds telemetry timings only, never seeded state
        let t0 = Instant::now();
        let deployed = self.deploy_with_retry(&config);
        let mut timing =
            PhaseTiming { deployment_wall_us: t0.elapsed().as_micros() as u64, ..Default::default() };
        match deployed {
            Ok(()) => {}
            Err(e) => {
                let crashed = matches!(e.source_error(), SimDbError::Crash { .. });
                self.rollback_to_last_good();
                if crashed {
                    // §5.2.3: punish, restore the last healthy
                    // configuration, keep training.
                    self.crashes += 1;
                    self.note_crash(key);
                    return Ok(self.crash_outcome(done, timing, &stats0));
                }
                // Transient infrastructure failure, not the config's fault:
                // surface it; the caller decides how to degrade.
                return Err(e);
            }
        }
        self.crash_streaks.remove(&key);
        self.last_good = config;

        let (perf, state, window_timing) = match self.stress_window_with_retry() {
            Ok(out) => out,
            Err(e) => {
                if !self.engine.is_running() {
                    self.engine.restart();
                    self.stats.forced_restarts += 1;
                    self.emit_recovery("forced_restart", "stress", 0, 0);
                }
                return Err(e);
            }
        };
        timing.stress_wall_us = window_timing.stress_wall_us;
        timing.stress_simulated_sec = window_timing.stress_simulated_sec;
        timing.metrics_wall_us = window_timing.metrics_wall_us;
        let current = Perf { throughput: perf.throughput_tps, latency: perf.p99_latency_us };
        let (reward, reward_trace) =
            self.cfg.reward.reward_traced(current, self.previous, self.initial);
        self.previous = current;
        self.last_perf = perf;
        self.last_state = state.clone();
        Ok(StepOutcome {
            state,
            reward,
            perf,
            crashed: false,
            degraded: false,
            done,
            reward_trace,
            timing,
            recovery: self.recovery_delta_since(&stats0),
        })
    }

    /// Infallible [`DbEnv::try_step_action`]: unrecoverable infrastructure
    /// failures become a *degraded* outcome (neutral reward, repeated
    /// state/perf, `degraded: true`) instead of a panic or error — graceful
    /// degradation for callers that must keep stepping.
    pub fn step_action(&mut self, action: &[f32]) -> StepOutcome {
        let stats0 = self.stats;
        match self.try_step_action(action) {
            Ok(out) => out,
            Err(_) => {
                let done = self.steps_in_episode >= self.cfg.horizon;
                self.degraded_outcome(done, &stats0)
            }
        }
    }
}

impl Environment for DbEnv {
    fn state_dim(&self) -> usize {
        simdb::TOTAL_METRIC_COUNT
    }

    fn action_dim(&self) -> usize {
        self.space.dim()
    }

    fn reset(&mut self) -> Vec<f32> {
        let baseline = self.engine.registry().default_config();
        self.reset_episode(baseline)
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        let out = self.step_action(action);
        StepResult { next_state: out.state, reward: out.reward as f32, done: out.done }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simdb::knobs::mysql::names;
    use simdb::{EngineFlavor, FaultPlan, HardwareConfig};
    use workload::{build_workload, WorkloadKind};

    pub(crate) fn tiny_env() -> DbEnv {
        let engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 17);
        let wl = build_workload(WorkloadKind::SysbenchRw, 0.005);
        let space_src = EngineFlavor::MySqlCdb.registry(&HardwareConfig::cdb_a());
        let space = ActionSpace::from_names(
            &space_src,
            [
                names::BUFFER_POOL_SIZE,
                names::FLUSH_LOG_AT_TRX_COMMIT,
                names::LOG_FILE_SIZE,
                names::LOG_FILES_IN_GROUP,
                names::READ_IO_THREADS,
                names::WRITE_IO_THREADS,
            ],
        )
        .expect("tiny_env knob names exist in the MySQL registry");
        let cfg = EnvConfig {
            warmup_txns: 20,
            measure_txns: 120,
            horizon: 6,
            ..EnvConfig::default()
        };
        DbEnv::new(engine, wl, space, cfg)
    }

    #[test]
    fn reset_measures_the_baseline() {
        let mut env = tiny_env();
        let s = env.reset();
        assert_eq!(s.len(), 63);
        assert!(env.initial_perf().throughput_tps > 0.0);
    }

    #[test]
    fn step_produces_finite_reward_and_state() {
        let mut env = tiny_env();
        let _ = env.reset();
        let out = env.step_action(&[0.5; 6]);
        assert!(out.reward.is_finite());
        assert!(!out.crashed);
        assert!(!out.degraded);
        assert!(out.perf.throughput_tps > 0.0);
        assert_eq!(out.state.len(), 63);
    }

    #[test]
    fn good_actions_earn_more_than_bad_actions() {
        let mut env = tiny_env();
        let _ = env.reset();
        // Sensible: ~70 % RAM pool (linear axis), lazy flush, medium logs,
        // 8+8 threads.
        let good = env.step_action(&[0.68, 0.0, 0.6, 0.3, 0.35, 0.35]);
        let _ = env.reset();
        // Terrible: pool past physical RAM (swap cliff) + strict flushing.
        let bad = env.step_action(&[1.0, 0.5, 0.6, 0.3, 0.0, 0.0]);
        assert!(
            good.reward > bad.reward,
            "good {} should beat bad {}",
            good.reward,
            bad.reward
        );
        assert!(good.perf.throughput_tps > bad.perf.throughput_tps);
    }

    #[test]
    fn crash_is_punished_and_recovered() {
        let mut env = tiny_env();
        let _ = env.reset();
        // Max log file size × max group on a 100 GiB disk → crash rule.
        let out = env.step_action(&[0.5, 0.5, 1.0, 1.0, 0.5, 0.5]);
        assert!(out.crashed);
        assert_eq!(out.reward, CRASH_REWARD);
        assert_eq!(env.crash_count(), 1);
        assert_eq!(env.recovery_stats().rollbacks, 1);
        // The environment stays usable.
        let next = env.step_action(&[0.5; 6]);
        assert!(!next.crashed);
        assert!(next.perf.throughput_tps > 0.0);
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let mut env = tiny_env();
        let _ = env.reset();
        let mut done = false;
        for _ in 0..6 {
            done = env.step_action(&[0.5; 6]).done;
        }
        assert!(done);
        // Reset starts a fresh episode.
        let _ = env.reset();
        assert!(!env.step_action(&[0.5; 6]).done);
    }

    #[test]
    fn environment_trait_dimensions() {
        let env = tiny_env();
        assert_eq!(env.state_dim(), 63);
        assert_eq!(env.action_dim(), 6);
    }

    #[test]
    fn transient_restart_failures_back_off_and_recover() {
        let mut env = tiny_env();
        let _ = env.reset();
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(3).with_restart_failure(0.5)));
        for _ in 0..10 {
            let out = env.step_action(&[0.5; 6]);
            assert!(!out.crashed, "restart failures are not crashes");
            assert!(out.reward.is_finite());
        }
        let stats = *env.recovery_stats();
        assert!(stats.retries > 0, "p=0.5 restart failures must trigger retries");
        assert!(stats.backoff_ms > 0, "retries accrue simulated backoff");
        assert!(env.engine().is_running(), "environment never wedges");
    }

    #[test]
    fn exhausted_retries_roll_back_and_degrade() {
        let mut env = tiny_env();
        let _ = env.reset();
        let healthy = env.current_config().clone();
        // Every deploy fails: retries exhaust, the env rolls back.
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(1).with_restart_failure(1.0)));
        let err = env.try_step_action(&[0.6; 6]).unwrap_err();
        assert!(matches!(err, EnvError::DeployFailed { .. }));
        assert!(err.source_error().is_transient());
        let stats = *env.recovery_stats();
        assert!(stats.rollbacks >= 1);
        assert!(stats.forced_restarts >= 1, "rollback escalated to forced restart");
        assert!(env.engine().is_running());
        // The infallible wrapper degrades instead of erroring.
        let out = env.step_action(&[0.6; 6]);
        assert!(out.degraded);
        assert_eq!(out.reward, 0.0);
        // Disarm: the env steps normally again from the last good config.
        env.engine_mut().set_fault_plan(None);
        let out = env.step_action(&[0.5; 6]);
        assert!(!out.degraded && !out.crashed);
        assert_eq!(env.current_config().values().len(), healthy.values().len());
    }

    #[test]
    fn crash_looping_config_gets_quarantined() {
        let mut env = tiny_env();
        let _ = env.reset();
        let crash_action = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5];
        for _ in 0..3 {
            let out = env.step_action(&crash_action);
            assert!(out.crashed);
        }
        assert_eq!(env.crash_count(), 3);
        assert_eq!(env.quarantined_count(), 1);
        assert_eq!(env.recovery_stats().quarantined_configs, 1);
        // The fourth attempt is short-circuited: punished, never deployed.
        let restarts_before = env.engine().restart_count();
        let out = env.step_action(&crash_action);
        assert!(out.crashed);
        assert_eq!(out.reward, CRASH_REWARD);
        assert_eq!(env.crash_count(), 3, "no real crash on a quarantine hit");
        assert_eq!(env.recovery_stats().quarantine_hits, 1);
        assert_eq!(env.engine().restart_count(), restarts_before, "no deploy happened");
    }

    /// The recovery numbers, exactly: an exhausted operation makes 5
    /// attempts, i.e. 4 retries backing off 250 + 500 + 1 000 + 2 000 ms,
    /// and a cell is quarantined on its 3rd consecutive crash.
    #[test]
    fn recovery_counts_and_events_are_exact() {
        use crate::telemetry::TraceLevel;
        fn recovery_events(env: &DbEnv) -> Vec<(String, String, u64, u64)> {
            env.telemetry()
                .drain_ring()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Recovery { action, during, attempt, backoff_ms } => {
                        Some((action, during, attempt, backoff_ms))
                    }
                    _ => None,
                })
                .collect()
        }
        let ev = |action: &str, during: &str, attempt: u64, backoff_ms: u64| {
            (action.to_string(), during.to_string(), attempt, backoff_ms)
        };

        // Deploy: every restart fails transiently.
        let mut env = tiny_env();
        let _ = env.reset();
        let target = env.current_config().clone();
        env.set_telemetry(Telemetry::ring(64, TraceLevel::Debug));
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(1).with_restart_failure(1.0)));
        let before = *env.recovery_stats();
        let err = env.deploy_with_retry(&target).unwrap_err();
        assert!(matches!(err, EnvError::DeployFailed { attempts: 5, .. }), "{err:?}");
        let spent = env.recovery_stats().since(&before);
        assert_eq!(spent.retries, 4);
        assert_eq!(spent.backoff_ms, 250 + 500 + 1_000 + 2_000);
        assert_eq!(spent.forced_restarts, 0);
        let expected: Vec<_> = [(1, 250), (2, 500), (3, 1_000), (4, 2_000)]
            .map(|(attempt, wait)| ev("retry", "deploy", attempt, wait))
            .into();
        assert_eq!(recovery_events(&env), expected);

        // Stress: every window crashes; each retry restarts the instance.
        let mut env = tiny_env();
        let _ = env.reset();
        env.set_telemetry(Telemetry::ring(64, TraceLevel::Debug));
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(9).with_spurious_crash(1.0)));
        let before = *env.recovery_stats();
        let err = env.stress_window_with_retry().unwrap_err();
        assert!(matches!(err, EnvError::WindowFailed { attempts: 5, .. }), "{err:?}");
        let spent = env.recovery_stats().since(&before);
        assert_eq!(spent.retries, 4);
        assert_eq!(spent.backoff_ms, 3_750);
        assert_eq!(spent.forced_restarts, 4);
        let expected: Vec<_> = [(1, 250), (2, 500), (3, 1_000), (4, 2_000)]
            .into_iter()
            .flat_map(|(attempt, wait)| {
                [ev("retry", "stress", attempt, wait), ev("forced_restart", "stress", attempt, 0)]
            })
            .collect();
        assert_eq!(recovery_events(&env), expected);

        // Quarantine: not after the 2nd consecutive crash, on the 3rd.
        let mut env = tiny_env();
        let _ = env.reset();
        let crash_action = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5];
        for _ in 0..2 {
            assert!(env.step_action(&crash_action).crashed);
        }
        assert_eq!(env.quarantined_count(), 0);
        assert!(env.step_action(&crash_action).crashed);
        assert_eq!(env.quarantined_count(), 1);
    }

    #[test]
    fn explicit_quarantine_short_circuits_like_a_crash_loop() {
        let mut env = tiny_env();
        let _ = env.reset();
        let bad = [0.9, 0.1, 0.9, 0.1, 0.9, 0.1];
        assert!(!env.is_quarantined(&bad));
        assert!(env.quarantine_action(&bad));
        assert!(!env.quarantine_action(&bad), "second insert is a no-op");
        assert!(env.is_quarantined(&bad));
        assert_eq!(env.recovery_stats().quarantined_configs, 1);
        let out = env.step_action(&bad);
        assert!(out.crashed, "quarantined cells are punished without deploying");
        assert_eq!(env.recovery_stats().quarantine_hits, 1);
    }

    #[test]
    fn quarantine_keys_round_trip_between_environments() {
        let mut env = tiny_env();
        let _ = env.reset();
        env.quarantine_action(&[0.9, 0.1, 0.9, 0.1, 0.9, 0.1]);
        env.quarantine_action(&[0.2; 6]);
        let keys = env.quarantined_keys();
        assert_eq!(keys.len(), 2);

        let mut resumed = tiny_env();
        let _ = resumed.reset();
        resumed.restore_quarantine(&keys);
        assert_eq!(resumed.quarantined_count(), 2);
        assert!(resumed.is_quarantined(&[0.9, 0.1, 0.9, 0.1, 0.9, 0.1]));
        let out = resumed.step_action(&[0.2; 6]);
        assert!(out.crashed, "restored cells short-circuit without a deploy");
        assert_eq!(
            resumed.recovery_stats().quarantined_configs,
            0,
            "restored cells were counted by the original run"
        );
    }

    #[test]
    fn rollback_to_action_restores_the_target_config() {
        let mut env = tiny_env();
        let _ = env.reset();
        let safe = [0.5f32; 6];
        let out = env.step_action(&safe);
        assert!(!out.crashed && !out.degraded);
        let safe_config = env.current_config().clone();
        // Wander somewhere else, then roll back.
        let out = env.step_action(&[0.3f32; 6]);
        assert!(!out.crashed && !out.degraded);
        let rollbacks_before = env.recovery_stats().rollbacks;
        env.rollback_to_action(&safe);
        assert_eq!(env.recovery_stats().rollbacks, rollbacks_before + 1);
        assert_eq!(env.current_config().values(), safe_config.values());
        // The environment keeps stepping normally afterwards.
        let out = env.step_action(&[0.5f32; 6]);
        assert!(!out.crashed && !out.degraded);
    }

    #[test]
    fn spurious_window_crashes_are_restarted_and_retried() {
        let mut env = tiny_env();
        let _ = env.reset();
        // Every window dies mid-run: retries exhaust, but the env restarts
        // the instance between attempts and degrades the step instead of
        // panicking or wedging.
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(9).with_spurious_crash(1.0)));
        let out = env.step_action(&[0.5; 6]);
        assert!(out.degraded);
        assert!(env.recovery_stats().retries > 0);
        assert!(env.recovery_stats().forced_restarts > 0);
        assert!(env.engine().is_running());
        // Disarm: measurement resumes on the same environment.
        env.engine_mut().set_fault_plan(None);
        let out = env.step_action(&[0.5; 6]);
        assert!(!out.degraded && !out.crashed);
        assert!(out.perf.throughput_tps > 0.0);
    }

    #[test]
    fn metric_dropouts_are_imputed_not_propagated() {
        let mut env = tiny_env();
        env.engine_mut()
            .set_fault_plan(Some(FaultPlan::new(5).with_metric_dropout(0.2)));
        let state = env.reset();
        assert!(state.iter().all(|x| x.is_finite()));
        for _ in 0..3 {
            let out = env.step_action(&[0.5; 6]);
            assert!(out.state.iter().all(|x| x.is_finite()), "sanitized states stay finite");
            assert!(out.reward.is_finite());
        }
        assert!(env.recovery_stats().imputed_metrics > 0, "20% dropout must impute");
    }

    #[test]
    fn stats_since_diffs_snapshots() {
        let a = RecoveryStats { retries: 5, rollbacks: 2, ..RecoveryStats::default() };
        let b = RecoveryStats { retries: 8, rollbacks: 2, ..RecoveryStats::default() };
        let d = b.since(&a);
        assert_eq!(d.retries, 3);
        assert_eq!(d.rollbacks, 0);
        let mut m = a;
        m.merge(&d);
        assert_eq!(m.retries, 8);
    }
}
