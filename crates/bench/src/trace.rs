//! Trace ingestion: turns a `--trace-out` JSONL file back into typed
//! events and renders a step-by-step regression summary.
//!
//! The summary is the debugging loop the telemetry layer exists for: run
//! training once with `--trace-out run.jsonl`, change the RL loop, run it
//! again, and diff the two summaries. Every row carries the reward
//! decomposition, replay-sampler health and per-phase timing, so a
//! regression shows up as *which term moved*, not just "reward got worse".

use cdbtune::TraceEvent;

/// Everything the summary aggregates out of one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// `"train"`, `"tune"`, or `"collect"` from the run-start event.
    pub mode: String,
    /// Run seed from the run-start event.
    pub seed: u64,
    /// Tuned knob count.
    pub knobs: u64,
    /// Step events in file order.
    pub steps: Vec<StepRow>,
    /// Episode boundaries: (episode, steps, mean reward, best tps).
    pub episodes: Vec<(u64, u64, f64, f64)>,
    /// Parallel-collection workers: (worker, derived seed, steps, crashes).
    pub workers: Vec<(u64, u64, u64, u64)>,
    /// Individual recovery actions (debug-level traces only).
    pub recovery_events: u64,
    /// Service sessions (daemon traces), closed-out in close order.
    pub sessions: Vec<SessionRow>,
    /// Admission-queue depth over time: (depth, busy workers) per
    /// `service_queue` sample.
    pub queue_series: Vec<(u64, u64)>,
    /// Connections the daemon admitted.
    pub admissions: u64,
    /// Connections the bounded queue turned away.
    pub rejections: u64,
    /// Drift-detector firings: (step, distance, threshold, reference age).
    pub drift_events: Vec<(u64, f64, f64, u64)>,
    /// Safety rollbacks: (step, from tps, to tps, drop fraction, quarantined).
    pub rollbacks: Vec<(u64, f64, f64, f64, bool)>,
    /// Trust-region clamps the safety layer applied (step-level traces).
    pub safety_clamps: u64,
    /// Closed regret windows: (window, regret, budget, over budget, radius).
    pub regret_windows: Vec<(u64, f64, f64, bool, f64)>,
    /// Reactor health samples over time: (conns, sessions, queued jobs,
    /// busy workers) per `reactor_sample` sweep tick.
    pub reactor_samples: Vec<(u64, u64, u64, u64)>,
    /// Idle connections the reactor reaped (slow-loris defense).
    pub idle_closes: u64,
    /// Totals from the run-end event, if present.
    pub run_end: Option<RunTotals>,
    /// Schema/consistency problems found while ingesting (empty = healthy).
    pub issues: Vec<String>,
}

/// One daemon session, assembled from its open/close event pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    /// Session id.
    pub session: u64,
    /// Workload label from the open event.
    pub workload: String,
    /// Tuned knob count.
    pub knobs: u64,
    /// The session warm-started from the model registry.
    pub warm_start: bool,
    /// Fingerprint distance to the warm-start entry (0 when cold).
    pub registry_distance: f64,
    /// Tuning steps the session took.
    pub steps: u64,
    /// Best throughput it reached (txn/s).
    pub best_tps: f64,
    /// The close was forced by the shutdown drain.
    pub drained: bool,
    /// The fine-tuned model was published to the registry.
    pub published: bool,
}

/// The run-end totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTotals {
    /// Total steps taken.
    pub total_steps: u64,
    /// Best throughput observed (txn/s).
    pub best_tps: f64,
    /// Crashes over the run.
    pub crashes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

/// One step event, flattened for tabular rendering.
#[derive(Debug, Clone, Copy)]
pub struct StepRow {
    /// Global step index (1-based).
    pub step: u64,
    /// Episode the step belongs to.
    pub episode: u64,
    /// Measured throughput (txn/s).
    pub tps: f64,
    /// Measured p99 latency (ms).
    pub p99_ms: f64,
    /// Blended reward.
    pub reward: f64,
    /// Eq.-6 throughput term.
    pub r_t: f64,
    /// Eq.-6 latency term.
    pub r_l: f64,
    /// Crash punishment step.
    pub crashed: bool,
    /// Unmeasurable step.
    pub degraded: bool,
    /// Replay-pool size when the step's batches were drawn.
    pub replay_len: u64,
    /// IS exponent β at the step.
    pub beta: f64,
    /// Cumulative sampler fallbacks (nonzero = sum-tree drift).
    pub fallback_hits: u64,
    /// Recovery actions taken during the step.
    pub recovery_actions: u64,
    /// Total wall time of the step (ms).
    pub wall_ms: f64,
    /// Simulated stress seconds the step represents.
    pub simulated_sec: f64,
}

impl TraceSummary {
    /// Ingests parsed events, cross-checking the invariants the telemetry
    /// layer promises (finite reward decomposition, monotonic step
    /// indices, run-start/run-end bracketing).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = Self::default();
        let mut saw_start = false;
        let mut last_step = 0u64;
        let mut open_sessions: Vec<SessionRow> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev {
                TraceEvent::RunStart { mode, seed, knobs, .. } => {
                    if saw_start {
                        s.issues.push(format!("line {}: duplicate run_start", i + 1));
                    }
                    saw_start = true;
                    s.mode = mode.clone();
                    s.seed = *seed;
                    s.knobs = *knobs;
                }
                TraceEvent::Step {
                    step,
                    episode,
                    action,
                    reward,
                    throughput_tps,
                    p99_latency_us,
                    crashed,
                    degraded,
                    replay,
                    recovery,
                    timing,
                    ..
                } => {
                    if !reward.is_finite() {
                        s.issues.push(format!(
                            "line {}: step {step} has a non-finite reward decomposition",
                            i + 1
                        ));
                    }
                    if *step <= last_step {
                        s.issues.push(format!(
                            "line {}: step index went {last_step} -> {step}",
                            i + 1
                        ));
                    }
                    last_step = *step;
                    if s.knobs != 0 && action.len() as u64 != s.knobs {
                        s.issues.push(format!(
                            "line {}: step {step} carries {} knobs, run_start declared {}",
                            i + 1,
                            action.len(),
                            s.knobs
                        ));
                    }
                    s.steps.push(StepRow {
                        step: *step,
                        episode: *episode,
                        tps: *throughput_tps,
                        p99_ms: *p99_latency_us / 1000.0,
                        reward: reward.reward,
                        r_t: reward.throughput_term,
                        r_l: reward.latency_term,
                        crashed: *crashed,
                        degraded: *degraded,
                        replay_len: replay.len,
                        beta: replay.beta,
                        fallback_hits: replay.fallback_hits,
                        recovery_actions: recovery.retries
                            + recovery.rollbacks
                            + recovery.forced_restarts
                            + recovery.quarantine_hits,
                        wall_ms: timing.total_wall_us() as f64 / 1000.0,
                        simulated_sec: timing.stress_simulated_sec,
                    });
                }
                TraceEvent::EpisodeStart { .. } => {}
                TraceEvent::EpisodeEnd { episode, steps, mean_reward, best_tps } => {
                    s.episodes.push((*episode, *steps, *mean_reward, *best_tps));
                }
                TraceEvent::CollectWorker { worker, derived_seed, steps, crashes } => {
                    s.workers.push((*worker, *derived_seed, *steps, *crashes));
                }
                TraceEvent::Recovery { .. } => s.recovery_events += 1,
                TraceEvent::SessionOpen {
                    session,
                    workload,
                    knobs,
                    warm_start,
                    registry_distance,
                } => {
                    if open_sessions.iter().any(|o| o.session == *session) {
                        s.issues.push(format!(
                            "line {}: session {session} opened twice without closing",
                            i + 1
                        ));
                    }
                    open_sessions.push(SessionRow {
                        session: *session,
                        workload: workload.clone(),
                        knobs: *knobs,
                        warm_start: *warm_start,
                        registry_distance: *registry_distance,
                        steps: 0,
                        best_tps: 0.0,
                        drained: false,
                        published: false,
                    });
                }
                TraceEvent::SessionClose { session, steps, best_tps, drained, published } => {
                    match open_sessions.iter().position(|o| o.session == *session) {
                        Some(pos) => {
                            let mut row = open_sessions.remove(pos);
                            row.steps = *steps;
                            row.best_tps = *best_tps;
                            row.drained = *drained;
                            row.published = *published;
                            s.sessions.push(row);
                        }
                        None => s.issues.push(format!(
                            "line {}: session {session} closed without a session_open",
                            i + 1
                        )),
                    }
                }
                TraceEvent::Admission { accepted, .. } => {
                    if *accepted {
                        s.admissions += 1;
                    } else {
                        s.rejections += 1;
                    }
                }
                TraceEvent::ServiceQueue { depth, busy_workers } => {
                    s.queue_series.push((*depth, *busy_workers));
                }
                TraceEvent::DriftDetected { step, distance, threshold, reference_age } => {
                    if distance < threshold {
                        s.issues.push(format!(
                            "line {}: drift fired at distance {distance:.3} below its \
                             threshold {threshold:.3}",
                            i + 1
                        ));
                    }
                    s.drift_events.push((*step, *distance, *threshold, *reference_age));
                }
                TraceEvent::Rollback { step, from_tps, to_tps, drop_frac, quarantined } => {
                    if !drop_frac.is_finite() {
                        s.issues.push(format!(
                            "line {}: rollback at step {step} has a non-finite drop fraction",
                            i + 1
                        ));
                    }
                    s.rollbacks.push((*step, *from_tps, *to_tps, *drop_frac, *quarantined));
                }
                TraceEvent::SafetyClamp { .. } => s.safety_clamps += 1,
                TraceEvent::RegretWindow { window, regret, budget, over_budget, radius } => {
                    if *over_budget != (regret > budget) {
                        s.issues.push(format!(
                            "line {}: regret window {window} says over_budget={over_budget} \
                             but regret {regret:.3} vs budget {budget:.3}",
                            i + 1
                        ));
                    }
                    s.regret_windows.push((*window, *regret, *budget, *over_budget, *radius));
                }
                TraceEvent::ReactorSample { conns, sessions, queued_jobs, busy_workers } => {
                    if sessions > conns {
                        s.issues.push(format!(
                            "line {}: reactor sample reports {sessions} sessions on only \
                             {conns} connections",
                            i + 1
                        ));
                    }
                    s.reactor_samples.push((*conns, *sessions, *queued_jobs, *busy_workers));
                }
                TraceEvent::IdleClose { idle_ms, .. } => {
                    if *idle_ms == 0 {
                        s.issues.push(format!(
                            "line {}: idle_close fired with zero idle time",
                            i + 1
                        ));
                    }
                    s.idle_closes += 1;
                }
                TraceEvent::RunEnd { total_steps, best_tps, crashes, wall_seconds, .. } => {
                    s.run_end = Some(RunTotals {
                        total_steps: *total_steps,
                        best_tps: *best_tps,
                        crashes: *crashes,
                        wall_seconds: *wall_seconds,
                    });
                }
            }
        }
        for row in &open_sessions {
            s.issues.push(format!(
                "session {} opened but never closed (unbalanced trace)",
                row.session
            ));
        }
        if !saw_start {
            s.issues.push("no run_start event".into());
        }
        if s.run_end.is_none() {
            s.issues.push("no run_end event (truncated trace?)".into());
        }
        if let Some(end) = s.run_end {
            if !s.steps.is_empty() && end.total_steps != s.steps.len() as u64 {
                s.issues.push(format!(
                    "run_end reports {} steps but the trace holds {} step events",
                    end.total_steps,
                    s.steps.len()
                ));
            }
        }
        s
    }

    /// Parses a JSONL trace and ingests it.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        Ok(Self::from_events(&TraceEvent::parse_jsonl(text)?))
    }

    /// Cumulative sampler fallbacks at the end of the run (nonzero means
    /// the sum-tree disagreed with the stored data at some point).
    pub fn final_fallback_hits(&self) -> u64 {
        self.steps.last().map_or(0, |r| r.fallback_hits)
    }

    /// Worst regret ratio (regret / budget) across closed windows; 0 when
    /// the trace carries no regret accounting.
    pub fn worst_regret_ratio(&self) -> f64 {
        self.regret_windows
            .iter()
            .map(|&(_, regret, budget, _, _)| if budget > 0.0 { regret / budget } else { 0.0 })
            .fold(0.0, f64::max)
    }

    /// Regret windows that overran their budget.
    pub fn over_budget_windows(&self) -> u64 {
        self.regret_windows.iter().filter(|&&(_, _, _, over, _)| over).count() as u64
    }

    /// Renders the step-by-step regression summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== trace summary: mode={} seed={} knobs={} ===",
            self.mode, self.seed, self.knobs
        );
        if !self.workers.is_empty() {
            let _ = writeln!(out, "\ncollection workers:");
            for (w, seed, steps, crashes) in &self.workers {
                let _ = writeln!(
                    out,
                    "  worker {w:>2}  seed {seed:#018x}  {steps:>5} steps  {crashes} crashes"
                );
            }
        }
        if !self.steps.is_empty() {
            let _ = writeln!(
                out,
                "\n{:>5} {:>3} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6} {:>5} {:>5} {:>8} {:>8}  flags",
                "step", "ep", "tps", "p99ms", "reward", "r_T", "r_L", "pool", "beta", "rec",
                "wall_ms", "sim_s"
            );
            for r in &self.steps {
                let mut flags = String::new();
                if r.crashed {
                    flags.push_str(" CRASH");
                }
                if r.degraded {
                    flags.push_str(" DEGRADED");
                }
                if r.fallback_hits > 0 {
                    flags.push_str(" FALLBACK");
                }
                let _ = writeln!(
                    out,
                    "{:>5} {:>3} {:>9.0} {:>8.2} {:>8.3} {:>8.3} {:>8.3} {:>6} {:>5.2} {:>5} \
                     {:>8.2} {:>8.1} {}",
                    r.step,
                    r.episode,
                    r.tps,
                    r.p99_ms,
                    r.reward,
                    r.r_t,
                    r.r_l,
                    r.replay_len,
                    r.beta,
                    r.recovery_actions,
                    r.wall_ms,
                    r.simulated_sec,
                    flags
                );
            }
        }
        if !self.episodes.is_empty() {
            let _ = writeln!(out, "\nepisodes:");
            for (ep, steps, mean_reward, best_tps) in &self.episodes {
                let _ = writeln!(
                    out,
                    "  episode {ep:>3}  {steps:>4} steps  mean reward {mean_reward:>8.3}  \
                     best {best_tps:.0} txn/s"
                );
            }
        }
        if !self.sessions.is_empty() {
            let _ = writeln!(out, "\nservice sessions:");
            for r in &self.sessions {
                let start = if r.warm_start {
                    format!("warm(d={:.3})", r.registry_distance)
                } else {
                    "cold".to_string()
                };
                let mut flags = String::new();
                if r.drained {
                    flags.push_str(" DRAINED");
                }
                if r.published {
                    flags.push_str(" published");
                }
                let _ = writeln!(
                    out,
                    "  session {:>3}  {:<12} {:>2} knobs  {:<12} {:>3} steps  best {:.0} \
                     txn/s{}",
                    r.session, r.workload, r.knobs, start, r.steps, r.best_tps, flags
                );
            }
        }
        if self.admissions + self.rejections > 0 || !self.queue_series.is_empty() {
            let max_depth = self.queue_series.iter().map(|&(d, _)| d).max().unwrap_or(0);
            let max_busy = self.queue_series.iter().map(|&(_, b)| b).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "\nadmission: {} accepted, {} rejected, queue depth peak {} \
                 ({} samples), busy workers peak {}",
                self.admissions,
                self.rejections,
                max_depth,
                self.queue_series.len(),
                max_busy
            );
        }
        if !self.drift_events.is_empty()
            || !self.rollbacks.is_empty()
            || !self.regret_windows.is_empty()
            || self.safety_clamps > 0
        {
            let _ = writeln!(out, "\nsafety layer:");
            for (step, distance, threshold, age) in &self.drift_events {
                let _ = writeln!(
                    out,
                    "  drift at step {step:>4}: distance {distance:.3} > {threshold:.3} \
                     (reference {age} steps old)"
                );
            }
            for (step, from, to, drop, quarantined) in &self.rollbacks {
                let q = if *quarantined { ", quarantined" } else { "" };
                let _ = writeln!(
                    out,
                    "  rollback at step {step:>4}: {from:.0} -> {to:.0} txn/s \
                     (drop {:.0} %{q})",
                    drop * 100.0
                );
            }
            for (window, regret, budget, over, radius) in &self.regret_windows {
                let flag = if *over { "  OVER BUDGET" } else { "" };
                let _ = writeln!(
                    out,
                    "  regret window {window:>3}: {regret:.3} / {budget:.3} \
                     radius {radius:.3}{flag}"
                );
            }
            let _ = writeln!(
                out,
                "  {} clamps, {} drift events, {} rollbacks, {}/{} windows over budget",
                self.safety_clamps,
                self.drift_events.len(),
                self.rollbacks.len(),
                self.over_budget_windows(),
                self.regret_windows.len()
            );
        }
        if !self.reactor_samples.is_empty() || self.idle_closes > 0 {
            let peak_conns = self.reactor_samples.iter().map(|&(c, ..)| c).max().unwrap_or(0);
            let peak_sessions =
                self.reactor_samples.iter().map(|&(_, s, ..)| s).max().unwrap_or(0);
            let peak_queue =
                self.reactor_samples.iter().map(|&(_, _, q, _)| q).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "\nreactor: peak {} conns, {} sessions, {} queued jobs \
                 ({} samples), {} idle closes",
                peak_conns,
                peak_sessions,
                peak_queue,
                self.reactor_samples.len(),
                self.idle_closes
            );
        }
        let crashes = self.steps.iter().filter(|r| r.crashed).count();
        let degraded = self.steps.iter().filter(|r| r.degraded).count();
        let _ = writeln!(
            out,
            "\ntotals: {} steps, {} crashed, {} degraded, {} recovery events, \
             {} sampler fallbacks",
            self.steps.len(),
            crashes,
            degraded,
            self.recovery_events,
            self.final_fallback_hits()
        );
        if let Some(end) = self.run_end {
            let _ = writeln!(
                out,
                "run_end: {} steps, best {:.0} txn/s, {} crashes, {:.1}s wall",
                end.total_steps, end.best_tps, end.crashes, end.wall_seconds
            );
        }
        if self.issues.is_empty() {
            let _ = writeln!(out, "trace OK: no schema or consistency issues");
        } else {
            let _ = writeln!(out, "\nISSUES ({}):", self.issues.len());
            for issue in &self.issues {
                let _ = writeln!(out, "  ! {issue}");
            }
        }
        out
    }
}

/// Round-trips every event through its JSONL encoding and back,
/// asserting the decoded events match. Used by the tier-1 schema check
/// (`scripts/tier1.sh`) so an encoder/decoder skew fails CI rather than
/// corrupting the first real trace someone tries to read.
pub fn schema_round_trip(events: &[TraceEvent]) -> Result<(), String> {
    let text: String =
        events.iter().map(|e| e.to_json_line() + "\n").collect();
    let back = TraceEvent::parse_jsonl(&text)?;
    if back.len() != events.len() {
        return Err(format!("round-trip lost events: {} -> {}", events.len(), back.len()));
    }
    for (i, (a, b)) in events.iter().zip(&back).enumerate() {
        if a != b {
            return Err(format!("event {i} changed across round-trip:\n  {a:?}\n  {b:?}"));
        }
    }
    Ok(())
}

/// A representative event of every variant (all levels, all flag states)
/// for the schema round-trip check.
pub fn exemplar_events() -> Vec<TraceEvent> {
    use cdbtune::{EngineSample, PhaseTiming, RecoveryDelta, ReplayTrace, RewardTrace};
    vec![
        TraceEvent::RunStart { mode: "train".into(), seed: 42, knobs: 3, state_dim: 63 },
        TraceEvent::EpisodeStart {
            episode: 0,
            warm_start: false,
            baseline_tps: 1234.5,
            baseline_p99_us: 8000.25,
        },
        TraceEvent::Step {
            step: 1,
            episode: 0,
            action: vec![0.25, 0.5, 1.0],
            reward: RewardTrace {
                reward: 0.375,
                throughput_term: 0.5,
                latency_term: 0.25,
                delta0_throughput: 0.1,
                delta_prev_throughput: 0.05,
                delta0_latency: 0.2,
                delta_prev_latency: -0.01,
                clamp_fired: true,
                epsilon_floored: false,
                zero_rule_fired: true,
                final_clamp_fired: false,
            },
            throughput_tps: 1300.0,
            p99_latency_us: 7500.5,
            crashed: false,
            degraded: false,
            replay: ReplayTrace {
                len: 128,
                beta: 0.41,
                max_priority: 2.5,
                is_weight_min: 0.62,
                is_weight_max: 1.0,
                fallback_hits: 0,
                tree_rebuilds: 1,
            },
            recovery: RecoveryDelta { retries: 1, backoff_ms: 250, ..Default::default() },
            engine: EngineSample { restarts: 2, crashes: 1, running: true },
            timing: PhaseTiming {
                recommendation_wall_us: 120,
                deployment_wall_us: 900,
                stress_wall_us: 45_000,
                stress_simulated_sec: 180.0,
                metrics_wall_us: 30,
                model_update_wall_us: 2_100,
            },
        },
        TraceEvent::Recovery {
            action: "rollback".into(),
            during: "deploy".into(),
            attempt: 0,
            backoff_ms: 500,
        },
        TraceEvent::EpisodeEnd { episode: 0, steps: 1, mean_reward: 0.375, best_tps: 1300.0 },
        TraceEvent::CollectWorker { worker: 3, derived_seed: u64::MAX, steps: 50, crashes: 2 },
        TraceEvent::Admission { accepted: true, reason: "ok".into(), queue_depth: 1 },
        TraceEvent::Admission {
            accepted: false,
            reason: "queue_full".into(),
            queue_depth: 4,
        },
        TraceEvent::ServiceQueue { depth: 3, busy_workers: 2 },
        TraceEvent::SessionOpen {
            session: 11,
            workload: "sysbench-rw".into(),
            knobs: 3,
            warm_start: true,
            registry_distance: 0.042,
        },
        TraceEvent::SessionClose {
            session: 11,
            steps: 5,
            best_tps: 5200.0,
            drained: false,
            published: true,
        },
        TraceEvent::DriftDetected {
            step: 12,
            distance: 0.61,
            threshold: 0.35,
            reference_age: 7,
        },
        TraceEvent::Rollback {
            step: 13,
            from_tps: 2400.0,
            to_tps: 5100.0,
            drop_frac: 0.53,
            quarantined: true,
        },
        TraceEvent::SafetyClamp { step: 14, clamped_knobs: 3, max_delta: 0.22, radius: 0.15 },
        TraceEvent::RegretWindow {
            window: 2,
            regret: 0.4,
            budget: 0.75,
            over_budget: false,
            radius: 0.18,
        },
        TraceEvent::ReactorSample { conns: 120, sessions: 96, queued_jobs: 5, busy_workers: 2 },
        TraceEvent::IdleClose { conn: 44, idle_ms: 31000, had_session: true },
        TraceEvent::RunEnd {
            mode: "train".into(),
            total_steps: 1,
            best_tps: 1300.0,
            crashes: 0,
            wall_seconds: 12.5,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplar_schema_round_trips() {
        schema_round_trip(&exemplar_events()).unwrap();
    }

    #[test]
    fn summary_ingests_and_cross_checks() {
        let events = exemplar_events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.mode, "train");
        assert_eq!(s.seed, 42);
        assert_eq!(s.steps.len(), 1);
        assert_eq!(s.episodes, vec![(0, 1, 0.375, 1300.0)]);
        assert_eq!(s.workers, vec![(3, u64::MAX, 50, 2)]);
        assert_eq!(s.recovery_events, 1);
        assert_eq!(s.admissions, 1);
        assert_eq!(s.rejections, 1);
        assert_eq!(s.queue_series, vec![(3, 2)]);
        assert_eq!(s.sessions.len(), 1);
        let sess = &s.sessions[0];
        assert_eq!(sess.session, 11);
        assert!(sess.warm_start);
        assert_eq!(sess.steps, 5);
        assert!(sess.published && !sess.drained);
        assert_eq!(s.drift_events, vec![(12, 0.61, 0.35, 7)]);
        assert_eq!(s.rollbacks, vec![(13, 2400.0, 5100.0, 0.53, true)]);
        assert_eq!(s.safety_clamps, 1);
        assert_eq!(s.regret_windows, vec![(2, 0.4, 0.75, false, 0.18)]);
        assert_eq!(s.reactor_samples, vec![(120, 96, 5, 2)]);
        assert_eq!(s.idle_closes, 1);
        assert_eq!(s.over_budget_windows(), 0);
        assert!((s.worst_regret_ratio() - 0.4 / 0.75).abs() < 1e-12);
        assert!(s.issues.is_empty(), "healthy trace flagged: {:?}", s.issues);
        let rendered = s.render();
        assert!(rendered.contains("trace OK"));
        assert!(rendered.contains("mode=train"));
        assert!(rendered.contains("service sessions:"));
        assert!(rendered.contains("warm(d=0.042)"));
        assert!(rendered.contains("reactor: peak 120 conns"));
        assert!(rendered.contains("1 accepted, 1 rejected"));
        assert!(rendered.contains("safety layer:"));
        assert!(rendered.contains("drift at step   12"));
        assert!(rendered.contains("rollback at step   13"));
    }

    #[test]
    fn inconsistent_safety_events_are_issues() {
        // A drift event below its own threshold and a regret window whose
        // over_budget flag disagrees with its numbers are both schema bugs.
        let mut events = exemplar_events();
        for ev in &mut events {
            match ev {
                TraceEvent::DriftDetected { distance, .. } => *distance = 0.1,
                TraceEvent::RegretWindow { over_budget, .. } => *over_budget = true,
                _ => {}
            }
        }
        let s = TraceSummary::from_events(&events);
        assert!(s.issues.iter().any(|i| i.contains("below its")), "{:?}", s.issues);
        assert!(s.issues.iter().any(|i| i.contains("over_budget=true")), "{:?}", s.issues);
    }

    #[test]
    fn unbalanced_session_brackets_are_issues() {
        // An open that never closes...
        let mut events = exemplar_events();
        let close_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::SessionClose { .. }))
            .unwrap();
        events.remove(close_at);
        let s = TraceSummary::from_events(&events);
        assert!(
            s.issues.iter().any(|i| i.contains("opened but never closed")),
            "{:?}",
            s.issues
        );
        // ...and a close with no matching open.
        let mut events = exemplar_events();
        let open_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::SessionOpen { .. }))
            .unwrap();
        events.remove(open_at);
        let s = TraceSummary::from_events(&events);
        assert!(
            s.issues.iter().any(|i| i.contains("closed without a session_open")),
            "{:?}",
            s.issues
        );
    }

    #[test]
    fn summary_flags_truncated_and_inconsistent_traces() {
        // Drop run_end and duplicate a step index: both must be reported.
        let mut events = exemplar_events();
        events.pop();
        let step = events[2].clone();
        events.push(step);
        let s = TraceSummary::from_events(&events);
        assert!(s.issues.iter().any(|i| i.contains("no run_end")));
        assert!(s.issues.iter().any(|i| i.contains("step index went")));
        assert!(s.render().contains("ISSUES"));
    }

    #[test]
    fn knob_count_mismatch_is_reported() {
        let mut events = exemplar_events();
        if let TraceEvent::Step { action, .. } = &mut events[2] {
            action.push(0.0);
        }
        let s = TraceSummary::from_events(&events);
        assert!(s.issues.iter().any(|i| i.contains("carries 4 knobs")));
    }
}
