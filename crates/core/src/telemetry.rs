//! Structured telemetry for the tuning loop.
//!
//! Every tuning step — offline training, online requests, parallel
//! collection — can be recorded as a typed JSONL event carrying the full
//! reward decomposition (Eqs. 4–7 term by term, including which clamp or
//! zero rule fired), the knob vector applied, engine counters, the
//! recovery actions taken during the step, replay-pool statistics
//! (β, max priority, IS-weight spread, sampler fallbacks), and per-phase
//! wall/simulated timings. OnlineTune (PAPERS.md) argues safe cloud tuning
//! requires monitoring the tuner's own decisions; this module is that
//! instrument — an RL-loop bug that changes behaviour now shows up as a
//! before/after diff of trace events instead of a silently regressed
//! benchmark weeks later.
//!
//! The module is deliberately **zero-dependency** (std only). Each event
//! and payload is declared once, in a field table over [`crate::jsonio`]
//! (`line_struct!` / `line_enum!`, in the "line format" section below); the
//! table generates the `type` tag, the writer and the reader, so an event
//! member the table misses, or a tag without a decoder, does not compile.
//!
//! # Schema versioning
//!
//! Every line carries `"v": 1` ([`SCHEMA_VERSION`]) and a `"type"` tag.
//! The rule: adding a field is backward-compatible (readers default
//! missing fields to zero/false/empty) and does **not** bump the version;
//! renaming, removing, or changing the meaning of a field bumps
//! [`SCHEMA_VERSION`]. A `u64` is a bare number below 2^53 and a decimal
//! string from there on ([`LineField`](crate::jsonio::LineField)). The
//! golden-line test pins the bytes of every event, and the round-trip test
//! in `scripts/tier1.sh` the encode→decode→encode fixed point.
//!
//! # Backends
//!
//! [`TelemetrySink`] has three implementations: [`JsonlSink`] (append to a
//! file, one event per line), [`RingSink`] (bounded in-memory ring for
//! tests and the bench harness), and [`NullSink`]. The cheap cloneable
//! [`Telemetry`] handle wraps a shared sink and is what gets threaded
//! through the environment, trainer, online tuner, and parallel
//! collectors; at [`TraceLevel::Off`] an emit is a single branch — no
//! lock, no allocation.

use crate::jsonio::{Json, Obj};
use crate::{line_enum, line_struct};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Trace schema version stamped on every event line (see the module docs
/// for the bump rule).
pub const SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------------

/// How much the sink records. Ordered: each level includes the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the null default).
    Off,
    /// Run/episode boundaries and end-of-run summaries only.
    Summary,
    /// Every tuning step (the default for `--trace-out`).
    Step,
    /// Steps plus individual recovery actions (retries, rollbacks,
    /// quarantines) as they happen.
    Debug,
}

impl TraceLevel {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(TraceLevel::Off),
            "summary" => Ok(TraceLevel::Summary),
            "step" => Ok(TraceLevel::Step),
            "debug" => Ok(TraceLevel::Debug),
            other => Err(format!("unknown trace level '{other}' (off|summary|step|debug)")),
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Step => "step",
            TraceLevel::Debug => "debug",
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------------
// Event payloads
// ---------------------------------------------------------------------------

/// The reward decomposition of one step: every Eq. 4–7 term plus which
/// saturation rules fired. Produced by `RewardConfig::reward_traced`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RewardTrace {
    /// Final blended reward (after the crash-magnitude clamp).
    pub reward: f64,
    /// Throughput metric reward `r_T` (Eq. 6 on the throughput deltas).
    pub throughput_term: f64,
    /// Latency metric reward `r_L` (Eq. 6 on the negated latency deltas).
    pub latency_term: f64,
    /// `∆_{t→0}` for throughput (Eq. 4, vs the initial configuration).
    pub delta0_throughput: f64,
    /// `∆_{t→t−1}` for throughput (vs the previous step).
    pub delta_prev_throughput: f64,
    /// `∆_{t→0}` for latency (sign already flipped: positive = improved).
    pub delta0_latency: f64,
    /// `∆_{t→t−1}` for latency (sign already flipped).
    pub delta_prev_latency: f64,
    /// Some delta saturated at ±`DELTA_CLAMP`.
    pub clamp_fired: bool,
    /// Some delta's reference was floored at `DELTA_EPSILON` (recovery
    /// from a ~zero baseline).
    pub epsilon_floored: bool,
    /// The §4.2 zero rule fired on either metric (positive Eq.-6 result
    /// with a negative previous-step trend zeroed).
    pub zero_rule_fired: bool,
    /// The final blend saturated at the crash-punishment magnitude.
    pub final_clamp_fired: bool,
}

impl RewardTrace {
    /// The trace of a crash punishment (§5.2.3): constant reward, no
    /// measured terms.
    pub fn crash(reward: f64) -> Self {
        Self { reward, ..Self::default() }
    }

    /// All numeric fields are finite (the invariant the tier-1 telemetry
    /// test asserts for every recorded step).
    pub fn is_finite(&self) -> bool {
        [
            self.reward,
            self.throughput_term,
            self.latency_term,
            self.delta0_throughput,
            self.delta_prev_throughput,
            self.delta0_latency,
            self.delta_prev_latency,
        ]
        .iter()
        .all(|x| x.is_finite())
    }
}

/// Per-phase timings of one tuning step (§5.1.1, Table 2): wall-clock µs
/// per component plus the simulated seconds the stress window represents.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTiming {
    /// Actor inference, wall µs.
    pub recommendation_wall_us: u64,
    /// Configuration deploy (incl. restart), wall µs.
    pub deployment_wall_us: u64,
    /// Stress-test window execution, wall µs.
    pub stress_wall_us: u64,
    /// Simulated seconds the stress window represents.
    pub stress_simulated_sec: f64,
    /// Metrics collection (snapshot + delta + vectorize), wall µs.
    pub metrics_wall_us: u64,
    /// Gradient updates attributed to this step, wall µs.
    pub model_update_wall_us: u64,
}

impl PhaseTiming {
    /// Total wall time attributed to the step (µs).
    pub fn total_wall_us(&self) -> u64 {
        self.recommendation_wall_us
            + self.deployment_wall_us
            + self.stress_wall_us
            + self.metrics_wall_us
            + self.model_update_wall_us
    }
}

/// Replay-pool statistics at the moment a step's minibatches were drawn.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayTrace {
    /// Stored transitions.
    pub len: u64,
    /// Current IS exponent β (annealed toward 1). 0 for uniform replay.
    pub beta: f64,
    /// Maximum priority seen so far (new experience enters at this). 0 for
    /// uniform replay.
    pub max_priority: f64,
    /// Smallest IS weight in the step's sampled batches (1.0 when uniform).
    pub is_weight_min: f64,
    /// Largest IS weight in the step's sampled batches (normalized to 1).
    pub is_weight_max: f64,
    /// Cumulative sampler fallbacks (a proportional draw walked into an
    /// empty/zero-priority leaf and was resampled uniformly). Nonzero
    /// values mean the sum-tree and the data disagree — the exact failure
    /// mode the periodic rebuild exists to prevent.
    pub fallback_hits: u64,
    /// Cumulative exact rebuilds of the sum-tree's internal nodes.
    pub tree_rebuilds: u64,
}

/// Recovery actions taken *during one step* (a field-wise
/// `RecoveryStats::since` diff, kept as plain counters so this module
/// stays self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryDelta {
    /// Transient failures retried.
    pub retries: u64,
    /// Simulated backoff accrued, ms.
    pub backoff_ms: u64,
    /// Rollbacks to the last healthy configuration.
    pub rollbacks: u64,
    /// Forced engine restarts.
    pub forced_restarts: u64,
    /// Configuration cells quarantined.
    pub quarantined_configs: u64,
    /// Steps short-circuited by a quarantined cell.
    pub quarantine_hits: u64,
    /// Steps that ended degraded.
    pub degraded_steps: u64,
    /// Metric entries imputed.
    pub imputed_metrics: u64,
}

/// Engine counters sampled after the step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineSample {
    /// Lifetime restarts of the instance.
    pub restarts: u64,
    /// Lifetime crashes of the instance.
    pub crashes: u64,
    /// The instance is up.
    pub running: bool,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One typed trace event (one JSONL line).
//
// `Step` dwarfs the other variants by design: it is the workhorse event and
// carries the full per-step decomposition. Boxing it would trade one stack
// copy for a heap allocation on every tuning step, so the asymmetry stays.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began (training, tuning request, or parallel collection).
    RunStart {
        /// `"train"`, `"tune"`, or `"collect"`.
        mode: String,
        /// RNG seed of the run.
        seed: u64,
        /// Tuned knob count (action dimension).
        knobs: u64,
        /// State dimension (metric count).
        state_dim: u64,
    },
    /// An episode began.
    EpisodeStart {
        /// Episode index (0-based).
        episode: u64,
        /// The episode reset to the best-known configuration instead of
        /// the default baseline.
        warm_start: bool,
        /// Baseline throughput measured at reset (txn/s).
        baseline_tps: f64,
        /// Baseline p99 latency at reset (µs).
        baseline_p99_us: f64,
    },
    /// One tuning step (the workhorse event).
    Step {
        /// Global step index within the run (1-based).
        step: u64,
        /// Episode the step belongs to (0-based; 0 for online tuning).
        episode: u64,
        /// Normalized knob vector applied.
        action: Vec<f64>,
        /// Reward decomposition.
        reward: RewardTrace,
        /// Measured throughput (txn/s).
        throughput_tps: f64,
        /// Measured p99 latency (µs).
        p99_latency_us: f64,
        /// The configuration crashed the instance (or hit quarantine).
        crashed: bool,
        /// The step could not be measured (infrastructure failure).
        degraded: bool,
        /// Replay-pool statistics when this step's minibatches were drawn.
        replay: ReplayTrace,
        /// Recovery actions taken during the step.
        recovery: RecoveryDelta,
        /// Engine counters after the step.
        engine: EngineSample,
        /// Per-phase timings.
        timing: PhaseTiming,
    },
    /// An individual recovery action ([`TraceLevel::Debug`] only).
    Recovery {
        /// `"retry"`, `"rollback"`, `"forced_restart"`, `"quarantine"`, or
        /// `"quarantine_hit"`.
        action: String,
        /// What the environment was doing (`"deploy"`, `"stress"`, ...).
        during: String,
        /// Attempt number for retries, 0 otherwise.
        attempt: u64,
        /// Simulated backoff accrued by this action, ms.
        backoff_ms: u64,
    },
    /// An episode ended.
    EpisodeEnd {
        /// Episode index (0-based).
        episode: u64,
        /// Steps taken in the episode.
        steps: u64,
        /// Mean reward over the episode.
        mean_reward: f64,
        /// Best throughput seen in the episode (txn/s).
        best_tps: f64,
    },
    /// A parallel-collection worker finished.
    CollectWorker {
        /// Worker index.
        worker: u64,
        /// splitmix64-derived RNG seed the worker explored with.
        derived_seed: u64,
        /// Transitions collected.
        steps: u64,
        /// Crashes triggered while exploring.
        crashes: u64,
    },
    /// A run ended.
    RunEnd {
        /// `"train"`, `"tune"`, or `"collect"`.
        mode: String,
        /// Total steps taken.
        total_steps: u64,
        /// Best throughput observed (txn/s).
        best_tps: f64,
        /// Crashes over the run.
        crashes: u64,
        /// Wall-clock seconds.
        wall_seconds: f64,
    },
    /// A `cdbtuned` tuning session opened.
    SessionOpen {
        /// Server-assigned session id.
        session: u64,
        /// Workload label of the session's spec.
        workload: String,
        /// Tuned knob count (action dimension).
        knobs: u64,
        /// The session warm-started from a registry model instead of a
        /// freshly initialized one.
        warm_start: bool,
        /// Fingerprint distance to the registry entry used (0 when cold).
        registry_distance: f64,
    },
    /// A `cdbtuned` tuning session closed (or was drained at shutdown).
    SessionClose {
        /// Server-assigned session id.
        session: u64,
        /// Tuning steps the session took.
        steps: u64,
        /// Best throughput the session reached (txn/s).
        best_tps: f64,
        /// The session was closed by the shutdown drain, not the client.
        drained: bool,
        /// The session's fine-tuned model was published to the registry.
        published: bool,
    },
    /// An admission decision on a new `cdbtuned` connection.
    Admission {
        /// The connection was admitted to the worker queue.
        accepted: bool,
        /// `"ok"` when accepted, else the rejection reason
        /// (`"queue_full"`, `"draining"`).
        reason: String,
        /// Admission-queue depth at decision time.
        queue_depth: u64,
    },
    /// A `cdbtuned` admission-queue sample (taken at each decision point).
    ServiceQueue {
        /// Connections waiting in the admission queue.
        depth: u64,
        /// Workers currently running a session.
        busy_workers: u64,
    },
    /// The drift detector flagged a sustained workload shift.
    DriftDetected {
        /// Global step index at which drift fired.
        step: u64,
        /// Fingerprint distance between reference and current windows.
        distance: f64,
        /// The configured threshold it exceeded.
        threshold: f64,
        /// Steps since the reference window was (re)baselined.
        reference_age: u64,
    },
    /// The safety layer reverted to the best-known-safe configuration.
    Rollback {
        /// Global step index of the degrading step.
        step: u64,
        /// Throughput measured under the degrading config (txn/s).
        from_tps: f64,
        /// Throughput of the best-known-safe config being restored (txn/s).
        to_tps: f64,
        /// Fractional throughput drop that triggered the revert.
        drop_frac: f64,
        /// The degrading action was quarantined.
        quarantined: bool,
    },
    /// The trust region pulled a proposed action back toward the
    /// best-known-safe configuration.
    SafetyClamp {
        /// Global step index of the clamped proposal.
        step: u64,
        /// Knobs pulled back inside the region.
        clamped_knobs: u64,
        /// Largest single-knob correction applied.
        max_delta: f64,
        /// Trust-region radius in force.
        radius: f64,
    },
    /// A regret-accounting window closed.
    RegretWindow {
        /// Zero-based window index.
        window: u64,
        /// Cumulative relative regret accumulated over the window.
        regret: f64,
        /// The budget it was measured against.
        budget: f64,
        /// The window overran its budget.
        over_budget: bool,
        /// Trust-region radius after the window's adaptation.
        radius: f64,
    },
    /// A periodic health sample of the event-driven reactor (emitted on
    /// each sweep tick of the daemon).
    ReactorSample {
        /// Connections currently registered with the poller.
        conns: u64,
        /// Tuning sessions currently live across all shards.
        sessions: u64,
        /// Compute jobs queued on the shard run queues.
        queued_jobs: u64,
        /// Compute workers currently executing a job.
        busy_workers: u64,
    },
    /// The reactor reaped an idle connection (slow-loris defense).
    IdleClose {
        /// Reactor-assigned connection token.
        conn: u64,
        /// How long the connection had been silent (ms).
        idle_ms: u64,
        /// The connection hosted a live session (settled before close).
        had_session: bool,
    },
}

impl TraceEvent {
    /// The minimum [`TraceLevel`] at which the event is recorded.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::Recovery { .. } => TraceLevel::Debug,
            TraceEvent::Step { .. }
            | TraceEvent::Admission { .. }
            | TraceEvent::ServiceQueue { .. }
            | TraceEvent::SafetyClamp { .. }
            | TraceEvent::ReactorSample { .. }
            | TraceEvent::IdleClose { .. } => TraceLevel::Step,
            _ => TraceLevel::Summary,
        }
    }
}

// ---------------------------------------------------------------------------
// The line format: one field table per type (crate::jsonio)
// ---------------------------------------------------------------------------

line_struct!(RewardTrace {
    reward, throughput_term, latency_term,
    delta0_throughput: "delta0_tps", delta_prev_throughput: "delta_prev_tps",
    delta0_latency: "delta0_lat", delta_prev_latency: "delta_prev_lat",
    clamp_fired, epsilon_floored, zero_rule_fired, final_clamp_fired,
});
line_struct!(ReplayTrace {
    len, beta, max_priority, is_weight_min, is_weight_max, fallback_hits, tree_rebuilds,
});
line_struct!(RecoveryDelta {
    retries, backoff_ms, rollbacks, forced_restarts, quarantined_configs, quarantine_hits,
    degraded_steps, imputed_metrics,
});
line_struct!(EngineSample { restarts, crashes, running });
line_struct!(PhaseTiming {
    recommendation_wall_us, deployment_wall_us, stress_wall_us, stress_simulated_sec,
    metrics_wall_us, model_update_wall_us,
});

line_enum!(TraceEvent {
    RunStart "run_start" { mode, seed, knobs, state_dim },
    EpisodeStart "episode_start" { episode, warm_start, baseline_tps, baseline_p99_us },
    Step "step" {
        step, episode, action, reward, throughput_tps, p99_latency_us, crashed, degraded, replay,
        recovery, engine, timing,
    },
    Recovery "recovery" { action, during, attempt, backoff_ms },
    EpisodeEnd "episode_end" { episode, steps, mean_reward, best_tps },
    CollectWorker "collect_worker" { worker, derived_seed, steps, crashes },
    RunEnd "run_end" { mode, total_steps, best_tps, crashes, wall_seconds },
    SessionOpen "session_open" { session, workload, knobs, warm_start, registry_distance },
    SessionClose "session_close" { session, steps, best_tps, drained, published },
    Admission "admission" { accepted, reason, queue_depth },
    ServiceQueue "service_queue" { depth, busy_workers },
    DriftDetected "drift_detected" { step, distance, threshold, reference_age },
    Rollback "rollback" { step, from_tps, to_tps, drop_frac, quarantined },
    SafetyClamp "safety_clamp" { step, clamped_knobs, max_delta, radius },
    RegretWindow "regret_window" { window, regret, budget, over_budget, radius },
    ReactorSample "reactor_sample" { conns, sessions, queued_jobs, busy_workers },
    IdleClose "idle_close" { conn, idle_ms, had_session },
});

impl TraceEvent {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = Obj::new();
        o.u64("v", u64::from(SCHEMA_VERSION)).str("type", self.type_tag());
        self.put_fields(&mut o);
        o.finish()
    }

    /// Decodes one JSONL line. Unknown fields are ignored and missing
    /// fields default (the schema's compatibility rule); an unknown
    /// `"type"` or a newer schema version is an error.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let j = Json::parse(line)?;
        let v = j.u64("v") as u32;
        if v > SCHEMA_VERSION {
            return Err(format!("trace schema v{v} is newer than supported v{SCHEMA_VERSION}"));
        }
        let tag = j.string("type");
        Self::take_fields(&tag, &j).ok_or_else(|| format!("unknown trace event type '{tag}'"))
    }

    /// Parses a whole JSONL document, skipping blank lines; fails on the
    /// first malformed line with its 1-based line number.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                Self::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?,
            );
        }
        Ok(events)
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where trace events go. All sinks are level-filtered by the
/// [`Telemetry`] handle before `record` is called.
pub trait TelemetrySink: Send {
    /// Records one event (already level-filtered).
    fn record(&mut self, event: &TraceEvent);
    /// Flushes buffered output (file sinks).
    fn flush(&mut self) {}
    /// Drains buffered events if this sink keeps them in memory
    /// ([`RingSink`] does); other backends return nothing.
    fn take_ring(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Discards everything.
#[derive(Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Appends one JSON line per event to a buffered file.
pub struct JsonlSink {
    writer: std::io::BufWriter<std::fs::File>,
    lines: u64,
}

impl JsonlSink {
    /// Creates (truncating) the trace file.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self { writer: std::io::BufWriter::new(file), lines: 0 })
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        // A full disk must not kill the tuning run; drop the line.
        if writeln!(self.writer, "{}", event.to_json_line()).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Keeps the last `capacity` events in memory (tests, bench ingestion).
#[derive(Debug)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self { events: VecDeque::with_capacity(capacity.min(1024)), capacity, dropped: 0 }
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

impl TelemetrySink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }

    fn take_ring(&mut self) -> Vec<TraceEvent> {
        self.drain()
    }
}

// ---------------------------------------------------------------------------
// The shared handle
// ---------------------------------------------------------------------------

/// A cheap cloneable telemetry handle: level + shared sink. This is what
/// the environment, trainer, online tuner, and parallel collectors carry.
/// At [`TraceLevel::Off`] (the [`Telemetry::null`] default) an emit is one
/// enum comparison — no lock is taken and nothing allocates, so leaving
/// telemetry threaded through the hot loop costs nothing when disabled.
#[derive(Clone)]
pub struct Telemetry {
    level: TraceLevel,
    sink: Option<Arc<Mutex<Box<dyn TelemetrySink>>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.level)
            .field("sink", &self.sink.as_ref().map(|_| "<shared>"))
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::null()
    }
}

impl Telemetry {
    /// The no-op handle (level Off, no sink).
    pub fn null() -> Self {
        Self { level: TraceLevel::Off, sink: None }
    }

    /// Records to a JSONL file at `path`.
    pub fn to_file(path: &str, level: TraceLevel) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonlSink::create(path)?), level))
    }

    /// Records the last `capacity` events in memory; pair with
    /// [`Telemetry::drain_ring`].
    pub fn ring(capacity: usize, level: TraceLevel) -> Self {
        Self::with_sink(Box::new(RingSink::new(capacity)), level)
    }

    /// Wraps an arbitrary sink.
    pub fn with_sink(sink: Box<dyn TelemetrySink>, level: TraceLevel) -> Self {
        Self { level, sink: Some(Arc::new(Mutex::new(sink))) }
    }

    /// The configured level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// True when an event at `level` would be recorded — guard any
    /// nontrivial event assembly with this.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        self.sink.is_some() && level <= self.level
    }

    /// Records the event if its level passes the filter.
    pub fn emit(&self, event: &TraceEvent) {
        if !self.enabled(event.level()) {
            return;
        }
        if let Some(sink) = &self.sink {
            // lint:allow(reactor) reason=the sink lock guards one in-memory record call and is never held across blocking work
            if let Ok(mut guard) = sink.lock() {
                guard.record(event);
            }
        }
    }

    /// Flushes the sink (call at run end).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut guard) = sink.lock() {
                guard.flush();
            }
        }
    }

    /// Drains a ring sink's buffered events (empty for other backends).
    pub fn drain_ring(&self) -> Vec<TraceEvent> {
        if let Some(sink) = &self.sink {
            if let Ok(mut guard) = sink.lock() {
                return guard.take_ring();
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn null_telemetry_disables_every_level_and_emit_is_free() {
        let t = Telemetry::null();
        assert!(!t.enabled(TraceLevel::Summary));
        assert!(!t.enabled(TraceLevel::Step));
        assert!(!t.enabled(TraceLevel::Debug));
        // A disabled handle must cost call sites one branch: a million
        // emits of a pre-built event finish in far less than the generous
        // bound below (an encoding sink would blow through it).
        let ev = sample_step();
        let start = std::time::Instant::now();
        for _ in 0..1_000_000 {
            t.emit(&ev);
        }
        t.flush();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "null telemetry is not free: 1M emits took {:?}",
            start.elapsed()
        );
        assert!(t.drain_ring().is_empty(), "null telemetry recorded events");
    }

    fn sample_step() -> TraceEvent {
        TraceEvent::Step {
            step: 7,
            episode: 2,
            action: vec![0.25, 0.5, 1.0],
            reward: RewardTrace {
                reward: 1.5,
                throughput_term: 2.0,
                latency_term: 1.0,
                delta0_throughput: 0.2,
                delta_prev_throughput: 0.1,
                delta0_latency: 0.05,
                delta_prev_latency: -0.01,
                clamp_fired: false,
                epsilon_floored: false,
                zero_rule_fired: true,
                final_clamp_fired: false,
            },
            throughput_tps: 5087.5,
            p99_latency_us: 30612.0,
            crashed: false,
            degraded: false,
            replay: ReplayTrace {
                len: 640,
                beta: 0.41,
                max_priority: 12.5,
                is_weight_min: 0.3,
                is_weight_max: 1.0,
                fallback_hits: 0,
                tree_rebuilds: 2,
            },
            recovery: RecoveryDelta { retries: 1, backoff_ms: 250, ..RecoveryDelta::default() },
            engine: EngineSample { restarts: 9, crashes: 1, running: true },
            timing: PhaseTiming {
                recommendation_wall_us: 120,
                deployment_wall_us: 800,
                stress_wall_us: 15000,
                stress_simulated_sec: 152.88,
                metrics_wall_us: 90,
                model_update_wall_us: 2400,
            },
        }
    }

    fn all_sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                mode: "train".into(),
                seed: 42,
                knobs: 40,
                state_dim: 63,
            },
            TraceEvent::EpisodeStart {
                episode: 0,
                warm_start: false,
                baseline_tps: 3920.0,
                baseline_p99_us: 391600.0,
            },
            sample_step(),
            TraceEvent::Recovery {
                action: "retry".into(),
                during: "deploy".into(),
                attempt: 2,
                backoff_ms: 500,
            },
            TraceEvent::EpisodeEnd { episode: 0, steps: 20, mean_reward: 0.8, best_tps: 5100.0 },
            TraceEvent::CollectWorker { worker: 3, derived_seed: 0xDEAD, steps: 50, crashes: 1 },
            TraceEvent::SessionOpen {
                session: 11,
                workload: "sysbench-rw".into(),
                knobs: 6,
                warm_start: true,
                registry_distance: 0.042,
            },
            TraceEvent::Admission { accepted: false, reason: "queue_full".into(), queue_depth: 4 },
            TraceEvent::ServiceQueue { depth: 3, busy_workers: 2 },
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
            TraceEvent::SessionClose {
                session: 11,
                steps: 5,
                best_tps: 5200.0,
                drained: false,
                published: true,
            },
            TraceEvent::RunEnd {
                mode: "train".into(),
                total_steps: 320,
                best_tps: 5087.0,
                crashes: 20,
                wall_seconds: 13.8,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in all_sample_events() {
            let line = ev.to_json_line();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("parse {line}: {e}"));
            assert_eq!(back, ev, "round trip of {line}");
            // Encode→decode→encode is a fixed point (schema stability).
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn lines_carry_version_and_type() {
        for ev in all_sample_events() {
            let line = ev.to_json_line();
            assert!(line.starts_with("{\"v\":1,\"type\":\""), "{line}");
            assert!(line.contains(&format!("\"type\":\"{}\"", ev.type_tag())));
        }
    }

    /// The bytes of every sample line, as the hand-written encoder wrote
    /// them.
    const SAMPLE_LINES: [&str; 17] = [
        r#"{"v":1,"type":"run_start","mode":"train","seed":42,"knobs":40,"state_dim":63}"#,
        r#"{"v":1,"type":"episode_start","episode":0,"warm_start":false,"baseline_tps":3920.0,"baseline_p99_us":391600.0}"#,
        r#"{"v":1,"type":"step","step":7,"episode":2,"action":[0.25,0.5,1.0],"reward":{"reward":1.5,"throughput_term":2.0,"latency_term":1.0,"delta0_tps":0.2,"delta_prev_tps":0.1,"delta0_lat":0.05,"delta_prev_lat":-0.01,"clamp_fired":false,"epsilon_floored":false,"zero_rule_fired":true,"final_clamp_fired":false},"throughput_tps":5087.5,"p99_latency_us":30612.0,"crashed":false,"degraded":false,"replay":{"len":640,"beta":0.41,"max_priority":12.5,"is_weight_min":0.3,"is_weight_max":1.0,"fallback_hits":0,"tree_rebuilds":2},"recovery":{"retries":1,"backoff_ms":250,"rollbacks":0,"forced_restarts":0,"quarantined_configs":0,"quarantine_hits":0,"degraded_steps":0,"imputed_metrics":0},"engine":{"restarts":9,"crashes":1,"running":true},"timing":{"recommendation_wall_us":120,"deployment_wall_us":800,"stress_wall_us":15000,"stress_simulated_sec":152.88,"metrics_wall_us":90,"model_update_wall_us":2400}}"#,
        r#"{"v":1,"type":"recovery","action":"retry","during":"deploy","attempt":2,"backoff_ms":500}"#,
        r#"{"v":1,"type":"episode_end","episode":0,"steps":20,"mean_reward":0.8,"best_tps":5100.0}"#,
        r#"{"v":1,"type":"collect_worker","worker":3,"derived_seed":57005,"steps":50,"crashes":1}"#,
        r#"{"v":1,"type":"session_open","session":11,"workload":"sysbench-rw","knobs":6,"warm_start":true,"registry_distance":0.042}"#,
        r#"{"v":1,"type":"admission","accepted":false,"reason":"queue_full","queue_depth":4}"#,
        r#"{"v":1,"type":"service_queue","depth":3,"busy_workers":2}"#,
        r#"{"v":1,"type":"drift_detected","step":12,"distance":0.61,"threshold":0.35,"reference_age":7}"#,
        r#"{"v":1,"type":"rollback","step":13,"from_tps":2400.0,"to_tps":5100.0,"drop_frac":0.53,"quarantined":true}"#,
        r#"{"v":1,"type":"safety_clamp","step":14,"clamped_knobs":3,"max_delta":0.22,"radius":0.15}"#,
        r#"{"v":1,"type":"regret_window","window":2,"regret":0.4,"budget":0.75,"over_budget":false,"radius":0.18}"#,
        r#"{"v":1,"type":"reactor_sample","conns":120,"sessions":96,"queued_jobs":5,"busy_workers":2}"#,
        r#"{"v":1,"type":"idle_close","conn":44,"idle_ms":31000,"had_session":true}"#,
        r#"{"v":1,"type":"session_close","session":11,"steps":5,"best_tps":5200.0,"drained":false,"published":true}"#,
        r#"{"v":1,"type":"run_end","mode":"train","total_steps":320,"best_tps":5087.0,"crashes":20,"wall_seconds":13.8}"#,
    ];

    /// How the schema is declared may change, the lines may not.
    #[test]
    fn sample_lines_are_byte_identical() {
        let lines: Vec<String> = all_sample_events().iter().map(TraceEvent::to_json_line).collect();
        assert_eq!(lines, SAMPLE_LINES);
    }

    /// `line` after one to three seeded byte mutations: a bit flip, an
    /// inserted byte (JSON punctuation half the time), a deleted byte, a
    /// truncation or a duplicated span.
    fn mutate(line: &str, rng: &mut StdRng) -> String {
        let mut b = line.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=3u32) {
            let at = rng.gen_range(0..=b.len());
            match rng.gen_range(0..5u32) {
                0 if at < b.len() => b[at] ^= 1 << rng.gen_range(0..8u32),
                1 => {
                    let punct = br#"{}[]",:-.0e\"#;
                    let byte =
                        if rng.gen() { punct[rng.gen_range(0..punct.len())] } else { rng.gen() };
                    b.insert(at, byte);
                }
                2 if at < b.len() => {
                    b.remove(at);
                }
                3 => b.truncate(at),
                _ => {
                    let end = rng.gen_range(at..=b.len());
                    let span = b[at..end].to_vec();
                    b.splice(at..at, span);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    }

    /// Seeded decode fuzz over the sample lines: no mutation may panic the
    /// trace decoder or the JSON parser under it. A failure prints the case
    /// number, the generator's seed.
    #[test]
    fn mutated_sample_lines_never_panic_the_decoder() {
        for case in 0..2048u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let line = mutate(SAMPLE_LINES[rng.gen_range(0..SAMPLE_LINES.len())], &mut rng);
            let run = || {
                let _ = TraceEvent::from_json_line(&line);
                let _ = Json::parse(&line);
            };
            if std::panic::catch_unwind(run).is_err() {
                panic!("decode fuzz failed on case {case} (the generator's seed): {line:?}");
            }
        }
    }

    /// Seeded encode fuzz: random events of every variant, members drawn
    /// through the field tables, read back as written. A failure prints the
    /// case number, the generator's seed.
    #[test]
    fn random_events_round_trip() {
        let mut tags = std::collections::BTreeSet::new();
        for case in 0..2048u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let event = TraceEvent::arbitrary(rng.gen_range(0..TraceEvent::VARIANTS), &mut rng);
            tags.insert(event.type_tag());
            let line = event.to_json_line();
            assert_eq!(
                TraceEvent::from_json_line(&line).as_ref(),
                Ok(&event),
                "encode fuzz failed on case {case} (the generator's seed): {line}"
            );
        }
        assert_eq!(tags.len(), TraceEvent::VARIANTS, "drawn: {tags:?}");
    }

    #[test]
    fn worker_seeds_from_2_pow_53_round_trip() {
        for worker in 0..4 {
            let ev = TraceEvent::CollectWorker {
                worker: worker as u64,
                derived_seed: crate::parallel::worker_seed(42, worker),
                steps: 50,
                crashes: 1,
            };
            let line = ev.to_json_line();
            assert_eq!(TraceEvent::from_json_line(&line).unwrap(), ev, "{line}");
        }
        let line =
            TraceEvent::CollectWorker { worker: 0, derived_seed: 1 << 53, steps: 0, crashes: 0 }
                .to_json_line();
        assert!(line.contains(r#""derived_seed":"9007199254740992""#), "{line}");
    }

    #[test]
    fn newer_schema_version_is_rejected() {
        let line = "{\"v\":999,\"type\":\"run_end\",\"mode\":\"train\"}";
        assert!(TraceEvent::from_json_line(line).unwrap_err().contains("newer"));
    }

    #[test]
    fn unknown_fields_are_ignored_missing_fields_default() {
        let line = "{\"v\":1,\"type\":\"run_end\",\"mode\":\"tune\",\"future_field\":[1,2]}";
        let ev = TraceEvent::from_json_line(line).unwrap();
        assert_eq!(
            ev,
            TraceEvent::RunEnd {
                mode: "tune".into(),
                total_steps: 0,
                best_tps: 0.0,
                crashes: 0,
                wall_seconds: 0.0,
            }
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let ev = TraceEvent::RunStart {
            mode: "we\"ird\\mo\nde\tπ".into(),
            seed: 1,
            knobs: 2,
            state_dim: 3,
        };
        let line = ev.to_json_line();
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), ev);
    }

    #[test]
    fn non_finite_floats_encode_as_null_and_decode_to_zero() {
        let ev = TraceEvent::EpisodeEnd {
            episode: 1,
            steps: 5,
            mean_reward: f64::NAN,
            best_tps: f64::INFINITY,
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"mean_reward\":null"));
        let back = TraceEvent::from_json_line(&line).unwrap();
        if let TraceEvent::EpisodeEnd { mean_reward, best_tps, .. } = back {
            assert_eq!(mean_reward, 0.0);
            assert_eq!(best_tps, 0.0);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let ok = sample_step().to_json_line();
        let doc = format!("{ok}\n\n{ok}\nnot json\n");
        let err = TraceEvent::parse_jsonl(&doc).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        let events = TraceEvent::parse_jsonl(&format!("{ok}\n{ok}\n")).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Summary);
        assert!(TraceLevel::Summary < TraceLevel::Step);
        assert!(TraceLevel::Step < TraceLevel::Debug);
        for s in ["off", "summary", "step", "debug"] {
            assert_eq!(TraceLevel::parse(s).unwrap().to_string(), s);
        }
        assert!(TraceLevel::parse("verbose").is_err());
    }

    #[test]
    fn service_events_carry_the_expected_levels() {
        let open = TraceEvent::SessionOpen {
            session: 1,
            workload: "w".into(),
            knobs: 2,
            warm_start: false,
            registry_distance: 0.0,
        };
        let close = TraceEvent::SessionClose {
            session: 1,
            steps: 0,
            best_tps: 0.0,
            drained: true,
            published: false,
        };
        let adm = TraceEvent::Admission { accepted: true, reason: "ok".into(), queue_depth: 0 };
        let q = TraceEvent::ServiceQueue { depth: 0, busy_workers: 0 };
        assert_eq!(open.level(), TraceLevel::Summary);
        assert_eq!(close.level(), TraceLevel::Summary);
        assert_eq!(adm.level(), TraceLevel::Step);
        assert_eq!(q.level(), TraceLevel::Step);
        // A summary-level handle keeps the session bracket but drops the
        // per-decision queue noise.
        let t = Telemetry::ring(16, TraceLevel::Summary);
        for ev in [&open, &close, &adm, &q] {
            t.emit(ev);
        }
        let tags: Vec<_> = t.drain_ring().iter().map(|e| e.type_tag()).collect();
        assert_eq!(tags, vec!["session_open", "session_close"]);
    }

    #[test]
    fn event_levels_filter_correctly() {
        let t = Telemetry::ring(16, TraceLevel::Step);
        t.emit(&sample_step()); // Step ≤ Step: recorded
        t.emit(&TraceEvent::Recovery {
            action: "retry".into(),
            during: "deploy".into(),
            attempt: 1,
            backoff_ms: 250,
        }); // Debug > Step: dropped
        let events = t.drain_ring();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].type_tag(), "step");
    }

    #[test]
    fn null_handle_is_off_and_emits_nothing() {
        let t = Telemetry::null();
        assert!(!t.enabled(TraceLevel::Summary));
        t.emit(&sample_step()); // must not panic or allocate a sink
        assert!(t.drain_ring().is_empty());
    }

    #[test]
    fn null_emit_overhead_smoke() {
        // Guarded smoke check: a million no-op emits must be effectively
        // free (a branch each). The bound is generous (50 ns/emit) so the
        // test never flakes on slow CI, while still catching an accidental
        // lock/allocation on the disabled path (~100 ns+ each).
        let t = Telemetry::null();
        let ev = sample_step();
        let start = std::time::Instant::now();
        for _ in 0..1_000_000 {
            t.emit(&ev);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_millis() < 50,
            "1M null emits took {elapsed:?} (> 50ns each)"
        );
    }

    #[test]
    fn ring_sink_bounds_memory() {
        let t = Telemetry::ring(4, TraceLevel::Summary);
        for i in 0..10 {
            t.emit(&TraceEvent::EpisodeEnd {
                episode: i,
                steps: 1,
                mean_reward: 0.0,
                best_tps: 0.0,
            });
        }
        let events = t.drain_ring();
        assert_eq!(events.len(), 4);
        if let TraceEvent::EpisodeEnd { episode, .. } = events[0] {
            assert_eq!(episode, 6, "oldest surviving event");
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir()
            .join(format!("cdbtune-trace-test-{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        {
            let t = Telemetry::to_file(&path_s, TraceLevel::Debug).unwrap();
            for ev in all_sample_events() {
                t.emit(&ev);
            }
            t.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events = TraceEvent::parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), all_sample_events().len());
        assert_eq!(events, all_sample_events());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reward_trace_finiteness_check() {
        let mut r = RewardTrace::default();
        assert!(r.is_finite());
        r.latency_term = f64::NAN;
        assert!(!r.is_finite());
        assert_eq!(RewardTrace::crash(-100.0).reward, -100.0);
    }

    #[test]
    fn phase_timing_totals() {
        let t = PhaseTiming {
            recommendation_wall_us: 1,
            deployment_wall_us: 2,
            stress_wall_us: 3,
            stress_simulated_sec: 9.0,
            metrics_wall_us: 4,
            model_update_wall_us: 5,
        };
        assert_eq!(t.total_wall_us(), 15);
    }
}
