//! Load generator for the `cdbtuned` daemon.
//!
//! Drives N client sessions against a running daemon, all at once or
//! arriving at a fixed rate, and reports service-level health: sessions
//! completed/rejected/failed, warm-start hits, per-request latency
//! percentiles and session wall-time percentiles. Used by the `svc_load`
//! binary, the tier-1 daemon smoke test, the service e2e test and the
//! service leg of the perf gate.

use cdbtune::EnvSpec;
use service::{Client, Request, Response};
use std::time::{Duration, Instant};

/// Percentiles over a set of latency samples (milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile (tail of a 10k-session run).
    pub p999_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes percentiles (nearest-rank) over the samples.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pick = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        Self {
            count: sorted.len(),
            p50_ms: pick(0.50),
            p95_ms: pick(0.95),
            p99_ms: pick(0.99),
            p999_ms: pick(0.999),
            max_ms: *sorted.last().unwrap(),
        }
    }
}

/// What one load run should do.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Daemon address.
    pub addr: String,
    /// Sessions to open.
    pub sessions: usize,
    /// Session arrivals per second, on a fixed schedule regardless of how
    /// fast the daemon drains them — the honest way to measure tail
    /// latency, since a closed loop slows its own arrivals down when the
    /// daemon struggles. 0 starts every session at once (a closed loop).
    pub rate: f64,
    /// Tuning steps per session.
    pub steps: usize,
    /// Environment each session asks the daemon to tune. Session `i` runs
    /// with `spec.seed + i` so concurrent instances differ.
    pub spec: EnvSpec,
    /// Sleep this long mid-session (between stepping and closing) — lets a
    /// drain test catch the session live.
    pub hold_ms: u64,
    /// Ask the daemon to warm-start from its registry.
    pub warm_start: bool,
    /// Ask the daemon for the safe-tuning layer (trust region + drift
    /// detection + rollback) on every session.
    pub safe: bool,
    /// Tenant token stamped on every `create_session` (None = anonymous).
    pub tenant: Option<String>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            addr: String::new(),
            sessions: 3,
            rate: 0.0,
            steps: 3,
            spec: EnvSpec::default(),
            hold_ms: 0,
            warm_start: true,
            safe: false,
            tenant: None,
        }
    }
}

/// How one client session ended.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Load-generator slot (0-based).
    pub slot: usize,
    /// Daemon-assigned session id (0 when never created).
    pub session: u64,
    /// The daemon warm-started this session from its registry.
    pub warm_start: bool,
    /// Steps acknowledged by the daemon.
    pub steps: u64,
    /// Best throughput the daemon reported (txn/s).
    pub best_tps: f64,
    /// Throughput gain over the session's baseline.
    pub throughput_gain: f64,
    /// The daemon's close was a shutdown drain.
    pub drained: bool,
    /// The admission queue rejected the connection (with the reason).
    pub rejected: Option<String>,
    /// Protocol or transport failure, if any.
    pub error: Option<String>,
    /// Wall time of the whole session (ms).
    pub wall_ms: f64,
    /// Per-request round-trip latencies (ms).
    pub request_ms: Vec<f64>,
}

/// Sessions [`LoadReport::render`] lists one per line: every session of a
/// small run, else only those that did not complete, up to this many.
const LISTED: usize = 16;

/// Aggregated outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-session outcomes, slot order.
    pub results: Vec<SessionResult>,
    /// Per-request round-trip latency percentiles across all sessions.
    pub request_latency: LatencyStats,
    /// Session wall-time percentiles (completed sessions only).
    pub session_wall: LatencyStats,
    /// The arrival rate the run asked for (sessions/s; 0 = all at once).
    pub offered_rate: f64,
    /// The arrival rate the generator actually achieved (sessions/s).
    pub achieved_rate: f64,
    /// Whole-run wall time, seconds.
    pub wall_s: f64,
}

impl LoadReport {
    /// Sessions that ran to completion (created, stepped, closed).
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.rejected.is_none() && r.error.is_none()).count()
    }

    /// Sessions the admission queue turned away.
    pub fn rejected(&self) -> usize {
        self.results.iter().filter(|r| r.rejected.is_some()).count()
    }

    /// Sessions that failed with a transport/protocol error.
    pub fn errors(&self) -> usize {
        self.results.iter().filter(|r| r.error.is_some()).count()
    }

    /// Sessions the daemon warm-started.
    pub fn warm_hits(&self) -> usize {
        self.results.iter().filter(|r| r.warm_start).count()
    }

    /// Fraction of sessions rejected or errored, in [0, 1].
    pub fn rejection_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        (self.rejected() + self.errors()) as f64 / self.results.len() as f64
    }

    /// Renders the service-level summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let pace = if self.offered_rate > 0.0 {
            format!(" at {:.0}/s (achieved {:.0}/s)", self.offered_rate, self.achieved_rate)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "=== svc load: {} sessions{pace} over {:.1}s ===",
            self.results.len(),
            self.wall_s
        );
        let _ = writeln!(
            out,
            "  {} completed, {} rejected, {} errors (rejection rate {:.2}%), {} warm starts",
            self.completed(),
            self.rejected(),
            self.errors(),
            self.rejection_rate() * 100.0,
            self.warm_hits()
        );
        let small = self.results.len() <= LISTED;
        let listed =
            self.results.iter().filter(|r| small || r.rejected.is_some() || r.error.is_some());
        for r in listed.take(LISTED) {
            let status = if let Some(reason) = &r.rejected {
                format!("REJECTED ({reason})")
            } else if let Some(err) = &r.error {
                format!("ERROR: {err}")
            } else {
                format!(
                    "{} steps  best {:.0} txn/s  {:+.1}%{}{}",
                    r.steps,
                    r.best_tps,
                    r.throughput_gain * 100.0,
                    if r.warm_start { "  warm" } else { "  cold" },
                    if r.drained { "  drained" } else { "" }
                )
            };
            let _ = writeln!(
                out,
                "  slot {:>2}  session {:>3}  {:>8.0} ms  {}",
                r.slot, r.session, r.wall_ms, status
            );
        }
        let rl = &self.request_latency;
        let _ = writeln!(
            out,
            "request latency ({} reqs): p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms  p999 {:.1} \
             ms  max {:.1} ms",
            rl.count, rl.p50_ms, rl.p95_ms, rl.p99_ms, rl.p999_ms, rl.max_ms
        );
        let sw = &self.session_wall;
        let _ = writeln!(
            out,
            "session wall ({} sessions): p50 {:.0} ms  p95 {:.0} ms  p99 {:.0} ms  max {:.0} ms",
            sw.count, sw.p50_ms, sw.p95_ms, sw.p99_ms, sw.max_ms
        );
        out
    }
}

fn run_session(spec: &LoadSpec, slot: usize) -> SessionResult {
    let started = Instant::now();
    let mut result = SessionResult {
        slot,
        session: 0,
        warm_start: false,
        steps: 0,
        best_tps: 0.0,
        throughput_gain: 0.0,
        drained: false,
        rejected: None,
        error: None,
        wall_ms: 0.0,
        request_ms: Vec::new(),
    };
    let finish = |mut r: SessionResult, started: Instant| {
        r.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        r
    };
    let mut client = match Client::connect(&spec.addr) {
        Ok(c) => c,
        Err(e) => {
            result.error = Some(format!("connect: {e}"));
            return finish(result, started);
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(120)));
    let mut env_spec = spec.spec.clone();
    env_spec.seed = env_spec.seed.wrapping_add(slot as u64);
    let create = Request::CreateSession {
        spec: env_spec,
        max_steps: spec.steps,
        warm_start: spec.warm_start,
        safe: spec.safe,
        tenant: spec.tenant.clone(),
    };
    // One session = create, N steps, a hold (optionally), recommend, close.
    // A Rejected or drained Closed response at any point ends the session
    // early without counting as a transport error.
    let mut requests: Vec<Request> = vec![create];
    requests.extend((0..spec.steps).map(|_| Request::Step));
    requests.push(Request::Recommend);
    requests.push(Request::CloseSession);
    let hold_after = 1 + spec.steps; // hold once stepping is done
    for (n, req) in requests.into_iter().enumerate() {
        if n == hold_after && spec.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(spec.hold_ms));
        }
        let sent = Instant::now();
        let resp = match client.request(&req) {
            Ok(r) => r,
            Err(e) => {
                if result.drained {
                    break; // daemon drained us and hung up: not an error
                }
                result.error = Some(e);
                return finish(result, started);
            }
        };
        result.request_ms.push(sent.elapsed().as_secs_f64() * 1000.0);
        match resp {
            Response::Rejected { reason, .. } => {
                result.rejected = Some(reason);
                return finish(result, started);
            }
            Response::SessionCreated { session, warm_start, .. } => {
                result.session = session;
                result.warm_start = warm_start;
            }
            Response::StepDone { step, throughput_tps, .. } => {
                result.steps = step;
                result.best_tps = result.best_tps.max(throughput_tps);
            }
            Response::Recommendation { best_tps, throughput_gain, steps, .. } => {
                result.best_tps = best_tps;
                result.throughput_gain = throughput_gain;
                result.steps = steps;
            }
            Response::Closed { steps, drained, .. } => {
                result.steps = steps;
                result.drained = drained;
                if drained {
                    break;
                }
            }
            Response::Error { message, .. } => {
                result.error = Some(format!("daemon error: {message}"));
                return finish(result, started);
            }
            Response::ServiceStatus { .. } => {}
        }
    }
    finish(result, started)
}

/// Runs the load: session `i` launches at `t0 + i/rate` no matter how the
/// earlier ones are doing (all at once when `rate` is 0). Each session
/// runs on its own small-stack thread (10k sessions ≈ 10k blocked
/// clients — cheap); a thread that cannot spawn or panics is that slot's
/// error.
pub fn run_load(spec: &LoadSpec) -> LoadReport {
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(spec.sessions);
    for slot in 0..spec.sessions {
        if spec.rate > 0.0 {
            let target = Duration::from_secs_f64(slot as f64 / spec.rate);
            let elapsed = t0.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        let spec = spec.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("svc-load-{slot}"))
            .stack_size(256 * 1024)
            .spawn(move || run_session(&spec, slot));
        handles.push((slot, spawned));
    }
    let spawn_wall = t0.elapsed().as_secs_f64();
    let results: Vec<SessionResult> = handles
        .into_iter()
        .map(|(slot, h)| match h {
            Ok(h) => h.join().unwrap_or_else(|_| failed_slot(slot, "session thread panicked")),
            Err(e) => failed_slot(slot, &format!("spawn: {e}")),
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let request_ms: Vec<f64> =
        results.iter().flat_map(|r| r.request_ms.iter().copied()).collect();
    let walls: Vec<f64> = results
        .iter()
        .filter(|r| r.rejected.is_none() && r.error.is_none())
        .map(|r| r.wall_ms)
        .collect();
    LoadReport {
        request_latency: LatencyStats::of(&request_ms),
        session_wall: LatencyStats::of(&walls),
        offered_rate: spec.rate,
        achieved_rate: if spawn_wall > 0.0 { results.len() as f64 / spawn_wall } else { 0.0 },
        wall_s,
        results,
    }
}

fn failed_slot(slot: usize, error: &str) -> SessionResult {
    SessionResult {
        slot,
        session: 0,
        warm_start: false,
        steps: 0,
        best_tps: 0.0,
        throughput_gain: 0.0,
        drained: false,
        rejected: None,
        error: Some(error.to_string()),
        wall_ms: 0.0,
        request_ms: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::of(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.p999_ms, 100.0);
        assert_eq!(s.max_ms, 100.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(LatencyStats::of(&thousand).p999_ms, 999.0);
        let one = LatencyStats::of(&[7.5]);
        assert_eq!((one.p50_ms, one.p99_ms, one.max_ms), (7.5, 7.5, 7.5));
        assert_eq!(LatencyStats::of(&[]).count, 0);
    }

    #[test]
    fn report_counters_split_by_outcome() {
        let base = SessionResult {
            slot: 0,
            session: 1,
            warm_start: false,
            steps: 3,
            best_tps: 5000.0,
            throughput_gain: 0.1,
            drained: false,
            rejected: None,
            error: None,
            wall_ms: 120.0,
            request_ms: vec![1.0, 2.0],
        };
        let rejected = SessionResult {
            slot: 1,
            rejected: Some("queue_full".into()),
            ..base.clone()
        };
        let failed =
            SessionResult { slot: 2, error: Some("boom".into()), ..base.clone() };
        let warm = SessionResult { slot: 3, warm_start: true, ..base.clone() };
        let report = LoadReport {
            request_latency: LatencyStats::of(&[1.0, 2.0]),
            session_wall: LatencyStats::of(&[120.0]),
            offered_rate: 100.0,
            achieved_rate: 97.0,
            wall_s: 1.5,
            results: vec![base.clone(), rejected, failed.clone(), warm],
        };
        assert_eq!(report.completed(), 2);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warm_hits(), 1);
        let rendered = report.render();
        assert!(rendered.contains("svc load: 4 sessions at 100/s (achieved 97/s)"), "{rendered}");
        assert!(rendered.contains("REJECTED (queue_full)"));
        assert!(rendered.contains("ERROR: boom"));
        assert!(rendered.contains("warm"));
        // A large run lists only the sessions that did not complete.
        let mut results = vec![base; 40];
        results[7] = failed;
        let large = LoadReport { results, ..report }.render();
        assert_eq!(large.matches("  slot ").count(), 1, "{large}");
        assert!(large.contains("ERROR: boom"));
    }

    #[test]
    fn open_report_rejection_rate_counts_rejects_and_errors() {
        let ok = failed_slot(0, "x"); // template; fix up below
        let mut ok = SessionResult { error: None, ..ok };
        ok.request_ms = vec![1.0, 9.0];
        ok.wall_ms = 50.0;
        let rejected =
            SessionResult { slot: 1, rejected: Some("queue_full".into()), ..ok.clone() };
        let errored = failed_slot(2, "connect refused");
        let results = vec![ok, rejected, errored];
        let request_ms: Vec<f64> =
            results.iter().flat_map(|r| r.request_ms.iter().copied()).collect();
        let report = LoadReport {
            request_latency: LatencyStats::of(&request_ms),
            session_wall: LatencyStats::of(&[50.0]),
            offered_rate: 100.0,
            achieved_rate: 97.0,
            wall_s: 1.5,
            results,
        };
        assert_eq!(report.completed(), 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.errors(), 1);
        assert!((report.rejection_rate() - 2.0 / 3.0).abs() < 1e-12);
        let rendered = report.render();
        assert!(rendered.contains("svc load: 3 sessions at 100/s"), "{rendered}");
        assert!(rendered.contains("rejection rate 66.67%"), "{rendered}");
        assert!(rendered.contains("p999"));
        assert_eq!(LoadReport { results: Vec::new(), ..report }.rejection_rate(), 0.0);
    }
}
