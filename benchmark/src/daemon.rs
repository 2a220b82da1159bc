//! `daemon_sessions`: closed loop, `min(nproc, 4)` connections from this one
//! process to a `cdbtuned --runtime events` subprocess with an in-memory
//! registry.
//!
//! Set-up boots a daemon and runs one cold session, which seeds the
//! registry; a run does so four times and shares its measured time among the
//! four daemons. Each connection then loops `create_session(warm_start)` →
//! `step`×5 → `recommend` → `close_session` on a deliberately tiny instance,
//! so compute is minimal and proto, framing, queueing, batch wait and the
//! registry dominate. A step is one `step` round trip; a request is one
//! session from `create_session` to `recommend`.
//!
//! Stated limit: with no more connections than cores the microbatcher never
//! sees a batch above the connection count; a batching gain needs a bigger
//! box and a later benchmark.

use crate::common::{peak_rss_kb, RunArgs, RunResult, Series, POOL_THREADS};
use crate::stats::{client_count, median, quantile};
use crate::trace::{durations_us, write_jsonl, Span, Tracer};
use cdbtune::EnvSpec;
use service::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const STEPS_PER_SESSION: usize = 5;
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// 4 knobs, scale 0.003, 2+8-transaction windows.
pub fn tiny_spec(seed: u64) -> EnvSpec {
    EnvSpec {
        knobs: 4,
        scale: 0.003,
        warmup_txns: 2,
        measure_txns: 8,
        horizon: 8,
        seed,
        ..EnvSpec::default()
    }
}

/// A running `cdbtuned`; dropping it stops the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(out_dir: &std::path::Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("cdbtuned");
        let log = std::fs::File::create(out_dir.join("cdbtuned.log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(&bin)
            .args(["--runtime", "events", "--addr", "127.0.0.1:0", "--queue", "256"])
            .args(["--threads", &POOL_THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Self { child, addr: String::new() };
        match (read, line.trim().strip_prefix("cdbtuned listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("cdbtuned never reported its address (said '{}')", line.trim())),
        }
    }

    /// Asks for a drain over the protocol and waits for the exit; kills the
    /// process if it does not go.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.call(&Request::Shutdown, &mut Tracer::new(false, Instant::now(), 0));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cdbtuned exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("cdbtuned did not drain within 10 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One connection, with a span around the three parts of every call: encode,
/// write-to-reply, decode.
struct Conn {
    stream: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(Self { stream: BufReader::new(stream), line: String::new() })
    }

    fn call(&mut self, req: &Request, tr: &mut Tracer) -> Result<Response, String> {
        let s = tr.enter("service.client.encode");
        let mut out = req.to_json_line();
        out.push('\n');
        tr.exit(s);
        let s = tr.enter("service.client.roundtrip");
        self.line.clear();
        let io = self
            .stream
            .get_mut()
            .write_all(out.as_bytes())
            .and_then(|()| self.stream.read_line(&mut self.line));
        tr.exit(s);
        match io {
            Ok(0) => return Err("connection closed by the daemon".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("no reply: {e}")),
        }
        let s = tr.enter("service.client.decode");
        let resp = Response::from_json_line(self.line.trim_end());
        tr.exit(s);
        resp
    }
}

#[derive(Default)]
struct ClientStats {
    attempted: u64,
    failed: u64,
    rejected: u64,
    errors: u64,
    sessions: u64,
    warm: u64,
    create_ms: Vec<f64>,
    step: Series,
    session: Series,
}

impl ClientStats {
    /// Adds `other`, whose clock started `offset_s` after this one's.
    fn merge(&mut self, other: ClientStats, offset_s: f64) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.sessions += other.sessions;
        self.warm += other.warm;
        self.create_ms.extend(other.create_ms);
        self.step.append(other.step, offset_s);
        self.session.append(other.session, offset_s);
    }

    /// Counts a reply that is not the one the request calls for.
    fn unexpected(&mut self, what: &str, reply: Result<Response, String>) {
        self.failed += 1;
        match reply {
            Ok(Response::Rejected { .. }) => self.rejected += 1,
            _ => self.errors += 1,
        }
        if self.errors + self.rejected <= 3 {
            eprintln!("daemon_sessions: {what}: {reply:?}");
        }
    }
}

/// One session on `conn`. Returns false when the connection is unusable.
fn one_session(
    conn: &mut Conn,
    spec: EnvSpec,
    warm_start: bool,
    began: Instant,
    tr: &mut Tracer,
    st: &mut ClientStats,
) -> bool {
    let root = tr.enter("service.client.session");
    let t0 = Instant::now();
    st.attempted += 1;
    let create = Request::CreateSession {
        spec,
        max_steps: STEPS_PER_SESSION,
        warm_start,
        safe: false,
        tenant: None,
    };
    let mut alive = true;
    match conn.call(&create, tr) {
        Ok(Response::SessionCreated { warm_start: warm, .. }) => {
            st.create_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            st.warm += u64::from(warm);
            for _ in 0..STEPS_PER_SESSION {
                st.attempted += 1;
                let t = Instant::now();
                match conn.call(&Request::Step, tr) {
                    Ok(Response::StepDone { degraded: false, .. }) => {
                        let now = Instant::now();
                        st.step.push(began, now, now.duration_since(t).as_secs_f64() * 1e3);
                    }
                    other => st.unexpected("step", other),
                }
            }
            st.attempted += 2;
            match conn.call(&Request::Recommend, tr) {
                Ok(Response::Recommendation { steps, .. }) if steps == STEPS_PER_SESSION as u64 => {
                    let now = Instant::now();
                    st.session.push(began, now, now.duration_since(t0).as_secs_f64() * 1e3);
                    st.sessions += 1;
                }
                other => st.unexpected("recommend", other),
            }
            match conn.call(&Request::CloseSession, tr) {
                Ok(Response::Closed { .. }) => {}
                other => {
                    alive = other.is_ok();
                    st.unexpected("close_session", other);
                }
            }
        }
        other => {
            alive = matches!(other, Ok(Response::Error { .. }));
            st.unexpected("create_session", other);
        }
    }
    tr.exit(root);
    alive
}

/// `clients` connections loop sessions for `seconds`; returns their stats
/// and spans.
fn load(
    addr: &str,
    clients: usize,
    seed: u64,
    phase: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Result<(ClientStats, Vec<Span>, f64), String> {
    let started = Instant::now();
    let per_client: Vec<Result<(ClientStats, Vec<Span>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch, ((c as u32) + 1) << 24);
                    let mut st = ClientStats::default();
                    let mut conn = Conn::open(addr)?;
                    let mut i = 0u64;
                    while i < 2 || started.elapsed().as_secs_f64() < seconds {
                        let session_seed = seed
                            .wrapping_mul(1_000_000)
                            .wrapping_add(phase * 100_000 + c as u64 * 10_000 + i);
                        tr.set_request(((c as u64 + 1) << 32) | (i + 1));
                        if !one_session(&mut conn, tiny_spec(session_seed), true, started, &mut tr, &mut st) {
                            conn = Conn::open(addr)?;
                        }
                        i += 1;
                    }
                    Ok((st, tr.into_spans()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = ClientStats::default();
    let mut spans = Vec::new();
    for r in per_client {
        let (st, sp) = r?;
        all.merge(st, 0.0);
        spans.extend(sp);
    }
    Ok((all, spans, wall))
}

/// What one daemon's share of the run measured.
struct Phase {
    stats: ClientStats,
    spans: Vec<Span>,
    wall_s: f64,
    status: Response,
    peak_rss_kb: Option<u64>,
}

/// Boots a daemon (timed as one set-up), loads it for `seconds` and stops
/// it. A traced phase alternates plain and traced loads of at most a second,
/// so that the ratio of their step medians, taken pair by pair, cancels a
/// noise spell that covers a pair; the ratios go to `overhead`.
fn phase(
    args: &RunArgs,
    clients: usize,
    index: u64,
    seconds: f64,
    epoch: Instant,
    res: &mut RunResult,
    overhead: &mut Vec<f64>,
) -> Result<Phase, String> {
    let mut off = Tracer::new(false, epoch, 0);
    let t0 = Instant::now();
    let daemon = Daemon::boot(&args.out_dir)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let mut cold = ClientStats::default();
    let seed = args.seed.wrapping_mul(1_000_000) + 900_000 + index;
    one_session(&mut conn, tiny_spec(seed), false, epoch, &mut off, &mut cold);
    res.setup_s.push(t0.elapsed().as_secs_f64());
    if cold.failed > 0 || cold.sessions != 1 {
        return Err("the cold session that seeds the registry failed".to_string());
    }
    drop(conn);

    // Warm-up, thrown away.
    load(&daemon.addr, clients, args.seed, 100 * index, if args.smoke { 0.05 } else { 0.3 }, false, epoch)?;
    let (stats, spans, wall_s) = if args.trace {
        let pair_s = (seconds / 4.0).min(1.0);
        let mut all = (ClientStats::default(), Vec::new(), 0.0);
        let started = Instant::now();
        let mut pair = 1;
        while pair == 1 || started.elapsed().as_secs_f64() < seconds {
            let sub = 100 * index + pair;
            let (plain, _, _) = load(&daemon.addr, clients, args.seed, sub, pair_s, false, epoch)?;
            let (traced, spans, wall) = load(&daemon.addr, clients, args.seed, sub, pair_s, true, epoch)?;
            overhead.push(100.0 * (median(&traced.step.ms) / median(&plain.step.ms) - 1.0));
            res.failed += plain.failed;
            all.0.merge(traced, all.2);
            all.1.extend(spans);
            all.2 += wall;
            pair += 1;
        }
        all
    } else {
        load(&daemon.addr, clients, args.seed, 100 * index + 1, seconds, false, epoch)?
    };
    let status = Conn::open(&daemon.addr)?.call(&Request::Status, &mut off)?;
    let peak_rss_kb = peak_rss_kb(Some(daemon.child.id()));
    daemon.stop()?;
    Ok(Phase { stats, spans, wall_s, status, peak_rss_kb })
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let clients = client_count(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let epoch = Instant::now();

    // The measured time is shared among four daemons, one after the other.
    // Each boot is a set-up sample, and the memory metric is the median of
    // their peaks: one daemon's peak resident set moves by a third with the
    // sessions' seeds (README, "Noise").
    let phases = if args.smoke { 1 } else { 4 };
    let mut st = ClientStats::default();
    let (mut spans, mut wall, mut rss_kb, mut overhead) = (Vec::new(), 0.0, Vec::new(), Vec::new());
    let mut status = None;
    for index in 0..phases {
        let p = phase(args, clients, index, args.seconds / phases as f64, epoch, &mut res, &mut overhead)?;
        st.merge(p.stats, wall);
        spans.extend(p.spans);
        wall += p.wall_s;
        rss_kb.extend(p.peak_rss_kb.map(|kb| kb as f64));
        status = Some(p.status);
    }
    res.child_peak_rss_kb = Some(median(&rss_kb) as u64);

    res.attempted = st.attempted;
    res.failed += st.failed;
    res.check(
        "sessions_complete",
        st.sessions > 0 && st.step.len() as u64 == st.sessions * STEPS_PER_SESSION as u64,
        format!("{} sessions, {} steps", st.sessions, st.step.len()),
    );
    res.check(
        "warm_start",
        st.warm == st.create_ms.len() as u64,
        format!("{} of {} sessions warm-started from the seeded registry", st.warm, st.create_ms.len()),
    );
    if args.trace {
        res.layer("trace.overhead_pct", median(&overhead));
        res.layer("service.client.encode_us", median(&durations_us(&spans, "service.client.encode")));
        res.layer("service.client.roundtrip_us", median(&durations_us(&spans, "service.client.roundtrip")));
        res.layer("service.client.decode_us", median(&durations_us(&spans, "service.client.decode")));
        res.layer("service.create_p50_ms", median(&st.create_ms));
        res.layer("service.session_p50_ms", median(&st.session.ms));
        res.layer("service.sessions_per_s", st.sessions as f64 / wall);
        res.layer("service.step_p99_ms", quantile(&st.step.ms, 0.99));
        res.layer("service.rejected", st.rejected as f64);
        res.layer("service.errors", st.errors as f64);
        res.layer("service.clients", clients as f64);
        res.layer("service.daemon_rss_mb", median(&rss_kb) / 1024.0);
        // The last daemon's counters.
        if let Some(Response::ServiceStatus {
            infer_batches, infer_rows, infer_deadline_flushes, registry_len, ..
        }) = status
        {
            res.layer("service.batcher.rows_per_batch", infer_rows as f64 / infer_batches as f64);
            res.layer(
                "service.batcher.deadline_flush_ratio",
                infer_deadline_flushes as f64 / infer_batches as f64,
            );
            res.layer("service.registry.len", registry_len as f64);
        }
        let file = std::fs::File::create(args.out_dir.join("trace-daemon_sessions.jsonl"))
            .map_err(|e| e.to_string())?;
        write_jsonl(std::io::BufWriter::new(file), &spans).map_err(|e| e.to_string())?;
    }
    res.step = st.step;
    res.request = st.session;
    res.series.push(("create_ms", st.create_ms));
    Ok(res)
}
