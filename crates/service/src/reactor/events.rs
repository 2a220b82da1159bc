//! The event-driven `cdbtuned` runtime: one reactor thread owning the
//! listener, the poller, and every connection; a sharded compute pool
//! owning the sessions.
//!
//! Ownership rules (the whole design in four lines):
//!
//! * The **reactor thread** exclusively owns the poller, the listener,
//!   and all `Conn` state. Nothing else touches a socket.
//! * Each **compute worker** exclusively owns the sessions of its shard
//!   (`token % shards`) in a plain `HashMap` — session affinity makes
//!   locks unnecessary.
//! * Work flows reactor→worker over a per-shard mpsc run queue
//!   (`Job`); results flow back over one completion queue (`Done`)
//!   plus a [`Waker`] nudge. Connections never block on compute.
//! * Shard queues are FIFO, so a terminal job (`Settle`/`Drain`)
//!   enqueued behind a running job is processed after it — no races on
//!   a session's lifetime.
//!
//! Admission control: accepted connections beyond `max_conns` (or after
//! the drain starts) get a typed `rejected{queue_full|draining}` on
//! their first frame and a clean close; `create_session` sheds load
//! when its shard's run queue is full; per-tenant quotas cap sessions
//! (`rejected{tenant_quota}`) and defer — not drop — excess in-flight
//! steps on a fairness queue. Idle connections are reaped on a sweep
//! tick (slow-loris defense), settling any live session so the trace
//! stays balanced. SIGTERM drain checkpoints every live session before
//! closing it.

use super::conn::{Conn, ReadOutcome};
use super::poll::{drain_wakes, waker_pair, PollEvent, Poller, Waker, INTEREST_READ, INTEREST_WRITE};
use super::{ServiceConfig, ShutdownStats};
use crate::batcher::PolicyServer;
use crate::proto::{Request, Response};
use crate::registry::ModelRegistry;
use crate::session::TuningSession;
use cdbtune::{EnvSpec, Telemetry, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor poll/sweep cadence.
const TICK: Duration = Duration::from_millis(250);
/// How long a rejected connection may dawdle before its socket is
/// force-closed (it gets this long to send the frame its rejection
/// line answers, for a clean FIN).
const REJECT_GRACE: Duration = Duration::from_millis(500);
/// How long the drain waits for workers to settle every session.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// Poller token of the TCP listener.
const LISTENER: u64 = 0;
/// Poller token of the waker pipe's read end.
const WAKER: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN: u64 = 2;

/// Admission and quota knobs of the reactor (bind address, shards and
/// batcher settings ride along in [`ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Most simultaneous connections before `rejected{queue_full}`.
    pub max_conns: usize,
    /// Reap connections silent for longer than this (0 disables).
    pub idle_timeout_ms: u64,
    /// Most live sessions one tenant token may hold (0 = unlimited).
    pub tenant_max_sessions: u64,
    /// Most in-flight compute jobs one tenant token may have; excess
    /// requests wait on a fairness queue (0 = unlimited).
    pub tenant_max_inflight: u64,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            max_conns: 12_000,
            idle_timeout_ms: 30_000,
            tenant_max_sessions: 256,
            tenant_max_inflight: 64,
        }
    }
}

/// Counters and services shared by the reactor, the workers, and the
/// handle.
struct Svc {
    shutdown: AtomicBool,
    queued_jobs: AtomicU64,
    busy_workers: AtomicU64,
    active_sessions: AtomicU64,
    total_sessions: AtomicU64,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    rejected: AtomicU64,
    drained_sessions: AtomicU64,
    drift_events: AtomicU64,
    recovery_rollbacks: AtomicU64,
    retune_epochs: AtomicU64,
    idle_closed: AtomicU64,
    next_session_id: AtomicU64,
    registry: ModelRegistry,
    max_distance: f64,
    checkpoint_dir: Option<String>,
    serving: Arc<PolicyServer>,
    telemetry: Telemetry,
}

impl Svc {
    fn status_response(&self) -> Response {
        let infer = self.serving.stats();
        Response::ServiceStatus {
            active_sessions: self.active_sessions.load(Ordering::SeqCst),
            total_sessions: self.total_sessions.load(Ordering::SeqCst),
            queue_depth: self.queued_jobs.load(Ordering::SeqCst),
            busy_workers: self.busy_workers.load(Ordering::SeqCst),
            warm_hits: self.warm_hits.load(Ordering::SeqCst),
            warm_misses: self.warm_misses.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            registry_len: self.registry.len() as u64,
            draining: self.shutdown.load(Ordering::SeqCst),
            drift_events: self.drift_events.load(Ordering::SeqCst),
            recovery_rollbacks: self.recovery_rollbacks.load(Ordering::SeqCst),
            retune_epochs: self.retune_epochs.load(Ordering::SeqCst),
            infer_batches: infer.batches,
            infer_rows: infer.rows,
            infer_deadline_flushes: infer.deadline_flushes,
        }
    }

    fn absorb_session_deltas(&self, s: &mut TuningSession) {
        let (drift, rollbacks, epochs) = s.take_status_deltas();
        if drift > 0 {
            self.drift_events.fetch_add(drift, Ordering::SeqCst);
        }
        if rollbacks > 0 {
            self.recovery_rollbacks.fetch_add(rollbacks, Ordering::SeqCst);
        }
        if epochs > 0 {
            self.retune_epochs.fetch_add(epochs, Ordering::SeqCst);
        }
    }
}

/// One unit of session compute, dispatched to the owning shard.
enum Job {
    Create {
        token: u64,
        id: u64,
        spec: EnvSpec,
        max_steps: usize,
        warm_start: bool,
        safe: bool,
    },
    Step {
        token: u64,
    },
    Recommend {
        token: u64,
    },
    Close {
        token: u64,
    },
    /// Client vanished (EOF/error/idle reap): settle the session
    /// silently so the trace bracket stays balanced and work publishes.
    Settle {
        token: u64,
    },
    /// Shutdown drain: checkpoint + close with the `drained` flag, and
    /// tell the client.
    Drain {
        token: u64,
    },
}

impl Job {
    fn token(&self) -> u64 {
        match *self {
            Job::Create { token, .. }
            | Job::Step { token }
            | Job::Recommend { token }
            | Job::Close { token }
            | Job::Settle { token }
            | Job::Drain { token } => token,
        }
    }
}

/// A completed job, posted back to the reactor.
struct Done {
    token: u64,
    /// Response line to queue on the connection (None = silent).
    line: Option<String>,
    /// Close the connection once its write buffer drains.
    close_conn: bool,
    /// The job opened a session for this connection.
    session_opened: bool,
    /// The job closed this connection's session.
    session_closed: bool,
}

/// Per-tenant quota and fairness state (reactor-owned).
#[derive(Default)]
struct Tenant {
    sessions: u64,
    inflight: u64,
    waiting: VecDeque<u64>,
}

/// A running daemon.
pub struct EventsHandle {
    addr: SocketAddr,
    svc: Arc<Svc>,
    waker: Arc<Waker>,
    started: Instant,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl EventsHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.svc.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag without blocking (signal-handler path).
    pub fn request_shutdown(&self) {
        self.svc.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Drains and stops the daemon: listener closed, live sessions
    /// checkpointed and closed (clients told `drained:true`), reactor
    /// and workers joined.
    pub fn shutdown(mut self) -> ShutdownStats {
        self.request_shutdown();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor joins its workers before exiting, so no session
        // can be mid-inference: close the shared tier after, never before.
        self.svc.serving.shutdown();
        let stats = ShutdownStats {
            total_sessions: self.svc.total_sessions.load(Ordering::SeqCst),
            drained_sessions: self.svc.drained_sessions.load(Ordering::SeqCst),
            rejected: self.svc.rejected.load(Ordering::SeqCst),
        };
        self.svc.telemetry.emit(&TraceEvent::RunEnd {
            mode: "serve".into(),
            total_steps: stats.total_sessions,
            best_tps: 0.0,
            crashes: 0,
            wall_seconds: self.started.elapsed().as_secs_f64(),
        });
        self.svc.telemetry.flush();
        stats
    }
}

/// Boots the event-driven daemon: binds, spawns the compute shards and
/// the reactor thread, and returns immediately with the handle.
pub fn spawn(cfg: ServiceConfig, reactor_cfg: ReactorConfig) -> std::io::Result<EventsHandle> {
    let registry = match &cfg.registry_dir {
        Some(dir) => ModelRegistry::open(dir)?,
        None => ModelRegistry::in_memory(),
    };
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    cfg.telemetry.emit(&TraceEvent::RunStart {
        mode: "serve".into(),
        seed: 0,
        knobs: 0,
        state_dim: simdb::TOTAL_METRIC_COUNT as u64,
    });
    let svc = Arc::new(Svc {
        shutdown: AtomicBool::new(false),
        queued_jobs: AtomicU64::new(0),
        busy_workers: AtomicU64::new(0),
        active_sessions: AtomicU64::new(0),
        total_sessions: AtomicU64::new(0),
        warm_hits: AtomicU64::new(0),
        warm_misses: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        drained_sessions: AtomicU64::new(0),
        drift_events: AtomicU64::new(0),
        recovery_rollbacks: AtomicU64::new(0),
        retune_epochs: AtomicU64::new(0),
        idle_closed: AtomicU64::new(0),
        next_session_id: AtomicU64::new(1),
        registry,
        max_distance: cfg.max_distance,
        checkpoint_dir: cfg.checkpoint_dir.clone(),
        serving: PolicyServer::new(),
        telemetry: cfg.telemetry.clone(),
    });
    let (waker, waker_rx) = waker_pair()?;
    let waker = Arc::new(waker);
    let shards = cfg.workers.max(1);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
    let mut job_txs = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for i in 0..shards {
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        job_txs.push(tx);
        let svc = Arc::clone(&svc);
        let done_tx = done_tx.clone();
        let waker = Arc::clone(&waker);
        workers.push(
            std::thread::Builder::new()
                .name(format!("cdbtuned-shard-{i}"))
                .spawn(move || worker_loop(&svc, &rx, &done_tx, &waker))?,
        );
    }
    drop(done_tx);
    let reactor = {
        let svc = Arc::clone(&svc);
        let queue_capacity = cfg.queue_capacity.max(1);
        std::thread::Builder::new().name("cdbtuned-reactor".into()).spawn(move || {
            let mut r = Reactor {
                svc,
                cfg: reactor_cfg,
                queue_capacity,
                poller: Poller::new(),
                listener: Some(listener),
                waker_rx,
                conns: HashMap::new(),
                tenants: HashMap::new(),
                job_txs,
                shard_depth: vec![0u64; shards],
                done_rx,
                next_token: FIRST_CONN,
                drain_started: false,
                drain_deadline: None,
            };
            r.run();
            for w in workers {
                let _ = w.join();
            }
        })?
    };
    Ok(EventsHandle { addr, svc, waker, started: Instant::now(), reactor: Some(reactor) })
}

// ---------------------------------------------------------------------------
// Compute workers
// ---------------------------------------------------------------------------

fn worker_loop(svc: &Svc, rx: &Receiver<Job>, done_tx: &Sender<Done>, waker: &Waker) {
    let mut sessions: HashMap<u64, TuningSession> = HashMap::new();
    // lint:allow(reactor) reason=worker threads block on the job queue by design; the reactor thread never calls this
    while let Ok(job) = rx.recv() {
        svc.queued_jobs.fetch_sub(1, Ordering::SeqCst);
        svc.busy_workers.fetch_add(1, Ordering::SeqCst);
        let done = run_job(svc, &mut sessions, job);
        svc.busy_workers.fetch_sub(1, Ordering::SeqCst);
        if done_tx.send(done).is_err() {
            break;
        }
        waker.wake();
    }
    // Channel gone (reactor exited): settle whatever is left so the
    // open/close trace brackets stay balanced and the work publishes.
    for (_, mut s) in sessions.drain() {
        svc.absorb_session_deltas(&mut s);
        svc.active_sessions.fetch_sub(1, Ordering::SeqCst);
        let _ = s.close(&svc.registry, false);
    }
}

fn run_job(svc: &Svc, sessions: &mut HashMap<u64, TuningSession>, job: Job) -> Done {
    let token = job.token();
    let mut done =
        Done { token, line: None, close_conn: false, session_opened: false, session_closed: false };
    match job {
        Job::Create { token, id, spec, max_steps, warm_start, safe } => {
            // The reactor checked the drain flag at dispatch; re-check
            // here so a race with SIGTERM still answers typed.
            if svc.shutdown.load(Ordering::SeqCst) {
                done.line = Some(
                    Response::Rejected {
                        reason: "draining".into(),
                        queue_depth: svc.queued_jobs.load(Ordering::SeqCst),
                    }
                    .to_json_line(),
                );
                done.close_conn = true;
                return done;
            }
            match TuningSession::create(
                id,
                spec,
                max_steps,
                warm_start,
                safe,
                &svc.registry,
                svc.max_distance,
                &svc.serving,
                &svc.telemetry,
            ) {
                Ok(s) => {
                    svc.total_sessions.fetch_add(1, Ordering::SeqCst);
                    svc.active_sessions.fetch_add(1, Ordering::SeqCst);
                    if s.warm_start() {
                        svc.warm_hits.fetch_add(1, Ordering::SeqCst);
                    } else {
                        svc.warm_misses.fetch_add(1, Ordering::SeqCst);
                    }
                    let initial = s.initial_perf();
                    done.line = Some(
                        Response::SessionCreated {
                            session: id,
                            warm_start: s.warm_start(),
                            registry_distance: s.registry_distance(),
                            baseline_tps: initial.throughput_tps,
                            baseline_p99_us: initial.p99_latency_us,
                        }
                        .to_json_line(),
                    );
                    done.session_opened = true;
                    sessions.insert(token, s);
                }
                Err(e) => {
                    done.line = Some(Response::err(format!("create_session: {e}")).to_json_line());
                }
            }
        }
        Job::Step { token } => {
            done.line = Some(match sessions.get_mut(&token) {
                None => Response::err("no open session").to_json_line(),
                Some(s) => match s.step() {
                    Some(step) => {
                        svc.absorb_session_deltas(s);
                        Response::StepDone {
                            session: s.id(),
                            step: step.step as u64,
                            throughput_tps: step.throughput_tps,
                            p99_latency_us: step.p99_latency_us,
                            reward: step.reward,
                            crashed: step.crashed,
                            degraded: step.degraded,
                            finished: s.is_finished(),
                        }
                        .to_json_line()
                    }
                    None => Response::err("session is finished; recommend or close_session")
                        .to_json_line(),
                },
            });
        }
        Job::Recommend { token } => {
            done.line = Some(match sessions.get(&token) {
                None => Response::err("no open session").to_json_line(),
                Some(s) => Response::Recommendation {
                    session: s.id(),
                    best_tps: s.best_perf().throughput_tps,
                    best_p99_us: s.best_perf().p99_latency_us,
                    throughput_gain: s.throughput_gain(),
                    changed_knobs: s.changed_knobs() as u64,
                    steps: s.steps_taken() as u64,
                    drift_events: s.drift_events(),
                    rollbacks: s.rollbacks(),
                    retune_epochs: s.retune_epochs(),
                    epoch_rollbacks: s.recovery_epoch().rollbacks,
                }
                .to_json_line(),
            });
        }
        Job::Close { token } => match sessions.remove(&token) {
            None => done.line = Some(Response::err("no open session").to_json_line()),
            Some(mut s) => {
                svc.absorb_session_deltas(&mut s);
                let out = s.close(&svc.registry, false);
                svc.active_sessions.fetch_sub(1, Ordering::SeqCst);
                done.session_closed = true;
                done.line = Some(
                    Response::Closed {
                        session: out.id,
                        steps: out.steps as u64,
                        published: out.published,
                        drained: false,
                    }
                    .to_json_line(),
                );
            }
        },
        Job::Settle { token } => {
            if let Some(mut s) = sessions.remove(&token) {
                svc.absorb_session_deltas(&mut s);
                svc.active_sessions.fetch_sub(1, Ordering::SeqCst);
                let _ = s.close(&svc.registry, false);
                done.session_closed = true;
            }
        }
        Job::Drain { token } => {
            done.close_conn = true;
            if let Some(mut s) = sessions.remove(&token) {
                svc.absorb_session_deltas(&mut s);
                if let Some(dir) = &svc.checkpoint_dir {
                    if let Err(e) = s.drain_checkpoint(dir) {
                        eprintln!("cdbtuned: checkpointing session {}: {e}", s.id());
                    }
                }
                let out = s.close(&svc.registry, true);
                svc.active_sessions.fetch_sub(1, Ordering::SeqCst);
                svc.drained_sessions.fetch_add(1, Ordering::SeqCst);
                done.session_closed = true;
                done.line = Some(
                    Response::Closed {
                        session: out.id,
                        steps: out.steps as u64,
                        published: out.published,
                        drained: true,
                    }
                    .to_json_line(),
                );
            }
        }
    }
    done
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

struct Reactor {
    svc: Arc<Svc>,
    cfg: ReactorConfig,
    queue_capacity: usize,
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: std::os::unix::net::UnixStream,
    conns: HashMap<u64, Conn>,
    tenants: HashMap<String, Tenant>,
    job_txs: Vec<Sender<Job>>,
    /// Reactor-side outstanding-job count per shard (backpressure).
    shard_depth: Vec<u64>,
    done_rx: Receiver<Done>,
    next_token: u64,
    drain_started: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    fn shard_of(&self, token: u64) -> usize {
        (token as usize) % self.job_txs.len().max(1)
    }

    fn run(&mut self) {
        if let Some(l) = &self.listener {
            if self.poller.register(l.as_raw_fd(), LISTENER, INTEREST_READ).is_err() {
                return;
            }
        }
        if self.poller.register(self.waker_rx.as_raw_fd(), WAKER, INTEREST_READ).is_err() {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::with_capacity(1024);
        let mut next_sweep = Instant::now() + TICK;
        loop {
            events.clear();
            let _ = self.poller.wait(&mut events, TICK);
            let now = Instant::now();
            if self.svc.shutdown.load(Ordering::SeqCst) && !self.drain_started {
                self.start_drain(now);
            }
            // Take the token list first: handlers mutate the conn map.
            // Drained, not taken, so `events` keeps its capacity.
            #[allow(clippy::drain_collect)]
            let tokens: Vec<PollEvent> = events.drain(..).collect();
            for ev in tokens {
                match ev.token {
                    LISTENER => self.accept_ready(now),
                    WAKER => drain_wakes(&mut self.waker_rx),
                    token => self.conn_ready(token, ev, now),
                }
            }
            while let Ok(done) = self.done_rx.try_recv() {
                self.handle_done(done);
            }
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + TICK;
            }
            if self.drain_started {
                let expired = self.drain_deadline.is_some_and(|d| now >= d);
                if self.conns.is_empty() || expired {
                    break;
                }
            }
        }
        // Stop feeding the shards; workers drain their queues and exit.
        // (`spawn` joins them right after `run` returns.)
        self.job_txs.clear();
        self.conns.clear();
    }

    // -- accept + admission -------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream, now);
                    let reason = if self.svc.shutdown.load(Ordering::SeqCst) {
                        Some("draining")
                    } else if self.conns.len() >= self.cfg.max_conns {
                        Some("queue_full")
                    } else {
                        None
                    };
                    if let Some(reason) = reason {
                        conn.rejected_reason = Some(reason);
                        self.svc.rejected.fetch_add(1, Ordering::SeqCst);
                        self.svc.telemetry.emit(&TraceEvent::Admission {
                            accepted: false,
                            reason: reason.into(),
                            queue_depth: self.svc.queued_jobs.load(Ordering::SeqCst),
                        });
                    } else {
                        self.svc.telemetry.emit(&TraceEvent::Admission {
                            accepted: true,
                            reason: "ok".into(),
                            queue_depth: self.svc.queued_jobs.load(Ordering::SeqCst),
                        });
                    }
                    let fd = conn.stream.as_ref().map(|s| s.as_raw_fd());
                    if let Some(fd) = fd {
                        if self.poller.register(fd, token, INTEREST_READ).is_ok() {
                            self.conns.insert(token, conn);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // -- per-connection readiness ------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: PollEvent, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if ev.readable || ev.error {
            match conn.read_ready(now) {
                ReadOutcome::Progress => {
                    self.pump(token);
                }
                ReadOutcome::Eof | ReadOutcome::Broken => {
                    self.close_conn(token);
                    return;
                }
                ReadOutcome::FrameTooLarge { buffered, limit } => {
                    let line = Response::frame_too_large(buffered, limit).to_json_line();
                    conn.send_line(&line);
                    conn.close_after_flush = true;
                    self.flush(token);
                    return;
                }
            }
        }
        if ev.writable {
            self.flush(token);
        }
    }

    /// Dispatches the connection's next inbox frame, if it may run.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.is_dead()
                || conn.inflight > 0
                || conn.close_after_flush
                || conn.draining
                || conn.deferred
            {
                return;
            }
            // A rejected connection answers its first frame with the
            // typed rejection, then closes cleanly.
            if let Some(reason) = conn.rejected_reason {
                if conn.inbox.pop_front().is_some() {
                    let line = Response::Rejected {
                        reason: reason.into(),
                        queue_depth: self.svc.queued_jobs.load(Ordering::SeqCst),
                    }
                    .to_json_line();
                    conn.send_line(&line);
                    conn.close_after_flush = true;
                    self.flush(token);
                }
                return;
            }
            let Some(frame) = conn.inbox.pop_front() else { return };
            let req = match Request::from_json_line(&frame) {
                Ok(r) => r,
                Err(e) => {
                    let line = Response::err(format!("bad request: {e}")).to_json_line();
                    conn.send_line(&line);
                    self.flush(token);
                    continue;
                }
            };
            match req {
                Request::Status => {
                    let line = self.svc.status_response().to_json_line();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.send_line(&line);
                    }
                    self.flush(token);
                    continue;
                }
                Request::Shutdown => {
                    self.svc.shutdown.store(true, Ordering::SeqCst);
                    let line = self.svc.status_response().to_json_line();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.send_line(&line);
                    }
                    self.flush(token);
                    let now = Instant::now();
                    if !self.drain_started {
                        self.start_drain(now);
                    }
                    return;
                }
                Request::CreateSession { spec, max_steps, warm_start, safe, tenant } => {
                    self.dispatch_create(token, spec, max_steps, warm_start, safe, tenant);
                    return;
                }
                Request::Step => {
                    self.dispatch_session_op(token, frame, Job::Step { token });
                    return;
                }
                Request::Recommend => {
                    self.dispatch_session_op(token, frame, Job::Recommend { token });
                    return;
                }
                Request::CloseSession => {
                    self.dispatch_session_op(token, frame, Job::Close { token });
                    return;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_create(
        &mut self,
        token: u64,
        spec: EnvSpec,
        max_steps: usize,
        warm_start: bool,
        safe: bool,
        tenant: Option<String>,
    ) {
        let queue_depth = self.svc.queued_jobs.load(Ordering::SeqCst);
        let shard = self.shard_of(token);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.session_live || conn.session_pending {
            let line = Response::err("this connection already hosts a session").to_json_line();
            conn.send_line(&line);
            self.flush(token);
            self.pump(token);
            return;
        }
        if self.svc.shutdown.load(Ordering::SeqCst) {
            self.reject_conn(token, "draining", queue_depth);
            return;
        }
        // Load shedding: a full shard run queue answers typed instead of
        // letting compute latency grow unboundedly.
        if self.shard_depth.get(shard).copied().unwrap_or(0) >= self.queue_capacity as u64 {
            self.reject_conn(token, "queue_full", queue_depth);
            return;
        }
        if let Some(t) = &tenant {
            let entry = self.tenants.entry(t.clone()).or_default();
            if self.cfg.tenant_max_sessions > 0 && entry.sessions >= self.cfg.tenant_max_sessions {
                self.reject_conn(token, "tenant_quota", queue_depth);
                return;
            }
            if self.cfg.tenant_max_inflight > 0 && entry.inflight >= self.cfg.tenant_max_inflight {
                // Fairness: defer, don't drop. The frame is re-queued at
                // the inbox front and re-pumped when a slot frees.
                entry.waiting.push_back(token);
                if let Some(conn) = self.conns.get_mut(&token) {
                    let req = Request::CreateSession { spec, max_steps, warm_start, safe, tenant };
                    conn.inbox.push_front(req.to_json_line());
                    conn.deferred = true;
                }
                return;
            }
        }
        let id = self.svc.next_session_id.fetch_add(1, Ordering::SeqCst);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.session_pending = true;
            conn.tenant = tenant.clone();
        }
        self.svc.telemetry.emit(&TraceEvent::Admission {
            accepted: true,
            reason: "ok".into(),
            queue_depth,
        });
        self.enqueue(Job::Create { token, id, spec, max_steps, warm_start, safe });
    }

    /// Dispatches a Step/Recommend/Close, enforcing the tenant in-flight
    /// cap with deferral. `frame` is the original line, re-queued on
    /// deferral.
    fn dispatch_session_op(&mut self, token: u64, frame: String, job: Job) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !conn.session_live {
            let line = Response::err("no open session").to_json_line();
            conn.send_line(&line);
            self.flush(token);
            self.pump(token);
            return;
        }
        if let Some(t) = conn.tenant.clone() {
            if self.cfg.tenant_max_inflight > 0 {
                let entry = self.tenants.entry(t).or_default();
                if entry.inflight >= self.cfg.tenant_max_inflight {
                    entry.waiting.push_back(token);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.inbox.push_front(frame);
                        conn.deferred = true;
                    }
                    return;
                }
            }
        }
        self.enqueue(job);
    }

    /// Sends a typed rejection and schedules a clean close.
    fn reject_conn(&mut self, token: u64, reason: &str, queue_depth: u64) {
        self.svc.rejected.fetch_add(1, Ordering::SeqCst);
        self.svc.telemetry.emit(&TraceEvent::Admission {
            accepted: false,
            reason: reason.into(),
            queue_depth,
        });
        let line = Response::Rejected { reason: reason.into(), queue_depth }.to_json_line();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.send_line(&line);
            conn.close_after_flush = true;
        }
        self.flush(token);
    }

    /// Puts a job on its shard's run queue and does the bookkeeping: every
    /// job, a terminal `Settle`/`Drain` included, takes one in-flight slot
    /// of its connection and of the connection's tenant, and `handle_done`
    /// gives one of each back. Shard FIFO ordering serializes a terminal
    /// job behind the connection's running work.
    fn enqueue(&mut self, job: Job) {
        let token = job.token();
        let shard = self.shard_of(token);
        let Some(tx) = self.job_txs.get(shard) else { return };
        self.svc.queued_jobs.fetch_add(1, Ordering::SeqCst);
        if tx.send(job).is_err() {
            self.svc.queued_jobs.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if let Some(d) = self.shard_depth.get_mut(shard) {
            *d += 1;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
            if let Some(entry) = conn.tenant.as_ref().and_then(|t| self.tenants.get_mut(t)) {
                entry.inflight += 1;
            }
        }
    }

    // -- completions --------------------------------------------------------

    fn handle_done(&mut self, done: Done) {
        let shard = self.shard_of(done.token);
        if let Some(d) = self.shard_depth.get_mut(shard) {
            *d = d.saturating_sub(1);
        }
        let mut freed_tenant: Option<String> = None;
        let token = done.token;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.session_pending = false;
            if done.session_opened {
                conn.session_live = true;
                if let Some(t) = &conn.tenant {
                    if let Some(entry) = self.tenants.get_mut(t) {
                        entry.sessions += 1;
                    }
                }
            }
            if done.session_closed {
                conn.session_live = false;
                if let Some(t) = &conn.tenant {
                    if let Some(entry) = self.tenants.get_mut(t) {
                        entry.sessions = entry.sessions.saturating_sub(1);
                    }
                }
            }
            if let Some(t) = &conn.tenant {
                if let Some(entry) = self.tenants.get_mut(t) {
                    if entry.inflight > 0 {
                        entry.inflight -= 1;
                        freed_tenant = Some(t.clone());
                    }
                }
            }
            if let Some(line) = &done.line {
                conn.send_line(line);
            }
            if done.close_conn {
                conn.close_after_flush = true;
            }
        }
        self.flush(token);
        // Dead conns with nothing left in flight can finally go away.
        let mut remove = false;
        if let Some(conn) = self.conns.get(&token) {
            if conn.is_dead() && conn.inflight == 0 && !conn.session_live && !conn.session_pending
            {
                remove = true;
            }
        }
        if remove {
            self.remove_conn(token);
        } else {
            self.pump(token);
        }
        // A freed tenant slot re-pumps the fairness queue.
        if let Some(t) = freed_tenant {
            self.pump_waiting(&t);
        }
    }

    fn pump_waiting(&mut self, tenant: &str) {
        let mut runnable = Vec::new();
        if let Some(entry) = self.tenants.get_mut(tenant) {
            let cap = self.cfg.tenant_max_inflight;
            while (cap == 0 || entry.inflight + (runnable.len() as u64) < cap)
                && !entry.waiting.is_empty()
            {
                if let Some(token) = entry.waiting.pop_front() {
                    runnable.push(token);
                }
            }
        }
        for token in runnable {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.deferred = false;
            }
            self.pump(token);
        }
    }

    // -- egress + close -----------------------------------------------------

    /// Flushes pending output, arming/disarming write interest, and
    /// finalizes a deferred close once the buffer empties.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.is_dead() {
            return;
        }
        match conn.write_ready() {
            Ok(true) => {
                if conn.write_armed {
                    conn.write_armed = false;
                    if let Some(s) = &conn.stream {
                        let _ = self.poller.modify(s.as_raw_fd(), token, INTEREST_READ);
                    }
                }
                if conn.close_after_flush {
                    self.close_conn(token);
                }
            }
            Ok(false) => {
                if !conn.write_armed {
                    conn.write_armed = true;
                    if let Some(s) = &conn.stream {
                        let _ = self.poller.modify(
                            s.as_raw_fd(),
                            token,
                            INTEREST_READ | INTEREST_WRITE,
                        );
                    }
                }
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Tears down the socket now. If the connection still owns (or is
    /// about to own) a session, a `Settle` job recovers it; the map
    /// entry survives until all in-flight jobs complete.
    fn close_conn(&mut self, token: u64) {
        let mut needs_settle = false;
        let mut removable = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            if let Some(s) = conn.stream.take() {
                let _ = self.poller.deregister(s.as_raw_fd());
            }
            conn.inbox.clear();
            if conn.session_live || conn.session_pending {
                if !conn.draining {
                    needs_settle = true;
                }
            } else if conn.inflight == 0 {
                removable = true;
            }
        }
        if needs_settle {
            self.enqueue(Job::Settle { token });
        }
        if removable {
            self.remove_conn(token);
        }
    }

    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.deferred {
                if let Some(t) = &conn.tenant {
                    if let Some(entry) = self.tenants.get_mut(t) {
                        entry.waiting.retain(|&w| w != token);
                    }
                }
            }
        }
    }

    // -- sweep tick ---------------------------------------------------------

    fn sweep(&mut self, now: Instant) {
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        let mut idle: Vec<(u64, u64, bool)> = Vec::new();
        let mut expired_rejects: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.is_dead() {
                continue;
            }
            if conn.rejected_reason.is_some() {
                if now.duration_since(conn.last_activity) > REJECT_GRACE {
                    expired_rejects.push(token);
                }
                continue;
            }
            if self.cfg.idle_timeout_ms > 0
                && !conn.draining
                && conn.inflight == 0
                && conn.inbox.is_empty()
                && conn.out.is_empty()
            {
                let idle_for = now.duration_since(conn.last_activity);
                if idle_for > idle_timeout {
                    idle.push((token, idle_for.as_millis() as u64, conn.session_live));
                }
            }
        }
        for token in expired_rejects {
            self.close_conn(token);
        }
        for (token, idle_ms, had_session) in idle {
            self.svc.idle_closed.fetch_add(1, Ordering::SeqCst);
            self.svc.telemetry.emit(&TraceEvent::IdleClose { conn: token, idle_ms, had_session });
            self.close_conn(token);
        }
        let sessions = self.svc.active_sessions.load(Ordering::SeqCst);
        let queued = self.svc.queued_jobs.load(Ordering::SeqCst);
        let busy = self.svc.busy_workers.load(Ordering::SeqCst);
        self.svc.telemetry.emit(&TraceEvent::ReactorSample {
            conns: self.conns.len() as u64,
            sessions,
            queued_jobs: queued,
            busy_workers: busy,
        });
        self.svc.telemetry.emit(&TraceEvent::ServiceQueue { depth: queued, busy_workers: busy });
    }

    // -- drain --------------------------------------------------------------

    fn start_drain(&mut self, now: Instant) {
        self.drain_started = true;
        self.drain_deadline = Some(now + DRAIN_GRACE);
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let mut drain_job = false;
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.deferred = false;
                conn.inbox.clear();
                if conn.session_live || conn.session_pending {
                    conn.draining = true;
                    drain_job = true;
                } else {
                    conn.close_after_flush = true;
                }
            }
            if drain_job {
                self.enqueue(Job::Drain { token });
            } else {
                self.flush(token);
            }
        }
        self.tenants.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use cdbtune::TraceLevel;
    use workload::WorkloadKind;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn tiny_spec(seed: u64) -> EnvSpec {
        EnvSpec {
            workload: WorkloadKind::SysbenchRw,
            scale: 0.003,
            knobs: 6,
            seed,
            warmup_txns: 10,
            measure_txns: 60,
            horizon: 8,
            ..EnvSpec::default()
        }
    }

    fn events_daemon(reactor: ReactorConfig) -> EventsHandle {
        spawn(
            ServiceConfig { workers: 2, queue_capacity: 8, ..ServiceConfig::default() },
            reactor,
        )
        .expect("spawn events runtime")
    }

    fn create(client: &mut Client, seed: u64, tenant: Option<&str>) -> Response {
        client
            .request(&Request::CreateSession {
                spec: tiny_spec(seed),
                max_steps: 4,
                warm_start: false,
                safe: false,
                tenant: tenant.map(str::to_string),
            })
            .expect("create_session")
    }

    #[test]
    fn wire_lines_match_the_in_process_reference_on_a_seeded_script() {
        // Same seeds, cold registry on both sides: every response line of
        // the script must be bit-identical to what a bare TuningSession
        // answers (the session ids line up because both count from 1).
        use crate::reference::{in_process, over_the_wire};
        let daemon = events_daemon(ReactorConfig::default());
        let specs = [11u64, 42].map(tiny_spec);
        let expected = in_process(&specs, 4, 3).expect("reference scripts");
        for (spec, want) in specs.iter().zip(&expected) {
            let got = over_the_wire(daemon.addr(), spec, 4, 3).expect("script over the wire");
            assert_eq!(&got, want, "seed {} diverged from the in-process session", spec.seed);
        }
        daemon.shutdown();
    }

    #[test]
    fn tenant_session_quota_rejects_typed_and_other_tenants_still_fit() {
        let handle = events_daemon(ReactorConfig {
            tenant_max_sessions: 1,
            ..ReactorConfig::default()
        });
        let mut first = Client::connect(handle.addr()).expect("connect");
        first.set_timeout(Some(Duration::from_secs(30))).ok();
        assert!(matches!(
            create(&mut first, 1, Some("acme")),
            Response::SessionCreated { .. }
        ));
        let mut second = Client::connect(handle.addr()).expect("connect");
        second.set_timeout(Some(Duration::from_secs(30))).ok();
        match create(&mut second, 2, Some("acme")) {
            Response::Rejected { reason, .. } => assert_eq!(reason, "tenant_quota"),
            other => panic!("expected tenant_quota rejection, got {other:?}"),
        }
        let mut other_tenant = Client::connect(handle.addr()).expect("connect");
        other_tenant.set_timeout(Some(Duration::from_secs(30))).ok();
        assert!(matches!(
            create(&mut other_tenant, 3, Some("globex")),
            Response::SessionCreated { .. }
        ));
        // Closing acme's session frees the quota slot.
        assert!(matches!(
            first.request(&Request::CloseSession).expect("close"),
            Response::Closed { .. }
        ));
        let mut third = Client::connect(handle.addr()).expect("connect");
        third.set_timeout(Some(Duration::from_secs(30))).ok();
        assert!(matches!(
            create(&mut third, 4, Some("acme")),
            Response::SessionCreated { .. }
        ));
        handle.shutdown();
    }

    #[test]
    fn a_settled_session_gives_back_only_the_tenant_slot_it_took() {
        // Two connections of one tenant, driven without worker threads: a
        // step is in flight on `b` when `a`'s client vanishes with its
        // session open. The settle's completion must not free the slot
        // `b`'s step still holds.
        let (a, b) = (FIRST_CONN, FIRST_CONN + 1);
        let (job_tx, _job_rx) = std::sync::mpsc::channel::<Job>();
        let (_done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut streams = Vec::new();
        let mut conns = HashMap::new();
        for token in [a, b] {
            let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
            streams.push(listener.accept().expect("accept").0);
            let mut conn = Conn::new(stream, Instant::now());
            conn.session_live = true;
            conn.tenant = Some("acme".into());
            conns.insert(token, conn);
        }
        let mut tenants = HashMap::new();
        tenants.insert("acme".to_string(), Tenant { sessions: 2, ..Tenant::default() });
        let svc = Svc {
            shutdown: AtomicBool::new(false),
            queued_jobs: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            total_sessions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            drained_sessions: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            recovery_rollbacks: AtomicU64::new(0),
            retune_epochs: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            next_session_id: AtomicU64::new(1),
            registry: ModelRegistry::in_memory(),
            max_distance: 0.25,
            checkpoint_dir: None,
            serving: PolicyServer::new(),
            telemetry: Telemetry::null(),
        };
        let mut r = Reactor {
            svc: Arc::new(svc),
            cfg: ReactorConfig::default(),
            queue_capacity: 8,
            poller: Poller::new(),
            listener: None,
            waker_rx: waker_pair().expect("waker").1,
            conns,
            tenants,
            job_txs: vec![job_tx],
            shard_depth: vec![0],
            done_rx,
            next_token: FIRST_CONN + 2,
            drain_started: false,
            drain_deadline: None,
        };
        let inflight = |r: &Reactor| r.tenants["acme"].inflight;
        let done = |token, session_closed| Done {
            token,
            line: None,
            close_conn: false,
            session_opened: false,
            session_closed,
        };

        r.dispatch_session_op(b, String::new(), Job::Step { token: b });
        assert_eq!(inflight(&r), 1);
        r.close_conn(a);
        assert_eq!(inflight(&r), 2, "the settle job takes a tenant slot");
        r.handle_done(done(a, true));
        assert_eq!(inflight(&r), 1, "b's step is still in flight");
        r.handle_done(done(b, false));
        assert_eq!(inflight(&r), 0);
    }

    #[test]
    fn tenant_inflight_cap_defers_fairly_instead_of_dropping() {
        // Cap one tenant at a single in-flight job while four connections
        // hammer it concurrently: everything still completes, nothing is
        // rejected or deadlocked, it is merely serialized.
        let handle = events_daemon(ReactorConfig {
            tenant_max_inflight: 1,
            ..ReactorConfig::default()
        });
        let addr = handle.addr();
        let mut joins = Vec::new();
        for seed in 0..4u64 {
            joins.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60))).ok();
                assert!(matches!(
                    create(&mut c, seed, Some("acme")),
                    Response::SessionCreated { .. }
                ));
                for _ in 0..2 {
                    assert!(matches!(
                        c.request(&Request::Step).expect("step"),
                        Response::StepDone { .. }
                    ));
                }
                assert!(matches!(
                    c.request(&Request::CloseSession).expect("close"),
                    Response::Closed { .. }
                ));
            }));
        }
        for j in joins {
            j.join().expect("tenant thread");
        }
        handle.shutdown();
    }

    #[test]
    fn conns_beyond_max_conns_get_queue_full_and_a_clean_close() {
        let handle = events_daemon(ReactorConfig { max_conns: 1, ..ReactorConfig::default() });
        let occupant = Client::connect(handle.addr()).expect("connect");
        let _ = &occupant; // holds the only slot
        // Give the reactor a beat to register the first connection.
        std::thread::sleep(Duration::from_millis(100));
        let mut turned_away = Client::connect(handle.addr()).expect("connect");
        turned_away.set_timeout(Some(Duration::from_secs(10))).ok();
        match turned_away.request(&Request::Status) {
            Ok(Response::Rejected { reason, .. }) => assert_eq!(reason, "queue_full"),
            other => panic!("expected queue_full rejection, got {other:?}"),
        }
        // The daemon closes after the typed rejection.
        assert!(turned_away.request(&Request::Status).is_err());
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_gets_a_typed_error_then_close() {
        let handle = events_daemon(ReactorConfig::default());
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        let blob = vec![b'a'; super::super::frame::MAX_FRAME + 4096];
        raw.write_all(&blob).expect("write oversized");
        raw.flush().ok();
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read rejection line");
        match Response::from_json_line(line.trim()) {
            Ok(Response::Error { code, message }) => {
                assert_eq!(code, "frame_too_large");
                assert!(message.contains("frame cap"), "unexpected message: {message}");
            }
            other => panic!("expected frame_too_large error, got {other:?}"),
        }
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "daemon must close");
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_and_their_sessions_settle() {
        let handle = events_daemon(ReactorConfig {
            idle_timeout_ms: 300,
            ..ReactorConfig::default()
        });
        let mut sleeper = Client::connect(handle.addr()).expect("connect");
        sleeper.set_timeout(Some(Duration::from_secs(30))).ok();
        assert!(matches!(create(&mut sleeper, 7, None), Response::SessionCreated { .. }));
        // Stay silent past the idle timeout; sweeps run every ~250ms.
        std::thread::sleep(Duration::from_millis(1500));
        let mut probe = Client::connect(handle.addr()).expect("connect");
        probe.set_timeout(Some(Duration::from_secs(10))).ok();
        match probe.request(&Request::Status) {
            Ok(Response::ServiceStatus { active_sessions, total_sessions, .. }) => {
                assert_eq!(total_sessions, 1);
                assert_eq!(active_sessions, 0, "idle session must be settled");
            }
            other => panic!("expected status, got {other:?}"),
        }
        assert!(sleeper.request(&Request::Step).is_err(), "reaped conn must be closed");
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_live_sessions_with_the_drained_flag() {
        let telemetry = Telemetry::ring(2048, TraceLevel::Summary);
        let handle = spawn(
            ServiceConfig { telemetry: telemetry.clone(), ..ServiceConfig::default() },
            ReactorConfig::default(),
        )
        .expect("spawn events runtime");
        let raw = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = raw.try_clone().expect("clone");
        let mut reader = BufReader::new(raw);
        let req = Request::CreateSession {
            spec: tiny_spec(3),
            max_steps: 4,
            warm_start: false,
            safe: false,
            tenant: None,
        };
        writeln!(writer, "{}", req.to_json_line()).expect("send create");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read created");
        assert!(matches!(
            Response::from_json_line(line.trim()),
            Ok(Response::SessionCreated { .. })
        ));
        handle.request_shutdown();
        // The drain pushes the close unsolicited.
        line.clear();
        reader.read_line(&mut line).expect("read drained close");
        match Response::from_json_line(line.trim()) {
            Ok(Response::Closed { drained, .. }) => assert!(drained, "drain must flag the close"),
            other => panic!("expected drained close, got {other:?}"),
        }
        let stats = handle.shutdown();
        assert_eq!(stats.total_sessions, 1);
        assert_eq!(stats.drained_sessions, 1);
        // The trace brackets stay balanced through the drain.
        let events: Vec<TraceEvent> = telemetry.drain_ring();
        let opens = events.iter().filter(|e| matches!(e, TraceEvent::SessionOpen { .. })).count();
        let closes =
            events.iter().filter(|e| matches!(e, TraceEvent::SessionClose { .. })).count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
    }

    #[test]
    fn status_and_shutdown_are_answered_inline_by_the_reactor() {
        let handle = events_daemon(ReactorConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).ok();
        match client.request(&Request::Status) {
            Ok(Response::ServiceStatus { draining, active_sessions, .. }) => {
                assert!(!draining);
                assert_eq!(active_sessions, 0);
            }
            other => panic!("expected status, got {other:?}"),
        }
        match client.request(&Request::Shutdown) {
            Ok(Response::ServiceStatus { draining, .. }) => assert!(draining),
            other => panic!("expected draining status, got {other:?}"),
        }
        handle.shutdown();
    }
}
