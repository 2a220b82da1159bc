//! The perf gate behind the `perf` binary: the checks that neither
//! `benchmark/` (end-to-end metrics, paired against the parent commit) nor
//! `crates/rl/tests/golden.rs` (bit identity of the DDPG update) can see.
//!
//! 1. **matmul** — the blocked microkernels ([`tinynn::kernels`]) against
//!    the retained naive loops, at the actor input shape (`64x63 · 63x64`)
//!    and the critic first-layer shape (`64x127 · 127x256`).
//! 2. **train_step** — steady-state DDPG updates at the paper's shapes
//!    (63-metric state, 64 knobs, batch 64): the fast leg runs
//!    [`rl::Ddpg::train_step_batch`] over a reused [`rl::TransitionBatch`]
//!    with blocked kernels; the naive leg runs the slice-of-clones
//!    `train_step` path with [`KernelMode::Naive`], reproducing the
//!    pre-overhaul cost model.
//! 3. **simdb storage** — `Table::bulk_load` of a 16-table
//!    Sysbench-shaped instance against the retained row-by-row
//!    `Table::insert` loop, and seeded `Table::lookup`s on the two
//!    instances those loads build.
//! 4. **service** — an open-loop run of 10 000 sessions (300 with `quick`)
//!    against a `cdbtuned` subprocess: request p99 and the admitted share.
//!
//! Every measurement is seeded, warmed up, and the median of several
//! repetitions. Each becomes a [`Check`] against a floor constant below.
//! The first three are ratios of two legs timed on the same host and the
//! last is a bound with seconds of slack, so no check compares against a
//! number recorded elsewhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, DdpgConfig, ReplayBuffer, Transition, TransitionBatch};
use service::{Client, Request};
use simdb::storage::Table;
use std::fmt;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tinynn::{set_kernel_mode, KernelMode, Matrix};
use workload::WorkloadKind;

/// Floor of `matmul_64x63x64_speedup`: blocked kernels must never be
/// materially slower than the loops they replaced at the actor's shape.
pub const MATMUL_ACTOR_SPEEDUP_MIN: f64 = 0.91;

/// Floor of `matmul_64x127x256_speedup`, the critic's first layer.
pub const MATMUL_CRITIC_SPEEDUP_MIN: f64 = 1.40;

/// Floor of `train_step_speedup`, the headline gate: steady-state
/// train-step throughput with blocked kernels + packed batches over the
/// retained naive path.
pub const TRAIN_SPEEDUP_MIN: f64 = 3.0;

/// Floor of `simdb_bulk_load_speedup`: `Table::bulk_load` over loading the
/// same rows one `Table::insert` at a time.
pub const BULK_LOAD_SPEEDUP_MIN: f64 = 5.43;

/// Floor of `simdb_point_lookup_speedup`: `Table::lookup` on the bulk-loaded
/// instance over the same lookups on the instance loaded row by row.
pub const POINT_LOOKUP_SPEEDUP_MIN: f64 = 4.5;

/// Ceiling of `svc_request_p99_ms`. A healthy run measures single- to
/// double-digit milliseconds; shared hosts show multi-second
/// scheduler-steal episodes, and the gate exists to catch a stalled
/// reactor, not a noisy neighbour. It stays well under the client's 120 s
/// request timeout, so a genuine stall fails here rather than as errors.
pub const SVC_P99_MAX_MS: f64 = 18_750.0;

/// Floor of `svc_admitted_share`: sessions neither rejected nor errored.
pub const SVC_ADMIT_MIN: f64 = 0.98;

/// Base seed of every measurement's data and RNG.
const SEED: u64 = 42;

/// The instance of the storage leg: `benchmark/`'s `tune_online` request
/// shape (Sysbench scale 0.03 — 16 tables of 6 000 rows, ~2.7 KiB rows).
const LOAD_TABLES: usize = 16;
const LOAD_ROWS: u64 = 6_000;
const LOAD_ROW_WIDTH: u64 = 2_700;

/// How long the daemon may take to print its address, and to exit once
/// asked to shut down, before the service leg kills it and fails.
const DAEMON_DEADLINE: Duration = Duration::from_secs(30);

/// Which side of its limit a [`Check`] must land on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(min) => write!(f, ">= {min:.3}"),
            Bound::AtMost(max) => write!(f, "<= {max:.3}"),
        }
    }
}

/// One gated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Stable name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// The limit it must meet.
    pub bound: Bound,
}

impl Check {
    /// True when the value meets its bound (never for NaN).
    pub fn passes(&self) -> bool {
        match self.bound {
            Bound::AtLeast(min) => self.value >= min,
            Bound::AtMost(max) => self.value <= max,
        }
    }
}

// ---- measurement helpers ----

fn median(mut vals: Vec<f64>) -> f64 {
    vals.sort_by(f64::total_cmp);
    vals[vals.len() / 2]
}

/// Runs `f` `reps` times and returns the median of its returned values.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median((0..reps.max(1)).map(|_| f()).collect())
}

/// Times `iters` calls of `op` and returns ops/sec.
fn ops_per_sec(iters: usize, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    iters as f64 / secs
}

fn fill_random(m: &mut Matrix, rng: &mut StdRng) {
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0);
    }
}

// ---- matmul kernels ----

/// Median ops/sec of an `m x k · k x n` product under `mode`.
fn matmul_throughput(mode: KernelMode, m: usize, k: usize, n: usize, quick: bool) -> f64 {
    let (reps, iters) = if quick { (3, 60) } else { (5, 600) };
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6d61_746d);
    let mut a = Matrix::zeros(m, k);
    let mut b = Matrix::zeros(k, n);
    fill_random(&mut a, &mut rng);
    fill_random(&mut b, &mut rng);
    let mut out = Matrix::zeros(m, n);
    set_kernel_mode(mode);
    a.matmul_into(&b, &mut out); // warmup
    let measured = median_of(reps, || ops_per_sec(iters, || a.matmul_into(&b, &mut out)));
    set_kernel_mode(KernelMode::Blocked);
    measured
}

fn matmul_speedup(m: usize, k: usize, n: usize, quick: bool) -> f64 {
    let blocked = matmul_throughput(KernelMode::Blocked, m, k, n, quick);
    blocked / matmul_throughput(KernelMode::Naive, m, k, n, quick).max(1e-9)
}

// ---- DDPG train-step legs ----

fn synthetic_replay(cfg: &DdpgConfig, seed: u64, n: usize) -> ReplayBuffer {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = ReplayBuffer::new(n);
    for i in 0..n {
        let state: Vec<f32> = (0..cfg.state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let action: Vec<f32> = (0..cfg.action_dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        let next_state: Vec<f32> =
            (0..cfg.state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        buf.push(Transition {
            state,
            action,
            reward: rng.gen_range(-1.0..1.0),
            next_state,
            done: i % 19 == 18,
        });
    }
    buf
}

fn paper_agent() -> (Ddpg, ReplayBuffer) {
    // The paper's shapes: 63 metrics, 64 tunable knobs, minibatch 64.
    let cfg = DdpgConfig { batch_size: 64, seed: SEED, ..DdpgConfig::paper(63, 64) };
    let replay = synthetic_replay(&cfg, SEED ^ 0x7265_706c, 1024);
    (Ddpg::new(cfg), replay)
}

/// One warmed-up leg of the zero-allocation path: blocked kernels,
/// `sample_into` a reused [`TransitionBatch`], `train_step_batch`. Each
/// call of the returned closure times `steps` steps and returns steps/sec.
fn train_fast_leg(steps: usize) -> impl FnMut() -> f64 {
    let (mut agent, replay) = paper_agent();
    let batch_size = agent.config().batch_size;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6661_7374);
    let mut batch = TransitionBatch::new();
    let mut rep = move |n: usize| {
        ops_per_sec(n, || {
            replay.sample_into(batch_size, &mut rng, &mut batch);
            let _ = agent.train_step_batch(&batch, None, None);
        })
    };
    rep(steps / 4); // warmup
    move || rep(steps)
}

/// One warmed-up leg of the retained pre-overhaul cost model: naive
/// kernels plus the allocating slice path (per-step transition clones, as
/// the trainer used to do before packed batches). Each call of the returned
/// closure times `steps` steps and returns steps/sec; the kernel mode is
/// [`KernelMode::Naive`] only inside a call.
fn train_naive_leg(steps: usize) -> impl FnMut() -> f64 {
    let (mut agent, replay) = paper_agent();
    let batch_size = agent.config().batch_size;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6e61_6976);
    let mut rep = move |n: usize| {
        set_kernel_mode(KernelMode::Naive);
        let measured = ops_per_sec(n, || {
            let cloned: Vec<Transition> =
                replay.sample(batch_size, &mut rng).into_iter().cloned().collect();
            let refs: Vec<&Transition> = cloned.iter().collect();
            let _ = agent.train_step(&refs, None, None);
        });
        set_kernel_mode(KernelMode::Blocked);
        measured
    };
    rep(steps / 4); // warmup
    move || rep(steps)
}

/// Paired measurement behind the `train_step_speedup` gate, built to
/// survive a noisy timeshared host:
///
/// * both legs run the **same number of steps per timed repetition**;
/// * repetitions of the two legs **alternate in time**, so slow
///   host-level drift (frequency scaling, a noisy neighbor arriving
///   mid-suite) hits both legs equally and cancels in the per-rep ratio
///   instead of landing entirely on whichever leg ran later;
/// * the gate ratio is the **median of per-rep ratios**, not the ratio
///   of medians, so one outlier rep cannot tilt it.
fn train_step_speedup(quick: bool) -> f64 {
    let (reps, steps) = if quick { (9, 8) } else { (9, 24) };
    let mut naive_leg = train_naive_leg(steps);
    let mut fast_leg = train_fast_leg(steps);
    median_of(reps, || {
        let naive = naive_leg();
        fast_leg() / naive.max(1e-9)
    })
}

// ---- simdb storage ----

/// Table `id` of the storage leg's instance, filled by `fill`.
fn sysbench_table(id: usize, fill: fn(&mut Table)) -> Table {
    let mut t = Table::new(id, "sbtest", LOAD_ROW_WIDTH);
    fill(&mut t);
    t
}

fn load_in_bulk(t: &mut Table) {
    t.bulk_load(LOAD_ROWS);
}

fn load_row_by_row(t: &mut Table) {
    for key in 0..LOAD_ROWS {
        t.insert(key);
    }
}

/// Rows/sec of loading the storage leg's instance in bulk over loading it
/// row by row.
fn bulk_load_speedup(quick: bool) -> f64 {
    let (reps, iters) = if quick { (3, 2) } else { (5, 8) };
    let load = |fill: fn(&mut Table)| {
        median_of(reps, || {
            ops_per_sec(iters, || {
                for id in 0..LOAD_TABLES {
                    std::hint::black_box(sysbench_table(id, fill));
                }
            })
        })
    };
    load(load_in_bulk) / load(load_row_by_row).max(1e-9)
}

/// Point lookups/sec on the storage leg's instance loaded in bulk over the
/// same seeded lookups on it loaded row by row. A bulk-loaded index routes
/// a key to its leaf by one division; one built by inserts owns no bulk
/// leaf and descends. Repetitions alternate leg by leg and the gate reads
/// the median of the per-repetition ratios, as for `train_step_speedup`.
fn point_lookup_speedup(quick: bool) -> f64 {
    let (reps, iters) = if quick { (5, 40) } else { (9, 200) };
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x6c6f_6f6b);
    let probes: Vec<(usize, u64)> = (0..4_096)
        .map(|_| (rng.gen_range(0..LOAD_TABLES), rng.gen_range(0..LOAD_ROWS)))
        .collect();
    let instance = |fill| (0..LOAD_TABLES).map(|id| sysbench_table(id, fill)).collect::<Vec<_>>();
    let (bulk, row_by_row) = (instance(load_in_bulk), instance(load_row_by_row));
    let lookups = |tables: &[Table]| {
        ops_per_sec(iters, || {
            for &(table, key) in &probes {
                std::hint::black_box(tables[table].lookup(key));
            }
        })
    };
    lookups(&bulk); // warmup
    median_of(reps, || {
        let descent = lookups(&row_by_row);
        lookups(&bulk) / descent.max(1e-9)
    })
}

/// The in-process checks: the two matmul speedups, `train_step_speedup`,
/// `simdb_bulk_load_speedup` and `simdb_point_lookup_speedup`. Leaves the
/// process-wide kernel mode at [`KernelMode::Blocked`] (the default) on
/// return.
pub fn ratio_checks(quick: bool) -> Vec<Check> {
    vec![
        Check {
            name: "matmul_64x63x64_speedup",
            value: matmul_speedup(64, 63, 64, quick),
            bound: Bound::AtLeast(MATMUL_ACTOR_SPEEDUP_MIN),
        },
        Check {
            name: "matmul_64x127x256_speedup",
            value: matmul_speedup(64, 127, 256, quick),
            bound: Bound::AtLeast(MATMUL_CRITIC_SPEEDUP_MIN),
        },
        Check {
            name: "train_step_speedup",
            value: train_step_speedup(quick),
            bound: Bound::AtLeast(TRAIN_SPEEDUP_MIN),
        },
        Check {
            name: "simdb_bulk_load_speedup",
            value: bulk_load_speedup(quick),
            bound: Bound::AtLeast(BULK_LOAD_SPEEDUP_MIN),
        },
        Check {
            name: "simdb_point_lookup_speedup",
            value: point_lookup_speedup(quick),
            bound: Bound::AtLeast(POINT_LOOKUP_SPEEDUP_MIN),
        },
    ]
}

// ---- the event-driven service tier ----

/// The tiny per-session environment the service leg tunes: small enough
/// that 10k sessions fit one box, real enough that every step exercises
/// deploy + stress + collect + inference + fine-tuning.
fn svc_env_spec(seed: u64) -> cdbtune::EnvSpec {
    cdbtune::EnvSpec {
        workload: WorkloadKind::SysbenchRw,
        scale: 0.003,
        knobs: 4,
        seed,
        warmup_txns: 2,
        measure_txns: 8,
        horizon: 2,
        ..cdbtune::EnvSpec::default()
    }
}

/// Reads the daemon's stdout until it prints its address, within
/// `deadline`. The reader thread is left to drain stdout, so a later line
/// never meets a closed pipe; it holds nothing that can panic and ends at
/// the daemon's exit, which every path out of the service leg brings about.
fn listen_addr(child: &mut Child, deadline: Duration) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("cdbtuned's stdout is not piped")?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(addr) = line.strip_prefix("cdbtuned listening on ") {
                let _ = tx.send(addr.trim().to_string());
            }
        }
    });
    rx.recv_timeout(deadline).map_err(|_| {
        format!(
            "cdbtuned did not print `cdbtuned listening on` within {deadline:?} \
             (run `cargo build --release` first)"
        )
    })
}

/// Asks the daemon at `addr` to shut down and waits until `deadline` for
/// it to exit cleanly. A refused request, a failed exit or a daemon still
/// running at the deadline (killed then) is an error.
fn stop_daemon(child: &mut Child, addr: &str, deadline: Duration) -> Result<(), String> {
    let asked_at = Instant::now();
    let asked = Client::connect(addr).map_err(|e| e.to_string()).and_then(|mut c| {
        let _ = c.set_timeout(Some(deadline));
        c.request(&Request::Shutdown)
    });
    loop {
        match child.try_wait() {
            Ok(Some(status)) if !status.success() => {
                return Err(format!("cdbtuned exited with {status} after the shutdown request"))
            }
            Ok(Some(_)) => return asked.map(drop).map_err(|e| format!("shutdown request: {e}")),
            Ok(None) if asked_at.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            _ => break,
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err(format!(
        "cdbtuned was still running {deadline:?} after the shutdown request ({}); killed it",
        match asked {
            Ok(_) => "acknowledged".to_string(),
            Err(e) => format!("failed: {e}"),
        }
    ))
}

/// Boots a `cdbtuned` subprocess (a sibling of the running binary), drives
/// the open-loop load against it, shuts it down and returns the
/// `svc_request_p99_ms` and `svc_admitted_share` checks. An error means
/// the leg could not run: no daemon binary, no address, or a daemon that
/// would not stop. The daemon runs as a subprocess so the load
/// generator's file descriptors don't compete with the daemon's 10k
/// sockets in one table.
pub fn service_checks(quick: bool) -> Result<Vec<Check>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("cdbtuned");
    if !bin.is_file() {
        return Err(format!(
            "no cdbtuned at {} (run `cargo build --release` first)",
            bin.display()
        ));
    }
    // Arrivals are paced at ~0.65x the measured warm-session service rate
    // of the 1-core reference box (ρ < 1 keeps the queue from diverging;
    // this is an open-loop latency proof, not a saturation test), and
    // every session holds its connection past the end of the arrival
    // window — so by the time the last session arrives, all of them are
    // live at once: that many sockets in one epoll set, session states
    // across the shard maps, one shared model snapshot behind them.
    let (sessions, rate, hold_ms) =
        if quick { (300, 30.0, 12_000u64) } else { (10_000, 30.0, 350_000) };
    // The idle reaper must outwait the deliberate mid-session hold, or it
    // would cull the very concurrency the leg exists to demonstrate.
    let idle_timeout_ms = (hold_ms + 60_000).to_string();
    let mut child = Command::new(&bin)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "4096"])
        .args(["--max-conns", "12000", "--idle-timeout-ms", &idle_timeout_ms])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let addr = match listen_addr(&mut child, DAEMON_DEADLINE) {
        Ok(addr) => addr,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };
    // Seed the registry with one cold session so the fleet warm-starts
    // and shares the resident snapshot.
    let _ = crate::svc::run_load(&crate::svc::LoadSpec {
        addr: addr.clone(),
        sessions: 1,
        steps: 2,
        spec: svc_env_spec(SEED),
        warm_start: false,
        ..crate::svc::LoadSpec::default()
    });
    let report = crate::svc::run_load(&crate::svc::LoadSpec {
        addr: addr.clone(),
        sessions,
        rate,
        steps: 1,
        spec: svc_env_spec(SEED ^ 0x7376_6300),
        hold_ms,
        ..crate::svc::LoadSpec::default()
    });
    print!("{}", report.render());
    stop_daemon(&mut child, &addr, DAEMON_DEADLINE)?;
    Ok(vec![
        Check {
            name: "svc_request_p99_ms",
            value: report.request_latency.p99_ms,
            bound: Bound::AtMost(SVC_P99_MAX_MS),
        },
        Check {
            name: "svc_admitted_share",
            value: 1.0 - report.rejection_rate(),
            bound: Bound::AtLeast(SVC_ADMIT_MIN),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_past_its_bound_fails_the_check() {
        let check = |value, bound| Check { name: "x", value, bound };
        let floor = Bound::AtLeast(TRAIN_SPEEDUP_MIN);
        assert!(check(4.0, floor).passes());
        assert!(check(TRAIN_SPEEDUP_MIN, floor).passes());
        assert!(!check(2.0, floor).passes(), "below the 3.0 floor");
        let ceiling = Bound::AtMost(SVC_P99_MAX_MS);
        assert!(check(2.8, ceiling).passes());
        assert!(!check(20_000.0, ceiling).passes());
        assert!(!check(f64::NAN, floor).passes() && !check(f64::NAN, ceiling).passes());
        assert_eq!(floor.to_string(), ">= 3.000");
    }

    #[test]
    fn a_wedged_daemon_fails_the_leg_within_its_deadlines() {
        // `sleep` never prints an address and ignores the shutdown request
        // (nothing listens where it is sent); both waits must give up on
        // time and the stop must kill it.
        let mut child = Command::new("sleep")
            .arg("60")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sleep");
        let deadline = Duration::from_millis(300);
        let started = Instant::now();
        let err = listen_addr(&mut child, deadline).expect_err("no address is printed");
        assert!(err.contains("cargo build --release"), "{err}");
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free loopback port")
            .to_string();
        let err = stop_daemon(&mut child, &closed, deadline).expect_err("it never exits");
        assert!(err.contains("killed"), "{err}");
        assert!(child.try_wait().expect("wait").is_some(), "the child must be dead");
        assert!(started.elapsed() < Duration::from_secs(10), "{:?}", started.elapsed());
    }

    #[test]
    fn quick_matmul_bench_runs_and_is_positive() {
        let v = matmul_throughput(KernelMode::Blocked, 8, 8, 8, true);
        assert!(v > 0.0);
    }
}
