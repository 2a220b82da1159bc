//! Per-layer probes of a traced run: a layer's public function called in a
//! loop at a fixed shape, median µs per call. They run after the workload,
//! are the same on every workload unless they take the workload's instance
//! spec, and never overwrite a metric the workload measured itself.

use crate::common::{RunArgs, RunResult, POOL_THREADS};
use crate::stats::median;
use crate::{daemon, train, tune};
use cdbtune::memory_pool::BatchScratch;
use cdbtune::{EnvSpec, MemoryKind, MemoryPool, SharedPolicy, Telemetry, TrainedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, DdpgConfig, SnapshotPolicy, Transition, TransitionBatch};
use service::reactor::frame::FrameDecoder;
use service::{ModelRegistry, PolicyServer, Request, Response, TuningSession, WorkloadFingerprint};
use simdb::metrics::CumulativeMetric as C;
use std::hint::black_box;
use std::time::Instant;
use tinynn::Matrix;

const STATE_DIM: usize = simdb::TOTAL_METRIC_COUNT;
const ACTION_DIM: usize = 64;

/// Median µs per call of `f`: one unmeasured call, then up to `calls`
/// measured ones, stopping after a quarter of a second once three are in.
fn time_us(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut samples = Vec::with_capacity(calls);
    while samples.len() < calls && (samples.len() < 3 || started.elapsed().as_secs_f64() < 0.25) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&samples)
}

fn random_transition(rng: &mut StdRng) -> Transition {
    Transition {
        state: (0..STATE_DIM).map(|_| rng.gen()).collect(),
        action: (0..ACTION_DIM).map(|_| rng.gen()).collect(),
        reward: rng.gen::<f32>() - 0.5,
        next_state: (0..STATE_DIM).map(|_| rng.gen()).collect(),
        done: false,
    }
}

fn random_batch(rng: &mut StdRng, rows: usize) -> TransitionBatch {
    let mut b = TransitionBatch::new();
    b.begin(rows, STATE_DIM, ACTION_DIM);
    for _ in 0..rows {
        b.push(&random_transition(rng));
    }
    b
}

fn set(res: &mut RunResult, name: &'static str, value: f64) {
    if !res.layers.contains_key(name) {
        res.layer(name, value);
    }
}

/// `tinynn` and `rl` at the paper's shapes (63 metrics, 64 knobs).
fn compute(res: &mut RunResult, rng: &mut StdRng, n: usize) {
    // The critic's first layer on a training minibatch: 32×127 · 127×256.
    let a = Matrix::from_vec(32, 127, (0..32 * 127).map(|_| rng.gen()).collect());
    let b = Matrix::from_vec(127, 256, (0..127 * 256).map(|_| rng.gen()).collect());
    let mut out = Matrix::zeros(32, 256);
    set(res, "tinynn.matmul_critic_l1_us", time_us(n * 20, || a.matmul_into(&b, black_box(&mut out))));
    // The workloads run the pool one wide; what a dispatch costs is measured
    // at the width the program would choose.
    set(res, "tinynn.pool_threads", tinynn::pool::threads() as f64);
    let width = tinynn::pool::default_threads();
    tinynn::pool::set_threads(width);
    set(res, "tinynn.pool_dispatch_us", time_us(n * 20, || tinynn::pool::run_chunks(width, &|c| {
        black_box(c);
    })));
    tinynn::pool::set_threads(POOL_THREADS);

    let mut agent = Ddpg::new(DdpgConfig::paper(STATE_DIM, ACTION_DIM));
    let state: Vec<f32> = (0..STATE_DIM).map(|_| rng.gen()).collect();
    for (name, rows) in [("rl.train_step_b32_us", 32), ("rl.train_step_b16_us", 16)] {
        let batch = random_batch(rng, rows);
        let mut td = Vec::new();
        set(res, name, time_us(n, || {
            black_box(agent.train_step_batch(&batch, None, Some(&mut td)));
        }));
    }
    set(res, "rl.act_us", time_us(n * 5, || {
        black_box(agent.act(&state));
    }));
    let snapshot = agent.snapshot();
    set(res, "rl.fork_us", time_us(n / 2 + 1, || {
        black_box(Ddpg::from_snapshot(&snapshot));
    }));
    // No workload here batches 32 rows; recorded as a baseline only.
    let mut policy = SnapshotPolicy::from_snapshot(&snapshot);
    policy.prewarm(32);
    let states = Matrix::from_vec(32, STATE_DIM, (0..32 * STATE_DIM).map(|_| rng.gen()).collect());
    let mut actions = Matrix::zeros(32, ACTION_DIM);
    set(res, "rl.act_batch32_us", time_us(n * 2, || policy.act_batch_into(&states, black_box(&mut actions))));
}

/// The prioritized pool at 4096 stored transitions.
fn memory_pool(res: &mut RunResult, rng: &mut StdRng, n: usize) {
    let mut pool = MemoryPool::new(MemoryKind::Prioritized, 100_000);
    for _ in 0..4096 {
        pool.push(random_transition(rng));
    }
    let fresh: Vec<Transition> = (0..n * 5 + 1).map(|_| random_transition(rng)).collect();
    let mut fresh = fresh.into_iter();
    set(res, "core.memory_pool.push_us", time_us(n * 5, || pool.push(fresh.next().expect("sized above"))));
    let mut scratch = BatchScratch::new();
    set(res, "core.memory_pool.sample_b32_us", time_us(n * 5, || pool.sample_into(32, rng, &mut scratch)));
    let td: Vec<f32> = (0..32).map(|_| rng.gen()).collect();
    set(res, "core.memory_pool.update_priorities_us", time_us(n * 5, || {
        pool.update_priorities(scratch.sampled_indices(), &td);
    }));
}

/// `service` without a socket: codec, framing, registry, batcher, and one
/// session replayed in-process on the daemon workload's instance.
fn service_layers(res: &mut RunResult, seed: u64, n: usize) {
    let create = Request::CreateSession {
        spec: daemon::tiny_spec(seed),
        max_steps: 5,
        warm_start: true,
        safe: false,
        tenant: None,
    };
    let done = Response::StepDone {
        session: 7,
        step: 3,
        throughput_tps: 1234.5678,
        p99_latency_us: 8765.4321,
        reward: 0.125,
        crashed: false,
        degraded: false,
        finished: false,
    };
    let (create_line, done_line) = (create.to_json_line(), done.to_json_line());
    // One request and one reply each way: what a `step` costs the codec is
    // in between a `create_session` and a `step_done`.
    set(res, "service.proto.encode_us", time_us(n * 20, || {
        black_box((create.to_json_line(), done.to_json_line()));
    }));
    set(res, "service.proto.decode_us", time_us(n * 20, || {
        black_box((Request::from_json_line(&create_line), Response::from_json_line(&done_line)))
            .0
            .expect("the line was just encoded");
    }));
    let mut framed = create_line.clone().into_bytes();
    framed.push(b'\n');
    let mut decoder = FrameDecoder::new();
    set(res, "service.frame.decode_us", time_us(n * 20, || {
        decoder.push(&framed);
        black_box(decoder.next_frame()).expect("a whole line was pushed");
    }));

    // The registry at 16 entries of one knob subset, their fingerprints
    // further apart than the fold distance so that every publish adds one.
    let spec = daemon::tiny_spec(seed);
    let mut env = spec.build().expect("the spec is valid");
    let defaults = env.engine().registry().default_config();
    env.reset_episode(defaults);
    let fp = WorkloadFingerprint::measure(&spec, &env);
    let model = TrainedModel::cold(env.space().indices().to_vec(), *env.reward_config(), seed);
    let fp_at = |k: i32| WorkloadFingerprint { baseline_tps: fp.baseline_tps * 1.5f64.powi(k), ..fp.clone() };
    let registry = ModelRegistry::in_memory();
    for k in 0..16 {
        registry.publish(fp_at(k), model.clone(), vec![0.5; spec.knobs], 1.0, 5).expect("in memory");
    }
    set(res, "service.registry.len", registry.len() as f64);
    set(res, "service.registry.lookup_us", time_us(n * 5, || {
        black_box(registry.lookup(&fp, env.space().indices(), 0.25)).expect("entry 0 is the probe's own");
    }));
    let mut k = 16;
    set(res, "service.registry.publish_us", time_us(n / 4 + 1, || {
        registry.publish(fp_at(k), model.clone(), vec![0.5; spec.knobs], 1.0, 5).expect("in memory");
        k += 1;
    }));

    // A lone request through the microbatcher waits out the deadline.
    let serving = PolicyServer::spawn(32, 500, Telemetry::null());
    serving.ensure(1, &model);
    let state = vec![0.5f32; STATE_DIM];
    set(res, "service.batcher.act_us", time_us(n, || {
        black_box(serving.act(1, &state)).expect("version 1 is registered");
    }));
    let stats = serving.stats();
    set(res, "service.batcher.rows_per_batch", stats.rows as f64 / stats.batches as f64);
    set(res, "service.batcher.deadline_flush_ratio", stats.deadline_flushes as f64 / stats.batches as f64);

    // The daemon workload's session, without the daemon: a cold session
    // seeds a registry, then warm sessions are created, stepped and closed.
    let registry = ModelRegistry::in_memory();
    let null = Telemetry::null();
    let (mut create_us, mut step_us, mut close_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..(n / 4 + 2) as u64 {
        let spec = daemon::tiny_spec(seed.wrapping_mul(1_000_000) + 800_000 + i);
        let t = Instant::now();
        let mut session = TuningSession::create(i, spec, 5, i > 0, false, &registry, 0.25, &serving, &null)
            .expect("the tiny instance measures a baseline");
        create_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        loop {
            let t = Instant::now();
            if session.step().is_none() {
                break;
            }
            step_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        let t = Instant::now();
        black_box(session.close(&registry, false));
        close_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    serving.shutdown();
    set(res, "service.session.create_us", median(&create_us[1..]));
    set(res, "service.session.step_us", median(&step_us[5..]));
    set(res, "service.session.close_us", median(&close_us[1..]));
}

/// The workload's instance under the default configuration: build cost,
/// window generation, and the engine's exact counters over the baseline
/// windows of one episode reset (they repeat for a fixed seed).
fn instance(res: &mut RunResult, spec: &EnvSpec, n: usize) {
    set(res, "core.env.build_us", time_us(n / 10 + 2, || {
        black_box(spec.build()).expect("the spec is valid");
    }));
    let mut engine = simdb::Engine::new(spec.flavor, simdb::HardwareConfig::new(spec.ram_gb, spec.disk_gb, simdb::MediaType::Ssd, 12), spec.seed);
    let mut wl = workload::build_workload(spec.workload, spec.scale);
    wl.setup(&mut engine);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    set(res, "workload.window_us", time_us(n, || {
        black_box(wl.window(spec.measure_txns, &mut rng));
    }));

    let mut env = spec.build().expect("the spec is valid");
    let before = env.engine().metrics();
    let defaults = env.engine().registry().default_config();
    env.reset_episode(defaults);
    let after = env.engine().metrics();
    let d = |m: C| after.get_cumulative(m) - before.get_cumulative(m);
    let txns = d(C::ComCommit) + d(C::ComRollback);
    set(res, "simdb.buffer_hit_ratio", 1.0 - d(C::BufferPoolReads) / d(C::BufferPoolReadRequests));
    set(res, "simdb.page_reads_per_txn", d(C::PagesRead) / txns);
    set(res, "simdb.log_fsyncs_per_txn", d(C::OsLogFsyncs) / txns);
    set(res, "simdb.row_lock_waits_per_txn", d(C::RowLockWaits) / txns);
}

pub fn run(workload: &str, args: &RunArgs, res: &mut RunResult) {
    let n = if args.smoke { 20 } else { 200 };
    let mut rng = StdRng::seed_from_u64(args.seed);
    compute(res, &mut rng, n);
    memory_pool(res, &mut rng, n);
    service_layers(res, args.seed, n);
    let spec = match workload {
        "train_paper" => train::paper().spec().clone(),
        "train_envheavy" => train::envheavy().spec().clone(),
        "tune_online" => tune::base_spec(),
        _ => daemon::tiny_spec(0),
    };
    instance(res, &EnvSpec { seed: args.seed, ..spec }, n);
    if workload == "daemon_sessions" {
        // Queue + batch wait + framing + codec + loopback: what the daemon
        // adds to the step it runs.
        let in_process = res.layers.get("service.session.step_us").copied().unwrap_or(0.0);
        let wire = median(&res.step.ms) * 1e3 - in_process;
        res.layer("service.wire_overhead_us", wire);
    }
}
