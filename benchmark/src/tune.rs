//! `tune_online`: 5-step online tuning requests, closed loop, one caller.
//!
//! Set-up trains the model every request starts from. A request builds a
//! fresh instance from its `EnvSpec` (Sysbench-RO and -WO alternate, each
//! with its own seed), begins an `OnlineSession`, steps it five times with
//! fine-tuning and finishes it — the calls `cdbtune::tune_online` makes. A
//! step is one `OnlineSession::step`.

use crate::common::{digest, timed_setups, RunArgs, RunResult, StepClock};
use crate::stats::{median, quantile};
use crate::trace::{durations_us, write_jsonl, Tracer};
use crate::train::env_layers;
use cdbtune::{
    train_offline, tune_online, EnvSpec, OnlineConfig, OnlineSession, TrainedModel, TrainerConfig,
};
use std::time::Instant;
use workload::WorkloadKind;

const STEPS_PER_REQUEST: usize = 5;

/// The instance family: paper-sized action space, short windows.
pub fn base_spec() -> EnvSpec {
    EnvSpec { knobs: 64, scale: 0.03, warmup_txns: 20, measure_txns: 120, ..EnvSpec::default() }
}

fn request_spec(run_seed: u64, i: u64) -> EnvSpec {
    let workload = if i % 2 == 0 { WorkloadKind::SysbenchRo } else { WorkloadKind::SysbenchWo };
    EnvSpec { workload, seed: run_seed.wrapping_mul(1_000_000).wrapping_add(i), ..base_spec() }
}

fn online_cfg(spec: &EnvSpec) -> OnlineConfig {
    OnlineConfig { max_steps: STEPS_PER_REQUEST, seed: spec.seed, ..OnlineConfig::default() }
}

/// The model is a fixture: the same for every `--seed`, which varies the
/// requests. A model trained from the run's seed recommends different
/// configurations at every seed, and the cost of a step follows them: over
/// ten seeds the step median moved by 60 % with no noise at all in it.
const MODEL_SEED: u64 = 42;

/// Trains the model the requests start from, on Sysbench-RW.
fn train_model(smoke: bool) -> TrainedModel {
    let seed = MODEL_SEED;
    let spec = EnvSpec { workload: WorkloadKind::SysbenchRw, seed, ..base_spec() };
    let mut env = spec.build().expect("the spec is valid");
    let cfg = TrainerConfig {
        episodes: if smoke { 2 } else { 3 },
        steps_per_episode: 20,
        seed,
        ..TrainerConfig::default()
    };
    train_offline(&mut env, &cfg, Vec::new()).0
}

struct Request {
    done: Instant,
    wall_ms: f64,
    /// `(completed, ms)` per step.
    steps: Vec<(Instant, f64)>,
    gain: f64,
    degraded: bool,
    /// Recommended knob vector and its throughput.
    outputs: Vec<f64>,
}

/// One request through the session API, with a span around every call.
fn one_request(spec: &EnvSpec, model: &TrainedModel, tr: &mut Tracer, clock: &StepClock) -> Request {
    let t0 = Instant::now();
    let root = tr.enter("core.online.request");
    let s = tr.enter("core.env.build");
    let mut env = spec.build().expect("the spec is valid");
    tr.exit(s);
    if tr.enabled() {
        env.set_telemetry(clock.telemetry());
    }
    let s = tr.enter("core.online.begin");
    let mut session = OnlineSession::begin(&mut env, model, &online_cfg(spec));
    tr.exit(s);
    let mut steps = Vec::with_capacity(STEPS_PER_REQUEST);
    loop {
        let t = Instant::now();
        let s = tr.enter("core.online.step");
        let stepped = session.step(&mut env);
        tr.exit(s);
        if stepped.is_none() {
            break;
        }
        let now = Instant::now();
        steps.push((now, now.duration_since(t).as_secs_f64() * 1e3));
        // The session's own step event carries the phase split.
        if let Some(tick) = clock.drain().last() {
            tr.add_children(
                s,
                &[
                    ("rl.act", tick.timing.recommendation_wall_us),
                    ("simdb.deploy", tick.timing.deployment_wall_us),
                    ("simdb.stress", tick.timing.stress_wall_us),
                    ("simdb.metrics", tick.timing.metrics_wall_us),
                ],
            );
        }
    }
    let s = tr.enter("core.online.finish");
    let outcome = session.finish(&mut env);
    tr.exit(s);
    tr.exit(root);
    let done = Instant::now();
    let mut outputs: Vec<f64> =
        env.space().from_config(&outcome.best_config).iter().map(|&x| f64::from(x)).collect();
    outputs.push(outcome.best_perf.throughput_tps);
    Request {
        done,
        wall_ms: done.duration_since(t0).as_secs_f64() * 1e3,
        steps,
        gain: outcome.throughput_gain(),
        degraded: outcome.degraded.is_some() || outcome.steps.iter().any(|s| s.degraded),
        outputs,
    }
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut res = RunResult::default();
    let model = timed_setups(args.smoke, &mut res, || train_model(args.smoke));
    let clock = StepClock::default();
    let epoch = Instant::now();

    // Warm-up: one request of each kind.
    let mut off = Tracer::new(false, epoch, 0);
    for i in 0..2 {
        one_request(&request_spec(args.seed, 900_000 + i), &model, &mut off, &clock);
    }

    let mut gains = Vec::new();
    let mut outputs = Vec::new();
    let mut fold = |res: &mut RunResult, started: Instant, i: u64, r: Request| {
        res.attempted += STEPS_PER_REQUEST as u64;
        res.failed += u64::from(r.degraded || r.steps.len() != STEPS_PER_REQUEST);
        res.request.push(started, r.done, r.wall_ms);
        for (done, ms) in r.steps {
            res.step.push(started, done, ms);
        }
        gains.push(r.gain);
        if i < 8 {
            outputs.extend(r.outputs);
        }
    };

    if !args.trace {
        let started = Instant::now();
        let mut i = 0u64;
        while i < 2 || started.elapsed().as_secs_f64() < args.seconds {
            let r = one_request(&request_spec(args.seed, i), &model, &mut off, &clock);
            fold(&mut res, started, i, r);
            i += 1;
        }
        res.digest = Some(digest(outputs));
    } else {
        // Each request three times, back to back: through the product's
        // one-call `tune_online`, through this loop without spans, and with
        // spans. The ratios are taken within a triple, so a noise burst that
        // covers it cancels; their medians are the gap and the overhead.
        let mut tracer = Tracer::new(true, epoch, 0);
        let (mut gap, mut overhead) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut i = 0u64;
        while i < 2 || started.elapsed().as_secs_f64() < args.seconds {
            let spec = request_spec(args.seed, i);
            let t0 = Instant::now();
            let mut env = spec.build().expect("the spec is valid");
            let _ = tune_online(&mut env, &model, &online_cfg(&spec));
            let black_box = t0.elapsed().as_secs_f64() * 1e3;
            let plain = one_request(&spec, &model, &mut off, &clock).wall_ms;
            tracer.set_request(i + 1);
            let r = one_request(&spec, &model, &mut tracer, &clock);
            gap.push(100.0 * (plain / black_box - 1.0));
            overhead.push(100.0 * (r.wall_ms / plain - 1.0));
            fold(&mut res, started, i, r);
            i += 1;
        }
        let spans = tracer.into_spans();
        let spec = base_spec();
        env_layers(&mut res, &spans, spec.warmup_txns + spec.measure_txns);
        res.layer("core.online.begin_us", median(&durations_us(&spans, "core.online.begin")));
        res.layer("core.online.step_us", median(&durations_us(&spans, "core.online.step")));
        res.layer("core.online.finish_us", median(&durations_us(&spans, "core.online.finish")));
        res.layer("core.online.gain_p50", median(&gains));
        res.layer("core.online.request_p90_ms", quantile(&res.request.ms, 0.9));
        res.layer("trace.overhead_pct", median(&overhead));
        res.layer("trace.gap_pct", median(&gap));
        let file = std::fs::File::create(args.out_dir.join("trace-tune_online.jsonl"))
            .expect("the trace file is writable");
        write_jsonl(std::io::BufWriter::new(file), &spans).expect("the trace file is writable");
    }
    let gain = median(&gains);
    res.check("gain_p50", gain >= 0.0, format!("median gain {gain:.4} over {} requests", gains.len()));
    res
}
