//! `train_paper` and `train_envheavy`: offline training, closed loop, one
//! caller.
//!
//! Untraced, a request is one `cdbtune::train_offline` run of a fixed step
//! budget on a freshly built instance and a step is one trainer step, timed
//! through the [`StepClock`]. Traced, the benchmark runs its own loop that
//! issues the same public calls in the trainer's order, with a span around
//! each, and reports how far that loop's step is from the real one's
//! (`trace.gap_pct`).

use crate::common::{digest, timed_setups, RunArgs, RunResult, StepClock};
use crate::stats::median;
use crate::trace::{durations_us, self_us, write_jsonl, Span, Tracer};
use cdbtune::memory_pool::BatchScratch;
use cdbtune::{train_offline, DbEnv, EnvSpec, MemoryPool, TrainerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{perturb, Ddpg, GaussianNoise, NoiseProcess, Transition};
use simdb::EngineFlavor;
use std::time::Instant;
use workload::WorkloadKind;

/// One of the two training workloads.
pub struct Shape {
    pub name: &'static str,
    spec: EnvSpec,
    /// Episodes of 20 steps per training run.
    episodes: usize,
    /// Quality bar on the median, over a run's training runs, of the best
    /// throughput found over the default configuration's, as a gain. Set at
    /// no more than 0.8× the smallest such median over seeds 1–10 with the
    /// stub PRNG (1.43 and 0.37; README), so that a change of PRNG stream
    /// does not trip it.
    min_best_gain: f64,
}

const STEPS_PER_EPISODE: usize = 20;

/// Paper shapes: 63 metrics → 64 knobs through the Table-5 networks, on a
/// short Sysbench-RW window, so `rl`/`tinynn`/replay dominate a step.
pub fn paper() -> Shape {
    Shape {
        name: "train_paper",
        spec: EnvSpec {
            flavor: EngineFlavor::MySqlCdb,
            workload: WorkloadKind::SysbenchRw,
            knobs: 64,
            scale: 0.03,
            warmup_txns: 20,
            measure_txns: 120,
            horizon: STEPS_PER_EPISODE,
            ..EnvSpec::default()
        },
        episodes: 6,
        min_best_gain: 1.0,
    }
}

/// TPC-C with the library-default stress window (100+600 transactions), so
/// `simdb` deploy+stress dominates a step and the write path (WAL, fsync,
/// row locks) is exercised.
pub fn envheavy() -> Shape {
    Shape {
        name: "train_envheavy",
        spec: EnvSpec {
            flavor: EngineFlavor::MySqlCdb,
            workload: WorkloadKind::TpcC,
            knobs: 8,
            scale: 0.125,
            warmup_txns: 100,
            measure_txns: 600,
            horizon: STEPS_PER_EPISODE,
            ..EnvSpec::default()
        },
        episodes: 3,
        min_best_gain: 0.25,
    }
}

impl Shape {
    pub fn spec(&self) -> &EnvSpec {
        &self.spec
    }

    fn spec_for(&self, seed: u64) -> EnvSpec {
        EnvSpec { seed, ..self.spec.clone() }
    }

    /// The same workload on a fifth of the data, two episodes a run, and no
    /// quality bar: enough to exercise every call, too little to compare.
    fn smoke(&self) -> Shape {
        Shape {
            name: self.name,
            spec: EnvSpec { scale: self.spec.scale / 5.0, ..self.spec.clone() },
            episodes: 2,
            min_best_gain: f64::NEG_INFINITY,
        }
    }

    fn trainer(&self, seed: u64, episodes: usize) -> TrainerConfig {
        TrainerConfig { episodes, steps_per_episode: STEPS_PER_EPISODE, seed, ..TrainerConfig::default() }
    }

    pub fn run(self, args: &RunArgs) -> RunResult {
        if args.smoke {
            self.smoke().measure(args)
        } else {
            self.measure(args)
        }
    }

    fn measure(&self, args: &RunArgs) -> RunResult {
        let episodes = self.episodes;
        let budget = episodes * STEPS_PER_EPISODE;
        let mut res = RunResult::default();

        // Set-up is what a caller does before the first training step:
        // build the instance (create and load its tables) and the config.
        let mut warm = timed_setups(args.smoke, &mut res, || {
            std::hint::black_box(self.trainer(args.seed, episodes));
            self.spec_for(args.seed).build().expect("the spec is valid")
        });
        // Warm-up: page in the code and size the allocator's arenas.
        let _ = train_offline(&mut warm, &self.trainer(args.seed, 2.min(episodes)), Vec::new());
        drop(warm);

        if args.trace {
            self.run_traced(args, episodes, &mut res);
            return res;
        }

        let clock = StepClock::default();
        let mut gains = Vec::new();
        let wall = Instant::now();
        // The series run on a clock that stands still while the next
        // instance is built: `began` is moved forward by every build.
        let mut began = wall;
        let mut round = 0u64;
        while round == 0 || wall.elapsed().as_secs_f64() < args.seconds {
            let seed = args.seed.wrapping_mul(1000).wrapping_add(round);
            let build = Instant::now();
            let mut env = self.spec_for(seed).build().expect("the spec is valid");
            env.set_telemetry(clock.telemetry());
            let t0 = Instant::now();
            began += t0 - build;
            let (_model, report) = train_offline(&mut env, &self.trainer(seed, episodes), Vec::new());
            res.request.push(began, Instant::now(), t0.elapsed().as_secs_f64() * 1e3);
            let ticks = clock.drain();
            res.attempted += budget as u64;
            res.failed += report.recovery.degraded_steps;
            for t in &ticks {
                res.step.push(began, t.at, t.wall_ms);
            }
            let baseline = clock.take_cold_baseline_tps().unwrap_or(f64::NAN);
            gains.push(report.best_throughput / baseline - 1.0);
            if round == 0 {
                res.check(
                    "total_steps",
                    report.total_steps == budget && ticks.len() == budget,
                    format!("{} steps, {} ticks, budget {budget}", report.total_steps, ticks.len()),
                );
                res.digest = Some(digest(report.reward_history.iter().copied()));
            }
            round += 1;
        }
        let gain = median(&gains);
        res.check(
            "best_gain",
            gain >= self.min_best_gain,
            format!("median best_gain {gain:.4} over {round} runs, bar {}", self.min_best_gain),
        );
        res
    }

    /// Rounds of three runs at one seed, back to back: the real
    /// `train_offline`, the benchmark's loop without spans, and that loop
    /// with spans. The ratios are taken within a round, so a noise burst
    /// that covers a round cancels, and their medians over the rounds are
    /// `trace.gap_pct` and `trace.overhead_pct`.
    fn run_traced(&self, args: &RunArgs, episodes: usize, res: &mut RunResult) {
        let budget = episodes * STEPS_PER_EPISODE;
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch, 0);
        let mut tracer = Tracer::new(true, epoch, 0);
        let (mut gap, mut overhead) = (Vec::new(), Vec::new());
        let mut last = OwnLoop::default();
        let (mut restarts, mut crashes) = (0, 0);
        let mut round = 0u64;
        while round == 0 || epoch.elapsed().as_secs_f64() < args.seconds {
            let seed = args.seed.wrapping_mul(1000).wrapping_add(round);
            let mut env = self.spec_for(seed).build().expect("the spec is valid");
            let t0 = Instant::now();
            let (_, report) = train_offline(&mut env, &self.trainer(seed, episodes), Vec::new());
            let real = t0.elapsed().as_secs_f64();
            res.failed += u64::from(report.total_steps != budget) + report.recovery.degraded_steps;

            let mut env = self.spec_for(seed).build().expect("the spec is valid");
            let t0 = Instant::now();
            self.own_loop(&mut env, seed, episodes, &mut off);
            let plain = t0.elapsed().as_secs_f64();

            let mut env = self.spec_for(seed).build().expect("the spec is valid");
            let t0 = Instant::now();
            last = self.own_loop(&mut env, seed, episodes, &mut tracer);
            let traced = t0.elapsed().as_secs_f64();
            res.failed += last.degraded;
            restarts += env.engine().restart_count();
            crashes += env.engine().crash_count();

            gap.push(100.0 * (plain / real - 1.0));
            overhead.push(100.0 * (traced / plain - 1.0));
            round += 1;
        }
        res.attempted = 3 * round * budget as u64;

        let spans = tracer.into_spans();
        train_layers(res, &spans, self.spec.warmup_txns + self.spec.measure_txns);
        res.layer("simdb.restarts", restarts as f64 / round as f64);
        res.layer("simdb.crashes", crashes as f64 / round as f64);
        res.layer("core.trainer.best_gain", last.best_gain);
        res.layer("trace.overhead_pct", median(&overhead));
        res.layer("trace.gap_pct", median(&gap));
        let path = args.out_dir.join(format!("trace-{}.jsonl", self.name));
        let file = std::fs::File::create(&path).expect("the trace file is writable");
        write_jsonl(std::io::BufWriter::new(file), &spans).expect("the trace file is writable");
    }

    /// The trainer's loop (`cdbtune::trainer::train_offline_resumable`),
    /// re-issued call by call: act → step → push → 8×[sample → train →
    /// update priorities], with the same warm-up, exploration and warm-start
    /// policy, minus telemetry and checkpoints.
    fn own_loop(&self, env: &mut DbEnv, seed: u64, episodes: usize, tr: &mut Tracer) -> OwnLoop {
        let cfg = self.trainer(seed, episodes);
        let action_dim = env.space().dim();
        let registry = std::sync::Arc::clone(env.engine().registry());
        let indices = env.space().indices().to_vec();
        let mut ddpg = rl::DdpgConfig::paper(simdb::TOTAL_METRIC_COUNT, action_dim);
        ddpg.actor_lr = cfg.learning_rate * 0.3; // as the trainer: the actor trails the critic
        ddpg.critic_lr = cfg.learning_rate;
        ddpg.gamma = cfg.gamma;
        ddpg.batch_size = cfg.batch_size;
        ddpg.seed = cfg.seed;
        let mut agent = Ddpg::new(ddpg);
        let mut pool = MemoryPool::with_per(cfg.memory, cfg.memory_capacity, cfg.per);
        let mut noise =
            GaussianNoise::new(action_dim, cfg.noise_sigma, cfg.noise_sigma_min, cfg.noise_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x7157));
        let mut td = Vec::new();
        let mut scratch = BatchScratch::new();
        let mut best_config: Option<simdb::KnobConfig> = None;
        let mut out_stats = OwnLoop::default();
        let mut best_tps = 0.0f64;
        let mut cold_baseline = f64::NAN;
        let mut total = 0usize;

        for episode in 0..cfg.episodes {
            // Every other episode restarts from the best configuration so
            // far, as the trainer's default warm-start fraction (0.5) does.
            let warm = episode % 2 == 1;
            let baseline = match (&best_config, warm) {
                (Some(c), true) => c.clone(),
                _ => registry.default_config(),
            };
            tr.set_request(0);
            let s = tr.enter("core.env.reset");
            let mut state = env.reset_episode(baseline);
            tr.exit(s);
            if episode == 0 {
                cold_baseline = env.initial_perf().throughput_tps;
            }
            for ep_step in 0..cfg.steps_per_episode {
                total += 1;
                tr.set_request(total as u64);
                let step = tr.enter("core.trainer.step");
                let action: Vec<f32> = if total <= cfg.random_warmup_steps {
                    (0..action_dim).map(|_| rng.gen()).collect()
                } else {
                    let s = tr.enter("rl.act");
                    let a = agent.act(&state);
                    tr.exit(s);
                    if ep_step == 0 {
                        a
                    } else {
                        perturb(&a, &noise.sample(&mut rng))
                    }
                };
                let s = tr.enter("core.env.step");
                let out = env.step_action(&action);
                tr.exit(s);
                tr.add_children(
                    s,
                    &[
                        ("simdb.deploy", out.timing.deployment_wall_us),
                        ("simdb.stress", out.timing.stress_wall_us),
                        ("simdb.metrics", out.timing.metrics_wall_us),
                    ],
                );
                out_stats.degraded += u64::from(out.degraded);
                if !out.crashed && !out.degraded && out.perf.throughput_tps > best_tps {
                    best_tps = out.perf.throughput_tps;
                    let mut c = registry.default_config();
                    c.apply_normalized(
                        &indices,
                        &action.iter().map(|&x| f64::from(x)).collect::<Vec<_>>(),
                    );
                    best_config = Some(c);
                }
                if !out.degraded {
                    let t = Transition {
                        state: state.clone(),
                        action,
                        reward: out.reward as f32 * cfg.reward_scale,
                        next_state: out.state.clone(),
                        done: out.done,
                    };
                    let s = tr.enter("core.memory_pool.push");
                    pool.push(t);
                    tr.exit(s);
                }
                state = out.state;
                if pool.len() >= cfg.batch_size {
                    for _ in 0..cfg.updates_per_step {
                        let s = tr.enter("core.memory_pool.sample");
                        pool.sample_into(cfg.batch_size, &mut rng, &mut scratch);
                        tr.exit(s);
                        let s = tr.enter("rl.train_step");
                        let _ = agent.train_step_batch(
                            &scratch.batch,
                            scratch.is_weights(),
                            Some(&mut td),
                        );
                        tr.exit(s);
                        let s = tr.enter("core.memory_pool.update_priorities");
                        pool.update_priorities(scratch.sampled_indices(), &td);
                        tr.exit(s);
                    }
                }
                tr.exit(step);
                if out.done {
                    break;
                }
            }
            noise.decay();
        }
        out_stats.best_gain = best_tps / cold_baseline - 1.0;
        out_stats
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct OwnLoop {
    degraded: u64,
    best_gain: f64,
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Per-layer metrics of a traced training loop.
fn train_layers(res: &mut RunResult, spans: &[Span], txns_per_window: usize) {
    let step = durations_us(spans, "core.trainer.step");
    let step_total = sum(&step);
    res.layer("core.trainer.step_us", median(&step));
    res.layer(
        "core.trainer.unattributed_pct",
        100.0 * sum(&self_us(spans, "core.trainer.step")) / step_total,
    );
    let share = |names: &[&str]| {
        100.0 * names.iter().map(|n| sum(&durations_us(spans, n))).sum::<f64>() / step_total
    };
    res.layer("core.trainer.simdb_share_pct", share(&["simdb.deploy", "simdb.stress", "simdb.metrics"]));
    res.layer("core.trainer.rl_share_pct", share(&["rl.act", "rl.train_step"]));
    res.layer(
        "core.trainer.replay_share_pct",
        share(&["core.memory_pool.push", "core.memory_pool.sample", "core.memory_pool.update_priorities"]),
    );
    env_layers(res, spans, txns_per_window);
}

/// Metrics of the `core.env.*` and `simdb.*` spans, shared with the online
/// workload.
pub fn env_layers(res: &mut RunResult, spans: &[Span], txns_per_window: usize) {
    res.layer("core.env.reset_us", median(&durations_us(spans, "core.env.reset")));
    res.layer("core.env.step_us", median(&durations_us(spans, "core.env.step")));
    res.layer("core.env.step_self_us", median(&self_us(spans, "core.env.step")));
    res.layer("simdb.deploy_us", median(&durations_us(spans, "simdb.deploy")));
    let stress = median(&durations_us(spans, "simdb.stress"));
    res.layer("simdb.stress_us", stress);
    res.layer("simdb.stress_txn_us", stress / txns_per_window as f64);
    res.layer("simdb.metrics_us", median(&durations_us(spans, "simdb.metrics")));
}
