//! `cdbtune` — the command-line interface to the tuning system.
//!
//! ```text
//! cdbtune train  --workload rw --knobs 40 --episodes 20 --out model.json
//! cdbtune tune   --model model.json --workload rw [--steps 5]
//! cdbtune knobs  --flavor mysql [--ranked]
//! cdbtune status --workload tpcc          # run a window, print SHOW STATUS
//! cdbtune help
//! ```
//!
//! All commands operate on a simulated instance (`--flavor`, `--ram-gb`,
//! `--disk-gb`) loaded with the chosen workload at `--scale`.

use cdbtune::cli::{make_env, shared_flags_help, Args};
use cdbtune::{
    resume_from_checkpoint, tune_online, train_offline, OnlineConfig, PerConfig, SafetyConfig,
    TrainedModel, TrainerConfig, TrainingCheckpoint,
};
use workload::{DynamicSpec, DynamicWorkload};
use simdb::{EngineFlavor, HardwareConfig, MediaType};
use std::process::ExitCode;

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.required("out")?.to_string();
    let episodes: usize = args.get("episodes", 20)?;
    let steps: usize = args.get("steps", 20)?;
    let seed: u64 = args.get("seed", 42)?;
    let checkpoint_dir: Option<String> = args.raw("checkpoint-dir").map(str::to_string);
    let resume: bool = args.get("resume", false)?;
    let per_default = PerConfig::default();
    let per = PerConfig {
        alpha: args.get("per-alpha", per_default.alpha)?,
        beta: args.get("per-beta", per_default.beta)?,
    };
    if !(0.0..=1.0).contains(&per.alpha) || !(0.0..=1.0).contains(&per.beta) {
        return Err(format!(
            "--per-alpha/--per-beta must be in [0, 1] (got {} / {})",
            per.alpha, per.beta
        ));
    }
    let mut env = make_env(args)?;
    let trainer = TrainerConfig {
        episodes,
        steps_per_episode: steps,
        seed,
        checkpoint_dir: checkpoint_dir.clone(),
        per,
        ..TrainerConfig::default()
    };
    eprintln!("training: {episodes} episodes x {steps} steps over {} knobs...", env.space().dim());
    let (model, report) = if resume {
        let dir = checkpoint_dir
            .as_deref()
            .ok_or("--resume true needs --checkpoint-dir <dir>")?;
        let ck = TrainingCheckpoint::load(dir)
            .map_err(|e| format!("loading checkpoint from {dir}: {e}"))?
            .ok_or_else(|| format!("no checkpoint found in {dir}"))?;
        eprintln!(
            "resuming from checkpoint: {} of {episodes} episodes done ({} steps so far)",
            ck.episode, ck.report.total_steps
        );
        resume_from_checkpoint(&mut env, &trainer, ck)
            .map_err(|e| format!("checkpoint in {dir} does not fit this session: {e}"))?
    } else {
        train_offline(&mut env, &trainer, Vec::new())
    };
    let converged =
        report.steps_to_bar().map_or("censored".into(), |n| format!("steps to bar {n}"));
    println!(
        "trained in {:.1}s: {} steps, best {:.0} txn/s, {} crashes, {converged}",
        report.wall_seconds, report.total_steps, report.best_throughput, report.crashes,
    );
    println!("recovery:   {}", report.recovery.summary());
    std::fs::write(&out, model.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("model written to {out}");
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let model_path = args.required("model")?.to_string();
    let steps: usize = args.get("steps", 5)?;
    let json =
        std::fs::read_to_string(&model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let model = TrainedModel::from_json(&json).map_err(|e| format!("parsing model: {e}"))?;
    let safe: bool = args.get("safe", false)?;
    let mut env = make_env(args)?;
    if let Some(dspec) = args.raw("dynamic") {
        let spec: DynamicSpec = dspec.parse().map_err(|e| format!("--dynamic: {e}"))?;
        eprintln!("dynamic workload trace armed: {}", spec.to_spec_string());
        env.install_workload(Box::new(DynamicWorkload::new(spec)), None);
    }
    if env.space().indices() != model.action_indices {
        return Err(format!(
            "model tunes {} knobs but the environment exposes {} — pass the same \
             --flavor/--knobs/--ram-gb the model was trained with",
            model.action_indices.len(),
            env.space().dim()
        ));
    }
    let cfg = OnlineConfig {
        max_steps: steps,
        safety: safe.then(SafetyConfig::default),
        ..OnlineConfig::default()
    };
    let outcome = tune_online(&mut env, &model, &cfg);
    println!(
        "baseline:    {:>10.0} txn/s   p99 {:>8.1} ms",
        outcome.initial_perf.throughput_tps,
        outcome.initial_perf.p99_latency_ms()
    );
    for s in &outcome.steps {
        println!(
            "step {}:      {:>10.0} txn/s   p99 {:>8.1} ms{}",
            s.step,
            s.throughput_tps,
            s.p99_latency_us / 1000.0,
            if s.crashed {
                "   [crashed]"
            } else if s.degraded {
                "   [degraded]"
            } else {
                ""
            }
        );
    }
    if let Some(reason) = &outcome.degraded {
        println!("tuning degraded: {reason:?} — recommending the best configuration measured");
    }
    let rec = outcome.recovery;
    if rec != cdbtune::RecoveryStats::default() {
        println!("recovery:    {}", rec.summary());
    }
    if let Some(s) = &outcome.safety {
        println!(
            "safety:      {} rollbacks, {} clamped steps, {} drift events, \
             worst window regret {:.2}/{:.2}, final radius {:.3}",
            s.rollbacks,
            s.clamped_steps,
            s.drift_events,
            s.worst_window_regret,
            s.regret_budget,
            s.final_radius
        );
    }
    println!(
        "recommended: {:>10.0} txn/s   p99 {:>8.1} ms   ({:+.1}% / {:+.1}%)",
        outcome.best_perf.throughput_tps,
        outcome.best_perf.p99_latency_ms(),
        outcome.throughput_gain() * 100.0,
        -outcome.latency_reduction() * 100.0
    );
    let defaults = env.engine().registry().default_config();
    let changes = outcome.best_config.diff(&defaults);
    println!("\nchanged knobs ({} of {}):", changes.len(), defaults.values().len());
    for (name, now, was) in changes.iter().take(25) {
        println!("  {name:<48} {was:?} -> {now:?}");
    }
    if changes.len() > 25 {
        println!("  ... and {} more", changes.len() - 25);
    }
    Ok(())
}

fn cmd_knobs(args: &Args) -> Result<(), String> {
    let flavor: EngineFlavor = args.get("flavor", EngineFlavor::MySqlCdb)?;
    let ranked: bool = args.get("ranked", false)?;
    let hw = HardwareConfig::new(args.get("ram-gb", 1)?, args.get("disk-gb", 12)?, MediaType::Ssd, 12);
    let registry = flavor.registry(&hw);
    let tunable_only = ranked; // --ranked true also filters to tunable knobs
    println!("{} knobs ({} tunable):", registry.len(), registry.tunable_count());
    for d in registry.defs() {
        if tunable_only && d.blacklisted {
            continue;
        }
        let bl = if d.blacklisted { "  [blacklisted]" } else { "" };
        println!("  {:<52} {:?}{}", d.name, d.default, bl);
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let mut env = make_env(args)?;
    let baseline = env.engine().registry().default_config();
    let _ = env.reset_episode(baseline);
    let perf = env.initial_perf();
    println!(
        "-- {:.0} txn/s, p99 {:.1} ms under the default configuration --",
        perf.throughput_tps,
        perf.p99_latency_ms()
    );
    for (name, value) in env.engine().show_status() {
        println!("{name:<44} {value:.0}");
    }
    Ok(())
}

fn usage() -> String {
    format!(
        "cdbtune — automatic database configuration tuning (CDBTune reproduction)

USAGE:
  cdbtune <command> [--flag value ...]

COMMANDS:
  train    train a model offline       (--out model.json [--episodes 20] [--steps 20]
                                        [--checkpoint-dir d] (a checkpoint per episode)
                                        [--resume true] [--per-alpha 0.6] [--per-beta 0.4])
  tune     serve a tuning request      (--model model.json [--steps 5] [--safe true]
                                        [--dynamic 'base=rw,scale=0.02,diurnal=16x0.4,
                                         flash=12+3x2.5,shift=10:wo'])
  knobs    list an engine's knobs      ([--flavor mysql] [--ranked true] = tunable only)
  status   run a window, SHOW STATUS   ([--workload rw])
  help     this text

{}",
        shared_flags_help()
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // A removed or misspelt flag is a usage error named on stderr, like a
    // malformed one — never a run that silently ignores it.
    let parsed = Args::parse(&argv[1..]).and_then(|a| a.reject_unknown(&usage(), &[]).map(|()| a));
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "train" => cmd_train(&args),
        "tune" => cmd_tune(&args),
        "knobs" => cmd_knobs(&args),
        "status" => cmd_status(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
