//! The tuning-request benchmark driver. See `benchmark/README.md`.
//!
//! ```text
//! driver --workload W --seed N --seconds S --trace 0|1 [--smoke 1] [--out-dir D]
//! driver --report DIR               print every metric of a suite run
//! driver --compare DIR_A,DIR_B      judge two suite runs against the bounds
//! driver --spread DIR,DIR,...       quartile spread of runs at several seeds
//! driver --manifest 1               print BENCHMARK.json from the catalogue
//! ```
//!
//! A workload run prints, as its last line, the one-object result the
//! benchmark contract asks for, and writes a fuller `result-*.json` (build
//! mode, seed, digest, sample counts and tails) next to the trace.

mod catalog;
mod common;
mod daemon;
mod probes;
mod report;
mod stats;
mod trace;
mod train;
mod tune;

use cdbtune::jsonio::Obj;
use common::{peak_rss_kb, RunArgs, RunResult};
use stats::{median, quiet_latency, quiet_rate, slices, Summary};
use std::path::{Path, PathBuf};

type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of a run, in catalogue order.
fn end_to_end(res: &RunResult) -> Vec<Metric> {
    let rss_kb = res.child_peak_rss_kb.or_else(|| peak_rss_kb(None)).unwrap_or(0);
    let step = slices(&res.step.at_s, &res.step.ms);
    let values = [
        median(&res.setup_s),
        rss_kb as f64 / 1024.0,
        quiet_latency(&step.median),
        quiet_latency(&slices(&res.request.at_s, &res.request.ms).median),
        quiet_rate(&step.rate),
    ];
    catalog::END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect()
}

fn metrics_obj(o: &mut Obj, metrics: &[Metric]) {
    for &(name, value, unit) in metrics {
        o.obj(name, |m| {
            m.f64("value", value).str("unit", unit);
        });
    }
}

fn summary_obj(o: &mut Obj, name: &str, samples: &[f64]) {
    let s = Summary::of(samples);
    o.obj(name, |m| {
        m.u64("n", s.n as u64).f64("p50", s.p50);
        if let Some((p, v)) = s.tail {
            m.f64("tail_percentile", p * 100.0).f64("tail", v);
        }
        // A short series is kept whole: it is the run's rounds, in order.
        if s.n <= 64 {
            m.f64_array("values", samples);
        }
    });
}

fn run_workload(workload: &str, run: &RunArgs, build_mode: &str) -> Result<(), String> {
    std::fs::create_dir_all(&run.out_dir).map_err(|e| format!("{}: {e}", run.out_dir.display()))?;
    // The kernels' worker pool runs one wide, here and in the daemon. At the
    // program's default (one worker per core) every workload on this two-core
    // box measured 15-30 % slower and several times noisier, and a third of
    // the training runs collapsed to a quarter of their speed whenever a
    // third thread wanted a core (README, "Pool width"). Results are
    // bit-identical at any width.
    tinynn::pool::set_threads(common::POOL_THREADS);
    let mut res = match workload {
        "train_paper" => train::paper().run(run),
        "train_envheavy" => train::envheavy().run(run),
        "tune_online" => tune::run(run),
        "daemon_sessions" => daemon::run(run)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if run.trace {
        probes::run(workload, run, &mut res);
    }
    let metrics: Vec<Metric> = if run.trace {
        catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, res.layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        end_to_end(&res)
    };
    let usable = metrics.iter().all(|m| m.1.is_finite()) && res.attempted > 0;
    let correct = usable && res.checks.iter().all(|c| c.1);

    let mut full = Obj::new();
    full.str("workload", workload)
        .u64("seed", run.seed)
        .f64("seconds", run.seconds)
        .bool("trace", run.trace)
        .bool("smoke", run.smoke)
        .str("build_mode", build_mode)
        .u64("pool_threads", tinynn::pool::threads() as u64)
        .u64("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)
        .bool("correct", correct)
        .u64("attempted", res.attempted)
        .u64("failed", res.failed);
    if let Some(d) = res.digest {
        full.str("digest", &format!("{d:016x}"));
    }
    full.obj("checks", |o| {
        for (name, ok, detail) in &res.checks {
            o.str(name, &format!("{} ({detail})", if *ok { "ok" } else { "FAILED" }));
        }
    });
    full.obj("samples", |o| {
        summary_obj(o, "setup_s", &res.setup_s);
        summary_obj(o, "step_ms", &res.step.ms);
        summary_obj(o, "request_ms", &res.request.ms);
        for (name, samples) in &res.series {
            summary_obj(o, name, samples);
        }
    });
    // The slices behind the quiet quartiles, in time order.
    full.obj("slices", |o| {
        let step = slices(&res.step.at_s, &res.step.ms);
        o.f64_array("step_ms", &step.median)
            .f64_array("request_ms", &slices(&res.request.at_s, &res.request.ms).median)
            .f64_array("steps_per_s", &step.rate);
    });
    full.obj("metrics", |o| metrics_obj(o, &metrics));
    let path = run.out_dir.join(format!("result-{workload}-t{}.json", u8::from(run.trace)));
    std::fs::write(&path, full.finish() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    for (name, ok, detail) in &res.checks {
        eprintln!("check {name}: {} ({detail})", if *ok { "ok" } else { "FAILED" });
    }
    if !usable {
        return Err(format!("{workload}: a metric has no finite value: {metrics:?}"));
    }
    let mut line = Obj::new();
    line.bool("correct", correct)
        .u64("attempted", res.attempted)
        .u64("failed", res.failed)
        .obj("metrics", |o| metrics_obj(o, &metrics));
    println!("{}", line.finish());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cdbtune::Args::parse(&argv)?;
    if args.has("manifest") {
        print!("{}", catalog::manifest());
        return Ok(true);
    }
    if let Some(dir) = args.raw("report") {
        return report::report(Path::new(dir)).map(|()| true);
    }
    if let Some(pair) = args.raw("compare") {
        let (a, b) = pair.split_once(',').ok_or("--compare takes DIR_A,DIR_B")?;
        return report::compare(Path::new(a), Path::new(b));
    }
    if let Some(list) = args.raw("spread") {
        let dirs: Vec<&Path> = list.split(',').map(Path::new).collect();
        return report::spread(&dirs);
    }
    let run = RunArgs {
        seed: args.get("seed", 42u64)?,
        seconds: args.get("seconds", catalog::RUN_SECONDS as f64)?,
        trace: args.get("trace", 0u8)? != 0,
        smoke: args.get("smoke", 0u8)? != 0,
        out_dir: PathBuf::from(args.get("out-dir", "target/benchmark".to_string())?),
    };
    if !(run.seconds.is_finite() && run.seconds > 0.0) {
        return Err(format!("--seconds must be positive (got {})", run.seconds));
    }
    let build_mode = args.get("build-mode", "unknown".to_string())?;
    run_workload(args.required("workload")?, &run, &build_mode).map(|()| true)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark driver: {e}");
            std::process::exit(2);
        }
    }
}
