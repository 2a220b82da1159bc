//! Reading suite runs back: `--report` prints every metric of one, and
//! `--compare` judges two against the end-to-end bounds.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use cdbtune::jsonio::Json;
use std::path::Path;

fn load(dir: &Path, workload: &str, trace: u8) -> Result<Json, String> {
    let path = dir.join(format!("result-{workload}-t{trace}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fields(j: &Json, key: &str) -> Vec<(String, Json)> {
    match j.get(key) {
        Some(Json::Obj(f)) => f.clone(),
        _ => Vec::new(),
    }
}

fn print_metrics(j: &Json) {
    for (name, m) in fields(j, "metrics") {
        println!("  {name:<40} {:>14.4} {}", m.num("value"), m.string("unit"));
    }
}

/// Prints every metric of the suite run in `dir`, by name, with its unit.
pub fn report(dir: &Path) -> Result<(), String> {
    for (workload, _) in WORKLOADS {
        let e2e = load(dir, workload, 0)?;
        println!(
            "== {workload}  seed {}  build {}  pool threads {}  nproc {}  correct {}  attempted {}  failed {}  digest {}",
            e2e.u64("seed"),
            e2e.string("build_mode"),
            e2e.u64("pool_threads"),
            e2e.u64("nproc"),
            e2e.boolean("correct"),
            e2e.u64("attempted"),
            e2e.u64("failed"),
            e2e.string("digest"),
        );
        for (name, verdict) in fields(&e2e, "checks") {
            if let Json::Str(v) = verdict {
                println!("  check {name}: {v}");
            }
        }
        println!(" end to end (tracing off)");
        print_metrics(&e2e);
        for (name, s) in fields(&e2e, "samples") {
            let tail = match s.get("tail") {
                Some(_) => format!("  p{} {:.4}", s.num("tail_percentile"), s.num("tail")),
                None => String::new(),
            };
            println!("  samples {name:<32} n {:<7} p50 {:.4}{tail}", s.u64("n"), s.num("p50"));
        }
        let layers = load(dir, workload, 1)?;
        println!(
            " per layer (traced run; correct {}  attempted {}  failed {})",
            layers.boolean("correct"),
            layers.u64("attempted"),
            layers.u64("failed"),
        );
        print_metrics(&layers);
    }
    Ok(())
}

/// True when a run reports failed operations or a failed output check;
/// says so.
fn unsound(workload: &str, j: &Json) -> bool {
    let bad = !j.boolean("correct") || j.u64("failed") > 0;
    if bad {
        println!("{workload:<16} FAIL: a run reports failures or a failed output check");
    }
    bad
}

fn metric(j: &Json, name: &str) -> f64 {
    j.get("metrics").and_then(|ms| ms.get(name)).map_or(f64::NAN, |v| v.num("value"))
}

/// Prints, per end-to-end metric and workload, the median over the untraced
/// runs in `dirs` (one per seed) and the distance between their first and
/// third quartile as a share of it, against the metric's bound. True when
/// every spread but `setup_s`'s is inside its bound; `steady` marks a spread
/// under a third of it.
pub fn spread(dirs: &[&Path]) -> Result<bool, String> {
    let mut all = true;
    println!(
        "{:<16} {:<16} {:>12} {:>8} {:>7}  over {} runs",
        "workload", "metric", "median", "spread", "bound", dirs.len()
    );
    for (workload, _) in WORKLOADS {
        let runs: Vec<Json> = dirs.iter().map(|d| load(d, workload, 0)).collect::<Result<_, _>>()?;
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|j| metric(j, m.name)).collect();
            let share = iqr_share(&values);
            let verdict = if share < m.bound / 3.0 {
                "steady"
            } else if share <= m.bound || m.name == "setup_s" {
                "inside the bound"
            } else {
                all = false;
                "FAIL"
            };
            println!(
                "{workload:<16} {:<16} {:>12.4} {:>7.2}% {:>6.0}%  {verdict}",
                m.name,
                median(&values),
                share * 100.0,
                m.bound * 100.0
            );
        }
        all &= !runs.iter().any(|j| unsound(workload, j));
    }
    Ok(all)
}

/// Prints, per end-to-end metric and workload, both values, how far apart
/// they are and PASS/FAIL against the metric's bound; true when all pass.
/// Two results of different build modes are not comparable and are refused.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let mut all = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "a", "b", "apart", "bound"
    );
    for (workload, _) in WORKLOADS {
        let (ja, jb) = (load(a, workload, 0)?, load(b, workload, 0)?);
        if ja.string("build_mode") != jb.string("build_mode") {
            return Err(format!(
                "{workload}: build modes differ ({} vs {}); results of different builds do not compare",
                ja.string("build_mode"),
                jb.string("build_mode")
            ));
        }
        for m in &END_TO_END {
            let (va, vb) = (metric(&ja, m.name), metric(&jb, m.name));
            let apart = (va - vb).abs() / va.min(vb);
            let pass = apart <= m.bound;
            all &= pass;
            println!(
                "{workload:<16} {:<16} {va:>12.4} {vb:>12.4} {:>7.2}% {:>6.0}% {}",
                m.name,
                apart * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        all &= !(unsound(workload, &ja) | unsound(workload, &jb));
        // Outputs are a function of the seed alone, within one build.
        if ja.u64("seed") == jb.u64("seed") && ja.get("digest").is_some() {
            let same = ja.string("digest") == jb.string("digest");
            all &= same;
            println!(
                "{workload:<16} digest {} {} {}",
                ja.string("digest"),
                jb.string("digest"),
                if same { "PASS (bit-identical)" } else { "FAIL (same seed, different outputs)" }
            );
        }
    }
    Ok(all)
}
