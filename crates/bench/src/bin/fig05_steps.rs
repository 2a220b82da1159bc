//! Figure 5: performance by increasing the number of online tuning steps
//! (5 → 50), Sysbench RW/RO/WO on CDB-A.
//!
//! The paper's observations to reproduce: CDBTune already beats the field
//! within the first 5 steps, keeps improving (with occasional exploration
//! outliers) as steps accumulate, while OtterTune stays flat with more
//! iterations.

use baselines::{ConfigTuner, OtterTune, Regressor};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::{tune_online, OnlineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Series {
    workload: String,
    steps: Vec<usize>,
    cdbtune_tps: Vec<f64>,
    cdbtune_p99_ms: Vec<f64>,
    ottertune_tps: Vec<f64>,
}
persist_struct!(Series { workload, steps, cdbtune_tps, cdbtune_p99_ms, ottertune_tps });

fn main() {
    let lab = Lab::new(7);
    let marks: Vec<usize> = (1..=10).map(|i| i * 5).collect();
    let mut all = Vec::new();

    for kind in [WorkloadKind::SysbenchRw, WorkloadKind::SysbenchRo, WorkloadKind::SysbenchWo] {
        // Offline model once per workload.
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, Some(40));
        let (model, _) = lab.train(&mut env);

        // One long 50-step online session; report best-so-far at each mark.
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, Some(40));
        let cfg = OnlineConfig { max_steps: 50, noise_sigma: 0.08, seed: lab.seed, ..OnlineConfig::default() };
        let outcome = tune_online(&mut env, &model, &cfg);
        let mut best_tps: f64 = 0.0;
        let mut best_p99 = f64::MAX;
        let mut cdb_tps = Vec::new();
        let mut cdb_p99 = Vec::new();
        let mut cursor = 0;
        for &m in &marks {
            while cursor < m.min(outcome.steps.len()) {
                let s = &outcome.steps[cursor];
                if !s.crashed && s.throughput_tps > best_tps {
                    best_tps = s.throughput_tps;
                    best_p99 = s.p99_latency_us / 1000.0;
                }
                cursor += 1;
            }
            cdb_tps.push(best_tps);
            cdb_p99.push(best_p99);
        }

        // OtterTune with the same step budget.
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, Some(40));
        let mut ot = OtterTune::new(Regressor::GaussianProcess);
        let mut rng = StdRng::seed_from_u64(lab.seed);
        let r = ot.tune(&mut env, 50, &mut rng);
        let mut ot_tps = Vec::new();
        let mut best: f64 = 0.0;
        let mut cursor = 0;
        for &m in &marks {
            while cursor < m.min(r.history.len()) {
                if !r.history[cursor].crashed {
                    best = best.max(r.history[cursor].throughput);
                }
                cursor += 1;
            }
            ot_tps.push(best);
        }

        print_header(
            &format!("Figure 5 — {} (CDB-A): best-so-far vs tuning steps", kind.label()),
            &["steps", "CDBTune tps", "CDBTune p99(ms)", "OtterTune tps"],
        );
        for (i, &m) in marks.iter().enumerate() {
            print_row(&[m.to_string(), fmt(cdb_tps[i]), fmt(cdb_p99[i]), fmt(ot_tps[i])]);
        }
        all.push(Series {
            workload: kind.label().into(),
            steps: marks.clone(),
            cdbtune_tps: cdb_tps,
            cdbtune_p99_ms: cdb_p99,
            ottertune_tps: ot_tps,
        });
    }
    write_json("fig05_steps", &all);
}
