//! Figure 1(a)(b): OtterTune and OtterTune-with-deep-learning throughput as
//! the number of training samples grows, against the MySQL-default and
//! DBA horizontal reference lines — the motivation figure: more samples do
//! *not* rescue the pipelined regression approach.
//!
//! Paper setup: TPC-H (a) and Sysbench RW (b) on CDB; samples 2k→12k.
//! Here samples scale down with everything else; the shape to check is the
//! early plateau of both OtterTune variants below the DBA line.

use baselines::{ConfigTuner, DbaTuner, OtterTune, Regressor};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Series {
    workload: String,
    samples: Vec<usize>,
    ottertune: Vec<f64>,
    ottertune_dl: Vec<f64>,
    mysql_default: f64,
    dba: f64,
}
persist_struct!(Series { workload, samples, ottertune, ottertune_dl, mysql_default, dba });

fn best_so_far(history: &[baselines::Evaluation], marks: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(marks.len());
    let mut best: f64 = 0.0;
    let mut cursor = 0;
    for &m in marks {
        while cursor < m.min(history.len()) {
            if !history[cursor].crashed {
                best = best.max(history[cursor].throughput);
            }
            cursor += 1;
        }
        out.push(best);
    }
    out
}

fn main() {
    let lab = Lab::new(1);
    let budget = 48;
    let marks: Vec<usize> = (1..=8).map(|i| i * budget / 8).collect();

    let mut results = Vec::new();
    for (kind, hw) in
        [(WorkloadKind::TpcH, HardwareConfig::cdb_a()), (WorkloadKind::SysbenchRw, HardwareConfig::cdb_a())]
    {
        let mut rng = StdRng::seed_from_u64(lab.seed);

        // Reference lines.
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, Some(30));
        let default_cfg = env.engine().registry().default_config();
        let mysql_default = lab.measure_config(&mut env, default_cfg).throughput_tps;
        let mut dba = DbaTuner::default();
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, Some(30));
        let dba_tps = dba.tune(&mut env, 5, &mut rng).best_perf.throughput_tps;

        // OtterTune variants over growing sample budgets.
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, Some(30));
        let mut ot = OtterTune::new(Regressor::GaussianProcess);
        let gp = ot.tune(&mut env, budget, &mut rng);
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, Some(30));
        let mut otdl = OtterTune::new(Regressor::DeepLearning);
        let dl = otdl.tune(&mut env, budget, &mut rng);

        let series = Series {
            workload: format!("{kind:?}"),
            samples: marks.clone(),
            ottertune: best_so_far(&gp.history, &marks),
            ottertune_dl: best_so_far(&dl.history, &marks),
            mysql_default,
            dba: dba_tps,
        };

        print_header(
            &format!("Figure 1(a/b) — {} on CDB", series.workload),
            &["samples", "OtterTune", "OtterTune+DL", "MySQL default", "DBA"],
        );
        for (i, &m) in marks.iter().enumerate() {
            print_row(&[
                m.to_string(),
                fmt(series.ottertune[i]),
                fmt(series.ottertune_dl[i]),
                fmt(mysql_default),
                fmt(dba_tps),
            ]);
        }
        results.push(series);
    }
    write_json("fig01_ottertune_samples", &results);
}
