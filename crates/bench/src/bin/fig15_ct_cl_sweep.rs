//! Figure 15 (Appendix C.1.2): the throughput/latency coefficients. With
//! `C_T + C_L = 1`, sweep `C_T` from 0.1 to 0.9 and report the change rate
//! of throughput and latency relative to the `C_T = C_L = 0.5` benchmark.
//!
//! Shape to reproduce: throughput rises with `C_T` (and latency worsens),
//! with a steeper slope past 0.5.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::{EnvConfig, RewardConfig, RewardKind};
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    c_t: f64,
    throughput: f64,
    p99_ms: f64,
    throughput_rate: f64,
    latency_rate: f64,
}
persist_struct!(Row { c_t, throughput, p99_ms, throughput_rate, latency_rate });

fn run_with(lab: &Lab, c_t: f64) -> (f64, f64) {
    let build_env = |seed: u64| {
        let lab2 = Lab { scale: lab.scale, seed };
        let engine =
            simdb::Engine::new(EngineFlavor::MySqlCdb, lab2.hardware(HardwareConfig::cdb_a()), seed);
        let wl = workload::build_workload(WorkloadKind::SysbenchRw, lab2.scale.data);
        let probe = lab2.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), WorkloadKind::SysbenchRw, Some(40));
        let space = probe.space().clone();
        drop(probe);
        let cfg = EnvConfig {
            warmup_txns: lab2.scale.warmup_txns,
            measure_txns: lab2.scale.measure_txns,
            horizon: lab2.scale.train_steps.max(64),
            seed,
            reward: RewardConfig::new(RewardKind::CdbTune, c_t, 1.0 - c_t),
            ..EnvConfig::default()
        };
        cdbtune::DbEnv::new(engine, wl, space, cfg)
    };
    let mut env = build_env(lab.seed);
    let (model, _) = lab.train(&mut env);
    let mut env = build_env(lab.seed);
    let outcome = lab.online(&mut env, &model);
    (outcome.best_perf.throughput_tps, outcome.best_perf.p99_latency_ms())
}

fn main() {
    let lab = Lab::with_episodes(41, 20);
    let (bench_tps, bench_p99) = run_with(&lab, 0.5);

    let mut rows = Vec::new();
    print_header(
        "Figure 15 — C_T sweep (Sysbench RW; rates vs C_T = C_L = 0.5)",
        &["C_T", "throughput", "p99 (ms)", "T rate", "L rate"],
    );
    for ct10 in [1u32, 3, 5, 7, 9] {
        let c_t = f64::from(ct10) / 10.0;
        let (tps, p99) = if ct10 == 5 { (bench_tps, bench_p99) } else { run_with(&lab, c_t) };
        let row = Row {
            c_t,
            throughput: tps,
            p99_ms: p99,
            throughput_rate: tps / bench_tps,
            latency_rate: p99 / bench_p99,
        };
        print_row(&[
            format!("{c_t:.1}"),
            fmt(row.throughput),
            fmt(row.p99_ms),
            format!("{:.3}", row.throughput_rate),
            format!("{:.3}", row.latency_rate),
        ]);
        rows.push(row);
    }
    write_json("fig15_ct_cl_sweep", &rows);
}
