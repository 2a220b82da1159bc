//! Figure 14 (Appendix C.1.1): reward-function ablation. RF-A (previous
//! step only), RF-B (initial settings only), RF-C (no zero-clamp) and
//! RF-CDBTune are each used to train a model on TPC-C (CDB-C) and Sysbench
//! RW / RO (CDB-A); the figure reports iterations-to-converge and the
//! performance of the recommended configuration.
//!
//! Shape to reproduce: RF-B converges fastest but to the worst performance;
//! RF-A and RF-C converge slowest (RF-C slower than RF-A); RF-CDBTune pairs
//! near-best convergence speed with the best performance.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::{EnvConfig, RewardConfig, RewardKind};
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    workload: String,
    reward: String,
    iterations: usize,
    throughput: f64,
    p99_ms: f64,
}
persist_struct!(Row { workload, reward, iterations, throughput, p99_ms });

fn main() {
    let lab = Lab::with_episodes(37, 20);
    let cases = [
        (WorkloadKind::TpcC, HardwareConfig::cdb_c()),
        (WorkloadKind::SysbenchRw, HardwareConfig::cdb_a()),
        (WorkloadKind::SysbenchRo, HardwareConfig::cdb_a()),
    ];
    let mut rows = Vec::new();

    for (kind, hw) in cases {
        print_header(
            &format!("Figure 14 — reward-function ablation on {}", kind.label()),
            &["reward", "iterations", "throughput", "p99 (ms)"],
        );
        for rf in RewardKind::ALL {
            let build_env = |seed: u64| {
                let lab2 = Lab { scale: lab.scale, seed };
                let env = lab2.env(EngineFlavor::MySqlCdb, hw, kind, Some(40));
                // Rebuild with the ablated reward: EnvConfig is fixed at
                // construction, so construct directly.
                let engine = simdb::Engine::new(EngineFlavor::MySqlCdb, lab2.hardware(hw), seed);
                let wl = workload::build_workload(kind, lab2.scale.data);
                let space = env.space().clone();
                let cfg = EnvConfig {
                    warmup_txns: lab2.scale.warmup_txns,
                    measure_txns: lab2.scale.measure_txns,
                    horizon: lab2.scale.train_steps.max(64),
                    seed,
                    reward: RewardConfig { kind: rf, ..RewardConfig::default() },
                    ..EnvConfig::default()
                };
                drop(env);
                cdbtune::DbEnv::new(engine, wl, space, cfg)
            };
            let mut env = build_env(lab.seed);
            let (model, report) = lab.train(&mut env);
            let mut env = build_env(lab.seed);
            let outcome = lab.online(&mut env, &model);

            let row = Row {
                workload: kind.label().into(),
                reward: rf.label().into(),
                iterations: report.iterations_to_converge.unwrap_or(report.total_steps),
                throughput: outcome.best_perf.throughput_tps,
                p99_ms: outcome.best_perf.p99_latency_ms(),
            };
            print_row(&[
                row.reward.clone(),
                row.iterations.to_string(),
                fmt(row.throughput),
                fmt(row.p99_ms),
            ]);
            rows.push(row);
        }
    }
    write_json("fig14_reward_functions", &rows);
}
