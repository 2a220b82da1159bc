//! Extra ablation (§5.1 claim): "we add the method of priority experience
//! replay to accelerate the convergence, which increases the convergence
//! speed by a factor of two (half the number of iterations)."
//!
//! Trains the same environment with uniform vs prioritized replay and
//! reports iterations-to-converge and final quality. Shape to check:
//! prioritized converges in roughly half the iterations at equal-or-better
//! final performance.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::{MemoryKind, TrainerConfig};
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    memory: String,
    seed: u64,
    iterations: usize,
    best_throughput: f64,
}
persist_struct!(Row { memory, seed, iterations, best_throughput });

fn main() {
    let lab = Lab::with_episodes(53, 20);
    let mut rows = Vec::new();
    print_header(
        "Extra — prioritized vs uniform replay (Sysbench RW, 40 knobs)",
        &["memory", "seed", "iterations-to-converge", "best tps"],
    );
    for seed in [53u64, 54, 55] {
        for memory in [MemoryKind::Uniform, MemoryKind::Prioritized] {
            let lab2 = Lab { scale: lab.scale, seed };
            let mut env = lab2.env(
                EngineFlavor::MySqlCdb,
                HardwareConfig::cdb_a(),
                WorkloadKind::SysbenchRw,
                Some(40),
            );
            let trainer = TrainerConfig { memory, ..lab2.trainer_config() };
            let (_, report) = cdbtune::train_offline(&mut env, &trainer, Vec::new());
            let row = Row {
                memory: format!("{memory:?}"),
                seed,
                iterations: report.iterations_to_converge.unwrap_or(report.total_steps),
                best_throughput: report.best_throughput,
            };
            print_row(&[
                row.memory.clone(),
                seed.to_string(),
                row.iterations.to_string(),
                fmt(row.best_throughput),
            ]);
            rows.push(row);
        }
    }
    let mean = |m: &str| {
        let v: Vec<f64> =
            rows.iter().filter(|r| r.memory == m).map(|r| r.iterations as f64).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    println!(
        "\nmean iterations — uniform: {:.0}, prioritized: {:.0} (paper claims ~2x speedup)",
        mean("Uniform"),
        mean("Prioritized")
    );
    write_json("extra_per_ablation", &rows);
}
