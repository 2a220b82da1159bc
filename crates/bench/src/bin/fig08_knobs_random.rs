//! Figure 8: performance and training iterations by increasing number of
//! knobs, knobs randomly selected by CDBTune with *nested* subsets ("the 40
//! selected knobs must contain the 20 selected knobs") — TPC-C on CDB-B.
//!
//! Shape to reproduce: throughput improves as knobs are added, then
//! saturates once the impactful knobs are covered; training iterations grow
//! with the action dimensionality.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::ActionSpace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    knobs: usize,
    throughput: f64,
    p99_ms: f64,
    iterations: usize,
}
persist_struct!(Row { knobs, throughput, p99_ms, iterations });

fn main() {
    let lab = Lab::with_episodes(17, 36);
    let counts = [20usize, 100, 180, 266];

    // One global random permutation → nested subsets by prefix.
    let probe = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, None);
    let mut all: Vec<usize> = probe.space().indices().to_vec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(lab.seed);
    all.shuffle(&mut rng);
    drop(probe);

    let mut rows = Vec::new();
    print_header(
        "Figure 8 — TPC-C on CDB-B, nested random knob subsets (CDBTune)",
        &["knobs", "throughput", "p99 (ms)", "iterations"],
    );
    for &n in &counts {
        let subset: Vec<usize> = all.iter().take(n).copied().collect();
        let build_env = |seed: u64| {
            let mut lab2 = Lab { scale: lab.scale, seed };
            lab2.scale.train_episodes = 1;
            let mut e = lab2.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, None);
            let reg = std::sync::Arc::clone(e.engine().registry());
            e.set_space(ActionSpace::from_indices(&reg, subset.iter().copied()));
            e
        };
        let mut env = build_env(lab.seed);
        let (model, report) = lab.train_seeded(&mut env, |w| build_env(lab.seed + 1 + w as u64));
        let mut env = build_env(lab.seed);
        let outcome = lab.online(&mut env, &model);

        let row = Row {
            knobs: n,
            throughput: outcome.best_perf.throughput_tps,
            p99_ms: outcome.best_perf.p99_latency_ms(),
            // Iterations to converge, or the full budget when the tracker
            // never settled (more knobs converge later — the paper's lower
            // panel).
            iterations: report.iterations_to_converge.unwrap_or(report.total_steps),
        };
        print_row(&[
            n.to_string(),
            fmt(row.throughput),
            fmt(row.p99_ms),
            row.iterations.to_string(),
        ]);
        rows.push(row);
    }
    write_json("fig08_knobs_random", &rows);
}
