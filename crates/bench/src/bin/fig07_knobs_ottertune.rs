//! Figure 7: performance by increasing number of knobs, knobs sorted by
//! OtterTune's importance ranking (TPC-C on CDB-B).
//!
//! The ranking comes from OtterTune's own pipeline (correlation-strength
//! over observed samples — the Lasso-path stand-in). Shape to reproduce:
//! same as Figure 6, with the ranking-specific knee.

use baselines::ottertune::ranking::rank_knobs_by_correlation;
use baselines::{ConfigTuner, DbaTuner, OtterTune, RandomSearch, Regressor};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use cdbtune::ActionSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    knobs: usize,
    cdbtune_tps: f64,
    dba_tps: f64,
    ottertune_tps: f64,
}
persist_struct!(Row { knobs, cdbtune_tps, dba_tps, ottertune_tps });

fn main() {
    let lab = Lab::with_episodes(13, 36);
    let counts = [20usize, 100, 180, 266];

    // Stage 1: collect ranking samples over the full space with random
    // probes (OtterTune's sample-gathering phase), then rank.
    let mut env =
        lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, None);
    let mut rng = StdRng::seed_from_u64(lab.seed);
    let mut probe = RandomSearch;
    let probes = probe.tune(&mut env, 40, &mut rng);
    let order_in_space = rank_knobs_by_correlation(&probes.history);
    // Map action positions back to registry indices.
    let full_indices: Vec<usize> = env.space().indices().to_vec();
    let ranked: Vec<usize> = order_in_space.iter().map(|&p| full_indices[p]).collect();

    let mut rows = Vec::new();
    print_header(
        "Figure 7 — TPC-C on CDB-B, knobs in OtterTune importance order",
        &["knobs", "CDBTune tps", "DBA tps", "OtterTune tps"],
    );
    for &n in &counts {
        let subset: Vec<usize> = ranked.iter().take(n).copied().collect();
        let build_env = |seed: u64| {
            let lab2 = Lab { scale: lab.scale, seed };
            let mut e = lab2.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, None);
            let reg = std::sync::Arc::clone(e.engine().registry());
            e.set_space(ActionSpace::from_indices(&reg, subset.iter().copied()));
            e
        };
        let mut env = build_env(lab.seed);
        let (model, _) = lab.train_seeded(&mut env, |w| build_env(lab.seed + 1 + w as u64));
        let mut env = build_env(lab.seed);
        let cdb = lab.online(&mut env, &model);

        let mut env = build_env(lab.seed);
        let mut dba = DbaTuner::default();
        let d = dba.tune(&mut env, 5, &mut rng);

        let mut env = build_env(lab.seed);
        let mut ot = OtterTune::new(Regressor::GaussianProcess);
        let o = ot.tune(&mut env, 11, &mut rng);

        let row = Row {
            knobs: n,
            cdbtune_tps: cdb.best_perf.throughput_tps,
            dba_tps: d.best_perf.throughput_tps,
            ottertune_tps: o.best_perf.throughput_tps,
        };
        print_row(&[n.to_string(), fmt(row.cdbtune_tps), fmt(row.dba_tps), fmt(row.ottertune_tps)]);
        rows.push(row);
    }
    write_json("fig07_knobs_ottertune", &rows);
}
