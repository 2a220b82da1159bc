//! Figure 6: performance by increasing number of knobs, knobs sorted by the
//! DBA's importance ranking (TPC-C on CDB-B).
//!
//! Shape to reproduce: CDBTune improves then stays high as knobs grow;
//! DBA and OtterTune peak and then *decline* once the knob space outgrows
//! what ranking + regression can handle.

use baselines::{ConfigTuner, DbaTuner, OtterTune, Regressor};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    knobs: usize,
    cdbtune_tps: f64,
    cdbtune_p99_ms: f64,
    dba_tps: f64,
    dba_p99_ms: f64,
    ottertune_tps: f64,
    ottertune_p99_ms: f64,
}
persist_struct!(Row {
    knobs, cdbtune_tps, cdbtune_p99_ms, dba_tps, dba_p99_ms, ottertune_tps, ottertune_p99_ms,
});

fn main() {
    let lab = Lab::with_episodes(11, 36);
    let counts = [20usize, 100, 180, 266];
    let mut rows = Vec::new();

    print_header(
        "Figure 6 — TPC-C on CDB-B, knobs in DBA importance order",
        &["knobs", "CDBTune tps", "DBA tps", "OtterTune tps", "CDBTune p99", "DBA p99", "OT p99"],
    );
    for &n in &counts {
        // CDBTune: train + 5 online steps in the n-knob space.
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, Some(n));
        let (model, _) = lab.train(&mut env);
        let cdb = lab.online(&mut env, &model);

        let mut rng = StdRng::seed_from_u64(lab.seed + n as u64);
        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, Some(n));
        let mut dba = DbaTuner::default();
        let d = dba.tune(&mut env, 5, &mut rng);

        let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_b(), WorkloadKind::TpcC, Some(n));
        let mut ot = OtterTune::new(Regressor::GaussianProcess);
        let o = ot.tune(&mut env, 11, &mut rng);

        let row = Row {
            knobs: n,
            cdbtune_tps: cdb.best_perf.throughput_tps,
            cdbtune_p99_ms: cdb.best_perf.p99_latency_ms(),
            dba_tps: d.best_perf.throughput_tps,
            dba_p99_ms: d.best_perf.p99_latency_us / 1000.0,
            ottertune_tps: o.best_perf.throughput_tps,
            ottertune_p99_ms: o.best_perf.p99_latency_us / 1000.0,
        };
        print_row(&[
            n.to_string(),
            fmt(row.cdbtune_tps),
            fmt(row.dba_tps),
            fmt(row.ottertune_tps),
            fmt(row.cdbtune_p99_ms),
            fmt(row.dba_p99_ms),
            fmt(row.ottertune_p99_ms),
        ]);
        rows.push(row);
    }
    write_json("fig06_knobs_dba", &rows);
}
