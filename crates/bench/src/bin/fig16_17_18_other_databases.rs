//! Figures 16–18 (Appendix C.3): other database systems.
//!
//! * Figure 16 — YCSB on MongoDB (CDB-E), 232 knobs,
//! * Figure 17 — TPC-C on PostgreSQL (CDB-D), 169 knobs,
//! * Figure 18 — TPC-C on local MySQL (CDB-C), 266 knobs.
//!
//! Shape to reproduce: CDBTune first on throughput and latency on every
//! engine — the tuner never sees anything engine-specific, only knob and
//! metric vectors.

use bench::harness::six_way_comparison;
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct FigureResult {
    figure: String,
    engine: String,
    workload: String,
    rows: Vec<(String, f64, f64)>,
}
persist_struct!(FigureResult { figure, engine, workload, rows });

fn main() {
    let lab = Lab::with_episodes(47, 60);
    let cases = [
        ("Figure 16", EngineFlavor::MongoDb, HardwareConfig::cdb_e(), WorkloadKind::Ycsb),
        ("Figure 17", EngineFlavor::Postgres, HardwareConfig::cdb_d(), WorkloadKind::TpcC),
        ("Figure 18", EngineFlavor::LocalMySql, HardwareConfig::cdb_c(), WorkloadKind::TpcC),
    ];
    let mut results = Vec::new();

    for (figure, flavor, hw, kind) in cases {
        let rows = six_way_comparison(&lab, flavor, hw, kind, None);
        print_header(
            &format!("{figure} — {kind:?} on {flavor:?} ({} knobs)", flavor.knob_count()),
            &["system", "throughput", "p99 (ms)"],
        );
        for r in &rows {
            print_row(&[r.system.clone(), fmt(r.throughput), fmt(r.p99_ms)]);
        }
        results.push(FigureResult {
            figure: figure.into(),
            engine: format!("{flavor:?}"),
            workload: format!("{kind:?}"),
            rows: rows.iter().map(|r| (r.system.clone(), r.throughput, r.p99_ms)).collect(),
        });
    }
    write_json("fig16_17_18_other_databases", &results);
}
