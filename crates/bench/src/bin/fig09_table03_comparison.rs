//! Figure 9 + Table 3: the headline comparison. Throughput and 99th-%ile
//! latency of CDBTune, MySQL default, BestConfig, CDB default, DBA and
//! OtterTune on Sysbench RW / RO / WO (CDB-A), plus Table 3's improvement
//! percentages of CDBTune over BestConfig, DBA and OtterTune.
//!
//! Orderings to reproduce: CDBTune first on throughput and latency for all
//! three workloads, with the largest margin on write-only; defaults last.

use bench::harness::{six_way_comparison, ComparisonRow};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct WorkloadResult {
    workload: String,
    rows: Vec<(String, f64, f64)>,
}
persist_struct!(WorkloadResult { workload, rows });

fn main() {
    // The headline comparison gets the full training budget and the full
    // measurement windows (everything else trades budget for suite wall
    // time on a single core).
    let mut lab = Lab::with_episodes(42, 100);
    if std::env::var("CDBTUNE_QUICK").is_err() {
        lab.scale.measure_txns = 400;
        lab.scale.warmup_txns = 80;
    }
    let mut results = Vec::new();
    let mut table3: Vec<(String, f64, f64, f64, f64, f64, f64)> = Vec::new();

    for kind in [WorkloadKind::SysbenchRw, WorkloadKind::SysbenchRo, WorkloadKind::SysbenchWo] {
        let rows =
            six_way_comparison(&lab, EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, None);
        print_header(
            &format!("Figure 9 — Sysbench {} on CDB-A (266 knobs)", kind.label()),
            &["system", "throughput", "p99 (ms)"],
        );
        for r in &rows {
            print_row(&[r.system.clone(), fmt(r.throughput), fmt(r.p99_ms)]);
        }
        let find = |name: &str| -> &ComparisonRow {
            rows.iter().find(|r| r.system == name).expect("row present")
        };
        let cdb = find("CDBTune");
        let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
        let lat_pct = |a: f64, b: f64| (1.0 - a / b) * 100.0;
        table3.push((
            kind.label().to_string(),
            pct(cdb.throughput, find("BestConfig").throughput),
            lat_pct(cdb.p99_ms, find("BestConfig").p99_ms),
            pct(cdb.throughput, find("DBA").throughput),
            lat_pct(cdb.p99_ms, find("DBA").p99_ms),
            pct(cdb.throughput, find("OtterTune").throughput),
            lat_pct(cdb.p99_ms, find("OtterTune").p99_ms),
        ));
        results.push(WorkloadResult {
            workload: kind.label().into(),
            rows: rows.iter().map(|r| (r.system.clone(), r.throughput, r.p99_ms)).collect(),
        });
    }

    print_header(
        "Table 3 — CDBTune improvement: ↑throughput / ↓latency vs each tool (%)",
        &["workload", "vs BestConfig T", "L", "vs DBA T", "L", "vs OtterTune T", "L"],
    );
    for (wl, bt, bl, dt, dl, ot, ol) in &table3 {
        print_row(&[
            wl.clone(),
            format!("↑{:.1}%", bt),
            format!("↓{:.1}%", bl),
            format!("↑{:.1}%", dt),
            format!("↓{:.1}%", dl),
            format!("↑{:.1}%", ot),
            format!("↓{:.1}%", ol),
        ]);
    }
    write_json("fig09_table03_comparison", &(results, table3));
}
