//! Figure 11: adaptability to disk-capacity changes — Sysbench RO. The
//! model trained on CDB-C's 200 GB disk is applied unchanged to CDB-X2
//! instances with 32/64/100/256/512 GB (cross testing) vs natively trained
//! models (normal testing).

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    disk_gb: u32,
    cross_tps: f64,
    normal_tps: f64,
    cross_p99_ms: f64,
    normal_p99_ms: f64,
}
persist_struct!(Row { disk_gb, cross_tps, normal_tps, cross_p99_ms, normal_p99_ms });

fn main() {
    let lab = Lab::with_episodes(29, 20);
    let kind = WorkloadKind::SysbenchRo;
    let knobs = Some(40);

    let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_c(), kind, knobs);
    let (model_200g, _) = lab.train_seeded(&mut env, |w| {
        Lab { scale: lab.scale, seed: lab.seed + 1 + w as u64 }
            .env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_c(), kind, knobs)
    });

    let mut rows = Vec::new();
    print_header(
        "Figure 11 — Sysbench RO: M_200G→XG disk (cross) vs M_XG→XG (normal)",
        &["disk (GB)", "cross tps", "normal tps", "cross p99", "normal p99"],
    );
    for disk in [32u32, 64, 100, 256, 512] {
        let hw = HardwareConfig::cdb_x2(disk);
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let mut cross_model = model_200g.clone();
        cross_model.action_indices = env.space().indices().to_vec();
        let cross = lab.online(&mut env, &cross_model);

        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let (native, _) = lab.train_seeded(&mut env, |w| {
            Lab { scale: lab.scale, seed: lab.seed + 100 + w as u64 }
                .env(EngineFlavor::MySqlCdb, hw, kind, knobs)
        });
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let normal = lab.online(&mut env, &native);

        let row = Row {
            disk_gb: disk,
            cross_tps: cross.best_perf.throughput_tps,
            normal_tps: normal.best_perf.throughput_tps,
            cross_p99_ms: cross.best_perf.p99_latency_ms(),
            normal_p99_ms: normal.best_perf.p99_latency_ms(),
        };
        print_row(&[
            disk.to_string(),
            fmt(row.cross_tps),
            fmt(row.normal_tps),
            fmt(row.cross_p99_ms),
            fmt(row.normal_p99_ms),
        ]);
        rows.push(row);
    }
    write_json("fig11_disk_adaptability", &rows);
}
