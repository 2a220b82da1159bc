//! Figure 10: adaptability to memory-size changes — Sysbench WO. The model
//! trained on CDB-A's 8 GB is applied unchanged to CDB-X1 instances with
//! 4/12/32/64/128 GB (cross testing) and compared against a model trained
//! natively on each size (normal testing).
//!
//! Shape to reproduce: `M_8G→XG` ≈ `M_XG→XG` for every X — the model does
//! not need retraining when the user resizes memory.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Row {
    ram_gb: u32,
    cross_tps: f64,
    normal_tps: f64,
    cross_p99_ms: f64,
    normal_p99_ms: f64,
}
persist_struct!(Row { ram_gb, cross_tps, normal_tps, cross_p99_ms, normal_p99_ms });

fn main() {
    let lab = Lab::with_episodes(23, 20);
    let kind = WorkloadKind::SysbenchWo;
    let knobs = Some(40);

    // Train once on CDB-A (8 GB).
    let mut env = lab.env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, knobs);
    let (model_8g, _) = lab.train_seeded(&mut env, |w| {
        Lab { scale: lab.scale, seed: lab.seed + 1 + w as u64 }
            .env(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), kind, knobs)
    });

    let mut rows = Vec::new();
    print_header(
        "Figure 10 — Sysbench WO: M_8G→XG (cross) vs M_XG→XG (normal)",
        &["RAM (GB)", "cross tps", "normal tps", "cross p99", "normal p99"],
    );
    for ram in [4u32, 12, 32, 64, 128] {
        let hw = HardwareConfig::cdb_x1(ram);
        // Cross testing: the 8 GB model tunes the X-GB instance. The action
        // space is rebuilt for the target hardware (same knob list; ranges
        // scale with RAM) — exactly what deploying the model on a resized
        // instance means.
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let cross_model = retarget(&model_8g, &env);
        let cross = lab.online(&mut env, &cross_model);

        // Normal testing: a model trained natively on this size.
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let (native, _) = lab.train_seeded(&mut env, |w| {
            Lab { scale: lab.scale, seed: lab.seed + 100 + w as u64 }
                .env(EngineFlavor::MySqlCdb, hw, kind, knobs)
        });
        let mut env = lab.env(EngineFlavor::MySqlCdb, hw, kind, knobs);
        let normal = lab.online(&mut env, &native);

        let row = Row {
            ram_gb: ram,
            cross_tps: cross.best_perf.throughput_tps,
            normal_tps: normal.best_perf.throughput_tps,
            cross_p99_ms: cross.best_perf.p99_latency_ms(),
            normal_p99_ms: normal.best_perf.p99_latency_ms(),
        };
        print_row(&[
            ram.to_string(),
            fmt(row.cross_tps),
            fmt(row.normal_tps),
            fmt(row.cross_p99_ms),
            fmt(row.normal_p99_ms),
        ]);
        rows.push(row);
    }
    write_json("fig10_memory_adaptability", &rows);
}

/// Rebinds a trained model to a target environment's action space: the
/// knob list is the same (by name), but registry indices differ across
/// hardware-specific registries.
fn retarget(model: &cdbtune::TrainedModel, env: &cdbtune::DbEnv) -> cdbtune::TrainedModel {
    let mut m = model.clone();
    m.action_indices = env.space().indices().to_vec();
    assert_eq!(m.action_indices.len(), model.action_indices.len(), "same knob list");
    m
}
