//! Figure 12: adaptability to workload change (CDB-C). The model trained on
//! Sysbench read-write is applied to TPC-C (`M_RW→TPC-C`, cross testing)
//! and compared with a model trained on TPC-C itself (`M_TPC-C→TPC-C`,
//! normal testing), alongside the usual comparison bars.
//!
//! Shape to reproduce: the cross-tested model performs only slightly below
//! the natively trained one, and both beat every baseline.

use baselines::{BestConfig, ConfigTuner, DbaTuner, OtterTune, Regressor};
use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::{EngineFlavor, HardwareConfig};
use workload::WorkloadKind;

struct Bars {
    rows: Vec<(String, f64, f64)>,
}
persist_struct!(Bars { rows });

fn main() {
    let lab = Lab::with_episodes(31, 28);
    let hw = HardwareConfig::cdb_c();
    let knobs = Some(40);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(lab.seed);

    // Baselines on TPC-C.
    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let default_cfg = env.engine().registry().default_config();
    let perf = lab.measure_config(&mut env, default_cfg);
    rows.push(("MySQL default".into(), perf.throughput_tps, perf.p99_latency_ms()));

    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let mut bc = BestConfig::default();
    let r = bc.tune(&mut env, 50, &mut rng);
    rows.push(("BestConfig".into(), r.best_perf.throughput_tps, r.best_perf.p99_latency_us / 1000.0));

    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let mut dba = DbaTuner::default();
    let r = dba.tune(&mut env, 5, &mut rng);
    rows.push(("DBA".into(), r.best_perf.throughput_tps, r.best_perf.p99_latency_us / 1000.0));

    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let mut ot = OtterTune::new(Regressor::GaussianProcess);
    let r = ot.tune(&mut env, 11, &mut rng);
    rows.push(("OtterTune".into(), r.best_perf.throughput_tps, r.best_perf.p99_latency_us / 1000.0));

    // Cross testing: train on Sysbench RW, tune TPC-C.
    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::SysbenchRw, knobs);
    let (model_rw, _) = lab.train_seeded(&mut env, |w| {
        Lab { scale: lab.scale, seed: lab.seed + 1 + w as u64 }
            .env(EngineFlavor::MySqlCdb, hw, WorkloadKind::SysbenchRw, knobs)
    });
    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let mut cross_model = model_rw.clone();
    cross_model.action_indices = env.space().indices().to_vec();
    let cross = lab.online(&mut env, &cross_model);
    rows.push(("M_RW→TPC-C".into(), cross.best_perf.throughput_tps, cross.best_perf.p99_latency_ms()));

    // Normal testing: train on TPC-C, tune TPC-C.
    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let (model_tpcc, _) = lab.train_seeded(&mut env, |w| {
        Lab { scale: lab.scale, seed: lab.seed + 100 + w as u64 }
            .env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs)
    });
    let mut env = lab.env(EngineFlavor::MySqlCdb, hw, WorkloadKind::TpcC, knobs);
    let normal = lab.online(&mut env, &model_tpcc);
    rows.push(("M_TPC-C→TPC-C".into(), normal.best_perf.throughput_tps, normal.best_perf.p99_latency_ms()));

    print_header(
        "Figure 12 — model trained on Sysbench RW applied to TPC-C (CDB-C)",
        &["system", "throughput", "p99 (ms)"],
    );
    for (name, tps, p99) in &rows {
        print_row(&[name.clone(), fmt(*tps), fmt(*p99)]);
    }
    write_json("fig12_workload_adaptability", &Bars { rows });
}
