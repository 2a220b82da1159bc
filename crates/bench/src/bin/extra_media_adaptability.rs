//! Extra experiment (§5.3.2): "we have conducted similar experiments on
//! different hardware media, e.g., SSD and NVM, and we get similar results,
//! which are omitted due to the limited space." — here they are.
//!
//! A model trained on an SSD instance is cross-applied to HDD and NVM
//! instances and compared against natively trained models.

use bench::report::{fmt, print_header, print_row, write_json};
use bench::Lab;
use cdbtune::persist_struct;
use simdb::{EngineFlavor, HardwareConfig, MediaType};
use workload::WorkloadKind;

struct Row {
    media: String,
    cross_tps: f64,
    normal_tps: f64,
    default_tps: f64,
}
persist_struct!(Row { media, cross_tps, normal_tps, default_tps });

fn main() {
    let lab = Lab::with_episodes(61, 20);
    let kind = WorkloadKind::SysbenchRw;
    let knobs = 40usize;
    let hw_with = |media: MediaType| {
        let base = lab.hardware(HardwareConfig::cdb_a());
        HardwareConfig::new(base.ram_gb, base.disk_gb, media, base.cpu_cores)
    };
    // Lab scales hardware internally, so build envs directly at scaled size.
    let build_env = |media: MediaType, seed: u64| {
        let lab2 = Lab { scale: lab.scale, seed };
        let engine = simdb::Engine::new(EngineFlavor::MySqlCdb, hw_with(media), seed);
        let wl = workload::build_workload(kind, lab2.scale.data);
        let registry = EngineFlavor::MySqlCdb.registry(&hw_with(media));
        let ranking = baselines::DbaTuner::knob_ranking(&registry);
        let space = cdbtune::ActionSpace::from_indices(
            &registry,
            ranking.into_iter().take(knobs),
        );
        let cfg = cdbtune::EnvConfig {
            warmup_txns: lab2.scale.warmup_txns,
            measure_txns: lab2.scale.measure_txns,
            horizon: lab2.scale.train_steps.max(64),
            seed,
            ..Default::default()
        };
        cdbtune::DbEnv::new(engine, wl, space, cfg)
    };

    // Train once on SSD.
    let mut env = build_env(MediaType::Ssd, lab.seed);
    let (model_ssd, _) = lab.train(&mut env);

    let mut rows = Vec::new();
    print_header(
        "Extra — media adaptability (Sysbench RW): M_SSD→media vs native",
        &["media", "cross tps", "normal tps", "default tps"],
    );
    for media in [MediaType::Ssd, MediaType::Hdd, MediaType::Nvm] {
        let mut env = build_env(media, lab.seed + 5);
        let mut cross_model = model_ssd.clone();
        cross_model.action_indices = env.space().indices().to_vec();
        let cross = lab.online(&mut env, &cross_model);

        let mut env = build_env(media, lab.seed + 6);
        let (native, _) = lab.train(&mut env);
        let mut env = build_env(media, lab.seed + 7);
        let normal = lab.online(&mut env, &native);

        let mut env = build_env(media, lab.seed + 8);
        let default_cfg = env.engine().registry().default_config();
        let default_perf = lab.measure_config(&mut env, default_cfg);

        let row = Row {
            media: format!("{media:?}"),
            cross_tps: cross.best_perf.throughput_tps,
            normal_tps: normal.best_perf.throughput_tps,
            default_tps: default_perf.throughput_tps,
        };
        print_row(&[
            row.media.clone(),
            fmt(row.cross_tps),
            fmt(row.normal_tps),
            fmt(row.default_tps),
        ]);
        rows.push(row);
    }
    write_json("extra_media_adaptability", &rows);
}
