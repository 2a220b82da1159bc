//! Cross-crate integration tests: the full Figure 2 lifecycle, model
//! persistence, trace replay, and crash handling, wired through every
//! workspace crate.

use cdbtune::{
    ActionSpace, CdbTune, DbEnv, EnvConfig, OnlineConfig, TrainedModel, TrainerConfig,
};
use rand::SeedableRng;
use simdb::{Engine, EngineFlavor, HardwareConfig, MediaType};
use workload::{build_workload, WorkloadKind, WorkloadTrace};

fn tiny_env(kind: WorkloadKind, seed: u64) -> DbEnv {
    let hw = HardwareConfig::new(1, 12, MediaType::Ssd, 12);
    let engine = Engine::new(EngineFlavor::MySqlCdb, hw, seed);
    let registry = EngineFlavor::MySqlCdb.registry(&hw);
    let ranking = baselines::DbaTuner::knob_ranking(&registry);
    let space = ActionSpace::from_indices(&registry, ranking.into_iter().take(12));
    let cfg = EnvConfig {
        warmup_txns: 20,
        measure_txns: 120,
        horizon: 8,
        seed,
        ..EnvConfig::default()
    };
    DbEnv::new(engine, build_workload(kind, 0.02), space, cfg)
}

fn smoke_trainer() -> TrainerConfig {
    TrainerConfig { episodes: 4, steps_per_episode: 8, ..TrainerConfig::smoke() }
}

#[test]
fn full_lifecycle_improves_over_defaults() {
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 1);
    let mut system = CdbTune::new(smoke_trainer(), OnlineConfig::default());
    let report = system.train_offline(&mut env, Vec::new());
    assert!(report.total_steps >= 32);
    assert!(report.best_throughput > 0.0);

    let outcome = system.handle_tuning_request(&mut env, None);
    assert!(outcome.best_perf.throughput_tps >= outcome.initial_perf.throughput_tps);
    // The 63-metric state drove everything.
    assert_eq!(simdb::TOTAL_METRIC_COUNT, 63);
}

#[test]
fn model_roundtrips_through_json_and_keeps_tuning() {
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 2);
    let (model, _) = cdbtune::train_offline(&mut env, &smoke_trainer(), Vec::new());
    let json = model.to_json();
    let restored = TrainedModel::from_json(&json).expect("valid JSON model");
    assert_eq!(restored.action_indices, model.action_indices);

    let mut env2 = tiny_env(WorkloadKind::SysbenchRw, 3);
    let outcome = cdbtune::tune_online(&mut env2, &restored, &OnlineConfig::default());
    assert!(outcome.best_perf.throughput_tps > 0.0);
}

#[test]
fn trace_replay_request_uses_recorded_transactions() {
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 4);
    let mut system = CdbTune::new(smoke_trainer(), OnlineConfig { max_steps: 2, ..Default::default() });
    let _ = system.train_offline(&mut env, Vec::new());

    // Record a user's read-only trace and replay it as the tuning workload.
    let mut src = build_workload(WorkloadKind::SysbenchRo, 0.02);
    let mut probe =
        Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::new(1, 12, MediaType::Ssd, 12), 9);
    src.setup(&mut probe);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let trace = WorkloadTrace::record(src.as_mut(), 60, &mut rng);
    assert!(trace.txns.iter().all(|t| !t.is_write()), "RO trace has no writes");

    let outcome = system.handle_tuning_request(&mut env, Some(&trace));
    assert!(outcome.best_perf.throughput_tps > 0.0);
    assert_eq!(system.requests_served(), 1);
}

#[test]
fn crash_configs_are_survivable_during_training() {
    // A 2-knob space over exactly the crash-prone redo-log knobs: training
    // must ride out crashes (−100 reward) and still produce a model.
    let hw = HardwareConfig::new(1, 4, MediaType::Ssd, 12); // tiny disk
    let engine = Engine::new(EngineFlavor::MySqlCdb, hw, 6);
    let registry = EngineFlavor::MySqlCdb.registry(&hw);
    let space = ActionSpace::from_names(
        &registry,
        ["innodb_log_file_size", "innodb_log_files_in_group"],
    )
    .unwrap();
    let cfg = EnvConfig { warmup_txns: 10, measure_txns: 60, horizon: 8, ..Default::default() };
    let mut env = DbEnv::new(engine, build_workload(WorkloadKind::SysbenchWo, 0.02), space, cfg);
    let (_, report) = cdbtune::train_offline(&mut env, &smoke_trainer(), Vec::new());
    assert!(report.crashes > 0, "exploration must hit the crash region on a 4 GiB disk");
    assert!(report.best_throughput > 0.0, "and still find healthy configurations");
    assert!(env.engine().is_running(), "environment recovered after every crash");
}

#[test]
fn faulted_training_completes_with_nonzero_recovery_stats() {
    // The ISSUE acceptance scenario: restart failures, straggler windows,
    // and 10 % metric dropout at a fixed seed — a full train_offline smoke
    // run completes without panicking and the recovery counters prove the
    // resilience paths actually ran.
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 11);
    let plan: simdb::FaultPlan = "restart=0.25,straggler=0.2x4,dropout=0.1,seed=5"
        .parse()
        .expect("valid fault spec");
    env.engine_mut().set_fault_plan(Some(plan));
    let (model, report) = cdbtune::train_offline(&mut env, &smoke_trainer(), Vec::new());
    assert_eq!(report.total_steps, 32, "every step completed despite the faults");
    assert!(report.recovery.retries > 0, "25% restart failures force retries");
    assert!(report.recovery.imputed_metrics > 0, "10% dropout forces imputation");
    assert!(report.reward_history.iter().all(|r| r.is_finite()));
    assert!(model.processor.observations() > 0);
    assert!(env.engine().is_running(), "the tuning loop never wedged the instance");
    let stats = env.engine().fault_stats();
    assert!(
        stats.restart_failures + stats.straggler_windows + stats.dropped_metrics > 0,
        "the plan injected real faults"
    );
}

#[test]
fn killed_training_resumes_to_the_same_step_count() {
    // Mid-run kill + resume reaches the same total step count as an
    // uninterrupted run (crash-safe checkpointing acceptance criterion).
    let dir = std::env::temp_dir().join(format!("cdbtune-e2e-ckpt-{}", std::process::id()));
    let dir = dir.to_string_lossy().into_owned();
    let _ = std::fs::remove_dir_all(&dir);
    let full = TrainerConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every_steps: 3,
        ..smoke_trainer()
    };
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 12);
    let (_, uninterrupted) = cdbtune::train_offline(&mut env, &full, Vec::new());
    let _ = std::fs::remove_dir_all(&dir);

    // "Kill" after 2 of 4 episodes, then resume from the last checkpoint.
    let cut = TrainerConfig { episodes: 2, ..full.clone() };
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 12);
    let (_, partial) = cdbtune::train_offline(&mut env, &cut, Vec::new());
    assert!(partial.total_steps < uninterrupted.total_steps);
    let ck = cdbtune::TrainingCheckpoint::load(&dir)
        .expect("readable checkpoint")
        .expect("checkpoint written before the kill");
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 12);
    let (_, resumed) = cdbtune::resume_from_checkpoint(&mut env, &full, ck)
        .expect("checkpoint fits the session");
    assert_eq!(resumed.total_steps, uninterrupted.total_steps);
    assert_eq!(resumed.recovery.checkpoints_loaded, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_collection_feeds_training() {
    let make = |w| tiny_env(WorkloadKind::SysbenchRw, 50 + w as u64);
    let seeds = cdbtune::collect_parallel(make, 3, 4, 7, &cdbtune::Telemetry::null());
    assert_eq!(seeds.len(), 12);
    let mut env = tiny_env(WorkloadKind::SysbenchRw, 60);
    let cfg = TrainerConfig { episodes: 1, steps_per_episode: 4, ..TrainerConfig::smoke() };
    let (_, report) = cdbtune::train_offline(&mut env, &cfg, seeds);
    assert_eq!(report.total_steps, 4);
}

#[test]
fn every_workload_runs_on_every_flavor() {
    for flavor in
        [EngineFlavor::MySqlCdb, EngineFlavor::LocalMySql, EngineFlavor::Postgres, EngineFlavor::MongoDb]
    {
        for kind in WorkloadKind::ALL {
            let hw = HardwareConfig::new(1, 12, MediaType::Ssd, 12);
            let mut engine = Engine::new(flavor, hw, 8);
            let mut wl = build_workload(kind, 0.005);
            wl.setup(&mut engine);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let txns = wl.window(40, &mut rng);
            let perf = engine.run(&txns, 16).expect("engine runs");
            assert!(
                perf.throughput_tps > 0.0,
                "{flavor:?} x {kind:?} must execute"
            );
        }
    }
}
