//! Safety-layer end-to-end: online tuning under workload drift, wired
//! through every crate the guarded loop touches — the dynamic traces in
//! `workload`, the trust-region/rollback/drift machinery in `cdbtune`,
//! the fault injection in `simdb`, and the trace summarizer in `bench`.
//!
//! These are the acceptance checks for the safe-online-tuning work:
//! bounded per-window regret and prompt rollback under a flash crowd with
//! injected degradation, and drift-detector recall on mix shifts with
//! zero false positives on a static control trace.

use bench::TraceSummary;
use cdbtune::{
    train_offline, tune_online, ActionSpace, DbEnv, DriftConfig, EnvConfig, OnlineConfig,
    SafetyConfig, TrainedModel, TrainerConfig,
};
use simdb::{Engine, EngineFlavor, FaultPlan, HardwareConfig, MediaType};
use workload::{build_workload, DynamicSpec, DynamicWorkload, WorkloadKind};

fn tiny_env(seed: u64) -> DbEnv {
    let hw = HardwareConfig::new(1, 12, MediaType::Ssd, 12);
    let engine = Engine::new(EngineFlavor::MySqlCdb, hw, seed);
    let registry = EngineFlavor::MySqlCdb.registry(&hw);
    let ranking = baselines::DbaTuner::knob_ranking(&registry);
    let space = ActionSpace::from_indices(&registry, ranking.into_iter().take(8));
    let cfg = EnvConfig {
        warmup_txns: 10,
        measure_txns: 80,
        horizon: 16,
        seed,
        ..EnvConfig::default()
    };
    DbEnv::new(engine, build_workload(WorkloadKind::SysbenchRw, 0.005), space, cfg)
}

fn trained(seed: u64) -> (DbEnv, TrainedModel) {
    let mut env = tiny_env(seed);
    let cfg = TrainerConfig { episodes: 3, steps_per_episode: 6, ..TrainerConfig::smoke() };
    let (model, _) = train_offline(&mut env, &cfg, Vec::new());
    (env, model)
}

#[test]
fn flash_crowd_with_degradation_stays_within_regret_budget() {
    let (mut env, model) = trained(1);
    // Diurnal curve plus a flash crowd, with a transient 3x straggler
    // slowdown injected mid-run: throughput craters without a crash, the
    // exact failure mode the rollback path exists for.
    let spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.005)
        .with_diurnal(8, 0.3)
        .with_flash(5, 3, 2.0);
    env.install_workload(Box::new(DynamicWorkload::new(spec)), None);
    env.engine_mut()
        .set_fault_plan(Some(FaultPlan::new(3).with_straggler(1.0, 3.0).in_window(8, 12)));
    // trained() burned fault ticks during offline training; re-base so
    // the degradation window counts from this tuning request.
    env.engine_mut().reset_fault_clock();
    let cfg = OnlineConfig {
        max_steps: 10,
        safety: Some(SafetyConfig {
            rollback_threshold: 0.3,
            regret_budget: 1.5,
            ..SafetyConfig::default()
        }),
        ..OnlineConfig::default()
    };
    let outcome = tune_online(&mut env, &model, &cfg);
    let report = outcome.safety.expect("guarded run carries a safety report");

    // Rollback caps the exposure of each degraded deployment, so no
    // regret window overruns its budget even with the injected slowdown.
    assert!(report.regret_windows >= 1, "10 steps close at least one window of 5");
    assert!(
        report.worst_window_regret <= report.regret_budget,
        "worst window regret {} blew the budget {}",
        report.worst_window_regret,
        report.regret_budget
    );
    assert_eq!(report.over_budget_windows, 0);

    // The degradation was visible and rollback fired within K=2 steps.
    assert!(report.rollbacks >= 1, "a 3x slowdown must trigger rollback");
    let first_slow = outcome
        .steps
        .iter()
        .position(|s| s.throughput_tps < outcome.initial_perf.throughput_tps * 0.7)
        .expect("the straggler window shows up in the step trace");
    let first_rollback = outcome
        .steps
        .iter()
        .position(|s| s.rolled_back)
        .expect("rollback recorded on a step");
    assert!(
        first_rollback <= first_slow + 1,
        "rollback within K=2 steps of degradation (slow at {first_slow}, \
         rollback at {first_rollback})"
    );
    assert!(env.recovery_stats().rollbacks >= 1);
    assert!(env.quarantined_count() >= 1, "the offending region is quarantined");

    // The recommendation is still never worse than the baseline.
    assert!(outcome.throughput_gain() >= 0.0);
}

#[test]
fn drift_detector_flags_mix_shifts_and_stays_silent_on_static_control() {
    let drift = DriftConfig { window: 3 };

    // Recall: a read-write -> write-only mix shift with a sustained flash
    // crowd must register at least one detection.
    let (mut env, model) = trained(2);
    let spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.005)
        .with_shift(8, WorkloadKind::SysbenchWo)
        .with_flash(8, 1000, 2.5);
    assert_eq!(spec.shift_windows(), vec![8]);
    env.install_workload(Box::new(DynamicWorkload::new(spec)), None);
    let cfg = OnlineConfig {
        max_steps: 12,
        safety: Some(SafetyConfig { drift, ..SafetyConfig::default() }),
        ..OnlineConfig::default()
    };
    let shifted = tune_online(&mut env, &model, &cfg);
    let report = shifted.safety.expect("guarded run carries a safety report");
    assert!(
        report.drift_events >= 1,
        "the injected mix shift must be detected (recall)"
    );

    // Precision: the identical detector on an identically-sized static
    // trace fires zero times.
    let (mut env, model) = trained(2);
    let control = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.005);
    assert!(control.is_static());
    env.install_workload(Box::new(DynamicWorkload::new(control)), None);
    let steady = tune_online(&mut env, &model, &cfg);
    let report = steady.safety.expect("guarded run carries a safety report");
    assert_eq!(
        report.drift_events, 0,
        "zero false positives on the static control trace"
    );
}

#[test]
fn safety_telemetry_flows_through_the_trace_summarizer() {
    use cdbtune::{Telemetry, TraceLevel};
    let (mut env, model) = trained(3);
    env.set_telemetry(Telemetry::ring(1024, TraceLevel::Step));
    let spec = DynamicSpec::steady(WorkloadKind::SysbenchRw, 0.005)
        .with_shift(8, WorkloadKind::SysbenchWo)
        .with_flash(8, 1000, 2.5);
    env.install_workload(Box::new(DynamicWorkload::new(spec)), None);
    env.engine_mut()
        .set_fault_plan(Some(FaultPlan::new(5).with_straggler(1.0, 3.0).in_window(10, 14)));
    env.engine_mut().reset_fault_clock();
    let cfg = OnlineConfig {
        max_steps: 12,
        noise_sigma: 0.5,
        noise_fraction: 1.0,
        safety: Some(SafetyConfig {
            trust_radius: 0.05,
            rollback_threshold: 0.3,
            drift: DriftConfig { window: 3 },
            ..SafetyConfig::default()
        }),
        ..OnlineConfig::default()
    };
    let outcome = tune_online(&mut env, &model, &cfg);
    let report = outcome.safety.expect("guarded run carries a safety report");

    // The same activity the report counts arrived as decodable telemetry
    // and survives the bench summarizer's schema cross-checks.
    let summary = TraceSummary::from_events(&env.telemetry().drain_ring());
    assert!(summary.issues.is_empty(), "safety trace flagged: {:?}", summary.issues);
    assert_eq!(summary.mode, "tune");
    assert_eq!(summary.drift_events.len() as u64, report.drift_events);
    assert_eq!(summary.rollbacks.len() as u64, report.rollbacks);
    assert_eq!(summary.regret_windows.len() as u64, report.regret_windows);
    assert_eq!(summary.over_budget_windows(), report.over_budget_windows);
    assert!(summary.safety_clamps >= 1, "tight region + loud noise must clamp");
    let rendered = summary.render();
    assert!(rendered.contains("safety layer:"));
}
