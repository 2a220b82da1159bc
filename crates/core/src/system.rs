//! The end-to-end tuning system (Figure 2).
//!
//! [`CdbTune`] wires the architecture's components: the **workload
//! generator** (standard benchmarks for offline training, trace replay for
//! online requests), the **metrics collector** (inside [`crate::env::DbEnv`]),
//! the **deep RL network** + **memory pool** (the trainer), and the
//! **recommender** (online tuning returning the best configuration). The
//! model is trained once offline and then serves every tuning request,
//! being fine-tuned and persisted between requests (incremental training,
//! §2.1.1).

use crate::env::DbEnv;
use crate::online::{tune_online, OnlineConfig, TuningOutcome};
use crate::trainer::{train_offline, TrainedModel, TrainerConfig, TrainingReport};
use rl::Transition;
use workload::WorkloadTrace;

/// The CDBTune system facade.
pub struct CdbTune {
    trainer_cfg: TrainerConfig,
    online_cfg: OnlineConfig,
    model: Option<TrainedModel>,
    requests_served: u64,
}

impl CdbTune {
    /// Creates a system with the given training/tuning configurations.
    pub fn new(trainer_cfg: TrainerConfig, online_cfg: OnlineConfig) -> Self {
        Self { trainer_cfg, online_cfg, model: None, requests_served: 0 }
    }

    /// The current model, if trained.
    pub fn model(&self) -> Option<&TrainedModel> {
        self.model.as_ref()
    }

    /// Tuning requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Offline training against a standard-workload environment (a DBA
    /// "training request" in Figure 2). Stores the resulting model.
    /// `seed_transitions` may carry samples collected in parallel
    /// (§5.1's 30-server analogue, [`crate::parallel`]), with raw env
    /// rewards.
    pub fn train_offline(
        &mut self,
        env: &mut DbEnv,
        seed_transitions: Vec<Transition>,
    ) -> TrainingReport {
        let (model, report) = train_offline(env, &self.trainer_cfg, seed_transitions);
        self.model = Some(model);
        report
    }

    /// Serves a user tuning request (§2.1.2). When `trace` is given, the
    /// environment's workload is swapped for a verbatim replay of the
    /// user's recorded transactions before tuning. The model is fine-tuned
    /// by the request and kept for the next one.
    ///
    /// # Panics
    /// Panics if no model has been trained or installed.
    pub fn handle_tuning_request(
        &mut self,
        env: &mut DbEnv,
        trace: Option<&WorkloadTrace>,
    ) -> TuningOutcome {
        let model = self.model.as_ref().expect("train_offline must run before tuning requests");
        if let Some(trace) = trace {
            env.set_workload(Box::new(trace.replayer()), Some(trace.clients));
        }
        let outcome = tune_online(env, model, &self.online_cfg);
        self.model = Some(outcome.updated_model.clone());
        self.requests_served += 1;
        outcome
    }

    /// Serializes the model for persistence.
    pub fn export_model(&self) -> Option<String> {
        self.model.as_ref().map(TrainedModel::to_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::tests::tiny_env;
    use rand::SeedableRng;

    fn smoke_system() -> CdbTune {
        let trainer = TrainerConfig { episodes: 2, steps_per_episode: 5, ..TrainerConfig::smoke() };
        let online = OnlineConfig { max_steps: 3, ..OnlineConfig::default() };
        CdbTune::new(trainer, online)
    }

    #[test]
    fn full_lifecycle_train_then_tune() {
        let mut system = smoke_system();
        let mut env = tiny_env();
        let report = system.train_offline(&mut env, Vec::new());
        assert!(report.total_steps > 0);
        assert!(system.model().is_some());

        let outcome = system.handle_tuning_request(&mut env, None);
        assert!(outcome.best_perf.throughput_tps > 0.0);
        assert_eq!(system.requests_served(), 1);
    }

    #[test]
    fn tuning_request_with_trace_replay() {
        let mut system = smoke_system();
        let mut env = tiny_env();
        let _ = system.train_offline(&mut env, Vec::new());

        // Record a "user workload" from a sysbench generator, then tune
        // against its replay.
        let mut src = workload::build_workload(workload::WorkloadKind::SysbenchRw, 0.005);
        let mut setup_engine =
            simdb::Engine::new(simdb::EngineFlavor::MySqlCdb, simdb::HardwareConfig::cdb_a(), 1);
        src.setup(&mut setup_engine);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let trace = WorkloadTrace::record(src.as_mut(), 50, &mut rng);

        let outcome = system.handle_tuning_request(&mut env, Some(&trace));
        assert!(outcome.best_perf.throughput_tps > 0.0);
    }

    #[test]
    fn model_persists_across_systems() {
        let mut system = smoke_system();
        let mut env = tiny_env();
        let _ = system.train_offline(&mut env, Vec::new());
        let json = system.export_model().unwrap();

        let mut system2 = smoke_system();
        system2.model = Some(TrainedModel::from_json(&json).unwrap());
        let outcome = system2.handle_tuning_request(&mut env, None);
        assert!(outcome.best_perf.throughput_tps > 0.0);
    }

    #[test]
    fn model_is_fine_tuned_between_requests() {
        let mut system = smoke_system();
        let mut env = tiny_env();
        let _ = system.train_offline(&mut env, Vec::new());
        let before = system.export_model().unwrap();
        let _ = system.handle_tuning_request(&mut env, None);
        let after = system.export_model().unwrap();
        assert_ne!(before, after, "incremental training must update the stored model");
    }

    #[test]
    #[should_panic(expected = "train_offline must run")]
    fn tuning_without_model_panics() {
        let mut system = smoke_system();
        let mut env = tiny_env();
        let _ = system.handle_tuning_request(&mut env, None);
    }
}
