//! `cdbtune` — the paper's primary contribution: an end-to-end automatic
//! cloud database configuration tuning system using deep reinforcement
//! learning (Zhang et al., SIGMOD 2019).
//!
//! The system maps database tuning onto RL (Figure 3): the **environment**
//! is a database instance ([`simdb::Engine`] behind [`env::DbEnv`]), the
//! **state** is the 63-metric `SHOW STATUS` window delta
//! ([`state::StateProcessor`]), the **action** is a continuous knob vector
//! ([`action::ActionSpace`]), the **reward** compares throughput/latency
//! against the previous step and the initial configuration
//! ([`reward::RewardConfig`], Eqs. 4–7), and the **agent** is DDPG
//! ([`rl::Ddpg`], Table 5). Training is try-and-error from a cold start
//! ([`trainer::train_offline`], optionally seeded by
//! [`parallel::collect_parallel`]); each user request is served by at most
//! five online steps with fine-tuning ([`online::tune_online`]); the whole
//! Figure 2 architecture is wired by [`system::CdbTune`].
//!
//! # Quickstart
//!
//! ```
//! use cdbtune::{ActionSpace, CdbTune, DbEnv, EnvConfig, OnlineConfig, TrainerConfig};
//! use simdb::{Engine, EngineFlavor, HardwareConfig};
//! use workload::{build_workload, WorkloadKind};
//!
//! // A CDB-A instance running a (tiny, for doc-test speed) sysbench load.
//! let engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 7);
//! let wl = build_workload(WorkloadKind::SysbenchRw, 0.003);
//! let space = ActionSpace::all_tunable(engine.registry()).truncated(8);
//! let env_cfg = EnvConfig { warmup_txns: 10, measure_txns: 60, horizon: 4, ..Default::default() };
//! let mut env = DbEnv::new(engine, wl, space, env_cfg);
//!
//! // Train offline once, then serve a tuning request.
//! let trainer = TrainerConfig { episodes: 1, steps_per_episode: 4, ..TrainerConfig::smoke() };
//! let mut tuner = CdbTune::new(trainer, OnlineConfig { max_steps: 2, ..Default::default() });
//! let report = tuner.train_offline(&mut env, Vec::new());
//! assert!(report.total_steps > 0);
//! let outcome = tuner.handle_tuning_request(&mut env, None);
//! assert!(outcome.best_perf.throughput_tps >= outcome.initial_perf.throughput_tps);
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod cli;
pub mod drift;
pub mod env;
pub mod jsonio;
pub mod memory_pool;
pub mod online;
pub mod parallel;
pub mod persist;
pub mod reward;
pub mod safety;
pub mod state;
pub mod system;
pub mod telemetry;
pub mod timing;
pub mod trainer;

pub use action::ActionSpace;
pub use cli::{Args, EnvSpec};
pub use drift::{DriftConfig, DriftDetector, DriftEvent};
pub use env::{DbEnv, EnvConfig, EnvError, RecoveryStats, StepOutcome};
pub use memory_pool::{MemoryKind, MemoryPool, PerConfig};
pub use online::{
    tune_online, DegradedReason, OnlineConfig, OnlineSession, OnlineStep, SharedPolicy,
    TuningOutcome,
};
pub use parallel::collect_parallel;
pub use persist::PersistError;
pub use reward::{Perf, RewardConfig, RewardKind, CRASH_REWARD};
pub use safety::{RegretWindowReport, SafetyConfig, SafetyController, SafetyReport};
pub use state::StateProcessor;
pub use system::CdbTune;
pub use telemetry::{
    EngineSample, JsonlSink, NullSink, PhaseTiming, RecoveryDelta, ReplayTrace, RewardTrace,
    RingSink, Telemetry, TelemetrySink, TraceEvent, TraceLevel,
};
pub use timing::{profile_step, StepTiming, TunerBudget};
pub use trainer::{
    resume_from_checkpoint, train_offline, train_offline_resumable, CheckpointError, TrainedModel,
    TrainerConfig, TrainingCheckpoint, TrainingReport,
};
