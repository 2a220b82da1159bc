//! `rl` — the reinforcement-learning substrate of the CDBTune reproduction.
//!
//! Provides the algorithms Sections 3–4 of the paper discuss:
//!
//! * [`ddpg::Ddpg`] — Deep Deterministic Policy Gradient with the paper's
//!   Table 5 actor-critic architecture, target networks, and snapshotting
//!   (the method CDBTune adopts),
//! * [`per::PrioritizedReplay`] — prioritized experience replay \[38\] that
//!   §5.1 credits with a 2× convergence speedup,
//! * [`replay::ReplayBuffer`] — the plain experience replay memory
//!   (§2.2.4),
//! * [`eval::SnapshotPolicy`] — evaluation-only actor over an immutable
//!   snapshot, the serving tier's inference engine,
//! * [`noise`] — decaying Gaussian exploration,
//! * [`dqn::Dqn`] — the value-based method §3.3 explains cannot scale to
//!   continuous 266-dimensional actions, kept as the runnable baseline of
//!   the `extra_dqn_vs_ddpg` experiment.

#![warn(missing_docs)]

pub mod batch;
pub mod ddpg;
pub mod dqn;
pub mod env;
pub mod eval;
pub mod noise;
pub mod per;
pub mod replay;

pub use batch::TransitionBatch;
pub use ddpg::{Ddpg, DdpgConfig, DdpgSnapshot, LearnerState, TrainStats};
pub use dqn::{Dqn, DqnConfig};
pub use env::{Environment, StepResult, Transition};
pub use eval::SnapshotPolicy;
pub use noise::{perturb, GaussianNoise, NoiseProcess};
pub use per::{PerStats, PrioritizedReplay, PriorityState};
pub use replay::{ReplayBuffer, RingState};
