//! `workload` — from-scratch benchmark workload generators for the CDBTune
//! reproduction.
//!
//! The paper drives its stress tests with Sysbench (read-only, write-only,
//! read-write), TPC-C, TPC-H and YCSB (§5, "Workload"). This crate provides
//! generators for all six, emitting [`simdb::Txn`] streams with the same op
//! mixes and access skews those tools issue, plus a [`replay`] facility
//! implementing the paper's "replay the user's current workload" mechanism
//! (§2.2.1).
//!
//! # Example
//!
//! ```
//! use workload::{WorkloadKind, build_workload, Workload};
//! use simdb::{Engine, EngineFlavor, HardwareConfig};
//! use rand::SeedableRng;
//!
//! let mut engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
//! // scale 0.01 shrinks the dataset for fast tests; benches use larger scales.
//! let mut wl = build_workload(WorkloadKind::SysbenchRw, 0.01);
//! wl.setup(&mut engine);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let txns = wl.window(100, &mut rng);
//! let perf = engine.run(&txns, wl.default_clients()).unwrap();
//! assert!(perf.throughput_tps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod dynamic;
pub mod replay;
pub mod spec;
pub mod sysbench;
pub mod tpcc;
pub mod tpch;
pub mod ycsb;
pub mod zipf;

pub use dynamic::{Diurnal, DynamicSpec, DynamicWorkload, FlashCrowd, MixShift};
pub use replay::WorkloadTrace;
pub use spec::{build_workload, scaled_hardware, WorkloadKind};
pub use sysbench::{SysbenchMode, SysbenchWorkload};
pub use tpcc::TpccWorkload;
pub use tpch::TpchWorkload;
pub use ycsb::{YcsbMix, YcsbWorkload};

use rand::rngs::StdRng;
use simdb::{Engine, Txn};

/// A benchmark workload: loads its schema into an engine and generates
/// observation windows of transactions.
pub trait Workload: Send {
    /// Human-readable name ("sysbench-rw", "tpcc", …).
    fn name(&self) -> &'static str;

    /// The concurrency the paper's experiments use for this workload
    /// (sysbench: 1500 threads; TPC-C: 32 connections; YCSB: 50 threads;
    /// TPC-H: a handful of analytic streams).
    fn default_clients(&self) -> u32;

    /// Creates and loads the workload's tables.
    fn setup(&mut self, engine: &mut Engine);

    /// Generates one window of `n` transactions. Consecutive windows draw
    /// fresh keys, as the real tools do.
    fn window(&mut self, n: usize, rng: &mut StdRng) -> Vec<Txn>;
}
