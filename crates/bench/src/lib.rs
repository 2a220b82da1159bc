//! `bench` — the experiment harness regenerating every table and figure of
//! the paper's evaluation (Section 5 and Appendix C).
//!
//! [`experiments`] is the evaluation as one table — id, paper result, typed
//! rows, run, shape checks — driven by the `experiments` binary (`run`,
//! `check`, `report`, `list`) over the one tuner driver in [`harness`].
//! Experiments run at a reduced scale — datasets, memory and disk
//! are shrunk by the same factor, preserving the data:RAM ratios that drive
//! buffer-pool and redo-log dynamics — so a full figure regenerates in
//! seconds to minutes instead of the paper's days of stress testing.
//!
//! Set `CDBTUNE_QUICK=1` to shrink training budgets further (CI smoke runs).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod perf;
pub mod report;
pub mod svc;
pub mod trace;

pub use harness::{ExperimentScale, Lab};
pub use report::{print_header, print_row};
pub use svc::{run_load, LatencyStats, LoadReport, LoadSpec, SessionResult};
pub use trace::{SessionRow, StepRow, TraceSummary};
