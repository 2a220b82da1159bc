//! The repo-specific lints. Each module exposes a `run` function
//! returning findings; scoping (which paths a lint applies to) lives in
//! [`crate::AnalysisConfig`] so fixture tests can target fixture files.
//! `panic_safety` and `reactor_blocking` additionally expose
//! `run_transitive`, consuming the interprocedural facts from
//! [`crate::dataflow`]; `lock_order` is interprocedural throughout and
//! takes the whole [`crate::Workspace`].

pub mod determinism;
pub mod lock_order;
pub mod panic_safety;
pub mod reactor_blocking;
pub mod unsafe_audit;
