//! `perf` — the perf gate (DESIGN.md §11): runs the checks of
//! [`bench::perf`], prints each against its floor, and exits 1 when any
//! misses it or the service leg cannot run. Build first, so the daemon
//! the service leg boots sits next to this binary:
//!
//! ```text
//! cargo build --release && target/release/perf --quick
//! ```
//!
//! The only flag, `--quick`, shrinks iteration counts and runs the service
//! leg at 300 sessions instead of 10 000.

use bench::perf::{ratio_checks, service_checks};
use bench::{print_header, print_row};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg != "--quick" {
            eprintln!("perf: unknown flag {arg} (the only flag is --quick)");
            return ExitCode::FAILURE;
        }
        quick = true;
    }
    let mut checks = ratio_checks(quick);
    let mut failures = Vec::new();
    match service_checks(quick) {
        Ok(service) => checks.extend(service),
        Err(e) => failures.push(format!("the service leg cannot run: {e}")),
    }
    // The matmul and train_step checks measure whichever kernel family this
    // host dispatches to; name it, so a log says which path they covered.
    let title = format!("perf gate (kernels: {})", tinynn::kernels::kernel_width());
    print_header(&title, &["check", "value", "bound"]);
    for c in &checks {
        print_row(&[c.name.to_string(), format!("{:.3}", c.value), c.bound.to_string()]);
    }
    failures.extend(
        checks
            .iter()
            .filter(|c| !c.passes())
            .map(|c| format!("{} = {:.3} misses its bound {}", c.name, c.value, c.bound)),
    );
    if failures.is_empty() {
        println!("\nperf gate passed ({} checks)", checks.len());
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("perf: {f}");
    }
    ExitCode::FAILURE
}
