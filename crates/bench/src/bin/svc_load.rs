//! `svc_load` — load-generating client for the `cdbtuned` daemon.
//!
//! ```text
//! cdbtuned --addr 127.0.0.1:4455 &
//! svc_load --addr 127.0.0.1:4455 --sessions 3 --steps 3
//! svc_load --addr 127.0.0.1:4455 --sessions 10000 --rate 500 --steps 2 \
//!          --p99-budget-ms 250 --max-reject-rate 0.02
//! ```
//!
//! Sessions start all at once by default — the drain/backpressure smoke.
//! `--rate` makes them arrive on a fixed schedule regardless of daemon
//! progress — the honest tail-latency probe. Exits nonzero when the
//! rejected+errored fraction exceeds `--max-reject-rate` (default 0) or
//! request p99 exceeds `--p99-budget-ms`.

use bench::svc::{run_load, LoadSpec};
use cdbtune::cli::{shared_flags_help, Args, EnvSpec};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "svc_load — load generator for cdbtuned

USAGE:
  svc_load --addr HOST:PORT [--sessions N] [--steps N] [--rate R]
           [--hold-ms MS] [--warm-start BOOL] [--safe BOOL] [--tenant TOKEN]
           [--p99-budget-ms MS] [--max-reject-rate F]

FLAGS:
  --addr          daemon address (required)
  --sessions      total sessions                          (default 3)
  --steps         tuning steps per session                (default 3)
  --rate          session arrivals per second; 0 starts
                  every session at once                   (default 0)
  --hold-ms       sleep mid-session before closing        (default 0)
  --warm-start    ask for registry warm starts            (default true)
  --safe          ask for the safe-tuning layer           (default false)
  --tenant        tenant token stamped on create_session  (default none)
  --p99-budget-ms fail if request p99 exceeds this        (default none)
  --max-reject-rate  fail if the rejected+errored fraction
                  exceeds this                            (default 0)

{}",
        shared_flags_help()
    )
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let args = Args::parse(&argv)?;
    args.reject_unknown(&usage(), &[])?;
    let spec = LoadSpec {
        addr: args.required("addr")?.to_string(),
        sessions: args.get("sessions", 3usize)?,
        rate: args.get("rate", 0.0f64)?,
        steps: args.get("steps", 3usize)?,
        spec: EnvSpec::from_args(&args)?,
        hold_ms: args.get("hold-ms", 0u64)?,
        warm_start: args.get("warm-start", true)?,
        safe: args.get("safe", false)?,
        tenant: args.raw("tenant").map(str::to_string),
    };
    let budget = args.get("p99-budget-ms", f64::INFINITY)?;
    let max_reject = args.get("max-reject-rate", 0.0f64)?;
    let report = run_load(&spec);
    print!("{}", report.render());
    let mut ok = true;
    if report.request_latency.p99_ms > budget {
        eprintln!(
            "svc_load: request p99 {:.1} ms exceeds the {budget:.1} ms budget",
            report.request_latency.p99_ms
        );
        ok = false;
    }
    if report.rejection_rate() > max_reject {
        eprintln!(
            "svc_load: rejection rate {:.4} exceeds the {max_reject:.4} cap",
            report.rejection_rate()
        );
        ok = false;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("svc_load: {e}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}
