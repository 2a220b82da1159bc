//! `cdbtuned` — the multi-session tuning daemon.
//!
//! Boots the service from CLI flags, prints the bound address (for
//! scripts that request an ephemeral port with `--addr 127.0.0.1:0`),
//! then idles until SIGTERM/SIGINT or a client `shutdown` request flips
//! the drain flag. The drain persists every live session as a training
//! checkpoint before the process exits 0.
//!
//! One reactor thread multiplexes every connection and a sharded compute
//! pool owns the sessions (`service::reactor`), with per-tenant quotas —
//! built for 10k concurrent sessions.

use cdbtune::cli::{shared_flags_help, telemetry_from_args, Args};
use service::reactor::poll::raise_nofile_limit;
use service::{spawn, ReactorConfig, ServiceConfig};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) through libc's
/// `signal(2)` — the only wrinkle of the daemon that cannot be pure std.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: signal(2) is async-signal-safe to install; `on_signal` is a
    // static extern "C" fn that only stores to an AtomicBool with SeqCst,
    // which is async-signal-safe. The handler outlives the process.
    unsafe {
        signal(2, on_signal); // SIGINT
        signal(15, on_signal); // SIGTERM
    }
}

fn usage() -> String {
    format!(
        "cdbtuned — multi-session tuning daemon (JSONL over TCP)

USAGE:
  cdbtuned [--addr HOST:PORT] [--workers N]
           [--queue N] [--max-conns N] [--idle-timeout-ms T]
           [--tenant-max-sessions N] [--tenant-max-inflight N]
           [--registry-dir DIR] [--checkpoint-dir DIR] [--max-distance D]
           [--trace-out FILE --trace-level LEVEL]

FLAGS:
  --addr            bind address; port 0 picks an ephemeral port
                    (default 127.0.0.1:0)
  --workers         compute shards                         (default 2)
  --queue           run-queue capacity per shard; a create_session
                    beyond it is rejected with a typed reason
                    (default 4)
  --max-conns       most simultaneous connections before
                    rejected{{queue_full}}              (default 12000)
  --idle-timeout-ms reap connections silent this long; 0 disables
                    (default 30000)
  --tenant-max-sessions  live-session cap per tenant token
                    (rejected{{tenant_quota}}); 0 = unlimited
                    (default 256)
  --tenant-max-inflight  in-flight compute cap per tenant token
                    (excess waits, fairly); 0 = unlimited
                    (default 64)
  --registry-dir    persist the model registry here (warm starts
                    survive restarts); omit for in-memory only
  --checkpoint-dir  where the shutdown drain saves live sessions as
                    training checkpoints; omit to discard them
  --max-distance    max fingerprint distance for a warm start
                    (default 0.25)

{}

The daemon prints 'cdbtuned listening on ADDR' once ready and exits 0
after draining on SIGTERM/SIGINT or a client shutdown request.",
        shared_flags_help()
    )
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let args = Args::parse(&argv)?;
    // A flag is known iff the usage text documents it. Anything else — a
    // removed flag, a typo — exits 2 instead of booting without it, except
    // the two `benchmark/` boots the daemon with: `--runtime events` and
    // `--threads N` are accepted and select nothing. Any other `--runtime`
    // value is refused.
    args.reject_unknown(&usage(), &["runtime", "threads"])?;
    if let Some(other) = args.raw("runtime").filter(|&v| v != "events") {
        return Err(format!(
            "--runtime {other}: the threads runtime was removed; cdbtuned has one runtime, drop the flag"
        ));
    }
    let service_cfg = ServiceConfig {
        addr: args.get("addr", "127.0.0.1:0".to_string())?,
        workers: args.get("workers", 2usize)?,
        queue_capacity: args.get("queue", 4usize)?,
        registry_dir: args.raw("registry-dir").map(str::to_string),
        checkpoint_dir: args.raw("checkpoint-dir").map(str::to_string),
        max_distance: args.get("max-distance", 0.25f64)?,
        telemetry: telemetry_from_args(&args)?,
    };
    let reactor_cfg = ReactorConfig {
        max_conns: args.get("max-conns", 12_000usize)?,
        idle_timeout_ms: args.get("idle-timeout-ms", 30_000u64)?,
        tenant_max_sessions: args.get("tenant-max-sessions", 256u64)?,
        tenant_max_inflight: args.get("tenant-max-inflight", 64u64)?,
    };
    // Best-effort: 10k connections need 10k fds. Failure is not fatal —
    // admission control sheds what the fd table can't hold.
    match raise_nofile_limit() {
        Ok((soft, hard)) => eprintln!("cdbtuned: nofile limit {soft}/{hard}"),
        Err(e) => eprintln!("cdbtuned: could not raise nofile limit: {e}"),
    }
    install_signal_handlers();
    let handle =
        spawn(service_cfg, reactor_cfg).map_err(|e| format!("binding the listener: {e}"))?;
    println!("cdbtuned listening on {}", handle.addr());
    std::io::stdout().flush().ok();

    loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("cdbtuned: signal received, draining");
            break;
        }
        if handle.is_draining() {
            eprintln!("cdbtuned: shutdown requested, draining");
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = handle.shutdown();
    eprintln!(
        "cdbtuned: drained ({} sessions served, {} checkpointed, {} rejected)",
        stats.total_sessions, stats.drained_sessions, stats.rejected
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("cdbtuned: {e}");
        eprintln!("run with --help for usage");
        std::process::exit(2);
    }
}
