//! The `cdbtuned` daemon: 10k concurrent tuning sessions on one box.
//!
//! Every connection is multiplexed onto **one reactor thread** over a
//! readiness poller ([`poll`] — a libc-free epoll shim with a portable
//! fallback), requests are framed incrementally ([`frame`]), and session
//! compute is shipped to a small sharded worker pool ([`events`]).
//! Connections never block on compute; compute never touches a socket.
//!
//! Boot it with [`spawn`]; it speaks the [`crate::proto`] wire protocol.

pub(crate) mod conn;
pub mod events;
pub mod frame;
pub mod poll;

pub use events::{spawn, EventsHandle, ReactorConfig};

use cdbtune::Telemetry;

/// Daemon configuration.
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Compute shards (worker threads owning the sessions).
    pub workers: usize,
    /// Run-queue capacity per shard; a `create_session` beyond it is
    /// rejected.
    pub queue_capacity: usize,
    /// Disk-backed model registry (`None` = in-memory only).
    pub registry_dir: Option<String>,
    /// Where the shutdown drain persists live sessions (`None` = drop).
    pub checkpoint_dir: Option<String>,
    /// Maximum fingerprint distance a warm start will accept.
    pub max_distance: f64,
    /// Service-level trace handle.
    pub telemetry: Telemetry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 4,
            registry_dir: None,
            checkpoint_dir: None,
            max_distance: 0.25,
            telemetry: Telemetry::null(),
        }
    }
}

/// What the daemon did, reported by [`EventsHandle::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ShutdownStats {
    /// Sessions opened over the daemon's lifetime.
    pub total_sessions: u64,
    /// Live sessions persisted (and force-closed) by the drain.
    pub drained_sessions: u64,
    /// Connections and session creates admission control turned away.
    pub rejected: u64,
}
