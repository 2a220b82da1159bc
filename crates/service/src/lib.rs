//! `cdbtuned` — the multi-session tuning service (the paper's Figure 2
//! control plane, grown into a daemon).
//!
//! The paper describes CDBTune as a cloud service: users file tuning
//! requests against their instances, the tuning system serves many such
//! requests concurrently, and experience accumulated on one workload
//! warm-starts the next similar one. This crate packages the reproduction
//! the same way:
//!
//! * [`proto`] — the versioned JSONL-over-TCP wire protocol (one request or
//!   response per line, `{"v":1,"type":...}` like the telemetry schema).
//! * [`fingerprint`] — workload fingerprints: summary statistics of the
//!   63-metric `SHOW STATUS` state plus the instance/workload spec, with a
//!   relative-difference distance for nearest-neighbour lookup.
//! * [`registry`] — the model registry: persisted actor/critic checkpoints
//!   keyed by fingerprint; new sessions warm-start from the nearest
//!   compatible entry (OtterTune-style workload mapping) and fine-tune
//!   online.
//! * [`session`] — one tuning session: environment + online tuner +
//!   registry integration, advanced one step per request.
//! * [`batcher`] — the shared serving tier: one resident evaluation-mode
//!   policy per registry version, answering each session's actor forward
//!   on the caller's thread, so K warm sessions share one resident model.
//! * [`reactor`] — the daemon: one reactor thread multiplexing thousands
//!   of connections over a libc-free epoll shim, a sharded compute pool,
//!   typed admission control, per-tenant quotas, and a graceful drain
//!   persisting live sessions as [`cdbtune::TrainingCheckpoint`]s — 10k
//!   concurrent sessions on one box.
//! * [`client`] — a minimal blocking client for tests and the `bench`
//!   load generator.
//! * [`reference`](mod@reference) — the seeded session script the differential tests run
//!   over the wire and in process, and require to agree.
//!
//! Everything here is **std-only** (no new external dependencies): the
//! wire format rides on [`cdbtune::jsonio`], concurrency on
//! `std::net`/`std::sync`/`std::thread`.

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod fingerprint;
pub mod proto;
pub mod reactor;
pub mod reference;
pub mod registry;
pub mod session;

pub use batcher::{BatchStats, PolicyServer};
pub use client::Client;
pub use fingerprint::{StateStats, WorkloadFingerprint};
pub use proto::{Request, Response, PROTO_VERSION};
pub use reactor::{spawn, EventsHandle, ReactorConfig, ServiceConfig, ShutdownStats};
pub use registry::{ModelRegistry, RegistryEntry};
pub use session::{SessionOutcome, TuningSession};

/// Per-thread allocation tracking for regression tests: warm-lookup and
/// serving paths must stay O(metadata), never cloning weight matrices.
/// Thread-local (not a global toggle) so the service crate's threaded lib
/// tests don't interfere with one another.
#[cfg(test)]
mod test_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-initialized + no Drop: accessing these from inside the
        // allocator cannot itself allocate or recurse.
        static TRACKING: Cell<bool> = const { Cell::new(false) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static LARGEST: Cell<u64> = const { Cell::new(0) };
    }

    struct TrackingAlloc;

    fn note(size: usize) {
        TRACKING.with(|t| {
            if t.get() {
                BYTES.with(|b| b.set(b.get() + size as u64));
                LARGEST.with(|l| l.set(l.get().max(size as u64)));
            }
        });
    }

    // SAFETY: every method delegates to the `System` allocator with the
    // caller's own layout; the only addition is side-effect-free counter
    // bookkeeping in no-Drop thread-locals.
    unsafe impl GlobalAlloc for TrackingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: same layout contract as the caller's.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: same layout contract as the caller's.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: ptr/layout come straight from the caller, who owns
            // the allocation contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: ptr/layout come straight from the caller.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: TrackingAlloc = TrackingAlloc;

    /// Runs `f` with this thread's allocation tracking armed; returns
    /// `(result, total_bytes_allocated, largest_single_allocation)`.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
        BYTES.with(|b| b.set(0));
        LARGEST.with(|l| l.set(0));
        TRACKING.with(|t| t.set(true));
        let out = f();
        TRACKING.with(|t| t.set(false));
        (out, BYTES.with(Cell::get), LARGEST.with(Cell::get))
    }
}
