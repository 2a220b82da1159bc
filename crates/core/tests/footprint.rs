//! An offline training run holds the replay it stores, not the replay it
//! could store.
//!
//! A counting `#[global_allocator]` tracks the bytes live on the heap and
//! their peak while one short `train_offline` runs with the default
//! `memory_capacity` (100 000 transitions) and prioritized replay. The run
//! stores a few dozen transitions. A pool that wrote a slot per transition
//! of capacity up front (80 B each, 8 MB) would put the peak well over the
//! bound below; the ring that grows with the data, beside the sum tree's
//! zero-allocated 1.6 MB, keeps it under. This file holds exactly one test
//! so no concurrent test-harness activity allocates inside the measured
//! window.

use cdbtune::{train_offline, EnvSpec, TrainerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct CountingAlloc;

/// Bytes currently allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Highest `LIVE` since the last reset.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes: a realloc that
        // moves holds both for a moment.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak heap growth allowed over the run, in bytes (6 MiB). Measured on
/// this test (x86-64 Linux, debug build): 3 921 948 B with the growing ring
/// and gradient-free target networks, 12 242 496 B with the prefilled
/// `Vec<Option<Transition>>` and gradient-carrying targets they replaced.
const PEAK_BOUND: i64 = 6 << 20;

#[test]
fn short_training_run_holds_only_the_replay_it_stores() {
    let spec = EnvSpec { knobs: 8, scale: 0.003, warmup_txns: 10, measure_txns: 60, ..EnvSpec::default() };
    let mut env = spec.build().expect("a valid spec");
    let cfg = TrainerConfig {
        episodes: 2,
        steps_per_episode: 4,
        batch_size: 8,
        updates_per_step: 1,
        random_warmup_steps: 2,
        ..TrainerConfig::default()
    };
    assert_eq!(cfg.memory_capacity, 100_000, "the pool is sized as in production");

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let (model, report) = train_offline(&mut env, &cfg, Vec::new());
    let peak = PEAK.load(Ordering::SeqCst) - base;
    drop(model);

    assert_eq!(report.total_steps, 8, "the run stores one transition per step");
    assert!(peak < PEAK_BOUND, "training peaked at {peak} B of live heap (bound {PEAK_BOUND} B)");
}
