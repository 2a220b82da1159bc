//! Closing a tuning request moves the fine-tuned weights, it does not copy
//! them.
//!
//! A counting `#[global_allocator]` wraps the system allocator and sums the
//! bytes requested while `OnlineSession::finish` runs on a session over a
//! paper-shaped model (64 knobs, Table-5 networks) whose private agent has
//! been fine-tuned. Copying the four networks into the returned model would
//! request at least their weight bytes; moving them requests a small
//! fraction (the per-layer lists, the state normalizer, the outcome). This
//! file holds exactly one test so no concurrent test-harness activity can
//! allocate inside the measured window.

use cdbtune::{EnvSpec, OnlineConfig, OnlineSession, TrainedModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: delegates to the system allocator with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn finish_moves_the_fine_tuned_weights() {
    let spec = EnvSpec { knobs: 64, scale: 0.003, warmup_txns: 10, measure_txns: 60, ..EnvSpec::default() };
    let mut env = spec.build().expect("a valid spec");
    let model = TrainedModel::cold(env.space().indices().to_vec(), *env.reward_config(), 3);
    let weight_bytes: usize = [
        &model.snapshot.actor,
        &model.snapshot.critic,
        &model.snapshot.actor_target,
        &model.snapshot.critic_target,
    ]
    .into_iter()
    .flat_map(|net| net.layers.iter().flatten())
    .map(|m| std::mem::size_of_val(m.as_slice()))
    .sum();
    let cfg = OnlineConfig { max_steps: 4, ..OnlineConfig::default() };
    let mut session = OnlineSession::begin(&mut env, &model, &cfg);
    while session.step(&mut env).is_some() {}

    COUNTING.store(true, Ordering::SeqCst);
    let outcome = session.finish(&mut env);
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(outcome.steps.len(), 4, "the session fine-tuned (updates start at step 3)");
    assert_ne!(outcome.updated_model.snapshot.actor, model.snapshot.actor);
    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes * 10 < weight_bytes as u64,
        "finish allocated {bytes} B for {weight_bytes} B of weights"
    );
}
