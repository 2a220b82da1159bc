//! Golden digest of a short prioritized training run.
//!
//! Four episodes of eight steps on a 16-knob Sysbench-RW instance with the
//! Table-5 networks and prioritized replay: twelve random warm-up steps,
//! then the pool passes the smoke batch of 16 at step 16 and every later
//! step runs two minibatch updates, so the digest covers storing, sampling,
//! the DDPG update, priority feedback and warm-started episodes together.
//! One FNV-1a digest takes the reward history, every weight of the shipped
//! model, and each traced `Step`'s replay fields (length, β, maximum
//! priority, the step's IS-weight range, fallback hits and tree rebuilds),
//! read back from ring telemetry. A change that only moves code around the
//! trainer's update loop must leave it alone. Every kernel family (portable,
//! AVX2, AVX-512) gives the same bits, so the digest is checked on every
//! host.

use cdbtune::{train_offline, EnvSpec, Telemetry, TraceEvent, TraceLevel, TrainerConfig};

/// Recorded once the trainer evaluated the policy only on episodes that
/// reset to the default configuration (x86-64, AVX-512).
const GOLDEN: u64 = 0xea97_7da5_9417_f4a7;

struct Fnv(u64);

impl Fnv {
    fn u64s(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            for b in x.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

#[test]
fn prioritized_training_digest_is_unchanged() {
    let spec = EnvSpec {
        knobs: 16,
        scale: 0.03,
        seed: 42,
        warmup_txns: 20,
        measure_txns: 120,
        ..EnvSpec::default()
    };
    let mut env = spec.build().expect("a valid spec");
    env.set_telemetry(Telemetry::ring(4096, TraceLevel::Step));
    let cfg =
        TrainerConfig { episodes: 4, steps_per_episode: 8, seed: 42, ..TrainerConfig::smoke() };
    let (model, report) = train_offline(&mut env, &cfg, Vec::new());
    assert_eq!(report.total_steps, 32);

    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    fnv.u64s(report.reward_history.iter().map(|r| r.to_bits()));
    let snap = &model.snapshot;
    for net in [&snap.actor, &snap.critic, &snap.actor_target, &snap.critic_target] {
        for m in net.layers.iter().flatten() {
            fnv.u64s(m.as_slice().iter().map(|x| u64::from(x.to_bits())));
        }
    }
    let mut steps = 0;
    let mut updated = 0;
    for ev in env.telemetry().drain_ring() {
        if let TraceEvent::Step { replay: r, .. } = ev {
            steps += 1;
            updated += usize::from(r.is_weight_min < 1.0);
            fnv.u64s([
                r.len,
                r.beta.to_bits(),
                r.max_priority.to_bits(),
                r.is_weight_min.to_bits(),
                r.is_weight_max.to_bits(),
                r.fallback_hits,
                r.tree_rebuilds,
            ]);
        }
    }
    assert_eq!(steps, 32, "every step is traced");
    assert!(updated > 0, "the pool filled a minibatch and drew non-uniform weights");
    assert_eq!(fnv.0, GOLDEN, "training digest moved: {:#018x}", fnv.0);
}
