//! Golden digest of the DDPG update.
//!
//! Every performance change to `tinynn`'s kernels or to
//! `Ddpg::train_step_batch` promises the same bits; this test holds it to
//! that inside `cargo test`. Two agents at the paper's networks — 63→64 at
//! b = 32 and 63→4 at b = 4 — train from a prioritized pool (importance
//! weights in, TD errors out and back into the priorities), fork through
//! `Ddpg::from_snapshot` halfway, and everything they produce goes into one
//! FNV-1a digest: per-step stats and TD errors, the final weights of all
//! four networks, and a probe action. The constant was recorded at the
//! commit before the update stopped computing discarded gradients; a
//! mismatch means the arithmetic changed, not just its speed. Every kernel
//! family (portable, AVX2, AVX-512) gives the same bits, so the digest is
//! checked on every host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, DdpgConfig, PrioritizedReplay, Transition, TransitionBatch};

/// Recorded at commit 11d35d9 (x86-64, AVX2+FMA; debug and release agree).
const GOLDEN: u64 = 0x8115_570b_5626_ecfa;

struct Fnv(u64);

impl Fnv {
    fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

fn train(fnv: &mut Fnv, action_dim: usize, batch: usize, updates: usize, seed: u64) {
    let cfg = DdpgConfig { batch_size: batch, seed, ..DdpgConfig::paper(63, action_dim) };
    let mut agent = Ddpg::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x601D);
    let mut pool = PrioritizedReplay::new(256, 0.6, 0.4);
    for i in 0..256 {
        pool.push(Transition {
            state: (0..63).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: (0..action_dim).map(|_| rng.gen_range(0.0..1.0)).collect(),
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..63).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            done: i % 13 == 12,
        });
    }
    let (mut packed, mut indices, mut weights, mut td) =
        (TransitionBatch::new(), Vec::new(), Vec::new(), Vec::new());
    for step in 0..updates {
        if step == updates / 2 {
            agent = Ddpg::from_snapshot(&agent.snapshot());
        }
        pool.sample_into(batch, &mut rng, &mut packed, &mut indices, &mut weights);
        let stats = agent.train_step_batch(&packed, Some(&weights), Some(&mut td));
        pool.update_priorities(&indices, &td);
        fnv.f32s(&[stats.critic_loss, stats.mean_q, stats.mean_td_error]);
        fnv.f32s(&td);
    }
    let snap = agent.snapshot();
    for net in [&snap.actor, &snap.critic, &snap.actor_target, &snap.critic_target] {
        for m in net.layers.iter().flatten() {
            fnv.f32s(m.as_slice());
        }
    }
    let probe: Vec<f32> = (0..63).map(|i| (i as f32 / 31.0) - 1.0).collect();
    fnv.f32s(&agent.act(&probe));
}

#[test]
fn ddpg_update_digest_is_unchanged() {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    train(&mut fnv, 64, 32, 32, 5);
    train(&mut fnv, 4, 4, 64, 11);
    assert_eq!(fnv.0, GOLDEN, "DDPG update digest moved: {:#018x}", fnv.0);
}
