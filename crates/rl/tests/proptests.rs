//! Property tests for the RL substrate: replay buffers, noise, and DDPG's
//! numerical robustness. Each property runs on `CASES` inputs drawn from
//! generators seeded with the case number; a failure prints that number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{perturb, Ddpg, DdpgConfig, PrioritizedReplay, ReplayBuffer, Transition, TransitionBatch};

const CASES: u64 = 256;

fn for_each_case(property: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let run = || property(&mut StdRng::seed_from_u64(case));
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            eprintln!("property failed on case {case} (the generator's seed)");
            std::panic::resume_unwind(panic);
        }
    }
}

fn transition(i: u64, dim: usize) -> Transition {
    Transition {
        state: vec![i as f32; dim],
        action: vec![0.5; dim],
        reward: i as f32,
        next_state: vec![i as f32 + 1.0; dim],
        done: i.is_multiple_of(7),
    }
}

/// The ring buffer holds exactly `min(pushes, capacity)` items and
/// always the most recent ones.
#[test]
fn replay_retains_most_recent() {
    for_each_case(|rng| {
        let (capacity, pushes) = (rng.gen_range(1usize..64), rng.gen_range(1u64..200));
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(transition(i, 2));
        }
        assert_eq!(buf.len(), capacity.min(pushes as usize));
        let oldest_kept = pushes.saturating_sub(capacity as u64);
        for t in buf.iter() {
            assert!(t.reward as u64 >= oldest_kept);
        }
    });
}

/// Prioritized sampling always returns valid, filled slots and weights
/// in (0, 1].
#[test]
fn prioritized_sampling_is_valid() {
    for_each_case(|rng| {
        let (capacity, pushes) = (rng.gen_range(2usize..64), rng.gen_range(1u64..100));
        let batch = rng.gen_range(1usize..32);
        let mut buf = PrioritizedReplay::new(capacity, 0.6, 0.4);
        for i in 0..pushes {
            buf.push(transition(i, 2));
        }
        let (mut b, mut indices, mut weights) = (TransitionBatch::new(), Vec::new(), Vec::new());
        buf.sample_into(batch, rng, &mut b, &mut indices, &mut weights);
        assert_eq!(b.len(), batch);
        assert_eq!(indices.len(), batch);
        for (&idx, &w) in indices.iter().zip(&weights) {
            assert!(idx < capacity.min(pushes as usize));
            assert!(w > 0.0 && w <= 1.0 + 1e-6);
        }
    });
}

/// Priority updates with arbitrary TD errors (incl. negative/huge) keep
/// the tree consistent and sampleable.
#[test]
fn priority_updates_are_total() {
    for_each_case(|rng| {
        let errors: Vec<f32> =
            (0..rng.gen_range(1..32)).map(|_| rng.gen_range(-1e6f32..1e6)).collect();
        let mut buf = PrioritizedReplay::new(32, 0.6, 0.4);
        for i in 0..32 {
            buf.push(transition(i, 2));
        }
        let indices: Vec<usize> = (0..errors.len()).collect();
        buf.update_priorities(&indices, &errors);
        let (mut b, mut indices, mut weights) = (TransitionBatch::new(), Vec::new(), Vec::new());
        buf.sample_into(16, rng, &mut b, &mut indices, &mut weights);
        assert_eq!(b.len(), 16);
    });
}

/// Perturbation keeps actions inside the unit box for any noise.
#[test]
fn perturb_stays_in_box() {
    for_each_case(|rng| {
        let action: Vec<f32> =
            (0..rng.gen_range(1..20)).map(|_| rng.gen_range(0.0f32..=1.0)).collect();
        let noise: Vec<f32> = (0..20).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let p = perturb(&action, &noise);
        assert_eq!(p.len(), action.len());
        assert!(p.iter().all(|x| (0.0..=1.0).contains(x)));
    });
}

/// DDPG's act is deterministic, in-box, and training on arbitrary
/// bounded batches never produces NaN.
#[test]
fn ddpg_act_and_train_are_robust() {
    for_each_case(|rng| {
        let cfg = DdpgConfig {
            state_dim: 4,
            action_dim: 3,
            actor_hidden: vec![16, 8],
            critic_hidden: vec![16, 8],
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            gamma: 0.9,
            tau: 0.01,
            batch_size: 8,
            dropout: 0.0,
            seed: rng.gen(),
        };
        let mut agent = Ddpg::new(cfg);
        let s = [0.1f32, 0.2, 0.3, 0.4];
        let a1 = agent.act(&s);
        let a2 = agent.act(&s);
        assert_eq!(a1, a2);
        assert!(a1.iter().all(|x| (0.0..=1.0).contains(x)));

        let batch: Vec<Transition> = (0..8)
            .map(|i| Transition {
                state: vec![i as f32 / 8.0; 4],
                action: vec![0.3; 3],
                reward: rng.gen_range(-100.0f32..100.0),
                next_state: vec![(i + 1) as f32 / 8.0; 4],
                done: i == 7,
            })
            .collect();
        let refs: Vec<&Transition> = batch.iter().collect();
        let stats = agent.train_step(&refs, None, None);
        assert!(stats.critic_loss.is_finite());
        assert!(stats.mean_q.is_finite());
        let a3 = agent.act(&s);
        assert!(a3.iter().all(|x| x.is_finite()));
    });
}
