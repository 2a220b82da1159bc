//! Golden digest of two online tuning requests.
//!
//! A model is trained briefly at the paper's shapes (64 knobs, Table-5
//! networks) and serves one Sysbench-RO and one Sysbench-WO request of five
//! fine-tuning steps, as the `tune_online` benchmark does. Each outcome goes
//! into one FNV-1a digest: the recommended knob vector, the best and initial
//! throughput, and every weight of the fine-tuned `updated_model`. A change
//! that only removes work around the simulation and the update must leave it
//! alone. Every kernel family (portable, AVX2, AVX-512) gives the same
//! bits, so the digest is checked on every host.

use cdbtune::{train_offline, tune_online, EnvSpec, OnlineConfig, TrainerConfig};
use workload::WorkloadKind;

/// Recorded before a request stopped copying the model at begin and finish
/// (x86-64, AVX2+FMA).
const GOLDEN: u64 = 0x110e_1b6f_c20d_501a;

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

fn spec(workload: WorkloadKind, seed: u64) -> EnvSpec {
    EnvSpec {
        workload,
        seed,
        knobs: 64,
        scale: 0.03,
        warmup_txns: 20,
        measure_txns: 120,
        ..EnvSpec::default()
    }
}

#[test]
fn tuning_request_digest_is_unchanged() {
    let mut env = spec(WorkloadKind::SysbenchRw, 42).build().expect("a valid spec");
    let cfg = TrainerConfig { episodes: 2, steps_per_episode: 6, seed: 42, ..TrainerConfig::smoke() };
    let model = train_offline(&mut env, &cfg, Vec::new()).0;

    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for (workload, seed) in [(WorkloadKind::SysbenchRo, 7), (WorkloadKind::SysbenchWo, 8)] {
        let mut env = spec(workload, seed).build().expect("a valid spec");
        let online = OnlineConfig { seed, ..OnlineConfig::default() };
        let out = tune_online(&mut env, &model, &online);
        let best = env.space().from_config(&out.best_config);
        fnv.u64s(best.iter().map(|x| u64::from(x.to_bits())));
        fnv.u64s([out.best_perf.throughput_tps.to_bits(), out.initial_perf.throughput_tps.to_bits()]);
        let snap = &out.updated_model.snapshot;
        for net in [&snap.actor, &snap.critic, &snap.actor_target, &snap.critic_target] {
            for m in net.layers.iter().flatten() {
                fnv.u64s(m.as_slice().iter().map(|x| u64::from(x.to_bits())));
            }
        }
    }
    assert_eq!(fnv.0, GOLDEN, "tuning request digest moved: {:#018x}", fnv.0);
}
