//! Property tests for the engine substrate: the redo log, tables under
//! churn, and the engine's resilience to arbitrary configurations. Each
//! property runs on `CASES` inputs drawn from generators seeded with the
//! case number; a failure prints that number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::storage::Table;
use simdb::wal::{FlushPolicy, RedoLog};
use simdb::{Engine, EngineFlavor, HardwareConfig, MediaType, Op, Txn};

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

/// LSN and counters are monotone; checkpoint age never exceeds the LSN.
#[test]
fn redo_log_monotonicity() {
    for_each_case(|rng| {
        let policy = FlushPolicy::from_knob(rng.gen_range(0i64..3));
        let mut log = RedoLog::new(64 << 10, 1 << 20, 4, policy);
        let mut last_lsn = 0;
        for _ in 0..rng.gen_range(1..200) {
            let _ = log.append(rng.gen_range(1u64..5000));
            if rng.gen() {
                let _ = log.commit();
            }
            assert!(log.lsn() >= last_lsn);
            last_lsn = log.lsn();
            assert!(log.checkpoint_age() <= log.lsn());
            if log.needs_sync_checkpoint() {
                log.complete_checkpoint();
                assert_eq!(log.checkpoint_age(), 0);
            }
        }
        let (reqs, writes, ..) = log.counters();
        assert!(writes <= reqs + 1);
    });
}

/// Tables never lose rows under arbitrary insert/delete interleavings
/// and their reported size is consistent.
#[test]
fn table_row_accounting() {
    for_each_case(|rng| {
        let mut t = Table::new(0, "t", 2048);
        let mut live = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(1..400) {
            let key = rng.gen_range(0u64..500);
            if rng.gen() {
                let _ = t.insert(key);
                live.insert(key);
            } else {
                let removed = t.delete(key);
                assert_eq!(removed.is_some(), live.remove(&key));
            }
            assert_eq!(t.row_count(), live.len());
            for &k in live.iter().take(5) {
                assert!(t.lookup(k).is_some());
            }
        }
        assert_eq!(t.size_bytes(), t.page_count() * 16 * 1024);
    });
}

/// The engine survives *any* normalized configuration vector: it either
/// serves transactions or reports a crash, but never panics or returns
/// nonsensical metrics.
#[test]
fn engine_is_total_over_the_action_box() {
    for_each_case(|rng| {
        let action: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0f64..=1.0)).collect();
        let hw = HardwareConfig::new(1, 12, MediaType::Ssd, 12);
        let mut engine = Engine::new(EngineFlavor::MySqlCdb, hw, rng.gen());
        let t = engine.create_table("t", 2048, 2_000);
        let registry = std::sync::Arc::clone(engine.registry());
        let mut cfg = registry.default_config();
        let indices: Vec<usize> = registry.tunable_indices().into_iter().take(12).collect();
        cfg.apply_normalized(&indices, &action);
        match engine.apply_config(cfg) {
            Err(simdb::SimDbError::Crash { .. }) => {
                assert!(!engine.is_running());
                engine.restart();
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(()) => {}
        }
        let txns: Vec<Txn> = (0..30)
            .map(|_| Txn::single(Op::PointRead { table: t, key: rng.gen_range(0..2_000) }))
            .collect();
        let perf = engine.run(&txns, 8).expect("running after restart");
        assert!(perf.throughput_tps.is_finite() && perf.throughput_tps > 0.0);
        assert!(perf.p99_latency_us >= perf.avg_latency_us * 0.99);
        let m = engine.metrics();
        assert!(m.cumulative.iter().all(|x| x.is_finite() && *x >= 0.0));
    });
}

/// Media ordering propagates end-to-end: the same read-heavy window is
/// never faster on HDD than on NVM.
#[test]
fn media_ordering_is_preserved() {
    for_each_case(|rng| {
        let seed = rng.gen_range(0u64..50);
        let run = |media: MediaType| {
            let hw = HardwareConfig::new(1, 12, media, 12);
            let mut engine = Engine::new(EngineFlavor::MySqlCdb, hw, seed);
            let t = engine.create_table("t", 2048, 60_000); // ~117 MiB ≫ pool
            let mut rng = StdRng::seed_from_u64(seed);
            let txns: Vec<Txn> = (0..400)
                .map(|_| Txn::single(Op::PointRead { table: t, key: rng.gen_range(0..60_000) }))
                .collect();
            engine.run(&txns, 32).expect("runs").throughput_tps
        };
        let hdd = run(MediaType::Hdd);
        let nvm = run(MediaType::Nvm);
        assert!(nvm >= hdd, "nvm {nvm} vs hdd {hdd}");
    });
}
