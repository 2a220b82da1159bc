//! Microbenchmarks of the simulated engine's hot paths: buffer-pool access,
//! B+tree lookups, and full stress-test windows per workload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::storage::{BPlusTree, BufferPool, PageId};
use simdb::{Engine, EngineFlavor, HardwareConfig};
use workload::{build_workload, WorkloadKind};

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    group.bench_function("access_hit", |b| {
        let mut bp = BufferPool::new(1024);
        for i in 0..1024u64 {
            bp.access(PageId::new(0, i), false);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            bp.access(PageId::new(0, i), false)
        });
    });
    group.bench_function("access_miss_evict", |b| {
        let mut bp = BufferPool::new(256);
        let mut i = 0u64;
        b.iter(|| {
            // Cycling through far more pages than frames misses every time
            // under LRU, and keeps the pool's dense page table bounded.
            i = (i + 1) % 65_536;
            bp.access(PageId::new(0, i), i.is_multiple_of(3))
        });
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    let mut tree = BPlusTree::new(64);
    for k in 0..100_000u64 {
        tree.insert(k, k);
    }
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("get_100k", |b| {
        b.iter(|| tree.get(rng.gen_range(0..100_000)));
    });
    group.bench_function("range_100", |b| {
        b.iter(|| tree.range_from(rng.gen_range(0..99_000), 100));
    });
    group.bench_function("insert_sequential", |b| {
        b.iter_batched(
            || BPlusTree::new(64),
            |mut t| {
                for k in 0..1000u64 {
                    t.insert(k, k);
                }
                t
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_stress_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_window");
    group.sample_size(20);
    for kind in [WorkloadKind::SysbenchRw, WorkloadKind::TpcC, WorkloadKind::Ycsb] {
        let mut engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        let mut wl = build_workload(kind, 0.01);
        wl.setup(&mut engine);
        let mut rng = StdRng::seed_from_u64(2);
        group.bench_function(format!("{}_200txn", kind.label()), |b| {
            b.iter(|| {
                let txns = wl.window(200, &mut rng);
                engine.run(&txns, 64).expect("engine runs")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_buffer_pool, bench_btree, bench_stress_windows);
criterion_main!(benches);
