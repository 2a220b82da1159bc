//! Golden digest of the simulated instance across deploys and stress windows.
//!
//! A deploy restarts the instance and pre-warms its buffer pool; every
//! number a tuner sees afterwards depends on which pages that left resident
//! and on the engine's RNG after the pre-warm's draws. This test deploys a
//! range of pool sizes against Sysbench-RW and TPC-C and folds into one
//! FNV-1a digest the engine's 63 internal metrics after each deploy and
//! after each stress window, plus each window's external metrics. The pool
//! sizes straddle pre-warm's branches: the smallest pool the knob allows,
//! half and four fifths of the data (uniform draws), the data minus one page
//! (the draws give up at their 8 × capacity guard) and twice the data
//! (everything resident). TPC-C inserts rows, so its data grows between
//! deploys. A mismatch means the simulation changed, not just its speed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::knobs::postgres::names::SHARED_BUFFERS;
use simdb::storage::PAGE_SIZE_BYTES;
use simdb::{Engine, EngineFlavor, HardwareConfig, KnobValue, MediaType, PerfMetrics};
use workload::{build_workload, WorkloadKind};

/// Recorded before pre-warm stopped searching for each draw's table.
const GOLDEN: u64 = 0x35c4_b5a1_7ab0_6743;

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

    fn engine(&mut self, engine: &Engine) {
        let m = engine.metrics();
        self.u64s(m.state.iter().chain(&m.cumulative).map(|x| x.to_bits()));
    }

    fn perf(&mut self, p: &PerfMetrics) {
        let f = [p.throughput_tps, p.avg_latency_us, p.p99_latency_us, p.p95_latency_us];
        self.u64s(f.iter().map(|x| x.to_bits()).chain([p.ops, p.aborts]));
    }
}

fn digest_workload(fnv: &mut Fnv, kind: WorkloadKind, scale: f64, seed: u64) {
    // PostgreSQL's pool knob has the lowest floor (16 MiB), so half of even
    // the TPC-C data is a size a configuration can ask for.
    let hw = HardwareConfig::new(2, 12, MediaType::Ssd, 12);
    let mut engine = Engine::new(EngineFlavor::Postgres, hw, seed);
    let mut workload = build_workload(kind, scale);
    workload.setup(&mut engine);
    let clients = workload.default_clients();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x601D);
    // One page asks for less than the knob takes: it clamps to 1 024 pages.
    let sizes: [fn(u64) -> u64; 5] = [|_| 1, |d| d / 2, |d| d * 4 / 5, |d| d - 1, |d| d * 2];
    for pages in sizes {
        let data = engine.data_pages();
        let mut cfg = engine.registry().default_config();
        let bytes = pages(data) * PAGE_SIZE_BYTES;
        cfg.set(SHARED_BUFFERS, KnobValue::Int(bytes as i64)).expect("a tunable knob");
        let deployed = engine.apply_config(cfg);
        fnv.u64s([u64::from(deployed.is_ok()), data]);
        fnv.engine(&engine);
        for _ in 0..2 {
            let txns = workload.window(60, &mut rng);
            let perf = engine.run(&txns, clients).expect("a deployed instance runs");
            fnv.perf(&perf);
            fnv.engine(&engine);
        }
    }
}

#[test]
fn deploy_and_stress_digest_is_unchanged() {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    digest_workload(&mut fnv, WorkloadKind::SysbenchRw, 0.03, 3);
    digest_workload(&mut fnv, WorkloadKind::TpcC, 0.02, 5);
    assert_eq!(fnv.0, GOLDEN, "deploy/stress digest moved: {:#018x}", fnv.0);
}
