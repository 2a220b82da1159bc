//! YCSB-style key-value workload.
//!
//! The paper generates 35 GB of YCSB data with 50 threads and 20 M
//! operations (§5, "Workload") and runs it against MongoDB in Appendix C.3.
//! The generator provides the standard core workload mixes (A–F) over a
//! single `usertable` with scrambled-zipfian key selection.

use crate::zipf::Zipfian;
use crate::Workload;
use rand::rngs::StdRng;
use rand::Rng;
use simdb::{Engine, Op, TableId, Txn};

/// Paper thread count.
const CLIENTS: u32 = 50;
/// Rows at scale 1.0 (~35 GB at 1 KB rows).
const ROWS: u64 = 35_000_000;
/// YCSB's 1 KB records (10 × 100-byte fields).
const ROW_WIDTH: u64 = 1000;

/// YCSB core workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// A: 50 % reads, 50 % updates (update heavy).
    A,
    /// B: 95 % reads, 5 % updates (read mostly).
    B,
    /// C: 100 % reads.
    C,
    /// D: 95 % reads of recent keys, 5 % inserts.
    D,
    /// E: 95 % short scans, 5 % inserts.
    E,
    /// F: read-modify-write.
    F,
}

/// The YCSB workload generator.
pub struct YcsbWorkload {
    mix: YcsbMix,
    rows: u64,
    table: Option<TableId>,
    zipf: Zipfian,
    insert_cursor: u64,
}

impl YcsbWorkload {
    /// Creates a YCSB workload; `scale` shrinks the 35 M-row dataset.
    pub fn new(mix: YcsbMix, scale: f64) -> Self {
        let rows = ((ROWS as f64 * scale) as u64).max(10_000);
        Self { mix, rows, table: None, zipf: Zipfian::new(rows, 0.99), insert_cursor: rows }
    }

    /// Record count after scaling.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn key(&self, rng: &mut StdRng) -> u64 {
        self.zipf.sample_scrambled(rng)
    }

    /// Recent-key selection for workload D (latest distribution).
    fn recent_key(&self, rng: &mut StdRng) -> u64 {
        let offset = self.zipf.sample(rng).min(self.insert_cursor - 1);
        self.insert_cursor - 1 - offset
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> &'static str {
        match self.mix {
            YcsbMix::A => "ycsb-a",
            YcsbMix::B => "ycsb-b",
            YcsbMix::C => "ycsb-c",
            YcsbMix::D => "ycsb-d",
            YcsbMix::E => "ycsb-e",
            YcsbMix::F => "ycsb-f",
        }
    }

    fn default_clients(&self) -> u32 {
        CLIENTS
    }

    fn setup(&mut self, engine: &mut Engine) {
        self.table = Some(engine.create_table("usertable", ROW_WIDTH, self.rows));
        self.insert_cursor = self.rows;
    }

    fn window(&mut self, n: usize, rng: &mut StdRng) -> Vec<Txn> {
        // lint:allow(panic) reason=the Workload contract runs setup() before any window()
        let table = self.table.expect("setup() must run before window()");
        (0..n)
            .map(|_| {
                let roll: u32 = rng.gen_range(0..100);
                let op = match self.mix {
                    YcsbMix::A => {
                        if roll < 50 {
                            Op::PointRead { table, key: self.key(rng) }
                        } else {
                            Op::Update { table, key: self.key(rng) }
                        }
                    }
                    YcsbMix::B => {
                        if roll < 95 {
                            Op::PointRead { table, key: self.key(rng) }
                        } else {
                            Op::Update { table, key: self.key(rng) }
                        }
                    }
                    YcsbMix::C => Op::PointRead { table, key: self.key(rng) },
                    YcsbMix::D => {
                        if roll < 95 {
                            Op::PointRead { table, key: self.recent_key(rng) }
                        } else {
                            let k = self.insert_cursor;
                            self.insert_cursor += 1;
                            Op::Insert { table, key: k }
                        }
                    }
                    YcsbMix::E => {
                        if roll < 95 {
                            Op::RangeScan { table, start: self.key(rng), limit: 50 }
                        } else {
                            let k = self.insert_cursor;
                            self.insert_cursor += 1;
                            Op::Insert { table, key: k }
                        }
                    }
                    YcsbMix::F => {
                        // Read-modify-write: both halves in one txn.
                        let k = self.key(rng);
                        return Txn::new(vec![
                            Op::PointRead { table, key: k },
                            Op::Update { table, key: k },
                        ]);
                    }
                };
                Txn::single(op)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simdb::{EngineFlavor, HardwareConfig};

    fn built(mix: YcsbMix) -> (Engine, YcsbWorkload) {
        let mut e = Engine::new(EngineFlavor::MongoDb, HardwareConfig::cdb_e(), 3);
        let mut wl = YcsbWorkload::new(mix, 0.001);
        wl.setup(&mut e);
        (e, wl)
    }

    #[test]
    fn mix_a_is_half_updates() {
        let (_, mut wl) = built(YcsbMix::A);
        let mut rng = StdRng::seed_from_u64(1);
        let txns = wl.window(2000, &mut rng);
        let writes = txns.iter().filter(|t| t.is_write()).count();
        assert!((800..1200).contains(&writes), "writes {writes}");
    }

    #[test]
    fn mix_c_is_read_only() {
        let (_, mut wl) = built(YcsbMix::C);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(wl.window(500, &mut rng).iter().all(|t| !t.is_write()));
    }

    #[test]
    fn mix_d_inserts_advance_cursor() {
        let (_, mut wl) = built(YcsbMix::D);
        let start = wl.insert_cursor;
        let mut rng = StdRng::seed_from_u64(3);
        let _ = wl.window(2000, &mut rng);
        assert!(wl.insert_cursor > start);
    }

    #[test]
    fn mix_e_scans_dominate() {
        let (_, mut wl) = built(YcsbMix::E);
        let mut rng = StdRng::seed_from_u64(4);
        let txns = wl.window(1000, &mut rng);
        let scans = txns
            .iter()
            .filter(|t| matches!(t.ops[0], Op::RangeScan { .. }))
            .count();
        assert!(scans > 900, "scans {scans}");
    }

    #[test]
    fn mix_f_is_read_modify_write() {
        let (_, mut wl) = built(YcsbMix::F);
        let mut rng = StdRng::seed_from_u64(5);
        for txn in wl.window(50, &mut rng) {
            assert_eq!(txn.ops.len(), 2);
            assert!(!txn.ops[0].is_write());
            assert!(txn.ops[1].is_write());
        }
    }

    #[test]
    fn zipfian_keys_are_skewed() {
        let (_, mut wl) = built(YcsbMix::C);
        let mut rng = StdRng::seed_from_u64(6);
        let txns = wl.window(5000, &mut rng);
        let mut counts = std::collections::HashMap::new();
        for t in &txns {
            if let Op::PointRead { key, .. } = t.ops[0] {
                *counts.entry(key).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 50, "hottest key count {max} shows zipf skew");
    }

    #[test]
    fn executes_on_mongodb_flavor() {
        let (mut e, mut wl) = built(YcsbMix::A);
        let mut rng = StdRng::seed_from_u64(7);
        let txns = wl.window(500, &mut rng);
        let perf = e.run(&txns, wl.default_clients()).unwrap();
        assert!(perf.throughput_tps > 0.0);
    }
}
