//! Sysbench OLTP workloads: read-only (RO), write-only (WO), read-write (RW).
//!
//! Matches the paper's setup (§5, "Workload"): 16 tables of ~200 K rows each
//! (~8.5 GB with sysbench's padded ~2.7 KB rows) driven by 1500 client
//! threads. Transaction shapes follow sysbench's `oltp_*.lua` scripts:
//!
//! * RO: 10 point selects + 4 range queries,
//! * WO: 2 index/non-index updates + 1 delete + 1 insert,
//! * RW: the RO reads plus the WO writes in one transaction.

use crate::Workload;
use rand::rngs::StdRng;
use rand::Rng;
use simdb::{Engine, Op, TableId, Txn};

/// Sysbench row width (padded `c`/`pad` columns), bytes.
const ROW_WIDTH: u64 = 2700;
/// Paper table count.
const TABLES: usize = 16;
/// Paper rows per table at scale 1.0.
const ROWS_PER_TABLE: u64 = 200_000;
/// Paper client threads.
const CLIENTS: u32 = 1500;

/// Which sysbench OLTP script to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysbenchMode {
    /// `oltp_read_only`
    ReadOnly,
    /// `oltp_write_only`
    WriteOnly,
    /// `oltp_read_write`
    ReadWrite,
}

/// The sysbench workload generator.
pub struct SysbenchWorkload {
    mode: SysbenchMode,
    rows_per_table: u64,
    tables: Vec<TableId>,
    insert_cursor: u64,
}

impl SysbenchWorkload {
    /// Creates a sysbench workload. `scale` shrinks the dataset
    /// proportionally (1.0 = the paper's 16 × 200 K rows).
    pub fn new(mode: SysbenchMode, scale: f64) -> Self {
        let rows = ((ROWS_PER_TABLE as f64 * scale) as u64).max(1_000);
        Self {
            mode,
            rows_per_table: rows,
            tables: Vec::new(),
            insert_cursor: 0,
        }
    }

    /// Rows per table after scaling.
    pub fn rows_per_table(&self) -> u64 {
        self.rows_per_table
    }

    fn random_table(&self, rng: &mut StdRng) -> TableId {
        // lint:allow(panic) reason=the index is drawn from 0..tables.len()
        self.tables[rng.gen_range(0..self.tables.len())]
    }

    /// Uniform over the table, sysbench's default `--rand-type` for the
    /// oltp scripts.
    fn random_key(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.rows_per_table)
    }

    fn push_reads(&self, ops: &mut Vec<Op>, rng: &mut StdRng) {
        for _ in 0..10 {
            ops.push(Op::PointRead { table: self.random_table(rng), key: self.random_key(rng) });
        }
        for _ in 0..4 {
            ops.push(Op::RangeScan {
                table: self.random_table(rng),
                start: self.random_key(rng),
                limit: 100,
            });
        }
    }

    fn push_writes(&mut self, ops: &mut Vec<Op>, rng: &mut StdRng) {
        let t = self.random_table(rng);
        ops.push(Op::Update { table: t, key: self.random_key(rng) });
        ops.push(Op::Update { table: self.random_table(rng), key: self.random_key(rng) });
        let victim = self.random_key(rng);
        ops.push(Op::Delete { table: t, key: victim });
        // Sysbench re-inserts the deleted id, keeping table size stable.
        ops.push(Op::Insert { table: t, key: victim });
        self.insert_cursor = self.insert_cursor.wrapping_add(1);
    }
}

impl Workload for SysbenchWorkload {
    fn name(&self) -> &'static str {
        match self.mode {
            SysbenchMode::ReadOnly => "sysbench-ro",
            SysbenchMode::WriteOnly => "sysbench-wo",
            SysbenchMode::ReadWrite => "sysbench-rw",
        }
    }

    fn default_clients(&self) -> u32 {
        CLIENTS
    }

    fn setup(&mut self, engine: &mut Engine) {
        self.tables.clear();
        for i in 0..TABLES {
            let id = engine.create_table(format!("sbtest{}", i + 1), ROW_WIDTH, self.rows_per_table);
            self.tables.push(id);
        }
    }

    fn window(&mut self, n: usize, rng: &mut StdRng) -> Vec<Txn> {
        assert!(!self.tables.is_empty(), "setup() must run before window()");
        (0..n)
            .map(|_| {
                let mut ops = Vec::with_capacity(18);
                match self.mode {
                    SysbenchMode::ReadOnly => self.push_reads(&mut ops, rng),
                    SysbenchMode::WriteOnly => self.push_writes(&mut ops, rng),
                    SysbenchMode::ReadWrite => {
                        self.push_reads(&mut ops, rng);
                        self.push_writes(&mut ops, rng);
                    }
                }
                Txn::new(ops)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simdb::{EngineFlavor, HardwareConfig};

    fn engine() -> Engine {
        Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 9)
    }

    #[test]
    fn setup_creates_sixteen_tables() {
        let mut e = engine();
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 0.01);
        wl.setup(&mut e);
        assert_eq!(wl.tables.len(), 16);
        assert!(e.data_pages() > 0);
    }

    #[test]
    fn ro_windows_contain_no_writes() {
        let mut e = engine();
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadOnly, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(1);
        for txn in wl.window(50, &mut rng) {
            assert!(!txn.is_write());
            assert_eq!(txn.ops.len(), 14);
        }
    }

    #[test]
    fn wo_windows_are_all_writes() {
        let mut e = engine();
        let mut wl = SysbenchWorkload::new(SysbenchMode::WriteOnly, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(2);
        for txn in wl.window(50, &mut rng) {
            assert!(txn.is_write());
            assert!(txn.ops.iter().all(|o| o.is_write()));
        }
    }

    #[test]
    fn rw_mixes_reads_and_writes() {
        let mut e = engine();
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(3);
        let txns = wl.window(20, &mut rng);
        for txn in &txns {
            assert!(txn.is_write());
            assert!(txn.ops.iter().any(|o| !o.is_write()));
            assert_eq!(txn.ops.len(), 18);
        }
    }

    #[test]
    fn windows_execute_on_engine() {
        let mut e = engine();
        let mut wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 0.01);
        wl.setup(&mut e);
        let mut rng = StdRng::seed_from_u64(4);
        let txns = wl.window(100, &mut rng);
        let perf = e.run(&txns, 64).unwrap();
        assert!(perf.throughput_tps > 0.0);
    }

    #[test]
    fn paper_scale_parameters() {
        let wl = SysbenchWorkload::new(SysbenchMode::ReadWrite, 1.0);
        assert_eq!(wl.rows_per_table(), 200_000);
        assert_eq!(wl.default_clients(), 1500);
    }
}
