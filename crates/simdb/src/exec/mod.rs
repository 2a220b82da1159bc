//! Logical operations and transactions executed by the engine.
//!
//! Workload generators (the `workload` crate) produce streams of [`Txn`]s;
//! the engine executes each against its real storage structures and charges
//! costs through the queueing model in [`crate::cost`].

use crate::storage::TableId;

/// A single logical operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Primary-key point lookup (`SELECT ... WHERE id = ?`).
    PointRead {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Ordered range scan of up to `limit` rows from `start`.
    RangeScan {
        /// Target table.
        table: TableId,
        /// First key.
        start: u64,
        /// Maximum rows.
        limit: u32,
    },
    /// Primary-key update (reads then rewrites one row).
    Update {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Row insert.
    Insert {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// Row delete.
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: u64,
    },
    /// OLAP: scan a percentage of a table's pages.
    FullScan {
        /// Target table.
        table: TableId,
        /// Percentage of pages touched (1–100).
        fraction_pct: u8,
    },
    /// OLAP: sort/aggregate over intermediate rows; spills to disk when the
    /// sort exceeds `sort_buffer_size`.
    SortAggregate {
        /// Source table (for accounting).
        table: TableId,
        /// Rows entering the sort.
        input_rows: u64,
        /// Bytes per row in the sort.
        row_bytes: u32,
    },
    /// OLAP: join driving `outer_rows` probes into `inner`; becomes a
    /// block-nested-loop (join-buffer bound) when the build side is large.
    Join {
        /// Outer (probe-driving) table.
        outer: TableId,
        /// Inner (probed) table.
        inner: TableId,
        /// Rows scanned on the outer side.
        outer_rows: u64,
    },
}

impl Op {
    /// True for ops that take row write locks and generate redo.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Update { .. } | Op::Insert { .. } | Op::Delete { .. })
    }
}

/// A transaction: an op sequence committed atomically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Operations in execution order.
    pub ops: Vec<Op>,
}

impl Txn {
    /// Creates a transaction.
    pub fn new(ops: Vec<Op>) -> Self {
        Self { ops }
    }

    /// Single-op convenience constructor.
    pub fn single(op: Op) -> Self {
        Self { ops: vec![op] }
    }

    /// Whether any op writes.
    pub fn is_write(&self) -> bool {
        self.ops.iter().any(Op::is_write)
    }
}

/// Per-transaction resource demands produced by the executor, consumed by
/// the cost model. All time units are simulated microseconds of *service
/// demand* (queueing inflation is applied later).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TxnDemand {
    /// CPU service demand.
    pub cpu_us: f64,
    /// Random-read I/O service demand (buffer pool misses).
    pub read_io_us: f64,
    /// Page-write I/O service demand (evictions, checkpoints, spills).
    pub write_io_us: f64,
    /// Log-device service demand (sequential writes + fsyncs).
    pub log_io_us: f64,
    /// Pure lock-wait delay (not a queueing resource).
    pub lock_wait_us: f64,
    /// Transaction aborted (timeout / deadlock); it still consumed resources.
    pub aborted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(Op::Update { table: 0, key: 1 }.is_write());
        assert!(Op::Insert { table: 0, key: 1 }.is_write());
        assert!(Op::Delete { table: 0, key: 1 }.is_write());
        assert!(!Op::PointRead { table: 0, key: 1 }.is_write());
        assert!(!Op::FullScan { table: 0, fraction_pct: 50 }.is_write());
    }

    #[test]
    fn txn_write_detection() {
        let ro = Txn::new(vec![
            Op::PointRead { table: 0, key: 1 },
            Op::RangeScan { table: 0, start: 0, limit: 10 },
        ]);
        assert!(!ro.is_write());
        let rw = Txn::new(vec![
            Op::PointRead { table: 0, key: 1 },
            Op::Update { table: 0, key: 1 },
        ]);
        assert!(rw.is_write());
    }
}
