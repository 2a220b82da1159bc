//! The 63 internal metrics.
//!
//! Section 2.1.1: "There are 63 internal metrics in CDB, including 14 state
//! values and 49 cumulative values." State values are gauges sampled over a
//! window and averaged; cumulative values are monotone counters and the
//! collector reports the difference over the window (§2.2.2). The names
//! mirror MySQL's `SHOW STATUS` output so the repo reads like the system it
//! reproduces.

/// Number of gauge-style state metrics.
pub const STATE_METRIC_COUNT: usize = 14;
/// Number of monotone cumulative counters.
pub const CUMULATIVE_METRIC_COUNT: usize = 49;
/// Total internal metric dimensionality — the RL state size.
pub const TOTAL_METRIC_COUNT: usize = STATE_METRIC_COUNT + CUMULATIVE_METRIC_COUNT;

/// Gauge-style state metrics (instantaneous values, averaged over a window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum StateMetric {
    BufferPoolPagesTotal = 0,
    BufferPoolPagesFree,
    BufferPoolPagesData,
    BufferPoolPagesDirty,
    PageSize,
    ThreadsConnected,
    ThreadsRunning,
    OpenTables,
    RowLockCurrentWaits,
    DataPendingReads,
    DataPendingWrites,
    OsLogPendingFsyncs,
    LogCapacityBytes,
    CheckpointAgeBytes,
}

impl StateMetric {
    /// All state metrics in index order.
    pub const ALL: [StateMetric; STATE_METRIC_COUNT] = [
        StateMetric::BufferPoolPagesTotal,
        StateMetric::BufferPoolPagesFree,
        StateMetric::BufferPoolPagesData,
        StateMetric::BufferPoolPagesDirty,
        StateMetric::PageSize,
        StateMetric::ThreadsConnected,
        StateMetric::ThreadsRunning,
        StateMetric::OpenTables,
        StateMetric::RowLockCurrentWaits,
        StateMetric::DataPendingReads,
        StateMetric::DataPendingWrites,
        StateMetric::OsLogPendingFsyncs,
        StateMetric::LogCapacityBytes,
        StateMetric::CheckpointAgeBytes,
    ];

    /// MySQL-style metric name.
    pub fn name(self) -> &'static str {
        match self {
            StateMetric::BufferPoolPagesTotal => "innodb_buffer_pool_pages_total",
            StateMetric::BufferPoolPagesFree => "innodb_buffer_pool_pages_free",
            StateMetric::BufferPoolPagesData => "innodb_buffer_pool_pages_data",
            StateMetric::BufferPoolPagesDirty => "innodb_buffer_pool_pages_dirty",
            StateMetric::PageSize => "innodb_page_size",
            StateMetric::ThreadsConnected => "threads_connected",
            StateMetric::ThreadsRunning => "threads_running",
            StateMetric::OpenTables => "open_tables",
            StateMetric::RowLockCurrentWaits => "innodb_row_lock_current_waits",
            StateMetric::DataPendingReads => "innodb_data_pending_reads",
            StateMetric::DataPendingWrites => "innodb_data_pending_writes",
            StateMetric::OsLogPendingFsyncs => "innodb_os_log_pending_fsyncs",
            StateMetric::LogCapacityBytes => "innodb_log_capacity_bytes",
            StateMetric::CheckpointAgeBytes => "innodb_checkpoint_age_bytes",
        }
    }
}

/// Monotone cumulative counters (reported as deltas over a window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum CumulativeMetric {
    BufferPoolReadRequests = 0,
    BufferPoolReads,
    BufferPoolWriteRequests,
    BufferPoolPagesFlushed,
    DataReads,
    DataRead,
    DataWrites,
    DataWritten,
    DataFsyncs,
    LogWriteRequests,
    LogWrites,
    OsLogFsyncs,
    OsLogWritten,
    LogWaits,
    PagesCreated,
    PagesRead,
    PagesWritten,
    RowsRead,
    RowsInserted,
    RowsUpdated,
    RowsDeleted,
    RowLockWaits,
    RowLockTimeUs,
    LockTimeouts,
    Deadlocks,
    ComSelect,
    ComInsert,
    ComUpdate,
    ComDelete,
    ComCommit,
    ComRollback,
    Questions,
    Queries,
    SlowQueries,
    CreatedTmpTables,
    CreatedTmpDiskTables,
    SortMergePasses,
    SortRows,
    SortScan,
    HandlerReadFirst,
    HandlerReadKey,
    HandlerReadNext,
    HandlerReadRnd,
    HandlerWrite,
    HandlerUpdate,
    HandlerDelete,
    BytesReceived,
    BytesSent,
    Checkpoints,
}

impl CumulativeMetric {
    /// All cumulative metrics in index order.
    pub const ALL: [CumulativeMetric; CUMULATIVE_METRIC_COUNT] = [
        CumulativeMetric::BufferPoolReadRequests,
        CumulativeMetric::BufferPoolReads,
        CumulativeMetric::BufferPoolWriteRequests,
        CumulativeMetric::BufferPoolPagesFlushed,
        CumulativeMetric::DataReads,
        CumulativeMetric::DataRead,
        CumulativeMetric::DataWrites,
        CumulativeMetric::DataWritten,
        CumulativeMetric::DataFsyncs,
        CumulativeMetric::LogWriteRequests,
        CumulativeMetric::LogWrites,
        CumulativeMetric::OsLogFsyncs,
        CumulativeMetric::OsLogWritten,
        CumulativeMetric::LogWaits,
        CumulativeMetric::PagesCreated,
        CumulativeMetric::PagesRead,
        CumulativeMetric::PagesWritten,
        CumulativeMetric::RowsRead,
        CumulativeMetric::RowsInserted,
        CumulativeMetric::RowsUpdated,
        CumulativeMetric::RowsDeleted,
        CumulativeMetric::RowLockWaits,
        CumulativeMetric::RowLockTimeUs,
        CumulativeMetric::LockTimeouts,
        CumulativeMetric::Deadlocks,
        CumulativeMetric::ComSelect,
        CumulativeMetric::ComInsert,
        CumulativeMetric::ComUpdate,
        CumulativeMetric::ComDelete,
        CumulativeMetric::ComCommit,
        CumulativeMetric::ComRollback,
        CumulativeMetric::Questions,
        CumulativeMetric::Queries,
        CumulativeMetric::SlowQueries,
        CumulativeMetric::CreatedTmpTables,
        CumulativeMetric::CreatedTmpDiskTables,
        CumulativeMetric::SortMergePasses,
        CumulativeMetric::SortRows,
        CumulativeMetric::SortScan,
        CumulativeMetric::HandlerReadFirst,
        CumulativeMetric::HandlerReadKey,
        CumulativeMetric::HandlerReadNext,
        CumulativeMetric::HandlerReadRnd,
        CumulativeMetric::HandlerWrite,
        CumulativeMetric::HandlerUpdate,
        CumulativeMetric::HandlerDelete,
        CumulativeMetric::BytesReceived,
        CumulativeMetric::BytesSent,
        CumulativeMetric::Checkpoints,
    ];

    /// MySQL-style metric name.
    pub fn name(self) -> &'static str {
        match self {
            CumulativeMetric::BufferPoolReadRequests => "innodb_buffer_pool_read_requests",
            CumulativeMetric::BufferPoolReads => "innodb_buffer_pool_reads",
            CumulativeMetric::BufferPoolWriteRequests => "innodb_buffer_pool_write_requests",
            CumulativeMetric::BufferPoolPagesFlushed => "innodb_buffer_pool_pages_flushed",
            CumulativeMetric::DataReads => "innodb_data_reads",
            CumulativeMetric::DataRead => "innodb_data_read",
            CumulativeMetric::DataWrites => "innodb_data_writes",
            CumulativeMetric::DataWritten => "innodb_data_written",
            CumulativeMetric::DataFsyncs => "innodb_data_fsyncs",
            CumulativeMetric::LogWriteRequests => "innodb_log_write_requests",
            CumulativeMetric::LogWrites => "innodb_log_writes",
            CumulativeMetric::OsLogFsyncs => "innodb_os_log_fsyncs",
            CumulativeMetric::OsLogWritten => "innodb_os_log_written",
            CumulativeMetric::LogWaits => "innodb_log_waits",
            CumulativeMetric::PagesCreated => "innodb_pages_created",
            CumulativeMetric::PagesRead => "innodb_pages_read",
            CumulativeMetric::PagesWritten => "innodb_pages_written",
            CumulativeMetric::RowsRead => "innodb_rows_read",
            CumulativeMetric::RowsInserted => "innodb_rows_inserted",
            CumulativeMetric::RowsUpdated => "innodb_rows_updated",
            CumulativeMetric::RowsDeleted => "innodb_rows_deleted",
            CumulativeMetric::RowLockWaits => "innodb_row_lock_waits",
            CumulativeMetric::RowLockTimeUs => "innodb_row_lock_time",
            CumulativeMetric::LockTimeouts => "innodb_lock_timeouts",
            CumulativeMetric::Deadlocks => "innodb_deadlocks",
            CumulativeMetric::ComSelect => "com_select",
            CumulativeMetric::ComInsert => "com_insert",
            CumulativeMetric::ComUpdate => "com_update",
            CumulativeMetric::ComDelete => "com_delete",
            CumulativeMetric::ComCommit => "com_commit",
            CumulativeMetric::ComRollback => "com_rollback",
            CumulativeMetric::Questions => "questions",
            CumulativeMetric::Queries => "queries",
            CumulativeMetric::SlowQueries => "slow_queries",
            CumulativeMetric::CreatedTmpTables => "created_tmp_tables",
            CumulativeMetric::CreatedTmpDiskTables => "created_tmp_disk_tables",
            CumulativeMetric::SortMergePasses => "sort_merge_passes",
            CumulativeMetric::SortRows => "sort_rows",
            CumulativeMetric::SortScan => "sort_scan",
            CumulativeMetric::HandlerReadFirst => "handler_read_first",
            CumulativeMetric::HandlerReadKey => "handler_read_key",
            CumulativeMetric::HandlerReadNext => "handler_read_next",
            CumulativeMetric::HandlerReadRnd => "handler_read_rnd",
            CumulativeMetric::HandlerWrite => "handler_write",
            CumulativeMetric::HandlerUpdate => "handler_update",
            CumulativeMetric::HandlerDelete => "handler_delete",
            CumulativeMetric::BytesReceived => "bytes_received",
            CumulativeMetric::BytesSent => "bytes_sent",
            CumulativeMetric::Checkpoints => "innodb_checkpoints",
        }
    }
}

/// The full internal metric table of a running instance — the analogue of
/// `SHOW STATUS` output.
#[derive(Debug, Clone, PartialEq)]
pub struct InternalMetrics {
    /// Gauge values, indexed by [`StateMetric`].
    pub state: [f64; STATE_METRIC_COUNT],
    /// Monotone counters, indexed by [`CumulativeMetric`].
    pub cumulative: [f64; CUMULATIVE_METRIC_COUNT],
}

impl Default for InternalMetrics {
    fn default() -> Self {
        Self { state: [0.0; STATE_METRIC_COUNT], cumulative: [0.0; CUMULATIVE_METRIC_COUNT] }
    }
}

impl InternalMetrics {
    /// Reads a gauge.
    #[inline]
    pub fn get_state(&self, m: StateMetric) -> f64 {
        // lint:allow(panic) reason=StateMetric discriminants are < STATE_METRIC_COUNT by construction
        self.state[m as usize]
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_state(&mut self, m: StateMetric, v: f64) {
        // lint:allow(panic) reason=StateMetric discriminants are < STATE_METRIC_COUNT by construction
        self.state[m as usize] = v;
    }

    /// Reads a counter.
    #[inline]
    pub fn get_cumulative(&self, m: CumulativeMetric) -> f64 {
        // lint:allow(panic) reason=CumulativeMetric discriminants are < CUMULATIVE_METRIC_COUNT by construction
        self.cumulative[m as usize]
    }

    /// Increments a counter.
    #[inline]
    pub fn bump(&mut self, m: CumulativeMetric, by: f64) {
        debug_assert!(by >= 0.0, "cumulative metrics are monotone, got -{by} for {m:?}");
        // lint:allow(panic) reason=CumulativeMetric discriminants are < CUMULATIVE_METRIC_COUNT by construction
        self.cumulative[m as usize] += by;
    }

    /// Window delta per Section 2.2.2: state values reported at collection
    /// time (the engine's gauges are already window-representative values),
    /// cumulative values differenced.
    pub fn delta_since(&self, earlier: &InternalMetrics) -> MetricsDelta {
        let mut d = MetricsDelta::default();
        let (states, cums) = d.values.split_at_mut(STATE_METRIC_COUNT);
        states.copy_from_slice(&self.state);
        for (dv, (now, then)) in
            cums.iter_mut().zip(self.cumulative.iter().zip(&earlier.cumulative))
        {
            *dv = (now - then).max(0.0);
        }
        d
    }
}

/// A 63-dimensional processed metric vector for one observation window —
/// exactly what the metrics collector feeds the deep RL network (§2.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDelta {
    /// `[state averages (14) | cumulative deltas (49)]`.
    pub values: [f64; TOTAL_METRIC_COUNT],
}

impl Default for MetricsDelta {
    fn default() -> Self {
        Self { values: [0.0; TOTAL_METRIC_COUNT] }
    }
}

impl MetricsDelta {
    /// The vector as a slice (length 63).
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counts_match_the_paper() {
        assert_eq!(STATE_METRIC_COUNT, 14);
        assert_eq!(CUMULATIVE_METRIC_COUNT, 49);
        assert_eq!(TOTAL_METRIC_COUNT, 63);
        assert_eq!(StateMetric::ALL.len(), 14);
        assert_eq!(CumulativeMetric::ALL.len(), 49);
    }

    #[test]
    fn enum_discriminants_match_positions() {
        for (i, m) in StateMetric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "state metric {m:?} out of order");
        }
        for (i, m) in CumulativeMetric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "cumulative metric {m:?} out of order");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names = HashSet::new();
        for m in StateMetric::ALL {
            assert!(names.insert(m.name()), "duplicate name {}", m.name());
        }
        for m in CumulativeMetric::ALL {
            assert!(names.insert(m.name()), "duplicate name {}", m.name());
        }
        assert_eq!(names.len(), TOTAL_METRIC_COUNT);
    }

    #[test]
    fn delta_averages_state_and_differences_counters() {
        let mut a = InternalMetrics::default();
        let mut b = InternalMetrics::default();
        a.set_state(StateMetric::ThreadsRunning, 10.0);
        b.set_state(StateMetric::ThreadsRunning, 30.0);
        a.bump(CumulativeMetric::ComSelect, 100.0);
        b.bump(CumulativeMetric::ComSelect, 175.0);
        let d = b.delta_since(&a);
        assert_eq!(d.values[StateMetric::ThreadsRunning as usize], 30.0);
        assert_eq!(
            d.values[STATE_METRIC_COUNT + CumulativeMetric::ComSelect as usize],
            75.0
        );
    }

    #[test]
    fn delta_clamps_counter_regression_to_zero() {
        // A restart can reset counters; the collector must not emit negatives.
        let mut a = InternalMetrics::default();
        a.bump(CumulativeMetric::Queries, 500.0);
        let b = InternalMetrics::default();
        let d = b.delta_since(&a);
        assert_eq!(d.values[STATE_METRIC_COUNT + CumulativeMetric::Queries as usize], 0.0);
    }

    #[test]
    fn name_of_spans_both_sections() {
        // The delta vector is the state section, then the cumulative one.
        assert_eq!(StateMetric::ALL[0].name(), "innodb_buffer_pool_pages_total");
        assert_eq!(CumulativeMetric::ALL[0].name(), "innodb_buffer_pool_read_requests");
        assert_eq!(CumulativeMetric::ALL[CUMULATIVE_METRIC_COUNT - 1].name(), "innodb_checkpoints");
        assert_eq!(STATE_METRIC_COUNT + CUMULATIVE_METRIC_COUNT, TOTAL_METRIC_COUNT);
    }
}
