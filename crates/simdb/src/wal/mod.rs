//! Redo log (WAL) with a log buffer, a file group, and checkpointing.
//!
//! This is where the paper's most interesting knob interaction lives:
//! `innodb_log_file_size * innodb_log_files_in_group` bounds the checkpoint
//! age — too small and the engine stalls on forced checkpoints; too large
//! and (per §5.2.3) the instance *crashes* because the log files exhaust the
//! disk. The flush-at-commit policy knob trades durability cost against
//! throughput exactly as `innodb_flush_log_at_trx_commit` does.

/// Durability policy at commit (`innodb_flush_log_at_trx_commit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// 0 — write & sync roughly once per second; cheapest, least durable.
    Lazy,
    /// 1 — write & fsync at every commit; most durable, most expensive.
    PerCommit,
    /// 2 — write at every commit, fsync roughly once per second.
    PerCommitNoSync,
}

impl FlushPolicy {
    /// Decodes the MySQL enum value (0/1/2).
    pub fn from_knob(v: i64) -> Self {
        match v {
            0 => FlushPolicy::Lazy,
            2 => FlushPolicy::PerCommitNoSync,
            _ => FlushPolicy::PerCommit,
        }
    }
}

/// Accounting for one log operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogOutcome {
    /// Log-buffer flushes to the OS (each is a sequential write).
    pub buffer_flushes: u64,
    /// Durable fsyncs issued.
    pub fsyncs: u64,
    /// Bytes written out of the buffer.
    pub bytes_flushed: u64,
    /// Times a writer had to wait for buffer space
    /// (`innodb_log_waits` — the signal that the log buffer is too small).
    pub log_waits: u64,
}

/// The redo log.
#[derive(Debug, Clone)]
pub struct RedoLog {
    buffer_capacity: u64,
    file_size: u64,
    files_in_group: u64,
    policy: FlushPolicy,
    buffer_used: u64,
    /// Total bytes ever appended (the LSN).
    lsn: u64,
    flushed_lsn: u64,
    checkpoint_lsn: u64,
    // Lifetime counters.
    write_requests: u64,
    writes: u64,
    fsyncs: u64,
    bytes_written: u64,
    log_waits: u64,
    checkpoints: u64,
    /// Fault hook: durable fsyncs issued per logical sync (>1 during an
    /// fsync error storm, when failed syncs must be retried).
    fsync_retry: u64,
}

impl RedoLog {
    /// Creates a redo log with the given geometry and policy.
    pub fn new(buffer_capacity: u64, file_size: u64, files_in_group: u64, policy: FlushPolicy) -> Self {
        Self {
            buffer_capacity: buffer_capacity.max(4096),
            file_size,
            files_in_group: files_in_group.max(2),
            policy,
            buffer_used: 0,
            lsn: 0,
            flushed_lsn: 0,
            checkpoint_lsn: 0,
            write_requests: 0,
            writes: 0,
            fsyncs: 0,
            bytes_written: 0,
            log_waits: 0,
            checkpoints: 0,
            fsync_retry: 1,
        }
    }

    /// Fault hook: each logical fsync issues `factor` physical fsyncs
    /// (rounded, clamped to `[1, 64]`) while an fsync error storm is
    /// active — the retries surface in `innodb_os_log_fsyncs` and in log
    /// I/O cost exactly as a flaky log volume would. `1.0` restores
    /// healthy behaviour.
    pub fn set_fsync_retry_factor(&mut self, factor: f64) {
        self.fsync_retry = factor.round().clamp(1.0, 64.0) as u64;
    }

    /// Total redo capacity (`file_size * files_in_group`).
    pub fn capacity(&self) -> u64 {
        self.file_size * self.files_in_group
    }

    /// Bytes of redo not yet covered by a checkpoint.
    pub fn checkpoint_age(&self) -> u64 {
        self.lsn - self.checkpoint_lsn
    }

    /// Current LSN.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Lifetime counters: `(write_requests, writes, fsyncs, bytes, waits,
    /// checkpoints)`.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.write_requests,
            self.writes,
            self.fsyncs,
            self.bytes_written,
            self.log_waits,
            self.checkpoints,
        )
    }

    /// Appends redo for a statement.
    pub fn append(&mut self, bytes: u64) -> LogOutcome {
        self.write_requests += 1;
        self.lsn += bytes;
        let mut out = LogOutcome::default();
        self.buffer_used += bytes;
        // Writers needing more space than remains must wait for a flush.
        if self.buffer_used > self.buffer_capacity {
            out.log_waits += 1;
            self.log_waits += 1;
            out += self.flush_buffer();
        }
        out
    }

    /// Commits a transaction under the configured policy.
    pub fn commit(&mut self) -> LogOutcome {
        let mut out = LogOutcome::default();
        match self.policy {
            FlushPolicy::Lazy => {}
            FlushPolicy::PerCommitNoSync => {
                out += self.flush_buffer();
            }
            FlushPolicy::PerCommit => {
                out += self.flush_buffer();
                out.fsyncs += self.fsync_retry;
                self.fsyncs += self.fsync_retry;
            }
        }
        out
    }

    /// Background tick (~once per simulated second): lazy policies flush and
    /// sync here.
    pub fn background_sync(&mut self) -> LogOutcome {
        let mut out = self.flush_buffer();
        out.fsyncs += self.fsync_retry;
        self.fsyncs += self.fsync_retry;
        out
    }

    /// Whether the checkpoint age crossed the async trigger (75 % of
    /// capacity): the engine should start flushing dirty pages.
    pub fn needs_async_checkpoint(&self) -> bool {
        self.checkpoint_age() >= self.capacity() * 3 / 4
    }

    /// Whether the checkpoint age crossed the sync trigger (90 %): the
    /// engine must stall writers and flush.
    pub fn needs_sync_checkpoint(&self) -> bool {
        self.checkpoint_age() >= self.capacity() * 9 / 10
    }

    /// Completes a checkpoint: the engine flushed dirty pages up to the
    /// current LSN; the whole log becomes reusable.
    pub fn complete_checkpoint(&mut self) {
        self.checkpoint_lsn = self.lsn;
        self.checkpoints += 1;
    }

    /// Advances the checkpoint LSN by `bytes` (incremental / fuzzy
    /// checkpointing driven by background flushing).
    pub fn advance_checkpoint(&mut self, bytes: u64) {
        self.checkpoint_lsn = (self.checkpoint_lsn + bytes).min(self.lsn);
    }

    fn flush_buffer(&mut self) -> LogOutcome {
        if self.buffer_used == 0 {
            return LogOutcome::default();
        }
        let bytes = self.buffer_used;
        self.buffer_used = 0;
        self.flushed_lsn = self.lsn;
        self.writes += 1;
        self.bytes_written += bytes;
        LogOutcome { buffer_flushes: 1, fsyncs: 0, bytes_flushed: bytes, log_waits: 0 }
    }
}

impl std::ops::AddAssign for LogOutcome {
    fn add_assign(&mut self, rhs: Self) {
        self.buffer_flushes += rhs.buffer_flushes;
        self.fsyncs += rhs.fsyncs;
        self.bytes_flushed += rhs.bytes_flushed;
        self.log_waits += rhs.log_waits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_commit_policy_syncs_every_commit() {
        let mut log = RedoLog::new(1 << 20, 1 << 24, 2, FlushPolicy::PerCommit);
        log.append(100);
        let out = log.commit();
        assert_eq!(out.fsyncs, 1);
        assert_eq!(out.buffer_flushes, 1);
        assert_eq!(out.bytes_flushed, 100);
    }

    #[test]
    fn lazy_policy_defers_to_background() {
        let mut log = RedoLog::new(1 << 20, 1 << 24, 2, FlushPolicy::Lazy);
        log.append(100);
        let out = log.commit();
        assert_eq!(out.fsyncs, 0);
        assert_eq!(out.buffer_flushes, 0);
        let bg = log.background_sync();
        assert_eq!(bg.fsyncs, 1);
        assert_eq!(bg.bytes_flushed, 100);
    }

    #[test]
    fn policy2_flushes_without_sync() {
        let mut log = RedoLog::new(1 << 20, 1 << 24, 2, FlushPolicy::PerCommitNoSync);
        log.append(100);
        let out = log.commit();
        assert_eq!(out.fsyncs, 0);
        assert_eq!(out.buffer_flushes, 1);
    }

    #[test]
    fn tiny_buffer_causes_log_waits() {
        let mut log = RedoLog::new(4096, 1 << 24, 2, FlushPolicy::Lazy);
        let mut waits = 0;
        for _ in 0..10 {
            waits += log.append(1000).log_waits;
        }
        assert!(waits >= 1, "small buffer should force waits");
        let (.., recorded_waits, _) = log.counters();
        assert_eq!(recorded_waits, waits);
    }

    #[test]
    fn checkpoint_age_tracks_appends() {
        let mut log = RedoLog::new(1 << 20, 1000, 2, FlushPolicy::Lazy);
        assert_eq!(log.capacity(), 2000);
        for _ in 0..15 {
            log.append(100);
        }
        assert_eq!(log.checkpoint_age(), 1500);
        assert!(log.needs_async_checkpoint());
        assert!(!log.needs_sync_checkpoint());
        for _ in 0..4 {
            log.append(100);
        }
        assert!(log.needs_sync_checkpoint());
        log.complete_checkpoint();
        assert_eq!(log.checkpoint_age(), 0);
        assert!(!log.needs_async_checkpoint());
    }

    #[test]
    fn bigger_capacity_checkpoints_less() {
        let run = |file_size: u64| {
            let mut log = RedoLog::new(1 << 20, file_size, 2, FlushPolicy::Lazy);
            let mut checkpoints = 0;
            for _ in 0..10_000 {
                log.append(200);
                if log.needs_sync_checkpoint() {
                    log.complete_checkpoint();
                    checkpoints += 1;
                }
            }
            checkpoints
        };
        assert!(run(10_000) > run(1_000_000) * 10);
    }

    #[test]
    fn fsync_retry_factor_multiplies_syncs() {
        let mut log = RedoLog::new(1 << 20, 1 << 24, 2, FlushPolicy::PerCommit);
        log.set_fsync_retry_factor(8.0);
        log.append(100);
        let out = log.commit();
        assert_eq!(out.fsyncs, 8);
        log.set_fsync_retry_factor(1.0);
        log.append(100);
        assert_eq!(log.commit().fsyncs, 1);
        let (_, _, fsyncs, ..) = log.counters();
        assert_eq!(fsyncs, 9, "retries surface in the lifetime counter");
    }

    #[test]
    fn policy_decoding() {
        assert_eq!(FlushPolicy::from_knob(0), FlushPolicy::Lazy);
        assert_eq!(FlushPolicy::from_knob(1), FlushPolicy::PerCommit);
        assert_eq!(FlushPolicy::from_knob(2), FlushPolicy::PerCommitNoSync);
    }
}
