//! Engine flavors and the flavor-independent structural settings.
//!
//! The paper evaluates CDBTune on cloud MySQL (CDB), local MySQL, PostgreSQL
//! and MongoDB (Appendix C.3). One storage engine serves all four: each
//! flavor supplies its own knob registry and a mapping from its knob names
//! into the common [`StructuralSettings`] the engine and cost model consume
//! (e.g. `shared_buffers` and `wiredTigerCacheSizeGB` both set the buffer
//! pool). The tuner never sees this mapping — it only sees a knob vector and
//! a metric vector, exactly as in the paper.

use crate::hardware::HardwareConfig;
use crate::knobs::{mongodb, mysql, postgres, KnobConfig, KnobRegistry};
use crate::wal::FlushPolicy;
use std::sync::Arc;

/// Which database system the engine emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFlavor {
    /// Tencent-cloud MySQL (the paper's main subject), 266 knobs.
    MySqlCdb,
    /// Self-built local MySQL (Figure 18), 266 knobs, slightly slower base
    /// path (no cloud kernel optimizations).
    LocalMySql,
    /// PostgreSQL (Figure 17), 169 knobs.
    Postgres,
    /// MongoDB / WiredTiger (Figure 16), 232 knobs.
    MongoDb,
}

impl EngineFlavor {
    /// Builds this flavor's knob registry for the given hardware.
    pub fn registry(self, hw: &HardwareConfig) -> Arc<KnobRegistry> {
        match self {
            EngineFlavor::MySqlCdb | EngineFlavor::LocalMySql => mysql::mysql_registry(hw),
            EngineFlavor::Postgres => postgres::postgres_registry(hw),
            EngineFlavor::MongoDb => mongodb::mongodb_registry(hw),
        }
    }

    /// Base CPU-path multiplier relative to cloud MySQL.
    pub fn base_cpu_factor(self) -> f64 {
        match self {
            EngineFlavor::MySqlCdb => 1.0,
            EngineFlavor::LocalMySql => 1.12,
            EngineFlavor::Postgres => 1.05,
            EngineFlavor::MongoDb => 0.95,
        }
    }
}

impl std::fmt::Display for EngineFlavor {
    /// Canonical lowercase label; round-trips through [`std::str::FromStr`]
    /// (the `cdbtuned` wire protocol and registry fingerprints rely on it).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineFlavor::MySqlCdb => "mysql",
            EngineFlavor::LocalMySql => "local-mysql",
            EngineFlavor::Postgres => "postgres",
            EngineFlavor::MongoDb => "mongodb",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for EngineFlavor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mysql" | "cdb" | "mysql-cdb" => Ok(EngineFlavor::MySqlCdb),
            "local-mysql" | "localmysql" => Ok(EngineFlavor::LocalMySql),
            "postgres" | "postgresql" | "pg" => Ok(EngineFlavor::Postgres),
            "mongodb" | "mongo" => Ok(EngineFlavor::MongoDb),
            other => Err(format!(
                "unknown engine flavor '{other}' (expected mysql/local-mysql/postgres/mongodb)"
            )),
        }
    }
}

/// Flavor-independent structural configuration consumed by the engine
/// components and the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct StructuralSettings {
    pub buffer_pool_bytes: u64,
    pub log_file_size: u64,
    pub log_files_in_group: u64,
    pub log_buffer_size: u64,
    pub flush_policy: FlushPolicy,
    pub read_io_threads: u32,
    pub write_io_threads: u32,
    pub purge_threads: u32,
    /// 0 = unlimited.
    pub thread_concurrency: u32,
    /// Background flush budget, pages per simulated second.
    pub io_capacity: u64,
    pub lock_wait_timeout_s: u32,
    pub max_connections: u32,
    pub sort_buffer_bytes: u64,
    pub join_buffer_bytes: u64,
    pub read_buffer_bytes: u64,
    pub read_rnd_buffer_bytes: u64,
    pub tmp_table_bytes: u64,
    pub max_dirty_pages_pct: u8,
    pub adaptive_hash_index: bool,
    pub sync_binlog: u32,
    pub doublewrite: bool,
    pub flush_method_direct: bool,
    pub query_cache_bytes: u64,
    pub query_cache_on: bool,
    pub flush_neighbors: bool,
    pub deadlock_detect: bool,
    pub base_cpu_factor: f64,
    pub table_open_cache: u32,
    pub thread_cache_size: u32,
    pub lru_scan_depth: u32,
    pub spin_wait_delay: u32,
    pub change_buffering_all: bool,
    pub binlog_cache_bytes: u64,
}

impl StructuralSettings {
    /// Total redo capacity; the crash rule (§5.2.3) compares this against
    /// disk capacity.
    pub fn log_capacity(&self) -> u64 {
        self.log_file_size * self.log_files_in_group
    }

    /// Extracts settings from a flavor's configuration.
    pub fn from_config(flavor: EngineFlavor, config: &KnobConfig, hw: &HardwareConfig) -> Self {
        match flavor {
            EngineFlavor::MySqlCdb | EngineFlavor::LocalMySql => {
                Self::from_mysql(flavor, config, hw)
            }
            EngineFlavor::Postgres => Self::from_postgres(config, hw),
            EngineFlavor::MongoDb => Self::from_mongodb(config, hw),
        }
    }

    fn from_mysql(flavor: EngineFlavor, config: &KnobConfig, hw: &HardwareConfig) -> Self {
        use mysql::names as n;
        let gi = |name: &str, d: i64| config.get(name).map(|v| v.as_i64()).unwrap_or(d);
        let gb = |name: &str, d: bool| config.get(name).map(|v| v.as_bool()).unwrap_or(d);
        Self {
            buffer_pool_bytes: gi(n::BUFFER_POOL_SIZE, (hw.ram_bytes() / 3) as i64) as u64,
            log_file_size: gi(n::LOG_FILE_SIZE, 48 << 20) as u64,
            log_files_in_group: gi(n::LOG_FILES_IN_GROUP, 2) as u64,
            log_buffer_size: gi(n::LOG_BUFFER_SIZE, 8 << 20) as u64,
            flush_policy: FlushPolicy::from_knob(gi(n::FLUSH_LOG_AT_TRX_COMMIT, 1)),
            read_io_threads: gi(n::READ_IO_THREADS, 4).clamp(1, 256) as u32,
            write_io_threads: gi(n::WRITE_IO_THREADS, 4).clamp(1, 256) as u32,
            purge_threads: gi(n::PURGE_THREADS, 1).clamp(1, 64) as u32,
            thread_concurrency: gi(n::THREAD_CONCURRENCY, 0).max(0) as u32,
            io_capacity: gi(n::IO_CAPACITY, 200).max(1) as u64,
            lock_wait_timeout_s: gi(n::LOCK_WAIT_TIMEOUT, 50).max(1) as u32,
            max_connections: gi(n::MAX_CONNECTIONS, 151).max(1) as u32,
            sort_buffer_bytes: gi(n::SORT_BUFFER_SIZE, 256 << 10) as u64,
            join_buffer_bytes: gi(n::JOIN_BUFFER_SIZE, 256 << 10) as u64,
            read_buffer_bytes: gi(n::READ_BUFFER_SIZE, 128 << 10) as u64,
            read_rnd_buffer_bytes: gi(n::READ_RND_BUFFER_SIZE, 256 << 10) as u64,
            tmp_table_bytes: gi(n::TMP_TABLE_SIZE, 16 << 20) as u64,
            max_dirty_pages_pct: gi(n::MAX_DIRTY_PAGES_PCT, 75).clamp(1, 99) as u8,
            adaptive_hash_index: gb(n::ADAPTIVE_HASH_INDEX, true),
            sync_binlog: gi(n::SYNC_BINLOG, 0).max(0) as u32,
            doublewrite: gb(n::DOUBLEWRITE, true),
            flush_method_direct: gi(n::FLUSH_METHOD, 0) == 2,
            query_cache_bytes: gi(n::QUERY_CACHE_SIZE, 0).max(0) as u64,
            query_cache_on: gi(n::QUERY_CACHE_TYPE, 0) == 1,
            flush_neighbors: gi(n::FLUSH_NEIGHBORS, 1) > 0,
            deadlock_detect: true,
            base_cpu_factor: flavor.base_cpu_factor(),
            table_open_cache: gi(n::TABLE_OPEN_CACHE, 2000).clamp(1, 1_000_000) as u32,
            thread_cache_size: gi(n::THREAD_CACHE_SIZE, 9).clamp(0, 100_000) as u32,
            lru_scan_depth: gi(n::LRU_SCAN_DEPTH, 1024).clamp(1, 100_000) as u32,
            spin_wait_delay: gi(n::SPIN_WAIT_DELAY, 6).clamp(0, 100_000) as u32,
            change_buffering_all: gi(n::CHANGE_BUFFERING, 5) == 5,
            binlog_cache_bytes: gi(n::BINLOG_CACHE_SIZE, 32 << 10).max(1) as u64,
        }
    }

    fn from_postgres(config: &KnobConfig, hw: &HardwareConfig) -> Self {
        use postgres::names as n;
        let gi = |name: &str, d: i64| config.get(name).map(|v| v.as_i64()).unwrap_or(d);
        let gb = |name: &str, d: bool| config.get(name).map(|v| v.as_bool()).unwrap_or(d);
        let fsync_on = gb(n::FSYNC, true);
        let flush_policy = if !fsync_on {
            FlushPolicy::Lazy
        } else {
            match gi(n::SYNCHRONOUS_COMMIT, 1) {
                0 => FlushPolicy::PerCommitNoSync,
                _ => FlushPolicy::PerCommit,
            }
        };
        let work_mem = gi(n::WORK_MEM, 4 << 20) as u64;
        // checkpoint_completion_target spreads flushing: higher target →
        // higher effective dirty ceiling before forced work.
        let cct = config.get(n::CHECKPOINT_COMPLETION_TARGET).map(|v| v.as_f64()).unwrap_or(0.5);
        Self {
            buffer_pool_bytes: gi(n::SHARED_BUFFERS, (hw.ram_bytes() / 4) as i64) as u64,
            log_file_size: gi(n::WAL_SEGMENT_SIZE, 16 << 20) as u64,
            log_files_in_group: gi(n::WAL_KEEP_SEGMENTS, 2) as u64,
            log_buffer_size: gi(n::WAL_BUFFERS, 4 << 20) as u64,
            flush_policy,
            read_io_threads: gi(n::EFFECTIVE_IO_CONCURRENCY, 1).clamp(1, 256) as u32,
            write_io_threads: gi(n::MAX_WORKER_PROCESSES, 8).clamp(1, 256) as u32,
            purge_threads: gi(n::AUTOVACUUM_MAX_WORKERS, 3).clamp(1, 64) as u32,
            thread_concurrency: 0,
            io_capacity: gi(n::BGWRITER_LRU_MAXPAGES, 100).max(1) as u64 * 4,
            lock_wait_timeout_s: gi(n::DEADLOCK_TIMEOUT, 1).max(1) as u32 * 30,
            max_connections: gi(n::MAX_CONNECTIONS, 100).max(1) as u32,
            sort_buffer_bytes: work_mem,
            join_buffer_bytes: work_mem,
            read_buffer_bytes: gi(n::TEMP_BUFFERS, 8 << 20) as u64 / 4,
            read_rnd_buffer_bytes: gi(n::TEMP_BUFFERS, 8 << 20) as u64 / 4,
            tmp_table_bytes: gi(n::MAINTENANCE_WORK_MEM, 64 << 20) as u64,
            max_dirty_pages_pct: (30.0 + cct * 60.0) as u8,
            adaptive_hash_index: false,
            sync_binlog: 0,
            doublewrite: gb(n::FULL_PAGE_WRITES, true),
            flush_method_direct: false,
            query_cache_bytes: 0,
            query_cache_on: false,
            flush_neighbors: false,
            deadlock_detect: true,
            base_cpu_factor: EngineFlavor::Postgres.base_cpu_factor(),
            table_open_cache: 2000,
            thread_cache_size: 64,
            lru_scan_depth: gi(n::BGWRITER_LRU_MAXPAGES, 100).clamp(1, 100_000) as u32 * 8,
            spin_wait_delay: 6,
            change_buffering_all: false,
            binlog_cache_bytes: 32 << 10,
        }
    }

    fn from_mongodb(config: &KnobConfig, hw: &HardwareConfig) -> Self {
        use mongodb::names as n;
        let gi = |name: &str, d: i64| config.get(name).map(|v| v.as_i64()).unwrap_or(d);
        let commit_interval_ms = gi(n::JOURNAL_COMMIT_INTERVAL, 100);
        // Short journal commit intervals approach per-commit durability.
        let flush_policy = if commit_interval_ms <= 5 {
            FlushPolicy::PerCommit
        } else if commit_interval_ms <= 50 {
            FlushPolicy::PerCommitNoSync
        } else {
            FlushPolicy::Lazy
        };
        let tickets =
            ((gi(n::WT_READ_TICKETS, 128) + gi(n::WT_WRITE_TICKETS, 128)) / 2).max(1) as u32;
        let eviction_trigger =
            config.get(n::WT_EVICTION_TRIGGER).map(|v| v.as_f64()).unwrap_or(95.0);
        let sync_period = gi(n::SYNC_PERIOD_SECS, 60).max(1) as u64;
        Self {
            buffer_pool_bytes: gi(n::WT_CACHE_SIZE, (hw.ram_bytes() / 2) as i64) as u64,
            log_file_size: gi(n::WT_MAX_FILE_SIZE, 100 << 20) as u64,
            log_files_in_group: gi(n::WT_JOURNAL_FILES, 2) as u64,
            log_buffer_size: 16 << 20,
            flush_policy,
            read_io_threads: (tickets / 16).clamp(1, 64),
            write_io_threads: (tickets / 16).clamp(1, 64),
            purge_threads: 2,
            thread_concurrency: tickets,
            io_capacity: (4000 / sync_period).max(20),
            lock_wait_timeout_s: 30,
            max_connections: gi(n::MAX_INCOMING_CONNECTIONS, 65_536).max(1) as u32,
            sort_buffer_bytes: 8 << 20,
            join_buffer_bytes: 8 << 20,
            read_buffer_bytes: 1 << 20,
            read_rnd_buffer_bytes: 1 << 20,
            tmp_table_bytes: 64 << 20,
            max_dirty_pages_pct: (eviction_trigger * 0.9) as u8,
            adaptive_hash_index: false,
            sync_binlog: 0,
            doublewrite: false,
            flush_method_direct: true,
            query_cache_bytes: 0,
            query_cache_on: false,
            flush_neighbors: false,
            deadlock_detect: true,
            base_cpu_factor: EngineFlavor::MongoDb.base_cpu_factor(),
            table_open_cache: 2000,
            thread_cache_size: 64,
            lru_scan_depth: 1024,
            spin_wait_delay: 6,
            change_buffering_all: false,
            binlog_cache_bytes: 32 << 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobValue;

    #[test]
    fn flavor_labels_round_trip_through_from_str() {
        for flavor in [
            EngineFlavor::MySqlCdb,
            EngineFlavor::LocalMySql,
            EngineFlavor::Postgres,
            EngineFlavor::MongoDb,
        ] {
            let label = flavor.to_string();
            assert_eq!(label.parse::<EngineFlavor>().unwrap(), flavor, "label {label}");
        }
    }

    #[test]
    fn mysql_settings_track_knobs() {
        let hw = HardwareConfig::cdb_a();
        let reg = EngineFlavor::MySqlCdb.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(mysql::names::BUFFER_POOL_SIZE, KnobValue::Int(2 << 30)).unwrap();
        cfg.set(mysql::names::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(2)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        assert_eq!(s.buffer_pool_bytes, 2 << 30);
        assert_eq!(s.flush_policy, FlushPolicy::PerCommitNoSync);
        assert_eq!(s.log_capacity(), s.log_file_size * s.log_files_in_group);
    }

    #[test]
    fn postgres_maps_shared_buffers() {
        let hw = HardwareConfig::cdb_d();
        let reg = EngineFlavor::Postgres.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(postgres::names::SHARED_BUFFERS, KnobValue::Int(4 << 30)).unwrap();
        cfg.set(postgres::names::SYNCHRONOUS_COMMIT, KnobValue::Enum(0)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::Postgres, &cfg, &hw);
        assert_eq!(s.buffer_pool_bytes, 4 << 30);
        assert_eq!(s.flush_policy, FlushPolicy::PerCommitNoSync);
        assert!(!s.query_cache_on, "postgres has no query cache");
    }

    #[test]
    fn mongodb_maps_cache_and_journal() {
        let hw = HardwareConfig::cdb_e();
        let reg = EngineFlavor::MongoDb.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(mongodb::names::JOURNAL_COMMIT_INTERVAL, KnobValue::Int(2)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MongoDb, &cfg, &hw);
        assert_eq!(s.flush_policy, FlushPolicy::PerCommit);
        assert!(s.buffer_pool_bytes >= 256 << 20);
    }

    #[test]
    fn flavor_parses_from_str() {
        assert_eq!("mysql".parse::<EngineFlavor>().unwrap(), EngineFlavor::MySqlCdb);
        assert_eq!("pg".parse::<EngineFlavor>().unwrap(), EngineFlavor::Postgres);
        assert_eq!("mongo".parse::<EngineFlavor>().unwrap(), EngineFlavor::MongoDb);
        assert!("oracle".parse::<EngineFlavor>().is_err());
    }

    #[test]
    fn knob_counts_per_flavor() {
        let hw = HardwareConfig::cdb_a();
        assert_eq!(EngineFlavor::MySqlCdb.registry(&hw).len(), 266);
        assert_eq!(EngineFlavor::Postgres.registry(&hw).len(), 169);
        assert_eq!(EngineFlavor::MongoDb.registry(&hw).len(), 232);
        assert_eq!(EngineFlavor::LocalMySql.registry(&hw).len(), 266);
    }

    #[test]
    fn local_mysql_is_slower_than_cloud() {
        assert!(
            EngineFlavor::LocalMySql.base_cpu_factor() > EngineFlavor::MySqlCdb.base_cpu_factor()
        );
    }
}
