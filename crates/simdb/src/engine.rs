//! The database engine facade: the `Environment` the tuner interacts with.
//!
//! An [`Engine`] owns tables, a buffer pool, a redo log, a lock manager and
//! the metric counters. [`Engine::apply_config`] deploys a knob
//! configuration (restarting the instance, as the paper's controller does,
//! and *crashing* when the redo-log group cannot fit on disk — §5.2.3);
//! [`Engine::run`] executes a batch of transactions against the real data
//! structures and prices the recorded events through the queueing model in
//! [`crate::cost`], yielding throughput and latency exactly shaped like a
//! stress-test window of the paper's workload generator.

use crate::cost::{solve_closed_network, Center, CostParams};
use crate::error::{Result, SimDbError};
use crate::exec::{Op, Txn, TxnDemand};
use crate::faults::{FaultPlan, FaultStats, RestartFault};
use crate::flavor::{EngineFlavor, StructuralSettings};
use crate::hardware::HardwareConfig;
use crate::knobs::{EffectMultipliers, KnobConfig, KnobRegistry};
use crate::lock::LockManager;
use crate::metrics::internal::{CumulativeMetric as C, InternalMetrics, StateMetric as S};
use crate::metrics::PerfMetrics;
use crate::storage::{BufferPool, PageId, Table, TableId, PAGE_SIZE_BYTES};
use crate::wal::{FlushPolicy, RedoLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cap on buffer-pool page touches per scan operation; larger scans are
/// sampled and their I/O demand scaled, bounding executor time for OLAP.
const SCAN_SAMPLE_PAGES: usize = 256;

/// Fraction of disk the redo-log group may occupy before the instance
/// crashes (data, binlogs and temp space need the rest — §5.2.3).
const LOG_DISK_FRACTION: f64 = 0.6;

/// Redo bytes per row-write statement.
const REDO_BYTES_PER_WRITE: u64 = 280;

/// The simulated DBMS instance.
pub struct Engine {
    flavor: EngineFlavor,
    hw: HardwareConfig,
    registry: Arc<KnobRegistry>,
    config: KnobConfig,
    settings: StructuralSettings,
    effects: EffectMultipliers,
    tables: Vec<Table>,
    bp: BufferPool,
    wal: RedoLog,
    locks: LockManager,
    rng: StdRng,
    running: bool,
    restarts: u64,
    crashes: u64,
    /// Engine-owned cumulative counters (rows, commands, sorts, …).
    own: InternalMetrics,
    /// Counter snapshot folded in from components replaced at restarts.
    base: InternalMetrics,
    /// Concurrency of the last run (drives gauge metrics).
    last_clients: u32,
    last_effective: u32,
    last_queue_read: f64,
    last_queue_write: f64,
    last_log_pending: f64,
    /// Lock waits observed during the last run window (a *current* gauge;
    /// lifetime totals would leak instance age into the RL state).
    last_window_lock_waits: u64,
    /// Injected-fault schedule (None = healthy infrastructure).
    faults: Option<FaultPlan>,
    /// Fault clock: advances once per deploy attempt and once per run
    /// window, so retries roll fresh fault decisions.
    fault_tick: u64,
    /// Injected-fault counters.
    fault_stats: FaultStats,
    /// Pages of the range scan being executed (reused across scans).
    scan_pages: Vec<PageId>,
    /// Pre-warm's page → table map over the data pages numbered table
    /// after table; the [`DRAWN`] bit marks a page already drawn. Rebuilt
    /// at every boot, its allocation reused.
    prewarm_owner: Vec<u32>,
    /// The pages pre-warm drew, in first-draw order (reused across boots).
    prewarm_pages: Vec<PageId>,
}

/// Marks a [`Engine::prewarm`] draw's page as already drawn.
const DRAWN: u32 = 1 << 31;

impl Engine {
    /// Creates a stopped-state engine with the flavor's default
    /// configuration; call [`Engine::create_table`] to load data and
    /// [`Engine::apply_config`] (or [`Engine::restart`]) to start it.
    pub fn new(flavor: EngineFlavor, hw: HardwareConfig, seed: u64) -> Self {
        let registry = flavor.registry(&hw);
        let config = registry.default_config();
        let settings = StructuralSettings::from_config(flavor, &config, &hw);
        let effects = registry.effect_multipliers(&config);
        let bp = BufferPool::new((settings.buffer_pool_bytes / PAGE_SIZE_BYTES) as usize);
        let wal = RedoLog::new(
            settings.log_buffer_size,
            settings.log_file_size,
            settings.log_files_in_group,
            settings.flush_policy,
        );
        Self {
            flavor,
            hw,
            registry,
            config,
            settings,
            effects,
            tables: Vec::new(),
            bp,
            wal,
            locks: LockManager::new(150e6),
            rng: StdRng::seed_from_u64(seed),
            running: true,
            restarts: 0,
            crashes: 0,
            own: InternalMetrics::default(),
            base: InternalMetrics::default(),
            last_clients: 0,
            last_effective: 0,
            last_queue_read: 0.0,
            last_queue_write: 0.0,
            last_log_pending: 0.0,
            last_window_lock_waits: 0,
            faults: None,
            fault_tick: 0,
            fault_stats: FaultStats::default(),
            scan_pages: Vec::new(),
            prewarm_owner: Vec::new(),
            prewarm_pages: Vec::new(),
        }
    }

    /// Installs (or clears) a fault-injection schedule. The fault clock is
    /// not reset, so re-installing the same plan mid-run continues its
    /// deterministic sequence.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Re-bases the fault clock to zero, so an `in_window` range on a
    /// freshly installed plan counts ticks from "now" rather than from
    /// engine boot. Use when arming a windowed plan on an engine that has
    /// already run (e.g. injecting degradation after offline training).
    pub fn reset_fault_clock(&mut self) {
        self.fault_tick = 0;
    }

    /// The engine's random stream and its fault clock: the positions an
    /// instance carries across a restart besides its tables. Reading them
    /// draws nothing.
    pub fn stream_words(&self) -> (u64, u64) {
        (self.rng.state(), self.fault_tick)
    }

    /// Continues the random stream and the fault clock from
    /// [`Engine::stream_words`].
    pub fn set_stream_words(&mut self, (rng, fault_tick): (u64, u64)) {
        self.rng = StdRng::from_state(rng);
        self.fault_tick = fault_tick;
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Engine flavor.
    pub fn flavor(&self) -> EngineFlavor {
        self.flavor
    }

    /// Hardware profile.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Knob registry of this flavor.
    pub fn registry(&self) -> &Arc<KnobRegistry> {
        &self.registry
    }

    /// Currently deployed configuration.
    pub fn current_config(&self) -> &KnobConfig {
        &self.config
    }

    /// Structural settings extracted from the current configuration.
    pub fn settings(&self) -> &StructuralSettings {
        &self.settings
    }

    /// True when the instance is serving (not crashed).
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Restarts performed (each apply_config restarts; the paper budgets
    /// ~2 min of wall-clock per restart, excluded from step timing).
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Crashes observed (bad redo-log geometry).
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }

    /// Creates and bulk-loads a table with dense keys `0..rows`.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        row_width_bytes: u64,
        rows: u64,
    ) -> TableId {
        let id = self.tables.len();
        let mut t = Table::new(id, name, row_width_bytes);
        t.bulk_load(rows);
        self.tables.push(t);
        id
    }

    /// Total data pages across tables.
    pub fn data_pages(&self) -> u64 {
        self.tables.iter().map(Table::page_count).sum()
    }

    /// Total data bytes across tables.
    pub fn data_bytes(&self) -> u64 {
        self.data_pages() * PAGE_SIZE_BYTES
    }

    /// Deploys a knob configuration. This restarts the instance (clearing
    /// and pre-warming the buffer pool) and enforces the redo-log crash
    /// rule: if `log_file_size * log_files_in_group` exceeds
    /// `LOG_DISK_FRACTION` (60 %) of the disk, the instance crashes and the
    /// caller sees [`SimDbError::Crash`] — the tuner is expected to learn
    /// from the punishment rather than have the range clamped (§5.2.3).
    pub fn apply_config(&mut self, config: KnobConfig) -> Result<()> {
        assert!(
            Arc::ptr_eq(config.registry(), &self.registry),
            "configuration built for a different registry"
        );
        let settings = StructuralSettings::from_config(self.flavor, &config, &self.hw);
        self.fold_component_counters();
        self.config = config;
        self.effects = self.registry.effect_multipliers(&self.config);
        self.settings = settings;

        let log_capacity = self.settings.log_capacity() as f64;
        if log_capacity > self.hw.disk_bytes() as f64 * LOG_DISK_FRACTION {
            self.running = false;
            self.crashes += 1;
            return Err(SimDbError::Crash {
                reason: format!(
                    "redo log group ({:.1} GiB) exceeds {:.0}% of disk ({} GiB): \
                     log files filled the volume and writes stalled fatally",
                    log_capacity / (1u64 << 30) as f64,
                    LOG_DISK_FRACTION * 100.0,
                    self.hw.disk_gb
                ),
            });
        }
        // Injected restart faults fire *after* the genuine crash rule: the
        // new configuration is already installed (`self.config`), so a
        // later forced `restart()` boots it, and each retry lands on a
        // fresh fault tick and can succeed.
        self.fault_tick += 1;
        if let Some(fault) = self.faults.and_then(|p| p.restart_outcome(self.fault_tick)) {
            self.running = false;
            return Err(match fault {
                RestartFault::Hang => {
                    self.fault_stats.restart_hangs += 1;
                    SimDbError::Timeout {
                        what: "instance restart (injected hang past deadline)".to_string(),
                    }
                }
                RestartFault::Fail => {
                    self.fault_stats.restart_failures += 1;
                    SimDbError::RestartFailed {
                        reason: "injected fault: instance did not come back up".to_string(),
                    }
                }
            });
        }
        self.boot();
        Ok(())
    }

    /// Restarts the instance with the current configuration (recovery after
    /// a crash, or the per-step restart of the paper's controller).
    pub fn restart(&mut self) {
        self.fold_component_counters();
        self.boot();
    }

    fn boot(&mut self) {
        let capacity = (self.settings.buffer_pool_bytes / PAGE_SIZE_BYTES).max(1) as usize;
        self.bp.reset(capacity);
        self.wal = RedoLog::new(
            self.settings.log_buffer_size,
            self.settings.log_file_size,
            self.settings.log_files_in_group,
            self.settings.flush_policy,
        );
        self.prewarm();
        self.running = true;
        self.restarts += 1;
    }

    /// Folds counters of about-to-be-replaced components into `base` so the
    /// engine's cumulative metrics stay monotone across restarts.
    fn fold_component_counters(&mut self) {
        let snapshot = self.component_counters();
        for (base, snap) in self.base.cumulative.iter_mut().zip(&snapshot.cumulative) {
            *base += *snap;
        }
    }

    /// Pre-warms the buffer pool to the steady-state residency a
    /// long-running instance would have: uniformly random data pages until
    /// the pool is full or all data is resident.
    fn prewarm(&mut self) {
        let total_pages = self.data_pages();
        if total_pages == 0 {
            return;
        }
        let capacity = self.bp.capacity();
        if capacity as u64 >= total_pages {
            // Everything fits: read every page in, table after table.
            let pages = self
                .tables
                .iter()
                .flat_map(|t| (0..t.page_count()).map(move |p| PageId::new(t.id(), p)));
            self.bp.fill(pages, true);
            return;
        }
        // Uniform draws over the data pages numbered table after table, the
        // first draw of each page in order, until the pool is full or after
        // 8 × capacity draws (past that, duplicates dominate).
        let owner = &mut self.prewarm_owner;
        owner.clear();
        let mut starts = Vec::with_capacity(self.tables.len());
        for (i, t) in self.tables.iter().enumerate() {
            starts.push(owner.len() as u64);
            owner.resize(owner.len() + t.page_count() as usize, i as u32);
        }
        // Every draw writes its page at `drawn`, which only a new page
        // advances: no branch on whether the page was drawn before.
        let pages = &mut self.prewarm_pages;
        pages.resize(capacity, PageId::new(0, 0));
        let mut drawn = 0;
        let budget = capacity as u64 * 8;
        let mut draws = 0u64;
        while drawn < capacity {
            let global = self.rng.gen_range(0..total_pages);
            if let (Some(slot), Some(out)) = (owner.get_mut(global as usize), pages.get_mut(drawn)) {
                let table = (*slot & !DRAWN) as usize;
                let start = starts.get(table).copied().unwrap_or(0);
                // A table's id is its index (`create_table`).
                *out = PageId::new(table, global - start);
                drawn += usize::from(*slot & DRAWN == 0);
                *slot |= DRAWN;
            }
            draws += 1;
            if draws > budget {
                break;
            }
        }
        self.bp.fill(pages.iter().take(drawn).copied(), false);
    }

    /// The pre-warm [`Engine::prewarm`] replaced, kept as its reference: a
    /// binary search over the tables' page offsets for every draw, and
    /// [`BufferPool::prewarm`] faulting the pages in one draw at a time.
    #[cfg(test)]
    fn prewarm_reference(&mut self) {
        let total_pages = self.data_pages();
        if total_pages == 0 {
            return;
        }
        // Cumulative page offsets per table for uniform sampling.
        let mut offsets = Vec::with_capacity(self.tables.len());
        let mut acc = 0u64;
        for t in &self.tables {
            offsets.push((acc, t.id()));
            acc += t.page_count();
        }
        let want = (self.bp.capacity() as u64).min(total_pages);
        if want >= total_pages {
            // Everything fits: make it all resident.
            for t in &self.tables {
                for p in 0..t.page_count() {
                    self.bp.access(PageId::new(t.id(), p), false);
                }
            }
            return;
        }
        let rng = &mut self.rng;
        let tables = &self.tables;
        self.bp.prewarm(|| {
            let global = rng.gen_range(0..total_pages);
            // Binary search for owning table.
            let idx = match offsets.binary_search_by_key(&global, |&(o, _)| o) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let &(offset, tid) = offsets.get(idx)?;
            tables.get(tid)?.page_at(global - offset)
        });
    }

    /// Runs a stress-test window: executes `txns` against the storage
    /// structures with `clients` concurrent connections and returns the
    /// window's external metrics.
    pub fn run(&mut self, txns: &[Txn], clients: u32) -> Result<PerfMetrics> {
        if !self.running {
            return Err(SimDbError::NotRunning);
        }
        if txns.is_empty() {
            return Ok(PerfMetrics::from_latencies(&mut Vec::new(), clients, 0));
        }
        self.fault_tick += 1;
        let mut straggler = 1.0f64;
        if let Some(plan) = self.faults {
            let tick = self.fault_tick;
            if plan.crashes_window(tick) {
                self.running = false;
                self.crashes += 1;
                self.fault_stats.spurious_crashes += 1;
                return Err(SimDbError::Crash {
                    reason: "injected fault: instance process died mid-window".to_string(),
                });
            }
            straggler = plan.straggler_factor(tick);
            if straggler > 1.0 {
                self.fault_stats.straggler_windows += 1;
            }
            let fsync_factor = plan.fsync_factor(tick);
            if fsync_factor > 1.0 {
                self.fault_stats.fsync_storms += 1;
            }
            self.wal.set_fsync_retry_factor(fsync_factor);
        }
        let mut params = CostParams::derive(&self.hw, &self.settings, &self.effects, clients);
        params.refine_os_cache(self.data_bytes() as f64, &self.hw);
        let n_eff = params.effective_clients;

        self.locks.begin_window(txns.len() as f64 * 2_000.0);
        let lock_waits_at_start = self.locks.counters().0;
        let mut demands: Vec<TxnDemand> = Vec::with_capacity(txns.len());
        let mut aborts = 0u64;
        let mut held_locks: Vec<(TableId, u64)> = Vec::with_capacity(8);
        for txn in txns {
            let mut d = TxnDemand::default();
            held_locks.clear();
            for op in &txn.ops {
                self.exec_op(op, &params, n_eff, &mut d, &mut held_locks);
                if d.aborted {
                    break;
                }
            }
            if d.aborted {
                aborts += 1;
                self.own.bump(C::ComRollback, 1.0);
                let out = self.wal.append(64);
                self.charge_log(out, &params, &mut d);
            } else {
                self.own.bump(C::ComCommit, 1.0);
                // Read-only transactions generate no redo and skip the
                // commit flush entirely; writers share fsyncs via group
                // commit (modelled by the group divisor in charge_log).
                if txn.is_write() {
                    let out = self.wal.commit();
                    self.charge_log(out, &params, &mut d);
                }
            }
            self.maybe_checkpoint(&params, &mut d);
            demands.push(d);
        }

        // Pass 1: solve without background work to estimate the window span.
        let solution = self.solve(&demands, &params, n_eff);
        let window_sec = (txns.len() as f64 / solution.throughput_tps.max(1e-6)).max(1e-6);

        // Background work amortized over the window: periodic log syncs for
        // lazy policies and `innodb_io_capacity` pages/sec of flushing,
        // which also advances the fuzzy checkpoint.
        let mut bg = TxnDemand::default();
        if self.settings.flush_policy != FlushPolicy::PerCommit {
            let ticks = window_sec.ceil() as u64;
            for _ in 0..ticks.min(10_000) {
                let out = self.wal.background_sync();
                bg.log_io_us += out.fsyncs as f64 * params.fsync_us
                    + (out.bytes_flushed as f64 / 1024.0) * params.log_write_us_per_kb;
            }
        }
        let budget = (self.settings.io_capacity as f64 * window_sec) as usize;
        let flushed = self.bp.flush_some(budget);
        if flushed > 0 {
            bg.write_io_us += flushed as f64 * params.page_write_us;
            let age = self.wal.checkpoint_age();
            let dirty = self.bp.dirty_count() + flushed;
            self.wal.advance_checkpoint(age * flushed as u64 / dirty.max(1) as u64);
        }
        let per_txn = 1.0 / txns.len() as f64;
        for d in &mut demands {
            d.log_io_us += bg.log_io_us * per_txn;
            d.write_io_us += bg.write_io_us * per_txn;
        }

        // Pass 2: final solution with background demands included.
        let solution = self.solve(&demands, &params, n_eff);

        // Per-transaction latency: queueing portion stretched per center,
        // multi-server residual as pure service, plus lock waits; scaled by
        // offered/effective for admission-queue time.
        let centers_servers = [
            f64::from(params.cpu_servers),
            f64::from(params.read_servers),
            f64::from(params.write_servers),
            1.0,
        ];
        let admission = f64::from(params.offered_clients) / f64::from(n_eff);
        let mut latencies: Vec<f64> = demands
            .iter()
            .map(|d| {
                let per_center = [d.cpu_us, d.read_io_us, d.write_io_us, d.log_io_us];
                let mut lat = d.lock_wait_us;
                for ((&dem, &c), &st) in
                    per_center.iter().zip(&centers_servers).zip(&solution.stretch)
                {
                    lat += dem * ((st - 1.0) / c + 1.0);
                }
                lat * admission
            })
            .collect();

        if straggler > 1.0 {
            // Straggler node: everything the window measured ran slower.
            for l in &mut latencies {
                *l *= straggler;
            }
        }

        for &l in &latencies {
            if l > 1e6 {
                self.own.bump(C::SlowQueries, 1.0);
            }
        }

        self.last_clients = clients;
        self.last_effective = n_eff;
        self.last_window_lock_waits = self.locks.counters().0 - lock_waits_at_start;
        // Queue depths per service center (missing centers mean no queue).
        let stretch = |i: usize| solution.stretch.get(i).copied().unwrap_or(1.0);
        self.last_queue_read = stretch(1) - 1.0;
        self.last_queue_write = stretch(2) - 1.0;
        self.last_log_pending = stretch(3) - 1.0;

        Ok(PerfMetrics::from_latencies(&mut latencies, params.offered_clients, aborts))
    }

    /// Convenience: runs an unmeasured warm-up batch followed by a measured
    /// batch (the paper's 150 s stress test with implicit ramp-up).
    pub fn stress_test(
        &mut self,
        warmup: &[Txn],
        measured: &[Txn],
        clients: u32,
    ) -> Result<PerfMetrics> {
        if !warmup.is_empty() {
            let _ = self.run(warmup, clients)?;
        }
        self.run(measured, clients)
    }

    fn solve(
        &self,
        demands: &[TxnDemand],
        params: &CostParams,
        n_eff: u32,
    ) -> crate::cost::QueueSolution {
        let n = demands.len().max(1) as f64;
        let mean = |f: fn(&TxnDemand) -> f64| demands.iter().map(f).sum::<f64>() / n;
        let centers = [
            Center { demand_us: mean(|d| d.cpu_us), servers: params.cpu_servers },
            Center { demand_us: mean(|d| d.read_io_us), servers: params.read_servers },
            Center { demand_us: mean(|d| d.write_io_us), servers: params.write_servers },
            Center { demand_us: mean(|d| d.log_io_us), servers: 1 },
        ];
        let delay = mean(|d| d.lock_wait_us);
        solve_closed_network(&centers, f64::from(n_eff), delay)
    }

    fn exec_op(
        &mut self,
        op: &Op,
        params: &CostParams,
        n_eff: u32,
        d: &mut TxnDemand,
        held_locks: &mut Vec<(TableId, u64)>,
    ) {
        self.own.bump(C::Questions, 1.0);
        self.own.bump(C::Queries, 1.0);
        self.own.bump(C::BytesReceived, 64.0);
        d.cpu_us += params.cpu_per_stmt_us * params.swap_cpu_factor;
        d.read_io_us += params.swap_io_us_per_stmt;
        match *op {
            Op::PointRead { table, key } => {
                self.own.bump(C::ComSelect, 1.0);
                let Some(t) = self.tables.get(table) else { return };
                if params.query_cache_read_hit > 0.0
                    && self.rng.gen::<f64>() < params.query_cache_read_hit
                {
                    d.cpu_us += params.cpu_per_row_us * 0.25;
                    self.own.bump(C::BytesSent, 120.0);
                    return;
                }
                let depth = t.index_depth() as f64;
                d.cpu_us += (depth * params.cpu_per_index_level_us
                    + params.cpu_per_row_us)
                    * params.ahi_read_factor
                    * params.swap_cpu_factor;
                self.own.bump(C::HandlerReadKey, 1.0);
                if let Some(page) = t.lookup(key) {
                    self.touch_page(page, false, params, d, 1.0);
                    self.own.bump(C::RowsRead, 1.0);
                    self.own.bump(C::BytesSent, 120.0);
                }
            }
            Op::RangeScan { table, start, limit } => {
                self.own.bump(C::ComSelect, 1.0);
                let Some(t) = self.tables.get(table) else { return };
                let mut pages = std::mem::take(&mut self.scan_pages);
                let (rows, leaves) = t.range_pages(start, limit as usize, &mut pages);
                d.cpu_us += (t.index_depth() as f64 * params.cpu_per_index_level_us
                    + leaves as f64 * params.cpu_per_index_level_us
                    + rows as f64 * params.cpu_per_row_us * 0.4)
                    * params.swap_cpu_factor;
                self.own.bump(C::HandlerReadFirst, 1.0);
                self.own.bump(C::HandlerReadNext, rows.saturating_sub(1) as f64);
                self.own.bump(C::RowsRead, rows as f64);
                self.own.bump(C::BytesSent, rows as f64 * 120.0);
                // Sequential pattern: read-ahead discounts misses.
                for &page in &pages {
                    self.touch_page(page, false, params, d, 0.7);
                }
                self.scan_pages = pages;
            }
            Op::Update { table, key } => {
                self.own.bump(C::ComUpdate, 1.0);
                let Some(t) = self.tables.get(table) else { return };
                let depth = t.index_depth() as f64;
                d.cpu_us += (depth * params.cpu_per_index_level_us
                    + params.cpu_per_row_us * 1.4)
                    * params.ahi_write_factor
                    * (1.0 + params.query_cache_write_penalty)
                    * params.swap_cpu_factor;
                let Some(page) = t.lookup(key) else { return };
                if self.lock_write(table, key, params, n_eff, d, held_locks) {
                    return;
                }
                self.touch_page(page, true, params, d, 1.0);
                let out = self.wal.append(REDO_BYTES_PER_WRITE);
                self.charge_log(out, params, d);
                self.own.bump(C::HandlerUpdate, 1.0);
                self.own.bump(C::RowsUpdated, 1.0);
            }
            Op::Insert { table, key } => {
                self.own.bump(C::ComInsert, 1.0);
                if self.tables.get(table).is_none() {
                    return;
                }
                d.cpu_us += (3.0 * params.cpu_per_index_level_us
                    + params.cpu_per_row_us * 1.2)
                    * params.ahi_write_factor
                    * (1.0 + params.query_cache_write_penalty)
                    * params.swap_cpu_factor;
                if self.lock_write(table, key, params, n_eff, d, held_locks) {
                    return;
                }
                let Some(t) = self.tables.get_mut(table) else { return };
                let (page, created) = t.insert(key);
                if created {
                    self.own.bump(C::PagesCreated, 1.0);
                }
                self.touch_page(page, true, params, d, 1.0);
                let out = self.wal.append(REDO_BYTES_PER_WRITE + 40);
                self.charge_log(out, params, d);
                self.own.bump(C::HandlerWrite, 1.0);
                self.own.bump(C::RowsInserted, 1.0);
            }
            Op::Delete { table, key } => {
                self.own.bump(C::ComDelete, 1.0);
                let Some(depth) = self.tables.get(table).map(|t| t.index_depth()) else {
                    return;
                };
                d.cpu_us += (depth as f64 * params.cpu_per_index_level_us
                    + params.cpu_per_row_us)
                    * (1.0 + params.query_cache_write_penalty)
                    * params.swap_cpu_factor;
                if self.lock_write(table, key, params, n_eff, d, held_locks) {
                    return;
                }
                if let Some(page) = self.tables.get_mut(table).and_then(|t| t.delete(key)) {
                    self.touch_page(page, true, params, d, 1.0);
                    let out = self.wal.append(96);
                    self.charge_log(out, params, d);
                    self.own.bump(C::HandlerDelete, 1.0);
                    self.own.bump(C::RowsDeleted, 1.0);
                }
            }
            Op::FullScan { table, fraction_pct } => {
                self.own.bump(C::ComSelect, 1.0);
                self.own.bump(C::SortScan, 1.0);
                let Some(t) = self.tables.get(table) else { return };
                let total_pages = t.page_count().max(1);
                let pages = t.page_count() * u64::from(fraction_pct.clamp(1, 100)) / 100;
                let rows = pages * t.rows_per_page();
                let tid = t.id();
                d.cpu_us += rows as f64 * params.cpu_per_row_us * 0.18 * params.swap_cpu_factor;
                self.own.bump(C::HandlerReadRnd, rows as f64);
                self.own.bump(C::RowsRead, rows as f64);
                let sample = (pages as usize).min(SCAN_SAMPLE_PAGES);
                if sample > 0 {
                    let scale = pages as f64 / sample as f64;
                    let step = (pages / sample as u64).max(1);
                    for i in 0..sample as u64 {
                        let page = PageId::new(tid, (i * step) % total_pages);
                        // Sequential scan: cheap per-page I/O, scaled up.
                        self.touch_page(page, false, params, d, 0.35 * scale);
                    }
                }
            }
            Op::SortAggregate { table: _, input_rows, row_bytes } => {
                self.own.bump(C::SortRows, input_rows as f64);
                let bytes = input_rows * u64::from(row_bytes);
                let rows_f = input_rows as f64;
                d.cpu_us += rows_f * params.cpu_per_row_us * 0.3 * rows_f.max(2.0).log2() / 10.0
                    * params.swap_cpu_factor;
                let sort_buf = self.settings.sort_buffer_bytes.max(1);
                if bytes > sort_buf {
                    // External sort: spill runs to disk and merge them.
                    let passes = ((bytes as f64 / sort_buf as f64).log2().ceil()).max(1.0);
                    let spill_pages = (bytes / PAGE_SIZE_BYTES).max(1) as f64;
                    d.write_io_us += spill_pages * params.page_write_us * passes * 0.5;
                    d.read_io_us += spill_pages * params.effective_miss_us() * passes * 0.25;
                    self.own.bump(C::SortMergePasses, passes);
                }
                if bytes > self.settings.tmp_table_bytes {
                    self.own.bump(C::CreatedTmpDiskTables, 1.0);
                } else {
                    self.own.bump(C::CreatedTmpTables, 1.0);
                }
            }
            Op::Join { outer, inner, outer_rows } => {
                self.own.bump(C::ComSelect, 1.0);
                if self.tables.get(outer).is_none() {
                    return;
                }
                let Some((inner_depth, inner_rows)) = self
                    .tables
                    .get(inner)
                    .map(|t| (t.index_depth() as f64, t.row_count().max(1) as u64))
                else {
                    return;
                };
                let build_bytes = outer_rows * 110;
                let join_buf = self.settings.join_buffer_bytes.max(1);
                let passes = (build_bytes as f64 / join_buf as f64).ceil().max(1.0);
                d.cpu_us += outer_rows as f64
                    * (params.cpu_per_row_us * 0.5 + inner_depth * params.cpu_per_index_level_us * 0.4)
                    * passes.sqrt()
                    * params.swap_cpu_factor;
                self.own.bump(C::RowsRead, outer_rows as f64 * 2.0);
                self.own.bump(C::HandlerReadRnd, outer_rows as f64);
                // Probe a sample of inner pages; block-nested-loop re-probes.
                let probes = (outer_rows.min(SCAN_SAMPLE_PAGES as u64)).max(1);
                let scale = (outer_rows as f64 / probes as f64) * passes;
                for i in 0..probes {
                    let key = (i * 2654435761) % inner_rows;
                    if let Some(page) = self.tables.get(inner).and_then(|t| t.lookup(key)) {
                        self.touch_page(page, false, params, d, 0.5 * scale);
                    }
                }
            }
        }
    }

    /// Accesses a page through the buffer pool, charging miss/flush I/O.
    /// `io_scale` scales the I/O cost (read-ahead discounts, scan sampling).
    fn touch_page(
        &mut self,
        page: PageId,
        write: bool,
        params: &CostParams,
        d: &mut TxnDemand,
        io_scale: f64,
    ) {
        let out = self.bp.access(page, write);
        if !out.hit {
            d.read_io_us += params.effective_miss_us() * io_scale;
        }
        if out.evicted_dirty {
            d.write_io_us += params.page_write_us;
        }
    }

    /// Acquires a row write lock; returns `true` when the op aborted.
    /// Locks already held by this transaction (e.g. sysbench's delete-then-
    /// reinsert of the same key) are re-entrant and never self-conflict.
    fn lock_write(
        &mut self,
        table: TableId,
        key: u64,
        params: &CostParams,
        n_eff: u32,
        d: &mut TxnDemand,
        held_locks: &mut Vec<(TableId, u64)>,
    ) -> bool {
        if held_locks.contains(&(table, key)) {
            return false;
        }
        held_locks.push((table, key));
        let out = self.locks.acquire_write(
            table,
            key,
            params.lock_hold_us,
            params.lock_timeout_us,
            n_eff,
            params.deadlock_detect,
            &mut self.rng,
        );
        d.lock_wait_us += out.wait_us;
        if out.timed_out || out.deadlock {
            d.aborted = true;
            true
        } else {
            false
        }
    }

    fn charge_log(&mut self, out: crate::wal::LogOutcome, params: &CostParams, d: &mut TxnDemand) {
        // Group commit: concurrent committers share one fsync.
        let group = (f64::from(params.effective_clients) / 4.0).clamp(1.0, 16.0);
        d.log_io_us += out.fsyncs as f64 * params.fsync_us / group
            + (out.bytes_flushed as f64 / 1024.0) * params.log_write_us_per_kb;
        // A log wait stalls the statement until the buffer drains.
        d.lock_wait_us += out.log_waits as f64 * 120.0;
    }

    /// Checkpoint machinery: sync checkpoints stall (full flush charged to
    /// the triggering transaction); async triggers and the dirty-page
    /// ceiling flush incrementally.
    ///
    /// The page-cleaner budget scales with `innodb_io_capacity`: when it
    /// keeps pace with dirty-page production, foreground transactions never
    /// wait for free pages; when it is undersized, the dirty ceiling is hit
    /// chronically and every forced single-page flush stalls the foreground
    /// (InnoDB's free-list starvation) — the workload-dependent sweet spot
    /// no static cheat-sheet value covers.
    fn maybe_checkpoint(&mut self, params: &CostParams, d: &mut TxnDemand) {
        // Background page cleaner: io_capacity pages/sec ≈ io_capacity/1000
        // pages per transaction at the nominal rate.
        let cleaner_budget = (self.settings.io_capacity / 1000) as usize;
        if cleaner_budget > 0 && self.bp.dirty_count() > self.bp.capacity() / 8 {
            let flushed = self.bp.flush_some(cleaner_budget);
            if flushed > 0 {
                // Background writes ride the write-io center at a small
                // sequential discount.
                d.write_io_us += flushed as f64 * params.page_write_us * 0.9;
                let age = self.wal.checkpoint_age();
                let dirty = self.bp.dirty_count() + flushed;
                self.wal.advance_checkpoint(age * flushed as u64 / dirty.max(1) as u64);
            }
        }
        if self.wal.needs_sync_checkpoint() {
            let pages = self.bp.flush_all();
            d.write_io_us += pages as f64 * params.page_write_us;
            // The stall blocks every writer, not just this transaction.
            d.lock_wait_us += pages as f64 * params.page_write_us * 0.25;
            self.wal.complete_checkpoint();
            self.own.bump(C::Checkpoints, 1.0);
            return;
        }
        // Adaptive flushing: flush pressure grows quadratically with the
        // checkpoint-age fraction, so small redo capacities pay a constant
        // write-amplification tax long before the hard sync trigger.
        let capacity = self.wal.capacity().max(1);
        let pressure = self.wal.checkpoint_age() as f64 / capacity as f64;
        if pressure > 0.4 {
            let burst = (pressure * pressure * 192.0) as usize;
            let flushed = self.bp.flush_some(burst);
            if flushed > 0 {
                d.write_io_us += flushed as f64 * params.page_write_us;
                let age = self.wal.checkpoint_age();
                let dirty = self.bp.dirty_count() + flushed;
                self.wal.advance_checkpoint(age * flushed as u64 / dirty.max(1) as u64);
            } else {
                // Nothing left to flush, the age is covered: fuzzy-complete.
                self.wal.advance_checkpoint(capacity / 8);
            }
        }
        let dirty_ceiling =
            self.bp.capacity() * usize::from(self.settings.max_dirty_pages_pct) / 100;
        if self.bp.dirty_count() > dirty_ceiling {
            let flushed = self.bp.flush_some(64);
            d.write_io_us += flushed as f64 * params.page_write_us;
            // Free-list starvation: the foreground waits on these forced
            // flushes (the cleaner fell behind).
            d.lock_wait_us += flushed as f64 * params.page_write_us * 0.6;
        }
    }

    /// Counters owned by live components (reset on restart; the engine folds
    /// them into `base` before replacing components).
    fn component_counters(&self) -> InternalMetrics {
        let mut m = InternalMetrics::default();
        m.bump(C::BufferPoolReadRequests, self.bp.read_requests() as f64);
        m.bump(C::BufferPoolReads, self.bp.miss_count() as f64);
        m.bump(C::BufferPoolWriteRequests, self.bp.write_requests() as f64);
        m.bump(C::BufferPoolPagesFlushed, self.bp.pages_flushed() as f64);
        m.bump(C::DataReads, self.bp.miss_count() as f64);
        m.bump(C::DataRead, (self.bp.miss_count() * PAGE_SIZE_BYTES) as f64);
        m.bump(C::DataWrites, self.bp.pages_flushed() as f64);
        m.bump(C::DataWritten, (self.bp.pages_flushed() * PAGE_SIZE_BYTES) as f64);
        m.bump(C::PagesRead, self.bp.miss_count() as f64);
        m.bump(C::PagesWritten, self.bp.pages_flushed() as f64);
        let (wreq, writes, fsyncs, bytes, waits, checkpoints) = self.wal.counters();
        m.bump(C::LogWriteRequests, wreq as f64);
        m.bump(C::LogWrites, writes as f64);
        m.bump(C::OsLogFsyncs, fsyncs as f64);
        m.bump(C::OsLogWritten, bytes as f64);
        m.bump(C::LogWaits, waits as f64);
        m.bump(C::Checkpoints, checkpoints as f64);
        m.bump(C::DataFsyncs, (fsyncs + self.bp.pages_flushed() / 128) as f64);
        let (lock_waits, lock_time, timeouts, deadlocks) = self.locks.counters();
        m.bump(C::RowLockWaits, lock_waits as f64);
        m.bump(C::RowLockTimeUs, lock_time);
        m.bump(C::LockTimeouts, timeouts as f64);
        m.bump(C::Deadlocks, deadlocks as f64);
        m
    }

    /// The literal `SHOW STATUS` output: `(variable_name, value)` rows in
    /// metric order, exactly what the paper's metrics collector parses
    /// (§2.1.1 "We use the SQL command 'show status' to get the state").
    pub fn show_status(&self) -> Vec<(&'static str, f64)> {
        use crate::metrics::internal::{CumulativeMetric, StateMetric};
        let m = self.metrics();
        let mut rows = Vec::with_capacity(crate::metrics::TOTAL_METRIC_COUNT);
        for s in StateMetric::ALL {
            rows.push((s.name(), m.get_state(s)));
        }
        for c in CumulativeMetric::ALL {
            rows.push((c.name(), m.get_cumulative(c)));
        }
        rows
    }

    /// The `SHOW STATUS` analogue: the full 63-metric internal table.
    pub fn metrics(&self) -> InternalMetrics {
        let mut m = self.component_counters();
        for ((c, b), o) in
            m.cumulative.iter_mut().zip(&self.base.cumulative).zip(&self.own.cumulative)
        {
            *c += *b + *o;
        }
        m.set_state(S::BufferPoolPagesTotal, self.bp.capacity() as f64);
        m.set_state(S::BufferPoolPagesFree, self.bp.free_count() as f64);
        m.set_state(S::BufferPoolPagesData, self.bp.len() as f64);
        m.set_state(S::BufferPoolPagesDirty, self.bp.dirty_count() as f64);
        m.set_state(S::PageSize, PAGE_SIZE_BYTES as f64);
        m.set_state(S::ThreadsConnected, f64::from(self.last_clients));
        m.set_state(S::ThreadsRunning, f64::from(self.last_effective));
        m.set_state(S::OpenTables, self.tables.len() as f64);
        m.set_state(S::RowLockCurrentWaits, self.last_window_lock_waits as f64);
        m.set_state(S::DataPendingReads, self.last_queue_read);
        m.set_state(S::DataPendingWrites, self.last_queue_write);
        m.set_state(S::OsLogPendingFsyncs, self.last_log_pending);
        m.set_state(S::LogCapacityBytes, self.settings.log_capacity() as f64);
        m.set_state(S::CheckpointAgeBytes, self.wal.checkpoint_age() as f64);
        m
    }

    /// Collects the 63-metric window delta since `before` through the
    /// (possibly faulty) collection path: with a metric-dropout fault armed,
    /// each entry independently comes back `NaN` — the collector timed out
    /// on that counter — and consumers must sanitize before feeding the RL
    /// state. [`Engine::metrics`] itself stays pristine; only this
    /// collection wrapper injects.
    pub fn collect_window_delta(
        &mut self,
        before: &InternalMetrics,
    ) -> crate::metrics::MetricsDelta {
        let mut delta = self.metrics().delta_since(before);
        if let Some(plan) = self.faults {
            let tick = self.fault_tick;
            let mut dropped = 0u64;
            for (i, v) in delta.values.iter_mut().enumerate() {
                if plan.drops_metric(tick, i) {
                    *v = f64::NAN;
                    dropped += 1;
                }
            }
            self.fault_stats.dropped_metrics += dropped;
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::mysql::names as my;
    use crate::knobs::KnobValue;
    use crate::metrics::MetricsDelta;

    /// `NaN`/infinite entries: what a metric dropout leaves behind.
    fn non_finite(d: &MetricsDelta) -> usize {
        d.as_slice().iter().filter(|v| !v.is_finite()).count()
    }

    fn small_engine() -> Engine {
        let mut e = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 42);
        e.create_table("sbtest1", 2700, 20_000);
        e.create_table("sbtest2", 2700, 20_000);
        e
    }

    fn point_read_txns_seeded(n: usize, tables: usize, rows: u64, seed: u64) -> Vec<Txn> {
        // Non-cyclic pseudo-random keys: fresh pages keep arriving, so the
        // pool-size effect on hit rate is visible in every window.
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Txn::new(vec![Op::PointRead { table: i % tables, key: (x >> 33) % rows }])
            })
            .collect()
    }

    /// Two engines with the same seeded layout of 1–16 tables, one of them
    /// (usually) empty, and the layout's page count.
    fn layout_pair(seed: u64) -> (Engine, Engine, u64) {
        let mut x = seed;
        let mut next = move |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let tables = 1 + next(16) as usize;
        let empty = next(tables as u64 + 1) as usize; // == tables: none empty
        let mut engines = [0, 1].map(|_| Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), seed));
        for t in 0..tables {
            let rows = if t == empty { 0 } else { 1 + next(2_000) };
            let width = 100 + next(8_000);
            for e in &mut engines {
                e.create_table(format!("t{t}"), width, rows);
            }
        }
        let total = engines[0].data_pages();
        let [a, b] = engines;
        (a, b, total)
    }

    #[test]
    fn prewarm_equals_the_draw_by_draw_reference() {
        for seed in 1..=24u64 {
            let (mut fast, mut reference, total) = layout_pair(seed);
            let k = 1 + seed % 4;
            for capacity in [1, 5, total / 2, total.saturating_sub(k), total, total + 7] {
                let capacity = capacity.max(1) as usize;
                fast.bp.reset(capacity);
                fast.prewarm();
                reference.bp.reset(capacity);
                reference.prewarm_reference();
                let ctx = format!("seed {seed}, {total} pages, capacity {capacity}");
                assert_eq!(fast.bp.lru_pages(), reference.bp.lru_pages(), "{ctx}");
                assert_eq!(fast.bp.len(), reference.bp.len(), "{ctx}");
                let counters = |bp: &BufferPool| {
                    [bp.read_requests(), bp.miss_count(), bp.write_requests(), bp.pages_flushed()]
                };
                assert_eq!(counters(&fast.bp), counters(&reference.bp), "{ctx}");
                for (t, table) in fast.tables.iter().enumerate() {
                    for p in 0..table.page_count() {
                        let page = PageId::new(t, p);
                        assert_eq!(fast.bp.contains(page), reference.bp.contains(page), "{ctx}");
                    }
                }
                assert_eq!(fast.rng.gen::<u64>(), reference.rng.gen::<u64>(), "{ctx}");
            }
        }
    }

    fn point_read_txns(n: usize, tables: usize, rows: u64) -> Vec<Txn> {
        point_read_txns_seeded(n, tables, rows, 0x0123_4567_89AB_CDEF)
    }

    fn update_txns(n: usize, rows: u64) -> Vec<Txn> {
        (0..n)
            .map(|i| Txn::new(vec![Op::Update { table: 0, key: (i as u64 * 104729) % rows }]))
            .collect()
    }

    #[test]
    fn run_produces_positive_metrics() {
        let mut e = small_engine();
        let txns = point_read_txns(500, 2, 20_000);
        let perf = e.run(&txns, 32).unwrap();
        assert!(perf.throughput_tps > 0.0);
        assert!(perf.avg_latency_us > 0.0);
        assert!(perf.p99_latency_us >= perf.avg_latency_us);
        assert_eq!(perf.ops, 500);
    }

    #[test]
    fn bigger_buffer_pool_speeds_up_reads() {
        let mut e = small_engine();
        let reg = Arc::clone(e.registry());
        // Fresh keys per window, as a real stress tool would issue.
        let warm = point_read_txns_seeded(3000, 2, 20_000, 1);
        let measure = point_read_txns_seeded(3000, 2, 20_000, 2);

        let mut small = reg.default_config();
        small.set(my::BUFFER_POOL_SIZE, KnobValue::Int(64 << 20)).unwrap();
        e.apply_config(small).unwrap();
        let slow = e.stress_test(&warm, &measure, 64).unwrap();

        let mut big = reg.default_config();
        big.set(my::BUFFER_POOL_SIZE, KnobValue::Int(4 << 30)).unwrap();
        e.apply_config(big).unwrap();
        let fast = e.stress_test(&warm, &measure, 64).unwrap();

        assert!(
            fast.throughput_tps > slow.throughput_tps * 1.2,
            "big pool {:.0} tps should beat small pool {:.0} tps",
            fast.throughput_tps,
            slow.throughput_tps
        );
    }

    #[test]
    fn lazy_flush_policy_beats_per_commit_on_writes() {
        let mut e = small_engine();
        let reg = Arc::clone(e.registry());
        let txns = update_txns(2000, 20_000);

        let mut durable = reg.default_config();
        durable.set(my::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(1)).unwrap();
        e.apply_config(durable).unwrap();
        let strict = e.run(&txns, 64).unwrap();

        let mut lazy = reg.default_config();
        lazy.set(my::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(0)).unwrap();
        e.apply_config(lazy).unwrap();
        let relaxed = e.run(&txns, 64).unwrap();

        assert!(
            relaxed.throughput_tps > strict.throughput_tps * 1.3,
            "lazy {:.0} vs per-commit {:.0}",
            relaxed.throughput_tps,
            strict.throughput_tps
        );
    }

    #[test]
    fn oversized_log_group_crashes_the_instance() {
        let mut e = small_engine();
        let reg = Arc::clone(e.registry());
        let mut cfg = reg.default_config();
        cfg.set(my::LOG_FILE_SIZE, KnobValue::Int(8 << 30)).unwrap();
        cfg.set(my::LOG_FILES_IN_GROUP, KnobValue::Int(16)).unwrap(); // 128 GiB on a 100 GiB disk
        let err = e.apply_config(cfg).unwrap_err();
        assert!(matches!(err, SimDbError::Crash { .. }));
        assert!(!e.is_running());
        assert_eq!(e.crash_count(), 1);
        // run must refuse until restart.
        let txns = point_read_txns(10, 2, 20_000);
        assert!(matches!(e.run(&txns, 8), Err(SimDbError::NotRunning)));
        e.restart();
        assert!(e.is_running());
        // The crashing config is still deployed, but a restart with a sane
        // config recovers the instance.
        assert!(e.run(&txns, 8).is_ok());
    }

    #[test]
    fn tiny_log_files_checkpoint_constantly() {
        let mut e = small_engine();
        let reg = Arc::clone(e.registry());
        let mut cfg = reg.default_config();
        cfg.set(my::LOG_FILE_SIZE, KnobValue::Int(4 << 20)).unwrap();
        cfg.set(my::LOG_FILES_IN_GROUP, KnobValue::Int(2)).unwrap();
        cfg.set(my::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(0)).unwrap();
        e.apply_config(cfg).unwrap();
        let small_log = e.run(&update_txns(40_000, 20_000), 64).unwrap();

        let mut cfg = reg.default_config();
        cfg.set(my::LOG_FILE_SIZE, KnobValue::Int(2 << 30)).unwrap();
        cfg.set(my::LOG_FILES_IN_GROUP, KnobValue::Int(4)).unwrap();
        cfg.set(my::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(0)).unwrap();
        e.apply_config(cfg).unwrap();
        let big_log = e.run(&update_txns(40_000, 20_000), 64).unwrap();

        assert!(
            big_log.throughput_tps > small_log.throughput_tps,
            "big log {:.0} vs small log {:.0}",
            big_log.throughput_tps,
            small_log.throughput_tps
        );
    }

    #[test]
    fn metrics_stay_monotone_across_restarts() {
        let mut e = small_engine();
        let txns = point_read_txns(200, 2, 20_000);
        let _ = e.run(&txns, 8).unwrap();
        let before = e.metrics();
        e.restart();
        let _ = e.run(&txns, 8).unwrap();
        let after = e.metrics();
        for i in 0..before.cumulative.len() {
            assert!(
                after.cumulative[i] >= before.cumulative[i],
                "metric {} regressed after restart: {} -> {}",
                C::ALL[i].name(),
                before.cumulative[i],
                after.cumulative[i]
            );
        }
    }

    #[test]
    fn metrics_gauges_reflect_pool_state() {
        let mut e = small_engine();
        let _ = e.run(&point_read_txns(100, 2, 20_000), 16).unwrap();
        let m = e.metrics();
        assert_eq!(m.get_state(S::OpenTables), 2.0);
        assert!(m.get_state(S::BufferPoolPagesTotal) > 0.0);
        assert!(m.get_state(S::BufferPoolPagesData) <= m.get_state(S::BufferPoolPagesTotal));
        assert_eq!(m.get_state(S::ThreadsConnected), 16.0);
        assert_eq!(m.get_state(S::PageSize), PAGE_SIZE_BYTES as f64);
    }

    #[test]
    fn writes_generate_redo_and_commits() {
        let mut e = small_engine();
        let _ = e.run(&update_txns(300, 20_000), 16).unwrap();
        let m = e.metrics();
        assert!(m.get_cumulative(C::RowsUpdated) >= 290.0); // a few may abort
        assert!(m.get_cumulative(C::LogWriteRequests) > 0.0);
        assert!(m.get_cumulative(C::ComCommit) > 0.0);
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mut e = small_engine();
        let txns = point_read_txns(2000, 2, 20_000);
        let _ = e.run(&txns, 1).unwrap();
        let one = e.run(&txns, 1).unwrap();
        let sixteen = e.run(&txns, 16).unwrap();
        assert!(sixteen.throughput_tps > one.throughput_tps * 2.0);
        assert!(sixteen.avg_latency_us >= one.avg_latency_us * 0.9);
    }

    #[test]
    fn analytic_ops_run_and_spill() {
        let mut e = small_engine();
        let txns = vec![Txn::new(vec![
            Op::FullScan { table: 0, fraction_pct: 60 },
            Op::SortAggregate { table: 0, input_rows: 200_000, row_bytes: 64 },
            Op::Join { outer: 0, inner: 1, outer_rows: 5_000 },
        ])];
        let perf = e.run(&txns, 4).unwrap();
        assert!(perf.throughput_tps > 0.0);
        let m = e.metrics();
        assert!(m.get_cumulative(C::SortRows) >= 200_000.0);
        assert!(
            m.get_cumulative(C::SortMergePasses) >= 1.0,
            "a 12.8 MB sort must spill past the default 256 KiB sort buffer"
        );
    }

    #[test]
    fn show_status_lists_all_63_metrics() {
        let mut e = small_engine();
        let _ = e.run(&point_read_txns(50, 2, 20_000), 8).unwrap();
        let rows = e.show_status();
        assert_eq!(rows.len(), 63);
        let names: std::collections::HashSet<_> = rows.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 63, "names unique");
        assert!(rows.iter().any(|(n, v)| *n == "com_select" && *v >= 50.0));
        assert!(rows.iter().any(|(n, _)| *n == "innodb_buffer_pool_pages_total"));
    }

    #[test]
    fn injected_restart_failure_is_transient_and_retryable() {
        let mut e = small_engine();
        let reg = Arc::clone(e.registry());
        // p=0.5: with deterministic per-tick rolls some deploys fail and
        // some succeed; retrying the same config eventually boots.
        e.set_fault_plan(Some(FaultPlan::new(3).with_restart_failure(0.5)));
        let mut failures = 0u64;
        let mut successes = 0u64;
        for _ in 0..20 {
            match e.apply_config(reg.default_config()) {
                Ok(()) => {
                    successes += 1;
                    assert!(e.is_running());
                }
                Err(err) => {
                    failures += 1;
                    assert!(err.is_transient(), "injected restart failure is transient");
                    assert!(!e.is_running());
                }
            }
        }
        assert!(failures > 0 && successes > 0, "{failures} failures / {successes} successes");
        assert_eq!(e.fault_stats().restart_failures, failures);
        assert_eq!(e.crash_count(), 0, "restart faults are not crashes");
    }

    #[test]
    fn injected_crash_stops_the_instance_mid_window() {
        let mut e = small_engine();
        e.set_fault_plan(Some(FaultPlan::new(1).with_spurious_crash(1.0)));
        let err = e.run(&point_read_txns(50, 2, 20_000), 8).unwrap_err();
        assert!(matches!(err, SimDbError::Crash { .. }));
        assert!(!err.is_transient());
        assert!(!e.is_running());
        assert_eq!(e.fault_stats().spurious_crashes, 1);
        // Recovery path: restart, disarm, serve again.
        e.set_fault_plan(None);
        e.restart();
        assert!(e.run(&point_read_txns(50, 2, 20_000), 8).is_ok());
    }

    #[test]
    fn straggler_window_inflates_latency_not_structure() {
        let mut e = small_engine();
        let txns = point_read_txns(500, 2, 20_000);
        // One unmeasured pass first: both measured windows then replay the
        // same keys against an equally warm pool, so the only difference
        // between them is the straggler factor.
        let _ = e.run(&txns, 16).unwrap();
        let healthy = e.run(&txns, 16).unwrap();
        e.set_fault_plan(Some(FaultPlan::new(2).with_straggler(1.0, 8.0)));
        let slow = e.run(&txns, 16).unwrap();
        assert!(
            slow.avg_latency_us > healthy.avg_latency_us * 4.0,
            "straggler {:.0}us vs healthy {:.0}us",
            slow.avg_latency_us,
            healthy.avg_latency_us
        );
        assert_eq!(e.fault_stats().straggler_windows, 1);
    }

    #[test]
    fn fsync_storm_inflates_os_log_fsyncs() {
        let run_storm = |storm: bool| {
            let mut e = small_engine();
            let reg = Arc::clone(e.registry());
            let mut cfg = reg.default_config();
            cfg.set(my::FLUSH_LOG_AT_TRX_COMMIT, KnobValue::Enum(1)).unwrap();
            e.apply_config(cfg).unwrap();
            if storm {
                e.set_fault_plan(Some(FaultPlan::new(4).with_fsync_storm(1.0, 32.0)));
            }
            let before = e.metrics();
            let _ = e.run(&update_txns(500, 20_000), 16).unwrap();
            let delta = e.metrics().delta_since(&before);
            delta.values[14 + C::OsLogFsyncs as usize]
        };
        let healthy = run_storm(false);
        let stormy = run_storm(true);
        assert!(
            stormy > healthy * 8.0,
            "storm fsyncs {stormy} should dwarf healthy {healthy}"
        );
    }

    #[test]
    fn metric_dropout_nans_the_collected_delta_only() {
        let mut e = small_engine();
        let before = e.metrics();
        let _ = e.run(&point_read_txns(200, 2, 20_000), 8).unwrap();
        e.set_fault_plan(Some(FaultPlan::new(5).with_metric_dropout(0.3)));
        let delta = e.collect_window_delta(&before);
        let dropped = non_finite(&delta);
        assert!(dropped > 0, "30% dropout over 63 metrics must lose some");
        assert_eq!(e.fault_stats().dropped_metrics, dropped as u64);
        // The pristine metric path is untouched.
        assert_eq!(non_finite(&e.metrics().delta_since(&before)), 0);
    }

    #[test]
    fn no_plan_means_no_behaviour_change() {
        let mut e = small_engine();
        let before = e.metrics();
        let perf = e.run(&point_read_txns(200, 2, 20_000), 8).unwrap();
        assert!(perf.throughput_tps > 0.0);
        let delta = e.collect_window_delta(&before);
        assert_eq!(non_finite(&delta), 0);
        assert_eq!(*e.fault_stats(), crate::faults::FaultStats::default());
    }

    #[test]
    fn config_from_wrong_registry_panics() {
        let e = small_engine();
        let other = EngineFlavor::MySqlCdb.registry(&HardwareConfig::cdb_b());
        let cfg = other.default_config();
        let mut e2 = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        e2.create_table("t", 2700, 100);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut e2 = e2;
            let _ = e2.apply_config(cfg);
        }));
        assert!(result.is_err());
        drop(e);
    }
}
