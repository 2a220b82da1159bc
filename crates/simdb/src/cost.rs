//! Cost model: converts physical events into service demands and solves a
//! closed queueing network for throughput and per-transaction latencies.
//!
//! The engine executes every transaction against real data structures and
//! records *events* (buffer misses, page flushes, log bytes, fsyncs, lock
//! waits). This module turns events into *service demands* on four resources
//! — CPU, random-read I/O, page-write I/O, and the sequential log device —
//! using per-unit costs derived from the hardware profile and the active
//! [`StructuralSettings`], then applies approximate Mean Value Analysis
//! (Schweitzer fixed point with Seidmann's multi-server transform) to get
//! the closed-system throughput and the queueing inflation each transaction
//! experiences. This is how `N` concurrent clients are modelled while the
//! executor itself runs single-threaded.

use crate::flavor::StructuralSettings;
use crate::hardware::{HardwareConfig, MediaType};
use crate::knobs::effects::CostComponent;
use crate::knobs::EffectMultipliers;

/// Per-unit service costs (simulated µs) derived from hardware + settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// CPU per B+tree level traversed.
    pub cpu_per_index_level_us: f64,
    /// CPU per row read/written.
    pub cpu_per_row_us: f64,
    /// CPU fixed cost per statement (parse/plan/dispatch).
    pub cpu_per_stmt_us: f64,
    /// Random read from media on a buffer miss.
    pub read_miss_us: f64,
    /// Probability a buffer miss is served by the OS page cache instead of
    /// media (0 under `O_DIRECT`).
    pub os_cache_hit_prob: f64,
    /// OS-page-cache hit service time.
    pub os_cache_hit_us: f64,
    /// Writing one dirty page back.
    pub page_write_us: f64,
    /// Sequential log write per KiB.
    pub log_write_us_per_kb: f64,
    /// One durable fsync (includes binlog sync amortization).
    pub fsync_us: f64,
    /// Multiplier on all CPU demand from memory over-commit (swap cliff).
    pub swap_cpu_factor: f64,
    /// Extra read-I/O µs per statement from swapping.
    pub swap_io_us_per_stmt: f64,
    /// Mean lock hold time used by the lock manager.
    pub lock_hold_us: f64,
    /// Lock wait timeout (µs).
    pub lock_timeout_us: f64,
    /// Effective concurrency after admission control.
    pub effective_clients: u32,
    /// Workload-facing client count (latency is reported against this).
    pub offered_clients: u32,
    /// Fraction of point reads served by the query cache.
    pub query_cache_read_hit: f64,
    /// Extra CPU fraction writes pay for query-cache invalidation.
    pub query_cache_write_penalty: f64,
    /// Point-read CPU multiplier from the adaptive hash index.
    pub ahi_read_factor: f64,
    /// Write CPU multiplier from maintaining the adaptive hash index.
    pub ahi_write_factor: f64,
    /// Whether proactive deadlock detection is enabled.
    pub deadlock_detect: bool,
    /// CPU servers (cores).
    pub cpu_servers: u32,
    /// Read-I/O servers.
    pub read_servers: u32,
    /// Write-I/O servers.
    pub write_servers: u32,
    /// Memory charged against RAM by the configuration (pool + sessions).
    pub mem_used_bytes: f64,
}

impl CostParams {
    /// Derives unit costs from hardware, structural settings, marginal-knob
    /// multipliers, and the workload's offered client count.
    pub fn derive(
        hw: &HardwareConfig,
        s: &StructuralSettings,
        effects: &EffectMultipliers,
        offered_clients: u32,
    ) -> Self {
        let ram = hw.ram_bytes() as f64;

        // Admission control: max_connections then thread concurrency.
        let mut effective = offered_clients.max(1).min(s.max_connections);
        if s.thread_concurrency > 0 {
            effective = effective.min(s.thread_concurrency);
        }
        let effective = effective.max(1);

        // Memory budget: pool + per-connection work areas + query cache.
        // With many connections, generous per-session buffers eat the
        // headroom — the classic trap that makes "max out every buffer"
        // catastrophic at sysbench's 1500 threads but harmless at TPC-C's 32.
        let per_conn = (s.sort_buffer_bytes
            + s.join_buffer_bytes
            + s.read_buffer_bytes
            + s.read_rnd_buffer_bytes) as f64;
        let active_conns = f64::from(effective);
        let mem_used = s.buffer_pool_bytes as f64
            + active_conns * per_conn * 0.35
            + s.query_cache_bytes as f64;
        let excess = ((mem_used - ram) / ram).max(0.0);
        // Swapping is a cliff: a few percent of over-commit multiplies CPU
        // stall time dramatically.
        let swap_cpu_factor = 1.0 + 40.0 * excess + 300.0 * excess * excess;
        let swap_io_us_per_stmt =
            if excess > 0.0 { hw.media.read_latency_us() * excess * 30.0 } else { 0.0 };

        // Flush method: O_DIRECT bypasses the OS cache (slightly cheaper
        // physical I/O, no second-level cache); buffered methods leave RAM
        // not used by the DB as an OS page cache. The engine refines the hit
        // probability once it knows the true data size.
        let os_headroom = (ram - mem_used).max(0.0) * 0.5;
        let data_bytes_guess = ram * 1.2;
        let os_cache_hit_prob = if s.flush_method_direct {
            0.0
        } else {
            (os_headroom / data_bytes_guess).clamp(0.0, 0.6)
        };

        let direct_factor = if s.flush_method_direct { 0.88 } else { 1.0 };
        let read_miss_us =
            hw.media.read_latency_us() * direct_factor * effects.get(CostComponent::ReadIo);

        let mut page_write_us =
            hw.media.write_latency_us() * direct_factor * effects.get(CostComponent::WriteIo);
        if s.doublewrite {
            page_write_us *= 1.55;
        }
        // Flush neighbors pays off on spinning media, wastes work on SSD/NVM.
        if s.flush_neighbors {
            page_write_us *= match hw.media {
                MediaType::Hdd => 0.75,
                _ => 1.12,
            };
        }
        // Purge threads absorb write amplification of updates, with
        // diminishing returns.
        let purge = f64::from(s.purge_threads);
        page_write_us *= 1.0 - 0.18 * (purge / (purge + 4.0));
        // Change buffering batches secondary-index maintenance.
        if s.change_buffering_all {
            page_write_us *= 0.93;
        }
        // LRU scan depth: shallow scans find too few clean pages (stalls),
        // deep scans waste work — sweet spot scales with the pool.
        let lru_opt = (s.buffer_pool_bytes as f64 / (16.0 * 1024.0) / 64.0).clamp(128.0, 8192.0);
        let lru_dev = ((f64::from(s.lru_scan_depth) / lru_opt).ln() / 3.0).abs();
        page_write_us *= 1.0 + 0.08 * lru_dev.min(1.0);

        // Too many I/O threads burn CPU on context switches.
        let total_threads = f64::from(s.read_io_threads + s.write_io_threads) + purge;
        let comfortable = f64::from(hw.cpu_cores) * 4.0;
        let thread_overhead = 1.0 + 0.012 * (total_threads - comfortable).max(0.0);

        // Query cache: helps repeated reads a little, taxes every write with
        // invalidation serialized on a global mutex.
        let qc_on = s.query_cache_on && s.query_cache_bytes > 0;
        let query_cache_read_hit = if qc_on {
            0.22 * (s.query_cache_bytes as f64 / (256.0 * 1_048_576.0)).clamp(0.05, 1.0)
        } else {
            0.0
        };
        let query_cache_write_penalty = if qc_on {
            0.18 + 0.10 * (f64::from(effective).sqrt() / 16.0).min(3.0)
        } else {
            0.0
        };

        // Secondary CPU-path knobs. Each has a workload/hardware-dependent
        // sweet spot, so "set everything to the vendor cheat-sheet value"
        // (the expert baseline) is good but rarely optimal:
        // * table_open_cache: too small re-opens tables per statement; the
        //   needed size scales with effective concurrency.
        let toc_need = f64::from(effective) * 8.0 + 64.0;
        let toc_penalty = 0.10 * (1.0 - (f64::from(s.table_open_cache) / toc_need).min(1.0));
        // * thread_cache_size: thread churn when smaller than the steady
        //   connection pool.
        let tc_need = f64::from(effective) * 0.5;
        let tcache_penalty =
            0.06 * (1.0 - (f64::from(s.thread_cache_size) / tc_need.max(1.0)).min(1.0));
        // * spin_wait_delay: short spins burn cycles under contention,
        //   long spins add latency — a concurrency-dependent sweet spot.
        let spin_opt = 4.0 + f64::from(effective).sqrt() * 0.6;
        let spin_dev = (f64::from(s.spin_wait_delay) - spin_opt) / 30.0;
        let spin_penalty = 0.05 * (spin_dev * spin_dev).min(1.0);
        let cpu_mult = effects.get(CostComponent::CpuPerOp)
            * thread_overhead
            * s.base_cpu_factor
            * (1.0 + toc_penalty + tcache_penalty + spin_penalty);

        // sync_binlog = n adds one binlog fsync every n commit groups.
        let binlog_fsync_factor =
            if s.sync_binlog == 0 { 1.0 } else { 1.0 + 1.0 / f64::from(s.sync_binlog) };

        Self {
            cpu_per_index_level_us: 3.0 * cpu_mult,
            cpu_per_row_us: 9.0 * cpu_mult,
            cpu_per_stmt_us: 28.0 * cpu_mult,
            read_miss_us,
            os_cache_hit_prob,
            os_cache_hit_us: 25.0,
            page_write_us,
            // Small binlog caches force per-event flushes into the binlog.
            log_write_us_per_kb: 3.0
                * effects.get(CostComponent::CommitSync)
                * (1.0 + 0.15 * (1.0 - (s.binlog_cache_bytes as f64 / (1 << 20) as f64).min(1.0))),
            fsync_us: hw.media.fsync_latency_us()
                * effects.get(CostComponent::CommitSync)
                * binlog_fsync_factor,
            swap_cpu_factor,
            swap_io_us_per_stmt,
            lock_hold_us: 350.0 * effects.get(CostComponent::LockWait),
            lock_timeout_us: f64::from(s.lock_wait_timeout_s) * 1e6,
            effective_clients: effective,
            offered_clients: offered_clients.max(1),
            query_cache_read_hit,
            query_cache_write_penalty,
            ahi_read_factor: if s.adaptive_hash_index { 0.85 } else { 1.0 },
            ahi_write_factor: if s.adaptive_hash_index { 1.06 } else { 1.0 },
            deadlock_detect: s.deadlock_detect,
            cpu_servers: hw.cpu_cores.max(1),
            read_servers: s.read_io_threads.max(1),
            write_servers: s.write_io_threads.max(1),
            mem_used_bytes: mem_used,
        }
    }

    /// Refines the OS-cache hit probability once the engine knows the real
    /// data size.
    pub fn refine_os_cache(&mut self, data_bytes: f64, hw: &HardwareConfig) {
        if self.os_cache_hit_prob == 0.0 {
            return; // O_DIRECT or fully committed memory
        }
        let headroom = (hw.ram_bytes() as f64 - self.mem_used_bytes).max(0.0) * 0.5;
        self.os_cache_hit_prob = (headroom / data_bytes.max(1.0)).clamp(0.0, 0.6);
    }

    /// Effective cost of one buffer-pool miss, blending OS-cache hits.
    pub fn effective_miss_us(&self) -> f64 {
        self.os_cache_hit_prob * self.os_cache_hit_us
            + (1.0 - self.os_cache_hit_prob) * self.read_miss_us
    }
}

/// A queueing center for the AMVA solver.
#[derive(Debug, Clone, Copy)]
pub struct Center {
    /// Mean service demand per transaction at this center (µs, on one
    /// server).
    pub demand_us: f64,
    /// Parallel servers.
    pub servers: u32,
}

/// AMVA solution.
#[derive(Debug, Clone)]
pub struct QueueSolution {
    /// System throughput, transactions per simulated second.
    pub throughput_tps: f64,
    /// Mean response time per transaction (µs), including pure delays.
    pub response_us: f64,
    /// Queueing inflation per unit of *queueing* demand at each center
    /// (multiply a transaction's `demand/servers` by this).
    pub stretch: Vec<f64>,
}

/// Solves a closed queueing network with `clients` customers, the given
/// centers, and a fixed per-transaction delay (lock waits), using the
/// Schweitzer approximation with Seidmann's multi-server transform.
pub fn solve_closed_network(centers: &[Center], clients: f64, delay_us: f64) -> QueueSolution {
    let n = clients.max(1.0);
    let k = centers.len();
    // Seidmann: an m-server center of demand D becomes a single-server
    // queueing center of demand D/m plus a pure delay D*(m-1)/m.
    let q_demand: Vec<f64> =
        centers.iter().map(|c| c.demand_us / f64::from(c.servers.max(1))).collect();
    let extra_delay: f64 = centers
        .iter()
        .map(|c| c.demand_us * f64::from(c.servers.max(1) - 1) / f64::from(c.servers.max(1)))
        .sum();
    let z = delay_us + extra_delay;

    let mut q = vec![n / (k.max(1)) as f64; k];
    let mut response = z.max(1e-9);
    let mut x = n / response;
    for _ in 0..200 {
        let mut r_total = z;
        let r: Vec<f64> = q
            .iter()
            .zip(&q_demand)
            .map(|(&qi, &dem)| {
                let arrival_q = qi * (n - 1.0) / n;
                let ri = dem * (1.0 + arrival_q);
                r_total += ri;
                ri
            })
            .collect();
        x = n / r_total.max(1e-9);
        let mut delta: f64 = 0.0;
        for (qi, &ri) in q.iter_mut().zip(&r) {
            let new_q = x * ri;
            delta = delta.max((new_q - *qi).abs());
            *qi = new_q;
        }
        response = r_total;
        if delta < 1e-6 {
            break;
        }
    }
    let stretch = q
        .iter()
        .zip(&q_demand)
        .map(|(&qi, &dem)| if dem <= 0.0 { 1.0 } else { 1.0 + qi * (n - 1.0) / n })
        .collect();
    QueueSolution { throughput_tps: x * 1e6, response_us: response, stretch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::EngineFlavor;
    use crate::knobs::mysql::names as my;
    use crate::knobs::KnobValue;

    fn settings_with(buffer_pool: i64, clients: u32) -> (CostParams, StructuralSettings) {
        let hw = HardwareConfig::cdb_a();
        let reg = EngineFlavor::MySqlCdb.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(my::BUFFER_POOL_SIZE, KnobValue::Int(buffer_pool)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let eff = reg.effect_multipliers(&cfg);
        (CostParams::derive(&hw, &s, &eff, clients), s)
    }

    #[test]
    fn overcommit_triggers_swap_cliff() {
        let (ok, _) = settings_with(4 << 30, 1500);
        let (over, _) = settings_with((8 << 30) + (1 << 30), 1500); // 9 GiB on 8 GiB RAM
        assert!(ok.swap_cpu_factor < 1.2, "no swap below RAM: {}", ok.swap_cpu_factor);
        assert!(over.swap_cpu_factor > 3.0, "overcommit must hurt: {}", over.swap_cpu_factor);
        assert!(over.swap_io_us_per_stmt > 0.0);
    }

    #[test]
    fn admission_control_caps_effective_clients() {
        let hw = HardwareConfig::cdb_a();
        let reg = EngineFlavor::MySqlCdb.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(my::MAX_CONNECTIONS, KnobValue::Int(100)).unwrap();
        let eff = reg.effect_multipliers(&cfg);
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let p = CostParams::derive(&hw, &s, &eff, 1500);
        assert_eq!(p.effective_clients, 100);
        assert_eq!(p.offered_clients, 1500);

        cfg.set(my::THREAD_CONCURRENCY, KnobValue::Int(32)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let p = CostParams::derive(&hw, &s, &eff, 1500);
        assert_eq!(p.effective_clients, 32);
    }

    #[test]
    fn query_cache_trades_reads_for_writes() {
        let hw = HardwareConfig::cdb_a();
        let reg = EngineFlavor::MySqlCdb.registry(&hw);
        let mut cfg = reg.default_config();
        let eff = reg.effect_multipliers(&cfg);
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let off = CostParams::derive(&hw, &s, &eff, 64);
        assert_eq!(off.query_cache_read_hit, 0.0);
        cfg.set(my::QUERY_CACHE_TYPE, KnobValue::Enum(1)).unwrap();
        cfg.set(my::QUERY_CACHE_SIZE, KnobValue::Int(128 << 20)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let on = CostParams::derive(&hw, &s, &eff, 64);
        assert!(on.query_cache_read_hit > 0.0);
        assert!(on.query_cache_write_penalty > 0.0);
    }

    #[test]
    fn per_commit_fsync_costs_more_than_lazy() {
        let hw = HardwareConfig::cdb_a();
        let reg = EngineFlavor::MySqlCdb.registry(&hw);
        let mut cfg = reg.default_config();
        cfg.set(my::SYNC_BINLOG, KnobValue::Int(1)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let eff = reg.effect_multipliers(&cfg);
        let with_binlog = CostParams::derive(&hw, &s, &eff, 64);
        cfg.set(my::SYNC_BINLOG, KnobValue::Int(0)).unwrap();
        let s = StructuralSettings::from_config(EngineFlavor::MySqlCdb, &cfg, &hw);
        let without = CostParams::derive(&hw, &s, &eff, 64);
        assert!(with_binlog.fsync_us > without.fsync_us * 1.5);
    }

    #[test]
    fn amva_single_bottleneck_saturates() {
        let centers = [Center { demand_us: 100.0, servers: 4 }];
        let low = solve_closed_network(&centers, 1.0, 0.0);
        let high = solve_closed_network(&centers, 1000.0, 0.0);
        assert!((low.response_us - 100.0).abs() < 1.0, "{}", low.response_us);
        // Saturation: X → servers/demand = 4/100 µs = 40 k tps.
        assert!(
            (high.throughput_tps - 40_000.0).abs() / 40_000.0 < 0.05,
            "{}",
            high.throughput_tps
        );
        assert!(high.response_us > low.response_us * 10.0);
    }

    #[test]
    fn amva_bottleneck_is_the_slowest_center() {
        let centers = [
            Center { demand_us: 50.0, servers: 12 },
            Center { demand_us: 400.0, servers: 4 }, // 100 µs/server → bottleneck
        ];
        let sol = solve_closed_network(&centers, 2000.0, 0.0);
        let io_cap = 4.0 / 400.0 * 1e6;
        assert!((sol.throughput_tps - io_cap).abs() / io_cap < 0.05, "{}", sol.throughput_tps);
    }

    #[test]
    fn amva_delay_bounds_throughput() {
        let centers = [Center { demand_us: 100.0, servers: 64 }];
        let no_delay = solve_closed_network(&centers, 8.0, 0.0);
        let with_delay = solve_closed_network(&centers, 8.0, 900.0);
        assert!(with_delay.throughput_tps < no_delay.throughput_tps / 5.0);
        assert!((with_delay.response_us - 1000.0).abs() < 50.0);
    }

    #[test]
    fn amva_more_servers_help_under_load() {
        let few = solve_closed_network(&[Center { demand_us: 200.0, servers: 2 }], 500.0, 0.0);
        let many = solve_closed_network(&[Center { demand_us: 200.0, servers: 16 }], 500.0, 0.0);
        assert!(many.throughput_tps > few.throughput_tps * 4.0);
    }

    #[test]
    fn stretch_reflects_congestion() {
        let centers = [
            Center { demand_us: 500.0, servers: 1 },
            Center { demand_us: 1.0, servers: 64 },
        ];
        let sol = solve_closed_network(&centers, 100.0, 0.0);
        assert!(sol.stretch[0] > 10.0, "congested center stretch {}", sol.stretch[0]);
        assert!(sol.stretch[1] < 2.0, "idle center stretch {}", sol.stretch[1]);
    }
}
