//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is `driver manifest`; a unit test
//! keeps the committed file equal to it.

/// How long one run measures, seconds. Sized so that the 92 runs a judge
/// makes (4 + 22 per workload), with their set-up, warm-up and two builds,
/// end well inside 3420 s on a two-core box.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_paper",
        "offline training at the paper's shapes (64 knobs, Table-5 nets, short Sysbench-RW window): rl/tinynn/replay are most of a step, so a kernel, pool or replay change must show here",
    ),
    (
        "train_envheavy",
        "the same trainer on TPC-C, 8 knobs, library-default 100+600-txn window: simdb deploy+stress is most of a step and the write path (WAL, fsync, row locks) runs; an rl change should barely register",
    ),
    (
        "tune_online",
        "5-step online tuning requests against a model trained in set-up, alternating Sysbench-RO and -WO instances: the user-facing time to recommendation, reads beside writes",
    ),
    (
        "daemon_sessions",
        "min(nproc,4) closed-loop connections to a cdbtuned subprocess on a tiny instance: proto/frame/queue/batch-wait/registry dominate; a simdb or tinynn change should not move it",
    ),
];

/// An end-to-end metric: what a user of the system sees, on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// A *step* is one trainer step (`train_*`), one online tuning step
/// (`tune_online`) or one `step` round trip (`daemon_sessions`); a *request*
/// is one training run of the fixed budget, one tuning request from
/// `EnvSpec::build` to `finish`, or one daemon session from `create_session`
/// to `recommend`. Latencies and the rate are quiet quartiles over the run's
/// slices (`stats::quiet_latency`); the plain medians and tails are in the
/// result file. The bounds are the widest the contract allows because the
/// host's own noise is of that order (README, "Noise").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
    EndToEnd { name: "step_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "request_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "steps_per_s", unit: "1/s", better: "higher", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics of a traced run. `_us` are medians per call. A metric
/// of a layer the workload does not reach reads 0.
pub const PER_LAYER: [PerLayer; 63] = [
    // Fixed-shape probes, the same on every workload.
    l("tinynn.matmul_critic_l1_us", "us", "lower"),
    l("tinynn.pool_dispatch_us", "us", "lower"),
    l("tinynn.pool_threads", "count", "higher"),
    l("rl.train_step_b32_us", "us", "lower"),
    l("rl.train_step_b16_us", "us", "lower"),
    l("rl.act_us", "us", "lower"),
    l("rl.fork_us", "us", "lower"),
    l("rl.act_batch32_us", "us", "lower"),
    l("core.memory_pool.push_us", "us", "lower"),
    l("core.memory_pool.sample_b32_us", "us", "lower"),
    l("core.memory_pool.update_priorities_us", "us", "lower"),
    l("service.proto.encode_us", "us", "lower"),
    l("service.proto.decode_us", "us", "lower"),
    l("service.frame.decode_us", "us", "lower"),
    l("service.registry.lookup_us", "us", "lower"),
    l("service.registry.publish_us", "us", "lower"),
    l("service.registry.len", "count", "lower"),
    l("service.batcher.act_us", "us", "lower"),
    l("service.session.create_us", "us", "lower"),
    l("service.session.step_us", "us", "lower"),
    l("service.session.close_us", "us", "lower"),
    // Probes on the workload's own instance spec.
    l("core.env.build_us", "us", "lower"),
    l("workload.window_us", "us", "lower"),
    l("simdb.buffer_hit_ratio", "ratio", "higher"),
    l("simdb.page_reads_per_txn", "count", "lower"),
    l("simdb.log_fsyncs_per_txn", "count", "lower"),
    l("simdb.row_lock_waits_per_txn", "count", "lower"),
    // From the workload's spans.
    l("core.env.reset_us", "us", "lower"),
    l("core.env.step_us", "us", "lower"),
    l("core.env.step_self_us", "us", "lower"),
    l("simdb.deploy_us", "us", "lower"),
    l("simdb.stress_us", "us", "lower"),
    l("simdb.stress_txn_us", "us", "lower"),
    l("simdb.metrics_us", "us", "lower"),
    l("simdb.restarts", "count", "lower"),
    l("simdb.crashes", "count", "lower"),
    l("core.trainer.step_us", "us", "lower"),
    l("core.trainer.unattributed_pct", "%", "lower"),
    l("core.trainer.simdb_share_pct", "%", "lower"),
    l("core.trainer.rl_share_pct", "%", "lower"),
    l("core.trainer.replay_share_pct", "%", "lower"),
    l("core.trainer.best_gain", "ratio", "higher"),
    l("core.online.begin_us", "us", "lower"),
    l("core.online.step_us", "us", "lower"),
    l("core.online.finish_us", "us", "lower"),
    l("core.online.gain_p50", "ratio", "higher"),
    l("core.online.request_p90_ms", "ms", "lower"),
    l("service.client.encode_us", "us", "lower"),
    l("service.client.roundtrip_us", "us", "lower"),
    l("service.client.decode_us", "us", "lower"),
    l("service.wire_overhead_us", "us", "lower"),
    l("service.create_p50_ms", "ms", "lower"),
    l("service.session_p50_ms", "ms", "lower"),
    l("service.sessions_per_s", "1/s", "higher"),
    l("service.step_p99_ms", "ms", "lower"),
    l("service.batcher.rows_per_batch", "count", "higher"),
    l("service.batcher.deadline_flush_ratio", "ratio", "lower"),
    l("service.rejected", "count", "lower"),
    l("service.errors", "count", "lower"),
    l("service.clients", "count", "higher"),
    l("service.daemon_rss_mb", "MB", "lower"),
    l("trace.overhead_pct", "%", "lower"),
    l("trace.gap_pct", "%", "lower"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_catalogue() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest().len() <= 64 * 1024);
    }
}
