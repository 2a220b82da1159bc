//! External performance metrics: throughput and latency.
//!
//! Section 2.2.2: external metrics are sampled every 5 seconds over the
//! stress-test window and averaged; the reward function (§4.2) consumes the
//! resulting throughput `T` and latency `L`.

/// Aggregate performance over one observation window. The `Default` is
/// the all-zero "nothing measured yet" window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfMetrics {
    /// Transactions (or requests) per simulated second.
    pub throughput_tps: f64,
    /// Mean per-operation latency, simulated microseconds.
    pub avg_latency_us: f64,
    /// 99th-percentile latency, simulated microseconds — the paper reports
    /// "99th %-tile (ms)" in every latency figure.
    pub p99_latency_us: f64,
    /// 95th-percentile latency, simulated microseconds.
    pub p95_latency_us: f64,
    /// Operations executed in the window.
    pub ops: u64,
    /// Operations aborted (lock timeouts / deadlocks) in the window.
    pub aborts: u64,
}

impl PerfMetrics {
    /// Builds metrics from a list of per-operation latencies (µs) and the
    /// effective client concurrency of the closed-loop workload.
    ///
    /// Throughput follows the interactive response-time law
    /// `X = N / R` for `N` clients with mean response time `R`.
    #[allow(clippy::ptr_arg)]
    pub fn from_latencies(latencies_us: &mut Vec<f64>, clients: u32, aborts: u64) -> Self {
        if latencies_us.is_empty() {
            return Self {
                throughput_tps: 0.0,
                avg_latency_us: 0.0,
                p99_latency_us: 0.0,
                p95_latency_us: 0.0,
                ops: 0,
                aborts,
            };
        }
        let n = latencies_us.len();
        let sum: f64 = latencies_us.iter().sum();
        let avg = sum / n as f64;
        latencies_us.sort_by(f64::total_cmp);
        let nth = |p: f64| latencies_us.get(percentile_index(n, p)).copied().unwrap_or(avg);
        let p99 = nth(0.99);
        let p95 = nth(0.95);
        let throughput = f64::from(clients) / (avg / 1e6).max(1e-12);
        Self {
            throughput_tps: throughput,
            avg_latency_us: avg,
            p99_latency_us: p99,
            p95_latency_us: p95,
            ops: n as u64,
            aborts,
        }
    }

    /// 99th-percentile latency in milliseconds (paper's reporting unit).
    pub fn p99_latency_ms(&self) -> f64 {
        self.p99_latency_us / 1000.0
    }
}

fn percentile_index(n: usize, q: f64) -> usize {
    (((n as f64) * q).ceil() as usize).saturating_sub(1).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_all_zero() {
        let m = PerfMetrics::from_latencies(&mut Vec::new(), 32, 0);
        assert_eq!(m.throughput_tps, 0.0);
        assert_eq!(m.ops, 0);
    }

    #[test]
    fn percentiles_from_known_distribution() {
        let mut lats: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let m = PerfMetrics::from_latencies(&mut lats, 1, 0);
        assert_eq!(m.p99_latency_us, 99.0);
        assert_eq!(m.p95_latency_us, 95.0);
        assert!((m.avg_latency_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_follows_response_time_law() {
        // 10 clients, 1 ms average latency → 10,000 ops/sec.
        let mut lats = vec![1000.0; 50];
        let m = PerfMetrics::from_latencies(&mut lats, 10, 0);
        assert!((m.throughput_tps - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn more_clients_scale_throughput_at_fixed_latency() {
        let mut a = vec![500.0; 20];
        let mut b = vec![500.0; 20];
        let low = PerfMetrics::from_latencies(&mut a, 8, 0);
        let high = PerfMetrics::from_latencies(&mut b, 64, 0);
        assert!((high.throughput_tps / low.throughput_tps - 8.0).abs() < 1e-9);
    }

    #[test]
    fn unit_conversion() {
        let mut lats = vec![2500.0; 10];
        let m = PerfMetrics::from_latencies(&mut lats, 1, 0);
        assert!((m.p99_latency_ms() - 2.5).abs() < 1e-12);
    }
}
