//! Workload fingerprints for registry lookup.
//!
//! A fingerprint is what the daemon knows about a session before any
//! tuning happens: the instance shape (flavor, RAM, disk, tuned knob
//! count), the declared workload, and summary statistics of the raw
//! 63-metric `SHOW STATUS` vector observed while measuring the baseline.
//! Two sessions whose fingerprints are close are running close workloads
//! on close instances — so the model (and best configuration) one of them
//! discovered is a good starting point for the other. This is the
//! reproduction's version of OtterTune's workload mapping, applied to the
//! paper's "experience accumulates across requests" claim (§2.1.1).

use cdbtune::drift::rel_rms;
use cdbtune::{persist_struct, DbEnv, EnvSpec};
use simdb::EngineFlavor;
use workload::WorkloadKind;

/// Summary statistics of one raw metric vector. Raw (not normalized)
/// values keep the fingerprint independent of whichever model's
/// `StateProcessor` happens to be loaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateStats {
    /// Mean of the metric values.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Euclidean norm.
    pub l2: f64,
}

impl StateStats {
    /// Computes the statistics over one metric vector.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self { mean: 0.0, std: 0.0, min: 0.0, max: 0.0, l2: 0.0 };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let l2 = values.iter().map(|v| v * v).sum::<f64>().sqrt();
        Self { mean, std: var.sqrt(), min, max, l2 }
    }
}

/// What a session looks like before tuning: instance shape + workload +
/// baseline behaviour. The registry keys every published model by one of
/// these and serves nearest-fingerprint lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadFingerprint {
    /// Engine flavor (hard compatibility gate).
    pub flavor: EngineFlavor,
    /// Declared workload kind.
    pub workload: WorkloadKind,
    /// Dataset scale.
    pub scale: f64,
    /// Tuned knob count (hard compatibility gate — the action dimension).
    pub knobs: usize,
    /// Instance RAM, GB (hard compatibility gate).
    pub ram_gb: u32,
    /// Instance disk, GB (hard compatibility gate).
    pub disk_gb: u32,
    /// Baseline throughput under the default configuration (txn/s).
    pub baseline_tps: f64,
    /// Baseline p99 latency (µs).
    pub baseline_p99_us: f64,
    /// Summary statistics of the raw 63-metric state at the baseline.
    pub stats: StateStats,
}

impl WorkloadFingerprint {
    /// Measures the fingerprint of an environment whose baseline window has
    /// just been run (i.e. after a successful episode reset on the default
    /// configuration).
    pub fn measure(spec: &EnvSpec, env: &DbEnv) -> Self {
        let values: Vec<f64> = env.engine().show_status().iter().map(|(_, v)| *v).collect();
        Self {
            flavor: spec.flavor,
            workload: spec.workload,
            scale: spec.scale,
            knobs: spec.knobs,
            ram_gb: spec.ram_gb,
            disk_gb: spec.disk_gb,
            baseline_tps: env.initial_perf().throughput_tps,
            baseline_p99_us: env.initial_perf().p99_latency_us,
            stats: StateStats::of(&values),
        }
    }

    /// Hard compatibility: a model only transfers between sessions tuning
    /// the same flavor's knobs at the same action dimension on the same
    /// instance shape.
    pub fn compatible(&self, other: &Self) -> bool {
        self.flavor == other.flavor
            && self.knobs == other.knobs
            && self.ram_gb == other.ram_gb
            && self.disk_gb == other.disk_gb
    }

    /// The behavioural summaries the distance is computed over, as
    /// mutable references (used by [`WorkloadFingerprint::sanitize`]).
    fn summaries_mut(&mut self) -> [&mut f64; 8] {
        [
            &mut self.scale,
            &mut self.baseline_tps,
            &mut self.baseline_p99_us,
            &mut self.stats.mean,
            &mut self.stats.std,
            &mut self.stats.min,
            &mut self.stats.max,
            &mut self.stats.l2,
        ]
    }

    /// True when every behavioural summary is a finite number.
    pub fn is_finite(&self) -> bool {
        [
            self.scale,
            self.baseline_tps,
            self.baseline_p99_us,
            self.stats.mean,
            self.stats.std,
            self.stats.min,
            self.stats.max,
            self.stats.l2,
        ]
        .iter()
        .all(|v| v.is_finite())
    }

    /// Replaces non-finite behavioural summaries with `0.0`, returning
    /// whether anything changed. A metric-dropout fault can leave NaN/Inf
    /// in the observed `SHOW STATUS` vector; published fingerprints must
    /// be sanitized so a poisoned entry can neither NaN-compare as
    /// "nearest" nor silently never match (the registry calls this on
    /// every publish).
    pub fn sanitize(&mut self) -> bool {
        let mut changed = false;
        for v in self.summaries_mut() {
            if !v.is_finite() {
                *v = 0.0;
                changed = true;
            }
        }
        changed
    }

    /// Distance between fingerprints: relative-RMS over the behavioural
    /// components (the same [`cdbtune::drift::rel_rms`] kernel the online
    /// drift detector scores metric windows with), plus a fixed penalty
    /// when the declared workload kind differs (similar metrics under a
    /// different label are still suspect). Incompatible fingerprints are
    /// infinitely far apart — and so is any fingerprint carrying a
    /// NaN/Inf summary, so a poisoned entry (or query) deterministically
    /// never matches instead of riding NaN comparison order.
    pub fn distance(&self, other: &Self) -> f64 {
        if !self.compatible(other) || !self.is_finite() || !other.is_finite() {
            return f64::INFINITY;
        }
        let pairs = [
            (self.scale, other.scale),
            (self.baseline_tps, other.baseline_tps),
            (self.baseline_p99_us, other.baseline_p99_us),
            (self.stats.mean, other.stats.mean),
            (self.stats.std, other.stats.std),
            (self.stats.min, other.stats.min),
            (self.stats.max, other.stats.max),
            (self.stats.l2, other.stats.l2),
        ];
        let label_penalty = if self.workload == other.workload { 0.0 } else { 1.0 };
        rel_rms(&pairs) + label_penalty
    }
}

// The registry's `entry-<id>.json` stores the fingerprint under these names.
persist_struct!(StateStats { mean, std, min, max, l2 });
persist_struct!(WorkloadFingerprint {
    flavor, workload, scale, knobs, ram_gb, disk_gb, baseline_tps, baseline_p99_us, stats,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn base_fp() -> WorkloadFingerprint {
        WorkloadFingerprint {
            flavor: EngineFlavor::MySqlCdb,
            workload: WorkloadKind::SysbenchRw,
            scale: 0.05,
            knobs: 6,
            ram_gb: 1,
            disk_gb: 12,
            baseline_tps: 5000.0,
            baseline_p99_us: 9000.0,
            stats: StateStats::of(&[1.0, 2.0, 3.0, 4.0]),
        }
    }

    #[test]
    fn stats_summarize_a_vector() {
        let s = StateStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.l2 - 30f64.sqrt()).abs() < 1e-12);
        assert!((s.std - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(StateStats::of(&[]).l2, 0.0);
    }

    #[test]
    fn identical_fingerprints_are_at_distance_zero() {
        let a = base_fp();
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_orders_near_before_far() {
        let a = base_fp();
        let mut near = base_fp();
        near.baseline_tps = 5100.0; // 2 % off
        let mut far = base_fp();
        far.baseline_tps = 9000.0;
        far.stats.l2 *= 3.0;
        assert!(a.distance(&near) < a.distance(&far));
        // Same metrics under a different workload label pay the penalty.
        let mut relabeled = base_fp();
        relabeled.workload = WorkloadKind::TpcC;
        assert!(a.distance(&relabeled) >= 1.0);
    }

    #[test]
    fn incompatible_shapes_are_infinitely_far() {
        let a = base_fp();
        for tweak in [
            |f: &mut WorkloadFingerprint| f.flavor = EngineFlavor::Postgres,
            |f: &mut WorkloadFingerprint| f.knobs = 8,
            |f: &mut WorkloadFingerprint| f.ram_gb = 4,
            |f: &mut WorkloadFingerprint| f.disk_gb = 50,
        ] {
            let mut b = base_fp();
            tweak(&mut b);
            assert!(!a.compatible(&b));
            assert_eq!(a.distance(&b), f64::INFINITY);
        }
    }

    #[test]
    fn poisoned_summaries_are_infinitely_far() {
        let clean = base_fp();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = base_fp();
            bad.stats.mean = poison;
            assert!(!bad.is_finite());
            // Poison on either side of the comparison rejects the pair —
            // NaN must not ride IEEE comparison order into a "nearest" hit.
            assert_eq!(clean.distance(&bad), f64::INFINITY);
            assert_eq!(bad.distance(&clean), f64::INFINITY);
            let mut bad_tps = base_fp();
            bad_tps.baseline_tps = poison;
            assert_eq!(clean.distance(&bad_tps), f64::INFINITY);
        }
        assert!(clean.is_finite());
        assert_eq!(clean.distance(&clean), 0.0);
    }

    #[test]
    fn sanitize_clears_non_finite_summaries() {
        let mut fp = base_fp();
        fp.stats.l2 = f64::NAN;
        fp.baseline_p99_us = f64::INFINITY;
        assert!(fp.sanitize());
        assert!(fp.is_finite());
        assert_eq!(fp.stats.l2, 0.0);
        assert_eq!(fp.baseline_p99_us, 0.0);
        // Untouched summaries keep their values; a clean fingerprint is a no-op.
        assert_eq!(fp.baseline_tps, 5000.0);
        assert!(!fp.sanitize());
    }

    #[test]
    fn fingerprint_encoding_round_trips() {
        let a = base_fp();
        use cdbtune::persist::Persist;
        let j = cdbtune::jsonio::Json::parse(&a.encode().to_text()).unwrap();
        let back = WorkloadFingerprint::decode(&j).unwrap();
        assert_eq!(back, a);
        assert_eq!(a.distance(&back), 0.0);
    }
}
