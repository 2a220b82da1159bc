//! Workload drift detection over the offered load.
//!
//! The paper tunes one static workload; a long-lived tuning session sees
//! traffic drift under it (OnlineTune's motivating observation). This
//! module watches what the clients offered in each measured step — the
//! statements executed, by kind ([`offered_load`]) — summarizes it into
//! sliding-window fingerprints, and fires when the current window moves
//! away from the reference window by more than a hysteresis threshold.
//! The distance is the same relative-difference RMS the service registry
//! uses for fingerprint lookup ([`rel_rms`] is shared with
//! `service::fingerprint`).
//!
//! Why the statement counters and nothing else. The detector runs beside
//! a tuner that redeploys the knobs every step, and everything else in
//! `SHOW STATUS` answers to the knobs: on a *static* Sysbench-RW trace an
//! exploratory deploy halves throughput and quintuples p99 from one step
//! to the next (5377 ↔ 2854 txn/s, 0.29 ↔ 1.6 s), and the buffer-pool and
//! log gauges are knob values outright. An earlier version scored
//! throughput, p99 and summary statistics of the standardized 63-metric
//! state, and fired on the static control trace for two reasons, both its
//! own doing: the reference window kept a bad exploratory step that later
//! windows no longer contained, and the mean of a standardized vector sits
//! near zero, where a relative difference measures sign noise (0.006
//! against 0.062 reads as 0.90). The statement mix and volume are the part
//! of the state the knobs cannot move and every modelled drift (diurnal
//! load, flash crowd, mix shift) must: a fixed window of transactions from
//! a fixed generator executes the same statements under any configuration.
//! They are raw counts, so the relative differences are well conditioned.
//!
//! Hysteresis: after a detection the detector re-baselines on the new
//! behaviour and disarms until a full fresh window accumulates, so one
//! shift produces one event instead of a burst.

use simdb::metrics::internal::CumulativeMetric;
use simdb::InternalMetrics;
use std::collections::VecDeque;

/// Statements executed between two `SHOW STATUS` snapshots, by kind:
/// `[select, insert, update, delete, commit]`. The engine keeps these
/// counters monotone across restarts, so the snapshots may straddle a
/// deploy.
pub fn offered_load(now: &InternalMetrics, before: &InternalMetrics) -> [f64; 5] {
    use CumulativeMetric::{ComCommit, ComDelete, ComInsert, ComSelect, ComUpdate};
    [ComSelect, ComInsert, ComUpdate, ComDelete, ComCommit]
        .map(|m| (now.get_cumulative(m) - before.get_cumulative(m)).max(0.0))
}

/// Relative difference: `|a-b|` scaled by the larger magnitude, so
/// metrics with wildly different units compare on equal footing. Zero
/// when both values are (near) zero.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom < 1e-9 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// RMS of the pairwise relative differences — the fingerprint distance
/// kernel shared with the service registry's workload mapping.
pub fn rel_rms(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let sq_sum: f64 = pairs.iter().map(|&(a, b)| rel_diff(a, b) * rel_diff(a, b)).sum();
    (sq_sum / pairs.len() as f64).sqrt()
}

/// Drift-detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Sliding-window length in observed steps.
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { window: 5 }
    }
}

/// One detection: emitted at most once per sustained shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Observation index (steps seen so far) at which drift fired.
    pub step: u64,
    /// Fingerprint distance between reference and current windows.
    pub distance: f64,
    /// The threshold it exceeded.
    pub threshold: f64,
    /// Observations since the reference window was (re)baselined.
    pub reference_age: u64,
}

/// The statistics the registry fingerprints a metric vector with, of one
/// step's load vector or averaged over a window of them — three numbers
/// per step whatever the vector's width. Dominated by the large counters,
/// so a rare statement kind flickering between 0 and 1 does not register.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct WindowSummary {
    mean: f64,
    std: f64,
    l2: f64,
}

impl WindowSummary {
    fn distance(&self, other: &WindowSummary) -> f64 {
        rel_rms(&[(self.mean, other.mean), (self.std, other.std), (self.l2, other.l2)])
    }
}

fn summarize(obs: &VecDeque<WindowSummary>) -> WindowSummary {
    let n = obs.len().max(1) as f64;
    let mut s = WindowSummary::default();
    for o in obs {
        s.mean += o.mean;
        s.std += o.std;
        s.l2 += o.l2;
    }
    s.mean /= n;
    s.std /= n;
    s.l2 /= n;
    s
}

/// Sliding-window drift detector with hysteresis.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    reference: Option<WindowSummary>,
    current: VecDeque<WindowSummary>,
    armed: bool,
    steps_seen: u64,
    reference_at: u64,
    last_distance: f64,
    detections: u64,
}

impl DriftDetector {
    /// Creates a detector; the first full window becomes the reference.
    pub fn new(cfg: DriftConfig) -> Self {
        let cfg = DriftConfig { window: cfg.window.max(2) };
        DriftDetector {
            cfg,
            reference: None,
            current: VecDeque::with_capacity(cfg.window),
            armed: true,
            steps_seen: 0,
            reference_at: 0,
            last_distance: 0.0,
            detections: 0,
        }
    }

    /// Distance computed at the most recent observation.
    pub fn last_distance(&self) -> f64 {
        self.last_distance
    }

    /// Total detections fired so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Fingerprint distance at which drift fires. Deliberately conservative:
    /// the static-trace control run must stay silent (zero false positives)
    /// while a read/write mix shift or flash crowd clears it.
    const THRESHOLD: f64 = 0.35;
    /// Hysteresis: after a firing, the detector stays disarmed until the
    /// distance falls below `THRESHOLD * REARM_RATIO`.
    const REARM_RATIO: f64 = 0.6;

    /// Feeds one measured step's load vector ([`offered_load`]; any vector
    /// of non-negative magnitudes the tuner's own actions do not move).
    /// Steps that measured nothing (crashed, degraded) are not
    /// observations and must be skipped. Returns a [`DriftEvent`] when a
    /// sustained shift is detected.
    pub fn observe(&mut self, load: &[f64]) -> Option<DriftEvent> {
        let n = load.len().max(1) as f64;
        let mean = load.iter().sum::<f64>() / n;
        let var = load.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let l2 = load.iter().map(|v| v * v).sum::<f64>().sqrt();
        let obs = WindowSummary { mean, std: var.sqrt(), l2 };

        self.steps_seen += 1;
        if self.current.len() == self.cfg.window {
            self.current.pop_front();
        }
        self.current.push_back(obs);
        if self.current.len() < self.cfg.window {
            return None;
        }

        let summary = summarize(&self.current);
        let Some(reference) = self.reference else {
            self.reference = Some(summary);
            self.reference_at = self.steps_seen;
            return None;
        };

        self.last_distance = summary.distance(&reference);
        if !self.armed {
            if self.last_distance < Self::THRESHOLD * Self::REARM_RATIO {
                self.armed = true;
            }
            return None;
        }
        if self.last_distance <= Self::THRESHOLD {
            return None;
        }

        // Fired: drop the stale reference so the next full window — pure
        // post-shift behaviour, not the mixed transition — becomes the new
        // baseline, and disarm until the distance settles back under the
        // hysteresis band.
        let event = DriftEvent {
            step: self.steps_seen,
            distance: self.last_distance,
            threshold: Self::THRESHOLD,
            reference_age: self.steps_seen - self.reference_at,
        };
        self.detections += 1;
        self.reference = None;
        self.current.clear();
        self.armed = false;
        Some(event)
    }

    /// Forgets everything and restarts from scratch (e.g. after an
    /// explicit re-tune replaced the baseline).
    pub fn reset(&mut self) {
        self.reference = None;
        self.current.clear();
        self.armed = true;
        self.last_distance = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_metrics(seed: u64) -> Vec<f64> {
        // Deterministic small jitter around a fixed profile.
        (0..63)
            .map(|i| {
                let base = 100.0 + i as f64 * 3.0;
                let jitter = (((seed.wrapping_mul(2654435761).wrapping_add(i)) % 17) as f64 - 8.0) * 0.05;
                base + jitter
            })
            .collect()
    }

    fn shifted_metrics(seed: u64) -> Vec<f64> {
        stable_metrics(seed).iter().map(|v| v * 4.0 + 50.0).collect()
    }

    #[test]
    fn rel_rms_matches_the_fingerprint_kernel() {
        assert_eq!(rel_rms(&[]), 0.0);
        assert_eq!(rel_rms(&[(1.0, 1.0), (5.0, 5.0)]), 0.0);
        let d = rel_rms(&[(1.0, 2.0)]);
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut det = DriftDetector::new(DriftConfig::default());
        for i in 0..200 {
            let m = stable_metrics(i);
            assert!(det.observe(&m).is_none(), "step {i}");
        }
        assert_eq!(det.detections(), 0);
        assert!(det.last_distance() < 0.05, "distance {}", det.last_distance());
    }

    #[test]
    fn sustained_shift_fires_exactly_once() {
        let mut det = DriftDetector::new(DriftConfig::default());
        for i in 0..20 {
            det.observe(&stable_metrics(i));
        }
        let mut events = Vec::new();
        for i in 0..20 {
            if let Some(e) = det.observe(&shifted_metrics(i)) {
                events.push(e);
            }
        }
        assert_eq!(events.len(), 1, "hysteresis must collapse a shift to one event");
        assert!(events[0].distance > events[0].threshold);
        assert_eq!(det.detections(), 1);
    }

    #[test]
    fn detector_rearms_and_catches_a_second_shift() {
        let mut det = DriftDetector::new(DriftConfig::default());
        for i in 0..20 {
            det.observe(&stable_metrics(i));
        }
        let mut total = 0;
        for i in 0..20 {
            total += det.observe(&shifted_metrics(i)).is_some() as u32;
        }
        for i in 0..20 {
            total += det.observe(&stable_metrics(i)).is_some() as u32;
        }
        assert_eq!(total, 2, "shift there and back = two events");
    }

    #[test]
    fn reset_forgets_the_reference() {
        let mut det = DriftDetector::new(DriftConfig { window: 3 });
        for i in 0..6 {
            det.observe(&stable_metrics(i));
        }
        det.reset();
        // A shifted stream right after reset becomes the new reference
        // instead of firing.
        for i in 0..3 {
            assert!(det.observe(&shifted_metrics(i)).is_none());
        }
    }
}
