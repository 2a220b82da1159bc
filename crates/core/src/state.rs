//! State vectorization (§2.2.2, "Metrics Collector").
//!
//! The collector turns a 63-metric window delta into the normalized vector
//! the deep RL network consumes: state gauges are averaged over the window
//! and counters differenced (done by [`simdb::InternalMetrics::delta_since`]),
//! then each dimension is standardized with *running* statistics so the
//! same processor — shipped inside the trained model — normalizes states
//! identically during offline training and online tuning.

use simdb::{MetricsDelta, TOTAL_METRIC_COUNT};

/// Running per-dimension standardizer (Welford's algorithm) over metric
/// deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct StateProcessor {
    pub(crate) count: u64,
    pub(crate) mean: Vec<f64>,
    pub(crate) m2: Vec<f64>,
}

impl Default for StateProcessor {
    fn default() -> Self {
        Self::new()
    }
}

impl StateProcessor {
    /// Creates an empty processor over the 63 metrics.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: vec![0.0; TOTAL_METRIC_COUNT],
            m2: vec![0.0; TOTAL_METRIC_COUNT],
        }
    }

    /// Observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.count
    }

    /// Folds a raw delta into the running statistics. Non-finite entries
    /// (dropped metrics that slipped past [`StateProcessor::sanitize`]) are
    /// treated as their dimension's current mean, so one bad collection can
    /// never poison the normalizer forever.
    pub fn observe(&mut self, delta: &MetricsDelta) {
        self.count += 1;
        let n = self.count as f64;
        for (&raw, (mean, m2)) in
            delta.values.iter().zip(self.mean.iter_mut().zip(&mut self.m2))
        {
            let x = if raw.is_finite() { raw } else { *mean };
            let d = x - *mean;
            *mean += d / n;
            *m2 += d * (x - *mean);
        }
    }

    /// Imputes non-finite entries (`NaN`/±∞ from metric-collection
    /// dropouts) with the running mean of their dimension, returning how
    /// many were imputed. Before any observation the mean is 0.0 — neutral
    /// under standardization. The agent therefore sees "this metric looked
    /// average" instead of a poisoned state vector.
    pub fn sanitize(&self, delta: &mut MetricsDelta) -> u64 {
        let mut imputed = 0;
        for (i, v) in delta.values.iter_mut().enumerate() {
            if !v.is_finite() {
                *v = self.mean[i];
                imputed += 1;
            }
        }
        imputed
    }

    /// Standardizes a delta into the RL state vector, clamped to ±5σ.
    /// Dimensions with no variance yet pass through as 0.
    ///
    /// The divisor is floored at 10 % of the dimension's mean magnitude:
    /// a counter whose window-to-window std is 0.1 % of its level carries
    /// sampling noise, not configuration signal, and raw standardization
    /// would amplify that noise to full scale — making the policy jitter
    /// between near-identical states.
    pub fn vectorize(&self, delta: &MetricsDelta) -> Vec<f32> {
        delta
            .values
            .iter()
            .zip(self.mean.iter().zip(&self.m2))
            .map(|(&raw, (&mean, &m2))| {
                // Defence in depth: a non-finite entry reaching this point
                // vectorizes as its mean (i.e. 0 after standardization).
                let x = if raw.is_finite() { raw } else { mean };
                let var = if self.count > 1 { m2 / (self.count - 1) as f64 } else { 0.0 };
                if var <= 1e-12 {
                    0.0
                } else {
                    let scale = var.sqrt().max(0.1 * mean.abs());
                    (((x - mean) / scale).clamp(-5.0, 5.0)) as f32
                }
            })
            .collect()
    }

    /// Observe-then-vectorize convenience used in the training loop.
    pub fn process(&mut self, delta: &MetricsDelta) -> Vec<f32> {
        self.observe(delta);
        self.vectorize(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_with(values: &[(usize, f64)]) -> MetricsDelta {
        let mut d = MetricsDelta::default();
        for &(i, v) in values {
            d.values[i] = v;
        }
        d
    }

    #[test]
    fn vector_has_63_dimensions() {
        let p = StateProcessor::new();
        let v = p.vectorize(&MetricsDelta::default());
        assert_eq!(v.len(), 63);
    }

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let mut p = StateProcessor::new();
        // Feed a known distribution into dimension 3.
        for i in 0..1000 {
            p.observe(&delta_with(&[(3, (i % 10) as f64)]));
        }
        let v = p.vectorize(&delta_with(&[(3, 4.5)])); // 4.5 = the mean
        assert!(v[3].abs() < 1e-3, "mean input → ~0: {}", v[3]);
        let hi = p.vectorize(&delta_with(&[(3, 9.0)]));
        assert!(hi[3] > 1.0 && hi[3] < 2.5, "9.0 is ~1.57σ: {}", hi[3]);
    }

    #[test]
    fn constant_dimensions_map_to_zero() {
        let mut p = StateProcessor::new();
        for _ in 0..50 {
            p.observe(&delta_with(&[(0, 42.0)]));
        }
        let v = p.vectorize(&delta_with(&[(0, 42.0)]));
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn outliers_are_clamped() {
        let mut p = StateProcessor::new();
        for i in 0..100 {
            p.observe(&delta_with(&[(5, f64::from(i % 3))]));
        }
        let v = p.vectorize(&delta_with(&[(5, 1e9)]));
        assert_eq!(v[5], 5.0);
        let v = p.vectorize(&delta_with(&[(5, -1e9)]));
        assert_eq!(v[5], -5.0);
    }

    #[test]
    fn sanitize_imputes_from_the_running_mean() {
        let mut p = StateProcessor::new();
        for _ in 0..100 {
            p.observe(&delta_with(&[(2, 40.0)]));
        }
        let mut d = delta_with(&[(2, f64::NAN), (9, f64::INFINITY)]);
        let imputed = p.sanitize(&mut d);
        assert_eq!(imputed, 2);
        assert_eq!(d.values[2], 40.0, "dimension mean imputed");
        assert_eq!(d.values[9], 0.0, "unseen dimension imputes the 0 mean");
        assert_eq!(p.sanitize(&mut d), 0, "second pass finds nothing");
    }

    #[test]
    fn non_finite_inputs_never_reach_the_state_vector() {
        let mut p = StateProcessor::new();
        for i in 0..50 {
            p.observe(&delta_with(&[(4, f64::from(i % 7))]));
        }
        let d = delta_with(&[(4, f64::NAN), (5, f64::NEG_INFINITY)]);
        let v = p.vectorize(&d);
        assert!(v.iter().all(|x| x.is_finite()), "vectorize guards non-finite input");
        // Observing garbage keeps the running stats finite too.
        p.observe(&d);
        let v = p.process(&delta_with(&[(4, 3.0)]));
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
