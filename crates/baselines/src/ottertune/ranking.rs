//! Knob-importance ranking — OtterTune's "identify important knobs" stage.
//!
//! OtterTune uses Lasso paths; this reproduction uses the equivalent
//! correlation-strength ranking over observed samples: knobs whose settings
//! correlate most strongly (in absolute value) with the performance
//! objective rank first. Figure 7 sorts the 266 knobs by this order.

use crate::tuner::Evaluation;

/// Ranks action dimensions by |Pearson correlation| with throughput,
/// descending. Dimensions with no variation rank last (stable order).
pub fn rank_knobs_by_correlation(samples: &[Evaluation]) -> Vec<usize> {
    if samples.is_empty() {
        return Vec::new();
    }
    let dim = samples[0].action.len();
    let n = samples.len() as f64;
    let y_mean = samples.iter().map(|s| s.throughput).sum::<f64>() / n;
    let y_var: f64 = samples.iter().map(|s| (s.throughput - y_mean).powi(2)).sum::<f64>();

    let mut scores: Vec<(usize, f64)> = (0..dim)
        .map(|k| {
            let x_mean = samples.iter().map(|s| f64::from(s.action[k])).sum::<f64>() / n;
            let x_var: f64 =
                samples.iter().map(|s| (f64::from(s.action[k]) - x_mean).powi(2)).sum();
            let cov: f64 = samples
                .iter()
                .map(|s| (f64::from(s.action[k]) - x_mean) * (s.throughput - y_mean))
                .sum();
            let denom = (x_var * y_var).sqrt();
            let corr = if denom <= 1e-12 { 0.0 } else { (cov / denom).abs() };
            (k, corr)
        })
        .collect();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scores.into_iter().map(|(k, _)| k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(action: Vec<f32>, throughput: f64, state: Vec<f32>) -> Evaluation {
        Evaluation { action, state, throughput, p99_latency_us: 1000.0, crashed: false }
    }

    #[test]
    fn influential_knob_ranks_first() {
        // Knob 1 drives throughput linearly; knob 0 is noise-ish.
        let noise = [0.3f32, 0.9, 0.1, 0.6, 0.4, 0.8, 0.2, 0.7];
        let samples: Vec<Evaluation> = (0..8)
            .map(|i| {
                let x = i as f32 / 7.0;
                sample(vec![noise[i], x, 0.5], 100.0 + 500.0 * f64::from(x), vec![0.0])
            })
            .collect();
        let order = rank_knobs_by_correlation(&samples);
        assert_eq!(order[0], 1, "order {order:?}");
        assert_eq!(order.last(), Some(&2), "constant knob ranks last: {order:?}");
    }

    #[test]
    fn empty_samples_rank_nothing() {
        assert!(rank_knobs_by_correlation(&[]).is_empty());
    }

    #[test]
    fn ranking_is_deterministic_for_ties() {
        let samples: Vec<Evaluation> =
            (0..5).map(|_| sample(vec![0.5, 0.5, 0.5], 100.0, vec![0.0])).collect();
        assert_eq!(rank_knobs_by_correlation(&samples), vec![0, 1, 2]);
    }
}
