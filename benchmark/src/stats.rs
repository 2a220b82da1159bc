//! Order statistics for the benchmark's own samples.

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`);
/// `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The percentiles a tail may be reported at, highest last.
const TAILS: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// The highest percentile of [`TAILS`] that still has at least ten samples
/// beyond it in a sample of `n`; `None` when even p90 does not (`n < 100`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.iter().copied().filter(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9).last()
}

/// Median, the supported tail and the sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let tail = tail_percentile(samples.len()).map(|p| (p, quantile(samples, p)));
        Self { n: samples.len(), p50: median(samples), tail }
    }
}

/// A run's samples are cut into this many slices.
pub const SLICES: usize = 16;

/// Per-slice median latency and completion rate of a series.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Sliced {
    pub median: Vec<f64>,
    /// Completions per second of each slice.
    pub rate: Vec<f64>,
}

/// Cuts a series into [`SLICES`] slices of consecutive completions, equal in
/// count (a series shorter than that gets one slice per sample). Sample `i`
/// took `values[i]` and completed `at_s[i]` seconds into the measurement; a
/// slice's rate is its count over the time since the previous slice's last
/// completion. Slices hold equal counts, not equal times, so that every one
/// of them mixes the cheap and the dear steps of a training run in the same
/// proportion.
pub fn slices(at_s: &[f64], values: &[f64]) -> Sliced {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| at_s[a].total_cmp(&at_s[b]));
    let k = SLICES.min(order.len());
    let mut out = Sliced::default();
    let mut prev_end = 0.0;
    for s in 0..k {
        let idx = &order[s * order.len() / k..(s + 1) * order.len() / k];
        let vals: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        let end = at_s[idx[idx.len() - 1]];
        out.median.push(median(&vals));
        out.rate.push(idx.len() as f64 / (end - prev_end));
        prev_end = end;
    }
    out
}

/// The quiet quartile of per-slice latencies: the value a quarter of the
/// slices beat. This host slows everything by 15–40 % for seconds to minutes
/// at a time (README, "Noise"); a median over the run moves with how much of
/// it such a spell covered, the quiet quartile does not until spells cover
/// three quarters of it. A change that slows every step moves it in full.
pub fn quiet_latency(slice_values: &[f64]) -> f64 {
    quantile(slice_values, 0.25)
}

/// [`quiet_latency`] for a rate: the value a quarter of the slices exceed.
pub fn quiet_rate(slice_values: &[f64]) -> f64 {
    quantile(slice_values, 0.75)
}

/// Quartile `i` of 4 by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// agrees with the one the benchmark is judged by.
fn quartile_exclusive(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Distance between the first and third quartile as a share of the median;
/// `NaN` below two samples.
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (quartile_exclusive(&sorted, 3) - quartile_exclusive(&sorted, 1)) / median(&sorted)
}

/// Client connections for the daemon workload: one per core, at most four,
/// so the load generator never has more threads than the box has cores.
pub fn client_count(nproc: usize) -> usize {
    nproc.clamp(1, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.0), 0.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_carries_count_median_and_tail() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!(sum.n, 200);
        assert_eq!(sum.p50, 100.5);
        let (p, v) = sum.tail.unwrap();
        assert_eq!(p, 0.95);
        assert!((v - 190.05).abs() < 1e-9);
        assert_eq!(Summary::of(&[1.0, 2.0]).tail, None);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([8, 9, 10, 11, 12], n=4) == [8.5, 10.0, 11.5]
        let s = [12.0, 8.0, 10.0, 9.0, 11.0];
        assert!((iqr_share(&s) - 0.3).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&t) - 1.0).abs() < 1e-12);
        assert!(iqr_share(&[1.0]).is_nan());
    }

    #[test]
    fn slices_hold_equal_counts_in_completion_order() {
        // 32 samples, one completing every half second, given out of order.
        let at: Vec<f64> = (0..32).rev().map(|i| (i + 1) as f64 * 0.5).collect();
        let v: Vec<f64> = (0..32).rev().map(f64::from).collect();
        let s = slices(&at, &v);
        assert_eq!(s.median.len(), SLICES);
        assert_eq!(s.median[0], 0.5); // samples 0 and 1
        assert_eq!(s.median[15], 30.5);
        assert!(s.rate.iter().all(|&r| (r - 2.0).abs() < 1e-12));
        // Fewer samples than slices: one slice each.
        let few = slices(&[1.0, 3.0], &[7.0, 9.0]);
        assert_eq!((few.median, few.rate), (vec![7.0, 9.0], vec![1.0, 0.5]));
        assert_eq!(slices(&[], &[]), Sliced::default());
    }

    #[test]
    fn quiet_quartile_ignores_a_burst_over_part_of_the_run() {
        let calm = [10.0, 10.1, 9.9, 10.0, 10.2, 10.0, 9.8, 10.1];
        let burst = [10.0, 13.1, 12.9, 13.0, 10.2, 10.0, 9.8, 13.1];
        assert!((quiet_latency(&burst) / quiet_latency(&calm) - 1.0).abs() < 0.02);
        assert!(median(&burst) / median(&calm) > 1.1);
        // Slower everywhere shows in full.
        let slower: Vec<f64> = calm.iter().map(|x| x * 1.2).collect();
        assert!((quiet_latency(&slower) / quiet_latency(&calm) - 1.2).abs() < 1e-9);
        assert_eq!(quiet_rate(&[1.0, 2.0, 3.0, 4.0, 5.0]), 4.0);
    }

    #[test]
    fn client_count_is_min_nproc_four() {
        assert_eq!(client_count(1), 1);
        assert_eq!(client_count(2), 2);
        assert_eq!(client_count(4), 4);
        assert_eq!(client_count(64), 4);
        assert_eq!(client_count(0), 1);
    }
}
