//! Zipfian key sampling (YCSB's default request distribution).
//!
//! Implemented from scratch with the rejection-inversion-free approximate
//! inverse-CDF method YCSB itself uses (Gray et al.), so skew behaviour —
//! the hot-key set that drives buffer-pool hits and lock contention — is
//! faithful to the real client.

use rand::Rng;

/// A Zipf-distributed sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a sampler over `0..n` with skew `theta` (YCSB default 0.99).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian domain must be non-empty");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta must be in (0,1), got {theta}");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self { n, theta, alpha, zetan, eta, zeta2 }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; Euler–Maclaurin tail approximation for large n
        // keeps construction O(1)-ish without changing the distribution
        // beyond noise.
        const EXACT: u64 = 10_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            let a = EXACT as f64;
            let b = n as f64;
            // ∫ x^-theta dx from a to b plus half-correction at ends.
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
                + 0.5 * (1.0 / b.powf(theta) - 1.0 / a.powf(theta));
        }
        sum
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a key in `0..n`; key 0 is the hottest.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = ((self.eta * u) - self.eta + 1.0).powf(self.alpha);
        let k = (self.n as f64 * v) as u64;
        k.min(self.n - 1)
    }

    /// Draws a key and scatters it over the domain with a fixed hash so the
    /// hot keys are not physically clustered (YCSB's `ScrambledZipfian`).
    pub fn sample_scrambled(&self, rng: &mut impl Rng) -> u64 {
        let k = self.sample(rng);
        // Fibonacci hashing scatter.
        (k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// zeta(2, theta) (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
            assert!(z.sample_scrambled(&mut rng) < 1000);
        }
    }

    #[test]
    fn low_keys_are_hot() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[5000..5010].iter().sum();
        assert!(
            head > tail * 50,
            "head {head} should dwarf a mid-range decile {tail}"
        );
        // YCSB theta=0.99 over 10k keys: hottest key gets ~10 % of mass.
        let expected = 1.0 / z.zetan;
        let observed = f64::from(counts[0]) / 100_000.0;
        assert!(
            (observed - expected).abs() < 0.02,
            "hottest mass observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn lower_theta_is_flatter() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut count_head = |theta: f64| {
            let z = Zipfian::new(1000, theta);
            let mut head = 0;
            for _ in 0..20_000 {
                if z.sample(&mut rng) < 5 {
                    head += 1;
                }
            }
            head
        };
        assert!(count_head(0.99) > count_head(0.5) * 2);
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let z = Zipfian::new(100_000, 0.99);
        let mut rng = StdRng::seed_from_u64(4);
        let mut min_seen = u64::MAX;
        let mut max_seen = 0;
        for _ in 0..5000 {
            let k = z.sample_scrambled(&mut rng);
            min_seen = min_seen.min(k);
            max_seen = max_seen.max(k);
        }
        assert!(max_seen > 90_000 && min_seen < 10_000, "scramble covers the domain");
    }

    #[test]
    fn large_domain_constructs_fast_and_samples() {
        let z = Zipfian::new(100_000_000, 0.99);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 100_000_000);
        }
    }

    #[test]
    #[should_panic(expected = "zipfian domain")]
    fn empty_domain_panics() {
        let _ = Zipfian::new(0, 0.99);
    }
}
