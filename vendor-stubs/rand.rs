//! Offline-verification stand-in for `rand` 0.8 (see README.md).
//!
//! Functionally real — `StdRng` is a splitmix64 generator, `gen`/`gen_range`
//! draw uniformly, `shuffle` is Fisher–Yates — but the streams differ from
//! the genuine crate, so tests must assert properties, not exact draws.

/// Core random source.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Convenience sampling methods.
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    fn sample<T, D>(&mut self, distr: D) -> T
    where
        D: distributions::Distribution<T>,
        Self: Sized,
    {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64-backed deterministic generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            Self { state: state ^ 0xA076_1D64_78BD_642F }
        }
    }

    impl StdRng {
        /// The generator's whole state. Reading it draws nothing, and
        /// [`StdRng::from_state`] continues the stream exactly where it is.
        pub fn state(&self) -> u64 {
            self.state
        }

        /// The generator whose state is `state`, as [`StdRng::state`]
        /// returned it: no seed mixing, no draw.
        pub fn from_state(state: u64) -> Self {
            Self { state }
        }
    }
}

pub mod distributions {
    use super::RngCore;

    /// A distribution over `T`.
    pub trait Distribution<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" uniform distribution of a type.
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Distribution<u8> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u8 {
            (rng.next_u64() >> 56) as u8
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub mod uniform {
        use super::super::RngCore;
        use super::{Distribution, Standard};
        use std::ops::{Range, RangeInclusive};

        /// A scalar `gen_range` can draw uniformly.
        pub trait SampleUniform: PartialOrd + Copy {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self;
        }

        macro_rules! int_uniform {
            ($($t:ty),* $(,)?) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: RngCore + ?Sized>(
                        rng: &mut R,
                        lo: Self,
                        hi: Self,
                        inclusive: bool,
                    ) -> Self {
                        let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                        assert!(span > 0, "gen_range: empty range");
                        let draw = (rng.next_u64() as u128) % span;
                        (lo as i128 + draw as i128) as $t
                    }
                }
            )*};
        }

        int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        macro_rules! float_uniform {
            ($($t:ty),* $(,)?) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: RngCore + ?Sized>(
                        rng: &mut R,
                        lo: Self,
                        hi: Self,
                        _inclusive: bool,
                    ) -> Self {
                        assert!(lo <= hi, "gen_range: empty range");
                        let unit: $t = Standard.sample(rng);
                        lo + unit * (hi - lo)
                    }
                }
            )*};
        }

        float_uniform!(f32, f64);

        /// A range `gen_range` can draw from. One generic impl per range
        /// shape (like the real crate) so integer-literal ranges unify with
        /// the surrounding expression's type.
        pub trait SampleRange<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                assert!(self.start < self.end, "gen_range: empty range");
                T::sample_between(rng, self.start, self.end, false)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                T::sample_between(rng, lo, hi, true)
            }
        }
    }
}

pub mod seq {
    use super::RngCore;

    /// Slice shuffling/choosing.
    pub trait SliceRandom {
        type Item;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(rng.next_u64() % self.len() as u64) as usize])
            }
        }
    }
}
