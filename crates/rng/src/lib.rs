//! A minimal deterministic pseudo-random number generator.
//!
//! The workspace builds without network access, so this crate stands in
//! for the tiny slice of the `rand` API the Monte-Carlo engine and the
//! randomized tests need: a seedable generator with uniform range
//! sampling. The generator is xorshift64* seeded through splitmix64 —
//! statistically far stronger than these workloads require, and stable
//! across platforms and releases so seeded experiments stay reproducible.
//!
//! # Example
//!
//! ```
//! use cnfet_rng::{Rng, SeedableRng};
//! let mut rng = cnfet_rng::rngs::StdRng::seed_from_u64(42);
//! let x = rng.gen_range(-1.0..1.0);
//! assert!((-1.0..1.0).contains(&x));
//! let n = rng.gen_range(0..10i64);
//! assert!((0..10).contains(&n));
//! ```

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Types that can construct themselves from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling interface.
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    fn gen_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range (see [`RandomRange`] for supported
    /// range types).
    fn gen_range<R: RandomRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait RandomRange {
    /// Sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample<G: Rng>(self, rng: &mut G) -> Self::Output;
}

impl RandomRange for Range<f64> {
    type Output = f64;
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        self.start + rng.gen_unit() * (self.end - self.start)
    }
}

impl RandomRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.gen_unit() * (hi - lo)
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl RandomRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl RandomRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_range!(i32, i64, u32, u64, usize);

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: xorshift64* over a
    /// splitmix64-expanded seed.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 scrambles low-entropy seeds (0, 1, 42, ...).
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let state = (z ^ (z >> 31)) | 1; // xorshift state must be nonzero
            StdRng { state }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.gen_unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-500..500i64);
            assert!((-500..500).contains(&v));
            let w = rng.gen_range(1..=6u32);
            assert!((1..=6).contains(&w));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = rng.gen_range(-2.5..=2.5);
            assert!((-2.5..=2.5).contains(&v));
        }
    }
}
