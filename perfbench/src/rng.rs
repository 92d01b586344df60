//! The workload generator's random source: SplitMix64, kept in the
//! benchmark so a workload's inputs depend only on `--seed` and this file,
//! never on the engine's own RNG crate.

/// A SplitMix64 stream.
#[derive(Clone, Debug, Default)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one `(seed, lane)` pair; distinct lanes of one seed
    /// (one per caller thread, one per request family) do not overlap.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 3);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 3);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_and_lanes_differ() {
        let first = |seed, lane| Rng::new(seed, lane).next_u64();
        assert_ne!(first(1, 0), first(2, 0));
        assert_ne!(first(1, 0), first(1, 1));
    }

    #[test]
    fn range_and_unit_stay_in_bounds() {
        let mut r = Rng::new(7, 0);
        for _ in 0..10_000 {
            let v = r.range(3, 9);
            assert!((3..=9).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_is_deterministic() {
        let z = Zipf::new(20, 1.0);
        let mut r = Rng::new(9, 0);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[5] && counts[5] > counts[19]);
        let mut r1 = Rng::new(9, 1);
        let mut r2 = Rng::new(9, 1);
        let a: Vec<usize> = (0..100).map(|_| z.sample(&mut r1)).collect();
        let b: Vec<usize> = (0..100).map(|_| z.sample(&mut r2)).collect();
        assert_eq!(a, b);
    }
}
