//! Zipf-distributed object generator.
//!
//! In its simplest form Zipf's Law states that the frequency of the object of
//! rank `i` among `N` objects is proportional to `i^{-s}` (paper Sections 7.3
//! and 10).  The generator precomputes the cumulative distribution and draws
//! samples by inverse transform, so the measured frequencies match the
//! analytic ones closely.  A guide table over `2^b ≤ N` equal buckets of the
//! unit interval (Chen & Asau 1974) narrows each draw's search to the ranks
//! whose cumulative probability falls in its bucket: O(1) expected steps on
//! the head, where most of a Zipf law's mass lies, and a short binary search
//! in the tail, where many ranks share a bucket.

use rand::Rng;

/// A Zipf distribution over the ranks `1..=num_values` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    num_values: usize,
    exponent: f64,
    /// Cumulative probabilities, `cdf[i] = P[X ≤ i+1]`.
    cdf: Vec<f64>,
    /// Generalized harmonic number `H_{N,s}` (the normalisation constant).
    harmonic: f64,
    /// `guide[j]` is the first index `i` with `cdf[i] ≥ j / buckets`, for
    /// `j` in `0..=buckets`, where `buckets = guide.len() − 1` is the
    /// largest power of two at most `num_values`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Create a Zipf distribution over `num_values ≥ 1` ranks with exponent
    /// `s ≥ 0` (`s = 0` is the uniform distribution, `s = 1` the classic
    /// Zipf law).
    pub fn new(num_values: usize, exponent: f64) -> Self {
        assert!(num_values >= 1, "need at least one value");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be finite and ≥ 0"
        );
        let mut cdf = Vec::with_capacity(num_values);
        let mut acc = 0.0f64;
        for i in 1..=num_values {
            acc += (i as f64).powf(-exponent);
            cdf.push(acc);
        }
        let harmonic = acc;
        for c in &mut cdf {
            *c /= harmonic;
        }
        let buckets = 1usize << num_values.ilog2();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut index = 0usize;
        for j in 0..=buckets {
            // Exact: `j` and `buckets` are at most 2^53, and `buckets` is a
            // power of two.
            let edge = j as f64 / buckets as f64;
            while index < num_values && cdf[index] < edge {
                index += 1;
            }
            guide.push(u32::try_from(index).expect("at most 2^32 ranks"));
        }
        Zipf {
            num_values,
            exponent,
            cdf,
            harmonic,
            guide,
        }
    }

    /// Number of distinct values (ranks) in the support.
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of drawing rank `i` (1-based).
    pub fn probability(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.num_values, "rank out of range");
        (rank as f64).powf(-self.exponent) / self.harmonic
    }

    /// Expected count of rank `i` in a sample of `n` draws — the paper's
    /// `x_i = n·i^{-s}/H_{n,s}`.
    pub fn expected_count(&self, rank: usize, n: usize) -> f64 {
        self.probability(rank) * n as f64
    }

    /// Draw one rank (1-based) by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        (self.first_at_least(u).min(self.num_values - 1) + 1) as u64
    }

    /// The first index whose cumulative probability is at least `u ∈ [0, 1)`
    /// — `cdf.partition_point(|&c| c < u)` — searched inside `u`'s bucket.
    ///
    /// With `j = ⌊u·buckets⌋` (exact: `buckets` is a power of two),
    /// `j/buckets ≤ u < (j+1)/buckets`, so every index before `guide[j]` has
    /// `cdf < u` and the one at `guide[j+1]`, if any, has `cdf > u`: the
    /// answer lies in `guide[j] ..= guide[j+1]`, and the search there finds
    /// the same index as the search over the whole table.
    fn first_at_least(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }

    /// Draw `n` ranks.
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The exact top-`k` most frequent ranks with their expected counts in a
    /// sample of `n` draws (ranks 1..=k, since lower ranks are always more
    /// probable) — used to verify the approximate algorithms.
    pub fn exact_top_k(&self, k: usize, n: usize) -> Vec<(u64, f64)> {
        (1..=k.min(self.num_values))
            .map(|i| (i as u64, self.expected_count(i, n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// The oracle for `Zipf::harmonic`: the generalized harmonic number
    /// `H_{n,s} = Σ_{i=1}^{n} i^{-s}`, summed directly.
    fn generalized_harmonic(n: usize, s: f64) -> f64 {
        (1..=n).map(|i| (i as f64).powf(-s)).sum()
    }

    #[test]
    fn probabilities_sum_to_one() {
        for (n, s) in [(10usize, 1.0), (1000, 0.5), (100, 2.0), (1, 1.0)] {
            let z = Zipf::new(n, s);
            let total: f64 = (1..=n).map(|i| z.probability(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} s={s} total={total}");
        }
    }

    #[test]
    fn probabilities_decrease_with_rank() {
        let z = Zipf::new(100, 1.2);
        for i in 1..100 {
            assert!(z.probability(i) > z.probability(i + 1));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(50, 0.0);
        for i in 1..=50 {
            assert!((z.probability(i) - 1.0 / 50.0).abs() < 1e-12);
        }
    }

    #[test]
    fn harmonic_number_matches_direct_sum() {
        let z = Zipf::new(1000, 1.0);
        assert!((z.harmonic - generalized_harmonic(1000, 1.0)).abs() < 1e-9);
        assert!((generalized_harmonic(3, 1.0) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn samples_are_in_range() {
        let z = Zipf::new(64, 1.1);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = z.sample(&mut r);
            assert!((1..=64).contains(&x));
        }
    }

    #[test]
    fn empirical_frequencies_match_analytic_probabilities() {
        let z = Zipf::new(32, 1.0);
        let mut r = rng();
        let n = 200_000;
        let samples = z.sample_many(n, &mut r);
        let mut counts = vec![0u64; 33];
        for s in samples {
            counts[s as usize] += 1;
        }
        for (i, &count) in counts.iter().enumerate().take(6).skip(1) {
            let expected = z.expected_count(i, n);
            let got = count as f64;
            assert!(
                (got - expected).abs() < 0.05 * expected + 50.0,
                "rank {i}: got {got}, expected {expected}"
            );
        }
        // Rank 1 must be the most frequent by a wide margin.
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn exact_top_k_is_the_first_k_ranks() {
        let z = Zipf::new(100, 1.0);
        let top = z.exact_top_k(3, 1000);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[2].0, 3);
        assert!(top[0].1 > top[1].1 && top[1].1 > top[2].1);
        // k larger than the support is clamped.
        assert_eq!(z.exact_top_k(200, 10).len(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_support_is_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    /// The guide table's search finds what the binary search over the whole
    /// table finds: on one RNG stream, at every bucket edge and the doubles
    /// beside it, and at every cumulative probability and the doubles beside
    /// it, for supports that are and are not powers of two.
    #[test]
    fn guided_search_matches_the_whole_table_search() {
        for (n, s) in [
            (1usize, 1.0),
            (2, 0.0),
            (7, 1.0),
            (64, 1.1),
            (1000, 1.2),
            (4096, 0.5),
        ] {
            let z = Zipf::new(n, s);
            let whole = |u: f64| z.cdf.partition_point(|&c| c < u);
            let mut us: Vec<f64> = Vec::new();
            let mut r = rng();
            us.extend((0..20_000).map(|_| r.gen::<f64>()));
            let buckets = z.guide.len() - 1;
            for j in 0..buckets {
                us.push(j as f64 / buckets as f64);
            }
            us.extend(z.cdf.iter().copied());
            let neighbours: Vec<f64> = us
                .iter()
                .flat_map(|&u| [u.next_down(), u.next_up()])
                .collect();
            us.extend(neighbours);
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(z.first_at_least(u), whole(u), "n={n} s={s} u={u:e}");
            }
            assert_eq!(buckets, 1 << n.ilog2(), "n={n}");
        }
    }

    /// The guided draw is the draw it replaced: the same ranks off one RNG
    /// stream as the binary search over the whole table.
    #[test]
    fn guided_draws_match_the_binary_search_draws() {
        let z = Zipf::new(1 << 12, 1.1);
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..50_000 {
            let u: f64 = b.gen();
            let expected = (z.cdf.partition_point(|&c| c < u).min(z.num_values - 1) + 1) as u64;
            assert_eq!(z.sample(&mut a), expected);
        }
    }

    #[test]
    fn single_value_support_always_samples_one() {
        let z = Zipf::new(1, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 1);
        }
    }
}
