//! Key/value workloads for top-k sum aggregation (paper §8).
//!
//! Each input object is a `(key, value)` pair and the task is to find the `k`
//! keys with the largest value sums.  The generator draws keys from a Zipf
//! distribution (so a few keys dominate the total sum) and values from a
//! configurable positive distribution, and can report the exact per-key sums
//! for verification.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqkit::hashagg::top_k_by_key;
use std::collections::HashMap;

/// Generator for weighted (key, value) workloads with Zipfian keys.
#[derive(Debug, Clone)]
pub struct WeightedZipfInput {
    /// Number of distinct keys.
    pub num_keys: usize,
    /// Zipf exponent of the key distribution.
    pub key_exponent: f64,
    /// Values are drawn uniformly from `(0, max_value]`.
    pub max_value: f64,
    /// Base seed; PE `i` uses `seed + i`.
    pub seed: u64,
}

impl WeightedZipfInput {
    /// Create a generator.
    pub fn new(num_keys: usize, key_exponent: f64, max_value: f64, seed: u64) -> Self {
        assert!(num_keys > 0, "need at least one key");
        assert!(max_value > 0.0, "values must be positive");
        WeightedZipfInput {
            num_keys,
            key_exponent,
            max_value,
            seed,
        }
    }

    /// Generate the local `(key, value)` pairs of PE `rank`.
    pub fn generate(&self, rank: usize, local_n: usize) -> Vec<(u64, f64)> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(rank as u64));
        let zipf = Zipf::new(self.num_keys, self.key_exponent);
        (0..local_n)
            .map(|_| {
                let key = zipf.sample(&mut rng);
                let value = rng.gen_range(f64::MIN_POSITIVE..=self.max_value);
                (key, value)
            })
            .collect()
    }

    /// Generate the whole distributed input, one vector per PE.
    pub fn generate_all(&self, num_pes: usize, local_n: usize) -> Vec<Vec<(u64, f64)>> {
        (0..num_pes).map(|r| self.generate(r, local_n)).collect()
    }

    /// Exact per-key sums over a set of per-PE inputs (the correctness oracle
    /// for the approximate distributed aggregation).
    pub fn exact_sums(inputs: &[Vec<(u64, f64)>]) -> HashMap<u64, f64> {
        let mut sums = HashMap::new();
        for pe in inputs {
            for &(k, v) in pe {
                *sums.entry(k).or_insert(0.0) += v;
            }
        }
        sums
    }

    /// The exact top-`k` keys by value sum, sorted by decreasing sum; at a
    /// tie the larger key wins, as in every ranked answer of `topk`.
    pub fn exact_top_k(inputs: &[Vec<(u64, f64)>], k: usize) -> Vec<(u64, f64)> {
        let mut entries: Vec<(u64, f64)> = Self::exact_sums(inputs).into_iter().collect();
        top_k_by_key(&mut entries, k, |&(key, sum)| (total_order(sum), key));
        entries
    }
}

/// `f64::total_cmp`'s order as an integer: `total_order(a) < total_order(b)`
/// iff `a.total_cmp(&b)` is `Less` (a negative value's magnitude bits are
/// flipped, so it ranks below every larger one).
fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible_and_in_range() {
        let gen = WeightedZipfInput::new(100, 1.0, 10.0, 3);
        let a = gen.generate(1, 1000);
        assert_eq!(a, gen.generate(1, 1000));
        assert!(a
            .iter()
            .all(|&(k, v)| (1..=100).contains(&k) && v > 0.0 && v <= 10.0));
    }

    #[test]
    fn different_pes_get_different_data() {
        let gen = WeightedZipfInput::new(100, 1.0, 10.0, 3);
        assert_ne!(gen.generate(0, 500), gen.generate(1, 500));
    }

    #[test]
    fn exact_sums_add_everything_up() {
        let inputs = vec![vec![(1u64, 1.0), (2, 2.0)], vec![(1u64, 3.0), (3, 0.5)]];
        let sums = WeightedZipfInput::exact_sums(&inputs);
        assert_eq!(sums[&1], 4.0);
        assert_eq!(sums[&2], 2.0);
        assert_eq!(sums[&3], 0.5);
    }

    #[test]
    fn exact_top_k_orders_by_sum() {
        let inputs = vec![vec![(1u64, 1.0), (2, 5.0), (3, 3.0), (2, 1.0)]];
        let top = WeightedZipfInput::exact_top_k(&inputs, 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 3);
    }

    #[test]
    fn exact_top_k_keeps_the_larger_key_at_a_tied_sum() {
        let inputs = vec![
            vec![(4u64, 2.0), (9, 1.5), (7, 3.0)],
            vec![(9u64, 0.5), (2, 2.0), (5, 1.0)],
        ];
        // Keys 9, 4 and 2 tie at 2.0 behind key 7's 3.0.
        let top = WeightedZipfInput::exact_top_k(&inputs, 3);
        assert_eq!(top, vec![(7, 3.0), (9, 2.0), (4, 2.0)]);
    }

    #[test]
    fn total_order_ranks_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order(a).cmp(&total_order(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn zipf_keys_make_low_ranks_dominate() {
        let gen = WeightedZipfInput::new(1000, 1.2, 1.0, 17);
        let inputs = gen.generate_all(4, 20_000);
        let top = WeightedZipfInput::exact_top_k(&inputs, 5);
        // The heaviest keys should be small ranks (frequent under Zipf).
        assert!(top.iter().all(|&(k, _)| k <= 20), "top keys: {top:?}");
    }
}
