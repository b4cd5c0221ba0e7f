//! Top-k sum aggregation (paper §8).
//!
//! The input is a multiset of `(key, value)` pairs with non-negative values;
//! the task is to find the `k` keys whose values add up to the largest sums.
//! The frequent-objects machinery of Section 7 carries over almost verbatim —
//! only the sampling step changes: instead of Bernoulli-sampling *elements*,
//! each locally aggregated `(key, local_sum)` pair yields
//! `⌊local_sum / v_avg⌋` samples plus one more with probability equal to the
//! fractional part, where `v_avg = m / s` for global value total `m` and
//! target sample size `s` (Section 8.1).  Aggregating locally first means the
//! per-key sampling error is at most 1 per PE, which is what the Hoeffding
//! argument of Theorem 15 needs.
//!
//! Two variants are provided, mirroring PAC and EC:
//! * [`sum_top_k`] — report the `k` largest *estimated* sums
//!   (Theorem 15, `(ε, δ)`-approximation);
//! * [`sum_top_k_exact`] — identify candidates from the sample, then compute
//!   their exact sums from the local aggregates with one vector reduction.
//!
//! Both rank as §7 does: the larger sum first, the larger key first at a
//! tie — [`sum_top_k`] through [`select_top_counts`]' merge, and
//! [`sum_top_k_exact`]'s local cut after its reduction through the same
//! kernel, [`top_k_by_key`].

use std::ops::Add;

use commsim::{Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::hashagg::{sum_by_key, top_k_by_key, KeyMap};
use seqkit::sampling::value_proportional_sample_count;

use crate::frequent::{dht, select_top_counts, FrequentParams};
use crate::util::{allreduce_pair, OrderedF64};

/// Result of a top-k sum aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSumResult {
    /// The reported keys with their (estimated or exact) sums, sorted by
    /// decreasing sum.  Identical on every PE.
    pub items: Vec<(u64, f64)>,
    /// Global number of samples the algorithm communicated about.
    pub sample_size: u64,
    /// `true` iff the reported sums are exact.
    pub exact_sums: bool,
}

impl TopKSumResult {
    /// Just the reported keys, largest sum first.
    pub fn keys(&self) -> Vec<u64> {
        self.items.iter().map(|&(k, _)| k).collect()
    }
}

/// Sample size required for an (ε, δ)-approximation (Theorem 15's Hoeffding
/// bound): `s ≥ (1/ε)·√(2·p·ln(2n/δ))`.
pub fn required_sample_size(n: u64, p: usize, epsilon: f64, delta: f64) -> u64 {
    assert!(n > 0);
    let s = (1.0 / epsilon) * (2.0 * p as f64 * (2.0 * n as f64 / delta).ln()).sqrt();
    s.ceil() as u64
}

/// Locally aggregate, sample proportionally to value, and count the samples
/// in the distributed hash table.  Returns (owned sampled counts, v_avg,
/// global sample size, local aggregate).
///
/// Two collectives: one pair all-reduction of the input size and the value
/// total, and the hash table, whose shares carry the PEs' sample sizes.
fn sample_and_count<C: Communicator>(
    comm: &C,
    local_pairs: &[(u64, f64)],
    params: &FrequentParams,
) -> (KeyMap<u64>, f64, u64, KeyMap<f64>) {
    // Local aggregation first (Section 8.1): the sample is drawn from the
    // per-key local sums, not from the raw pairs.
    let local_agg = sum_by_key(local_pairs.iter().copied());
    // Everything order-sensitive below — the `f64` total and the RNG draws —
    // walks the aggregate in key order: a map's iteration order follows its
    // per-map seed, and the sample and the words/PE would follow it too.
    let mut by_key: Vec<(u64, f64)> = local_agg.iter().map(|(&key, &sum)| (key, sum)).collect();
    by_key.sort_unstable_by_key(|&(key, _)| key);
    let local_total: f64 = by_key.iter().map(|&(_, sum)| sum).sum();
    let local = (local_pairs.len() as u64, local_total);
    let (n, global_total) = allreduce_pair(comm, local, u64::add, f64::add);
    if global_total <= 0.0 || n == 0 {
        return (KeyMap::default(), 1.0, 0, local_agg);
    }
    let target = required_sample_size(n, comm.size(), params.epsilon, params.delta);
    let v_avg = (global_total / target as f64).max(f64::MIN_POSITIVE);

    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5AA5 ^ (comm.rank() as u64) << 4);
    let mut local_samples = KeyMap::default();
    for &(key, sum) in &by_key {
        let count = value_proportional_sample_count(sum, v_avg, &mut rng);
        if count > 0 {
            local_samples.insert(key, count);
        }
    }
    let local_sample_size: u64 = local_samples.values().sum();
    let (owned, sample_size) = dht::aggregate_sample(comm, local_samples, local_sample_size);
    (owned, v_avg, sample_size, local_agg)
}

/// The (ε, δ)-approximate top-k sum aggregation (Theorem 15).
pub fn sum_top_k<C: Communicator>(
    comm: &C,
    local_pairs: &[(u64, f64)],
    params: &FrequentParams,
) -> TopKSumResult {
    let (owned, v_avg, sample_size, _local_agg) = sample_and_count(comm, local_pairs, params);
    if sample_size == 0 {
        return TopKSumResult {
            items: Vec::new(),
            sample_size: 0,
            exact_sums: false,
        };
    }
    let top = select_top_counts(comm, &owned, params.k);
    let items = top
        .into_iter()
        .map(|(key, sampled)| (key, sampled as f64 * v_avg))
        .collect();
    TopKSumResult {
        items,
        sample_size,
        exact_sums: false,
    }
}

/// The exact-summation variant (the Section 8 analogue of Algorithm EC):
/// candidates are identified from the sample, their exact sums are obtained
/// from the local aggregates with one vector-valued reduction.
pub fn sum_top_k_exact<C: Communicator>(
    comm: &C,
    local_pairs: &[(u64, f64)],
    params: &FrequentParams,
    k_star: usize,
) -> TopKSumResult {
    let (owned, _v_avg, sample_size, local_agg) = sample_and_count(comm, local_pairs, params);
    if sample_size == 0 {
        return TopKSumResult {
            items: Vec::new(),
            sample_size: 0,
            exact_sums: true,
        };
    }
    let k_star = k_star.max(params.k);
    let candidates_with_counts = select_top_counts(comm, &owned, k_star);
    let candidates: Vec<u64> = candidates_with_counts.iter().map(|&(key, _)| key).collect();

    // Exact sums of the candidates: a lookup in the local aggregate suffices
    // (the paper notes no second pass over the input is needed here).
    let local_exact: Vec<f64> = candidates
        .iter()
        .map(|key| local_agg.get(key).copied().unwrap_or(0.0))
        .collect();
    let global_exact = comm.allreduce(local_exact, ReduceOp::elementwise_sum());
    let mut items: Vec<(u64, f64)> = candidates.into_iter().zip(global_exact).collect();
    top_k_by_key(&mut items, params.k, |&(key, sum)| (OrderedF64(sum), key));
    TopKSumResult {
        items,
        sample_size,
        exact_sums: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::WeightedZipfInput;

    #[test]
    fn required_sample_size_scales_with_accuracy_and_p() {
        let a = required_sample_size(1 << 20, 16, 1e-3, 1e-4);
        let b = required_sample_size(1 << 20, 16, 1e-4, 1e-4);
        let c = required_sample_size(1 << 20, 64, 1e-3, 1e-4);
        assert!(b > 5 * a, "tighter epsilon needs a larger sample");
        assert!(c > a, "more PEs need a larger sample");
    }

    #[test]
    fn approximate_sums_find_the_dominant_keys() {
        let p = 4;
        let gen = WeightedZipfInput::new(4096, 1.1, 10.0, 7);
        let inputs = gen.generate_all(p, 20_000);
        let exact = WeightedZipfInput::exact_top_k(&inputs, 4);
        let inputs_ref = inputs.clone();
        let params = FrequentParams::new(4, 1e-3, 1e-3, 11);
        let out = run_spmd(p, move |comm| {
            sum_top_k(comm, &inputs_ref[comm.rank()], &params)
        });
        let result = &out.results[0];
        assert!(out.results.iter().all(|r| r.items == result.items));
        // The clear number-one key must be found, and its estimated sum must
        // be within a few percent of the truth.
        assert_eq!(result.items[0].0, exact[0].0);
        let rel = (result.items[0].1 - exact[0].1).abs() / exact[0].1;
        assert!(rel < 0.15, "estimated sum off by {rel}");
    }

    #[test]
    fn exact_variant_reports_exact_sums() {
        let p = 4;
        let gen = WeightedZipfInput::new(1024, 1.0, 5.0, 13);
        let inputs = gen.generate_all(p, 10_000);
        let exact = WeightedZipfInput::exact_sums(&inputs);
        let inputs_ref = inputs.clone();
        let params = FrequentParams::new(6, 1e-3, 1e-3, 17);
        let out = run_spmd(p, move |comm| {
            sum_top_k_exact(comm, &inputs_ref[comm.rank()], &params, 32)
        });
        let result = &out.results[0];
        assert!(result.exact_sums);
        for &(key, sum) in &result.items {
            let truth = exact[&key];
            assert!(
                (sum - truth).abs() < 1e-6 * truth.max(1.0),
                "key {key}: {sum} vs {truth}"
            );
        }
        // The exact top key must be the true top key.
        let true_top = WeightedZipfInput::exact_top_k(&inputs, 1)[0].0;
        assert_eq!(result.items[0].0, true_top);
    }

    /// The exact variant breaks a tie at the k-th sum as every §7 list
    /// does, the larger key first: keys 3–6 sum to 100 each, exactly, and
    /// every key is a candidate.
    #[test]
    fn the_exact_variant_keeps_the_larger_key_at_a_tie() {
        let params = FrequentParams::new(4, 1e-2, 1e-2, 3);
        let out = run_spmd(2, move |comm| {
            let local: Vec<(u64, f64)> = [(1, 150.0), (2, 100.0)]
                .into_iter()
                .chain((3..=6).map(|key| (key, 50.0)))
                .collect();
            sum_top_k_exact(comm, &local, &params, 6)
        });
        let want = vec![(1, 300.0), (2, 200.0), (6, 100.0), (5, 100.0)];
        for result in &out.results {
            assert_eq!(result.items, want);
        }
    }

    #[test]
    fn communication_is_sublinear_in_the_input() {
        let p = 4;
        let per_pe = 30_000usize;
        let gen = WeightedZipfInput::new(1 << 12, 1.0, 3.0, 19);
        let inputs = gen.generate_all(p, per_pe);
        let inputs_ref = inputs.clone();
        let params = FrequentParams::new(8, 5e-3, 1e-3, 23);
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = sum_top_k(comm, &inputs_ref[comm.rank()], &params);
            comm.stats_snapshot().since(&before).bottleneck_words()
        });
        for &words in &out.results {
            assert!(words < (per_pe / 4) as u64, "moved {words} words");
        }
    }

    #[test]
    fn repeated_runs_sample_and_meter_identically() {
        // The sample once followed `HashMap` iteration order, so two runs of
        // one binary drew different samples and metered different words/PE.
        let p = 4;
        let inputs = WeightedZipfInput::new(4096, 1.0, 5.0, 29).generate_all(p, 8_000);
        let params = FrequentParams::new(8, 2e-3, 1e-3, 31);
        let run = || {
            let inputs = inputs.clone();
            let out = run_spmd(p, move |comm| {
                (
                    sum_top_k(comm, &inputs[comm.rank()], &params).items,
                    sum_top_k_exact(comm, &inputs[comm.rank()], &params, 32).items,
                )
            });
            (out.results, out.stats.per_pe().to_vec())
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn empty_input_returns_empty_result() {
        let params = FrequentParams::new(4, 1e-2, 1e-2, 0);
        let out = run_spmd(2, move |comm| {
            (
                sum_top_k(comm, &[], &params),
                sum_top_k_exact(comm, &[], &params, 8),
            )
        });
        assert!(out
            .results
            .iter()
            .all(|(a, b)| a.items.is_empty() && b.items.is_empty()));
    }

    #[test]
    fn zero_valued_pairs_do_not_break_anything() {
        let params = FrequentParams::new(2, 1e-2, 1e-2, 5);
        let out = run_spmd(2, move |comm| {
            let local: Vec<(u64, f64)> = vec![(1, 0.0), (2, 0.0)];
            sum_top_k(comm, &local, &params)
        });
        // Total value is zero: nothing to sample, nothing to report.
        assert!(out.results.iter().all(|r| r.items.is_empty()));
    }
}
