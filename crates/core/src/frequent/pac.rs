//! The basic probably-approximately-correct algorithm (paper §7.1,
//! Theorem 7).
//!
//! 1. Every PE takes a Bernoulli sample of its local input (geometric skips,
//!    expected time `O(ρ·n/p)`).
//! 2. The sampled objects are counted in a distributed hash table
//!    ([`super::dht`]).
//! 3. The `k` most frequently *sampled* objects are merged from the DHT
//!    shares' local top-`k` lists ([`super::select_top_counts`]) and
//!    reported with their sample counts scaled by `1/ρ`.
//!
//! With the sample size of Equation (3), the result is an
//! (ε, δ)-approximation: with probability at least `1 − δ` the error (in the
//! sense of [`super::absolute_error`]) is at most `εn`.

use commsim::Communicator;

use super::{counted_sample, scale_counts, select_top_counts, FrequentParams};

/// Minimum expected sample size required for an (ε, δ)-approximation
/// (Equation 3): `ρn ≥ (4/ε²)·max((3/k)·ln(2n/δ), 2·ln(2k/δ))`.
pub fn required_sample_size(n: u64, k: usize, epsilon: f64, delta: f64) -> u64 {
    assert!(n > 0 && k > 0);
    let n_f = n as f64;
    let k_f = k as f64;
    let a = (3.0 / k_f) * (2.0 * n_f / delta).ln();
    let b = 2.0 * (2.0 * k_f / delta).ln();
    let size = (4.0 / (epsilon * epsilon)) * a.max(b);
    size.ceil().min(n_f) as u64
}

/// The sampling probability PAC uses for an input of total size `n`.
pub fn sampling_probability(n: u64, params: &FrequentParams) -> f64 {
    let target = required_sample_size(n, params.k, params.epsilon, params.delta);
    (target as f64 / n as f64).clamp(0.0, 1.0)
}

/// Algorithm PAC on an input of global size `n > 0`: the `k` most frequently
/// sampled objects with their counts scaled to estimates of the true counts,
/// and the global sample size.  Identical on every PE.
pub(crate) fn top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let rho = sampling_probability(n, params);
    let rng_seed = params.seed ^ (comm.rank() as u64).wrapping_mul(0x9E37);
    let (owned, sample_size) = counted_sample(comm, local_data, rho, rng_seed);
    let top = select_top_counts(comm, &owned, params.k);
    (scale_counts(top, rho), sample_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    use crate::frequent::{absolute_error, exact_global_counts, relative_error};
    use crate::planner::Algorithm;

    fn zipf_parts(p: usize, per_pe: usize, values: usize, s: f64, seed: u64) -> Vec<Vec<u64>> {
        let zipf = Zipf::new(values, s);
        (0..p)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed + r as u64);
                zipf.sample_many(per_pe, &mut rng)
            })
            .collect()
    }

    #[test]
    fn required_sample_size_grows_with_accuracy() {
        // Use a large n so neither value is clamped by the input size.
        let loose = required_sample_size(1_000_000_000, 32, 1e-2, 1e-2);
        let tight = required_sample_size(1_000_000_000, 32, 1e-3, 1e-2);
        assert!(tight > loose * 50, "loose {loose} tight {tight}");
        // Never exceeds n.
        assert_eq!(required_sample_size(100, 5, 1e-6, 1e-6), 100);
    }

    #[test]
    fn sampling_probability_is_clamped_to_one() {
        let params = FrequentParams::new(4, 1e-6, 1e-6, 0);
        assert_eq!(sampling_probability(1000, &params), 1.0);
    }

    #[test]
    fn finds_the_heavy_hitters_of_a_zipf_input() {
        let p = 4;
        let parts = zipf_parts(p, 20_000, 1 << 12, 1.0, 42);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 5e-3, 1e-3, 7);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            let result = Algorithm::Pac.run(comm, local, &params);
            let exact = exact_global_counts(comm, local);
            (result, exact)
        });
        let n: u64 = parts.iter().map(|v| v.len() as u64).sum();
        let (result, exact) = &out.results[0];
        // All PEs agree.
        assert!(out.results.iter().all(|(r, _)| r.items == result.items));
        assert_eq!(result.items.len(), 8);
        // Error within the bound (with a comfortable margin for the test's
        // single run: the bound holds with probability 1-δ).
        let err = relative_error(exact, &result.keys(), n);
        assert!(err <= 5e-3, "relative error {err}");
        // Rank 1 of a Zipf distribution is essentially impossible to miss.
        assert_eq!(result.items[0].0, 1);
    }

    #[test]
    fn estimated_counts_are_close_to_exact_counts() {
        let p = 4;
        let parts = zipf_parts(p, 30_000, 1 << 10, 1.1, 3);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(4, 3e-3, 1e-3, 11);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Pac.run(comm, local, &params),
                exact_global_counts(comm, local),
            )
        });
        let (result, exact) = &out.results[0];
        let n: u64 = parts.iter().map(|v| v.len() as u64).sum();
        for &(key, estimate) in &result.items {
            let truth = exact[&key];
            let diff = estimate.abs_diff(truth) as f64;
            assert!(
                diff <= 3e-3 * n as f64 * 2.0,
                "key {key}: estimate {estimate} vs exact {truth}"
            );
        }
    }

    #[test]
    fn figure4_style_small_example_is_reasonable() {
        // A tiny input with a clear winner: the most frequent letter must be
        // reported first even with aggressive sampling.
        let out = run_spmd(4, |comm| {
            let mut rng = StdRng::seed_from_u64(comm.rank() as u64);
            let mut local: Vec<u64> = vec![b'E' as u64; 40];
            local.extend(std::iter::repeat_n(b'A' as u64, 20));
            local.extend((0..40).map(|_| rng.gen_range(b'F' as u64..b'Z' as u64)));
            let params = FrequentParams::new(2, 0.05, 0.05, 9);
            Algorithm::Pac.run(comm, &local, &params)
        });
        for r in &out.results {
            assert_eq!(r.items[0].0, b'E' as u64);
        }
    }

    #[test]
    fn empty_input_returns_empty_result() {
        let out = run_spmd(2, |comm| {
            let params = FrequentParams::new(3, 0.01, 0.01, 0);
            Algorithm::Pac.run(comm, &[], &params)
        });
        assert!(out
            .results
            .iter()
            .all(|r| r.items.is_empty() && r.sample_size == 0));
    }

    #[test]
    fn fewer_distinct_keys_than_k_returns_them_all() {
        let out = run_spmd(3, |comm| {
            let local = vec![1u64, 1, 2, 2, 2];
            let params = FrequentParams::new(10, 0.05, 0.05, 1);
            Algorithm::Pac.run(comm, &local, &params)
        });
        for r in &out.results {
            assert_eq!(r.items.len(), 2);
            assert_eq!(r.items[0].0, 2);
        }
    }

    #[test]
    fn metered_volume_is_identical_across_repeated_runs() {
        // Nothing on the wire may depend on a HashMap's (RandomState)
        // iteration order: two runs of the same binary must meter the same
        // words/PE.
        let p = 4;
        let parts = zipf_parts(p, 5_000, 1 << 10, 1.0, 99);
        let params = FrequentParams::new(8, 2e-2, 1e-2, 13);
        let run = || {
            let parts_ref = parts.clone();
            run_spmd(p, move |comm| {
                let before = comm.stats_snapshot();
                let _ = Algorithm::Pac.run(comm, &parts_ref[comm.rank()], &params);
                comm.stats_snapshot().since(&before).bottleneck_words()
            })
            .results
        };
        assert_eq!(run(), run(), "PAC words/PE must not depend on hash order");
    }

    #[test]
    fn communication_is_proportional_to_the_sample_not_the_input() {
        let p = 4;
        let per_pe = 50_000usize;
        let parts = zipf_parts(p, per_pe, 1 << 14, 1.0, 77);
        let parts_ref = parts.clone();
        // Loose accuracy => small sample => communication must be far below
        // the local input size.
        let params = FrequentParams::new(16, 1e-1, 1e-1, 5);
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = Algorithm::Pac.run(comm, &parts_ref[comm.rank()], &params);
            comm.stats_snapshot().since(&before).bottleneck_words()
        });
        for &words in &out.results {
            assert!(
                words < (per_pe / 5) as u64,
                "PAC moved {words} words for a {per_pe}-element local input"
            );
        }
    }

    #[test]
    fn error_metric_agrees_with_exact_answer_on_perfect_results() {
        let counts: HashMap<u64, u64> = [(1, 50), (2, 40), (3, 30)].into_iter().collect();
        assert_eq!(absolute_error(&counts, &[1, 2, 3]), 0);
    }
}
