//! Algorithm PEC — probably exactly correct top-k (paper §7.3).
//!
//! If the frequency distribution has any significant gap (Figure 5), exact
//! counting of *all likely relevant* objects yields the exact top-k with
//! probability at least `1 − δ`.  PEC works in two stages:
//!
//! 1. a small first sample (the PAC machinery with a coarse ε₀ =
//!    `min(20·ε, 0.05)`) estimates the sample count `ŝ_k` of the k-th most
//!    frequent object and, from it, how deep into the sampled ranking the
//!    true top-k can plausibly have sunk (Lemma 12); the resulting rank bound
//!    is the candidate-set size `k*`;
//! 2. Algorithm EC runs with that `k*`, counting all candidates exactly.
//!
//! For inputs following Zipf's law the first stage is unnecessary: Theorem 14
//! gives the sample size and `k* ≈ (2+√2)^{1/s}·k` in closed form
//! ([`pec_zipf_top_k`]).

use commsim::Communicator;
use seqkit::skew::generalized_harmonic;

use super::{count_candidates, dht, ec, pac, sample_counts, select_top_counts};
use super::{FrequentParams, TopKFrequentResult};

/// The first stage's coarse relative error ε₀ for a target ε.
pub(crate) fn coarse_epsilon(epsilon: f64) -> f64 {
    (epsilon * 20.0).min(0.05)
}

/// Stage 1 on an input of global size `n > 0` (Lemma 12): the candidate-set
/// size `k*` and the size of the first sample it was read from.
///
/// The candidate threshold is `E[ŝ_k] − √(2·E[ŝ_k]·ln(k/δ))`, with the
/// observed `ŝ_k` standing in for its expectation (high-probability bound).
/// `k*` is the number of sampled objects at or above the threshold, clamped
/// to at least `k`.
fn first_stage<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (usize, u64) {
    let coarse = FrequentParams {
        epsilon: coarse_epsilon(params.epsilon),
        ..*params
    };
    let rho0 = pac::sampling_probability(n, &coarse);
    let rng_seed = params.seed ^ 0x9EC0 ^ comm.rank() as u64;
    let (counts, first_sample_size) = sample_counts(comm, local_data, rho0, rng_seed);
    let owned = dht::aggregate_counts_with(comm, counts, params.dht_fanout);

    // ŝ_k: the k-th largest sample count (0 if fewer than k distinct keys).
    let top_k = select_top_counts(comm, &owned, params.k);
    let s_k = top_k.last().map(|&(_, c)| c).unwrap_or(0) as f64;

    // Lemma 12 threshold, using the high-probability lower bound for E[ŝ_k].
    let expectation_lb = (s_k - (2.0 * s_k * (1.0f64 / params.delta).ln()).sqrt()).max(0.0);
    let count_threshold = (expectation_lb
        - (2.0 * expectation_lb * (params.k as f64 / params.delta).ln()).sqrt())
    .max(0.0);

    // k* = number of sampled objects with count ≥ threshold (each PE counts
    // its owned keys; one sum reduction).
    let local_above = owned
        .values()
        .filter(|&&c| (c as f64) >= count_threshold && c > 0)
        .count() as u64;
    let above = comm.allreduce_sum(local_above) as usize;
    (above.max(params.k), first_sample_size)
}

/// Algorithm PEC on an input of global size `n > 0`: `k*` from a first
/// sample, then EC with that `k*`.  Returns the exact counts of the best `k`
/// candidates and both samples' total size.
///
/// With probability at least `1 − δ` (and a sufficiently sloped input
/// distribution) the reported set is exactly the true top-k.
pub(crate) fn top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let (k_star, first_sample_size) = first_stage(comm, local_data, params, n);
    let (items, sample_size) = ec::top_k(comm, local_data, params, n, k_star);
    (items, first_sample_size + sample_size)
}

/// The Zipf-specialised PEC (Theorem 14): for an input following Zipf's law
/// with exponent `s` over `num_values` distinct objects, the sample size
/// `ρn = 4·k^s·H_{n,s}·ln(k/δ)` and `k* = ⌈(2+√2)^{1/s}·k⌉` suffice — no
/// first-stage sample is needed.
pub fn pec_zipf_top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    zipf_exponent: f64,
    num_values: usize,
) -> TopKFrequentResult {
    let n = comm.allreduce_sum(local_data.len() as u64);
    if n == 0 {
        return TopKFrequentResult {
            items: Vec::new(),
            sample_size: 0,
            exact_counts: true,
        };
    }
    assert!(zipf_exponent > 0.0, "Zipf exponent must be positive");
    let k_f = params.k as f64;
    let harmonic = generalized_harmonic(num_values as u64, zipf_exponent);
    let target = 4.0 * k_f.powf(zipf_exponent) * harmonic * (k_f / params.delta).ln();
    let rho = (target / n as f64).clamp(0.0, 1.0);
    let k_star = ((2.0 + std::f64::consts::SQRT_2).powf(1.0 / zipf_exponent) * k_f).ceil() as usize;

    // EC's pipeline with the closed-form ρ and k*.
    let rng_seed = params.seed ^ 0x21F ^ comm.rank() as u64;
    let (counts, sample_size) = sample_counts(comm, local_data, rho, rng_seed);
    let owned = dht::aggregate_counts_with(comm, counts, params.dht_fanout);
    let items = count_candidates(comm, local_data, &owned, k_star, params.k);
    TopKFrequentResult {
        items,
        sample_size,
        exact_counts: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::frequent::exact_global_counts;
    use crate::planner::Algorithm;
    use seqkit::hashagg::top_k_by_count;

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
    fn first_stage_k_star_is_at_least_k() {
        let p = 4;
        let parts = zipf_parts(p, 10_000, 1 << 10, 1.0, 3);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 1e-3, 1e-2, 5);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            let n = comm.allreduce_sum(local.len() as u64);
            first_stage(comm, local, &params, n)
        });
        for &(k_star, first_sample_size) in &out.results {
            assert!(k_star >= 8, "k* = {k_star}");
            assert!(first_sample_size > 0);
        }
        // All PEs agree on k*.
        assert!(out.results.iter().all(|e| e.0 == out.results[0].0));
    }

    #[test]
    fn pec_reports_exact_counts_and_the_exact_top_k_on_sloped_inputs() {
        let p = 4;
        let parts = zipf_parts(p, 20_000, 1 << 12, 1.2, 7);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(6, 1e-4, 1e-3, 9);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Pec.run(comm, local, &params),
                exact_global_counts(comm, local),
            )
        });
        let (result, exact) = &out.results[0];
        assert!(result.exact_counts);
        let truth: Vec<u64> = top_k_by_count(exact, 6)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut got = result.keys();
        let mut want = truth;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "PEC must find the exact top-k on a sloped Zipf input"
        );
        for &(key, count) in &result.items {
            assert_eq!(count, exact[&key]);
        }
    }

    #[test]
    fn zipf_specialised_variant_matches_the_exact_answer() {
        let p = 4;
        let s = 1.1;
        let values = 1 << 12;
        let parts = zipf_parts(p, 25_000, values, s, 13);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 1e-4, 1e-3, 15);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                pec_zipf_top_k(comm, local, &params, s, values),
                exact_global_counts(comm, local),
            )
        });
        let (result, exact) = &out.results[0];
        let truth: Vec<u64> = top_k_by_count(exact, 8)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut got = result.keys();
        let mut want = truth;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn zipf_variant_sample_is_small_for_steep_exponents() {
        // Theorem 14: the k-th most frequent object has relative frequency
        // Θ(k^{-s}), so the sample needs only ~k^s·H ln(k/δ) elements —
        // independent of n.
        let n = 1u64 << 30;
        let k: f64 = 32.0;
        let s = 1.0;
        let harmonic = generalized_harmonic(1 << 20, s);
        let target = 4.0 * k.powf(s) * harmonic * (k / 1e-4f64).ln();
        assert!(
            (target / n as f64) < 0.01,
            "sample fraction {}",
            target / n as f64
        );
    }

    #[test]
    fn all_pes_agree_on_the_result() {
        let p = 3;
        let parts = zipf_parts(p, 5_000, 512, 1.0, 21);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(4, 1e-3, 1e-2, 23);
        let out = run_spmd(p, move |comm| {
            Algorithm::Pec.run(comm, &parts_ref[comm.rank()], &params)
        });
        assert!(out.results.iter().all(|r| r.items == out.results[0].items));
    }

    #[test]
    fn empty_input_is_handled() {
        let params = FrequentParams::new(4, 1e-2, 1e-2, 0);
        let out = run_spmd(2, move |comm| Algorithm::Pec.run(comm, &[], &params));
        assert!(out.results.iter().all(|r| r.items.is_empty()));
    }
}
