//! Algorithm PEC — probably exactly correct top-k (paper §7.3).
//!
//! If the frequency distribution has any significant gap (Figure 5), exact
//! counting of *all likely relevant* objects yields the exact top-k with
//! probability at least `1 − δ`.  PEC is one sampling stage:
//!
//! 1. a sample at the PAC rate ρ₀ for a coarse ε₀ = `min(20·ε, 0.05)`,
//!    counted in the distributed hash table;
//! 2. its top-`k` merge gives the sample count `ŝ_k` of the k-th most
//!    frequently sampled object and, from it, a count threshold every true
//!    top-k object clears with probability at least `1 − δ` (Lemma 12,
//!    `candidate_threshold`); the sampled objects at or above it are the
//!    candidates, merged from the hash table's shares without a cap — the
//!    threshold is at most `ŝ_k`, so they include the sample's top-k, and
//!    no PE needs their number;
//! 3. the candidates of that same sample are counted exactly.
//!
//! When ρ₀ is clamped to 1 the sample is the input, the hash table's counts
//! are exact, and step 2's top-`k` merge is the answer: step 3 is skipped.
//! Every PE derives ρ₀ from `(n, k, ε₀, δ)`, so the branch costs no message.
//!
//! For inputs following Zipf's law the threshold is unnecessary: Theorem 14
//! gives the sample size and `k* ≈ (2+√2)^{1/s}·k` in closed form
//! ([`pec_zipf_top_k`]).

use std::collections::HashMap;
use std::hash::BuildHasher;

use commsim::Communicator;
use seqkit::hashagg::KeyMap;
use seqkit::skew::generalized_harmonic;

use super::{count_candidates, counted_sample, pac, select_top_counts};
use super::{FrequentParams, TopKFrequentResult};

/// The coarse relative error ε₀ PEC samples at for a target ε.
pub(crate) fn coarse_epsilon(epsilon: f64) -> f64 {
    (epsilon * 20.0).min(0.05)
}

/// Lemma 12's candidate threshold on sample counts drawn at rate `rho`,
/// given the k-th largest sample count `s_k`.
///
/// A sampled count is a sum of Bernoulli(`rho`) variables with mean `E` and
/// variance `E·(1 − rho)`, each within 1 of its mean, so Bernstein's
/// inequality (Boucheron, Lugosi & Massart 2013, Theorem 2.10) bounds its
/// lower tail: it falls below `E − t(E, L)` with probability at most `e^{−L}`
/// for `t(E, L) = √(2·E·(1 − rho)·L) + 2L/3`.  With the observed `s_k`
/// standing in for its expectation, `E_lb = s_k − t(s_k, ln(1/δ))` bounds
/// `E[ŝ_k]` from below, and an object whose expected sample count is at least
/// `E_lb` lies below `E_lb − t(E_lb, ln(k/δ))` with probability at most
/// `δ/k`; a union bound over the top k gives `1 − δ`.  At `rho = 1` the
/// variance term vanishes and only the range term `2L/3` remains.
fn candidate_threshold(s_k: f64, rho: f64, k: usize, delta: f64) -> f64 {
    let t = |expectation: f64, log_inverse: f64| {
        (2.0 * expectation * (1.0 - rho) * log_inverse).sqrt() + 2.0 * log_inverse / 3.0
    };
    let expectation_lb = (s_k - t(s_k, (1.0 / delta).ln())).max(0.0);
    (expectation_lb - t(expectation_lb, (k as f64 / delta).ln())).max(0.0)
}

/// Algorithm PEC on an input of global size `n > 0`: one sample at the
/// coarse rate ρ₀, and the exact counts of the best `k` of its candidates —
/// every sampled object at or above [`candidate_threshold`]; plus the
/// sample's global size.
///
/// With probability at least `1 − δ` (and a sufficiently sloped input
/// distribution) the reported set is exactly the true top-k.
pub(crate) fn top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let coarse = FrequentParams {
        epsilon: coarse_epsilon(params.epsilon),
        ..*params
    };
    let rho0 = pac::sampling_probability(n, &coarse);
    let rng_seed = params.seed ^ 0x9EC0 ^ comm.rank() as u64;
    let (owned, sample_size) = counted_sample(comm, local_data, rho0, rng_seed);
    let top_k = select_top_counts(comm, &owned, params.k);
    if rho0 >= 1.0 {
        // The sample is the input: its counts are exact.
        return (top_k, sample_size);
    }

    // ŝ_k: the k-th largest sample count (the smallest one if there are
    // fewer than k distinct keys).
    let s_k = top_k.last().map_or(0, |&(_, c)| c) as f64;
    let threshold = candidate_threshold(s_k, rho0, params.k, params.delta);
    let candidates = candidates_above(comm, &owned, threshold);
    let items = count_candidates(comm, local_data, candidates, params.k);
    (items, sample_size)
}

/// The candidates of a `threshold` no higher than `ŝ_k`: every sampled key
/// whose count reaches it, merged from the PEs' shares `owned` uncapped, most
/// frequently sampled first.
///
/// Every top-`k` key's count is at least `ŝ_k`, so every one of them clears
/// the threshold: the list is the top-`k*` of the sample for `k*` the number
/// of keys at or above the threshold, or every sampled key if there are
/// fewer than `k`.  No PE needs `k*` to cut its list, so none is reduced.
///
/// The cut map is filled in `owned`'s iteration order; its own seed keeps
/// that order from clustering its buckets.
fn candidates_above<C: Communicator, S: BuildHasher>(
    comm: &C,
    owned: &HashMap<u64, u64, S>,
    threshold: f64,
) -> Vec<(u64, u64)> {
    let above: KeyMap<u64> = owned
        .iter()
        .filter(|&(_, &count)| count as f64 >= threshold)
        .map(|(&key, &count)| (key, count))
        .collect();
    select_top_counts(comm, &above, usize::MAX)
}

/// Theorem 14's candidate count for a Zipf input of exponent `s`:
/// `k* = ⌈(2+√2)^{1/s}·k⌉`.  The planner prices PEC's count stage at it.
pub(crate) fn zipf_k_star(k: usize, s: f64) -> f64 {
    ((2.0 + std::f64::consts::SQRT_2).powf(1.0 / s) * k as f64).ceil()
}

/// The Zipf-specialised PEC (Theorem 14): for an input following Zipf's law
/// with exponent `s` over `num_values` distinct objects, the sample size
/// `ρn = 4·k^s·H_{n,s}·ln(k/δ)` and `k* = ⌈(2+√2)^{1/s}·k⌉` suffice — no
/// threshold is read off the sample.
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
    let k_star = zipf_k_star(params.k, zipf_exponent) as usize;

    // EC's pipeline with the closed-form ρ and k*.
    let rng_seed = params.seed ^ 0x21F ^ comm.rank() as u64;
    let (owned, sample_size) = counted_sample(comm, local_data, rho, rng_seed);
    let candidates = select_top_counts(comm, &owned, k_star);
    let items = count_candidates(comm, local_data, candidates, params.k);
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
    use rand::{Rng, SeedableRng};

    use crate::frequent::{exact_global_counts, local_top_k};
    use crate::planner::Algorithm;
    use crate::util::owner_of;

    fn zipf_parts(p: usize, per_pe: usize, values: usize, s: f64, seed: u64) -> Vec<Vec<u64>> {
        let zipf = Zipf::new(values, s);
        (0..p)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed + r as u64);
                zipf.sample_many(per_pe, &mut rng)
            })
            .collect()
    }

    /// Bernstein's deviation shrinks with the sampling rate's variance
    /// factor `1 − ρ`: the threshold rises toward `ŝ_k` as ρ grows, and at
    /// ρ = 1 only the two range terms `2·ln(1/δ)/3 + 2·ln(k/δ)/3` remain.
    #[test]
    fn the_threshold_tightens_as_the_sampling_rate_grows() {
        let (s_k, k, delta) = (1000.0, 8, 1e-3);
        let at = |rho| candidate_threshold(s_k, rho, k, delta);
        assert!(at(0.1) < at(0.5) && at(0.5) < at(0.9) && at(0.9) < s_k);
        let range = 2.0 * ((1.0f64 / delta).ln() + (k as f64 / delta).ln()) / 3.0;
        assert!((at(1.0) - (s_k - range)).abs() < 1e-9);
        // A k-th count too small to bound from below admits every key.
        assert_eq!(candidate_threshold(3.0, 0.5, k, delta), 0.0);
    }

    /// The cut PEC made before its candidates were merged uncapped: every
    /// PE counts its owned keys at or above `threshold`, one sum reduction
    /// gives `k* = max(k, that count)`, and the top-`k*` merge of the whole
    /// shares is the candidate list.
    fn top_k_star_merge<C: Communicator>(
        comm: &C,
        owned: &HashMap<u64, u64>,
        threshold: f64,
        k: usize,
    ) -> Vec<(u64, u64)> {
        let mine = owned.values().filter(|&&c| c as f64 >= threshold).count() as u64;
        let k_star = (comm.allreduce_sum(mine) as usize).max(k);
        select_top_counts(comm, owned, k_star)
    }

    /// For every threshold at most `ŝ_k` the uncapped merge of the keys at or
    /// above it returns the old top-`k*` merge's candidates, in its order, on
    /// every PE: over random `p ∈ 1..=9`, counts so small that many keys tie
    /// at every threshold, fewer distinct keys than `k`, and every integer
    /// threshold from 0 to `ŝ_k`, a fractional one and Lemma 12's own.
    #[test]
    fn the_threshold_cut_returns_the_candidates_of_the_top_k_star_merge() {
        let mut rng = StdRng::seed_from_u64(0x42EC);
        for case in 0..40 {
            let p = rng.gen_range(1..=9usize);
            let k = rng.gen_range(1..=12usize);
            let distinct = if case % 4 == 0 {
                rng.gen_range(0..k)
            } else {
                rng.gen_range(k..150)
            };
            let sample: Vec<(u64, u64)> = (0..distinct as u64)
                .map(|i| (3 * i + 1, rng.gen_range(1..=8)))
                .collect();
            let mut shares = vec![HashMap::new(); p];
            for &(key, count) in &sample {
                shares[owner_of(key, p)].insert(key, count);
            }
            // ŝ_k, or the smallest count if there are fewer than k keys.
            let mut by_count: Vec<u64> = sample.iter().map(|&(_, count)| count).collect();
            by_count.sort_unstable_by(|a, b| b.cmp(a));
            let s_k = match k.min(distinct) {
                0 => 0,
                i => by_count[i - 1],
            };
            let mut thresholds: Vec<f64> = (0..=s_k).map(|t| t as f64).collect();
            thresholds.push(s_k as f64 - 0.5);
            thresholds.push(candidate_threshold(s_k as f64, 0.5, k, 0.1));
            for threshold in thresholds {
                let out = run_spmd(p, |comm| {
                    let share = &shares[comm.rank()];
                    (
                        candidates_above(comm, share, threshold),
                        top_k_star_merge(comm, share, threshold, k),
                    )
                });
                for (rank, (cut, reference)) in out.results.iter().enumerate() {
                    assert_eq!(
                        cut, reference,
                        "case {case}: p={p} k={k} threshold={threshold} rank {rank}"
                    );
                }
            }
        }
    }

    /// When ρ₀ is clamped to 1 PEC is PAC at rate 1: the same result, the
    /// same messages, and no count stage.
    #[test]
    fn a_sample_of_the_whole_input_skips_the_count_stage() {
        let p = 3;
        let parts = zipf_parts(p, 2_000, 256, 1.0, 19);
        let params = FrequentParams::new(4, 1e-3, 1e-2, 29);
        let n = (p * 2_000) as u64;
        let coarse = FrequentParams {
            epsilon: coarse_epsilon(params.epsilon),
            ..params
        };
        assert_eq!(pac::sampling_probability(n, &coarse), 1.0);
        assert_eq!(pac::sampling_probability(n, &params), 1.0);
        let out = run_spmd(p, |comm| {
            [Algorithm::Pac, Algorithm::Pec].map(|algorithm| {
                let before = comm.stats_snapshot();
                let result = algorithm.run(comm, &parts[comm.rank()], &params);
                let s = comm.stats_snapshot().since(&before);
                let traffic = (s.sent_messages, s.sent_words);
                (result, (traffic, s.received_messages, s.received_words))
            })
        });
        for [(pac, pac_traffic), (pec, pec_traffic)] in &out.results {
            assert_eq!((&pec.items, pec.sample_size), (&pac.items, n));
            assert!(pec.exact_counts);
            assert_eq!(pec_traffic, pac_traffic);
        }
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
        let truth: Vec<u64> = local_top_k(exact.iter().map(|(&key, &c)| (key, c)), 6)
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
        let truth: Vec<u64> = local_top_k(exact.iter().map(|(&key, &c)| (key, c)), 8)
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
