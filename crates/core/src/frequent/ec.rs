//! Algorithm EC — exact counting of sampled candidates (paper §7.2,
//! Theorem 11).
//!
//! PAC's sample size grows with `1/ε²`, which explodes for small ε.  EC
//! instead takes a much smaller sample (`∝ 1/ε`), uses it only to *identify*
//! a candidate set — the `k* ≥ k` most frequently sampled objects — and then
//! counts those candidates **exactly** with one extra pass over the local
//! input and a vector-valued sum reduction, whose counts cross the wire
//! each Rice-coded against the one before it
//! ([`PackedCounts`](commsim::codec::PackedCounts)): the `j`-th largest of
//! `k*` counts costs about `log₂(c_j + 1) + 1.5` bits, and never more than
//! `PackedCounts::ESCAPE + 1 + δ(n)` (δ the universal code).  The candidate list reaches every PE through the
//! top-`k*` merge of the DHT shares ([`super::select_top_counts`]), so the
//! communication volume is
//! `O((1/ε)·√(log p / p)·log(n/δ) + Σ_j (log₂(c_j + 1) + 2)/64)` words per
//! PE, which is `O(… + k*·⌈log₂ n⌉/64)` at worst.

use commsim::Communicator;

use super::{count_candidates, counted_sample, select_top_counts, FrequentParams};

/// The candidate-set size that minimises communication volume
/// (paper, discussion after Lemma 10):
/// `k* = max(k, (1/ε)·√(2·log p / p · ln(n/δ)))`.
pub fn optimal_k_star(n: u64, p: usize, params: &FrequentParams) -> usize {
    let log_p = (p.max(2) as f64).log2();
    let candidate =
        (1.0 / params.epsilon) * (2.0 * log_p / p as f64 * (n as f64 / params.delta).ln()).sqrt();
    params.k.max(candidate.ceil() as usize)
}

/// Sample size required by Lemma 10 when the `k'` most frequently sampled
/// objects are counted exactly: `ρn = 2/(ε²·k')·ln(n/δ)`.
pub fn required_sample_size(n: u64, k_star: usize, epsilon: f64, delta: f64) -> u64 {
    assert!(n > 0 && k_star > 0);
    let size = 2.0 / (epsilon * epsilon * k_star as f64) * (n as f64 / delta).ln();
    size.ceil().min(n as f64) as u64
}

/// Algorithm EC on an input of global size `n > 0`: Lemma 10's sample for
/// the [`optimal_k_star`] candidates, counted in the DHT, and the exact counts
/// of its top-`k*` keys cut to the best `k`; plus the global sample size.
pub(crate) fn top_k<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    params: &FrequentParams,
    n: u64,
) -> (Vec<(u64, u64)>, u64) {
    let k_star = optimal_k_star(n, comm.size(), params);
    let target = required_sample_size(n, k_star, params.epsilon, params.delta);
    let rho = (target as f64 / n as f64).clamp(0.0, 1.0);
    let rng_seed = params.seed ^ (comm.rank() as u64).wrapping_mul(0xABCD);
    let (owned, sample_size) = counted_sample(comm, local_data, rho, rng_seed);
    let candidates = select_top_counts(comm, &owned, k_star);
    let items = count_candidates(comm, local_data, candidates, params.k);
    (items, sample_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::Zipf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::frequent::{exact_global_counts, relative_error};
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
    fn kstar_is_at_least_k_and_grows_with_accuracy() {
        let loose = FrequentParams::new(32, 1e-2, 1e-2, 0);
        let tight = FrequentParams::new(32, 1e-4, 1e-2, 0);
        let k_loose = optimal_k_star(1 << 20, 16, &loose);
        let k_tight = optimal_k_star(1 << 20, 16, &tight);
        assert!(k_loose >= 32);
        assert!(k_tight > k_loose);
    }

    #[test]
    fn ec_sample_is_much_smaller_than_pac_sample_for_small_epsilon() {
        let n = 1u64 << 24;
        let epsilon = 1e-5;
        let delta = 1e-6;
        let pac = super::super::pac::required_sample_size(n, 32, epsilon, delta);
        let k_star = optimal_k_star(n, 64, &FrequentParams::new(32, epsilon, delta, 0));
        let ec = required_sample_size(n, k_star, epsilon, delta);
        // PAC saturates at the full input size n for this ε; EC must stay
        // well below it (this is exactly the Figure-8 effect).
        assert_eq!(pac, n, "PAC should be forced to sample everything here");
        assert!(
            ec * 4 < pac,
            "EC sample {ec} should be far below PAC sample {pac}"
        );
    }

    #[test]
    fn reported_counts_are_exact() {
        let p = 4;
        let parts = zipf_parts(p, 10_000, 1 << 10, 1.0, 5);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 1e-3, 1e-3, 3);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Ec.run(comm, local, &params),
                exact_global_counts(comm, local),
            )
        });
        let (result, exact) = &out.results[0];
        assert!(result.exact_counts);
        for &(key, count) in &result.items {
            assert_eq!(count, exact[&key], "key {key} must be counted exactly");
        }
    }

    #[test]
    fn finds_the_true_top_k_on_zipf_inputs() {
        let p = 4;
        let parts = zipf_parts(p, 20_000, 1 << 12, 1.1, 11);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 1e-3, 1e-3, 17);
        let out = run_spmd(p, move |comm| {
            let local = &parts_ref[comm.rank()];
            (
                Algorithm::Ec.run(comm, local, &params),
                exact_global_counts(comm, local),
            )
        });
        let n: u64 = parts.iter().map(|v| v.len() as u64).sum();
        let (result, exact) = &out.results[0];
        let err = relative_error(exact, &result.keys(), n);
        assert!(err <= 1e-3, "relative error {err}");
        // On a Zipf input with a strong slope EC virtually always nails the
        // exact answer; verify at least the clear leaders.
        assert_eq!(result.items[0].0, 1);
        assert_eq!(result.items[1].0, 2);
    }

    #[test]
    fn all_pes_report_the_same_answer() {
        let p = 3;
        let parts = zipf_parts(p, 5_000, 256, 1.0, 23);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(5, 5e-3, 1e-2, 29);
        let out = run_spmd(p, move |comm| {
            Algorithm::Ec.run(comm, &parts_ref[comm.rank()], &params)
        });
        assert!(out.results.iter().all(|r| r.items == out.results[0].items));
    }

    #[test]
    fn empty_input_returns_empty_result() {
        let params = FrequentParams::new(4, 1e-2, 1e-2, 0);
        let out = run_spmd(2, move |comm| Algorithm::Ec.run(comm, &[], &params));
        assert!(out.results.iter().all(|r| r.items.is_empty()));
    }

    #[test]
    fn strict_accuracy_keeps_communication_small_for_ec() {
        // The Figure-8 scenario in miniature: ε so small that PAC is forced
        // to sample everything, while EC's communication stays sublinear in
        // the local input (it is bounded by the number of *distinct* keys it
        // has to identify and count, not by the input size).
        let p = 4;
        let per_pe = 150_000usize;
        let parts = zipf_parts(p, per_pe, 1 << 12, 1.0, 41);
        let parts_ref = parts.clone();
        let params = FrequentParams::new(8, 1e-6, 1e-6, 43);
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = Algorithm::Ec.run(comm, &parts_ref[comm.rank()], &params);
            comm.stats_snapshot().since(&before).bottleneck_words()
        });
        for &words in &out.results {
            assert!(words < (per_pe / 4) as u64, "EC moved {words} words");
        }
    }
}
