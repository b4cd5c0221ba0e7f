//! Cross-crate integration tests for the frequent-objects, sum-aggregation
//! and multicriteria algorithms (paper §6–§8) on the workloads of the
//! evaluation section.

use topk_selection::prelude::*;
use topk_selection::seqkit::hashagg::{count_keys, top_k_by_count};
use topk_selection::topk::frequent::{absolute_error, exact_global_counts, relative_error};

#[test]
fn all_frequent_object_algorithms_respect_the_error_bound_on_zipf_input() {
    let p = 6;
    let per_pe = 30_000;
    let zipf = Zipf::new(1 << 12, 1.0);
    let parts: Vec<Vec<u64>> = (0..p)
        .map(|r| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(1_000 + r as u64);
            zipf.sample_many(per_pe, &mut rng)
        })
        .collect();
    let n = (p * per_pe) as u64;
    let k = 16;
    let params = FrequentParams::new(k, 2e-3, 1e-3, 77);

    let parts_ref = parts.clone();
    let out = run_spmd(p, move |comm| {
        let local = &parts_ref[comm.rank()];
        let exact = exact_global_counts(comm, local);
        let results: Vec<_> = Algorithm::ALL
            .iter()
            .map(|algo| (algo.name(), algo.run(comm, local, &params)))
            .collect();
        (exact, results)
    });
    let (exact, results) = &out.results[0];
    for (name, result) in results {
        let err = relative_error(exact, &result.keys(), n);
        assert!(
            err <= 2e-3,
            "{name}: relative error {err} exceeds the bound"
        );
        assert_eq!(result.items.len(), k, "{name} must report k items");
        // Rank 1 of a Zipf distribution is unmissable.
        assert_eq!(
            result.items[0].0, 1,
            "{name} missed the most frequent object"
        );
    }
}

#[test]
fn exact_counting_algorithms_agree_with_the_oracle_exactly() {
    let p = 4;
    let per_pe = 15_000;
    let zipf = Zipf::new(1 << 10, 1.2);
    let parts: Vec<Vec<u64>> = (0..p)
        .map(|r| {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(2_000 + r as u64);
            zipf.sample_many(per_pe, &mut rng)
        })
        .collect();
    let k = 8;
    let params = FrequentParams::new(k, 1e-4, 1e-3, 3);
    let out = run_spmd(p, move |comm| {
        let local = &parts[comm.rank()];
        let exact = exact_global_counts(comm, local);
        (
            Algorithm::Ec.run(comm, local, &params),
            Algorithm::Pec.run(comm, local, &params),
            exact,
        )
    });
    let (ec, pec, exact) = &out.results[0];
    let truth: Vec<u64> = top_k_by_count(exact, k)
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let sort = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sort(ec.keys()),
        sort(truth.clone()),
        "EC must find the exact top-k here"
    );
    assert_eq!(
        sort(pec.keys()),
        sort(truth),
        "PEC must find the exact top-k here"
    );
    for &(key, count) in ec.items.iter().chain(pec.items.iter()) {
        assert_eq!(count, exact[&key]);
    }
}

/// PEC's guarantee (Lemma 12): every true top-k object clears the candidate
/// threshold of its one sample with probability at least `1 − δ`, and the
/// candidates of that sample are counted exactly, so the answer is the exact
/// top-k.  The sweep runs 300 fixed seeds on `run_spmd_seq`, 50 in each
/// cell of Zipf s ∈ {0.8, 1.0, 1.3} × p ∈ {2, 4} over 2^12 values, with
/// k = 8, ε = 0.01 (so ε₀ = 0.05) and δ = 10⁻³.  At p = 2 a PE holds 2^15
/// elements and PEC samples about half of them (ρ₀ < 1); at p = 4 a PE holds
/// 2^12 and the sample is the whole input (ρ₀ = 1).
///
/// The bound asserted: at most 1 of the 300 answers is inexact (absolute
/// error above 0).  At δ = 10⁻³ the union bound allows 0.3 expected failures;
/// two would happen with probability below 4 % even if it were tight.  Every
/// reported count must equal the oracle's, in every run.
#[test]
fn pec_is_exact_on_a_fixed_seed_sweep_of_both_branches() {
    let mut inexact = Vec::new();
    for (cell, (exponent, p)) in [0.8, 1.0, 1.3]
        .into_iter()
        .flat_map(|s| [(s, 2usize), (s, 4)])
        .enumerate()
    {
        let per_pe = if p == 2 { 1 << 15 } else { 1 << 12 };
        let zipf = Zipf::new(1 << 12, exponent);
        for seed in 0..50u64 {
            let parts: Vec<Vec<u64>> = (0..p)
                .map(|r| {
                    use rand::SeedableRng;
                    let data_seed = (cell as u64) << 32 | seed << 8 | r as u64;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(data_seed);
                    zipf.sample_many(per_pe, &mut rng)
                })
                .collect();
            let exact = count_keys(parts.iter().flatten().copied());
            let params = FrequentParams::new(8, 0.01, 1e-3, seed);
            let out = run_spmd_seq(p, |comm| {
                Algorithm::Pec.run(comm, &parts[comm.rank()], &params)
            });
            let result = &out.results[0];
            for &(key, count) in &result.items {
                assert_eq!(count, exact[&key], "s={exponent} p={p} seed {seed}");
            }
            if absolute_error(&exact, &result.keys()) > 0 {
                inexact.push((exponent, p, seed));
            }
        }
    }
    assert!(inexact.len() <= 1, "inexact top-k in {inexact:?}");
}

#[test]
fn sum_aggregation_matches_the_generators_oracle() {
    let p = 4;
    let gen = WeightedZipfInput::new(2_048, 1.1, 8.0, 5);
    let inputs = gen.generate_all(p, 20_000);
    let expected = WeightedZipfInput::exact_top_k(&inputs, 5);
    let params = FrequentParams::new(5, 1e-3, 1e-3, 9);
    let inputs_ref = inputs.clone();
    let out = run_spmd(p, move |comm| {
        let local = &inputs_ref[comm.rank()];
        (
            sum_top_k(comm, local, &params),
            sum_top_k_exact(comm, local, &params, 64),
        )
    });
    let (approx, exact) = &out.results[0];
    // The exact variant must reproduce the oracle's keys and sums.
    let got: Vec<u64> = exact.keys();
    let want: Vec<u64> = expected.iter().map(|&(key, _)| key).collect();
    assert_eq!(got, want);
    for (&(_, got_sum), &(_, want_sum)) in exact.items.iter().zip(expected.iter()) {
        assert!((got_sum - want_sum).abs() < 1e-6 * want_sum.max(1.0));
    }
    // The sampled variant must at least find the dominant key with a close
    // estimate.
    assert_eq!(approx.items[0].0, expected[0].0);
}

#[test]
fn multicriteria_algorithms_match_the_sequential_threshold_algorithm() {
    let p = 6;
    let workload = MulticriteriaWorkload::new(3_000, 3, 0.5, 33);
    let k = 12;
    let additive = MulticriteriaWorkload::additive_score;

    // Sequential references.
    let global_lists = workload.global_lists();
    let ta = ThresholdAlgorithm::new(&global_lists, additive);
    let ta_top: Vec<u64> = ta.run(k).top_k.into_iter().map(|(o, _)| o).collect();

    let per_pe = workload.local_lists(p);
    let per_pe2 = per_pe.clone();
    let out = run_spmd(p, move |comm| {
        let local = LocalMulticriteria::new(per_pe2[comm.rank()].clone());
        let dta = dta_top_k(comm, &local, &additive, k, 3);
        let rdta = rdta_top_k(comm, &local, &additive, k, 3);
        (dta, rdta)
    });
    let (dta, rdta) = &out.results[0];
    let dta_ids: Vec<u64> = dta.items.iter().map(|&(o, _)| o).collect();
    let rdta_ids: Vec<u64> = rdta.items.iter().map(|&(o, _)| o).collect();
    assert_eq!(dta_ids, ta_top, "DTA must agree with the sequential TA");
    assert_eq!(rdta_ids, ta_top, "RDTA must agree with the sequential TA");
    // All PEs agree with PE 0.
    assert!(out
        .results
        .iter()
        .all(|(d, r)| d.items == dta.items && r.items == rdta.items));
}

#[test]
fn branch_and_bound_application_end_to_end() {
    let instance = KnapsackInstance::random(24, 40, 80, 123);
    let dp = instance.optimum_by_dp();
    let sequential = knapsack_branch_bound_sequential(&instance);
    assert_eq!(sequential.optimum, dp);
    let out = run_spmd(6, move |comm| {
        knapsack_branch_bound_parallel(comm, &instance, 2, 5)
    });
    assert!(out.results.iter().all(|r| r.optimum == dp));
}
