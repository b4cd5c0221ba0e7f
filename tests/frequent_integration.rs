//! Cross-crate integration tests for the frequent-objects, sum-aggregation
//! and multicriteria algorithms (paper §6–§8) on the workloads of the
//! evaluation section.

use topk_selection::prelude::*;
use topk_selection::seqkit::hashagg::{count_keys, top_k_by_key};
use topk_selection::seqkit::threshold::exhaustive_top_k;
use topk_selection::seqkit::ScoreList;
use topk_selection::topk::frequent::{absolute_error, exact_global_counts, relative_error};
use topk_selection::topk::TopKFrequentResult;

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
    let mut truth: Vec<(u64, u64)> = exact.iter().map(|(&key, &c)| (key, c)).collect();
    top_k_by_key(&mut truth, k, |&(key, count)| (count, key));
    let truth: Vec<u64> = truth.into_iter().map(|(key, _)| key).collect();
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
        let rdta = rdta_top_k(comm, &local, &additive, k);
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

/// Which PE of `p` owns an object.
type Owner = fn(u64, usize) -> usize;

/// Objects with their aggregate scores, best first.
type Ranking = Vec<(u64, f64)>;

/// PE `owner(object, p)`'s share of `lists`: its objects, in every list.
fn place(lists: &[ScoreList], p: usize, owner: Owner) -> Vec<Vec<ScoreList>> {
    (0..p)
        .map(|pe| {
            lists
                .iter()
                .map(|list| {
                    ScoreList::new(list.iter().filter(|&(o, _)| owner(o, p) == pe).collect())
                })
                .collect()
        })
        .collect()
}

/// Round-robin placement, the generator's own.
fn round_robin(object: u64, p: usize) -> usize {
    object as usize % p
}

/// Half the objects on PE 0, a quarter on PE 1, …: most PEs of a large
/// world hold nothing.
fn halving(object: u64, p: usize) -> usize {
    ((object + 1).trailing_zeros() as usize).min(p - 1)
}

/// DTA's and RDTA's answers on every PE of a `p`-PE world on `backend`.
fn run_both(backend: Backend, per_pe: Vec<Vec<ScoreList>>, k: usize) -> Vec<(Ranking, Ranking)> {
    let additive = MulticriteriaWorkload::additive_score;
    run_on!(
        backend,
        World::new(per_pe.len()).with_workers(2),
        move |comm| {
            let local = LocalMulticriteria::new(per_pe[comm.rank()].clone());
            let dta = dta_top_k(comm, &local, &additive, k, 5);
            let rdta = rdta_top_k(comm, &local, &additive, k);
            (dta.items, rdta.items)
        }
    )
    .fault_free()
    .results
}

/// DTA and RDTA return the oracle's answer — ids, scores and order — on
/// every PE, for every world size, placement, shape and `k`, on threads, the
/// replay engine's pool and its inline driver.  The shapes include RDTA's
/// hard cases: independent criteria, where a PE's unreported objects can
/// score above its TA threshold (1 000 objects, m = 2, p = 4, k = 32 lost
/// object 772 to 117 when RDTA verified against the thresholds), and a
/// placement that leaves most PEs empty.
#[test]
fn multicriteria_algorithms_match_the_oracle_across_worlds_shapes_and_backends() {
    let additive = MulticriteriaWorkload::additive_score;
    let shapes: [(MulticriteriaWorkload, Owner); 4] = [
        (MulticriteriaWorkload::new(1000, 2, 0.0, 100), round_robin),
        (MulticriteriaWorkload::new(300, 3, 0.6, 11), round_robin),
        (MulticriteriaWorkload::new(400, 1, 0.5, 5), round_robin),
        (MulticriteriaWorkload::new(600, 3, 0.3, 7), halving),
    ];
    for (workload, owner) in &shapes {
        let lists = workload.global_lists();
        for k in [1, 5, 32, 100] {
            let want = exhaustive_top_k(&lists, additive, k);
            for p in [1, 2, 3, 4, 5, 8, 16] {
                let per_pe = place(&lists, p, *owner);
                for backend in Backend::ALL {
                    for (rank, (dta, rdta)) in
                        run_both(backend, per_pe.clone(), k).iter().enumerate()
                    {
                        let case = format!("{workload:?} p={p} k={k} {backend:?} PE {rank}");
                        assert_eq!(dta, &want, "DTA, {case}");
                        assert_eq!(rdta, &want, "RDTA, {case}");
                    }
                }
            }
        }
    }
}

/// Scores of eight levels tie everywhere: the distributed algorithms, TA
/// and the oracle keep the same ids, the larger ones at a tie.  Kept small:
/// on tied lists every flexible-`k` cut runs to its round cap, and the
/// replay engine re-executes a PE once per blocking receive.
#[test]
fn multicriteria_ties_keep_the_larger_ids_everywhere() {
    let additive = MulticriteriaWorkload::additive_score;
    let lists: Vec<ScoreList> = MulticriteriaWorkload::new(60, 2, 0.5, 41)
        .global_lists()
        .iter()
        .map(|list| ScoreList::new(list.iter().map(|(o, s)| (o, (s * 8.0).ceil())).collect()))
        .collect();
    for k in [1, 7, 30] {
        let want = exhaustive_top_k(&lists, additive, k);
        assert!(want.windows(2).all(|w| w[0].1 > w[1].1 || w[0].0 > w[1].0));
        assert_eq!(ThresholdAlgorithm::new(&lists, additive).run(k).top_k, want);
        for (backend, p) in [
            (Backend::Threaded, 1),
            (Backend::Threaded, 4),
            (Backend::Mux, 2),
        ] {
            for (dta, rdta) in run_both(backend, place(&lists, p, round_robin), k) {
                assert_eq!(dta, want, "DTA, p={p} k={k} {backend:?}");
                assert_eq!(rdta, want, "RDTA, p={p} k={k} {backend:?}");
            }
        }
    }
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

/// FNV-1a over words: a compact, order-sensitive digest.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a §7 result: the sample size, the exactness flag, the
/// length and the items.
fn result_digest(result: &TopKFrequentResult) -> u64 {
    let head = [
        result.sample_size,
        u64::from(result.exact_counts),
        result.items.len() as u64,
    ];
    let items = result.items.iter().flat_map(|&(key, count)| [key, count]);
    fnv1a(head.into_iter().chain(items))
}

/// The sample size rides the hash table's shares (the baselines'
/// shipments), not a reduction of its own: on every engine, at p = 1 to 5
/// and at p = 16, where the table crosses the hypercube, every PE of every
/// algorithm reports the sample size and the result recorded when one sum
/// all-reduction of the PEs' sample lengths computed it.  PEC samples 40 %
/// of this input, so its candidates are its threshold's.
#[test]
fn sample_sizes_ride_the_shares_and_every_result_is_unchanged() {
    // `(sample size, result digest)` per algorithm in `Algorithm::ALL`
    // order: PAC, EC, PEC, Naive, Naive Tree.
    const RECORDED: [(usize, [(u64, u64); 5]); 5] = [
        (
            1,
            [
                (3975, 0x512ab27d83315d68),
                (46, 0x7075fa1c2c3cc79b),
                (15560, 0x336ab091690d86a6),
                (3874, 0x7dfe6fe594401b3e),
                (3874, 0x7dfe6fe594401b3e),
            ],
        ),
        (
            2,
            [
                (3911, 0x555e897ac206dd5b),
                (63, 0xf62e3120988c3206),
                (15471, 0xd3839e4fccf4e3fb),
                (3886, 0x18ece615e0e13a41),
                (3886, 0x18ece615e0e13a41),
            ],
        ),
        (
            3,
            [
                (3899, 0x328bdef6999ad827),
                (64, 0xa357d7a1ce5d65f7),
                (15432, 0x6f68dc79603b8526),
                (3928, 0xede645d16b26ef19),
                (3928, 0xede645d16b26ef19),
            ],
        ),
        (
            5,
            [
                (3872, 0xa501fb05de98c971),
                (70, 0x7c9c01c60c49d1fa),
                (15426, 0xb5605366f5d0b7fc),
                (3904, 0xc0676f0b5826a9ee),
                (3904, 0xc0676f0b5826a9ee),
            ],
        ),
        (
            16,
            [
                (3867, 0xf3689ae8cd39475a),
                (74, 0x2fe16717f4567b11),
                (15355, 0xe5943c8988099c17),
                (3844, 0xb2af29e123dcbe69),
                (3844, 0xb2af29e123dcbe69),
            ],
        ),
    ];
    use rand::SeedableRng;
    let zipf = Zipf::new(1 << 12, 1.0);
    let data = zipf.sample_many(40_000, &mut rand::rngs::StdRng::seed_from_u64(0x42));
    let params = FrequentParams::new(32, 0.1, 0.5, 0x42);
    for (p, recorded) in RECORDED {
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| data.iter().copied().skip(r).step_by(p).collect())
            .collect();
        for (algorithm, (sample_size, digest)) in Algorithm::ALL.into_iter().zip(recorded) {
            let engines = [
                (
                    "threads",
                    run_spmd(p, |comm| algorithm.run(comm, &parts[comm.rank()], &params)).results,
                ),
                (
                    "worker pool",
                    World::new(p)
                        .with_workers(2)
                        .mux(|comm| algorithm.run(comm, &parts[comm.rank()], &params))
                        .fault_free()
                        .results,
                ),
                (
                    "inline driver",
                    run_spmd_seq(p, |comm| algorithm.run(comm, &parts[comm.rank()], &params))
                        .results,
                ),
            ];
            for (engine, results) in engines {
                for (rank, result) in results.iter().enumerate() {
                    let at = format!("{algorithm:?} p={p} {engine} rank {rank}");
                    assert_eq!(result.sample_size, sample_size, "{at}: sample size");
                    assert_eq!(result_digest(result), digest, "{at}: result");
                }
            }
        }
    }
}
