//! Integration pins for the cost-model planner (`topk::planner`).
//!
//! Three properties carry the dispatch layer:
//!
//! 1. **Bounded regret** — across a quick-scale grid of (n, k, p, skew)
//!    cells, the planner's pick never moves more than 1.05× the measured
//!    bottleneck words/PE of the empirically best algorithm for that cell.
//!    PAC is the measured argmin in 9 of the 12 cells and EC in 3 (s = 0.8,
//!    n/p = 2048), and the planner picks the argmin in every cell (1.00×):
//!    it prices the hash table on the route the code takes, direct delivery
//!    charged for the `p − 1` shares a PE sends.  The bound leaves room for
//!    a close call, not for a misranking.
//! 2. **Determinism across backends, at one collective** — the plan derived
//!    from the data (and its `explain()` rendering) is identical on every PE
//!    of every backend, because `plan_for_data` sums `n` and the per-PE Zipf
//!    fits in one integer all-reduction, and that reduction is all the
//!    planning step sends.
//! 3. **Exact start-ups** — the model charges every collective and merge
//!    round each algorithm runs, so on fig7's quick input, on both sides of
//!    the hash table's routing rule, and on an input where PEC samples (both
//!    of its branches) every algorithm's predicted start-ups equal the
//!    metered ones.

use proptest::prelude::*;
use topk_selection::commsim::StatsSnapshot;
use topk_selection::datagen::Zipf;
use topk_selection::prelude::*;
use topk_selection::seqkit::skew::fit_zipf_exponent;
use topk_selection::topk::planner::{self, Algorithm, Plan, PlanInputs};

fn zipf_input(universe: usize, exponent: f64, seed: u64, rank: usize, per_pe: usize) -> Vec<u64> {
    use rand::SeedableRng;
    let zipf = Zipf::new(universe, exponent);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + rank as u64);
    zipf.sample_many(per_pe, &mut rng)
}

/// Measured bottleneck words/PE of one algorithm on one grid cell.
fn measure_fixed(algo: Algorithm, p: usize, per_pe: usize, exponent: f64, k: usize) -> u64 {
    let params = FrequentParams::new(k, 0.02, 1e-3, 0x9F1D);
    let out = run_spmd_seq(p, move |comm| {
        let local = zipf_input(1 << 14, exponent, 0x9F1D00, comm.rank(), per_pe);
        let before = comm.stats_snapshot();
        let _ = algo.run(comm, &local, &params);
        comm.stats_snapshot().since(&before).bottleneck_words()
    });
    out.results.into_iter().max().unwrap()
}

#[test]
fn the_planned_pick_stays_within_bounded_factor_of_the_empirical_argmin() {
    // Quick-scale grid: every cell runs all five algorithms plus the planner.
    // p = 1 is excluded — all algorithms are communication-free there.
    for &p in &[2usize, 4, 8] {
        for &per_pe in &[1usize << 9, 1 << 11] {
            for &exponent in &[0.8f64, 1.3] {
                let k = 16;
                let best = Algorithm::ALL
                    .iter()
                    .map(|&a| measure_fixed(a, p, per_pe, exponent, k))
                    .min()
                    .unwrap();

                let out = run_spmd_seq(p, move |comm| {
                    let local = zipf_input(1 << 14, exponent, 0x9F1D00, comm.rank(), per_pe);
                    let plan = planner::plan_for_data(comm, &local, k, 0.02, 1e-3);
                    let (_, audit) = plan.execute(comm, &local, 0x9F1D);
                    (plan.algorithm, audit)
                });
                let (picked, audit) = out.results.into_iter().next().unwrap();
                // The audit's measurement is the same metering window the
                // fixed runs used, so the regret bound reads off it.
                assert!(
                    audit.measured_words as f64 <= 1.05 * best as f64,
                    "cell p={p} per_pe={per_pe} s={exponent}: planner picked {picked:?} \
                     moving {} words/PE, empirical best is {best} (bound 1.05x)",
                    audit.measured_words
                );
            }
        }
    }
}

#[test]
fn every_planned_execution_emits_its_audit_row() {
    let (p, per_pe) = (4usize, 1usize << 10);
    let out = run_spmd_seq(p, move |comm| {
        let local = zipf_input(1 << 14, 1.0, 0xA0D1, comm.rank(), per_pe);
        let plan = planner::plan_for_data(comm, &local, 8, 0.03, 1e-3);
        let (_, audit) = plan.execute(comm, &local, 0xA0D1);
        (plan.algorithm, audit)
    });
    for (algorithm, audit) in &out.results {
        assert_eq!(
            (audit.algorithm, audit.p, audit.n, audit.k),
            (*algorithm, p, (p * per_pe) as u64, 8)
        );
        // The row renders every exact (integer) field as it was metered.
        let line = audit.audit_line();
        let head = format!("plan-audit algo={} p=4 n=4096 k=8 ", algorithm.token());
        assert!(line.starts_with(&head), "{line}");
        let measured = [
            format!(" meas_words={} ", audit.measured_words),
            format!(" meas_startups={} ", audit.measured_startups),
        ];
        assert!(measured.iter().all(|field| line.contains(field)), "{line}");
    }
    // All PEs agree on the audit (prediction and world-bottleneck measure).
    assert!(out.results.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn plans_and_explanations_are_identical_across_all_three_backends() {
    let (p, per_pe) = (4usize, 1usize << 10);
    let reference = run_spmd(p, move |comm| plan_body(comm, per_pe))
        .results
        .swap_remove(0);
    for backend in Backend::ALL {
        let out = run_on!(backend, World::new(p), move |comm| plan_body(comm, per_pe));
        for (rank, got) in out.fault_free().results.iter().enumerate() {
            assert_eq!(
                got,
                &reference,
                "{} rank {rank}: plan or explanation diverges",
                backend.name()
            );
        }
    }
}

fn plan_body<C: Communicator>(comm: &C, per_pe: usize) -> (Plan, String) {
    let local = zipf_input(1 << 14, 1.1, 0xB0B, comm.rank(), per_pe);
    let plan = planner::plan_for_data(comm, &local, 12, 0.02, 1e-4);
    let explain = plan.explain();
    (plan, explain)
}

fn plan_anywhere<C: Communicator>(
    comm: &C,
    per_pe: usize,
    exponent: f64,
    k: usize,
    seed: u64,
) -> (Plan, String) {
    let local = zipf_input(1 << 13, exponent, seed, comm.rank(), per_pe);
    let plan = planner::plan_for_data(comm, &local, k, 0.03, 1e-3);
    let explain = plan.explain();
    (plan, explain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite pin: for *arbitrary* world sizes, shard sizes, skews and
    /// result sizes, the derived plan and its `explain()` rendering are
    /// deterministic and identical on every PE of all three backends.
    #[test]
    fn prop_plans_are_deterministic_and_backend_independent(
        p in 2usize..6,
        log_per_pe in 6u32..10,
        exponent in 0.5f64..1.6,
        k in 4usize..33,
        seed in 0u64..1_000,
    ) {
        let per_pe = 1usize << log_per_pe;
        let run = |backend| {
            run_on!(backend, World::new(p), move |c| plan_anywhere(c, per_pe, exponent, k, seed))
                .fault_free()
        };
        // The threaded reference runs again in the loop: reruns agree too.
        let reference = run(Backend::Threaded).results.swap_remove(0);
        for backend in Backend::ALL {
            for (rank, got) in run(backend).results.iter().enumerate() {
                prop_assert_eq!(
                    got, &reference,
                    "{} rank {}: plan or explanation diverges", backend.name(), rank
                );
            }
        }
    }
}

/// Each algorithm is planned, pinned to itself from `planner::plan`'s
/// candidates, executed, and its audit's predicted start-ups must equal the
/// metered ones, on Zipf(1.0) inputs with ε = 0.05: fig7's quick input
/// (`fig7 --per-pe 10`: 2^20 values, k = 32, δ = 10⁻⁴) at p = 2 and 4, where
/// the hash table delivers directly, and at p = 16, where it routes over the
/// hypercube — PEC's coarse sample is the whole input and its counts are
/// exact at all three — and 2^13 elements per PE over 2^14 values at p = 4
/// with k = 4, δ = 10⁻², where PEC samples about two thirds of the input and
/// counts its candidates.
#[test]
fn predicted_startups_equal_the_metered_ones_for_every_algorithm() {
    // (p, elements per PE, values, k, δ, PEC samples the whole input)
    let inputs = [
        (2usize, 1usize << 10, 1usize << 20, 32usize, 1e-4, true),
        (4, 1 << 10, 1 << 20, 32, 1e-4, true),
        (4, 1 << 13, 1 << 14, 4, 1e-2, false),
        (16, 1 << 10, 1 << 20, 32, 1e-4, true),
    ];
    for (p, per_pe, universe, k, delta, whole) in inputs {
        let out = run_spmd_seq(p, |comm| {
            let local = zipf_input(universe, 1.0, 0xF17_0000, comm.rank(), per_pe);
            let plan = planner::plan_for_data(comm, &local, k, 0.05, delta);
            let audits = Algorithm::ALL.map(|algorithm| {
                let pinned = Plan {
                    algorithm,
                    ..plan.clone()
                };
                let audit = pinned.execute(comm, &local, 0xF17).1;
                // The audit carries the pinned algorithm's own prediction.
                assert_eq!(audit.predicted, pinned.chosen().predicted);
                audit
            });
            (plan, audits)
        });
        let (plan, audits) = &out.results[0];
        let pec = &plan.candidates[2];
        assert_eq!(pec.algorithm, Algorithm::Pec);
        assert_eq!(pec.sample_target == (p * per_pe) as u64, whole, "p={p}");
        for audit in audits {
            assert_eq!(
                audit.predicted.startups,
                audit.measured_startups as f64,
                "p={p}: {}",
                audit.audit_line()
            );
        }
    }
}

/// Planning from data costs one all-reduction: the global `n` and the three
/// sums the fitted Zipf model is combined from.  On threads and on the inline
/// driver, every PE's metered traffic in `plan_for_data` equals that of one
/// hand-made `allreduce_vec_sum` of the same four entries, and the plan is
/// the pure `planner::plan` of the fit those entries give.
#[test]
fn plan_for_data_is_one_all_reduction() {
    fn body<C: Communicator>(comm: &C) -> (StatsSnapshot, StatsSnapshot, Plan, Plan) {
        let (k, epsilon, delta) = (8, 0.02, 1e-3);
        let per_pe = 700 + 300 * comm.rank();
        let local = zipf_input(1 << 12, 1.1, 0x0A11, comm.rank(), per_pe);

        let before = comm.stats_snapshot();
        let planned = planner::plan_for_data(comm, &local, k, epsilon, delta);
        let planning = comm.stats_snapshot().since(&before);

        let before = comm.stats_snapshot();
        let fit = fit_zipf_exponent(&local, 1 << 16);
        let exponent = (fit.exponent * 1e6).round() as u64;
        let sums = comm.allreduce_vec_sum(vec![
            local.len() as u64,
            fit.sampled,
            exponent * fit.sampled,
            fit.universe * fit.sampled,
        ]);
        let by_hand = comm.stats_snapshot().since(&before);
        let expected = planner::plan(PlanInputs {
            n: sums[0],
            k,
            p: comm.size(),
            epsilon,
            delta,
            zipf_exponent: (sums[2] as f64 / sums[1] as f64) / 1e6,
            universe: (sums[3] / sums[1]).max(1),
        });
        (planning, by_hand, planned, expected)
    }
    for p in [2usize, 3, 5] {
        for (driver, results) in [
            ("threads", run_spmd(p, body).results),
            ("inline", run_spmd_seq(p, body).results),
        ] {
            for (rank, (planning, by_hand, planned, expected)) in results.iter().enumerate() {
                assert_eq!(planning, by_hand, "{driver} p={p} rank {rank}");
                assert_eq!(planned, expected, "{driver} p={p} rank {rank}");
                assert_eq!(planned.inputs.n, (700 * p + 150 * p * (p - 1)) as u64);
            }
        }
    }
}
