//! Integration pins for the cost-model planner (`topk::planner`).
//!
//! Three properties carry the dispatch layer:
//!
//! 1. **Bounded regret** — across a quick-scale grid of (n, k, p, skew)
//!    cells, the planner's pick never moves more than 1.3× the measured
//!    bottleneck words/PE of the empirically best algorithm for that cell
//!    (worst cell of the grid: 1.004× since aggregates are Rice-coded,
//!    1.15× before, a hypercube fan-out picked where the direct routing
//!    moves fewer words).
//!    The model may misrank close calls; it must not pick a blowout.
//! 2. **Determinism across backends** — the plan derived from the data (and
//!    its `explain()` rendering) is identical on every PE of every backend,
//!    because the skew estimate is combined through one integer allreduce.
//! 3. **Facade bit-identity** — dispatching through [`Algorithm::run`] (the
//!    layer every `--algo <token>` path uses) is bit-identical, results and
//!    metered traffic both, to calling the underlying algorithm directly,
//!    pinning the hand-picked paths to their pre-planner behavior.

use proptest::prelude::*;
use topk_selection::datagen::Zipf;
use topk_selection::prelude::*;
use topk_selection::topk::frequent::{ec::ec_top_k, naive, pac::pac_top_k, pec::pec_top_k};
use topk_selection::topk::planner::{Algorithm, Plan, PlanAudit, Planner};

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
                    let plan = Planner::default().plan_for_data(comm, &local, k, 0.02, 1e-3);
                    let (_, audit) = plan.execute(comm, &local, 0x9F1D);
                    (plan.algorithm, audit)
                });
                let (picked, audit) = out.results.into_iter().next().unwrap();
                // The audit's measurement is the same metering window the
                // fixed runs used, so the regret bound reads off it.
                assert!(
                    audit.measured_words as f64 <= 1.3 * best as f64,
                    "cell p={p} per_pe={per_pe} s={exponent}: planner picked {picked:?} \
                     moving {} words/PE, empirical best is {best} (bound 1.3x)",
                    audit.measured_words
                );
            }
        }
    }
}

#[test]
fn every_planned_execution_emits_a_parseable_audit_row() {
    let (p, per_pe) = (4usize, 1usize << 10);
    let out = run_spmd_seq(p, move |comm| {
        let local = zipf_input(1 << 14, 1.0, 0xA0D1, comm.rank(), per_pe);
        let plan = Planner::default().plan_for_data(comm, &local, 8, 0.03, 1e-3);
        let (_, audit) = plan.execute(comm, &local, 0xA0D1);
        audit
    });
    for audit in &out.results {
        let line = audit.audit_line();
        let parsed = PlanAudit::parse(&line).expect("audit rows must parse");
        // Predictions are rendered to one decimal, so compare the stable
        // rendering: parse-then-render must be idempotent, and every exact
        // (integer) field must survive untouched.
        assert_eq!(
            parsed.audit_line(),
            line,
            "audit line must re-render identically"
        );
        assert_eq!(
            (
                parsed.algorithm,
                parsed.fanout,
                parsed.p,
                parsed.n,
                parsed.k
            ),
            (audit.algorithm, audit.fanout, audit.p, audit.n, audit.k)
        );
        assert_eq!(
            (parsed.measured_words, parsed.measured_startups),
            (audit.measured_words, audit.measured_startups)
        );
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
    let plan = Planner::default().plan_for_data(comm, &local, 12, 0.02, 1e-4);
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
    let plan = Planner::default().plan_for_data(comm, &local, k, 0.03, 1e-3);
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

#[test]
fn fixed_dispatch_is_bit_identical_to_direct_algorithm_calls() {
    let (p, per_pe) = (4usize, 1usize << 10);
    let params = FrequentParams::new(16, 0.02, 1e-3, 0xD15);
    for algo in Algorithm::ALL {
        let via_facade = run_spmd_seq(p, move |comm| {
            let local = zipf_input(1 << 14, 1.0, 0xD150, comm.rank(), per_pe);
            let before = comm.stats_snapshot();
            let r = algo.run(comm, &local, &params);
            let delta = comm.stats_snapshot().since(&before);
            (r, delta.sent_words, delta.sent_messages)
        });
        let direct = run_spmd_seq(p, move |comm| {
            let local = zipf_input(1 << 14, 1.0, 0xD150, comm.rank(), per_pe);
            let before = comm.stats_snapshot();
            let r = match algo {
                Algorithm::Pac => pac_top_k(comm, &local, &params),
                Algorithm::Ec => ec_top_k(comm, &local, &params),
                Algorithm::Pec => {
                    let e0 = (params.epsilon * 20.0).min(0.05);
                    pec_top_k(comm, &local, &params, e0)
                }
                Algorithm::Naive => naive::naive_top_k(comm, &local, &params),
                Algorithm::NaiveTree => naive::naive_tree_top_k(comm, &local, &params),
            };
            let delta = comm.stats_snapshot().since(&before);
            (r, delta.sent_words, delta.sent_messages)
        });
        assert_eq!(
            via_facade.results, direct.results,
            "{algo:?}: the Algorithm::run facade must be bit-identical to the direct call"
        );
    }
}
