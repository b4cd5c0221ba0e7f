//! Integration tests for the workloads subsystem (PR 4):
//!
//! * distributed interning round-trips arbitrary token streams and assigns
//!   ids that are invariant under resharding (property tests);
//! * the whole text pipeline — tokenize → intern → exact counts — produces
//!   identical results no matter how the corpus is split over PEs;
//! * the multi-round bulk-queue scheduler is bit-identical between the
//!   threaded backend (`Comm`) and the replay engine, driven inline
//!   (`World::seq`) and on its worker pool (`World::mux`), **including**
//!   the per-round metered words (which exercises the replay engine's
//!   per-execution counter reset) and every PE's message and word counters;
//! * mid-closure phase metering of the frequent-objects algorithms agrees
//!   between backends and across repeated runs;
//! * the §7 error-metric regression case from the issue.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use topk_selection::commsim::WorldStats;
use topk_selection::datagen::text::BASE_WORDS;
use topk_selection::datagen::TextCorpus;
use topk_selection::prelude::*;
use topk_selection::topk::frequent::{absolute_error, exact_global_counts};

// ---------------------------------------------------------------------------
// Scheduler: threaded ≡ replay, bit for bit
// ---------------------------------------------------------------------------

#[test]
fn scheduler_is_bit_identical_on_both_backends() {
    let scenarios = [
        (BatchPolicy::Fixed(48), ArrivalPattern::Uniform),
        (BatchPolicy::Fixed(48), ArrivalPattern::Skewed),
        (
            BatchPolicy::Flexible { lo: 24, hi: 48 },
            ArrivalPattern::Skewed,
        ),
        (
            BatchPolicy::Flexible { lo: 24, hi: 48 },
            ArrivalPattern::Bursty {
                period: 2,
                factor: 3,
            },
        ),
    ];
    for (batch, arrival) in scenarios {
        let params = SchedulerParams {
            rounds: 4,
            jobs_per_round: 160,
            batch,
            arrival,
            seed: 0xD15C,
        };
        let threaded = run_spmd(3, |comm| run_scheduler(comm, &params));
        let seq = run_spmd_seq(3, |comm| run_scheduler(comm, &params));
        let mux = World::new(3)
            .mux(|comm| run_scheduler(comm, &params))
            .fault_free();
        // Everything a PE's snapshot meters except `pooled_reuses`, which
        // is the backend's own business.
        let traffic = |stats: &WorldStats| -> Vec<[u64; 4]> {
            stats
                .per_pe()
                .iter()
                .map(|s| {
                    [
                        s.sent_messages,
                        s.sent_words,
                        s.received_messages,
                        s.received_words,
                    ]
                })
                .collect()
        };
        for (name, replay) in [("seq", &seq), ("mux", &mux)] {
            // RoundReport includes the batch contents, backlog *and* the
            // per-round metered words — all must match exactly.
            assert_eq!(
                threaded.results, replay.results,
                "{batch:?}/{arrival:?} diverged between threads and {name}"
            );
            // The selection's pivot keys are per-PE floats: a backend on
            // which they differed would show up first as a different round
            // count, i.e. in the per-PE message counters.
            assert_eq!(
                traffic(&threaded.stats),
                traffic(&replay.stats),
                "{batch:?}/{arrival:?}: per-PE metering differs on {name}"
            );
        }
    }
}

#[test]
fn scheduler_conserves_jobs() {
    let params = SchedulerParams {
        rounds: 5,
        jobs_per_round: 200,
        batch: BatchPolicy::Fixed(70),
        arrival: ArrivalPattern::Skewed,
        seed: 1,
    };
    let out = run_spmd(4, |comm| run_scheduler(comm, &params));
    let arrived: usize = out
        .results
        .iter()
        .map(|o| o.rounds.iter().map(|r| r.arrived).sum::<usize>())
        .sum();
    let completed: usize = out.results.iter().map(|o| o.completed_total).sum();
    let backlog = out.results[0].rounds.last().unwrap().backlog;
    assert_eq!(arrived, params.rounds * params.jobs_per_round);
    assert_eq!(arrived, completed + backlog as usize);
}

// ---------------------------------------------------------------------------
// Text pipeline: phase metering agrees between backends and across runs
// ---------------------------------------------------------------------------

#[test]
fn text_pipeline_phase_metering_is_identical_across_backends_and_runs() {
    let corpus = TextCorpus::new(400, 1.05, 0xFACE);
    let tokens: Vec<Vec<String>> = (0..4)
        .map(|r| tokenize(&corpus.shard_text(r, 1500)))
        .collect();
    let params = FrequentParams::new(8, 0.05, 1e-3, 99);
    for algo in TextAlgorithm::ALL {
        let run_threaded = || {
            run_spmd(4, |comm| {
                let shard = distributed_intern(comm, &tokens[comm.rank()]);
                let before = comm.stats_snapshot();
                let result = algo.run(comm, &shard.ids, &params);
                let words = comm.stats_snapshot().since(&before).bottleneck_words();
                (result.items, words)
            })
            .into_results()
        };
        let first = run_threaded();
        let second = run_threaded();
        let seq = run_spmd_seq(4, |comm| {
            let shard = distributed_intern(comm, &tokens[comm.rank()]);
            let before = comm.stats_snapshot();
            let result = algo.run(comm, &shard.ids, &params);
            let words = comm.stats_snapshot().since(&before).bottleneck_words();
            (result.items, words)
        })
        .into_results();
        assert_eq!(
            first,
            second,
            "{}: repeated threaded runs diverged",
            algo.name()
        );
        assert_eq!(first, seq, "{}: backends diverged", algo.name());
    }
}

// ---------------------------------------------------------------------------
// Error metric: the regression case that motivated this PR
// ---------------------------------------------------------------------------

#[test]
fn absolute_error_regression_case_from_the_issue() {
    // Exact {A:16, B:10, C:9}, k = 2, reported [B, C]: the old metric
    // compared against the k-th largest count (10) and reported 1; the
    // paper's definition charges the gap to the best *missed* object:
    // 16 − 9 = 7.
    let counts: HashMap<u64, u64> = [(0, 16), (1, 10), (2, 9)].into_iter().collect();
    assert_eq!(absolute_error(&counts, &[1, 2]), 7);
    // Reported set smaller than k still scores against the complement.
    assert_eq!(absolute_error(&counts, &[1]), 6);
    assert_eq!(absolute_error(&counts, &[]), 16);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Arbitrary per-PE token streams drawn from the embedded word list.
fn token_parts() -> impl Strategy<Value = Vec<Vec<String>>> {
    vec(vec(0usize..48, 0..40), 1..5).prop_map(|parts| {
        parts
            .into_iter()
            .map(|ws| ws.into_iter().map(|i| BASE_WORDS[i].to_string()).collect())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interning_round_trips_every_token(parts in token_parts()) {
        let p = parts.len();
        let out = run_spmd_seq(p, |comm| distributed_intern(comm, &parts[comm.rank()]));
        for (rank, shard) in out.results.iter().enumerate() {
            // Same global vocabulary everywhere, sorted and duplicate-free.
            prop_assert_eq!(&shard.vocab, &out.results[0].vocab);
            prop_assert!(shard.vocab.windows(2).all(|w| w[0] < w[1]));
            // Every token maps to an id that resolves back to the token.
            prop_assert_eq!(shard.ids.len(), parts[rank].len());
            for (token, &id) in parts[rank].iter().zip(&shard.ids) {
                prop_assert_eq!(shard.resolve(id), Some(token.as_str()));
            }
        }
    }

    #[test]
    fn pipeline_counts_are_invariant_under_resharding(
        seed in 0u64..400,
        words in 100usize..500,
    ) {
        // One fixed document…
        let corpus = TextCorpus::new(200, 1.0, seed);
        let text = corpus.shard_text(0, words);
        // …counted through the full pipeline under two different shardings.
        let count_with = |p: usize| {
            let shards = split_text_shards(&text, p);
            let tokens: Vec<Vec<String>> = shards.iter().map(|s| tokenize(s)).collect();
            run_spmd_seq(p, |comm| {
                let shard = distributed_intern(comm, &tokens[comm.rank()]);
                let exact = exact_global_counts(comm, &shard.ids);
                (shard.vocab, exact)
            })
            .into_results()
            .swap_remove(0)
        };
        let (vocab2, counts2) = count_with(2);
        let (vocab4, counts4) = count_with(4);
        // Ids, vocabulary and global counts must not depend on sharding.
        prop_assert_eq!(vocab2, vocab4);
        prop_assert_eq!(counts2, counts4);
    }
}
