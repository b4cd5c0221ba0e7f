//! End-to-end pins for the streaming top-k service.
//!
//! Two properties carry the subsystem:
//!
//! 1. **Backend equivalence** — the service's *per-batch* metered traffic
//!    (not just run totals) is bit-identical on the threaded, seq and mux
//!    backends, under full non-stationarity (topic drift + a flash-crowd
//!    burst).  This is what lets EXPERIMENTS.md's staleness/words-per-item
//!    tables cite one backend and mean all three.
//! 2. **Oracle accuracy** — the published sliding-window top-k counts stay
//!    within the merged Misra–Gries error bound of the brute-force window
//!    counts recomputed from the (deterministic) stream itself.

use topk_selection::datagen::{FlashCrowd, StreamProfile, TextCorpus};
use topk_selection::prelude::*;
use topk_selection::topk::frequent::dht;
use topk_selection::workloads::{world_report, BatchReport, StreamReport};

fn corpus() -> TextCorpus {
    TextCorpus::new(600, 1.05, 2024)
}

fn profile() -> StreamProfile {
    StreamProfile {
        drift_every: 5,
        drift_step: 40,
        burst: Some(FlashCrowd {
            start: 9,
            len: 4,
            rank: 250,
            intensity: 0.4,
        }),
    }
}

fn config() -> StreamConfig {
    StreamConfig {
        k: 8,
        window: 4,
        sketch_capacity: 48,
        refresh_every: 3,
        words_per_batch: 250,
        seed: 0xBEEF,
        replication: 0,
        query_lambda: 4.0,
    }
}

/// A run summary without its traffic fields, which are each PE's own: the
/// part every PE must agree on.
fn non_traffic(report: &StreamReport) -> StreamReport {
    StreamReport {
        total_bottleneck_words: 0,
        words_per_item: 0.0,
        total_replication_words: 0,
        ..report.clone()
    }
}

/// One PE's full service run; returns everything the driver can observe.
fn service_body<C: Communicator>(
    comm: &C,
    batches: usize,
) -> (Vec<BatchReport>, Vec<(String, u64)>, StreamReport) {
    let corpus = corpus();
    let profile = profile();
    let mut service = StreamService::new(config());
    for _ in 0..batches {
        service.ingest_batch(comm, &corpus, &profile);
    }
    (
        service.batch_reports().to_vec(),
        service.serving_topk().to_vec(),
        service.report(),
    )
}

#[test]
fn streaming_traffic_is_bit_identical_across_all_three_backends() {
    let (p, batches) = (4usize, 20usize);
    let threaded = run_spmd(p, move |comm| service_body(comm, batches));
    for backend in [Backend::Seq, Backend::Mux] {
        let name = backend.name();
        let out = run_on!(backend, World::new(p), move |comm| service_body(
            comm, batches
        ));
        for rank in 0..p {
            let (tb, tt, tr) = &threaded.results[rank];
            let (ob, ot, or) = out.results[rank].as_ref().expect("fault-free");
            // Per-batch reports carry this PE's sent words/messages and its
            // bottleneck for every batch — all must match exactly.
            assert_eq!(tb, ob, "{name} rank {rank}: per-batch reports diverge");
            assert_eq!(tt, ot, "{name} rank {rank}: published top-k diverges");
            // The summary covers the scored query stream: routed and
            // answered counts, staleness and latency percentiles.
            assert_eq!(tr, or, "{name} rank {rank}: run summary diverges");
            // The raw transport counters agree too (not just the service's
            // view).
            let (t, o) = (threaded.stats.pe(rank), out.stats.pe(rank));
            assert_eq!(
                (t.sent_messages, t.sent_words),
                (o.sent_messages, o.sent_words),
                "{name} rank {rank}: transport counters diverge"
            );
        }
    }
}

/// A batch meters itself without a collective: at `replication = 0` a plain
/// batch sends and receives only its vocabulary all-gather's messages, and a
/// refresh adds the hash table's all-to-all and the merge's `⌈log₂ p⌉`
/// rounds, nothing else — on every PE, at p = 1 to 9 (9 crosses the
/// hypercube).
#[test]
fn a_plain_batch_sends_only_its_allgather_and_a_refresh_its_table_and_merge() {
    for p in [1usize, 2, 3, 5, 9] {
        let rounds = u64::from(p.next_power_of_two().trailing_zeros());
        let out = run_spmd_seq(p, |comm| {
            let messages = |before: topk_selection::commsim::StatsSnapshot| {
                let delta = comm.stats_snapshot().since(&before);
                (delta.sent_messages, delta.received_messages)
            };
            let before = comm.stats_snapshot();
            comm.allgather(Vec::<String>::new());
            let allgather = messages(before);
            let before = comm.stats_snapshot();
            dht::aggregate_counts(comm, Default::default());
            let table = messages(before);
            let (corpus, profile) = (corpus(), profile());
            let mut service = StreamService::new(config());
            let batches: Vec<(bool, (u64, u64))> = (0..7)
                .map(|_| {
                    let before = comm.stats_snapshot();
                    let refreshed = service.ingest_batch(comm, &corpus, &profile).refreshed;
                    (refreshed, messages(before))
                })
                .collect();
            (allgather, table, batches)
        });
        for (rank, (allgather, table, batches)) in out.results.iter().enumerate() {
            let refresh = (
                allgather.0 + table.0 + rounds,
                allgather.1 + table.1 + rounds,
            );
            for (batch, &(refreshed, messages)) in batches.iter().enumerate() {
                let want = if refreshed { refresh } else { *allgather };
                assert_eq!(messages, want, "p={p} rank {rank} batch {batch}");
            }
            assert!(batches.iter().filter(|(refreshed, _)| *refreshed).count() == 3);
        }
    }
}

#[test]
fn published_window_counts_match_the_brute_force_oracle_within_bound() {
    let (p, batches) = (4usize, 14usize);
    let out = run_spmd_seq(p, move |comm| service_body(comm, batches));
    let (_, topk, _) = &out.results[0];
    assert!(!topk.is_empty(), "the service must have published a top-k");

    // The final publish happened at the last refresh batch; recompute the
    // exact global window counts over the batches its window covered.
    let cfg = config();
    let last_refresh = ((batches - 1) / cfg.refresh_every) * cfg.refresh_every;
    let window_start = (last_refresh + 1).saturating_sub(cfg.window);
    let corpus = corpus();
    let profile = profile();
    let mut exact: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for rank in 0..p {
        for batch in window_start..=last_refresh {
            for word in corpus.stream_batch_words(&profile, rank, batch, cfg.words_per_batch) {
                *exact.entry(word.to_string()).or_insert(0) += 1;
            }
        }
    }

    // Each PE's merged-window error is bounded by its window item count /
    // (capacity + 1); the published count sums p under-estimates.
    let window_batches = last_refresh - window_start + 1;
    let per_pe_bound =
        (window_batches * cfg.words_per_batch) as u64 / (cfg.sketch_capacity as u64 + 1);
    let global_bound = per_pe_bound * p as u64;
    for (word, published) in topk {
        let truth = exact.get(word).copied().unwrap_or(0);
        assert!(
            *published <= truth,
            "{word}: published {published} exceeds exact window count {truth}"
        );
        assert!(
            truth - published <= global_bound,
            "{word}: error {} exceeds the sketch bound {global_bound}",
            truth - published
        );
    }

    // And the published list must actually contain the true hottest word of
    // the window (its margin dwarfs the sketch error at these settings).
    let hottest = exact
        .iter()
        .max_by_key(|&(w, c)| (c, std::cmp::Reverse(w.clone())))
        .map(|(w, _)| w.clone())
        .unwrap();
    assert!(
        topk.iter().any(|(w, _)| *w == hottest),
        "true hottest window word {hottest:?} missing from published top-k {topk:?}"
    );
}

#[test]
fn streaming_on_a_mux_worker_pool_matches_seq() {
    // The never-terminating workload squeezed through a 2-worker pool: the
    // cooperative scheduler must not perturb a single metered word.  The
    // threaded run is the reference (the pool and the inline driver share
    // one replay engine); the inline run rides along.
    let (p, batches) = (4usize, 10usize);
    let threaded = run_spmd(p, move |comm| service_body(comm, batches));
    let seq = run_spmd_seq(p, move |comm| service_body(comm, batches));
    let mux = World::new(p)
        .with_workers(2)
        .mux(move |comm| service_body(comm, batches))
        .fault_free();
    for (driver, out) in [("worker pool", &mux), ("inline driver", &seq)] {
        assert_eq!(threaded.results, out.results, "{driver}");
        for rank in 0..p {
            let t = threaded.stats.pe(rank);
            let o = out.stats.pe(rank);
            assert_eq!(
                (
                    t.sent_messages,
                    t.sent_words,
                    t.received_messages,
                    t.received_words
                ),
                (
                    o.sent_messages,
                    o.sent_words,
                    o.received_messages,
                    o.received_words
                ),
                "rank {rank} traffic diverges under the {driver}"
            );
        }
    }
}

/// Batches of the golden-value run: refreshes at 0, 4, 8 and 12, the last
/// one inside the flash-crowd burst.
const GOLDEN_BATCHES: usize = 14;

/// Per PE and batch of the golden-value run: the words and messages the PE
/// sent, and the world bottleneck words — the maximum of the PEs' own,
/// folded over the ranks.  A refresh batch sends the DHT share and one top-k
/// merge message (p = 2: one round).  The snapshots
/// were recorded when the refresh still ran the §4.1 selection and a
/// winners' all-gather; the merge publishes the same ones.  The traffic was
/// re-recorded when `KeyCounts` became one bit stream, and when a share
/// began to carry its keys' quotients (`key / p`) instead of the keys.
const GOLDEN_TRAFFIC: [[(u64, u64, u64); GOLDEN_BATCHES]; 2] = [
    [
        (535, 3, 578),
        (157, 1, 157),
        (54, 1, 72),
        (24, 1, 26),
        (32, 3, 32),
        (26, 1, 26),
        (2, 1, 6),
        (2, 1, 5),
        (16, 3, 16),
        (2, 1, 6),
        (2, 1, 4),
        (2, 1, 4),
        (16, 3, 16),
        (4, 1, 4),
    ],
    [
        (578, 3, 578),
        (121, 1, 157),
        (72, 1, 72),
        (26, 1, 26),
        (25, 3, 32),
        (14, 1, 26),
        (6, 1, 6),
        (5, 1, 5),
        (15, 3, 16),
        (6, 1, 6),
        (4, 1, 4),
        (4, 1, 4),
        (15, 3, 16),
        (2, 1, 4),
    ],
];

/// The snapshot each refresh of the golden-value run published (see
/// [`GOLDEN_TRAFFIC`] for when it was recorded).
const GOLDEN_SNAPSHOTS: [(usize, [(&str, u64); 10]); 4] = [
    (
        0,
        [
            ("the", 324),
            ("of", 152),
            ("and", 103),
            ("to", 64),
            ("in", 43),
            ("is", 32),
            ("he", 22),
            ("was", 21),
            ("for", 15),
            ("it", 12),
        ],
    ),
    (
        4,
        [
            ("the", 1578),
            ("of", 700),
            ("and", 455),
            ("to", 311),
            ("in", 220),
            ("is", 169),
            ("was", 107),
            ("for", 83),
            ("he", 79),
            ("it", 70),
        ],
    ),
    (
        8,
        [
            ("when", 1258),
            ("the", 1250),
            ("who", 548),
            ("of", 544),
            ("and", 348),
            ("will", 337),
            ("to", 243),
            ("more", 204),
            ("in", 173),
            ("no", 161),
        ],
    ),
    (
        12,
        [
            ("several", 3171),
            ("when", 1435),
            ("who", 630),
            ("made", 555),
            ("will", 386),
            ("after", 247),
            ("more", 234),
            ("no", 179),
            ("if", 151),
            ("also", 131),
        ],
    ),
];

/// One PE's golden-value run: the default config (sketch capacity 64, so
/// at p = 2 the global aggregate is at most 128 keys) under drift and a
/// burst.  Per batch: the batch report and the snapshot served after it.
fn golden_body<C: Communicator>(comm: &C) -> Vec<(BatchReport, Vec<(String, u64)>)> {
    let corpus = corpus();
    let profile = profile();
    let mut service = StreamService::new(StreamConfig {
        seed: 0xBEEF,
        ..StreamConfig::default()
    });
    (0..GOLDEN_BATCHES)
        .map(|_| {
            let report = service.ingest_batch(comm, &corpus, &profile).clone();
            (report, service.serving_topk().to_vec())
        })
        .collect()
}

#[test]
fn refreshes_match_the_golden_values_on_every_engine() {
    let threaded = run_spmd(2, golden_body);
    let inline = run_spmd_seq(2, golden_body);
    let pool = World::new(2).with_workers(2).mux(golden_body).fault_free();
    for (engine, out) in [
        ("threads", &threaded),
        ("inline driver", &inline),
        ("worker pool", &pool),
    ] {
        // Each batch's busiest PE.
        let world_words = |batch: usize| {
            let pes = out.results.iter().map(|batches| &batches[batch].0);
            pes.map(|report| report.bottleneck_words).max().unwrap()
        };
        for (rank, batches) in out.results.iter().enumerate() {
            let mut golden_snapshots = GOLDEN_SNAPSHOTS.iter().peekable();
            let mut published: &[(&str, u64)] = &[];
            for (batch, (report, snapshot)) in batches.iter().enumerate() {
                let traffic = (report.sent_words, report.sent_messages, world_words(batch));
                assert_eq!(
                    traffic, GOLDEN_TRAFFIC[rank][batch],
                    "{engine} rank {rank} batch {batch}: traffic"
                );
                if let Some((_, golden)) = golden_snapshots.next_if(|(b, _)| *b == batch) {
                    assert!(report.refreshed);
                    published = golden;
                }
                let snapshot: Vec<(&str, u64)> =
                    snapshot.iter().map(|(w, c)| (w.as_str(), *c)).collect();
                assert_eq!(
                    snapshot, published,
                    "{engine} rank {rank} batch {batch}: snapshot"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Failure tolerance (replication > 0) and the fault-injection pins
// ---------------------------------------------------------------------------

use topk_selection::commsim::FaultPlan;
use topk_selection::workloads::ReplicaShard;

fn ft_config() -> StreamConfig {
    StreamConfig {
        replication: 2,
        query_lambda: 6.0,
        refresh_every: 2,
        window: 3,
        words_per_batch: 120,
        ..config()
    }
}

/// What [`ft_service_body`] returns: the run summary, the per-batch reports
/// (whose `sends_total` calibrates boundary-aligned crashes), the published
/// top-k, the final live group, and this PE's buddy replicas (by owner).
type FtOutcome = (
    StreamReport,
    Vec<BatchReport>,
    Vec<(String, u64)>,
    Vec<usize>,
    Vec<ReplicaShard>,
);

/// One PE's failure-tolerant service run.
fn ft_service_body<C: Communicator>(comm: &C, batches: usize) -> FtOutcome {
    let corpus = corpus();
    let profile = profile();
    let mut service = StreamService::new(ft_config());
    for _ in 0..batches {
        service.ingest_batch(comm, &corpus, &profile);
    }
    let mut replicas: Vec<ReplicaShard> = service.replicas().values().cloned().collect();
    replicas.sort_by_key(|r| r.owner);
    (
        service.report(),
        service.batch_reports().to_vec(),
        service.serving_topk().to_vec(),
        service.live_group().to_vec(),
        replicas,
    )
}

/// The acceptance-criteria scenario: crash 1 of p = 16 PEs mid-stream with
/// r = 2 replicas.  Every routed point query must still be answered
/// (availability 1.0), the survivors must agree on a degraded snapshot with
/// 15/16 coverage, and the published counts must stay inside the
/// merged-sketch oracle bound *over the surviving coverage*.
#[test]
fn one_crash_among_sixteen_with_two_replicas_keeps_full_availability() {
    let (p, batches, victim, crash_batch) = (16usize, 10usize, 5usize, 4usize);

    // Calibration run: a crash pinned to the victim's cumulative send count
    // at the end of `crash_batch` fires at its first send of the next batch
    // — the membership heartbeat — so the death is detected cleanly.
    let base = run_spmd_seq(p, move |comm| ft_service_body(comm, batches));
    let at = base.results[victim].1[crash_batch].sends_total;

    let plan = FaultPlan::new().crash_pe(victim, at);
    let out = World::new(p)
        .with_faults(plan)
        .seq(move |comm| ft_service_body(comm, batches));

    assert!(out.results[victim].is_none(), "the victim must crash-stop");
    let survivors: Vec<usize> = (0..p).filter(|r| *r != victim).collect();
    for &rank in &survivors {
        assert!(out.results[rank].is_some(), "rank {rank} must survive");
    }

    let (report, _, topk, group, _) = out.results[0].as_ref().unwrap();
    assert_eq!(
        group, &survivors,
        "the live group must drop exactly the victim"
    );
    assert!(
        report.routed_queries > 0,
        "the Poisson stream must route queries"
    );
    assert_eq!(
        report.answered_queries, report.routed_queries,
        "with r = 2 replicas a single crash must not lose a single answer"
    );
    assert_eq!(report.availability, 1.0);
    assert!(
        report.degraded,
        "a post-crash refresh must flag degradation"
    );
    assert!(
        (report.coverage - (survivors.len() as f64 / p as f64)).abs() < 1e-12,
        "coverage must be 15/16, got {}",
        report.coverage
    );
    // Every survivor publishes the same degraded snapshot.
    for &rank in &survivors {
        let (r, _, t, g, _) = out.results[rank].as_ref().unwrap();
        assert_eq!(t, topk, "rank {rank}: snapshot diverges");
        assert_eq!(g, group, "rank {rank}: live group diverges");
        assert_eq!(
            non_traffic(r),
            non_traffic(report),
            "rank {rank}: run summary diverges"
        );
    }

    // Oracle bound over the surviving coverage: the last refresh aggregated
    // the survivors' window sketches only, so the reference counts are the
    // exact window counts over the survivors' streams.
    let cfg = ft_config();
    let last_refresh = ((batches - 1) / cfg.refresh_every) * cfg.refresh_every;
    assert!(
        last_refresh > crash_batch + 1,
        "the scenario must refresh after the crash"
    );
    let window_start = (last_refresh + 1).saturating_sub(cfg.window);
    let corpus = corpus();
    let profile = profile();
    let mut exact: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for &rank in &survivors {
        for batch in window_start..=last_refresh {
            for word in corpus.stream_batch_words(&profile, rank, batch, cfg.words_per_batch) {
                *exact.entry(word.to_string()).or_insert(0) += 1;
            }
        }
    }
    let window_batches = last_refresh - window_start + 1;
    let per_pe_bound =
        (window_batches * cfg.words_per_batch) as u64 / (cfg.sketch_capacity as u64 + 1);
    let bound = per_pe_bound * survivors.len() as u64;
    assert!(!topk.is_empty());
    for (word, published) in topk {
        let truth = exact.get(word).copied().unwrap_or(0);
        assert!(
            *published <= truth,
            "{word}: published {published} exceeds the surviving-coverage count {truth}"
        );
        assert!(
            truth - published <= bound,
            "{word}: error {} exceeds the surviving-coverage sketch bound {bound}",
            truth - published
        );
    }
}

/// The PR-7 regression pin: with `replication = 0` an **empty** fault plan
/// must not move a single metered word — per-batch reports, published
/// top-k and raw transport counters all bit-identical to the plain run.
#[test]
fn empty_fault_plan_does_not_perturb_fault_free_streaming() {
    let (p, batches) = (4usize, 12usize);
    let base = run_spmd_seq(p, move |comm| service_body(comm, batches));
    let ft = World::new(p)
        .with_faults(FaultPlan::new())
        .seq(move |comm| service_body(comm, batches));
    for rank in 0..p {
        assert_eq!(
            Some(&base.results[rank]),
            ft.results[rank].as_ref(),
            "rank {rank}: service outputs diverge under the empty plan"
        );
        let b = base.stats.pe(rank);
        let f = ft.stats.pe(rank);
        assert_eq!(
            (b.sent_messages, b.sent_words),
            (f.sent_messages, f.sent_words),
            "rank {rank}: fault-free words/PE must be bit-identical"
        );
    }
}

/// One PE's failure-tolerant run under an arbitrary config; returns the run
/// summary, the per-batch reports (for crash calibration), whether this PE
/// was evicted, the final live group and the published top-k.
#[allow(clippy::type_complexity)]
fn ft_body_with<C: Communicator>(
    comm: &C,
    cfg: StreamConfig,
    batches: usize,
) -> (
    StreamReport,
    Vec<BatchReport>,
    bool,
    Vec<usize>,
    Vec<(String, u64)>,
) {
    let corpus = corpus();
    let profile = profile();
    let mut service = StreamService::new(cfg);
    for _ in 0..batches {
        service.ingest_batch(comm, &corpus, &profile);
    }
    (
        service.report(),
        service.batch_reports().to_vec(),
        service.is_evicted(),
        service.live_group().to_vec(),
        service.serving_topk().to_vec(),
    )
}

/// Satellite pin for the lifted `p ≤ 64` cap: the membership mask is now a
/// multi-word bit vector, and a 128-PE world — with a lost heartbeat at
/// rank 100, whose bit lives in the mask's *second* word — detects the
/// silence, evicts exactly that rank, and keeps answering every routed
/// query from the replica.
///
/// The 128-PE seq world replays every PE's closure each scheduling round,
/// which is too slow unoptimised — CI runs this in its release fault-
/// injection step instead.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "128-PE seq replay needs optimised code; CI runs this with --release"
)]
fn membership_masks_scale_to_one_hundred_twenty_eight_pes() {
    let (p, batches, victim) = (128usize, 3usize, 100usize);
    let cfg = StreamConfig {
        k: 4,
        window: 2,
        sketch_capacity: 12,
        refresh_every: 2,
        words_per_batch: 12,
        replication: 1,
        query_lambda: 0.5,
        ..config()
    };

    // Drop rank 100's very first heartbeat: to the coordinator that is
    // indistinguishable from a death, so no crash calibration run is needed.
    let plan = FaultPlan::new().drop_message(victim, 0, 0);
    let out = World::new(p)
        .with_faults(plan)
        .seq(move |comm| ft_body_with(comm, cfg, batches));

    for rank in 0..p {
        assert!(out.results[rank].is_some(), "rank {rank} must finish");
    }
    let (_, _, victim_evicted, _, _) = out.results[victim].as_ref().unwrap();
    assert!(victim_evicted, "rank 100 must observe its own eviction");
    let survivors: Vec<usize> = (0..p).filter(|r| *r != victim).collect();
    let (report, _, _, group, _) = out.results[0].as_ref().unwrap();
    assert_eq!(
        group, &survivors,
        "the live group must drop exactly rank 100 (mask word 1, bit 36)"
    );
    assert!(
        report.degraded,
        "the post-eviction refresh must flag degradation"
    );
    assert!(
        (report.coverage - 127.0 / 128.0).abs() < 1e-12,
        "coverage must be 127/128, got {}",
        report.coverage
    );
    assert!(report.routed_queries > 0);
    assert_eq!(
        report.answered_queries, report.routed_queries,
        "rank 100's replica (on its ring successor) must answer its queries"
    );
    for &rank in &survivors {
        let (r, _, evicted, g, _) = out.results[rank].as_ref().unwrap();
        assert!(!evicted, "rank {rank} must not be evicted");
        assert_eq!(g, group, "rank {rank}: live group diverges");
        assert_eq!(
            non_traffic(r),
            non_traffic(report),
            "rank {rank}: run summary diverges"
        );
    }
}

/// A dropped batch-0 heartbeat is indistinguishable from a death to the
/// coordinator: the (live!) victim is evicted, goes quiescent, and still
/// finishes the run — while the survivors keep full availability through
/// the replicas and publish a reduced-coverage snapshot.
#[test]
fn a_dropped_heartbeat_evicts_a_live_pe_but_keeps_availability() {
    let (p, batches, victim) = (4usize, 6usize, 3usize);
    let cfg = ft_config();
    let plan = FaultPlan::new().drop_message(victim, 0, 0);
    let out = World::new(p)
        .with_faults(plan)
        .seq(move |comm| ft_body_with(comm, cfg, batches));

    // Nobody crashed: every PE — including the evicted one — finishes.
    for rank in 0..p {
        assert!(out.results[rank].is_some(), "rank {rank} must finish");
    }
    let (_, _, victim_evicted, _, _) = out.results[victim].as_ref().unwrap();
    assert!(victim_evicted, "the victim must observe its own eviction");

    let survivors: Vec<usize> = (0..p).filter(|r| *r != victim).collect();
    let (report, _, _, group, _) = out.results[0].as_ref().unwrap();
    assert_eq!(group, &survivors, "the live group must exclude the victim");
    assert!(
        report.coverage < 1.0,
        "evicting a live PE must cost coverage (a false positive, not a free lunch)"
    );
    assert!(report.routed_queries > 0);
    assert_eq!(
        report.answered_queries, report.routed_queries,
        "the victim's replicas must keep its shard answerable"
    );
    assert_eq!(report.availability, 1.0);
}

/// A one-send-tick delay — the largest hold the lock-step collectives can
/// absorb — must not perturb anything: service outputs and raw transport
/// counters stay bit-identical to the fault-free run.
#[test]
fn a_one_tick_delay_does_not_perturb_streaming() {
    let (p, batches) = (4usize, 12usize);
    let base = run_spmd_seq(p, move |comm| service_body(comm, batches));
    let plan = FaultPlan::new().delay_pair(0, 1, 1).delay_pair(0, 3, 1);
    let delayed = World::new(p)
        .with_faults(plan)
        .seq(move |comm| service_body(comm, batches));
    for rank in 0..p {
        assert_eq!(
            Some(&base.results[rank]),
            delayed.results[rank].as_ref(),
            "rank {rank}: outputs diverge under a one-tick delay"
        );
        let b = base.stats.pe(rank);
        let d = delayed.stats.pe(rank);
        assert_eq!(
            (b.sent_messages, b.sent_words),
            (d.sent_messages, d.sent_words),
            "rank {rank}: a sub-threshold delay must not move a word"
        );
    }
}

/// A recovering PE rebuilds from a buddy's replica: the replayed vocabulary
/// log resolves every id exactly as before the crash, and the replicated
/// aggregate becomes the serving shard.
#[test]
fn a_recovering_pe_rejoins_from_a_buddy_replica() {
    let (p, batches) = (4usize, 6usize);
    let out = run_spmd_seq(p, move |comm| {
        let corpus = corpus();
        let profile = profile();
        let mut service = StreamService::new(ft_config());
        for _ in 0..batches {
            service.ingest_batch(comm, &corpus, &profile);
        }
        (
            service.replicas().clone(),
            service.vocab().words().to_vec(),
            service.serving_shard().to_vec(),
        )
    });

    // Rank 1 is a ring successor of rank 0, so it buddies rank 0's shard.
    let (replicas_at_1, _, _) = &out.results[1];
    let shard = replicas_at_1
        .get(&0)
        .expect("rank 1 must hold a replica of rank 0's shard");
    let (_, vocab_at_0, serving_at_0) = &out.results[0];

    let rejoined = StreamService::rejoin(ft_config(), shard);
    assert_eq!(
        rejoined.vocab().words(),
        &shard.vocab_log[..],
        "the vocab log must replay verbatim"
    );
    assert_eq!(
        rejoined.serving_shard(),
        &shard.counts[..],
        "the replicated aggregate must become the serving shard"
    );
    // The replica's log is a prefix of (here: identical to) the primary's
    // vocabulary at the replicating refresh, so every id resolves exactly
    // as it did on the primary.
    for (id, word) in shard.vocab_log.iter().enumerate() {
        assert_eq!(&vocab_at_0[id], word, "id {id} must resolve identically");
    }
    assert_eq!(
        &shard.counts[..],
        &serving_at_0[..],
        "replica counts must match the primary"
    );
}

/// Batches of the failure-tolerant golden run: refreshes (and replica
/// pushes) at 0, 2, 4 and 6.
const FT_GOLDEN_BATCHES: usize = 8;
/// The PE the golden crash run kills, and the batch after which it dies: its
/// crash send-count is its `sends_total` at the end of that batch, so it dies
/// at its batch-4 heartbeat and the batch-4 refresh is degraded.
const FT_VICTIM: usize = 2;
const FT_CRASH_AFTER: usize = 3;

/// One [`BatchReport`] of the failure-tolerant golden run, batch index
/// implied: `(new_vocab, refreshed, staleness_items, sent_words,
/// sent_messages, bottleneck_words, live_pes, replication_words,
/// sends_total)`, the bottleneck and replica-push words the world's: each
/// the maximum of the PEs' own, folded over the ranks.
type BatchRow = (usize, bool, u64, u64, u64, u64, usize, u64, u64);

/// One held replica: `(owner, epoch, count pairs, vocab log length, digest
/// of the counts, digest of the vocab log)`.
type ReplicaRow = (usize, usize, usize, usize, u64, u64);

/// Per PE and batch of the fault-free run at p = 4 with [`ft_config`].
/// Recorded when the failure-tolerant mode ran its own copy of the batch
/// cycle and of the ring-successor push; the traffic fields re-recorded when
/// the refresh's top-k became a merge, and when `KeyCounts` became one bit
/// stream; the send totals when a batch stopped reducing its own meter; the
/// refresh batches' words when a replica's counts crossed as a typed tuple
/// instead of a hand-packed `Vec<u64>` (one length word less per push).
/// The traffic fields and the replicas re-recorded when the hash table's
/// owner became a bijection on each quotient and a share began to carry
/// its keys' quotients: the shards a PE owns, and so its replicas, moved.
const FT_GOLDEN: [[BatchRow; FT_GOLDEN_BATCHES]; 4] = [
    [
        (169, true, 0, 1163, 14, 1205, 4, 788, 14),
        (96, false, 480, 182, 5, 184, 4, 0, 19),
        (54, true, 0, 817, 14, 842, 4, 708, 33),
        (51, false, 480, 99, 5, 117, 4, 0, 38),
        (30, true, 0, 475, 14, 494, 4, 414, 52),
        (34, false, 480, 63, 5, 74, 4, 0, 57),
        (24, true, 0, 409, 14, 409, 4, 342, 71),
        (18, false, 480, 49, 5, 49, 4, 0, 76),
    ],
    [
        (169, true, 0, 1205, 12, 1205, 4, 788, 12),
        (96, false, 480, 178, 3, 184, 4, 0, 15),
        (54, true, 0, 842, 12, 842, 4, 708, 27),
        (51, false, 480, 117, 3, 117, 4, 0, 30),
        (30, true, 0, 461, 12, 494, 4, 414, 42),
        (34, false, 480, 52, 3, 74, 4, 0, 45),
        (24, true, 0, 400, 12, 409, 4, 342, 57),
        (18, false, 480, 39, 3, 49, 4, 0, 60),
    ],
    [
        (169, true, 0, 1166, 12, 1205, 4, 788, 12),
        (96, false, 480, 182, 3, 184, 4, 0, 15),
        (54, true, 0, 827, 12, 842, 4, 708, 27),
        (51, false, 480, 89, 3, 117, 4, 0, 30),
        (30, true, 0, 470, 12, 494, 4, 414, 42),
        (34, false, 480, 68, 3, 74, 4, 0, 45),
        (24, true, 0, 390, 12, 409, 4, 342, 57),
        (18, false, 480, 25, 3, 49, 4, 0, 60),
    ],
    [
        (169, true, 0, 1143, 12, 1205, 4, 788, 12),
        (96, false, 480, 180, 3, 184, 4, 0, 15),
        (54, true, 0, 828, 12, 842, 4, 708, 27),
        (51, false, 480, 99, 3, 117, 4, 0, 30),
        (30, true, 0, 494, 12, 494, 4, 414, 42),
        (34, false, 480, 74, 3, 74, 4, 0, 45),
        (24, true, 0, 388, 12, 409, 4, 342, 57),
        (18, false, 480, 39, 3, 49, 4, 0, 60),
    ],
];

/// The replicas each PE holds after the fault-free run (its two ring
/// predecessors').
const FT_GOLDEN_REPLICAS: [&[ReplicaRow]; 4] = [
    &[
        (2, 6, 20, 458, 0xdd2d02a2987e0334, 0x8afab9c0f1e3a686),
        (3, 6, 24, 458, 0xf72fea5c5290bda9, 0x8afab9c0f1e3a686),
    ],
    &[
        (0, 6, 23, 458, 0xd966623b75898684, 0x8afab9c0f1e3a686),
        (3, 6, 24, 458, 0xf72fea5c5290bda9, 0x8afab9c0f1e3a686),
    ],
    &[
        (0, 6, 23, 458, 0xd966623b75898684, 0x8afab9c0f1e3a686),
        (1, 6, 22, 458, 0x53c85e8490641b0b, 0x8afab9c0f1e3a686),
    ],
    &[
        (1, 6, 22, 458, 0x53c85e8490641b0b, 0x8afab9c0f1e3a686),
        (2, 6, 20, 458, 0xdd2d02a2987e0334, 0x8afab9c0f1e3a686),
    ],
];

/// The survivors of the crash run, with their batches after the crash
/// (batches up to [`FT_CRASH_AFTER`] equal [`FT_GOLDEN`]) and the replicas
/// they end with — rank 2's epoch-2 replica outlives its owner.
const FT_GOLDEN_SURVIVORS: [(usize, [BatchRow; 4], &[ReplicaRow]); 3] = [
    (
        0,
        [
            (19, true, 0, 1082, 13, 1091, 3, 1044, 51),
            (24, false, 360, 38, 4, 50, 3, 0, 55),
            (18, true, 0, 345, 12, 345, 3, 286, 67),
            (19, false, 360, 44, 4, 44, 3, 0, 71),
        ],
        &[
            (1, 6, 20, 431, 0x8b3e69ac457d5ef7, 0xcf500503c6e609a9),
            (2, 2, 17, 319, 0x3f8f4b418c15b183, 0x4a4d11b9c71ca67b),
            (3, 6, 26, 431, 0xa0310598fa809ada, 0xcf500503c6e609a9),
        ],
    ),
    (
        1,
        [
            (19, true, 0, 1076, 11, 1091, 3, 1044, 41),
            (24, false, 360, 36, 3, 50, 3, 0, 44),
            (18, true, 0, 306, 11, 345, 3, 286, 55),
            (19, false, 360, 26, 3, 44, 3, 0, 58),
        ],
        &[
            (0, 6, 24, 431, 0xbe35fccf4b5117f3, 0xcf500503c6e609a9),
            (3, 6, 26, 431, 0xa0310598fa809ada, 0xcf500503c6e609a9),
        ],
    ),
    (
        3,
        [
            (19, true, 0, 438, 11, 1091, 3, 1044, 41),
            (24, false, 360, 50, 3, 50, 3, 0, 44),
            (18, true, 0, 315, 11, 345, 3, 286, 55),
            (19, false, 360, 38, 3, 44, 3, 0, 58),
        ],
        &[
            (0, 6, 24, 431, 0xbe35fccf4b5117f3, 0xcf500503c6e609a9),
            (1, 6, 20, 431, 0x8b3e69ac457d5ef7, 0xcf500503c6e609a9),
            (2, 2, 17, 319, 0x3f8f4b418c15b183, 0x4a4d11b9c71ca67b),
        ],
    ),
];

/// The run summary of the fault-free golden run, its traffic fields folded
/// over the PEs.
fn ft_golden_report() -> StreamReport {
    StreamReport {
        batches: FT_GOLDEN_BATCHES,
        items_global: 3840,
        vocab_size: 476,
        p95_staleness_items: 480,
        max_staleness_items: 480,
        total_bottleneck_words: 3374,
        words_per_item: 0.8786458333333333,
        degraded: false,
        coverage: 1.0,
        routed_queries: 52,
        answered_queries: 52,
        availability: 1.0,
        p50_query_latency: 0.0,
        p95_query_latency: 3.01e-6,
        p99_query_latency: 3.01e-6,
        total_replication_words: 2252,
    }
}

/// The run summary of the crash run's survivors, its traffic fields folded
/// over the PEs (the victim's up to its crash).
fn ft_golden_crash_report() -> StreamReport {
    StreamReport {
        items_global: 3360,
        vocab_size: 450,
        total_bottleneck_words: 3878,
        words_per_item: 1.1541666666666666,
        degraded: true,
        coverage: 0.75,
        total_replication_words: 2826,
        ..ft_golden_report()
    }
}

/// FNV-1a over words: a compact, order-sensitive digest for the pins.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Batch `t`'s maximum of `field` over `pes`, every PE's per-batch reports
/// (a PE whose reports end before `t` does not count).
fn busiest(pes: &[&[BatchReport]], t: usize, field: fn(&BatchReport) -> u64) -> u64 {
    let at_t = pes.iter().filter_map(|reports| reports.get(t));
    at_t.map(field).max().unwrap_or(0)
}

/// `b`'s row, its world columns folded over `pes`.
fn batch_row(b: &BatchReport, pes: &[&[BatchReport]]) -> BatchRow {
    (
        b.new_vocab,
        b.refreshed,
        b.staleness_items,
        b.sent_words,
        b.sent_messages,
        busiest(pes, b.batch, |b| b.bottleneck_words),
        b.live_pes,
        busiest(pes, b.batch, |b| b.replication_words),
        b.sends_total,
    )
}

fn replica_row(s: &ReplicaShard) -> ReplicaRow {
    let counts = fnv1a(s.counts.iter().flat_map(|&(id, c)| [id, c]));
    // Each word's bytes, then a 0 separator.
    let vocab = fnv1a(
        s.vocab_log
            .iter()
            .flat_map(|w| w.bytes().map(u64::from).chain([0])),
    );
    (
        s.owner,
        s.epoch,
        s.counts.len(),
        s.vocab_log.len(),
        counts,
        vocab,
    )
}

/// Assert one PE's failure-tolerant run against its golden rows: its own
/// fields, and the world's traffic folded over `pes`, every PE's per-batch
/// reports (a crash victim's up to its crash).
fn assert_ft_golden(
    label: &str,
    got: &FtOutcome,
    pes: &[&[BatchReport]],
    batches: &[BatchRow],
    report: &StreamReport,
    replicas: &[ReplicaRow],
) {
    let (got_report, got_batches, _, _, got_replicas) = got;
    assert_eq!(got_batches.len(), batches.len(), "{label}: batch count");
    for (t, (b, want)) in got_batches.iter().zip(batches).enumerate() {
        assert_eq!(b.batch, t, "{label}: batch index");
        assert_eq!(&batch_row(b, pes), want, "{label} batch {t}");
    }
    assert_eq!(
        &world_report(got_report, pes),
        report,
        "{label}: run summary"
    );
    let got_replicas: Vec<ReplicaRow> = got_replicas.iter().map(replica_row).collect();
    assert_eq!(got_replicas, replicas, "{label}: replicas");
}

/// The failure-tolerant mode's golden pin: every batch report (including
/// the replica-push words and the calibration send totals), the run summary
/// and the held replicas of a p = 4 run, fault-free on every engine and with
/// one boundary-aligned crash on both replay drivers.
#[test]
fn ft_batches_match_the_golden_values_on_every_engine() {
    let threaded = run_spmd(4, |comm| ft_service_body(comm, FT_GOLDEN_BATCHES));
    let inline = run_spmd_seq(4, |comm| ft_service_body(comm, FT_GOLDEN_BATCHES));
    let pool = World::new(4)
        .with_workers(2)
        .mux(|comm| ft_service_body(comm, FT_GOLDEN_BATCHES))
        .fault_free();
    for (engine, out) in [
        ("threads", &threaded.results),
        ("inline driver", &inline.results),
        ("worker pool", &pool.results),
    ] {
        let pes: Vec<&[BatchReport]> = out.iter().map(|got| got.1.as_slice()).collect();
        for (rank, got) in out.iter().enumerate() {
            assert_ft_golden(
                &format!("{engine} rank {rank}"),
                got,
                &pes,
                &FT_GOLDEN[rank],
                &ft_golden_report(),
                FT_GOLDEN_REPLICAS[rank],
            );
        }
    }

    // The victim ran its batches up to the crash as in the fault-free run.
    let victim = &inline.results[FT_VICTIM].1[..=FT_CRASH_AFTER];
    let at = FT_GOLDEN[FT_VICTIM][FT_CRASH_AFTER].8;
    let world = World::new(4).with_faults(FaultPlan::new().crash_pe(FT_VICTIM, at));
    let inline = world
        .clone()
        .seq(|comm| ft_service_body(comm, FT_GOLDEN_BATCHES));
    let pool = world
        .with_workers(2)
        .mux(|comm| ft_service_body(comm, FT_GOLDEN_BATCHES));
    for (engine, out) in [("inline driver", &inline), ("worker pool", &pool)] {
        assert!(
            out.results[FT_VICTIM].is_none(),
            "{engine}: the victim crash-stops"
        );
        let pes: Vec<&[BatchReport]> = out
            .results
            .iter()
            .map(|got| got.as_ref().map_or(victim, |got| got.1.as_slice()))
            .collect();
        for (rank, after, replicas) in FT_GOLDEN_SURVIVORS {
            let batches: Vec<BatchRow> = FT_GOLDEN[rank][..=FT_CRASH_AFTER]
                .iter()
                .chain(&after)
                .copied()
                .collect();
            let got = out.results[rank].as_ref().expect("survivor");
            assert_ft_golden(
                &format!("{engine} crash run rank {rank}"),
                got,
                &pes,
                &batches,
                &ft_golden_crash_report(),
                replicas,
            );
        }
    }
}
