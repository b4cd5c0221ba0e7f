//! Streaming top-k service benchmark — the never-terminating workload.
//!
//! Drives [`workloads::StreamService`] over a non-stationary synthetic
//! document stream: topic drift rotates the Zipf rank → word mapping every
//! `--drift-every` batches, and one flash-crowd burst spikes a tail word for
//! `--burst-len` batches.  Every PE ingests `--words-per-batch` words per
//! mini-batch, the service publishes a global top-k every `--refresh-every`
//! batches through the DHT aggregation + `select_top_counts`' top-k merge,
//! and a modeled Poisson stream of `--query-lambda` point queries per batch
//! is answered between batches from the published snapshot, scored against
//! the α/β cost model.
//!
//! Scored metrics: **p95 answer staleness** of those queries in globally
//! ingested items, **words per ingested item** (world bottleneck
//! communication / items), and the queries' availability and modeled
//! latency percentiles.  The service meters each PE on its own; the world
//! figures here are [`workloads::world_report`]'s fold over every PE's
//! per-batch reports.  All are deterministic in `(seed, rank, batch)`, so
//! any two backends — and any two runs — agree bit for bit; `--reps > 1`
//! checks that instead of assuming it.
//!
//! With `--replication r` the service runs failure-tolerant: per-batch
//! membership rounds, serving shards replicated to `r` ring buddies, and
//! degraded refreshes over the survivor subgroup.  `--chaos` sweeps
//! crash-stops calibrated to batch boundaries: a fault-free calibration rep
//! records every PE's cumulative send count per batch, so a victim's
//! `at_send_count` lands it exactly at its first send — the membership
//! probe — of the batch after `--crash-batch`.  `--delays D` extends the
//! sweep with message-delay runs (one-send-tick holds on D
//! coordinator→member pairs — below the detection threshold, so staleness
//! and availability must be unaffected) and `--drops D` with
//! dropped-heartbeat runs (the victim is timeout-evicted while still alive;
//! coverage shrinks, availability is held up by the replicas).  Injected
//! faults run on the replay engine only, so `--chaos` needs
//! `--backend seq|mux` and refuses the threaded default.
//!
//! ```bash
//! cargo run -p bench --release --bin stream_topk -- \
//!     [--pes 8] [--batches 60] [--words-per-batch 500] [--vocab 2000] \
//!     [--zipf 1.05] [--k 10] [--window 8] [--capacity 64] \
//!     [--refresh-every 4] [--query-lambda 4] [--drift-every 10] \
//!     [--drift-step 25] [--burst-start 30] [--burst-len 5] \
//!     [--burst-rank 150] [--burst-intensity 0.4] [--reps 1] [--seed 42] \
//!     [--backend threaded|seq|mux] [--json] [--replication 2] \
//!     [--chaos] [--crashes 1] [--delays 0] [--drops 0] \
//!     [--crash-batch 30] [--assert-available 1.0]
//! ```

use bench::chaos::require_replay_backend;
use bench::cli::Cli;
use bench::report::fmt_duration;
use bench::Table;
use commsim::{run_on, Backend, Communicator, FaultEvent, FaultPlan, World};
use datagen::{FlashCrowd, StreamProfile, TextCorpus};
use workloads::{world_report, BatchReport, StreamConfig, StreamReport, StreamService};

/// One PE's observable outcome of a full service run (summary report,
/// per-batch reports, final published top-k).
type PeOutcome = (StreamReport, Vec<BatchReport>, Vec<(String, u64)>);

/// One PE's full service run: a fresh service ingests `batches` mini-batches.
fn serve<C: Communicator>(
    comm: &C,
    config: StreamConfig,
    corpus: &TextCorpus,
    profile: &StreamProfile,
    batches: usize,
) -> PeOutcome {
    let mut service = StreamService::new(config);
    for _ in 0..batches {
        service.ingest_batch(comm, corpus, profile);
    }
    (
        service.report(),
        service.batch_reports().to_vec(),
        service.serving_topk().to_vec(),
    )
}

fn main() {
    let args = Args::from_cli(Cli::from_env());
    let p = args.pes;
    let config = StreamConfig {
        k: args.k,
        window: args.window,
        sketch_capacity: args.capacity,
        refresh_every: args.refresh_every,
        words_per_batch: args.words_per_batch,
        seed: args.seed,
        replication: args.replication,
        query_lambda: args.query_lambda,
    };
    let profile = StreamProfile {
        drift_every: args.drift_every,
        drift_step: args.drift_step,
        burst: (args.burst_len > 0).then_some(FlashCrowd {
            start: args.burst_start,
            len: args.burst_len,
            rank: args.burst_rank,
            intensity: args.burst_intensity,
        }),
    };
    let corpus = TextCorpus::new(args.vocab, args.zipf, args.seed);

    println!(
        "Streaming top-{} service: {p} PEs x {} batches x {} words/batch, backend: {}",
        args.k,
        args.batches,
        args.words_per_batch,
        args.backend.name()
    );
    if args.replication > 0 {
        println!(
            "failure tolerance: replication r = {}, Poisson query stream λ = {}/batch",
            args.replication, args.query_lambda
        );
    }
    if args.chaos {
        chaos(&args, config, &profile, &corpus);
        return;
    }
    println!(
        "window {} batches, refresh every {}, drift every {} (+{} ranks), burst: {}",
        args.window,
        args.refresh_every,
        args.drift_every,
        args.drift_step,
        match profile.burst {
            Some(b) => format!(
                "{:?} at batches {}..{} ({:.0}% of traffic)",
                corpus.word_for_rank(b.rank),
                b.start,
                b.start + b.len,
                b.intensity * 100.0
            ),
            None => "none".to_string(),
        }
    );

    let mut wall = std::time::Duration::ZERO;
    let mut runs: Vec<Vec<PeOutcome>> = Vec::new();
    for _ in 0..args.reps {
        let batches = args.batches;
        let corpus = corpus.clone();
        let out = run_on!(args.backend, World::new(p), move |comm| {
            serve(comm, config, &corpus, &profile, batches)
        })
        .fault_free();
        wall += out.elapsed;
        runs.push(out.results);
    }
    // Reproducibility: repeated runs must meter identical traffic per batch.
    for (rep, run) in runs.iter().enumerate().skip(1) {
        for (pe, ((_, b, _), (_, b0, _))) in run.iter().zip(runs[0].iter()).enumerate() {
            assert_eq!(
                b, b0,
                "rep {rep} PE {pe}: per-batch reports must be bit-identical across runs"
            );
        }
    }
    let pes: Vec<&[BatchReport]> = runs[0].iter().map(|(_, b, _)| b.as_slice()).collect();
    let (own_report, batch_reports, topk) = &runs[0][0];
    let report = &world_report(own_report, &pes);
    // Each batch's busiest PE.
    let world_words = |t: usize| pes.iter().map(|b| b[t].bottleneck_words).max();

    // ----- per-batch trace (sampled rows; refresh batches always shown) ----
    let mut trace = Table::new(
        "Streaming service — per-batch trace (sampled)",
        &[
            "batch",
            "new vocab",
            "refreshed",
            "staleness (items)",
            "bottleneck words",
        ],
    );
    let step = (args.batches / 12).max(1);
    for b in batch_reports {
        if b.batch % step == 0 || b.refreshed || b.batch + 1 == args.batches {
            trace.add_row(vec![
                b.batch.to_string(),
                b.new_vocab.to_string(),
                if b.refreshed { "yes" } else { "" }.to_string(),
                b.staleness_items.to_string(),
                world_words(b.batch).unwrap_or(0).to_string(),
            ]);
        }
    }
    trace.print();

    // ----- summary ---------------------------------------------------------
    let mut summary = Table::new(
        "Streaming service — scored metrics",
        &[
            "PEs",
            "batches",
            "items",
            "vocab",
            "p95 staleness (items)",
            "max staleness (items)",
            "total words",
            "words/item",
            "wall time",
        ],
    );
    summary.add_row(vec![
        p.to_string(),
        report.batches.to_string(),
        report.items_global.to_string(),
        report.vocab_size.to_string(),
        report.p95_staleness_items.to_string(),
        report.max_staleness_items.to_string(),
        report.total_bottleneck_words.to_string(),
        format!("{:.4}", report.words_per_item),
        fmt_duration(wall / args.reps as u32),
    ]);
    summary.print();
    println!("{}", summary.to_markdown());

    let queries = query_table(args.query_lambda, report);
    queries.print();
    if args.json {
        print!("{}", trace.to_json_lines());
        print!("{}", summary.to_json_lines());
        print!("{}", queries.to_json_lines());
    }

    let top: Vec<String> = topk
        .iter()
        .take(5)
        .map(|(w, c)| format!("{w}:{c}"))
        .collect();
    println!(
        "final published top-{}: {} (drift hot word at batch {}: {:?})",
        args.k,
        top.join(" "),
        args.batches - 1,
        corpus.stream_hot_word(&profile, args.batches - 1)
    );
    if args.reps > 1 {
        println!(
            "per-batch words/PE bit-identical across {} repetitions on the {} backend.",
            args.reps,
            args.backend.name()
        );
    }
}

/// The availability / modeled-latency table of the Poisson query stream.
fn query_table(lambda: f64, report: &StreamReport) -> Table {
    let mut table = Table::new(
        "Poisson query stream — availability and modeled latency",
        &[
            "lambda/batch",
            "routed",
            "answered",
            "availability",
            "p50 latency (s)",
            "p95 latency (s)",
            "p99 latency (s)",
        ],
    );
    table.add_row(vec![
        format!("{lambda:.1}"),
        report.routed_queries.to_string(),
        report.answered_queries.to_string(),
        format!("{:.4}", report.availability),
        format!("{:.3e}", report.p50_query_latency),
        format!("{:.3e}", report.p95_query_latency),
        format!("{:.3e}", report.p99_query_latency),
    ]);
    table
}

/// The chaos sweep, on a replay driver: one fault-free calibration/baseline
/// rep, then one run per fault scenario —
///
/// * `1..=--crashes` crash-stops, victims picked by
///   [`FaultPlan::seeded_crashes`] with `at_send_count` calibrated so every
///   victim dies at its first send (the membership probe) of the batch after
///   `--crash-batch`;
/// * `--delays` runs that delay coordinator→member pairs by one send-tick —
///   below every retry budget, so no verdict changes and
///   staleness/availability/words must equal the baseline bit for bit;
/// * `--drops` runs that drop one member's very first heartbeat — the
///   coordinator times the victim out and evicts it *while it is still
///   alive*; coverage shrinks like a crash but the victim parks quietly.
fn chaos(args: &Args, config: StreamConfig, profile: &StreamProfile, corpus: &TextCorpus) {
    require_replay_backend(args.backend);
    let p = args.pes;
    assert!(
        config.replication >= 1,
        "--chaos needs --replication >= 1 (survivors must hold replicas)"
    );
    assert!(
        args.crashes < p,
        "--crashes must leave at least one survivor"
    );
    assert!(
        args.delays == 0 || p >= 2,
        "--delays needs at least one member besides the coordinator"
    );
    assert!(
        args.drops < p,
        "--drops must leave at least one member besides the coordinator"
    );
    let crash_batch = args
        .crash_batch
        .unwrap_or(args.batches / 2)
        .min(args.batches.saturating_sub(2));
    println!(
        "chaos: up to {} crash-stop(s) at the boundary of batch {} (victims die at \
         their first send of batch {})",
        args.crashes,
        crash_batch,
        crash_batch + 1
    );

    let batches = args.batches;
    let run = |plan: FaultPlan| {
        run_on!(args.backend, World::new(p).with_faults(plan), {
            let corpus = corpus.clone();
            let profile = *profile;
            move |comm| serve(comm, config, &corpus, &profile, batches)
        })
    };
    let base = run(FaultPlan::new()).fault_free();

    // Calibration: a victim that completes exactly its end-of-batch total
    // send count dies immediately before its next send, which is its first
    // send — the membership heartbeat — of batch `crash_batch + 1`.
    let candidates: Vec<(usize, u64)> = base
        .results
        .iter()
        .enumerate()
        .map(|(rank, (_, batch_reports, _))| (rank, batch_reports[crash_batch].sends_total))
        .collect();

    let mut sweep = Table::new(
        "Chaos sweep — faults vs availability and overhead",
        &[
            "fault",
            "victims",
            "survivors",
            "coverage",
            "degraded",
            "availability",
            "p95 staleness (items)",
            "words/item",
            "repl words/item",
            "p95 query latency (s)",
        ],
    );
    let add_row =
        |sweep: &mut Table, fault: &str, victims: &str, survivors: usize, r: &StreamReport| {
            sweep.add_row(vec![
                fault.to_string(),
                victims.to_string(),
                survivors.to_string(),
                format!("{:.3}", r.coverage),
                if r.degraded { "yes" } else { "" }.to_string(),
                format!("{:.4}", r.availability),
                r.p95_staleness_items.to_string(),
                format!("{:.4}", r.words_per_item),
                format!(
                    "{:.4}",
                    r.total_replication_words as f64 / r.items_global as f64
                ),
                format!("{:.3e}", r.p95_query_latency),
            ]);
        };
    // Run a faulted scenario and return the first live PE's outcome, with
    // the world's report, plus the number of PEs that finished.  A victim
    // counts for the batches up to its crash, which it ran as in the
    // fault-free run.
    let run_faulted = |plan: FaultPlan| {
        let out = run(plan);
        let survivors = out.results.iter().filter(|r| r.is_some()).count();
        let pes: Vec<&[BatchReport]> = out
            .results
            .iter()
            .zip(&base.results)
            .map(|(outcome, (_, fault_free, _))| match outcome {
                Some((_, batch_reports, _)) => batch_reports.as_slice(),
                None => &fault_free[..=crash_batch],
            })
            .collect();
        let (report, _, topk) = out
            .results
            .iter()
            .flatten()
            .next()
            .expect("at least one PE survives the sweep");
        ((world_report(report, &pes), topk.clone()), survivors)
    };
    let base_pes: Vec<&[BatchReport]> = base.results.iter().map(|(_, b, _)| b.as_slice()).collect();
    let base_report = &world_report(&base.results[0].0, &base_pes);
    let base_topk = &base.results[0].2;
    add_row(&mut sweep, "none", "-", p, base_report);
    if let Some(min) = args.assert_available {
        assert!(
            base_report.availability >= min,
            "fault-free availability {:.4} below required {min}",
            base_report.availability
        );
    }

    // ----- crash-stop dimension -------------------------------------------
    for crashes in 1..=args.crashes {
        let plan =
            FaultPlan::seeded_crashes(args.seed.wrapping_add(crashes as u64), &candidates, crashes);
        let victims: Vec<String> = plan
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::CrashPe { rank, .. } => rank.to_string(),
                _ => unreachable!("seeded_crashes only schedules crashes"),
            })
            .collect();
        let ((report, _), survivors) = run_faulted(plan);
        add_row(
            &mut sweep,
            &format!("crash x{crashes}"),
            &victims.join("+"),
            survivors,
            &report,
        );
        if let Some(min) = args.assert_available {
            assert!(
                report.availability >= min,
                "availability {:.4} with {crashes} crash(es) below required {min}",
                report.availability
            );
        }
    }

    // ----- delay dimension -------------------------------------------------
    // Delays below the detection threshold must be free: the scored metrics
    // and the published snapshot equal the baseline bit for bit — asserted,
    // not assumed.  The injected delay is one send-tick, the largest delay
    // the service's lock-step collectives can absorb: a held-back message
    // releases only once its *sender* advances its send clock, so any longer
    // hold on a ping-pong exchange (the tree allreduces of threshold
    // selection, a member parked right after its heartbeat) freezes both
    // ends — plain receives may never time out, and the replay scheduler
    // reports that as deadlock.  Delays long enough to trip a *failable*
    // receive instead are indistinguishable from loss: that regime is the
    // drop dimension below.
    for d in 1..=args.delays {
        let mut plan = FaultPlan::new();
        let mut pairs: Vec<String> = Vec::with_capacity(d);
        for i in 0..d {
            let dst = 1 + i % (p - 1);
            plan = plan.delay_pair(0, dst, 1);
            pairs.push(format!("0>{dst}"));
        }
        let ((report, topk), survivors) = run_faulted(plan);
        assert_eq!(
            (
                report.availability,
                report.p95_staleness_items,
                report.total_bottleneck_words,
                &topk,
            ),
            (
                base_report.availability,
                base_report.p95_staleness_items,
                base_report.total_bottleneck_words,
                base_topk,
            ),
            "delayed messages must not perturb staleness, availability, words, or the snapshot"
        );
        add_row(
            &mut sweep,
            &format!("delay x{d}"),
            &pairs.join("+"),
            survivors,
            &report,
        );
    }

    // ----- drop dimension --------------------------------------------------
    // Dropping a member's first heartbeat makes the coordinator exhaust its
    // retry budget and evict the victim *while it is still alive*: coverage
    // shrinks as if it had crashed, availability is held up by the replicas,
    // and the victim's own run ends in the quiescent evicted state.
    for d in 1..=args.drops {
        let mut plan = FaultPlan::new();
        let mut victims: Vec<String> = Vec::with_capacity(d);
        for i in 0..d {
            let victim = p - 1 - i;
            plan = plan.drop_message(victim, 0, 0);
            victims.push(victim.to_string());
        }
        let ((report, _), survivors) = run_faulted(plan);
        assert!(
            report.coverage < 1.0,
            "a dropped heartbeat must evict its sender (coverage stayed {:.3})",
            report.coverage
        );
        add_row(
            &mut sweep,
            &format!("drop x{d}"),
            &victims.join("+"),
            survivors,
            &report,
        );
        if let Some(min) = args.assert_available {
            assert!(
                report.availability >= min,
                "availability {:.4} with {d} dropped heartbeat(s) below required {min}",
                report.availability
            );
        }
    }

    sweep.print();
    println!("{}", sweep.to_markdown());
    if args.json {
        print!("{}", sweep.to_json_lines());
    }
}

struct Args {
    pes: usize,
    batches: usize,
    words_per_batch: usize,
    vocab: usize,
    zipf: f64,
    k: usize,
    window: usize,
    capacity: usize,
    refresh_every: usize,
    drift_every: usize,
    drift_step: usize,
    burst_start: usize,
    burst_len: usize,
    burst_rank: usize,
    burst_intensity: f64,
    reps: usize,
    seed: u64,
    backend: Backend,
    json: bool,
    replication: usize,
    query_lambda: f64,
    chaos: bool,
    crashes: usize,
    delays: usize,
    drops: usize,
    crash_batch: Option<usize>,
    assert_available: Option<f64>,
}

impl Args {
    fn from_cli(mut cli: Cli) -> Self {
        let mut args = Args {
            pes: cli.value("--pes", 8),
            batches: cli.value("--batches", 60),
            words_per_batch: cli.value("--words-per-batch", 500),
            vocab: cli.value("--vocab", 2000),
            zipf: cli.value("--zipf", 1.05),
            k: cli.value("--k", 10),
            window: cli.value("--window", 8),
            capacity: cli.value("--capacity", 64),
            refresh_every: cli.value("--refresh-every", 4),
            drift_every: cli.value("--drift-every", 10),
            drift_step: cli.value("--drift-step", 25),
            burst_start: cli.value("--burst-start", 30),
            burst_len: cli.value("--burst-len", 5),
            burst_rank: cli.value("--burst-rank", 150),
            burst_intensity: cli.value("--burst-intensity", 0.4),
            reps: cli.value("--reps", 1),
            seed: cli.value("--seed", 42),
            backend: cli.value("--backend", Backend::Threaded),
            json: cli.switch("--json"),
            replication: cli.value("--replication", 0),
            query_lambda: cli.value("--query-lambda", 4.0),
            chaos: cli.switch("--chaos"),
            crashes: cli.value("--crashes", 1),
            delays: cli.value("--delays", 0),
            drops: cli.value("--drops", 0),
            crash_batch: cli.optional("--crash-batch"),
            assert_available: cli.optional("--assert-available"),
        };
        cli.finish();
        if args.chaos && args.replication == 0 {
            // Chaos without failure tolerance is pointless; pick a
            // serviceable default instead of erroring.
            args.replication = 2;
        }
        assert!(args.reps >= 1, "--reps must be at least 1");
        assert!(args.batches >= 1, "--batches must be at least 1");
        assert!(
            args.burst_rank <= args.vocab && args.burst_rank >= 1,
            "--burst-rank must be a valid 1-based vocabulary rank"
        );
        args
    }
}
