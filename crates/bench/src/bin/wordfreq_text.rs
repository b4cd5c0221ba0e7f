//! Real-text word frequency: the paper's headline application (§7, Figure 4)
//! run end to end — tokenizer → distributed interning → PAC/EC/PEC/Naive —
//! on synthetic-English corpora (or a user-supplied text file), with
//! exact-oracle scoring.
//!
//! Shards are generated and interned **up front**; only the counting
//! algorithm runs inside the timed region (the pre-PR-4 `word_frequency`
//! example timed input generation too, drowning the signal).  The interning
//! setup cost is reported separately.  Repeated runs are asserted to move a
//! bit-identical number of words per PE — reproducibility is checked, not
//! assumed.
//!
//! ```bash
//! cargo run -p bench --release --bin wordfreq_text -- \
//!     [--pes 8] [--per-pe 15] [--vocab 4096] [--zipf 1.05] [--k 16] \
//!     [--epsilon 0.03] [--reps 2] [--seed 42] [--text FILE] \
//!     [--backend threaded|seq|mux] [--json] \
//!     [--algo pac|ec|pec|naive|naive-tree|all|auto] [--plan-explain]
//! ```
//!
//! `--algo auto` replaces the fixed algorithm sweep with the cost-model
//! planner: the plan is derived from the interned shard's measured skew,
//! executed, oracle-scored like every other row, and its `plan-audit` row
//! (prediction vs metered reality) printed; `--plan-explain` also prints the
//! candidate table.

use bench::cli::Cli;
use bench::report::fmt_duration;
use bench::{AlgoChoice, Table};
use commsim::{run_on, Backend, Communicator, SpmdOutput, World};
use datagen::TextCorpus;
use topk::frequent::{absolute_error, exact_global_counts, relative_error};
use topk::{planner, Algorithm, FrequentParams, TopKFrequentResult};
use workloads::text::{
    distributed_intern, run_planned_scored, split_text_shards, tokenize, InternedShard,
};

fn main() {
    let args = Args::from_cli(Cli::from_env());
    let p = args.pes;
    let per_pe = 1usize << args.log_per_pe;
    let params = FrequentParams::new(args.k, args.epsilon, 1e-3, args.seed);

    // ----- corpus (generated or loaded once, untimed) ---------------------
    let (shards, source): (Vec<String>, String) = match &args.text {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read --text {path}: {e}"));
            (
                split_text_shards(&text, p),
                format!("file {path} ({} bytes)", text.len()),
            )
        }
        None => {
            let corpus = TextCorpus::new(args.vocab, args.zipf, args.seed);
            (
                (0..p).map(|r| corpus.shard_text(r, per_pe)).collect(),
                format!(
                    "synthetic English, Zipf({}) over {} words, {} words/PE",
                    args.zipf, args.vocab, per_pe
                ),
            )
        }
    };
    let tokens: Vec<Vec<String>> = shards.iter().map(|s| tokenize(s)).collect();

    println!("Word frequency on real text: top-{} words, {p} PEs", args.k);
    println!(
        "corpus: {source}; ε = {:.1e}, δ = 1e-3, backend: {}\n",
        args.epsilon,
        args.backend.name()
    );

    // ----- interning setup (collective, metered separately) ---------------
    let intern_out: SpmdOutput<(InternedShard, u64)> =
        run_on!(args.backend, World::new(p), |comm| {
            let before = comm.stats_snapshot();
            let shard = distributed_intern(comm, &tokens[comm.rank()]);
            let words = comm.stats_snapshot().since(&before).bottleneck_words();
            (shard, words)
        })
        .fault_free();
    let intern_words = intern_out.results.iter().map(|(_, w)| *w).max().unwrap();
    let interned: Vec<InternedShard> = intern_out.results.into_iter().map(|(s, _)| s).collect();
    println!(
        "interning setup: {} distinct words -> dense ids, {} words/PE (one-off, \
         metered separately from the algorithms)\n",
        interned[0].vocab.len(),
        intern_words
    );

    // ----- exact oracle ---------------------------------------------------
    let oracle = run_on!(args.backend, World::new(p), |comm| {
        exact_global_counts(comm, &interned[comm.rank()].ids)
    })
    .fault_free();
    let exact = oracle.results.into_iter().next().unwrap();
    let n: u64 = tokens.iter().map(|t| t.len() as u64).sum();

    // ----- the algorithms, timed and scored -------------------------------
    let mut table = Table::new(
        "Real-text word frequency — oracle-scored algorithm comparison",
        &[
            "algorithm",
            "PEs",
            "wall time",
            "words/PE",
            "sample",
            "abs err",
            "rel err",
            "top words",
        ],
    );

    if matches!(args.algo, AlgoChoice::Auto) {
        // Planner-driven row: plan from the shard's measured skew, execute,
        // score against the same oracle, and print the audit row.
        let mut wall = std::time::Duration::ZERO;
        let mut last = None;
        let mut words_per_rep: Vec<Vec<u64>> = Vec::with_capacity(args.reps);
        for _ in 0..args.reps {
            let out = run_on!(args.backend, World::new(p), |comm| {
                let shard = &interned[comm.rank()];
                let plan = planner::plan_for_data(comm, &shard.ids, args.k, args.epsilon, 1e-3);
                let (score, audit) = run_planned_scored(comm, shard, &plan, args.seed);
                (plan, score, audit)
            })
            .fault_free();
            wall += out.elapsed;
            words_per_rep.push(
                out.results
                    .iter()
                    .map(|(_, _, a)| a.measured_words)
                    .collect(),
            );
            last = out.results.into_iter().next();
        }
        assert!(
            words_per_rep.windows(2).all(|w| w[0] == w[1]),
            "auto: words/PE must be bit-identical across repeated runs"
        );
        let (plan, score, audit) = last.expect("at least one rep");
        if args.plan_explain {
            println!("{}", plan.explain());
        }
        println!("{}", audit.audit_line());
        let top: Vec<&str> = score.top.iter().take(3).map(|(w, _)| w.as_str()).collect();
        table.add_row(vec![
            format!("auto({})", plan.algorithm.token()),
            p.to_string(),
            fmt_duration(wall / args.reps as u32),
            words_per_rep[0].iter().max().unwrap().to_string(),
            score.sample_size.to_string(),
            score.abs_error.to_string(),
            format!("{:.2e}", score.rel_error),
            top.join(" "),
        ]);
    } else {
        let contenders: Vec<Algorithm> = match args.algo {
            AlgoChoice::Fixed(a) => vec![a],
            _ => Algorithm::ALL.to_vec(),
        };
        for algo in contenders {
            let mut wall = std::time::Duration::ZERO;
            let mut result: Option<TopKFrequentResult> = None;
            let mut words_per_rep: Vec<Vec<u64>> = Vec::with_capacity(args.reps);
            for _ in 0..args.reps {
                let out = run_on!(args.backend, World::new(p), |comm| {
                    let before = comm.stats_snapshot();
                    let r = algo.run(comm, &interned[comm.rank()].ids, &params);
                    let words = comm.stats_snapshot().since(&before).bottleneck_words();
                    (r, words)
                })
                .fault_free();
                wall += out.elapsed;
                words_per_rep.push(out.results.iter().map(|(_, w)| *w).collect());
                result = Some(out.results.into_iter().next().unwrap().0);
            }
            assert!(
                words_per_rep.windows(2).all(|w| w[0] == w[1]),
                "{}: words/PE must be bit-identical across repeated runs",
                algo.name()
            );
            let result = result.unwrap();
            let bottleneck = *words_per_rep[0].iter().max().unwrap();
            let reported = result.keys();
            let abs = absolute_error(&exact, &reported);
            let rel = relative_error(&exact, &reported, n);
            let top: Vec<&str> = result
                .items
                .iter()
                .take(3)
                .map(|&(id, _)| interned[0].resolve(id).unwrap_or("?"))
                .collect();
            table.add_row(vec![
                algo.name().to_string(),
                p.to_string(),
                fmt_duration(wall / args.reps as u32),
                bottleneck.to_string(),
                result.sample_size.to_string(),
                abs.to_string(),
                format!("{rel:.2e}"),
                top.join(" "),
            ]);
        }
    }

    table.print();
    println!("{}", table.to_markdown());
    if args.json {
        print!("{}", table.to_json_lines());
    }
    println!(
        "words/PE bit-identical across {} repetitions on the {} backend — \
         reproducibility checked, not assumed.",
        args.reps,
        args.backend.name()
    );
}

struct Args {
    pes: usize,
    log_per_pe: u32,
    vocab: usize,
    zipf: f64,
    k: usize,
    epsilon: f64,
    reps: usize,
    seed: u64,
    text: Option<String>,
    backend: Backend,
    json: bool,
    algo: AlgoChoice,
    plan_explain: bool,
}

impl Args {
    fn from_cli(mut cli: Cli) -> Self {
        let args = Args {
            pes: cli.value("--pes", 8),
            log_per_pe: cli.value("--per-pe", 15),
            vocab: cli.value("--vocab", 4096),
            zipf: cli.value("--zipf", 1.05),
            k: cli.value("--k", 16),
            epsilon: cli.value("--epsilon", 0.03),
            reps: cli.value("--reps", 2),
            seed: cli.value("--seed", 42),
            text: cli.optional("--text"),
            backend: cli.value("--backend", Backend::Threaded),
            json: cli.switch("--json"),
            algo: cli.value("--algo", AlgoChoice::All),
            plan_explain: cli.switch("--plan-explain"),
        };
        cli.finish();
        assert!(args.reps >= 1, "--reps must be at least 1");
        args
    }
}
