//! Figures 7a/7b: weak scaling of the top-k most frequent objects algorithms
//! at moderate accuracy (ε = 3·10⁻⁴, δ = 10⁻⁴, k = 32).
//!
//! The paper compares PAC, EC, Naive and Naive Tree on Zipf-distributed
//! inputs with n/p = 2²⁶ (7a) and 2²⁸ (7b) elements per PE.  The expected
//! shape: Naive degrades linearly with p (the coordinator receives p−1
//! messages), Naive Tree flattens but is dominated by communication, PAC
//! scales nearly perfectly, and EC pays a constant exact-counting overhead
//! that makes it slower at this (loose) accuracy.
//!
//! ```bash
//! cargo run -p bench --release --bin fig7 -- [--per-pe 18] [--max-pes 16] \
//!     [--min-pes 1] [--reps 2] [--eps-cap 0.05] [--epsilon E] \
//!     [--backend threaded|seq|mux] \
//!     [--algo pac|ec|pec|naive|naive-tree|all|auto] [--plan-explain]
//! ```
//!
//! `--backend mux` runs the PEs as cooperative tasks over a worker pool
//! (massive-p rows at reduced `--per-pe`); words/PE and startups/PE are
//! bit-identical across backends.
//!
//! `--algo auto` hands the dispatch to the cost-model planner
//! ([`topk::planner`]): each cell measures the input's skew, predicts every
//! algorithm's words/PE and start-ups from the closed-form cost formulas,
//! runs the argmin, and prints a `plan-audit` row (prediction vs metered
//! reality); `--plan-explain` additionally prints each cell's full candidate
//! table.
//!
//! `--chaos [--crashes N] [--chaos-seed S] [--ckpt-every C]` runs the
//! frequent-objects facade under the `commsim::recovery` layer (default
//! algorithm EC, whose exact counts admit a brute-force oracle): a
//! calibration pass places `N` crash-stops at a phase boundary, the chaos
//! pass regroups the survivors and rolls back to the last checkpoint, and
//! the published counts are checked against a brute-force count over the
//! surviving data.  Prints a parseable `recovery-audit` row.

use bench::chaos::{run_chaos, RecoverableBody};
use bench::planning::{print_audit, print_plan};
use bench::report::fmt_duration;
use bench::scaling::{pe_sweep, scaled_epsilon, Measurement};
use bench::{AlgoChoice, Table};
use commsim::recovery::RecoveryOutcome;
use commsim::{run_on, Backend, Communicator, World};
use datagen::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use topk::planner::{Algorithm, Planner};
use topk::recover::{run_frequent_recoverable, FrequentCheckpoint};
use topk::FrequentParams;

/// The chaos-mode body: the frequent-objects facade, repeated `phases`
/// times under the crash-stop recovery driver.
struct Fig7Chaos<'a> {
    algo: Algorithm,
    per_pe: usize,
    params: &'a FrequentParams,
    phases: usize,
    ckpt_every: usize,
}

impl RecoverableBody for Fig7Chaos<'_> {
    type State = FrequentCheckpoint;

    fn run<C: Communicator>(&self, comm: &C) -> RecoveryOutcome<FrequentCheckpoint> {
        let local = local_input(comm.rank(), self.per_pe);
        run_frequent_recoverable(
            comm,
            self.algo,
            &local,
            self.params,
            self.phases,
            self.ckpt_every,
        )
        .expect("membership protocol violation")
    }
}

/// `--chaos`: run the frequent-objects facade under the recovery driver
/// with `--crashes` PEs crashed at a phase boundary ([`run_chaos`] prints
/// the `recovery-audit` row), and (for the exact-counting algorithms) check
/// the published counts against a brute-force count over the survivors'
/// data.
fn chaos(args: &Args, per_pe: usize, params: &FrequentParams) {
    let p = args.max_pes;
    // EC by default: its exact counts make the brute-force oracle apply to
    // every published item regardless of which candidates were sampled.
    let algo = match args.algo {
        AlgoChoice::Fixed(a) => a,
        _ => Algorithm::Ec,
    };
    let phases = args.reps.max(2);

    println!("Figure 7 chaos mode: top-k frequent objects under injected crash-stops");
    println!(
        "algorithm = {}, p = {p}, n/p = {per_pe}, k = {}, phases = {phases}, \
         crashes = {}, checkpoint every {} phase(s), backend = {}\n",
        algo.name(),
        params.k,
        args.crashes,
        args.ckpt_every,
        args.backend.name()
    );

    let body = Fig7Chaos {
        algo,
        per_pe,
        params,
        phases,
        ckpt_every: args.ckpt_every,
    };
    let run = run_chaos(args.backend, p, args.chaos_seed, args.crashes, &body);
    let victims = &run.victims;
    let survivor = run.survivor();

    // Oracles.  Completion + agreement always: every live PE ran all
    // phases and the final published list is identical group-wide.
    let live = survivor.group.clone();
    assert_eq!(
        live.len() + victims.len(),
        p,
        "every PE is live or a victim"
    );
    let last = survivor.state.published.last().expect("at least one phase");
    for &r in &live {
        let res = run.results[r].as_ref().expect("live PE completed");
        assert!(!res.evicted, "no live PE is evicted in this harness");
        assert_eq!(res.state.published.len(), phases, "PE {r} ran all phases");
        assert_eq!(
            res.state.published.last().expect("at least one phase"),
            last,
            "PE {r}: final published list must agree group-wide"
        );
    }
    // Exact-count oracle (EC/PEC): each published count must equal the
    // brute-force count over the survivors' pooled data.
    if matches!(algo, Algorithm::Ec | Algorithm::Pec) {
        let mut brute: HashMap<u64, u64> = HashMap::new();
        for &r in &live {
            for v in local_input(r, per_pe) {
                *brute.entry(v).or_insert(0) += 1;
            }
        }
        for &(id, count) in last {
            assert_eq!(
                brute.get(&id).copied().unwrap_or(0),
                count,
                "object {id}: published count must equal the brute-force \
                 count over the surviving data"
            );
        }
    }
    println!(
        "fig7-chaos: OK — {} victim(s) {victims:?}, {} survivor(s) completed \
         {phases} phases with a group-wide identical top-{} list{}",
        victims.len(),
        live.len(),
        params.k,
        if matches!(algo, Algorithm::Ec | Algorithm::Pec) {
            "; exact counts match the brute-force oracle over the surviving data"
        } else {
            ""
        },
    );
}

fn main() {
    let args = Args::parse();
    let per_pe = 1usize << args.log_per_pe;
    // Scaled-down accuracy: the paper's ε = 3·10⁻⁴ at n/p = 2²⁸; we keep the
    // sample-to-input ratio comparable at the reduced size by scaling ε with
    // the square root of the size reduction.  The cap is a CLI flag and
    // *announces* itself when it binds — a silently flattened ε distorts the
    // weak-scaling curve at quick scales (ISSUE 4).
    let scaled = scaled_epsilon(3e-4, 28, args.log_per_pe, args.eps_cap);
    let epsilon = match args.epsilon {
        Some(e) => e,
        None => {
            scaled.warn_if_capped("fig7");
            scaled.value
        }
    };
    let params = FrequentParams::new(32, epsilon, 1e-4, 0xF17);
    if args.chaos {
        chaos(&args, per_pe, &params);
        return;
    }

    println!("Figure 7 reproduction: top-32 most frequent objects, moderate accuracy");
    println!(
        "n/p = 2^{} = {per_pe}, Zipf(1.0) over 2^20 values, ε = {epsilon:.2e}, δ = 1e-4, \
         backend = {}\n",
        args.log_per_pe,
        args.backend.name()
    );

    let mut table = Table::new(
        "Figure 7 — running time vs number of PEs",
        &[
            "algorithm",
            "PEs",
            "wall time",
            "words/PE",
            "startups/PE",
            "sample",
        ],
    );

    let pes: Vec<usize> = pe_sweep(args.max_pes)
        .into_iter()
        .filter(|&p| p >= args.min_pes)
        .collect();

    match args.algo {
        AlgoChoice::Auto => {
            for &p in &pes {
                let mut last = None;
                let reps = (0..args.reps)
                    .map(|_| {
                        let out = run_on!(args.backend, World::new(p), |comm| {
                            let local = local_input(comm.rank(), per_pe);
                            let plan =
                                Planner::default().plan_for_data(comm, &local, 32, epsilon, 1e-4);
                            let (result, audit) = plan.execute(comm, &local, 0xF17);
                            (plan, audit, result.sample_size)
                        });
                        let m = Measurement::of(&out);
                        last = out.results.into_iter().next().flatten();
                        m
                    })
                    .collect();
                let m = Measurement::averaged(reps);
                let (plan, audit, sample) = last.expect("at least one rep");
                if args.plan_explain {
                    print_plan(&plan);
                }
                print_audit(&audit);
                table.add_row(vec![
                    format!("auto({})", plan.algorithm.token()),
                    p.to_string(),
                    fmt_duration(m.wall_time),
                    m.bottleneck_words.to_string(),
                    m.bottleneck_messages.to_string(),
                    sample.to_string(),
                ]);
            }
        }
        _ => {
            let contenders: Vec<Algorithm> = match args.algo {
                AlgoChoice::Fixed(a) => vec![a],
                // The paper's Figure 7 panel; PEC is reachable via --algo pec.
                _ => vec![
                    Algorithm::Pac,
                    Algorithm::Ec,
                    Algorithm::Naive,
                    Algorithm::NaiveTree,
                ],
            };
            for &algo in &contenders {
                for &p in &pes {
                    let sample = std::sync::atomic::AtomicU64::new(0);
                    let reps = (0..args.reps)
                        .map(|_| {
                            let out = run_on!(args.backend, World::new(p), |comm| {
                                let local = local_input(comm.rank(), per_pe);
                                let s = algo.run(comm, &local, &params).sample_size;
                                sample.store(s, std::sync::atomic::Ordering::Relaxed);
                            });
                            Measurement::of(&out)
                        })
                        .collect();
                    let m = Measurement::averaged(reps);
                    table.add_row(vec![
                        algo.name().to_string(),
                        p.to_string(),
                        fmt_duration(m.wall_time),
                        m.bottleneck_words.to_string(),
                        m.bottleneck_messages.to_string(),
                        sample
                            .load(std::sync::atomic::Ordering::Relaxed)
                            .to_string(),
                    ]);
                }
            }
        }
    }
    table.print();
    println!("{}", table.to_markdown());
    println!(
        "Expected shape (paper Fig. 7): Naive's coordinator traffic grows ~linearly with p;\n\
         Naive Tree improves on it but stays communication-bound; PAC scales nearly\n\
         perfectly; EC pays a constant exact-counting cost that dominates at this loose\n\
         accuracy (its advantage appears in Figure 8)."
    );
}

/// Zipf(1.0) input over 2^20 possible values, per-PE deterministic.
fn local_input(rank: usize, per_pe: usize) -> Vec<u64> {
    let zipf = Zipf::new(1 << 20, 1.0);
    let mut rng = StdRng::seed_from_u64(0xF17_0000 + rank as u64);
    zipf.sample_many(per_pe, &mut rng)
}

struct Args {
    log_per_pe: u32,
    max_pes: usize,
    min_pes: usize,
    reps: usize,
    eps_cap: f64,
    epsilon: Option<f64>,
    backend: Backend,
    algo: AlgoChoice,
    plan_explain: bool,
    chaos: bool,
    crashes: usize,
    chaos_seed: u64,
    ckpt_every: usize,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            log_per_pe: 18,
            max_pes: 16,
            min_pes: 1,
            reps: 2,
            eps_cap: 0.05,
            epsilon: None,
            backend: Backend::Threaded,
            algo: AlgoChoice::All,
            plan_explain: false,
            chaos: false,
            crashes: 1,
            chaos_seed: 0xC7A05,
            ckpt_every: 2,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--per-pe" => {
                    args.log_per_pe = argv[i + 1].parse().expect("--per-pe takes a log2 size");
                    i += 2;
                }
                "--max-pes" => {
                    args.max_pes = argv[i + 1].parse().expect("--max-pes takes a number");
                    i += 2;
                }
                "--min-pes" => {
                    args.min_pes = argv[i + 1].parse().expect("--min-pes takes a number");
                    i += 2;
                }
                "--reps" => {
                    args.reps = argv[i + 1].parse().expect("--reps takes a number");
                    i += 2;
                }
                "--eps-cap" => {
                    args.eps_cap = argv[i + 1].parse().expect("--eps-cap takes a float");
                    i += 2;
                }
                "--epsilon" => {
                    args.epsilon = Some(argv[i + 1].parse().expect("--epsilon takes a float"));
                    i += 2;
                }
                "--backend" => {
                    args.backend = Backend::parse(&argv[i + 1]);
                    i += 2;
                }
                "--algo" => {
                    args.algo = AlgoChoice::parse(&argv[i + 1]);
                    i += 2;
                }
                "--plan-explain" => {
                    args.plan_explain = true;
                    i += 1;
                }
                "--chaos" => {
                    args.chaos = true;
                    i += 1;
                }
                "--crashes" => {
                    args.crashes = argv[i + 1].parse().expect("--crashes takes a number");
                    i += 2;
                }
                "--chaos-seed" => {
                    args.chaos_seed = argv[i + 1].parse().expect("--chaos-seed takes a number");
                    i += 2;
                }
                "--ckpt-every" => {
                    args.ckpt_every = argv[i + 1]
                        .parse()
                        .expect("--ckpt-every takes a phase count");
                    i += 2;
                }
                other => panic!("unknown argument {other}"),
            }
        }
        args
    }
}
