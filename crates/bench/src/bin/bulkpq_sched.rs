//! Multi-round bulk-queue job scheduling (§5): a job scheduler drives the
//! bulk-parallel priority queue round after round — skewed and bursty
//! arrival streams, fixed (`delete_min`) and flexible
//! (`delete_min_flexible`) batches — and reports per-scenario throughput,
//! backlog and communication volume over a weak-scaling PE sweep.
//!
//! The flexible-batch path is the star: Theorem 5 promises a single
//! communication round in expectation when the batch band is wide, and the
//! words/PE column shows exactly that against the fixed-batch baseline.
//! Repeated runs are asserted to move a bit-identical number of words per PE.
//!
//! ```bash
//! cargo run -p bench --release --bin bulkpq_sched -- \
//!     [--max-pes 8] [--rounds 8] [--jobs 4096] [--batch 1024] \
//!     [--reps 2] [--seed 7] [--backend threaded|seq|mux] [--json]
//! ```

use bench::report::fmt_duration;
use bench::scaling::pe_sweep;
use bench::Table;
use commsim::{run_on, Backend, World};
use workloads::sched::{
    run_scheduler, ArrivalPattern, BatchPolicy, SchedulerOutcome, SchedulerParams,
};

fn main() {
    let args = Args::parse();
    let batch = args.batch;
    // The four scenarios: arrival skew stresses the local-insertion
    // property, the flexible band stresses the single-round selection.
    let scenarios: Vec<(&str, BatchPolicy, ArrivalPattern)> = vec![
        (
            "fixed/uniform",
            BatchPolicy::Fixed(batch),
            ArrivalPattern::Uniform,
        ),
        (
            "fixed/skewed",
            BatchPolicy::Fixed(batch),
            ArrivalPattern::Skewed,
        ),
        (
            "flex/skewed",
            BatchPolicy::Flexible {
                lo: batch / 2,
                hi: batch,
            },
            ArrivalPattern::Skewed,
        ),
        (
            "flex/bursty",
            BatchPolicy::Flexible {
                lo: batch / 2,
                hi: batch,
            },
            ArrivalPattern::Bursty {
                period: 4,
                factor: 4,
            },
        ),
    ];

    println!(
        "Bulk-queue scheduling: {} rounds/run, {} jobs/round, batch {batch}",
        args.rounds, args.jobs
    );
    println!("backend: {:?}\n", args.backend);

    let mut table = Table::new(
        "Bulk-queue scheduling — per-scenario weak scaling",
        &[
            "scenario",
            "PEs",
            "wall time",
            "words/PE",
            "jobs done",
            "backlog",
            "min batch",
            "max batch",
        ],
    );

    for (name, batch_policy, arrival) in &scenarios {
        for p in pe_sweep(args.max_pes) {
            let params = SchedulerParams {
                rounds: args.rounds,
                jobs_per_round: args.jobs,
                batch: *batch_policy,
                arrival: *arrival,
                seed: args.seed,
            };
            let mut wall = std::time::Duration::ZERO;
            let mut outcomes: Option<Vec<SchedulerOutcome>> = None;
            let mut words_per_rep: Vec<Vec<u64>> = Vec::with_capacity(args.reps);
            for _ in 0..args.reps {
                let out = run_on!(args.backend, World::new(p), |comm| run_scheduler(
                    comm, &params
                ))
                .fault_free();
                wall += out.elapsed;
                words_per_rep.push(
                    out.results
                        .iter()
                        .map(SchedulerOutcome::total_words)
                        .collect(),
                );
                outcomes = Some(out.results);
            }
            assert!(
                words_per_rep.windows(2).all(|w| w[0] == w[1]),
                "{name} p={p}: words/PE must be bit-identical across repeated runs"
            );
            let outcomes = outcomes.unwrap();
            let throughput = SchedulerOutcome::global_throughput(&outcomes);
            let completed: usize = throughput.iter().sum();
            let backlog = outcomes[0].rounds.last().unwrap().backlog;
            let bottleneck = *words_per_rep[0].iter().max().unwrap();
            table.add_row(vec![
                name.to_string(),
                p.to_string(),
                fmt_duration(wall / args.reps as u32),
                bottleneck.to_string(),
                completed.to_string(),
                backlog.to_string(),
                throughput.iter().min().unwrap().to_string(),
                throughput.iter().max().unwrap().to_string(),
            ]);
        }
    }

    table.print();
    println!("{}", table.to_markdown());
    if args.json {
        print!("{}", table.to_json_lines());
    }
    println!(
        "Insertions are communication-free no matter how skewed the arrivals (the §5 \
         property); the flexible band halves the selection's communication rounds.\n\
         words/PE bit-identical across {} repetitions on the {:?} backend.",
        args.reps, args.backend
    );
}

struct Args {
    max_pes: usize,
    rounds: usize,
    jobs: usize,
    batch: usize,
    reps: usize,
    seed: u64,
    backend: Backend,
    json: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            max_pes: 8,
            rounds: 8,
            jobs: 4096,
            batch: 1024,
            reps: 2,
            seed: 7,
            backend: Backend::Threaded,
            json: false,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--max-pes" => {
                    args.max_pes = argv[i + 1].parse().expect("--max-pes takes a number");
                    i += 2;
                }
                "--rounds" => {
                    args.rounds = argv[i + 1].parse().expect("--rounds takes a number");
                    i += 2;
                }
                "--jobs" => {
                    args.jobs = argv[i + 1].parse().expect("--jobs takes a number");
                    i += 2;
                }
                "--batch" => {
                    args.batch = argv[i + 1].parse().expect("--batch takes a number");
                    i += 2;
                }
                "--reps" => {
                    args.reps = argv[i + 1].parse().expect("--reps takes a number");
                    i += 2;
                }
                "--seed" => {
                    args.seed = argv[i + 1].parse().expect("--seed takes a number");
                    i += 2;
                }
                "--backend" => {
                    args.backend = Backend::parse(&argv[i + 1]);
                    i += 2;
                }
                "--json" => {
                    args.json = true;
                    i += 1;
                }
                other => panic!("unknown argument {other}"),
            }
        }
        assert!(args.reps >= 1, "--reps must be at least 1");
        assert!(args.batch >= 2, "--batch must be at least 2");
        args
    }
}
