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
//!     [--reps 2] [--seed 7] [--backend threaded|seq|mux]
//! ```

use bench::cli::Cli;
use bench::report::fmt_duration;
use bench::scaling::pe_sweep;
use bench::Table;
use commsim::{run_on, Backend, World};
use workloads::sched::{
    run_scheduler, ArrivalPattern, BatchPolicy, SchedulerOutcome, SchedulerParams,
};

fn main() {
    let args = Args::from_cli(Cli::from_env());
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
    println!("backend: {}\n", args.backend.name());

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
        for p in pe_sweep(1, args.max_pes) {
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
    println!(
        "Insertions are communication-free no matter how skewed the arrivals (the §5 \
         property); the flexible band halves the selection's communication rounds.\n\
         words/PE bit-identical across {} repetitions on the {} backend.",
        args.reps,
        args.backend.name()
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
}

impl Args {
    fn from_cli(mut cli: Cli) -> Self {
        let args = Args {
            max_pes: cli.value("--max-pes", 8),
            rounds: cli.value("--rounds", 8),
            jobs: cli.value("--jobs", 4096),
            batch: cli.value("--batch", 1024),
            reps: cli.value("--reps", 2),
            seed: cli.value("--seed", 7),
            backend: cli.value("--backend", Backend::Threaded),
        };
        cli.finish();
        assert!(args.reps >= 1, "--reps must be at least 1");
        assert!(args.batch >= 2, "--batch must be at least 2");
        args
    }
}
