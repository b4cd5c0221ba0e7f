//! The §5 branch-and-bound claim: the parallel best-first search expands
//! `K = m + O(h·p)` nodes, where `m` is the sequential expansion count and
//! `h` the depth of the optimal solution.
//!
//! ```bash
//! cargo run -p bench --release --bin bnb_expansions -- \
//!     [--items 28] [--instances 5] [--min-pes 2] [--max-pes 8] \
//!     [--backend threaded|seq|mux]
//! ```

use bench::cli::Cli;
use bench::{pe_sweep, Table};
use commsim::{run_on, Backend, World};
use topk::{knapsack_branch_bound_parallel, knapsack_branch_bound_sequential, KnapsackInstance};

fn main() {
    let args = Args::from_cli(Cli::from_env());
    println!(
        "Branch-and-bound expansion overhead (K = m + O(hp)), {} random knapsack instances with {} items, backend: {}\n",
        args.instances,
        args.items,
        args.backend.name()
    );

    let mut table = Table::new(
        "Parallel vs sequential node expansions",
        &[
            "instance", "PEs", "optimum", "m (seq.)", "K (par.)", "K − m", "h·p",
        ],
    );

    for seed in 0..args.instances as u64 {
        let instance = KnapsackInstance::random(args.items, 50, 100, seed);
        let dp = instance.optimum_by_dp();
        let sequential = knapsack_branch_bound_sequential(&instance);
        assert_eq!(sequential.optimum, dp);
        let h = instance.len() as u64;

        for p in pe_sweep(args.min_pes, args.max_pes) {
            let instance_ref = instance.clone();
            let out = run_on!(args.backend, World::new(p), move |comm| {
                knapsack_branch_bound_parallel(comm, &instance_ref, 1, seed)
            })
            .fault_free();
            let parallel = out.results[0];
            assert_eq!(parallel.optimum, dp);
            table.add_row(vec![
                seed.to_string(),
                p.to_string(),
                dp.to_string(),
                sequential.expanded.to_string(),
                parallel.expanded.to_string(),
                (parallel.expanded as i64 - sequential.expanded as i64).to_string(),
                (h * p as u64).to_string(),
            ]);
        }
    }

    table.print();
    println!("{}", table.to_markdown());
    println!(
        "Expected shape: K − m stays within a small constant times h·p — the price of\n\
         expanding p-sized batches speculatively — while the communication volume is\n\
         independent of the number of inserted nodes (see the bulk_pq bench)."
    );
}

struct Args {
    items: usize,
    instances: usize,
    min_pes: usize,
    max_pes: usize,
    backend: Backend,
}

impl Args {
    fn from_cli(mut cli: Cli) -> Self {
        let args = Args {
            items: cli.value("--items", 28),
            instances: cli.value("--instances", 5),
            min_pes: cli.value("--min-pes", 2),
            max_pes: cli.value("--max-pes", 8),
            backend: cli.value("--backend", Backend::Threaded),
        };
        cli.finish();
        assert!(args.min_pes >= 1, "--min-pes must be at least 1");
        assert!(
            args.max_pes >= args.min_pes,
            "--max-pes must be at least --min-pes"
        );
        args
    }
}
