//! Figure 6: weak scaling of unsorted selection.
//!
//! The paper selects the k-th largest element from Zipf-high-tail inputs with
//! per-PE randomized distribution parameters, n/p = 2²⁸ elements per PE and
//! k ∈ {2¹⁰, 2²⁰, 2²⁶} on up to 2048 PEs.  The simulated reproduction keeps
//! the *shape* — running time should stay flat or fall as PEs are added,
//! because the work is dominated by local partitioning — with scaled-down
//! sizes: n/p = 2^LOG_PER_PE (default 2¹⁸) and k scaled to the same fraction
//! of the input.
//!
//! ```bash
//! cargo run -p bench --release --bin fig6 -- [--per-pe 18] [--max-pes 16] \
//!     [--min-pes 1] [--reps 3] [--k K] [--backend threaded|seq|mux]
//! ```
//!
//! `--backend mux` multiplexes the PEs over a worker pool, which is what
//! makes massive-p rows (p = 16 384 with a reduced `--per-pe`) finish; the
//! words/PE and startups/PE columns are bit-identical across backends
//! (regression-tested in `tests/mux_backend.rs`).  `--min-pes` skips the
//! small rows of the sweep, so a single big-p row can be produced in CI.
//!
//! `--chaos [--crashes N] [--chaos-seed S] [--ckpt-every C]` runs the
//! selection under the `commsim::recovery` layer instead: a calibration
//! pass places `N` crash-stops at a phase boundary, the chaos pass
//! detects them, regroups the survivors, rolls back to the last
//! checkpoint, and the result is checked against a brute-force oracle
//! over the surviving data.  Prints a one-line `recovery-audit` row.
//! Injected faults run on the replay engine only, so `--chaos` needs
//! `--backend seq|mux` and refuses the threaded default.

use bench::chaos::{run_chaos, RecoverableBody};
use bench::cli::Cli;
use bench::report::fmt_duration;
use bench::scaling::{pe_sweep, Measurement};
use bench::Table;
use commsim::recovery::RecoveryOutcome;
use commsim::{run_on, Backend, Communicator, World};
use datagen::SkewedSelectionInput;
use topk::recover::select_k_smallest_recoverable;
use topk::unsorted::select_k_smallest;

/// One PE's share of the figure-6 workload: generate the skewed local
/// input, then select the k-th largest (via the dual order) cooperatively.
fn fig6_body<C: Communicator>(comm: &C, generator: &SkewedSelectionInput, per_pe: usize, k: usize) {
    let local = generator.generate(comm.rank(), per_pe);
    // The paper selects from the high tail (the k-th *largest*);
    // selecting the k largest = selecting with the dual order.
    let _ = select_k_smallest(
        comm,
        &local.iter().map(|&v| u64::MAX - v).collect::<Vec<_>>(),
        k,
        0xF166 + comm.size() as u64,
    );
}

/// The chaos-mode body: the same selection, repeated `phases` times under
/// the crash-stop recovery driver.
struct Fig6Chaos {
    generator: SkewedSelectionInput,
    per_pe: usize,
    k: usize,
    phases: usize,
    ckpt_every: usize,
}

impl RecoverableBody for Fig6Chaos {
    /// The threshold of each phase.
    type State = Vec<u64>;

    fn run<C: Communicator>(&self, comm: &C) -> RecoveryOutcome<Vec<u64>> {
        let local: Vec<u64> = self
            .generator
            .generate(comm.rank(), self.per_pe)
            .iter()
            .map(|&v| u64::MAX - v)
            .collect();
        let seed = 0xF166 + comm.size() as u64;
        select_k_smallest_recoverable(comm, &local, self.k, seed, self.phases, self.ckpt_every)
            .expect("membership protocol violation")
    }
}

/// `--chaos`: run the selection under the recovery driver with `--crashes`
/// PEs crashed at a phase boundary ([`run_chaos`] prints the
/// `recovery-audit` row), and check the surviving threshold against a
/// brute-force oracle over the survivors' data.
fn chaos(args: &Args) {
    let per_pe = 1usize << args.log_per_pe;
    let p = args.max_pes;
    let k = args.k.unwrap_or(1 << 6).clamp(1, per_pe);
    let phases = args.reps.max(2);
    let body = Fig6Chaos {
        generator: SkewedSelectionInput::default(),
        per_pe,
        k,
        phases,
        ckpt_every: args.ckpt_every,
    };

    println!("Figure 6 chaos mode: unsorted selection under injected crash-stops");
    println!(
        "p = {p}, n/p = {per_pe}, k = {k}, phases = {phases}, crashes = {}, \
         checkpoint every {} phase(s), backend = {}\n",
        args.crashes,
        args.ckpt_every,
        args.backend.name()
    );

    let run = run_chaos(args.backend, p, args.chaos_seed, args.crashes, &body);
    let victims = &run.victims;

    // Brute-force oracle: the final phase's threshold must be the k-th
    // smallest (dual order) of the survivors' pooled data.
    let live = run.survivor().group.clone();
    assert_eq!(
        live.len() + victims.len(),
        p,
        "every PE is live or a victim"
    );
    let mut pooled: Vec<u64> = Vec::with_capacity(live.len() * per_pe);
    for &r in &live {
        pooled.extend(
            body.generator
                .generate(r, per_pe)
                .iter()
                .map(|&v| u64::MAX - v),
        );
    }
    pooled.sort_unstable();
    let expected = pooled[k - 1];
    for &r in &live {
        let res = run.results[r].as_ref().expect("live PE completed");
        assert!(!res.evicted, "no live PE is evicted in this harness");
        let last = *res.state.last().expect("at least one phase ran");
        assert_eq!(
            last, expected,
            "PE {r}: final threshold must equal the brute-force k-th smallest \
             over the surviving data"
        );
    }
    println!(
        "fig6-chaos: OK — {} victim(s) {victims:?}, {} survivor(s) completed \
         {phases} phases; final threshold matches the brute-force oracle over \
         the surviving data (k = {k})",
        victims.len(),
        live.len(),
    );
}

fn main() {
    let args = Args::from_cli(Cli::from_env());
    if args.chaos {
        chaos(&args);
        return;
    }
    let per_pe = 1usize << args.log_per_pe;
    // The paper's k values span tiny to a large fraction of n/p; keep the
    // same spirit relative to the scaled-down input.  `--k` pins a single
    // value instead (massive-p rows, CI smoke).
    let ks: Vec<usize> = match args.k {
        Some(k) => vec![k],
        None => vec![1 << 6, 1 << 10, per_pe / 4],
    };

    println!("Figure 6 reproduction: weak scaling of unsorted selection");
    println!(
        "n/p = 2^{} = {per_pe} elements per PE, skewed per-PE Zipf inputs, k ∈ {ks:?}, \
         backend = {}\n",
        args.log_per_pe,
        args.backend.name()
    );

    let mut table = Table::new(
        "Figure 6 — selection time vs number of PEs",
        &[
            "k",
            "PEs",
            "wall time",
            "words/PE",
            "startups/PE",
            "modeled comm",
        ],
    );

    for &k in &ks {
        for p in pe_sweep(args.min_pes, args.max_pes) {
            if k == 0 || k > p * per_pe {
                // Infeasible point at reduced smoke scales: the global input
                // holds fewer than k elements (or per-pe/4 rounded to 0).
                continue;
            }
            let generator = SkewedSelectionInput::default();
            let reps = (0..args.reps)
                .map(|_| {
                    let out = run_on!(args.backend, World::new(p), |comm| {
                        fig6_body(comm, &generator, per_pe, k)
                    });
                    Measurement::of(&out)
                })
                .collect();
            let m = Measurement::averaged(reps);
            table.add_row(vec![
                k.to_string(),
                p.to_string(),
                fmt_duration(m.wall_time),
                m.bottleneck_words.to_string(),
                m.bottleneck_messages.to_string(),
                format!("{:.1}µs", m.modeled_comm_time * 1e6),
            ]);
        }
    }
    table.print();
    println!("{}", table.to_markdown());
    println!(
        "Expected shape (paper): time is dominated by local partitioning, so it stays\n\
         roughly constant (or falls, for large k) as PEs are added; communication per PE\n\
         stays polylogarithmic and far below n/p."
    );
}

struct Args {
    log_per_pe: u32,
    max_pes: usize,
    min_pes: usize,
    reps: usize,
    k: Option<usize>,
    backend: Backend,
    chaos: bool,
    crashes: usize,
    chaos_seed: u64,
    ckpt_every: usize,
}

impl Args {
    fn from_cli(mut cli: Cli) -> Self {
        let args = Args {
            log_per_pe: cli.value("--per-pe", 18),
            max_pes: cli.value("--max-pes", 16),
            min_pes: cli.value("--min-pes", 1),
            reps: cli.value("--reps", 3),
            k: cli.optional("--k"),
            backend: cli.value("--backend", Backend::Threaded),
            chaos: cli.switch("--chaos"),
            crashes: cli.value("--crashes", 1),
            chaos_seed: cli.value("--chaos-seed", 0xC7A05),
            ckpt_every: cli.value("--ckpt-every", 2),
        };
        cli.finish();
        args
    }
}
