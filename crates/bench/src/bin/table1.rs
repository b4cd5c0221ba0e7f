//! Table 1: measured communication cost of every algorithm vs. its baseline.
//!
//! The paper's Table 1 states asymptotic running times "old vs new".  This
//! binary produces the measured analogue on the simulated machine: for every
//! problem it runs the communication-efficient algorithm and the natural
//! non-communication-efficient baseline on the same input and reports the
//! bottleneck communication volume, the number of start-ups, and the modeled
//! `α·startups + β·words` time for both, so the claimed separations can be
//! checked line by line.
//!
//! ```bash
//! cargo run -p bench --release --bin table1 -- [--quick] \
//!     [--section all|unsorted|sorted|pq|frequent|sumagg|multicriteria|redistribution] \
//!     [--backend threaded|seq|mux] \
//!     [--algo pac|ec|pec|naive|naive-tree|all|auto] [--plan-explain]
//! ```
//!
//! `--quick` (or `TABLE1_QUICK=1`) shrinks the instance to a CI-friendly
//! smoke size; the separations stay visible, the absolute numbers shrink.
//! The metered words/startups columns are bit-identical on every backend;
//! only the wall-time column depends on `--backend`.
//!
//! `--algo` applies to the `frequent` section only: `auto` replaces the
//! hand-picked PAC/EC/Naive rows with the cost-model planner's choice and
//! prints a `plan-audit` row (plus the candidate table under
//! `--plan-explain`); a concrete token runs just that algorithm.

use bench::planning::{print_audit, print_plan};
use bench::report::fmt_duration;
use bench::{AlgoChoice, Measurement, Table};
use commsim::{run_on, Backend, Communicator, World};
use datagen::{MulticriteriaWorkload, SkewedSelectionInput, UniformInput, WeightedZipfInput, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topk::multicriteria::{dta_top_k, LocalMulticriteria};
use topk::planner::{Algorithm, Planner};
use topk::{
    approx_multisequence_select, multisequence_select, redistribute, select_k_smallest, sum_top_k,
    BulkParallelQueue, FrequentParams,
};

/// Instance size shared by every section of the table.
#[derive(Clone, Copy)]
struct Scale {
    /// Number of simulated PEs.
    p: usize,
    /// Elements per PE.
    per_pe: usize,
    /// Selection rank / result size.
    k: usize,
}

impl Scale {
    /// The paper-shaped default instance.
    const FULL: Scale = Scale {
        p: 16,
        per_pe: 1 << 17,
        k: 1 << 10,
    };
    /// CI smoke instance: same code paths, seconds instead of minutes.
    const QUICK: Scale = Scale {
        p: 4,
        per_pe: 1 << 12,
        k: 1 << 6,
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick")
        || std::env::var("TABLE1_QUICK").is_ok_and(|v| v != "0");
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let backend_pos = args.iter().position(|a| a == "--backend");
    let backend = backend_pos
        .map(|i| Backend::parse(args.get(i + 1).expect("--backend takes threaded|seq|mux")))
        .unwrap_or(Backend::Threaded);
    let algo_pos = args.iter().position(|a| a == "--algo");
    let algo = algo_pos
        .map(|i| AlgoChoice::parse(args.get(i + 1).expect("--algo takes an algorithm token")))
        .unwrap_or(AlgoChoice::All);
    let plan_explain = args.iter().any(|a| a == "--plan-explain");
    let section = args
        .iter()
        .position(|a| a == "--section")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            // Positional section name; skip the values that belong to
            // `--backend`/`--algo` so `table1 --backend seq` does not read
            // "seq" as a section.
            args.iter()
                .enumerate()
                .find(|&(i, a)| {
                    !a.starts_with("--")
                        && Some(i) != backend_pos.map(|b| b + 1)
                        && Some(i) != algo_pos.map(|b| b + 1)
                })
                .map(|(_, a)| a.clone())
        })
        .unwrap_or_default();
    let want = |name: &str| section.is_empty() || section == "all" || section == name;

    let Scale { p, per_pe, k } = scale;
    println!(
        "Table 1 reproduction: measured communication cost, {p} PEs, n/p = {per_pe}, k = {k}, backend: {}\n",
        backend.name()
    );
    let mut table = Table::new(
        "Table 1 — bottleneck communication, old (baseline) vs new (this paper)",
        &[
            "problem",
            "algorithm",
            "words/PE",
            "startups/PE",
            "modeled comm",
            "wall time",
        ],
    );

    if want("unsorted") {
        unsorted_selection(&mut table, scale, backend);
    }
    if want("sorted") {
        sorted_selection(&mut table, scale, backend);
    }
    if want("pq") {
        bulk_priority_queue(&mut table, scale, backend);
    }
    if want("frequent") {
        top_k_frequent(&mut table, scale, backend, algo, plan_explain);
    }
    if want("sumagg") {
        sum_aggregation(&mut table, scale, backend);
    }
    if want("multicriteria") {
        multicriteria(&mut table, scale, backend);
    }
    if want("redistribution") {
        redistribution(&mut table, scale, backend);
    }

    table.print();
    println!("{}", table.to_markdown());
}

fn add(table: &mut Table, problem: &str, algorithm: &str, m: Measurement) {
    table.add_row(vec![
        problem.to_string(),
        algorithm.to_string(),
        m.bottleneck_words.to_string(),
        m.bottleneck_messages.to_string(),
        format!("{:.1}µs", m.modeled_comm_time * 1e6),
        fmt_duration(m.wall_time),
    ]);
}

/// §4.1 — new: Algorithm 1; old: gather everything onto one PE.
fn unsorted_selection(table: &mut Table, s: Scale, backend: Backend) {
    let generator = SkewedSelectionInput::default();
    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate(comm.rank(), s.per_pe);
        let _ = select_k_smallest(comm, &local, s.k, 1);
    }));
    add(table, "unsorted selection", "new: Algorithm 1", m);

    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate(comm.rank(), s.per_pe);
        // Baseline: ship all data to PE 0 and select there.
        let gathered = comm.gather(0, local);
        if let Some(parts) = gathered {
            let mut all: Vec<u64> = parts.into_iter().flatten().collect();
            let mut rng = StdRng::seed_from_u64(1);
            let _ = seqkit::select::quickselect(&mut all, s.k - 1, &mut rng);
        }
    }));
    add(table, "unsorted selection", "old: gather to one PE", m);
}

/// §4.2/§4.3 — exact multisequence selection vs the flexible-k variant
/// (the "old vs new" here is the latency: O(log² kp) vs O(log kp) rounds).
fn sorted_selection(table: &mut Table, s: Scale, backend: Backend) {
    let generator = UniformInput::new(1 << 30, 2);
    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate_sorted(comm.rank(), s.per_pe);
        let _ = multisequence_select(comm, &local, s.k, 3);
    }));
    add(table, "sorted selection", "exact k (Algorithm 9)", m);

    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate_sorted(comm.rank(), s.per_pe);
        let _ = approx_multisequence_select(comm, &local, s.k as u64, 2 * s.k as u64, 3);
    }));
    add(table, "sorted selection", "flexible k (Algorithm 2)", m);
}

/// §5 — bulk queue: local insertion + selection-based deleteMin* vs a queue
/// that sends every inserted element to a random PE (the prior approach).
fn bulk_priority_queue(table: &mut Table, s: Scale, backend: Backend) {
    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let mut q = BulkParallelQueue::new(comm);
        let rank = comm.rank() as u64;
        q.insert_bulk((0..s.per_pe as u64 / 8).map(|i| i * 17 + rank));
        let _ = q.delete_min(comm, s.k, 5);
    }));
    add(
        table,
        "bulk priority queue",
        "new: local inserts + deleteMin*",
        m,
    );

    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        // Baseline: every inserted element is sent to a random PE first
        // (the element-moving design of earlier parallel queues).
        let rank = comm.rank() as u64;
        let p = comm.size();
        let mut rng = StdRng::seed_from_u64(7 + rank);
        let mut per_dest: Vec<Vec<u64>> = vec![Vec::new(); p];
        for i in 0..s.per_pe as u64 / 8 {
            let value = i * 17 + rank;
            per_dest[rand::Rng::gen_range(&mut rng, 0..p)].push(value);
        }
        let received: Vec<u64> = comm.alltoall(per_dest).into_iter().flatten().collect();
        let mut q = BulkParallelQueue::new(comm);
        q.insert_bulk(received);
        let _ = q.delete_min(comm, s.k, 5);
    }));
    add(
        table,
        "bulk priority queue",
        "old: random element placement",
        m,
    );
}

/// §7 — PAC and EC vs the centralized Naive baseline; `--algo` swaps the
/// fixed panel for the planner's choice (`auto`) or a single algorithm.
fn top_k_frequent(
    table: &mut Table,
    s: Scale,
    backend: Backend,
    algo: AlgoChoice,
    plan_explain: bool,
) {
    let params = FrequentParams::new(32, 3e-3, 1e-3, 11);
    let input = |rank: usize| {
        let zipf = Zipf::new(1 << 16, 1.0);
        let mut rng = StdRng::seed_from_u64(0x7AB1E + rank as u64);
        zipf.sample_many(s.per_pe, &mut rng)
    };
    match algo {
        AlgoChoice::Auto => {
            let out = run_on!(backend, World::new(s.p), |comm| {
                let local = input(comm.rank());
                let plan = Planner::default().plan_for_data(comm, &local, 32, 3e-3, 1e-3);
                let (_, audit) = plan.execute(comm, &local, 11);
                (plan, audit)
            });
            let m = Measurement::of(&out);
            let (plan, audit) = out.fault_free().results.swap_remove(0);
            if plan_explain {
                print_plan(&plan);
            }
            print_audit(&audit);
            add(
                table,
                "top-k most frequent",
                &format!("auto({})", plan.algorithm.token()),
                m,
            );
        }
        _ => {
            let contenders: Vec<(&str, Algorithm)> = match algo {
                AlgoChoice::Fixed(a) => vec![(a.name(), a)],
                _ => vec![
                    ("new: PAC", Algorithm::Pac),
                    ("new: EC", Algorithm::Ec),
                    ("old: Naive (centralized)", Algorithm::Naive),
                ],
            };
            for &(label, a) in &contenders {
                let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
                    let local = input(comm.rank());
                    let _ = a.run(comm, &local, &params);
                }));
                add(table, "top-k most frequent", label, m);
            }
        }
    }
}

/// §8 — sampled sum aggregation vs exchanging every distinct key's sum.
fn sum_aggregation(table: &mut Table, s: Scale, backend: Backend) {
    let params = FrequentParams::new(32, 3e-3, 1e-3, 13);
    let generator = WeightedZipfInput::new(1 << 16, 1.0, 10.0, 17);
    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate(comm.rank(), s.per_pe);
        let _ = sum_top_k(comm, &local, &params);
    }));
    add(
        table,
        "top-k sum aggregation",
        "new: sampled (Theorem 15)",
        m,
    );

    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local = generator.generate(comm.rank(), s.per_pe);
        // Baseline: aggregate every distinct key exactly at a coordinator.
        let agg = seqkit::hashagg::sum_by_key(local.iter().copied());
        let pairs: Vec<(u64, u64)> = agg.into_iter().map(|(k, v)| (k, v.to_bits())).collect();
        let gathered = comm.gather(0, pairs);
        if let Some(parts) = gathered {
            let mut merged: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
            for (k, bits) in parts.into_iter().flatten() {
                *merged.entry(k).or_insert(0.0) += f64::from_bits(bits);
            }
            let _ = seqkit::hashagg::top_k_by_sum(&merged, 32);
        }
    }));
    add(
        table,
        "top-k sum aggregation",
        "old: exact centralized aggregation",
        m,
    );
}

/// §6 — DTA vs shipping every list to a coordinator.
fn multicriteria(table: &mut Table, s: Scale, backend: Backend) {
    let objects = if s.per_pe >= 1 << 17 {
        1 << 14
    } else {
        1 << 10
    };
    let workload = MulticriteriaWorkload::new(objects, 3, 0.6, 19);
    let per_pe = workload.local_lists(s.p);
    let additive = MulticriteriaWorkload::additive_score;

    let lists = per_pe.clone();
    let m = Measurement::of(&run_on!(backend, World::new(s.p), move |comm| {
        let local = LocalMulticriteria::new(lists[comm.rank()].clone());
        let _ = dta_top_k(comm, &local, &additive, 32, 23);
    }));
    add(table, "multicriteria top-k", "new: DTA (Algorithm 3)", m);

    let lists = per_pe.clone();
    let m = Measurement::of(&run_on!(backend, World::new(s.p), move |comm| {
        // Baseline: a master–worker threshold algorithm — every PE ships its
        // complete lists to the coordinator, which solves sequentially.
        let local = &lists[comm.rank()];
        let flat: Vec<Vec<(u64, u64)>> = local
            .iter()
            .map(|l| l.iter().map(|(o, s)| (o, s.to_bits())).collect())
            .collect();
        let gathered = comm.gather(0, flat);
        if let Some(parts) = gathered {
            let m_criteria = parts[0].len();
            let mut merged: Vec<Vec<(u64, f64)>> = vec![Vec::new(); m_criteria];
            for pe_lists in parts {
                for (i, list) in pe_lists.into_iter().enumerate() {
                    merged[i].extend(list.into_iter().map(|(o, bits)| (o, f64::from_bits(bits))));
                }
            }
            let lists: Vec<seqkit::ScoreList> =
                merged.into_iter().map(seqkit::ScoreList::new).collect();
            let ta = seqkit::ThresholdAlgorithm::new(&lists, additive);
            let _ = ta.run(32);
        }
    }));
    add(table, "multicriteria top-k", "old: master–worker TA", m);
}

/// §9 — adaptive redistribution vs unconditional all-to-all rebalancing.
/// The input is mildly unbalanced (±5% around the target), which is the
/// common case after a selection: the adaptive algorithm moves only the small
/// surplus, the baseline reshuffles everything.
fn redistribution(table: &mut Table, s: Scale, backend: Backend) {
    let imbalance = s.per_pe / 80;
    let local_size = move |rank: usize| {
        if rank % 2 == 0 {
            s.per_pe / 4 + imbalance
        } else {
            s.per_pe / 4 - imbalance
        }
    };
    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local: Vec<u64> = (0..local_size(comm.rank()) as u64).collect();
        let _ = redistribute(comm, local);
    }));
    add(
        table,
        "data redistribution",
        "new: adaptive prefix-sum matching (§9)",
        m,
    );

    let m = Measurement::of(&run_on!(backend, World::new(s.p), |comm| {
        let local: Vec<u64> = (0..local_size(comm.rank()) as u64).collect();
        // Baseline: round-robin all-to-all regardless of need.
        let p = comm.size();
        let mut per_dest: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (i, v) in local.into_iter().enumerate() {
            per_dest[i % p].push(v);
        }
        let _: Vec<u64> = comm.alltoall(per_dest).into_iter().flatten().collect();
    }));
    add(
        table,
        "data redistribution",
        "old: unconditional all-to-all",
        m,
    );
}
