//! Finding the most frequent words in a distributed corpus
//! (the paper's Section 7 / Figure 4 scenario).
//!
//! Each PE holds a shard of a synthetic "corpus" whose word frequencies
//! follow Zipf's law; the example runs all four algorithms the paper
//! evaluates (PAC, EC, the Naive baseline and Naive Tree) plus the
//! probably-exactly-correct variant, and compares their answers and
//! communication volume against the exact counts.
//!
//! The per-PE shards are generated **once, up front**, and only the
//! algorithm call runs inside the timed SPMD region: an earlier version
//! sampled the Zipf corpus inside the closure, so the "wall time" column
//! mostly measured input generation (identical for every algorithm) rather
//! than the algorithms being compared.
//!
//! For real *text* (string keys instead of synthetic ids) see the
//! `text_wordfreq` example and the `workloads` crate.
//!
//! ```bash
//! cargo run --release --example word_frequency
//! ```

use topk_selection::prelude::*;
use topk_selection::topk::frequent::{exact_global_counts, relative_error};

fn main() {
    let p = 8;
    let per_pe = 200_000;
    let vocabulary = 1 << 14;
    let k = 10;
    let params = FrequentParams::new(k, 1e-3, 1e-3, 42);
    let zipf = Zipf::new(vocabulary, 1.05);

    println!("== Top-{k} most frequent words, {p} PEs × {per_pe} words, Zipf(1.05) vocabulary of {vocabulary} ==\n");

    // Generate every PE's shard once; the timed regions below only run the
    // algorithms.
    let shards: Vec<Vec<u64>> = (0..p)
        .map(|rank| local_corpus(&zipf, rank, per_pe))
        .collect();

    // Exact counts (the oracle) once, so every algorithm can be scored.
    let exact = run_spmd(p, |comm| exact_global_counts(comm, &shards[comm.rank()]));
    let exact_counts = exact.results[0].clone();
    let n = (p * per_pe) as u64;

    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>10}",
        "algorithm", "sample size", "comm words/PE", "rel. error", "wall time"
    );
    for algo in Algorithm::ALL {
        let out = run_spmd(p, |comm| {
            let local = &shards[comm.rank()];
            let before = comm.stats_snapshot();
            let result = algo.run(comm, local, &params);
            (
                result,
                comm.stats_snapshot().since(&before).bottleneck_words(),
            )
        });
        let (result, _) = &out.results[0];
        let bottleneck = out.results.iter().map(|(_, w)| *w).max().unwrap();
        let err = relative_error(&exact_counts, &result.keys(), n);
        println!(
            "{:<12} {:>12} {:>14} {:>12.2e} {:>8.0?}",
            algo.name(),
            result.sample_size,
            bottleneck,
            err,
            out.elapsed
        );
    }

    // Show the actual winners according to the exact-counting algorithm.
    let out = run_spmd(p, |comm| {
        Algorithm::Ec.run(comm, &shards[comm.rank()], &params)
    });
    println!("\nmost frequent words (word id, exact count):");
    for (rank, (word, count)) in out.results[0].items.iter().enumerate() {
        println!("  #{:<2} word {:<6} count {}", rank + 1, word, count);
    }
    println!("\n(Word ids are Zipf ranks, so ids 1..{k} winning is the expected outcome.)");
}

/// The local shard of the corpus: Zipf-distributed word ids.
fn local_corpus(zipf: &Zipf, rank: usize, per_pe: usize) -> Vec<u64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xC0_FF_EE ^ rank as u64);
    zipf.sample_many(per_pe, &mut rng)
}
