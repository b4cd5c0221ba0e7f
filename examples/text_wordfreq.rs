//! Real-text word frequency end to end (paper §7, Figure 4).
//!
//! The paper opens with "find the most frequent words in a distributed
//! corpus" — this example actually does that on *text*: a synthetic-English
//! corpus is sharded over the PEs, each shard is tokenized, the words are
//! interned into globally consistent dense ids (strings never touch the
//! counting algorithms), EC counts the top words, and the winning ids are
//! resolved back to English.
//!
//! ```bash
//! cargo run --release --example text_wordfreq
//! ```

use topk_selection::datagen::TextCorpus;
use topk_selection::prelude::*;
use topk_selection::topk::frequent::{exact_global_counts, relative_error};
use topk_selection::workloads::text::resolve_items;

fn main() {
    let p = 4;
    let words_per_pe = 20_000;
    let k = 10;

    // A seedable corpus: Zipf(1.05) word frequencies over 2000 distinct
    // words, rendered with sentence structure.
    let corpus = TextCorpus::new(2000, 1.05, 0xC0FFEE);
    let shards: Vec<String> = (0..p).map(|r| corpus.shard_text(r, words_per_pe)).collect();

    println!("== Top-{k} most frequent words, {p} PEs × {words_per_pe} words of text ==\n");
    println!(
        "corpus sample (PE 0):\n  {}…\n",
        &shards[0][..shards[0].len().min(160)]
    );

    // Tokenize once, up front — only the distributed steps run in SPMD.
    let tokens: Vec<Vec<String>> = shards.iter().map(|s| tokenize(s)).collect();

    let params = FrequentParams::new(k, 0.01, 1e-3, 7);
    let out = run_spmd(p, |comm| {
        // 1. Distributed interning: words ↔ dense u64 ids, identical on
        //    every PE (one allgather of the sorted local vocabularies).
        let before = comm.stats_snapshot();
        let shard = distributed_intern(comm, &tokens[comm.rank()]);
        let intern_words = comm.stats_snapshot().since(&before).bottleneck_words();

        // 2. Count on ids only — the algorithms never see a string.
        let before = comm.stats_snapshot();
        let result = Algorithm::Ec.run(comm, &shard.ids, &params);
        let algo_words = comm.stats_snapshot().since(&before).bottleneck_words();

        // 3. Score against the exact oracle and resolve ids back to words.
        let exact = exact_global_counts(comm, &shard.ids);
        let n = comm.allreduce_sum(shard.ids.len() as u64);
        let err = relative_error(&exact, &result.keys(), n);
        let top = resolve_items(&shard.vocab, &result);
        (top, shard.vocab.len(), intern_words, algo_words, err)
    });

    let (top, vocab_size, intern_words, algo_words, err) = &out.results[0];
    println!("vocabulary: {vocab_size} distinct words, interned in one allgather");
    println!("comm volume: {intern_words} words/PE interning (one-off) vs {algo_words} words/PE counting\n");
    println!("most frequent words (exact counts, EC):");
    for (rank, (word, count)) in top.iter().enumerate() {
        println!("  #{:<2} {:<12} {count}", rank + 1, word);
    }
    println!("\nrelative error vs the exact oracle: {err:.1e}");

    // The corpus is Zipf over a ranked word list, so the expected winners
    // are known: the first k words of the vocabulary-by-rank.
    let expected = corpus.expected_top_k(k);
    assert_eq!(top[0].0, expected[0], "rank 1 must be '{}'", expected[0]);
    assert_eq!(*err, 0.0, "EC nails this corpus exactly");
    println!(
        "rank-1 word is {:?}, exactly as the generator intended.",
        top[0].0
    );
}
