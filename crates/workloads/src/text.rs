//! The real-text word-frequency pipeline (paper §7, Figure 4).
//!
//! The paper's headline application finds the most frequent *words* in a
//! distributed corpus, but every algorithm in `crates/core` moves `u64`
//! machine words.  The pipeline bridges the two:
//!
//! 1. **Tokenize** each PE's raw text shard into lowercase words
//!    ([`tokenize`] — deterministic, ASCII-alphabetic tokens).
//! 2. **Intern** words into dense `u64` ids that are *globally consistent*
//!    across PEs ([`distributed_intern`]): each PE's sorted distinct words
//!    are united with one allgather, and a word's id is its rank in the
//!    sorted global vocabulary — independent of PE count, shard boundaries
//!    and iteration order, which is what makes the whole pipeline
//!    reproducible.  The streaming service grows its vocabulary with the
//!    same step, one batch at a time.
//! 3. **Count** with any §7 algorithm on the id stream
//!    ([`topk::planner::Algorithm::run`]), exactly as if the input had been
//!    integers all along — or with the one the planner picks for the ids
//!    ([`topk::planner::plan_for_data`], run by [`run_planned_scored`]).
//! 4. **Resolve** the few winning ids back to words ([`resolve_items`]) and
//!    score them against the exact oracle ([`WordFrequencyScore`]).
//!
//! Interning is a *setup* step: its one-off allgather of the vocabulary is
//! deliberately metered separately from the algorithm phase (the paper's
//! claims are about the counting algorithms, not corpus distribution), which
//! is why [`run_planned_scored`] meters the algorithm phase alone.

use std::collections::{HashMap, HashSet};

use commsim::Communicator;
use seqkit::Interner;
use topk::frequent::{absolute_error, exact_global_counts, relative_error};
use topk::planner::{Algorithm, Plan, PlanAudit};
use topk::TopKFrequentResult;

/// Split `text` into lowercase ASCII-alphabetic words.
///
/// Any non-ASCII-alphabetic character separates tokens (digits, punctuation,
/// whitespace, and non-ASCII bytes alike), and tokens are lowercased — so
/// `"Don't panic, 42!"` tokenizes to `["don", "t", "panic"]`.  Simple on
/// purpose: the pipeline needs a *deterministic* word definition more than a
/// linguistically clever one.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_ascii_alphabetic())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// Split a user-supplied document into `p` near-equal shards without ever
/// splitting a word: cut points land on the first non-ASCII-alphabetic
/// character boundary at or after each `len/p` byte mark (so multi-byte
/// UTF-8 characters are never cut in half either).  Returns exactly `p`
/// strings (trailing shards may be empty for tiny inputs).
pub fn split_text_shards(text: &str, p: usize) -> Vec<String> {
    assert!(p >= 1, "need at least one shard");
    let bytes = text.as_bytes();
    let mut shards = Vec::with_capacity(p);
    let mut start = 0usize;
    for i in 1..=p {
        let mut end = (text.len() * i / p).max(start);
        while end < text.len() && (!text.is_char_boundary(end) || bytes[end].is_ascii_alphabetic())
        {
            end += 1;
        }
        shards.push(text[start..end].to_string());
        start = end;
    }
    shards
}

/// One PE's share of the corpus after distributed interning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedShard {
    /// The global vocabulary, sorted ascending; a word's id is its index,
    /// identical on every PE and independent of how the corpus was sharded.
    pub vocab: Vec<String>,
    /// This PE's token stream mapped to ids (same order as the tokens).
    pub ids: Vec<u64>,
}

impl InternedShard {
    /// The word behind `id`.
    pub fn resolve(&self, id: u64) -> Option<&str> {
        self.vocab.get(id as usize).map(String::as_str)
    }
}

/// Make word ids globally consistent (collective — all PEs must call this
/// together).
///
/// Each PE all-gathers its sorted distinct words, and a word's global id is
/// its rank in the sorted union — the streaming service's per-batch
/// interning step, run once on an empty vocabulary.  Sorting is what
/// decouples ids from insertion order: any sharding of the same corpus onto
/// any number of PEs produces the same `word → id` map.
pub fn distributed_intern<C: Communicator>(comm: &C, tokens: &[String]) -> InternedShard {
    let mut vocab = Interner::new();
    let ids = intern_new_words(comm, &mut vocab, tokens);
    InternedShard {
        vocab: vocab.into_words(),
        ids,
    }
}

/// Grow `vocab` by exactly the words of `tokens` that no PE had interned
/// yet, and map `tokens` to ids (collective — all PEs must call this
/// together, each with the same `vocab`).
///
/// Because `vocab` is identical on every PE, "unknown here" equals "unknown
/// everywhere": each PE all-gathers its distinct new words, sorted, and
/// every PE appends the sorted union in order.  So ids already handed out
/// never change, and the words sent are each PE's new vocabulary, each
/// distinct word once.
pub(crate) fn intern_new_words<C: Communicator>(
    comm: &C,
    vocab: &mut Interner,
    tokens: &[String],
) -> Vec<u64> {
    let fresh: HashSet<&str> = tokens
        .iter()
        .map(String::as_str)
        .filter(|t| vocab.get(t).is_none())
        .collect();
    let mut fresh: Vec<String> = fresh.into_iter().map(str::to_string).collect();
    fresh.sort_unstable();
    let mut delta: Vec<String> = comm.allgather(fresh).into_iter().flatten().collect();
    delta.sort_unstable();
    delta.dedup();
    for word in &delta {
        vocab.intern(word);
    }
    tokens
        .iter()
        .map(|t| vocab.get(t).expect("every token was interned"))
        .collect()
}

/// Resolve a result's `(id, count)` items back to `(word, count)` using the
/// global vocabulary.
pub fn resolve_items(vocab: &[String], result: &TopKFrequentResult) -> Vec<(String, u64)> {
    result
        .items
        .iter()
        .map(|&(id, count)| (vocab[id as usize].clone(), count))
        .collect()
}

/// Execute a plan on an interned shard — one [`topk::planner::plan_for_data`]
/// derived from `shard.ids` — and score the answer against the exact oracle
/// (collective).  Returns the oracle score together with the
/// plan's [`PlanAudit`] — predicted vs metered words/PE and start-ups of the
/// algorithm phase.  `words_per_pe` in the score is the *world* bottleneck
/// (the audit's measured words), so the score, too, is identical on every PE.
pub fn run_planned_scored<C: Communicator>(
    comm: &C,
    shard: &InternedShard,
    plan: &Plan,
    seed: u64,
) -> (WordFrequencyScore, PlanAudit) {
    let exact = exact_global_counts(comm, &shard.ids);
    let (result, audit) = plan.execute(comm, &shard.ids, seed);
    let score = WordFrequencyScore::new(
        plan.algorithm,
        &exact,
        &result,
        &shard.vocab,
        plan.inputs.n,
        audit.measured_words,
    );
    (score, audit)
}

/// An oracle-scored word-frequency answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WordFrequencyScore {
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// The reported words with their (estimated or exact) counts, most
    /// frequent first.
    pub top: Vec<(String, u64)>,
    /// Global number of sampled elements the algorithm communicated about.
    pub sample_size: u64,
    /// `true` if the reported counts are exact (EC/PEC).
    pub exact_counts: bool,
    /// The paper's §7 absolute error: best missed count − worst reported
    /// count, clamped at zero.
    pub abs_error: u64,
    /// `abs_error / n` (the paper's ε̃).
    pub rel_error: f64,
    /// Bottleneck communication volume of the algorithm phase.
    pub words_per_pe: u64,
}

impl WordFrequencyScore {
    fn new(
        algorithm: Algorithm,
        exact: &HashMap<u64, u64>,
        result: &TopKFrequentResult,
        vocab: &[String],
        n: u64,
        words_per_pe: u64,
    ) -> Self {
        let reported = result.keys();
        WordFrequencyScore {
            algorithm,
            top: resolve_items(vocab, result),
            sample_size: result.sample_size,
            exact_counts: result.exact_counts,
            abs_error: absolute_error(exact, &reported),
            rel_error: relative_error(exact, &reported, n),
            words_per_pe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_spmd, run_spmd_seq};
    use datagen::TextCorpus;

    #[test]
    fn tokenize_lowercases_and_splits_on_non_alphabetic() {
        assert_eq!(tokenize("Don't panic, 42!"), vec!["don", "t", "panic"]);
        assert_eq!(tokenize("  The the THE "), vec!["the", "the", "the"]);
        assert!(tokenize("123 456 --- \n").is_empty());
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn split_text_shards_never_splits_words() {
        let text = "alpha beta gamma delta epsilon zeta eta theta iota kappa";
        for p in [1usize, 2, 3, 4, 7] {
            let shards = split_text_shards(text, p);
            assert_eq!(shards.len(), p);
            assert_eq!(shards.concat(), text, "p={p}");
            let rejoined: Vec<String> = shards.iter().flat_map(|s| tokenize(s)).collect();
            assert_eq!(rejoined, tokenize(text), "p={p}");
        }
    }

    #[test]
    fn split_text_shards_handles_more_shards_than_words() {
        let shards = split_text_shards("one two", 8);
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.concat(), "one two");
    }

    #[test]
    fn split_text_shards_never_cuts_multibyte_characters() {
        // Regression: cut points are byte offsets, and a naive advance over
        // ASCII-alphabetic bytes stops inside a multi-byte character,
        // panicking on the slice.  "é" is two bytes; sweep p so boundaries
        // land on every offset.
        let text = "cafés naïve Wörter décor søster œuvre";
        for p in 1..=text.len() {
            let shards = split_text_shards(text, p);
            assert_eq!(shards.len(), p);
            assert_eq!(shards.concat(), text, "p={p}");
        }
    }

    #[test]
    fn interned_ids_are_sorted_vocabulary_ranks() {
        let out = run_spmd(3, |comm| {
            let tokens: Vec<String> = match comm.rank() {
                0 => vec!["cherry", "apple"],
                1 => vec!["banana", "apple", "banana"],
                _ => vec!["date"],
            }
            .into_iter()
            .map(String::from)
            .collect();
            distributed_intern(comm, &tokens)
        });
        let vocab: Vec<String> = ["apple", "banana", "cherry", "date"]
            .map(String::from)
            .to_vec();
        assert_eq!(out.results[0].vocab, vocab);
        assert_eq!(out.results[0].ids, vec![2, 0]);
        assert_eq!(out.results[1].ids, vec![1, 0, 1]);
        assert_eq!(out.results[2].ids, vec![3]);
        assert_eq!(out.results[2].resolve(3), Some("date"));
        assert_eq!(out.results[2].resolve(9), None);
    }

    #[test]
    fn interning_is_identical_on_both_backends() {
        let corpus = TextCorpus::new(200, 1.0, 5);
        let shards: Vec<String> = (0..4).map(|r| corpus.shard_text(r, 300)).collect();
        let tokens: Vec<Vec<String>> = shards.iter().map(|s| tokenize(s)).collect();
        let threaded = run_spmd(4, |comm| distributed_intern(comm, &tokens[comm.rank()]));
        let seq = run_spmd_seq(4, |comm| distributed_intern(comm, &tokens[comm.rank()]));
        assert_eq!(threaded.results, seq.results);
    }

    #[test]
    fn planned_run_is_scored_and_audited() {
        let corpus = TextCorpus::new(300, 1.1, 9);
        let shards: Vec<Vec<String>> = (0..4)
            .map(|r| tokenize(&corpus.shard_text(r, 2000)))
            .collect();
        let out = run_spmd_seq(4, |comm| {
            let shard = distributed_intern(comm, &shards[comm.rank()]);
            let plan = topk::planner::plan_for_data(comm, &shard.ids, 4, 0.02, 1e-3);
            let (score, audit) = run_planned_scored(comm, &shard, &plan, 77);
            (plan, score, audit)
        });
        let (plan, score, audit) = &out.results[0];
        // The plan (and therefore the score and audit) is identical on
        // every PE.
        for (p, s, a) in out.results.iter() {
            assert_eq!(p, plan);
            assert_eq!(s, score);
            assert_eq!(a, audit);
        }
        assert_eq!(score.algorithm, plan.algorithm);
        assert_eq!(score.top[0].0, "the");
        assert!(audit.measured_words > 0);
        assert!(audit.predicted.words > 0.0);
        let head = format!("plan-audit algo={} p=4 ", plan.algorithm.token());
        let line = audit.audit_line();
        assert!(line.starts_with(&head), "{line}");
    }
}
