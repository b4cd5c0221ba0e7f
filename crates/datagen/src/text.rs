//! Synthetic-English text corpora for the word-frequency application.
//!
//! The paper's headline application (Section 7, Figure 4) finds the most
//! frequent *words* in a distributed corpus.  This generator produces
//! realistic-looking English text whose word frequencies follow Zipf's law —
//! the distribution the paper itself names as the model for "word frequencies
//! in natural languages" — so the full text pipeline (tokenizer → interning →
//! distributed counting, see the `workloads` crate) can be exercised end to
//! end without shipping a real corpus.
//!
//! Rank `i` of the Zipf distribution is mapped to the `i`-th entry of an
//! embedded common-English word list (compound words are synthesised past the
//! end of the list), and the drawn word stream is rendered with sentence
//! structure: capitalised sentence starts, commas, and terminal punctuation.
//! Everything is seedable and deterministic per shard: `shard_text(rank, m)`
//! depends only on the generator's seed and `rank`, never on global state, so
//! repeated runs — and runs on different backends — see bit-identical input.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// The embedded base vocabulary: common English words, all lowercase and
/// purely alphabetic (so they survive tokenisation unchanged).  Zipf rank 1
/// maps to the first entry, rank 2 to the second, and so on; ranks past the
/// end of the list map to synthesised compounds.
pub const BASE_WORDS: &[&str] = &[
    "the",
    "of",
    "and",
    "to",
    "in",
    "is",
    "was",
    "he",
    "for",
    "it",
    "with",
    "as",
    "his",
    "on",
    "be",
    "at",
    "by",
    "had",
    "not",
    "are",
    "but",
    "from",
    "or",
    "have",
    "an",
    "they",
    "which",
    "one",
    "you",
    "were",
    "her",
    "all",
    "she",
    "there",
    "would",
    "their",
    "we",
    "him",
    "been",
    "has",
    "when",
    "who",
    "will",
    "more",
    "no",
    "if",
    "out",
    "so",
    "said",
    "what",
    "up",
    "its",
    "about",
    "into",
    "than",
    "them",
    "can",
    "only",
    "other",
    "new",
    "some",
    "could",
    "time",
    "these",
    "two",
    "may",
    "then",
    "do",
    "first",
    "any",
    "my",
    "now",
    "such",
    "like",
    "our",
    "over",
    "man",
    "me",
    "even",
    "most",
    "made",
    "after",
    "also",
    "did",
    "many",
    "before",
    "must",
    "through",
    "years",
    "where",
    "much",
    "your",
    "way",
    "well",
    "down",
    "should",
    "because",
    "each",
    "just",
    "those",
    "people",
    "how",
    "too",
    "little",
    "state",
    "good",
    "very",
    "make",
    "world",
    "still",
    "own",
    "see",
    "men",
    "work",
    "long",
    "get",
    "here",
    "between",
    "both",
    "life",
    "being",
    "under",
    "never",
    "day",
    "same",
    "another",
    "know",
    "while",
    "last",
    "might",
    "us",
    "great",
    "old",
    "year",
    "off",
    "come",
    "since",
    "against",
    "go",
    "came",
    "right",
    "used",
    "take",
    "three",
    "states",
    "himself",
    "few",
    "house",
    "use",
    "during",
    "without",
    "again",
    "place",
    "around",
    "however",
    "home",
    "small",
    "found",
    "thought",
    "went",
    "say",
    "part",
    "once",
    "general",
    "high",
    "upon",
    "school",
    "every",
    "does",
    "got",
    "united",
    "left",
    "number",
    "course",
    "war",
    "until",
    "always",
    "away",
    "something",
    "fact",
    "though",
    "water",
    "less",
    "public",
    "put",
    "think",
    "almost",
    "hand",
    "enough",
    "far",
    "took",
    "head",
    "yet",
    "government",
    "system",
    "better",
    "set",
    "told",
    "nothing",
    "night",
    "end",
    "why",
    "called",
    "didn",
    "eyes",
    "find",
    "going",
    "look",
    "asked",
    "later",
    "knew",
    "point",
    "next",
    "program",
    "city",
    "business",
    "give",
    "group",
    "toward",
    "young",
    "days",
    "let",
    "room",
    "word",
    "certain",
    "power",
    "face",
    "second",
    "often",
    "brought",
    "whole",
    "side",
    "interest",
    "case",
    "among",
    "given",
    "order",
    "early",
    "john",
    "possible",
    "rather",
    "per",
    "four",
    "money",
    "light",
    "large",
    "big",
    "need",
    "best",
    "several",
    "within",
    "along",
    "present",
    "information",
    "country",
    "national",
    "church",
    "history",
    "form",
    "important",
    "turned",
    "things",
    "looked",
    "open",
    "land",
    "door",
    "keep",
    "seemed",
    "others",
    "means",
    "white",
    "god",
    "area",
    "want",
    "feet",
    "thing",
    "least",
    "close",
    "social",
    "past",
    "kind",
    "taken",
    "real",
    "miss",
    "children",
    "itself",
    "able",
    "seen",
    "family",
    "become",
    "week",
    "felt",
    "done",
    "example",
    "act",
    "today",
    "known",
    "half",
    "name",
    "service",
    "law",
    "question",
    "air",
    "car",
    "mind",
    "local",
    "sense",
    "change",
    "true",
    "tell",
    "making",
    "full",
    "saw",
    "human",
    "line",
    "anything",
    "result",
    "show",
    "study",
    "behind",
    "short",
    "gave",
    "words",
    "free",
];

/// Non-stationarity profile of a streaming corpus (the time-varying mode of
/// [`TextCorpus`]): **topic drift** rotates the rank → word permutation every
/// `drift_every` mini-batches, so the identity of the hot words changes over
/// time while the *shape* of the frequency distribution stays Zipf; a
/// **flash crowd** ([`FlashCrowd`]) additionally spikes one fixed word during
/// a contiguous batch window.  Everything is a pure function of the batch
/// index, so any two PEs (and any two backends) agree on the drift state
/// without communicating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamProfile {
    /// Rotate the permutation every this many batches (`0` = stationary).
    pub drift_every: usize,
    /// How many vocabulary positions each rotation shifts by.
    pub drift_step: usize,
    /// Optional flash-crowd burst.
    pub burst: Option<FlashCrowd>,
}

/// A flash-crowd burst: during batches `start .. start + len`, each drawn
/// word is replaced by the word of vocabulary rank `rank` with probability
/// `intensity` — one key suddenly dominates the stream, then vanishes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// First batch of the burst.
    pub start: usize,
    /// Number of batches the burst lasts.
    pub len: usize,
    /// 1-based vocabulary rank of the spiking word (un-rotated: the burst
    /// pins one *fixed* word regardless of drift state).
    pub rank: usize,
    /// Probability that a drawn word is replaced by the burst word.
    pub intensity: f64,
}

impl FlashCrowd {
    /// `true` iff `batch` falls inside the burst window.
    fn active_at(&self, batch: usize) -> bool {
        batch >= self.start && batch < self.start + self.len
    }
}

impl StreamProfile {
    /// A profile with no drift and no burst (each batch is a fresh draw from
    /// the same stationary distribution — still deterministic per batch).
    pub fn stationary() -> Self {
        StreamProfile {
            drift_every: 0,
            drift_step: 0,
            burst: None,
        }
    }

    /// The permutation rotation in effect at `batch` (number of vocabulary
    /// positions Zipf rank 1 has shifted by).
    fn rotation_at(&self, batch: usize) -> usize {
        batch
            .checked_div(self.drift_every)
            .map_or(0, |steps| steps * self.drift_step)
    }
}

/// A seedable synthetic-English corpus generator with Zipf word frequencies.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    zipf: Zipf,
    vocab: Vec<String>,
    seed: u64,
}

impl TextCorpus {
    /// A corpus whose word frequencies follow `Zipf(exponent)` over
    /// `num_words ≥ 1` distinct words.  The first [`BASE_WORDS`] ranks use
    /// the embedded word list; larger vocabularies are extended with
    /// synthesised (still purely alphabetic) compound words.
    pub fn new(num_words: usize, exponent: f64, seed: u64) -> Self {
        TextCorpus {
            zipf: Zipf::new(num_words, exponent),
            vocab: build_vocabulary(num_words),
            seed,
        }
    }

    /// The vocabulary in rank order: `vocabulary()[i]` is the word of Zipf
    /// rank `i + 1` (so it is expected to be the `i+1`-th most frequent).
    pub fn vocabulary(&self) -> &[String] {
        &self.vocab
    }

    /// The word assigned to 1-based Zipf rank `rank`.
    pub fn word_for_rank(&self, rank: usize) -> &str {
        &self.vocab[rank - 1]
    }

    /// The `k` words a perfect top-k answer is expected to return, most
    /// frequent first (ranks `1..=k`).
    pub fn expected_top_k(&self, k: usize) -> Vec<&str> {
        (1..=k.min(self.vocab.len()))
            .map(|r| self.word_for_rank(r))
            .collect()
    }

    /// The underlying Zipf distribution (for expected-count calculations).
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// Draw the word sequence of one PE's shard: `num_words` words,
    /// deterministic in `(seed, rank)` only.
    fn shard_words(&self, rank: usize, num_words: usize) -> Vec<&str> {
        let mut rng = self.shard_rng(rank, WORD_STREAM);
        (0..num_words)
            .map(|_| {
                let rank = self.zipf.sample(&mut rng) as usize;
                self.word_for_rank(rank)
            })
            .collect()
    }

    /// Render one PE's shard as English-looking text: the exact word sequence
    /// of `shard_words` dressed with sentence structure
    /// (capitalised sentence starts, occasional commas, terminal `.`/`!`/`?`
    /// and paragraph breaks).  A lowercasing alphabetic tokenizer recovers
    /// exactly the `shard_words` sequence, which is what makes the pipeline's
    /// determinism testable end to end.
    pub fn shard_text(&self, rank: usize, num_words: usize) -> String {
        let words = self.shard_words(rank, num_words);
        // Structure randomness is drawn from a *separate* stream so that the
        // word sequence stays byte-identical to `shard_words`.
        let mut rng = self.shard_rng(rank, SENTENCE_STREAM);
        render_words(&words, &mut rng)
    }

    /// Draw the word sequence of one PE's mini-batch of an **unbounded
    /// stream**: `num_words` words, deterministic in `(seed, rank, batch)`
    /// only, with the non-stationarity of `profile` applied — the Zipf rank
    /// → word mapping rotated by `drift_step` positions every `drift_every`
    /// batches, and the flash-crowd word substituted with probability
    /// `intensity` during the burst window.
    pub fn stream_batch_words(
        &self,
        profile: &StreamProfile,
        rank: usize,
        batch: usize,
        num_words: usize,
    ) -> Vec<&str> {
        let mut rng = self.batch_rng(rank, batch, WORD_STREAM);
        let vocab_len = self.vocab.len();
        let rotation = profile.rotation_at(batch);
        let burst = profile.burst.filter(|b| b.active_at(batch));
        (0..num_words)
            .map(|_| {
                let drawn = self.zipf.sample(&mut rng) as usize;
                let rotated = (drawn - 1 + rotation) % vocab_len + 1;
                let rank = match burst {
                    Some(b) if rng.gen::<f64>() < b.intensity => b.rank.clamp(1, vocab_len),
                    _ => rotated,
                };
                self.word_for_rank(rank)
            })
            .collect()
    }

    /// Render one PE's mini-batch as English-looking text (the streaming
    /// analogue of [`shard_text`](Self::shard_text)): tokenizing the result
    /// recovers exactly the [`stream_batch_words`](Self::stream_batch_words)
    /// sequence.
    pub fn stream_batch_text(
        &self,
        profile: &StreamProfile,
        rank: usize,
        batch: usize,
        num_words: usize,
    ) -> String {
        let words = self.stream_batch_words(profile, rank, batch, num_words);
        let mut rng = self.batch_rng(rank, batch, SENTENCE_STREAM);
        render_words(&words, &mut rng)
    }

    /// The word of *effective* rank 1 at `batch` under `profile`'s drift —
    /// the expected hottest word of that batch (ignoring any burst).
    pub fn stream_hot_word(&self, profile: &StreamProfile, batch: usize) -> &str {
        let rotated = profile.rotation_at(batch) % self.vocab.len() + 1;
        self.word_for_rank(rotated)
    }

    fn shard_rng(&self, rank: usize, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ stream ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    fn batch_rng(&self, rank: usize, batch: usize, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ stream
                ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (batch as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }
}

/// Dress a word sequence with sentence structure (capitalised sentence
/// starts, occasional commas, terminal `.`/`!`/`?` and paragraph breaks); a
/// lowercasing alphabetic tokenizer recovers exactly the input sequence.
fn render_words<R: Rng + ?Sized>(words: &[&str], rng: &mut R) -> String {
    let mut out = String::with_capacity(words.len() * 7);
    let mut remaining_in_sentence = 0usize;
    let mut sentences_in_paragraph = 0usize;
    for (i, word) in words.iter().enumerate() {
        if remaining_in_sentence == 0 {
            // Start a new sentence.
            if i > 0 {
                out.push_str(terminal_punctuation(rng));
                sentences_in_paragraph += 1;
                if sentences_in_paragraph >= 5 && rng.gen_range(0..4) == 0 {
                    out.push_str("\n\n");
                    sentences_in_paragraph = 0;
                } else {
                    out.push(' ');
                }
            }
            remaining_in_sentence = rng.gen_range(4..=12);
            push_capitalised(&mut out, word);
        } else {
            out.push(' ');
            out.push_str(word);
            // An occasional comma mid-sentence (never before the final
            // word, where terminal punctuation follows).
            if remaining_in_sentence > 1 && rng.gen_range(0..8) == 0 {
                out.push(',');
            }
        }
        remaining_in_sentence -= 1;
    }
    if !words.is_empty() {
        out.push_str(terminal_punctuation(rng));
        out.push('\n');
    }
    out
}

/// Distinct seed streams so the sentence-structure randomness never perturbs
/// the word sequence.
const WORD_STREAM: u64 = 0x57C0_11D5_EED0_0001;
const SENTENCE_STREAM: u64 = 0x5E17_E9CE_5EED_0002;

fn push_capitalised(out: &mut String, word: &str) {
    let mut chars = word.chars();
    if let Some(first) = chars.next() {
        out.extend(first.to_uppercase());
        out.push_str(chars.as_str());
    }
}

fn terminal_punctuation<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
    match rng.gen_range(0..10) {
        0 => "!",
        1 => "?",
        _ => ".",
    }
}

/// Build a vocabulary of `num_words` distinct, purely alphabetic, lowercase
/// words: the embedded list first, then deterministic compounds ("ofthe",
/// "theof", …) with a collision guard so every entry is unique even where a
/// compound happens to spell an existing word ("an" + "other").
fn build_vocabulary(num_words: usize) -> Vec<String> {
    let mut vocab: Vec<String> = Vec::with_capacity(num_words);
    let mut seen: HashSet<String> = HashSet::with_capacity(num_words);
    for &w in BASE_WORDS.iter().take(num_words) {
        if seen.insert(w.to_string()) {
            vocab.push(w.to_string());
        }
    }
    let base = BASE_WORDS.len();
    let mut i = 0usize;
    while vocab.len() < num_words {
        let mut compound = format!("{}{}", BASE_WORDS[(i / base) % base], BASE_WORDS[i % base]);
        while !seen.insert(compound.clone()) {
            compound.push_str(BASE_WORDS[i % base]);
        }
        vocab.push(compound);
        i += 1;
    }
    vocab
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal lowercasing alphabetic tokenizer (mirrors the one in the
    /// `workloads` crate, which cannot be a dependency of `datagen`).
    fn tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_ascii_alphabetic())
            .filter(|w| !w.is_empty())
            .map(|w| w.to_ascii_lowercase())
            .collect()
    }

    #[test]
    fn base_word_list_is_lowercase_alphabetic() {
        for w in BASE_WORDS {
            assert!(!w.is_empty());
            assert!(
                w.chars().all(|c| c.is_ascii_lowercase()),
                "bad base word {w:?}"
            );
        }
        let distinct: HashSet<&&str> = BASE_WORDS.iter().collect();
        assert_eq!(distinct.len(), BASE_WORDS.len(), "duplicate base words");
    }

    #[test]
    fn vocabulary_is_distinct_at_any_size() {
        for size in [1usize, 50, BASE_WORDS.len(), BASE_WORDS.len() + 500, 4096] {
            let vocab = build_vocabulary(size);
            assert_eq!(vocab.len(), size);
            let distinct: HashSet<&String> = vocab.iter().collect();
            assert_eq!(distinct.len(), size, "duplicates at size {size}");
            assert!(vocab
                .iter()
                .all(|w| w.chars().all(|c| c.is_ascii_lowercase())));
        }
    }

    #[test]
    fn shards_are_deterministic_and_rank_dependent() {
        let corpus = TextCorpus::new(1000, 1.05, 42);
        assert_eq!(corpus.shard_text(3, 500), corpus.shard_text(3, 500));
        assert_ne!(corpus.shard_text(0, 500), corpus.shard_text(1, 500));
        // A different seed produces a different shard.
        let other = TextCorpus::new(1000, 1.05, 43);
        assert_ne!(corpus.shard_text(0, 500), other.shard_text(0, 500));
    }

    #[test]
    fn tokenised_text_recovers_the_word_sequence() {
        let corpus = TextCorpus::new(800, 1.0, 7);
        let words = corpus.shard_words(2, 1234);
        let text = corpus.shard_text(2, 1234);
        let tokens = tokenize(&text);
        assert_eq!(tokens.len(), words.len());
        assert!(tokens.iter().map(String::as_str).eq(words.iter().copied()));
    }

    #[test]
    fn rank_one_word_dominates() {
        let corpus = TextCorpus::new(500, 1.0, 11);
        let words = corpus.shard_words(0, 50_000);
        let mut counts = std::collections::HashMap::new();
        for w in &words {
            *counts.entry(*w).or_insert(0u64) += 1;
        }
        let top = corpus.word_for_rank(1);
        let top_count = counts[top];
        assert!(counts.values().all(|&c| c <= top_count));
        // And it matches the analytic expectation within a loose margin.
        let expected = corpus.zipf().expected_count(1, words.len());
        assert!((top_count as f64 - expected).abs() < 0.1 * expected + 100.0);
    }

    #[test]
    fn expected_top_k_lists_rank_order() {
        let corpus = TextCorpus::new(100, 1.0, 0);
        assert_eq!(corpus.expected_top_k(3), vec!["the", "of", "and"]);
        assert_eq!(corpus.expected_top_k(1000).len(), 100);
    }

    #[test]
    fn empty_shard_renders_empty_text() {
        let corpus = TextCorpus::new(10, 1.0, 1);
        assert_eq!(corpus.shard_text(0, 0), "");
        assert!(corpus.shard_words(0, 0).is_empty());
    }

    fn count_word(words: &[&str], needle: &str) -> usize {
        words.iter().filter(|&&w| w == needle).count()
    }

    #[test]
    fn stream_batches_are_deterministic_in_rank_and_batch() {
        let corpus = TextCorpus::new(500, 1.0, 42);
        let profile = StreamProfile {
            drift_every: 3,
            drift_step: 7,
            burst: None,
        };
        assert_eq!(
            corpus.stream_batch_words(&profile, 1, 5, 200),
            corpus.stream_batch_words(&profile, 1, 5, 200)
        );
        assert_ne!(
            corpus.stream_batch_words(&profile, 0, 5, 200),
            corpus.stream_batch_words(&profile, 1, 5, 200),
            "different ranks must draw different batches"
        );
        assert_ne!(
            corpus.stream_batch_words(&profile, 0, 5, 200),
            corpus.stream_batch_words(&profile, 0, 6, 200),
            "different batches must draw different words"
        );
    }

    #[test]
    fn stream_batch_text_tokenizes_back_to_the_word_sequence() {
        let corpus = TextCorpus::new(400, 1.0, 9);
        let profile = StreamProfile {
            drift_every: 2,
            drift_step: 5,
            burst: Some(FlashCrowd {
                start: 1,
                len: 2,
                rank: 17,
                intensity: 0.5,
            }),
        };
        for batch in 0..4 {
            let words = corpus.stream_batch_words(&profile, 0, batch, 500);
            let tokens = tokenize(&corpus.stream_batch_text(&profile, 0, batch, 500));
            assert!(
                tokens.iter().map(String::as_str).eq(words.iter().copied()),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn topic_drift_rotates_the_hot_word() {
        let corpus = TextCorpus::new(200, 1.1, 3);
        let profile = StreamProfile {
            drift_every: 4,
            drift_step: 11,
            burst: None,
        };
        assert_eq!(profile.rotation_at(0), 0);
        assert_eq!(profile.rotation_at(3), 0);
        assert_eq!(profile.rotation_at(4), 11);
        assert_eq!(profile.rotation_at(9), 22);
        assert_eq!(corpus.stream_hot_word(&profile, 0), corpus.word_for_rank(1));
        assert_eq!(
            corpus.stream_hot_word(&profile, 4),
            corpus.word_for_rank(12)
        );
        // The rotated hot word dominates its batch, and the old hot word has
        // fallen far down the frequency order.
        let before = corpus.stream_batch_words(&profile, 0, 0, 20_000);
        let after = corpus.stream_batch_words(&profile, 0, 4, 20_000);
        let hot0 = corpus.stream_hot_word(&profile, 0);
        let hot4 = corpus.stream_hot_word(&profile, 4);
        assert!(count_word(&before, hot0) > 2 * count_word(&before, hot4));
        assert!(count_word(&after, hot4) > 2 * count_word(&after, hot0));
    }

    #[test]
    fn stationary_profile_matches_unrotated_frequencies() {
        let corpus = TextCorpus::new(100, 1.0, 5);
        let profile = StreamProfile::stationary();
        assert_eq!(profile.rotation_at(999), 0);
        let words = corpus.stream_batch_words(&profile, 0, 7, 30_000);
        let top = corpus.word_for_rank(1);
        let expected = corpus.zipf().expected_count(1, words.len());
        let got = count_word(&words, top) as f64;
        assert!((got - expected).abs() < 0.1 * expected + 100.0);
    }

    #[test]
    fn flash_crowd_spikes_exactly_its_window() {
        let corpus = TextCorpus::new(300, 1.0, 21);
        let burst = FlashCrowd {
            start: 5,
            len: 2,
            rank: 250,
            intensity: 0.6,
        };
        let profile = StreamProfile {
            drift_every: 0,
            drift_step: 0,
            burst: Some(burst),
        };
        assert!(!burst.active_at(4) && burst.active_at(5));
        assert!(burst.active_at(6) && !burst.active_at(7));
        let n = 10_000;
        let burst_word = corpus.word_for_rank(250);
        let quiet = corpus.stream_batch_words(&profile, 0, 4, n);
        let spiked = corpus.stream_batch_words(&profile, 0, 5, n);
        let quiet_count = count_word(&quiet, burst_word);
        let spiked_count = count_word(&spiked, burst_word);
        assert!(
            quiet_count < n / 100,
            "rank-250 word should be rare outside the burst, saw {quiet_count}"
        );
        assert!(
            spiked_count > n / 2,
            "intensity 0.6 should make the burst word dominate, saw {spiked_count}"
        );
    }
}
