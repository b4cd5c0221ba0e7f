//! String interning: a bijection between words and dense `u64` ids.
//!
//! The distributed algorithms of this repository move `u64` keys — the
//! selection networks, the counting DHT and the priority queues all assume
//! machine words.  Real-text workloads (paper §7's "most frequent words in a
//! corpus" application, Figure 4) have *string* keys, so the text pipeline
//! interns every word into a dense id once, runs the whole distributed
//! machinery on ids, and resolves the few winning ids back to words at the
//! end.
//!
//! [`Interner`] is the sequential building block: insertion order defines the
//! ids (`0, 1, 2, …`), lookups are `O(1)` hashes, and `resolve` is an array
//! index.  The *parallel* layer that makes ids globally consistent across PEs
//! lives in the `workloads` crate: every PE holds an identical `Interner` and
//! appends the same sorted batch of globally new words to it, so insertion
//! order — and with it every id — agrees on all PEs.  Run once on an empty
//! `Interner`, that step is `workloads::text::distributed_intern`, where a
//! word's id is its rank in the sorted global vocabulary; the streaming
//! service runs it on every batch, so ids already handed out stay stable.

use std::collections::HashMap;

/// A dense `String → u64` interner; ids are assigned `0, 1, 2, …` in first
/// insertion order and never change.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: HashMap<String, u64>,
    words: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Pre-populate from an iterator of words (duplicates collapse onto the
    /// first occurrence's id).
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut interner = Interner::new();
        for w in words {
            interner.intern(w.as_ref());
        }
        interner
    }

    /// Return the id of `word`, inserting it with the next free id if it has
    /// not been seen before.
    pub fn intern(&mut self, word: &str) -> u64 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = self.words.len() as u64;
        self.ids.insert(word.to_string(), id);
        self.words.push(word.to_string());
        id
    }

    /// The id of `word` if it has been interned.
    pub fn get(&self, word: &str) -> Option<u64> {
        self.ids.get(word).copied()
    }

    /// The word behind `id`, if `id` was handed out by this interner.
    pub fn resolve(&self, id: u64) -> Option<&str> {
        self.words.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The interned words in id order (`words()[id] == resolve(id)`).
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Consume the interner and return the id-ordered word table.
    pub fn into_words(self) -> Vec<String> {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        assert_eq!(i.intern("the"), 0);
        assert_eq!(i.intern("quick"), 1);
        assert_eq!(i.intern("the"), 0, "re-interning must not mint a new id");
        assert_eq!(i.intern("fox"), 2);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_inverts_intern() {
        let mut i = Interner::new();
        for w in ["a", "b", "c", "a", "b"] {
            let id = i.intern(w);
            assert_eq!(i.resolve(id), Some(w));
        }
        assert_eq!(i.resolve(99), None);
        assert_eq!(i.get("b"), Some(1));
        assert_eq!(i.get("zebra"), None);
    }

    #[test]
    fn from_words_collapses_duplicates_in_first_seen_order() {
        let i = Interner::from_words(["x", "y", "x", "z", "y"]);
        assert_eq!(i.words(), &["x".to_string(), "y".into(), "z".into()]);
        assert_eq!(i.into_words(), vec!["x", "y", "z"]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.resolve(0), None);
    }
}
