//! Windowed frequent-object summaries for unbounded streams.
//!
//! The batch algorithms of [`crate::heavy_hitters`] summarise a stream seen
//! *once, in full*.  A long-running top-k service (the streaming service of
//! the `workloads` crate) instead needs answers about the **recent** stream
//! while data keeps arriving, under one of two standard recency semantics:
//!
//! * [`SlidingWindowTopK`] — exact-window semantics: only the last `W`
//!   mini-batches count.  Implemented as a ring of per-batch
//!   [`crate::MisraGries`] sub-sketches; a query merges the live
//!   ring (the standard mergeable-summaries construction), so estimates are
//!   under-estimates with additive error at most
//!   `window_count / (capacity + 1)` — the same bound a single Misra–Gries
//!   summary over exactly the window would give.  Advancing the window drops
//!   the oldest sub-sketch wholesale; nothing is ever subtracted
//!   approximately.
//! * [`DecayingTopK`] — exponential-decay semantics: an occurrence `a`
//!   batches ago weighs `λᵃ`.  Implemented as Space-Saving over **scaled
//!   counters**: instead of multiplying every counter by `λ` per batch
//!   (`O(capacity)` per advance), the *increment* grows by `1/λ` and
//!   estimates are read relative to the current scale; eviction inherits the
//!   smallest counter exactly as in Space-Saving, so estimates are
//!   over-estimates with error at most `decayed_total / capacity`.
//!
//! Both structures are deterministic in their input sequence: the same
//! insertions leave the same counters (Space-Saving's eviction breaks a tie
//! by key).  The distributed streaming service ships the sliding window's
//! [`candidate_counts`](SlidingWindowTopK::candidate_counts) as a map whose
//! iteration order is arbitrary; its words/PE stay identical across backends
//! because the hash table's shares (`topk`'s `KeyCounts`) sort their keys
//! before they code them, not because of any ranking here.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::heavy_hitters::MisraGries;

/// Sliding-window top-k sketch: a ring of per-batch Misra–Gries sub-sketches
/// covering exactly the last `window` batches.
#[derive(Debug, Clone)]
pub struct SlidingWindowTopK<K> {
    window: usize,
    capacity: usize,
    /// Live sub-sketches, oldest in front; `ring.back()` is the open batch.
    ring: VecDeque<MisraGries<K>>,
}

impl<K: Eq + Hash + Clone + Ord> SlidingWindowTopK<K> {
    /// A sketch over the last `window ≥ 1` batches with `capacity ≥ 1`
    /// counters per sub-sketch (and in the merged query summary).
    pub fn new(window: usize, capacity: usize) -> Self {
        assert!(window >= 1, "window must cover at least one batch");
        assert!(capacity >= 1, "need at least one counter");
        let mut ring = VecDeque::with_capacity(window + 1);
        ring.push_back(MisraGries::new(capacity));
        SlidingWindowTopK {
            window,
            capacity,
            ring,
        }
    }

    /// Process one element of the current (open) batch.
    pub fn insert(&mut self, key: K) {
        self.ring
            .back_mut()
            .expect("ring always holds the open batch")
            .insert(key);
    }

    /// Close the current batch and open the next one, dropping the batch
    /// that just left the window.
    pub fn advance(&mut self) {
        self.ring.push_back(MisraGries::new(self.capacity));
        while self.ring.len() > self.window {
            self.ring.pop_front();
        }
    }

    /// Total number of elements inside the window.
    fn window_count(&self) -> u64 {
        self.ring.iter().map(|s| s.processed()).sum()
    }

    /// Merge the live ring into one summary of the whole window (the
    /// mergeable-summaries construction; error bound
    /// [`error_bound`](Self::error_bound)).
    pub fn merged(&self) -> MisraGries<K> {
        let mut iter = self.ring.iter();
        let mut merged = iter
            .next()
            .expect("ring always holds the open batch")
            .clone();
        for sub in iter {
            merged.merge(sub);
        }
        merged
    }

    /// Additive error bound of the merged window estimates:
    /// `window_count / (capacity + 1)`.  Every estimate `f̂(x)` satisfies
    /// `f_W(x) − bound ≤ f̂(x) ≤ f_W(x)` where `f_W` counts occurrences
    /// inside the window only.
    pub fn error_bound(&self) -> u64 {
        self.window_count() / (self.capacity as u64 + 1)
    }

    /// Estimated in-window frequency of `key` (an under-estimate).
    pub fn estimate(&self, key: &K) -> u64 {
        self.merged().estimate(key)
    }

    /// The window candidates as a `key → estimate` map (input shape of the
    /// distributed aggregation).
    pub fn candidate_counts(&self) -> HashMap<K, u64> {
        self.merged().candidates().into_iter().collect()
    }
}

/// Exponentially-decaying top-k sketch: Space-Saving over scaled counters.
///
/// After `advance()` has been called `t` times, an occurrence inserted
/// during batch `b` contributes `λ^(t−b)` to its key's decayed count.
/// Estimates are over-estimates with error at most
/// [`error_bound`](Self::error_bound).
#[derive(Debug, Clone)]
pub struct DecayingTopK<K> {
    capacity: usize,
    decay: f64,
    /// key → scaled count (divide by `scale` for the decayed estimate).
    counters: HashMap<K, f64>,
    /// Weight of one occurrence inserted *now*, in scaled units; grows by
    /// `1/λ` per advance so old counters decay implicitly.
    scale: f64,
    /// Total weight processed, in scaled units (divide by `scale` for the
    /// decayed total).
    total_scaled: f64,
}

impl<K: Eq + Hash + Clone + Ord> DecayingTopK<K> {
    /// A sketch with `capacity ≥ 1` counters and per-batch decay factor
    /// `decay ∈ (0, 1]` (`1.0` = no decay, plain Space-Saving).
    pub fn new(capacity: usize, decay: f64) -> Self {
        assert!(capacity >= 1, "need at least one counter");
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay factor must be in (0, 1], got {decay}"
        );
        DecayingTopK {
            capacity,
            decay,
            counters: HashMap::with_capacity(capacity + 1),
            scale: 1.0,
            total_scaled: 0.0,
        }
    }

    /// Process one element of the current batch.
    pub fn insert(&mut self, key: K) {
        self.total_scaled += self.scale;
        if let Some(c) = self.counters.get_mut(&key) {
            *c += self.scale;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, self.scale);
            return;
        }
        // Space-Saving eviction: the new key inherits the smallest counter.
        // Ties on the (float) count are broken by the *largest* key so the
        // evicted key is unique and run-independent.
        let evict = self
            .counters
            .iter()
            .min_by(|(ka, va), (kb, vb)| va.total_cmp(vb).then_with(|| kb.cmp(ka)))
            .map(|(k, &v)| (k.clone(), v))
            .expect("capacity ≥ 1, so a minimum exists");
        self.counters.remove(&evict.0);
        self.counters.insert(key, evict.1 + self.scale);
    }

    /// Close the current batch: everything inserted before this call decays
    /// by one more factor of `λ` relative to future insertions.
    pub fn advance(&mut self) {
        self.scale /= self.decay;
        // Guard against float overflow on very long runs: renormalise all
        // scaled counters back to scale 1 (exact rescaling, estimates are
        // unchanged up to the division performed anyway).
        if self.scale > 1e150 {
            let s = self.scale;
            for c in self.counters.values_mut() {
                *c /= s;
            }
            self.total_scaled /= s;
            self.scale = 1.0;
        }
    }

    /// Estimated decayed count of `key` (an over-estimate), in units where
    /// an occurrence inserted in the current batch weighs 1.
    pub fn estimate(&self, key: &K) -> f64 {
        self.counters.get(key).map_or(0.0, |c| c / self.scale)
    }

    /// Total decayed weight of everything processed, in current units.
    fn decayed_total(&self) -> f64 {
        self.total_scaled / self.scale
    }

    /// Additive error bound of the estimates: `decayed_total / capacity`
    /// (the Space-Saving bound carries over to weighted insertions).
    pub fn error_bound(&self) -> f64 {
        self.decayed_total() / self.capacity as f64
    }

    /// Candidates with their decayed estimates, sorted by decreasing
    /// estimate with ties broken by ascending key (a total order).
    pub fn candidates(&self) -> Vec<(K, f64)> {
        let mut v: Vec<(K, f64)> = self
            .counters
            .iter()
            .map(|(k, &c)| (k.clone(), c / self.scale))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashagg::top_k_by_key;

    /// Brute-force decayed count of `key` after the batch sequence
    /// `batches`, where batch `b`'s occurrences weigh `λ^(last − b)`.
    fn decayed_truth(batches: &[Vec<u64>], key: u64, decay: f64) -> f64 {
        let last = batches.len() - 1;
        batches
            .iter()
            .enumerate()
            .map(|(b, xs)| {
                decay.powi((last - b) as i32) * xs.iter().filter(|&&x| x == key).count() as f64
            })
            .sum()
    }

    /// Brute-force in-window counts over the last `window` batches.
    fn window_truth(batches: &[Vec<u64>], window: usize) -> HashMap<u64, u64> {
        let start = batches.len().saturating_sub(window);
        let mut counts = HashMap::new();
        for xs in &batches[start..] {
            for &x in xs {
                *counts.entry(x).or_insert(0u64) += 1;
            }
        }
        counts
    }

    /// A drifting stream: batch `b` draws key `i % 50 + b` heavily plus a
    /// spread of singletons, so the hot set shifts over time.
    fn drifting_batches(num_batches: usize, per_batch: usize) -> Vec<Vec<u64>> {
        (0..num_batches)
            .map(|b| {
                (0..per_batch)
                    .map(|i| {
                        if i % 3 != 0 {
                            (i % 5) as u64 + b as u64 // hot keys drift with b
                        } else {
                            1000 + (b * per_batch + i) as u64 // singleton tail
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sliding_window_estimates_respect_the_error_bound() {
        let batches = drifting_batches(12, 600);
        let window = 4;
        let mut sketch = SlidingWindowTopK::new(window, 20);
        for (b, xs) in batches.iter().enumerate() {
            for &x in xs {
                sketch.insert(x);
            }
            let truth = window_truth(&batches[..=b], window);
            let n_window: u64 = truth.values().sum();
            assert_eq!(sketch.window_count(), n_window, "batch {b}");
            let bound = sketch.error_bound();
            for (&key, &t) in &truth {
                let est = sketch.estimate(&key);
                assert!(est <= t, "batch {b} key {key}: over-estimate {est} > {t}");
                assert!(
                    t.saturating_sub(est) <= bound,
                    "batch {b} key {key}: error {} exceeds bound {bound}",
                    t - est
                );
            }
            if b + 1 < batches.len() {
                sketch.advance();
            }
        }
    }

    #[test]
    fn sliding_window_forgets_expired_batches() {
        let mut sketch = SlidingWindowTopK::new(2, 10);
        for _ in 0..100 {
            sketch.insert(7u64);
        }
        sketch.advance();
        assert_eq!(sketch.estimate(&7), 100);
        sketch.advance(); // key-7 batch still inside the 2-batch window
        sketch.advance(); // now it has left
        assert_eq!(sketch.estimate(&7), 0);
        assert_eq!(sketch.window_count(), 0);
    }

    #[test]
    fn sliding_window_top_candidates_track_the_drift() {
        let batches = drifting_batches(10, 900);
        let mut sketch = SlidingWindowTopK::new(3, 25);
        for (b, xs) in batches.iter().enumerate() {
            for &x in xs {
                sketch.insert(x);
            }
            if b + 1 < batches.len() {
                sketch.advance();
            }
        }
        // After batch 9 with window 3 the live batches are 7, 8, 9 with hot
        // keys b..b+4, so exactly keys 9, 10, 11 are hot in all three and
        // must be the top-3 candidate set (their relative order depends on
        // per-key sketch error, so compare as a set).
        let mut top: Vec<(u64, u64)> = sketch.candidate_counts().into_iter().collect();
        top_k_by_key(&mut top, 3, |&(key, estimate)| (estimate, key));
        let mut top3: Vec<u64> = top.iter().map(|&(k, _)| k).collect();
        top3.sort_unstable();
        assert_eq!(top3, vec![9, 10, 11], "top: {top:?}");
        // Old hot keys (from expired batches) must not outrank live ones.
        assert!(!top3.contains(&0));
    }

    #[test]
    fn decaying_estimates_respect_the_error_bound() {
        let batches = drifting_batches(15, 400);
        let decay = 0.8;
        let mut sketch = DecayingTopK::new(30, decay);
        for (b, xs) in batches.iter().enumerate() {
            for &x in xs {
                sketch.insert(x);
            }
            let bound = sketch.error_bound() + 1e-6;
            for &key in &[0u64, 5, 10, b as u64, b as u64 + 4] {
                let truth = decayed_truth(&batches[..=b], key, decay);
                let est = sketch.estimate(&key);
                assert!(
                    est + 1e-9 >= truth.min(est) && est - truth <= bound,
                    "batch {b} key {key}: estimate {est}, truth {truth}, bound {bound}"
                );
                // A tracked key never under-estimates.
                if est > 0.0 {
                    assert!(est + 1e-9 >= truth, "batch {b} key {key}: {est} < {truth}");
                }
            }
            if b + 1 < batches.len() {
                sketch.advance();
            }
        }
    }

    #[test]
    fn decaying_total_matches_brute_force() {
        let decay = 0.5;
        let mut sketch = DecayingTopK::new(4, decay);
        // 3 batches of 2 insertions each: total = 2 + 2·0.5 + 2·0.25 = 3.5
        for _ in 0..3 {
            sketch.insert(1u64);
            sketch.insert(2u64);
            sketch.advance();
        }
        sketch.insert(1u64);
        // after the third advance the previous total 3.5 decayed to 1.75
        assert!((sketch.decayed_total() - 2.75).abs() < 1e-9);
        assert!((sketch.estimate(&1) - (1.0 + 0.5 + 0.25 + 0.125)).abs() < 1e-9);
    }

    #[test]
    fn decay_forgets_old_hot_keys() {
        let mut sketch = DecayingTopK::new(8, 0.5);
        for _ in 0..1000 {
            sketch.insert(1u64);
        }
        for _ in 0..20 {
            sketch.advance();
        }
        for _ in 0..10 {
            sketch.insert(2u64);
        }
        let top: Vec<u64> = sketch.candidates().iter().map(|&(k, _)| k).collect();
        assert_eq!(top[0], 2, "a recently hot key must outrank a decayed one");
        assert!(sketch.estimate(&1) < 0.01);
    }

    #[test]
    fn decaying_renormalisation_preserves_estimates() {
        let mut sketch = DecayingTopK::new(4, 0.1);
        sketch.insert(9u64);
        // 0.1-decay grows the scale by 10× per advance; 200 advances cross
        // the 1e150 renormalisation threshold several times.
        for _ in 0..200 {
            sketch.advance();
            sketch.insert(9u64);
        }
        let est = sketch.estimate(&9);
        // Geometric series Σ 0.1^i ≈ 1.111…
        assert!((est - 1.0 / 0.9).abs() < 1e-6, "estimate {est}");
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn zero_decay_is_rejected() {
        let _ = DecayingTopK::<u64>::new(4, 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_is_rejected() {
        let _ = SlidingWindowTopK::<u64>::new(0, 4);
    }
}
