//! Deterministic frequent-object summaries (sequential baselines).
//!
//! The paper's Section 7 contrasts its sampling-based distributed algorithms
//! with the classical *heavy hitters* formulation, which only finds objects
//! whose frequency exceeds a fixed fraction of the input.  The standard
//! deterministic one-pass summary is implemented here — it serves as a
//! sequential baseline and backs the sliding-window sketch
//! ([`crate::SlidingWindowTopK`]):
//!
//! * [`MisraGries`]: `k − 1` counters, frequency estimates with additive
//!   error at most `n/k`.

use std::collections::HashMap;
use std::hash::Hash;

/// The Misra–Gries frequent-elements summary with `capacity` counters.
///
/// After processing `n` elements, for every object `x` the estimate
/// `f̂(x)` satisfies `f(x) − n/(capacity+1) ≤ f̂(x) ≤ f(x)`.
#[derive(Debug, Clone)]
pub struct MisraGries<K> {
    capacity: usize,
    counters: HashMap<K, u64>,
    processed: u64,
}

impl<K: Eq + Hash + Clone> MisraGries<K> {
    /// Create a summary holding at most `capacity` counters (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one counter");
        MisraGries {
            capacity,
            counters: HashMap::with_capacity(capacity + 1),
            processed: 0,
        }
    }

    /// Process one element of the stream.
    pub fn insert(&mut self, key: K) {
        self.insert_weighted(key, 1);
    }

    /// Process one element with a positive integer weight (equivalent to
    /// `weight` repetitions).
    pub fn insert_weighted(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.processed += weight;
        if let Some(c) = self.counters.get_mut(&key) {
            *c += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(key, weight);
            return;
        }
        // Decrement all counters by the largest amount that keeps them
        // non-negative and does not exceed the new element's weight.
        let min_count = self.counters.values().copied().min().unwrap_or(0);
        let dec = min_count.min(weight);
        let mut remaining_weight = weight - dec;
        self.counters.retain(|_, c| {
            *c -= dec;
            *c > 0
        });
        if remaining_weight > 0 {
            if self.counters.len() < self.capacity {
                self.counters.insert(key, remaining_weight);
            } else {
                // All counters were still positive after the decrement: the
                // new element's remaining weight is absorbed (classical MG
                // drops it; only happens when dec == weight, so remaining is
                // zero — defensive branch).
                remaining_weight = 0;
            }
        }
        let _ = remaining_weight;
    }

    /// Number of stream elements processed so far (sum of weights).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Estimated frequency of `key` (an under-estimate).
    pub fn estimate(&self, key: &K) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All currently tracked candidates with their estimates, sorted by
    /// decreasing estimate.
    pub fn candidates(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.counters.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Additive error bound of the estimates: `processed / (capacity + 1)`.
    pub fn error_bound(&self) -> u64 {
        self.processed / (self.capacity as u64 + 1)
    }

    /// Merge another summary into this one (the standard mergeable-summary
    /// construction: add counters, then keep the `capacity` largest after
    /// subtracting the `(capacity+1)`-largest value).
    pub fn merge(&mut self, other: &MisraGries<K>) {
        for (k, &c) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += c;
        }
        self.processed += other.processed;
        if self.counters.len() > self.capacity {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let threshold = counts[self.capacity];
            self.counters.retain(|_, c| {
                *c = c.saturating_sub(threshold);
                *c > 0
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream where key 0 appears 500 times, key 1 300 times, and keys
    /// 100.. appear once each (2000 singletons).
    fn skewed_stream() -> Vec<u64> {
        let mut v = vec![0; 500];
        v.extend(std::iter::repeat_n(1u64, 300));
        v.extend(100..2100u64);
        // Deterministic interleave so the heavy keys are spread out.
        let heavy: Vec<u64> = v.drain(..800).collect();
        let light: Vec<u64> = v;
        let mut out = Vec::new();
        let mut hi = heavy.into_iter();
        let mut li = light.into_iter();
        loop {
            match (hi.next(), li.next(), li.next()) {
                (None, None, None) => break,
                (h, l1, l2) => {
                    out.extend(h);
                    out.extend(l1);
                    out.extend(l2);
                }
            }
        }
        out
    }

    #[test]
    fn misra_gries_finds_heavy_keys() {
        let stream = skewed_stream();
        let n = stream.len() as u64;
        let mut mg = MisraGries::new(15);
        for &x in &stream {
            mg.insert(x);
        }
        assert_eq!(mg.processed(), n);
        // Both heavy keys have true count far above n/(capacity+1).
        assert!(mg.estimate(&0) >= 500 - mg.error_bound());
        assert!(mg.estimate(&1) >= 300 - mg.error_bound());
        assert!(mg.estimate(&0) <= 500);
        assert!(mg.estimate(&1) <= 300);
    }

    #[test]
    fn misra_gries_estimates_never_exceed_truth() {
        let stream = skewed_stream();
        let mut mg = MisraGries::new(5);
        for &x in &stream {
            mg.insert(x);
        }
        for (k, est) in mg.candidates() {
            let truth = stream.iter().filter(|&&x| x == k).count() as u64;
            assert!(est <= truth, "key {k}: estimate {est} > truth {truth}");
        }
    }

    #[test]
    fn misra_gries_weighted_inserts_match_repeats() {
        let mut a = MisraGries::new(4);
        let mut b = MisraGries::new(4);
        for _ in 0..7 {
            a.insert("x");
        }
        b.insert_weighted("x", 7);
        assert_eq!(a.estimate(&"x"), b.estimate(&"x"));
        b.insert_weighted("y", 0);
        assert_eq!(b.processed(), 7);
    }

    #[test]
    fn misra_gries_merge_preserves_heavy_keys() {
        let stream = skewed_stream();
        let mid = stream.len() / 2;
        let mut left = MisraGries::new(20);
        let mut right = MisraGries::new(20);
        for &x in &stream[..mid] {
            left.insert(x);
        }
        for &x in &stream[mid..] {
            right.insert(x);
        }
        left.merge(&right);
        assert_eq!(left.processed(), stream.len() as u64);
        let top: Vec<u64> = left
            .candidates()
            .into_iter()
            .take(2)
            .map(|(k, _)| k)
            .collect();
        assert!(top.contains(&0));
        assert!(top.contains(&1));
    }

    #[test]
    fn small_capacity_edge_cases() {
        let mut mg = MisraGries::new(1);
        for x in [1u64, 2, 1, 3, 1] {
            mg.insert(x);
        }
        assert!(mg.estimate(&1) <= 3);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_is_rejected() {
        let _ = MisraGries::<u64>::new(0);
    }
}
