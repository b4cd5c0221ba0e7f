//! Fagin's threshold algorithm (TA) for sequential multicriteria top-k.
//!
//! This is the sequential algorithm the paper's Section 6 parallelizes: `m`
//! score lists, each sorted by decreasing score, a monotone aggregation
//! function `t(x_1, …, x_m)`, and the task of finding the `k` objects with
//! the highest aggregated relevance.  In each of `K` iterations TA scans one
//! row (one object from each list), resolves the scanned objects' exact
//! aggregate scores by random access into the other lists, and stops once at
//! least `k` scanned objects score strictly above `t(x_1, …, x_m)` where
//! `x_i` is the lowest score scanned in list `i` — no unscanned object scores
//! above that threshold, so none can outrank them, whatever its id.  Objects
//! rank by `Reverse((score, object))`: the larger id first at a tie.
//!
//! The distributed algorithms (RDTA, DTA) approximate the set of rows TA
//! scans; this implementation is both their correctness oracle and the
//! source of the reference value `K` used in the DTA analysis.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Identifier of an object appearing in the score lists.
pub type ObjectId = u64;

/// One ranking criterion: objects with their scores, sorted by decreasing
/// score, plus an index for `O(1)` random access.
#[derive(Debug, Clone, Default)]
pub struct ScoreList {
    entries: Vec<(ObjectId, f64)>,
    index: HashMap<ObjectId, f64>,
}

impl ScoreList {
    /// Build a list from arbitrary-order `(object, score)` pairs; the list is
    /// sorted by decreasing score (ties broken by object id for determinism).
    pub fn new(mut entries: Vec<(ObjectId, f64)>) -> Self {
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let index = entries.iter().copied().collect();
        ScoreList { entries, index }
    }

    /// Number of objects in the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th entry in decreasing-score order.
    pub fn get(&self, i: usize) -> Option<(ObjectId, f64)> {
        self.entries.get(i).copied()
    }

    /// Sorted access: iterate entries in decreasing-score order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Random access: the score of `object` in this criterion (objects absent
    /// from the list score 0, the conventional TA treatment of sparse lists).
    pub fn score_of(&self, object: ObjectId) -> f64 {
        self.index.get(&object).copied().unwrap_or(0.0)
    }

    /// The entries with score `≥ bound`, i.e. the prefix of the list that the
    /// distributed algorithm calls `L'`.
    pub fn prefix_at_least(&self, bound: f64) -> &[(ObjectId, f64)] {
        let end = self.entries.partition_point(|&(_, s)| s >= bound);
        &self.entries[..end]
    }
}

/// The ranking of scored objects: `Reverse((score, object))` — decreasing
/// score (`f64::total_cmp`), the larger id first at a tie.  The distributed
/// algorithms rank by it too: it is the order of their top-k merge.
fn rank_order(a: &(ObjectId, f64), b: &(ObjectId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(b.0.cmp(&a.0))
}

/// Result of a threshold-algorithm run.
#[derive(Debug, Clone)]
pub struct ThresholdResult {
    /// The `k` most relevant objects with their aggregate scores, best
    /// first by `Reverse((score, object))`.
    pub top_k: Vec<(ObjectId, f64)>,
    /// Number of rows scanned (the paper's `K`).
    pub rows_scanned: usize,
    /// Number of random accesses performed.
    pub random_accesses: usize,
    /// The final threshold `t(x_1, …, x_m)`.
    pub threshold: f64,
}

/// Sequential threshold algorithm over `m` score lists.
pub struct ThresholdAlgorithm<'a, F> {
    lists: &'a [ScoreList],
    score_fn: F,
}

impl<'a, F: Fn(&[f64]) -> f64> ThresholdAlgorithm<'a, F> {
    /// Create a TA instance.  `score_fn` must be monotone in every argument
    /// (the correctness of the early-stopping rule depends on it).
    pub fn new(lists: &'a [ScoreList], score_fn: F) -> Self {
        ThresholdAlgorithm { lists, score_fn }
    }

    /// Exact aggregate score of one object (random access into every list).
    pub fn aggregate_score(&self, object: ObjectId) -> f64 {
        let scores: Vec<f64> = self.lists.iter().map(|l| l.score_of(object)).collect();
        (self.score_fn)(&scores)
    }

    /// Run TA and return the top-`k` objects.
    pub fn run(&self, k: usize) -> ThresholdResult {
        let m = self.lists.len();
        let max_rows = self.lists.iter().map(ScoreList::len).max().unwrap_or(0);
        let mut seen: HashSet<ObjectId> = HashSet::new();
        let mut candidates: Vec<(ObjectId, f64)> = Vec::new();
        let mut random_accesses = 0usize;
        let mut last_row_scores = vec![0.0f64; m];
        let mut rows_scanned = 0usize;

        for row in 0..max_rows {
            rows_scanned = row + 1;
            for (i, list) in self.lists.iter().enumerate() {
                if let Some((object, score)) = list.get(row) {
                    last_row_scores[i] = score;
                    if seen.insert(object) {
                        random_accesses += m.saturating_sub(1);
                        let agg = self.aggregate_score(object);
                        candidates.push((object, agg));
                    }
                } else {
                    last_row_scores[i] = 0.0;
                }
            }
            let threshold = (self.score_fn)(&last_row_scores);
            candidates.sort_by(rank_order);
            candidates.truncate(k.max(1) * 4 + 64); // keep a small working set

            // An unscanned object scores at most the threshold, so it can
            // only outrank a candidate that does not lie strictly above it.
            let above = candidates
                .iter()
                .take(k)
                .filter(|&&(_, s)| s > threshold)
                .count();
            if above == k {
                candidates.truncate(k);
                return ThresholdResult {
                    top_k: candidates,
                    rows_scanned,
                    random_accesses,
                    threshold,
                };
            }
        }

        candidates.sort_by(rank_order);
        candidates.truncate(k);
        let threshold = (self.score_fn)(&last_row_scores);
        ThresholdResult {
            top_k: candidates,
            rows_scanned,
            random_accesses,
            threshold,
        }
    }
}

/// Exhaustive reference: aggregate every object appearing in any list and
/// return the top-`k` by `Reverse((score, object))`.  `O(N·m)` — the oracle
/// the TA variants are tested against.
pub fn exhaustive_top_k<F: Fn(&[f64]) -> f64>(
    lists: &[ScoreList],
    score_fn: F,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    let mut objects: HashSet<ObjectId> = HashSet::new();
    for list in lists {
        for (o, _) in list.iter() {
            objects.insert(o);
        }
    }
    let mut scored: Vec<(ObjectId, f64)> = objects
        .into_iter()
        .map(|o| {
            let scores: Vec<f64> = lists.iter().map(|l| l.score_of(o)).collect();
            (o, score_fn(&scores))
        })
        .collect();
    scored.sort_by(rank_order);
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_fn(scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn three_lists() -> Vec<ScoreList> {
        // Object ids 1..=6 with hand-picked scores.
        vec![
            ScoreList::new(vec![
                (1, 0.9),
                (2, 0.8),
                (3, 0.5),
                (4, 0.3),
                (5, 0.2),
                (6, 0.1),
            ]),
            ScoreList::new(vec![
                (2, 0.95),
                (3, 0.7),
                (1, 0.6),
                (6, 0.4),
                (5, 0.35),
                (4, 0.05),
            ]),
            ScoreList::new(vec![
                (3, 0.99),
                (1, 0.85),
                (2, 0.2),
                (5, 0.15),
                (4, 0.1),
                (6, 0.02),
            ]),
        ]
    }

    #[test]
    fn score_list_sorts_descending_and_indexes() {
        let l = ScoreList::new(vec![(1, 0.2), (2, 0.9), (3, 0.5)]);
        assert_eq!(l.get(0), Some((2, 0.9)));
        assert_eq!(l.get(2), Some((1, 0.2)));
        assert_eq!(l.score_of(3), 0.5);
        assert_eq!(l.score_of(42), 0.0);
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
    }

    #[test]
    fn prefix_at_least_returns_the_right_cut() {
        let l = ScoreList::new(vec![(1, 0.9), (2, 0.5), (3, 0.5), (4, 0.1)]);
        assert_eq!(l.prefix_at_least(0.5).len(), 3);
        assert_eq!(l.prefix_at_least(0.95).len(), 0);
        assert_eq!(l.prefix_at_least(0.0).len(), 4);
    }

    #[test]
    fn ta_matches_exhaustive_reference() {
        let lists = three_lists();
        for k in 1..=5 {
            let ta = ThresholdAlgorithm::new(&lists, sum_fn);
            let result = ta.run(k);
            let reference = exhaustive_top_k(&lists, sum_fn, k);
            let got: Vec<ObjectId> = result.top_k.iter().map(|&(o, _)| o).collect();
            let want: Vec<ObjectId> = reference.iter().map(|&(o, _)| o).collect();
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn ta_stops_before_scanning_everything_on_easy_inputs() {
        // One object dominates everywhere: TA must stop after very few rows.
        let lists = vec![
            ScoreList::new(
                (0..1000)
                    .map(|i| (i, if i == 7 { 1.0 } else { 0.001 }))
                    .collect(),
            ),
            ScoreList::new(
                (0..1000)
                    .map(|i| (i, if i == 7 { 1.0 } else { 0.001 }))
                    .collect(),
            ),
        ];
        let ta = ThresholdAlgorithm::new(&lists, sum_fn);
        let result = ta.run(1);
        assert_eq!(result.top_k[0].0, 7);
        assert!(result.rows_scanned < 10, "scanned {}", result.rows_scanned);
    }

    #[test]
    fn ta_with_max_aggregation_is_monotone_too() {
        let max_fn = |s: &[f64]| s.iter().cloned().fold(0.0, f64::max);
        let lists = three_lists();
        let ta = ThresholdAlgorithm::new(&lists, max_fn);
        let result = ta.run(2);
        let reference = exhaustive_top_k(&lists, max_fn, 2);
        assert_eq!(
            result.top_k.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            reference.iter().map(|&(o, _)| o).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ta_handles_k_larger_than_object_count() {
        let lists = three_lists();
        let ta = ThresholdAlgorithm::new(&lists, sum_fn);
        let result = ta.run(100);
        assert_eq!(result.top_k.len(), 6);
    }

    #[test]
    fn ta_handles_empty_lists() {
        let lists = vec![ScoreList::new(vec![]), ScoreList::new(vec![])];
        let ta = ThresholdAlgorithm::new(&lists, sum_fn);
        let result = ta.run(3);
        assert!(result.top_k.is_empty());
        assert_eq!(result.rows_scanned, 0);
    }

    #[test]
    fn objects_missing_from_some_lists_score_zero_there() {
        let lists = vec![
            ScoreList::new(vec![(1, 1.0)]),
            ScoreList::new(vec![(2, 1.0)]),
        ];
        let ta = ThresholdAlgorithm::new(&lists, sum_fn);
        assert_eq!(ta.aggregate_score(1), 1.0);
        assert_eq!(ta.aggregate_score(2), 1.0);
        assert_eq!(ta.aggregate_score(3), 0.0);
    }

    #[test]
    fn rows_scanned_is_reported() {
        let lists = three_lists();
        let ta = ThresholdAlgorithm::new(&lists, sum_fn);
        let result = ta.run(2);
        assert!(result.rows_scanned >= 1 && result.rows_scanned <= 6);
        assert!(result.random_accesses > 0);
    }
}
