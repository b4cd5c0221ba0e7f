//! Hash-based local aggregation.
//!
//! Both the frequent-objects algorithms (paper Section 7) and the sum
//! aggregation (Section 8) first aggregate their *local* input in a hash
//! table — "apply local aggregation when inserting the sample into the
//! distributed hash table" (Section 7.4) — and only then communicate the much
//! smaller aggregate.  These helpers implement that local step plus the
//! "top-k by aggregate" post-processing used everywhere in Sections 7 and 8.

use std::collections::HashMap;
use std::hash::Hash;

/// Count the occurrences of every key in `items`.
pub fn count_keys<K, I>(items: I) -> HashMap<K, u64>
where
    K: Eq + Hash,
    I: IntoIterator<Item = K>,
{
    let mut counts = HashMap::new();
    for k in items {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

/// Sum the values associated with every key in `items`.
pub fn sum_by_key<K, I>(items: I) -> HashMap<K, f64>
where
    K: Eq + Hash,
    I: IntoIterator<Item = (K, f64)>,
{
    let mut sums = HashMap::new();
    for (k, v) in items {
        *sums.entry(k).or_insert(0.0) += v;
    }
    sums
}

/// Merge the `(key, count)` entries of `src` into `dst` by adding counts.
pub fn merge_counts<K: Eq + Hash>(
    dst: &mut HashMap<K, u64>,
    src: impl IntoIterator<Item = (K, u64)>,
) {
    for (k, v) in src {
        *dst.entry(k).or_insert(0) += v;
    }
}

/// The `k` keys with the largest counts, sorted by decreasing count
/// (ties broken deterministically by key order for reproducibility).
pub fn top_k_by_count<K: Eq + Hash + Ord + Clone>(
    counts: &HashMap<K, u64>,
    k: usize,
) -> Vec<(K, u64)> {
    let mut entries: Vec<(K, u64)> = counts.iter().map(|(key, &c)| (key.clone(), c)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

/// The `k` keys with the largest sums, sorted by decreasing sum.
pub fn top_k_by_sum<K: Eq + Hash + Ord + Clone>(sums: &HashMap<K, f64>, k: usize) -> Vec<(K, f64)> {
    let mut entries: Vec<(K, f64)> = sums.iter().map(|(key, &s)| (key.clone(), s)).collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_aggregates_duplicates() {
        let counts = count_keys(vec!["a", "b", "a", "c", "a", "b"]);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn counting_empty_input() {
        let counts: HashMap<u64, u64> = count_keys(Vec::<u64>::new());
        assert!(counts.is_empty());
    }

    #[test]
    fn summing_aggregates_values() {
        let sums = sum_by_key(vec![(1u64, 2.0), (2, 1.5), (1, 3.0)]);
        assert_eq!(sums[&1], 5.0);
        assert_eq!(sums[&2], 1.5);
    }

    #[test]
    fn merging_counts_adds_up() {
        let mut a = count_keys(vec![1u64, 1, 2]);
        let b = count_keys(vec![1u64, 3]);
        merge_counts(&mut a, b);
        assert_eq!(a[&1], 3);
        assert_eq!(a[&2], 1);
        assert_eq!(a[&3], 1);
    }

    #[test]
    fn top_k_by_count_orders_and_truncates() {
        let counts = count_keys(vec![5u64, 5, 5, 3, 3, 9]);
        let top = top_k_by_count(&counts, 2);
        assert_eq!(top, vec![(5, 3), (3, 2)]);
        let all = top_k_by_count(&counts, 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn top_k_breaks_ties_deterministically() {
        let counts = count_keys(vec![1u64, 2, 3, 4]);
        let top = top_k_by_count(&counts, 2);
        assert_eq!(top, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn top_k_by_sum_orders_by_value() {
        let sums = sum_by_key(vec![(1u64, 1.0), (2, 10.0), (3, 5.0)]);
        let top = top_k_by_sum(&sums, 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 3);
    }
}
