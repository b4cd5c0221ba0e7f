//! Utilities on locally sorted sequences.
//!
//! The multisequence selection algorithms (paper Sections 4.2 and 4.3) never
//! look at unsorted data: each PE holds a locally *sorted* sequence, and all
//! the algorithm needs beside `partition_point` is a reference implementation
//! of selection over the union of several sorted sequences to test against.

/// Reference multisequence selection: the element of global rank `k`
/// (1-based) in the union of several sorted sequences, computed by merging.
///
/// This is `O(n log n)` and exists purely as the correctness oracle for the
/// distributed `O(α log² kp)` algorithm.
pub fn select_in_sorted_union<T: Ord + Clone>(sequences: &[Vec<T>], k: usize) -> Option<T> {
    let total: usize = sequences.iter().map(Vec::len).sum();
    if k == 0 || k > total {
        return None;
    }
    let mut all: Vec<T> = sequences.iter().flat_map(|s| s.iter().cloned()).collect();
    all.sort();
    Some(all[k - 1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_selection_matches_manual_merge() {
        let seqs = vec![vec![1u64, 5, 9], vec![2, 6], vec![], vec![3, 4, 7, 8]];
        for k in 1..=9 {
            assert_eq!(select_in_sorted_union(&seqs, k), Some(k as u64));
        }
        assert_eq!(select_in_sorted_union(&seqs, 0), None);
        assert_eq!(select_in_sorted_union(&seqs, 10), None);
    }
}
