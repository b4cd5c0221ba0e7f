//! An augmented search tree (treap) with order statistics.
//!
//! The bulk-parallel priority queue of the paper's Section 5 replaces the
//! per-PE sequential priority queues of earlier work by "search tree data
//! structures that support insertion, deletion, selection, ranking, splitting
//! and concatenation of objects in logarithmic time".  This module provides
//! exactly that data structure: a randomized treap whose nodes store subtree
//! sizes, giving
//!
//! * `insert`, `remove`          — `O(log n)` expected,
//! * `select(i)` (i-th smallest) — `O(log n)` expected,
//! * `rank(x)` (# elements ≤ x)  — `O(log n)` expected,
//! * `split(x)` / `concat`       — `O(log n)` expected,
//! * `min` / `max`               — `O(log n)` expected (`O(1)` amortised via
//!   the cached extrema the bulk queue keeps on top of this structure).
//!
//! Duplicate keys are allowed (the paper breaks ties by pairing values with
//! their origin, but the data structure itself does not need uniqueness).

use std::cmp::Ordering;

/// Internal tree node.
#[derive(Debug, Clone)]
struct Node<T> {
    key: T,
    priority: u64,
    size: usize,
    left: Option<Box<Node<T>>>,
    right: Option<Box<Node<T>>>,
}

impl<T: Ord + Clone> Node<T> {
    fn new(key: T, priority: u64) -> Box<Self> {
        Box::new(Node {
            key,
            priority,
            size: 1,
            left: None,
            right: None,
        })
    }

    fn update_size(&mut self) {
        self.size = 1 + size(&self.left) + size(&self.right);
    }
}

#[inline]
fn size<T>(node: &Option<Box<Node<T>>>) -> usize {
    node.as_ref().map_or(0, |n| n.size)
}

/// A randomized order-statistic search tree over keys of type `T`.
///
/// ```
/// use seqkit::Treap;
///
/// let mut t: Treap<u64> = Treap::new();
/// for x in [5, 1, 9, 1, 7] {
///     t.insert(x);
/// }
/// assert_eq!(t.len(), 5);
/// assert_eq!(t.select(0), Some(&1));   // smallest
/// assert_eq!(t.select(4), Some(&9));   // largest
/// assert_eq!(t.rank(&6), 3);           // three elements ≤ 6
/// let (le, gt) = t.split(&5);
/// assert_eq!(le.len(), 3);
/// assert_eq!(gt.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Treap<T> {
    root: Option<Box<Node<T>>>,
    /// xorshift64* state used to draw node priorities; deterministic given
    /// the seed so that tests are reproducible.
    prio_state: u64,
}

impl<T: Ord + Clone> Default for Treap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone> FromIterator<T> for Treap<T> {
    /// Build a treap by inserting every key from the iterator.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut t = Self::new();
        for x in iter {
            t.insert(x);
        }
        t
    }
}

impl<T: Ord + Clone> Treap<T> {
    /// Create an empty treap.
    pub fn new() -> Self {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// Create an empty treap whose priority sequence is derived from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Treap {
            root: None,
            prio_state: seed | 1,
        }
    }

    fn next_priority(&mut self) -> u64 {
        // xorshift64* — plenty for heap priorities.
        let mut x = self.prio_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prio_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// `true` iff the treap stores no keys.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Insert a key (duplicates allowed). Expected `O(log n)`.
    pub fn insert(&mut self, key: T) {
        let priority = self.next_priority();
        let root = self.root.take();
        let (le, gt) = split_le(root, &key);
        let node = Node::new(key, priority);
        self.root = merge(merge(le, Some(node)), gt);
    }

    /// Remove one occurrence of `key`; returns `true` if it was present.
    /// Expected `O(log n)`.
    pub fn remove(&mut self, key: &T) -> bool {
        let root = self.root.take();
        let (removed, root) = remove_one(root, key);
        self.root = root;
        removed
    }

    /// `true` iff at least one occurrence of `key` is stored.
    pub fn contains(&self, key: &T) -> bool {
        let mut cur = &self.root;
        while let Some(node) = cur {
            match key.cmp(&node.key) {
                Ordering::Less => cur = &node.left,
                Ordering::Greater => cur = &node.right,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// The i-th smallest key (0-based), or `None` if `i >= len`.
    /// Expected `O(log n)`.
    pub fn select(&self, mut i: usize) -> Option<&T> {
        let mut cur = &self.root;
        while let Some(node) = cur {
            let left = size(&node.left);
            match i.cmp(&left) {
                Ordering::Less => cur = &node.left,
                Ordering::Equal => return Some(&node.key),
                Ordering::Greater => {
                    i -= left + 1;
                    cur = &node.right;
                }
            }
        }
        None
    }

    /// Number of stored keys `≤ key` (the paper's `T.rank(x)`).
    /// Expected `O(log n)`.
    pub fn rank(&self, key: &T) -> usize {
        let mut cur = &self.root;
        let mut acc = 0;
        while let Some(node) = cur {
            if *key < node.key {
                cur = &node.left;
            } else {
                acc += size(&node.left) + 1;
                cur = &node.right;
            }
        }
        acc
    }

    /// Smallest key, or `None` if empty.
    pub fn min(&self) -> Option<&T> {
        let mut cur = self.root.as_ref()?;
        while let Some(left) = cur.left.as_ref() {
            cur = left;
        }
        Some(&cur.key)
    }

    /// Largest key, or `None` if empty.
    pub fn max(&self) -> Option<&T> {
        let mut cur = self.root.as_ref()?;
        while let Some(right) = cur.right.as_ref() {
            cur = right;
        }
        Some(&cur.key)
    }

    /// Split into `(≤ key, > key)`, consuming `self` (the paper's
    /// `T.split(x)`). Expected `O(log n)`.
    pub fn split(mut self, key: &T) -> (Treap<T>, Treap<T>) {
        let root = self.root.take();
        let (le, gt) = split_le(root, key);
        let seed_a = self.next_priority();
        let seed_b = self.next_priority();
        (
            Treap {
                root: le,
                prio_state: seed_a | 1,
            },
            Treap {
                root: gt,
                prio_state: seed_b | 1,
            },
        )
    }

    /// Split off the `count` smallest keys: returns `(smallest count, rest)`.
    /// Expected `O(log n)`.
    pub fn split_at_rank(mut self, count: usize) -> (Treap<T>, Treap<T>) {
        let root = self.root.take();
        let (lo, hi) = split_at_size(root, count);
        let seed_a = self.next_priority();
        let seed_b = self.next_priority();
        (
            Treap {
                root: lo,
                prio_state: seed_a | 1,
            },
            Treap {
                root: hi,
                prio_state: seed_b | 1,
            },
        )
    }

    /// Concatenate two treaps where every key of `self` is `≤` every key of
    /// `other` (the paper's `concat(T1, T2)`). Expected `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the key ranges overlap.
    pub fn concat(mut self, mut other: Treap<T>) -> Treap<T> {
        debug_assert!(
            match (self.max(), other.min()) {
                (Some(a), Some(b)) => a <= b,
                _ => true,
            },
            "concat requires all keys of the left treap to be ≤ the right treap"
        );
        let left = self.root.take();
        let right = other.root.take();
        let seed = self.next_priority();
        Treap {
            root: merge(left, right),
            prio_state: seed | 1,
        }
    }

    /// In-order (sorted) iteration over the stored keys.
    pub fn iter(&self) -> TreapIter<'_, T> {
        let mut stack = Vec::new();
        push_left_spine(&self.root, &mut stack);
        TreapIter { stack }
    }

    /// Collect the keys in sorted order.
    pub fn to_sorted_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }

    /// The `k` smallest keys in sorted order (all keys if `k > len`).
    pub fn smallest(&self, k: usize) -> Vec<T> {
        self.iter().take(k).cloned().collect()
    }
}

/// A detached subtree link, as stored in [`Node`] children.
type Link<T> = Option<Box<Node<T>>>;

/// Split `node` into `(keys ≤ split_key, keys > split_key)`.
fn split_le<T: Ord + Clone>(node: Link<T>, split_key: &T) -> (Link<T>, Link<T>) {
    match node {
        None => (None, None),
        Some(mut n) => {
            if n.key <= *split_key {
                let (le, gt) = split_le(n.right.take(), split_key);
                n.right = le;
                n.update_size();
                (Some(n), gt)
            } else {
                let (le, gt) = split_le(n.left.take(), split_key);
                n.left = gt;
                n.update_size();
                (le, Some(n))
            }
        }
    }
}

/// Split `node` into `(first count keys, rest)` by in-order position.
fn split_at_size<T: Ord + Clone>(node: Link<T>, count: usize) -> (Link<T>, Link<T>) {
    match node {
        None => (None, None),
        Some(mut n) => {
            let left_size = size(&n.left);
            if count <= left_size {
                let (lo, hi) = split_at_size(n.left.take(), count);
                n.left = hi;
                n.update_size();
                (lo, Some(n))
            } else {
                let (lo, hi) = split_at_size(n.right.take(), count - left_size - 1);
                n.right = lo;
                n.update_size();
                (Some(n), hi)
            }
        }
    }
}

/// Merge two treaps with `left` keys ≤ `right` keys.
fn merge<T: Ord + Clone>(
    left: Option<Box<Node<T>>>,
    right: Option<Box<Node<T>>>,
) -> Option<Box<Node<T>>> {
    match (left, right) {
        (None, r) => r,
        (l, None) => l,
        (Some(mut l), Some(mut r)) => {
            if l.priority >= r.priority {
                l.right = merge(l.right.take(), Some(r));
                l.update_size();
                Some(l)
            } else {
                r.left = merge(Some(l), r.left.take());
                r.update_size();
                Some(r)
            }
        }
    }
}

/// Remove one occurrence of `key`; returns whether a node was removed.
fn remove_one<T: Ord + Clone>(node: Option<Box<Node<T>>>, key: &T) -> (bool, Option<Box<Node<T>>>) {
    match node {
        None => (false, None),
        Some(mut n) => match key.cmp(&n.key) {
            Ordering::Less => {
                let (removed, left) = remove_one(n.left.take(), key);
                n.left = left;
                n.update_size();
                (removed, Some(n))
            }
            Ordering::Greater => {
                let (removed, right) = remove_one(n.right.take(), key);
                n.right = right;
                n.update_size();
                (removed, Some(n))
            }
            Ordering::Equal => (true, merge(n.left.take(), n.right.take())),
        },
    }
}

fn push_left_spine<'a, T>(mut node: &'a Option<Box<Node<T>>>, stack: &mut Vec<&'a Node<T>>) {
    while let Some(n) = node {
        stack.push(n);
        node = &n.left;
    }
}

/// In-order iterator over a [`Treap`].
pub struct TreapIter<'a, T> {
    stack: Vec<&'a Node<T>>,
}

impl<'a, T> Iterator for TreapIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        let mut cur = &node.right;
        while let Some(n) = cur {
            self.stack.push(n);
            cur = &n.left;
        }
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_select_rank_roundtrip() {
        let mut t = Treap::new();
        for x in [50u64, 10, 30, 20, 40] {
            t.insert(x);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.to_sorted_vec(), vec![10, 20, 30, 40, 50]);
        assert_eq!(t.select(0), Some(&10));
        assert_eq!(t.select(2), Some(&30));
        assert_eq!(t.select(4), Some(&50));
        assert_eq!(t.select(5), None);
        assert_eq!(t.rank(&5), 0);
        assert_eq!(t.rank(&30), 3);
        assert_eq!(t.rank(&100), 5);
    }

    #[test]
    fn duplicates_are_counted() {
        let mut t = Treap::new();
        for x in [3u64, 3, 3, 1, 5] {
            t.insert(x);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.rank(&3), 4);
        assert!(t.remove(&3));
        assert_eq!(t.len(), 4);
        assert_eq!(t.rank(&3), 3);
        assert!(t.contains(&3));
    }

    #[test]
    fn remove_missing_key_is_a_noop() {
        let mut t = Treap::from_iter([1u64, 2, 3]);
        assert!(!t.remove(&9));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn min_and_max() {
        let t = Treap::from_iter([7u64, 2, 9, 4]);
        assert_eq!(t.min(), Some(&2));
        assert_eq!(t.max(), Some(&9));
        let empty: Treap<u64> = Treap::new();
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn split_by_key_partitions_correctly() {
        let t = Treap::from_iter(0u64..100);
        let (le, gt) = t.split(&41);
        assert_eq!(le.len(), 42);
        assert_eq!(gt.len(), 58);
        assert_eq!(le.max(), Some(&41));
        assert_eq!(gt.min(), Some(&42));
    }

    #[test]
    fn split_by_absent_key() {
        let t = Treap::from_iter([10u64, 20, 30]);
        let (le, gt) = t.split(&25);
        assert_eq!(le.to_sorted_vec(), vec![10, 20]);
        assert_eq!(gt.to_sorted_vec(), vec![30]);
    }

    #[test]
    fn split_at_rank_gives_exact_counts() {
        let t = Treap::from_iter((0u64..50).rev());
        let (lo, hi) = t.split_at_rank(13);
        assert_eq!(lo.to_sorted_vec(), (0..13).collect::<Vec<u64>>());
        assert_eq!(hi.len(), 37);
        // Degenerate splits.
        let t = Treap::from_iter(0u64..5);
        let (lo, hi) = t.clone().split_at_rank(0);
        assert_eq!(lo.len(), 0);
        assert_eq!(hi.len(), 5);
        let (lo, hi) = t.split_at_rank(100);
        assert_eq!(lo.len(), 5);
        assert_eq!(hi.len(), 0);
    }

    #[test]
    fn concat_restores_split() {
        let t = Treap::from_iter(0u64..64);
        let (le, gt) = t.split(&20);
        let joined = le.concat(gt);
        assert_eq!(joined.to_sorted_vec(), (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn smallest_returns_a_prefix() {
        let t = Treap::from_iter([9u64, 1, 8, 2, 7, 3]);
        assert_eq!(t.smallest(3), vec![1, 2, 3]);
        assert_eq!(t.smallest(100).len(), 6);
        assert_eq!(t.smallest(0), Vec::<u64>::new());
    }

    #[test]
    fn iteration_is_sorted_for_random_inputs() {
        // Pseudo-random but deterministic input.
        let mut x: u64 = 12345;
        let mut t = Treap::new();
        let mut reference = Vec::new();
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 33;
            t.insert(v);
            reference.push(v);
        }
        reference.sort_unstable();
        assert_eq!(t.to_sorted_vec(), reference);
    }

    #[test]
    fn rank_and_select_are_inverse_on_distinct_keys() {
        let t = Treap::from_iter((0u64..500).map(|x| x * 3));
        for i in 0..500 {
            let key = *t.select(i).unwrap();
            assert_eq!(t.rank(&key), i + 1);
        }
    }

    #[test]
    fn expected_depth_is_logarithmic() {
        // A treap over 4096 ordered insertions must not degenerate into a
        // path; check that select() still works near the ends quickly (depth
        // is probabilistic, so only sanity-check the structure size here).
        let t = Treap::from_iter(0u64..4096);
        assert_eq!(t.len(), 4096);
        assert_eq!(t.select(0), Some(&0));
        assert_eq!(t.select(4095), Some(&4095));
    }

    #[test]
    fn works_with_tuple_keys_for_tie_breaking() {
        // The paper makes orderings unique by pairing value with origin.
        let mut t: Treap<(u64, usize)> = Treap::new();
        t.insert((5, 1));
        t.insert((5, 0));
        t.insert((3, 2));
        assert_eq!(t.select(0), Some(&(3, 2)));
        assert_eq!(t.select(1), Some(&(5, 0)));
        assert_eq!(t.select(2), Some(&(5, 1)));
        assert_eq!(t.rank(&(5, 0)), 2);
    }
}
