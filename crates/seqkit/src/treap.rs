//! An order-statistic search tree (randomized treap), kept for one
//! benchmark probe.
//!
//! Only the benchmark's `treap_kernels` probe uses this type: it times the
//! per-PE tree operations a `bulkpq_churn` round once ran.  The bulk
//! priority queue itself (`topk::BulkParallelQueue`, paper §5) keeps its
//! elements in std's `BTreeSet`, so the tree offers only what the probe
//! calls: `insert`, `smallest(k)` and `split_at_rank`, each `O(log n)`
//! expected (`smallest` plus `O(k)`).
//!
//! Duplicate keys are allowed.

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

/// A randomized order-statistic search tree over keys of type `T`; only the
/// benchmark's `treap_kernels` probe uses it.
///
/// ```
/// use seqkit::Treap;
///
/// let mut t: Treap<u64> = Treap::new();
/// for x in [5, 1, 9, 1, 7] {
///     t.insert(x);
/// }
/// assert_eq!(t.len(), 5);
/// assert_eq!(t.smallest(3), vec![1, 1, 5]);
/// let (lo, hi) = t.split_at_rank(2);
/// assert_eq!(lo.smallest(2), vec![1, 1]);
/// assert_eq!(hi.smallest(3), vec![5, 7, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct Treap<T> {
    root: Option<Box<Node<T>>>,
    /// xorshift64* state used to draw node priorities; it starts from a
    /// fixed odd constant, so tests are reproducible.
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
        Treap {
            root: None,
            prio_state: 0x9E37_79B9_7F4A_7C15,
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

    /// The `k` smallest keys in sorted order (all keys if `k > len`).
    pub fn smallest(&self, k: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        push_smallest(&self.root, k, &mut out);
        out
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
fn merge<T: Ord + Clone>(left: Link<T>, right: Link<T>) -> Link<T> {
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

/// Append the keys of `node` to `out` in order until `out` holds `k`.
fn push_smallest<T: Clone>(node: &Link<T>, k: usize, out: &mut Vec<T>) {
    let Some(n) = node else { return };
    if out.len() >= k {
        return;
    }
    push_smallest(&n.left, k, out);
    if out.len() < k {
        out.push(n.key.clone());
        push_smallest(&n.right, k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All keys in sorted order.
    fn sorted<T: Ord + Clone>(t: &Treap<T>) -> Vec<T> {
        t.smallest(t.len())
    }

    #[test]
    fn insert_keeps_keys_sorted() {
        let mut t = Treap::new();
        assert!(t.is_empty());
        for x in [50u64, 10, 30, 20, 40] {
            t.insert(x);
        }
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(sorted(&t), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn duplicates_are_counted() {
        let t = Treap::from_iter([3u64, 3, 3, 1, 5]);
        assert_eq!(t.len(), 5);
        assert_eq!(sorted(&t), vec![1, 3, 3, 3, 5]);
    }

    #[test]
    fn split_at_rank_gives_exact_counts() {
        let t = Treap::from_iter((0u64..50).rev());
        let (lo, hi) = t.split_at_rank(13);
        assert_eq!(sorted(&lo), (0..13).collect::<Vec<u64>>());
        assert_eq!(sorted(&hi), (13..50).collect::<Vec<u64>>());
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
        assert_eq!(sorted(&t), reference);
    }

    #[test]
    fn ordered_insertions_stay_shallow_enough_to_walk() {
        // 4096 ordered insertions must not degenerate into a path: the
        // recursive walks of `smallest` and the splits would then recurse
        // 4096 deep (depth is probabilistic, so only sanity-check here).
        let t = Treap::from_iter(0u64..4096);
        assert_eq!(t.len(), 4096);
        assert_eq!(t.smallest(1), vec![0]);
        assert_eq!(sorted(&t).last(), Some(&4095));
    }

    #[test]
    fn works_with_tuple_keys_for_tie_breaking() {
        // The paper makes orderings unique by pairing value with origin.
        let t: Treap<(u64, usize)> = Treap::from_iter([(5, 1), (5, 0), (3, 2)]);
        assert_eq!(sorted(&t), vec![(3, 2), (5, 0), (5, 1)]);
    }
}
