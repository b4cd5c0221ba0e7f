//! Virtual topologies used by the collective operations.
//!
//! All collectives in this crate are built on a *binomial tree* (for rooted
//! operations such as broadcast, reduce, gather and scatter) or on
//! *dissemination / recursive-doubling* exchange patterns (for barrier,
//! prefix sums and all-reduction).  Both give the `O(α log p)` latency the
//! paper's model assumes and work for any `p`, not just powers of two.
//!
//! The tree functions operate on ranks *relative to the root*: rank `r` is
//! mapped to `vr = (r + p - root) % p`, the tree is laid out on the virtual
//! ranks, and the result is mapped back.

use crate::Rank;

/// Parent of `rank` in a binomial tree rooted at `root` over `p` ranks, or
/// `None` for the root itself.
///
/// In virtual-rank space the parent of `v > 0` is `v` with its lowest set bit
/// cleared — the classic binomial-tree layout.
pub fn binomial_parent(rank: Rank, root: Rank, p: usize) -> Option<Rank> {
    debug_assert!(rank < p && root < p);
    let v = virtual_rank(rank, root, p);
    if v == 0 {
        None
    } else {
        let parent_v = v & (v - 1);
        Some(physical_rank(parent_v, root, p))
    }
}

/// Children of `rank` in a binomial tree rooted at `root` over `p` ranks,
/// ordered from the highest-order child to the lowest.
///
/// The children of virtual rank `v` are `v | 2^j` for every `j` above `v`'s
/// lowest set bit (or every `j` if `v == 0`), as long as the result is `< p`.
pub fn binomial_children(rank: Rank, root: Rank, p: usize) -> Vec<Rank> {
    debug_assert!(rank < p && root < p);
    let v = virtual_rank(rank, root, p);
    let low = if v == 0 {
        usize::BITS
    } else {
        v.trailing_zeros()
    };
    let mut children = Vec::new();
    let mut bit = 1usize;
    let mut j = 0u32;
    while bit < p {
        if j >= low {
            break;
        }
        let child = v | bit;
        if child != v && child < p {
            children.push(physical_rank(child, root, p));
        }
        bit <<= 1;
        j += 1;
    }
    // Highest-order child first so that large subtrees start communicating as
    // early as possible (standard binomial broadcast ordering).
    children.reverse();
    children
}

/// Map a physical rank to its virtual rank relative to `root`.
#[inline]
pub fn virtual_rank(rank: Rank, root: Rank, p: usize) -> usize {
    (rank + p - root) % p
}

/// Map a virtual rank relative to `root` back to the physical rank.
#[inline]
fn physical_rank(vrank: usize, root: Rank, p: usize) -> Rank {
    (vrank + root) % p
}

/// Number of rounds of a dissemination pattern over `p` ranks:
/// `ceil(log2 p)`.
#[inline]
pub fn dissemination_rounds(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Size of the subtree rooted at `rank` in a binomial tree over `p` ranks
/// rooted at `root` (including `rank` itself).
pub fn binomial_subtree_size(rank: Rank, root: Rank, p: usize) -> usize {
    let mut size = 1;
    for child in binomial_children(rank, root, p) {
        size += binomial_subtree_size(child, root, p);
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tree(p: usize, root: Rank) {
        // Every non-root has exactly one parent, the parent lists it as a
        // child, and all subtree sizes add up to p.
        let mut reachable = vec![false; p];
        reachable[root] = true;
        for (r, seen) in reachable.iter_mut().enumerate() {
            match binomial_parent(r, root, p) {
                None => assert_eq!(r, root),
                Some(parent) => {
                    assert!(binomial_children(parent, root, p).contains(&r));
                    *seen = true;
                }
            }
        }
        assert!(reachable.iter().all(|&x| x), "p={p} root={root}");
        assert_eq!(binomial_subtree_size(root, root, p), p);
    }

    #[test]
    fn binomial_tree_is_consistent_for_many_sizes() {
        for p in 1..=33 {
            for root in [0, p / 2, p - 1] {
                check_tree(p, root);
            }
        }
    }

    #[test]
    fn children_of_root_cover_power_of_two_offsets() {
        let children = binomial_children(0, 0, 8);
        assert_eq!(children, vec![4, 2, 1]);
    }

    #[test]
    fn parent_clears_lowest_bit() {
        assert_eq!(binomial_parent(5, 0, 8), Some(4));
        assert_eq!(binomial_parent(6, 0, 8), Some(4));
        assert_eq!(binomial_parent(7, 0, 8), Some(6));
        assert_eq!(binomial_parent(0, 0, 8), None);
    }

    #[test]
    fn virtual_rank_roundtrip() {
        for p in 1..=16 {
            for root in 0..p {
                for r in 0..p {
                    let v = virtual_rank(r, root, p);
                    assert_eq!(physical_rank(v, root, p), r);
                }
            }
        }
    }

    #[test]
    fn rooted_tree_depth_is_logarithmic() {
        // The longest root-to-leaf path in a binomial tree over p nodes has
        // ceil(log2 p) edges.
        for p in [2usize, 3, 7, 8, 16, 31, 32, 33] {
            let mut max_depth = 0;
            for r in 0..p {
                let mut depth = 0;
                let mut cur = r;
                while let Some(parent) = binomial_parent(cur, 0, p) {
                    cur = parent;
                    depth += 1;
                }
                max_depth = max_depth.max(depth);
            }
            assert!(
                max_depth as u32 <= dissemination_rounds(p),
                "p={p} depth={max_depth}"
            );
        }
    }

    #[test]
    fn dissemination_rounds_is_ceil_log2() {
        assert_eq!(dissemination_rounds(1), 0);
        assert_eq!(dissemination_rounds(2), 1);
        assert_eq!(dissemination_rounds(3), 2);
        assert_eq!(dissemination_rounds(4), 2);
        assert_eq!(dissemination_rounds(5), 3);
        assert_eq!(dissemination_rounds(1024), 10);
        assert_eq!(dissemination_rounds(1025), 11);
    }
}
