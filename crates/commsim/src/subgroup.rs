//! Communicator adapter for a subgroup of surviving PEs.
//!
//! After a crash is detected (see [`crate::faults`] and
//! [`crate::Communicator::recv_failable`]), the survivors still need
//! collectives — a degraded refresh of a streaming top-k service aggregates
//! over *live* PEs only.  [`SubComm`] wraps any [`Communicator`] and
//! restricts it to an explicit, sorted member list: group rank `i` is the
//! `i`-th member, every point-to-point operation translates group ranks to
//! world ranks, and all provided collectives of the trait work unchanged
//! because they are written purely against `rank()`/`size()` and the raw
//! transfer surface.
//!
//! ## Tag discipline
//!
//! The wrapped world communicator keeps its own collective sequence counter;
//! a subgroup must not consume it (non-members never see the subgroup's
//! traffic, so the counters would diverge).  Instead each `SubComm` draws
//! internal tags from a **salted stripe** of the reserved tag space:
//!
//! ```text
//! world collective  s  →  COLLECTIVE_TAG_BASE + s                 (stripe 0)
//! subgroup, salt g, s  →  COLLECTIVE_TAG_BASE + (g+1)·STRIDE + s  (stripe g+1)
//! ```
//!
//! As long as no single communicator issues [`TAG_STRIDE`] collectives
//! (65 536 — far beyond anything in this repository) and concurrent
//! subgroups use distinct salts, the stripes cannot collide.  Callers that
//! create a fresh subgroup per epoch (e.g. one per membership change) should
//! use the epoch number as the salt.

use std::cell::Cell;

use crate::communicator::{Communicator, COLLECTIVE_TAG_BASE};
use crate::message::CommData;
use crate::metrics::StatsSnapshot;
use crate::{Rank, Tag};

/// Width of one salted collective-tag stripe (see the module docs).
const TAG_STRIDE: u64 = 1 << 16;

/// A communicator restricted to a subgroup of the world's PEs.
///
/// Group rank `i` corresponds to world rank `members[i]`; the member list is
/// sorted, so rank order (and with it the operand order of non-commutative
/// scans) is preserved.  Every member must construct the `SubComm` with the
/// identical member list and salt — the usual SPMD contract, one level down.
pub struct SubComm<'a, C: Communicator> {
    parent: &'a C,
    members: Vec<Rank>,
    /// This PE's group rank (its index in `members`).
    index: usize,
    /// Stripe selector for the internal collective tag space.
    salt: u64,
    collective_seq: Cell<u64>,
}

impl<'a, C: Communicator> SubComm<'a, C> {
    /// Restrict `parent` to `members` (world ranks, strictly increasing,
    /// containing the calling PE).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, contains duplicates or
    /// out-of-range ranks, or does not contain `parent.rank()`.
    pub fn new(parent: &'a C, members: Vec<Rank>, salt: u64) -> Self {
        assert!(!members.is_empty(), "a subgroup needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "subgroup members must be strictly increasing world ranks"
        );
        assert!(
            *members.last().expect("non-empty") < parent.size(),
            "subgroup member out of range for world of size {}",
            parent.size()
        );
        let index = members.binary_search(&parent.rank()).unwrap_or_else(|_| {
            panic!(
                "PE {} constructed a subgroup it is not a member of",
                parent.rank()
            )
        });
        SubComm {
            parent,
            members,
            index,
            salt,
            collective_seq: Cell::new(0),
        }
    }

    /// The world ranks of the group, in group-rank order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Translate a group rank to the underlying world rank.
    ///
    /// # Panics
    ///
    /// Panics if `group_rank` is out of range for the group.
    pub fn world_rank(&self, group_rank: Rank) -> Rank {
        assert!(
            group_rank < self.members.len(),
            "group rank {group_rank} out of range for subgroup of size {}",
            self.members.len()
        );
        self.members[group_rank]
    }

    /// The wrapped world communicator.
    pub fn parent(&self) -> &C {
        self.parent
    }
}

impl<C: Communicator> Communicator for SubComm<'_, C> {
    fn rank(&self) -> Rank {
        self.index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.parent.stats_snapshot()
    }

    fn next_collective_tag(&self) -> Tag {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        debug_assert!(seq < TAG_STRIDE, "collective tag stripe exhausted");
        COLLECTIVE_TAG_BASE + (self.salt + 1) * TAG_STRIDE + seq
    }

    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        self.parent.send_raw(self.world_rank(dst), tag, value);
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        self.parent.recv_raw(self.world_rank(src), expected_tag)
    }

    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> crate::CommResult<T> {
        // Translate the rank both ways: the parent reports errors in world
        // ranks, the caller thinks in group ranks — keep world ranks, they
        // are what the caller's failure handling (membership maps, buddy
        // rings) is keyed by.
        self.parent.recv_failable(self.world_rank(src), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::run_spmd_seq;
    use crate::ReduceOp;

    #[test]
    fn subgroup_collectives_run_among_members_only() {
        // World of 6; the even ranks form a group and all-reduce their world
        // ranks (0+2+4 = 6) while the odd ranks independently gossip.
        let out = run_spmd_seq(6, |comm| {
            let members: Vec<Rank> = (0..comm.size()).filter(|r| r % 2 == 0).collect();
            if comm.rank() % 2 == 0 {
                let sub = SubComm::new(comm, members, 0);
                assert_eq!(sub.size(), 3);
                assert_eq!(sub.world_rank(sub.rank()), comm.rank());
                sub.allreduce_sum(comm.rank() as u64)
            } else {
                let members: Vec<Rank> = (0..comm.size()).filter(|r| r % 2 == 1).collect();
                let sub = SubComm::new(comm, members, 1);
                sub.allreduce_sum(comm.rank() as u64)
            }
        });
        assert_eq!(out.results, vec![6, 9, 6, 9, 6, 9]);
    }

    #[test]
    fn subgroup_point_to_point_translates_ranks() {
        let out = run_spmd_seq(4, |comm| {
            // Group = {1, 3}: group rank 0 is world 1, group rank 1 is world 3.
            if comm.rank() == 1 || comm.rank() == 3 {
                let sub = SubComm::new(comm, vec![1, 3], 0);
                if sub.rank() == 0 {
                    sub.send(1, 7, comm.rank() as u64);
                    0
                } else {
                    sub.recv::<u64>(0, 7)
                }
            } else {
                0
            }
        });
        assert_eq!(out.results[3], 1, "world rank 1 is the group's rank 0");
    }

    #[test]
    fn subgroup_scan_preserves_rank_order() {
        let out = run_spmd_seq(5, |comm| {
            let members = vec![0, 2, 4];
            if members.contains(&comm.rank()) {
                let sub = SubComm::new(comm, members, 3);
                Some(sub.scan_exclusive(1u64, 0, &ReduceOp::sum()))
            } else {
                None
            }
        });
        assert_eq!(out.results[0], Some(0));
        assert_eq!(out.results[2], Some(1));
        assert_eq!(out.results[4], Some(2));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_construction_is_rejected() {
        run_spmd_seq(3, |comm| {
            if comm.rank() == 2 {
                let _ = SubComm::new(comm, vec![0, 1], 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_members_are_rejected() {
        run_spmd_seq(3, |comm| {
            if comm.rank() == 0 {
                let _ = SubComm::new(comm, vec![1, 0], 0);
            }
        });
    }

    #[test]
    fn salted_tag_stripes_do_not_collide_with_the_world() {
        let out = run_spmd_seq(4, |comm| {
            // Interleave a world collective between two subgroup collectives:
            // the stripes keep the tags disjoint, so nothing cross-matches.
            let members: Vec<Rank> = (0..comm.size()).collect();
            let sub = SubComm::new(comm, members, 0);
            let a = sub.allreduce_sum(1);
            let b = comm.allreduce_sum(10);
            let c = sub.allreduce_sum(100);
            (a, b, c)
        });
        assert!(out.results.iter().all(|&r| r == (4, 40, 400)));
    }
}
