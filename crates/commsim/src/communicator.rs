//! The [`Communicator`] trait: the paper's abstract machine as a Rust API.
//!
//! Section 2 of the paper defines algorithms against a single-ported
//! message-passing machine — `p` PEs, point-to-point messages costing
//! `α + mβ`, and a standard set of collectives.  This trait captures exactly
//! that surface, so every algorithm in the workspace is written against
//! `C: Communicator` and runs unchanged on any backend:
//!
//! * [`crate::Comm`] — the threaded backend: one OS thread per PE over the
//!   sharded inbox transport of per-pair mutex queues
//!   ([`crate::transport`]; wall-clock measurements, true parallelism);
//! * [`crate::MuxComm`] — the replay backend: the same SPMD closures
//!   re-executed by a park/wake scheduler, inline on one thread
//!   ([`crate::World::seq`]: fast tests, reproducible debugging) or over a
//!   worker pool ([`crate::World::mux`]: massive p).
//!
//! Backends implement only the primitive surface (`rank`/`size`, raw
//! tagged send/receive, statistics); everything user-facing — validated
//! point-to-point messaging and all collectives — is *provided* by the trait,
//! which is what guarantees that every backend enforces identical semantics
//! (tag validation lives in exactly one place: [`Communicator::send`] /
//! [`Communicator::recv`]).
//!
//! Design note: the raw methods are necessarily public — they are what a
//! third-party backend (e.g. a future real-MPI binding) implements, and
//! sealing them would forbid exactly the backend extensibility this trait
//! exists for.  The price is that tag validation is enforced for the
//! `send`/`recv` API but only documented for `send_raw`/`recv_raw`;
//! algorithm code must never call the raw surface directly.
//!
//! # Example
//!
//! An SPMD program written once, run on two backends:
//!
//! ```
//! use commsim::{run_spmd, run_spmd_seq, Communicator};
//!
//! // Generic over the backend: rank 0 scatters greetings, everyone
//! // computes a checksum, and a sum all-reduction checks agreement.
//! fn program<C: Communicator>(comm: &C) -> u64 {
//!     let greetings = comm.is_root().then(|| {
//!         (0..comm.size() as u64).map(|r| vec![r, r * r]).collect()
//!     });
//!     let mine: Vec<u64> = comm.scatter(0, greetings);
//!     comm.allreduce_sum(mine.iter().sum())
//! }
//!
//! let threaded = run_spmd(4, |comm| program(comm));
//! let sequential = run_spmd_seq(4, |comm| program(comm));
//! assert_eq!(threaded.results, sequential.results);
//! ```

use crate::collectives::{self, ReduceOp};
use crate::message::CommData;
use crate::metrics::StatsSnapshot;
use crate::{Rank, Tag};

/// First tag reserved for internal use by collective operations.  User tags
/// passed to [`Communicator::send`] / [`Communicator::recv`] must be below
/// this value.
pub(crate) const COLLECTIVE_TAG_BASE: Tag = 1 << 32;

/// The single place where user tags are validated; every backend inherits it
/// through the provided [`Communicator::send`] / [`Communicator::recv`].
#[inline]
pub(crate) fn validate_user_tag(tag: Tag) {
    assert!(
        tag < COLLECTIVE_TAG_BASE,
        "user tags must be < 2^32, got {tag}"
    );
}

/// A PE's window onto the rest of the simulated machine.
///
/// The *required* methods are the backend surface: identity, raw tagged
/// point-to-point transfer (tags at and above 2^32 allowed — that space
/// belongs to the collectives), and metering.  The *provided*
/// methods are the algorithm-facing API: validated sends and receives plus
/// the paper's collectives, implemented once on top of the primitives so
/// that every backend behaves identically.
///
/// All collectives must be called by **every** PE of the world, in the same
/// order — the usual SPMD contract.  Mismatched calls are detected (with
/// high probability) through per-collective internal tags and reported as a
/// panic.
pub trait Communicator {
    /// Rank of this PE (`0..p`).
    fn rank(&self) -> Rank;

    /// Number of PEs in the world.
    fn size(&self) -> usize;

    /// Snapshot of this PE's communication counters (words/messages sent and
    /// received so far).  Take one before and one after a phase and subtract
    /// to meter the phase.
    ///
    /// On every backend such a mid-closure delta describes one run of the
    /// closure: the replay engine zeroes a PE's counters each time it
    /// re-executes the closure from the start, so its deltas equal the
    /// threaded backend's.
    fn stats_snapshot(&self) -> StatsSnapshot;

    /// Allocate the internal tag for the next collective operation.  Because
    /// all PEs execute the same program, the per-PE counters stay in sync
    /// and provide a fresh tag per collective, which catches divergence bugs
    /// (a mismatch manifests as a tag error instead of silent corruption).
    fn next_collective_tag(&self) -> Tag;

    /// Unvalidated send used by the collectives (may use the reserved tag
    /// space at and above 2^32).  This is backend /
    /// collective-implementation surface: algorithm code must call
    /// [`Communicator::send`] instead — sending with a reserved tag from
    /// user code collides with the collectives' internal tag sequence and
    /// defeats their divergence detection.
    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T);

    /// Unvalidated tag-checked receive used by the collectives.  Backend /
    /// collective-implementation surface; algorithm code must call
    /// [`Communicator::recv`] instead (see [`Communicator::send_raw`]).
    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T;

    /// Receive the next message from `src` regardless of tag, returning the
    /// tag alongside the payload.
    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T);

    /// Non-blocking probe-and-receive from `src`; returns `None` if no
    /// message is currently queued.
    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)>;

    /// Failure-detecting receive: like [`Communicator::recv`], but instead of
    /// blocking forever on a peer that will never answer it returns
    /// [`crate::CommError::PeerDead`] (the backend *proved* the peer crashed
    /// with its send log exhausted — definitive, never spurious) or
    /// [`crate::CommError::Timeout`] (the whole world stalled with this
    /// receive unanswered; the peer may merely be waiting too, so retrying
    /// is legitimate).  A tag or type mismatch on a message that *does*
    /// arrive is still a programming error and panics, exactly as
    /// [`Communicator::recv`] does.
    ///
    /// The default implementation simply blocks: a backend without fault
    /// injection cannot observe a failure.  The threaded backend keeps it,
    /// since its runs are fault-free; the replay engine overrides it and
    /// resolves timeouts only at whole-world quiescence, replaying each
    /// verdict verbatim, so a fault schedule's verdicts are reproducible.
    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> crate::CommResult<T> {
        validate_user_tag(tag);
        Ok(self.recv_raw(src, tag))
    }

    // ----- provided: validated point-to-point messaging -----

    /// `true` iff this PE is rank 0.
    #[inline]
    fn is_root(&self) -> bool {
        self.rank() == 0
    }

    /// Send `value` to PE `dst` with a user tag (`tag < 2^32`).
    ///
    /// Sends never block: the simulated network has unbounded buffering.
    fn send<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        validate_user_tag(tag);
        self.send_raw(dst, tag, value);
    }

    /// Receive a value of type `T` from PE `src` carrying user tag `tag`.
    ///
    /// Blocks until the message arrives.  Panics if the next message from
    /// `src` has a different tag or payload type — in an SPMD program that is
    /// a bug, not a runtime condition.
    fn recv<T: CommData>(&self, src: Rank, tag: Tag) -> T {
        validate_user_tag(tag);
        self.recv_raw(src, tag)
    }

    // ----- provided: the paper's collectives -----

    /// Broadcast a value from `root` to all PEs: `O(βm + α log p)`.
    ///
    /// The root passes `Some(value)`, every other PE passes `None`; every PE
    /// (including the root) receives the value as the return.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some` (which
    /// would indicate divergent SPMD control flow).
    fn broadcast<T: CommData + Clone>(&self, root: Rank, value: Option<T>) -> T
    where
        Self: Sized,
    {
        collectives::broadcast::broadcast(self, root, value)
    }

    /// Convenience wrapper: broadcast from rank 0.
    fn broadcast_from_root<T: CommData + Clone>(&self, value: Option<T>) -> T
    where
        Self: Sized,
    {
        self.broadcast(0, value)
    }

    /// Reduce `value` over all PEs with the associative, commutative `op`;
    /// the result is returned as `Some` on `root` and `None` elsewhere.
    fn reduce<T: CommData + Clone>(&self, root: Rank, value: T, op: &ReduceOp<T>) -> Option<T>
    where
        Self: Sized,
    {
        collectives::reduce::reduce(self, root, value, op)
    }

    /// All-reduce: like [`Communicator::reduce`] but every PE receives the
    /// result.  Implemented as a reduction to rank `0` followed by a
    /// broadcast — two binomial trees, `O(βm + α log p)` in total.
    fn allreduce<T: CommData + Clone>(&self, value: T, op: ReduceOp<T>) -> T
    where
        Self: Sized,
    {
        let reduced = self.reduce(0, value, &op);
        self.broadcast(0, reduced)
    }

    /// Sum all-reduction of a scalar count — the single most common pattern
    /// in the paper's algorithms (`∑_i x@i`).
    fn allreduce_sum(&self, value: u64) -> u64
    where
        Self: Sized,
    {
        self.allreduce(value, ReduceOp::sum())
    }

    /// Minimum all-reduction of an ordered value.
    fn allreduce_min<T: CommData + Clone + Ord + Send + Sync>(&self, value: T) -> T
    where
        Self: Sized,
    {
        self.allreduce(value, ReduceOp::min())
    }

    /// Maximum all-reduction of an ordered value.
    fn allreduce_max<T: CommData + Clone + Ord + Send + Sync>(&self, value: T) -> T
    where
        Self: Sized,
    {
        self.allreduce(value, ReduceOp::max())
    }

    /// Element-wise sum all-reduction of a vector of whole words: a
    /// selection level's three partition counts, the skew fit's sums.  (EC's
    /// and PEC's exact counts of the `k*` candidates travel coded, each
    /// against the one before it, as a
    /// [`PackedCounts`](crate::codec::PackedCounts) summed by
    /// [`Communicator::allreduce`].)
    fn allreduce_vec_sum(&self, value: Vec<u64>) -> Vec<u64>
    where
        Self: Sized,
    {
        self.allreduce(value, ReduceOp::elementwise_sum())
    }

    /// Inclusive prefix combine: PE `j` receives `op(x@0, x@1, …, x@j)`.
    ///
    /// The operation must be associative (commutativity is *not* required:
    /// operands are always combined in rank order).
    fn scan_inclusive<T: CommData + Clone>(&self, value: T, op: &ReduceOp<T>) -> T
    where
        Self: Sized,
    {
        collectives::scan::scan_inclusive(self, value, op)
    }

    /// Exclusive prefix combine: PE `j` receives `op(x@0, …, x@{j-1})`, and
    /// PE 0 receives `identity`.
    fn scan_exclusive<T: CommData + Clone>(&self, value: T, identity: T, op: &ReduceOp<T>) -> T
    where
        Self: Sized,
    {
        collectives::scan::scan_exclusive(self, value, identity, op)
    }

    /// Exclusive prefix sum of a scalar count — used for data redistribution
    /// and global element numbering.
    fn prefix_sum_exclusive(&self, value: u64) -> u64
    where
        Self: Sized,
    {
        self.scan_exclusive(value, 0, &ReduceOp::sum())
    }

    /// Inclusive prefix sum of a scalar count.
    fn prefix_sum_inclusive(&self, value: u64) -> u64
    where
        Self: Sized,
    {
        self.scan_inclusive(value, &ReduceOp::sum())
    }

    /// Gather one value per PE onto `root`: the root receives `Some(values)`
    /// with `values[i]` the contribution of PE `i`, everyone else `None`.
    ///
    /// Latency `O(α log p)` up a binomial tree; volume `O(p·m)` at the root
    /// (unavoidable — the root ends up holding all data).
    fn gather<T: CommData>(&self, root: Rank, value: T) -> Option<Vec<T>>
    where
        Self: Sized,
    {
        collectives::gather::gather(self, root, value)
    }

    /// All-gather (the paper's "all-to-all broadcast" / gossiping): every PE
    /// contributes one value and every PE receives the vector of all
    /// contributions, indexed by rank.
    ///
    /// One dissemination phase (Bruck et al.): in round `j` PE `r` sends the
    /// first `min(2^j, p − 2^j)` blocks it holds to PE `(r + 2^j) mod p` and
    /// receives as many from PE `(r − 2^j) mod p`.  With `w`-word blocks
    /// every PE sends and receives exactly `⌈log₂ p⌉ + (p−1)·w` words in
    /// `⌈log₂ p⌉` messages — the paper's `O(βmp + α log p)` on *every* PE,
    /// stated as a formula by
    /// [`cost::predict::allgather`](crate::cost::predict::allgather).
    /// Blocks may differ in size: PE `r` then receives `⌈log₂ p⌉` words plus
    /// every other block once, and sends at most `⌈log₂ p⌉` copies of the
    /// concatenation.  Blocks travel toward higher ranks because the replay
    /// backends start PEs in ascending rank order (see [`crate::MuxComm`]).
    fn allgather<T: CommData + Clone>(&self, value: T) -> Vec<T>
    where
        Self: Sized,
    {
        collectives::gather::allgather(self, value)
    }

    /// Scatter one value per PE from `root`: the root supplies
    /// `Some(values)` with `values[i]` destined for PE `i` (`values.len()`
    /// must equal the number of PEs); all other PEs supply `None`.  Every PE
    /// returns its own item.  `O(α log p)` latency down a binomial tree.
    fn scatter<T: CommData>(&self, root: Rank, values: Option<Vec<T>>) -> T
    where
        Self: Sized,
    {
        collectives::scatter::scatter(self, root, values)
    }

    /// Direct all-to-all: `items[i]` is delivered to PE `i`; the return value
    /// holds, at index `j`, the item PE `j` sent to this PE.
    ///
    /// Cost: every PE sends and receives `p − 1` messages, i.e. `O(αp)`
    /// latency and `O(β·Σ m_i)` volume.
    fn alltoall<T: CommData>(&self, items: Vec<T>) -> Vec<T>
    where
        Self: Sized,
    {
        collectives::alltoall::alltoall(self, items)
    }

    /// Indirect all-to-all over a hypercube-like dissemination pattern:
    /// messages are routed through `ceil(log2 p)` rounds, so each PE pays
    /// only `O(log p)` start-ups at the price of forwarding volume
    /// (`O(β·V·log p)` where `V` is the direct volume).
    ///
    /// This is the routing the paper assumes for "indirect delivery"
    /// ([Leighton 92, Theorem 3.24]) and is what keeps the distributed hash
    /// table's latency logarithmic.
    fn alltoall_indirect<T: CommData>(&self, items: Vec<T>) -> Vec<T>
    where
        Self: Sized,
    {
        collectives::alltoall::alltoall_indirect(self, items)
    }

    /// Synchronise all PEs: no PE returns from `barrier` before every PE has
    /// entered it.  `O(α log p)` latency, zero payload volume.
    fn barrier(&self)
    where
        Self: Sized,
    {
        collectives::barrier::barrier(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::run_spmd_seq;
    use crate::runner::run_spmd;

    #[test]
    fn provided_send_validates_tags_on_the_threaded_backend() {
        let result = std::panic::catch_unwind(|| {
            run_spmd(1, |comm| comm.send(0, COLLECTIVE_TAG_BASE, 1u64));
        });
        assert!(result.is_err());
    }

    #[test]
    fn provided_recv_validates_tags_on_the_sequential_backend() {
        let result = std::panic::catch_unwind(|| {
            run_spmd_seq(1, |comm| {
                comm.send_raw(0, 1, 1u64);
                let _: u64 = comm.recv(0, COLLECTIVE_TAG_BASE);
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn generic_programs_run_on_both_backends() {
        fn program<C: Communicator>(comm: &C) -> (u64, u64) {
            let rank_sum = comm.allreduce_sum(comm.rank() as u64);
            let prefix = comm.prefix_sum_exclusive(1);
            (rank_sum, prefix)
        }
        let threaded = run_spmd(5, program::<crate::Comm>);
        let sequential = run_spmd_seq(5, program::<crate::MuxComm>);
        assert_eq!(threaded.results, sequential.results);
    }
}
