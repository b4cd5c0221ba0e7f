//! The threaded per-PE communicator handle.
//!
//! A [`Comm`] is one backend of the [`Communicator`] trait: each simulated PE
//! runs on its own OS thread and owns a [`Comm`] wired into the
//! sharded inbox transport (per-pair mutex queues, park/unpark blocking —
//! see [`crate::transport`]).  All traffic is metered into the per-PE
//! counters of the run's [`crate::metrics::StatsRegistry`] — the paper's
//! four counts, exactly as the replay backends meter them — and every
//! payload's word buffer is drawn from (and returned to) a per-PE
//! [`BufferPool`], which saves allocations and meters nothing.  Like the
//! mailbox it wraps, a `Comm` is the unique communication endpoint of its
//! rank: it moves freely between threads but is never shared between them.
//!
//! A threaded run is always fault-free: a [`crate::FaultPlan`] runs on the
//! replay engine only, so a `Comm` has no fault hook, and its
//! [`Communicator::recv_failable`] is the trait's plain blocking receive.

use std::cell::Cell;

use crate::communicator::{Communicator, COLLECTIVE_TAG_BASE};
use crate::message::CommData;
use crate::metrics::{StatsRegistry, StatsSnapshot};
use crate::transport::{BufferPool, Envelope, Mailbox};
use crate::{Rank, Tag};

/// Communicator handle owned by one PE thread for the duration of an SPMD
/// region (the threaded backend of [`Communicator`]).
pub struct Comm {
    mailbox: Mailbox,
    stats: StatsRegistry,
    pool: BufferPool,
    /// Sequence number of collective operations issued so far.  Because all
    /// PEs execute the same program, the counters stay in sync across PEs and
    /// provide a fresh internal tag per collective, which catches divergence
    /// bugs (a mismatch manifests as a tag error instead of silent data
    /// corruption).
    collective_seq: Cell<u64>,
}

impl Comm {
    /// Create a communicator from its transport endpoint and the shared
    /// statistics registry.  Normally called by [`crate::World::threaded`].
    pub(crate) fn new(mailbox: Mailbox, stats: StatsRegistry) -> Self {
        Comm {
            mailbox,
            stats,
            pool: BufferPool::default(),
            collective_seq: Cell::new(0),
        }
    }

    /// Block for the next envelope from `src`, then open and meter it.  A
    /// peer that hangs up first is a bug in a fault-free run, and panics.
    fn recv_metered<T: CommData>(&self, src: Rank, expected: Option<Tag>) -> (Tag, T) {
        let env = self
            .mailbox
            .recv(src)
            .unwrap_or_else(|e| panic!("recv from {src}: {e}"));
        self.open_metered(env, src, expected)
    }

    /// Open a received envelope, meter it, and panic on transport-level
    /// misuse (a wrong tag or payload type is a program bug in SPMD code).
    fn open_metered<T: CommData>(
        &self,
        env: Envelope,
        src: Rank,
        expected: Option<Tag>,
    ) -> (Tag, T) {
        self.stats.pe(self.rank()).record_recv(env.words());
        let (tag, _words, value) = env
            .check_tag(expected)
            .and_then(|()| env.open_pooled::<T>(Some(&self.pool)))
            .unwrap_or_else(|e| panic!("recv from {src}: {e}"));
        (tag, value)
    }
}

impl Communicator for Comm {
    #[inline]
    fn rank(&self) -> Rank {
        self.mailbox.rank()
    }

    #[inline]
    fn size(&self) -> usize {
        self.mailbox.size()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.pe(self.rank()).snapshot()
    }

    fn next_collective_tag(&self) -> Tag {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        COLLECTIVE_TAG_BASE + seq
    }

    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        let env = Envelope::encode(tag, self.rank(), value, Some(&self.pool));
        self.stats.pe(self.rank()).record_send(env.words());
        if let Err(e) = self.mailbox.send(dst, env) {
            panic!("send to {dst}: {e}");
        }
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        self.recv_metered(src, Some(expected_tag)).1
    }

    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T) {
        self.recv_metered(src, None)
    }

    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)> {
        match self.mailbox.try_recv(src) {
            Ok(Some(env)) => Some(self.open_metered(env, src, None)),
            Ok(None) => None,
            Err(e) => panic!("recv from {src}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_spmd;

    #[test]
    fn rank_and_size_are_exposed() {
        let out = run_spmd(3, |comm| (comm.rank(), comm.size(), comm.is_root()));
        assert_eq!(
            out.results,
            vec![(0, 3, true), (1, 3, false), (2, 3, false)]
        );
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1u64, 2, 3]);
                0
            } else {
                let v: Vec<u64> = comm.recv(0, 7);
                v.iter().sum::<u64>()
            }
        });
        assert_eq!(out.results[1], 6);
    }

    #[test]
    fn stats_meter_both_sides() {
        let out = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![0u64; 9]);
            } else {
                let _: Vec<u64> = comm.recv(0, 1);
            }
            comm.stats_snapshot()
        });
        // Vec of 9 elements = 10 words (length + payload).
        assert_eq!(out.results[0].sent_words, 10);
        assert_eq!(out.results[0].sent_messages, 1);
        assert_eq!(out.results[1].received_words, 10);
        assert_eq!(out.results[1].received_messages, 1);
        assert_eq!(out.stats.total_words(), 10);
        assert_eq!(out.stats.bottleneck_words(), 10);
    }

    #[test]
    fn typed_sends_reuse_pooled_buffers() {
        // Ping-pong Vec<u64> payloads: every receive parks its buffer in the
        // PE's pool, and every send takes one back out.  Were sends not
        // drawing from the pool, it would hold one more buffer per round.
        let out = run_spmd(2, |comm| {
            let peer = 1 - comm.rank();
            let mut parked = Vec::new();
            for i in 0..10u64 {
                if comm.rank() == 0 {
                    comm.send(peer, 1, vec![i; 64]);
                    let _: Vec<u64> = comm.recv(peer, 2);
                } else {
                    let _: Vec<u64> = comm.recv(peer, 1);
                    comm.send(peer, 2, vec![i; 64]);
                }
                parked.push(comm.pool.parked());
            }
            parked
        });
        // PE 0 ends each round on a receive, PE 1 on a send.
        assert_eq!(out.results, vec![vec![1; 10], vec![0; 10]]);
    }

    #[test]
    fn recv_any_tag_returns_the_tag() {
        let out = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 42, 5u64);
                (0, 0)
            } else {
                let (tag, v): (Tag, u64) = comm.recv_any_tag(0);
                (tag, v)
            }
        });
        assert_eq!(out.results[1], (42, 5));
    }

    #[test]
    fn try_recv_sees_nothing_then_something() {
        let out = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                // Nothing was sent to PE 0.
                let nothing: Option<(Tag, u64)> = comm.try_recv(1);
                comm.send(1, 3, 1u64);
                nothing.is_none()
            } else {
                // Blocking receive guarantees the message is there.
                let _: u64 = comm.recv(0, 3);
                true
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "user tags")]
    fn reserved_tags_are_rejected() {
        run_spmd(1, |comm| comm.send(0, COLLECTIVE_TAG_BASE, 1u64));
    }

    #[test]
    fn phase_metering_via_snapshots() {
        let out = run_spmd(2, |comm| {
            let before = comm.stats_snapshot();
            if comm.rank() == 0 {
                comm.send(1, 1, 1u64);
            } else {
                let _: u64 = comm.recv(0, 1);
            }
            let after = comm.stats_snapshot();
            after.since(&before)
        });
        assert_eq!(out.results[0].sent_messages, 1);
        assert_eq!(out.results[1].received_messages, 1);
    }
}
