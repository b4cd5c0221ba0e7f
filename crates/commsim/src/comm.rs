//! The threaded per-PE communicator handle.
//!
//! A [`Comm`] is one backend of the [`Communicator`] trait: each simulated PE
//! runs on its own OS thread and owns a [`Comm`] wired into the
//! sharded inbox transport (per-pair mutex queues, park/unpark blocking —
//! see [`crate::transport`]).  All traffic is metered into the per-PE
//! counters of the run's [`crate::metrics::StatsRegistry`], and every
//! payload's word buffer is drawn from (and returned to) a per-PE
//! [`BufferPool`].  Like the mailbox it wraps, a `Comm` is
//! the unique communication endpoint of its rank: it moves freely between
//! threads but is never shared between them.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::communicator::{validate_user_tag, Communicator, COLLECTIVE_TAG_BASE};
use crate::error::CommError;
use crate::faults::{CompiledFaults, Crashed};
use crate::message::CommData;
use crate::metrics::{StatsRegistry, StatsSnapshot};
use crate::transport::{BufferPool, Envelope, Mailbox};
use crate::{Rank, Tag};

/// Default detection window of [`Communicator::recv_failable`] on the
/// threaded backend.  Real threads have no global quiescence point the way
/// the replay backends do, so "the message has not arrived yet" is only ever
/// a verdict about a wall-clock window; a quarter second is several orders of
/// magnitude above any scheduling hiccup this repo's test loads produce, and
/// a [`CommError::Timeout`] is retryable by contract anyway.  Overridable per
/// run via [`crate::World::with_recv_failable_window`] — slow CI
/// runners widen it, tests of the timeout path shrink it.
pub(crate) const DEFAULT_FAILABLE_WINDOW: Duration = Duration::from_millis(250);

/// Per-PE fault-injection state of the threaded backend (present only when
/// the run carries a non-empty [`crate::FaultPlan`]; the fault-free hot path
/// skips all of it with one `Option` check).
pub(crate) struct FaultState {
    /// The compiled fault schedule, shared by all PEs of the run.
    plan: Arc<CompiledFaults>,
    /// `crashed[r]` is set by the runner *before* PE `r`'s mailbox tears
    /// down, so an observer that sees the teardown (`Disconnected`) and then
    /// loads the flag cannot miss the crash.
    crashed: Arc<Vec<AtomicBool>>,
    /// Send-operation clock of this PE (crash trigger and delay release are
    /// both counted in units of this clock, matching the replay backends).
    send_ops: Cell<u64>,
    /// `pair_sent[dst]` counts messages this PE addressed to `dst` (the
    /// "nth pair message" coordinate of drop events).
    pair_sent: RefCell<Vec<u64>>,
    /// Per-destination holdback queues of delayed envelopes, each stamped
    /// with the send-op count at which it releases.  A pair with a delay
    /// routes *every* message through its queue, so per-pair FIFO order is
    /// preserved.
    holdback: RefCell<Vec<VecDeque<(u64, Envelope)>>>,
}

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
    /// Fault-injection state; `None` on fault-free runs.
    faults: Option<FaultState>,
    /// Wall-clock detection window of [`Communicator::recv_failable`]
    /// (only consulted when a fault plan is attached).
    failable_window: Duration,
}

impl Comm {
    /// Create a communicator from its transport endpoint and the shared
    /// statistics registry.  Normally called by [`crate::World::threaded`].
    pub(crate) fn new(mailbox: Mailbox, stats: StatsRegistry) -> Self {
        Comm {
            mailbox,
            stats,
            pool: BufferPool::new(),
            collective_seq: Cell::new(0),
            faults: None,
            failable_window: DEFAULT_FAILABLE_WINDOW,
        }
    }

    /// Create a communicator with an attached fault schedule.  Called by
    /// [`crate::World::threaded`] under a non-empty fault plan.
    pub(crate) fn new_faulty(
        mailbox: Mailbox,
        stats: StatsRegistry,
        plan: Arc<CompiledFaults>,
        crashed: Arc<Vec<AtomicBool>>,
        failable_window: Duration,
    ) -> Self {
        let p = mailbox.size();
        Comm {
            mailbox,
            stats,
            pool: BufferPool::new(),
            collective_seq: Cell::new(0),
            failable_window,
            faults: Some(FaultState {
                plan,
                crashed,
                send_ops: Cell::new(0),
                pair_sent: RefCell::new(vec![0; p]),
                holdback: RefCell::new((0..p).map(|_| VecDeque::new()).collect()),
            }),
        }
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

    /// Panic for a failed receive, upgrading `Disconnected` from a peer that
    /// is known to have crash-stopped into the definitive peer-dead message
    /// (which points the caller at [`Communicator::recv_failable`]).
    fn recv_panic(&self, src: Rank, e: CommError) -> ! {
        if matches!(e, CommError::Disconnected { .. }) {
            if let Some(fs) = &self.faults {
                if fs.crashed[src].load(Ordering::SeqCst) {
                    let err = CommError::PeerDead { rank: src };
                    panic!("recv from {src}: {err} (use recv_failable to handle peer crashes)");
                }
            }
        }
        panic!("recv from {src}: {e}");
    }

    /// The fault-injecting send path: counts the send-op clock, triggers a
    /// scheduled crash, meters-then-swallows dropped messages, and routes
    /// delayed pairs through the holdback queue.
    fn send_faulty<T: CommData>(&self, dst: Rank, tag: Tag, value: T, fs: &FaultState) {
        let op = fs.send_ops.get();
        if fs.plan.crash_at(self.rank()) == Some(op) {
            crate::mux::unwind_with(Crashed { rank: self.rank() });
        }
        fs.send_ops.set(op + 1);
        let (env, reused) = Envelope::encode(tag, self.rank(), value, Some(&self.pool));
        let pe = self.stats.pe(self.rank());
        pe.record_send(env.words());
        if reused {
            pe.record_pooled_reuse();
        }
        let nth = {
            let mut pair_sent = fs.pair_sent.borrow_mut();
            let nth = pair_sent[dst];
            pair_sent[dst] = nth + 1;
            nth
        };
        if fs.plan.is_dropped(self.rank(), dst, nth) {
            // Metered at the sender (the network carried it), never
            // delivered — the receiver's FIFO simply does not contain it.
        } else if let Some(delay) = fs.plan.delay_for(self.rank(), dst) {
            fs.holdback.borrow_mut()[dst].push_back((op + delay, env));
        } else if self.mailbox.send(dst, env).is_err() {
            // The destination finished or crashed and tore its mailbox down
            // — under fault injection that is not a bug in the algorithm
            // (e.g. a membership probe to a PE that just died); the message
            // is lost in flight, like on a real network.
        }
        self.flush_holdback(op + 1, fs);
    }

    /// Deliver every held-back envelope whose release point the send-op
    /// clock has reached.  Delivery failures are ignored: the destination
    /// finished (or crashed) and tore its mailbox down, so the delayed
    /// message is simply lost in flight — exactly what a real network does.
    fn flush_holdback(&self, now_ops: u64, fs: &FaultState) {
        let mut holdback = fs.holdback.borrow_mut();
        for (dst, queue) in holdback.iter_mut().enumerate() {
            while queue
                .front()
                .is_some_and(|(release, _)| *release <= now_ops)
            {
                let (_, env) = queue.pop_front().expect("front was just checked");
                let _ = self.mailbox.send(dst, env);
            }
        }
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Terminal release: a finished (or crashed) sender withholds nothing
        // — flush every queue regardless of release point, *before* the
        // mailbox teardown marks this PE dead.
        if let Some(fs) = self.faults.take() {
            for (dst, queue) in fs.holdback.into_inner().into_iter().enumerate() {
                for (_, env) in queue {
                    let _ = self.mailbox.send(dst, env);
                }
            }
        }
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
        if let Some(fs) = &self.faults {
            self.send_faulty(dst, tag, value, fs);
            return;
        }
        let (env, reused) = Envelope::encode(tag, self.rank(), value, Some(&self.pool));
        let pe = self.stats.pe(self.rank());
        pe.record_send(env.words());
        if reused {
            pe.record_pooled_reuse();
        }
        if let Err(e) = self.mailbox.send(dst, env) {
            panic!("send to {dst}: {e}");
        }
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        let env = self
            .mailbox
            .recv(src)
            .unwrap_or_else(|e| self.recv_panic(src, e));
        self.open_metered(env, src, Some(expected_tag)).1
    }

    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T) {
        let env = self
            .mailbox
            .recv(src)
            .unwrap_or_else(|e| self.recv_panic(src, e));
        self.open_metered(env, src, None)
    }

    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)> {
        match self.mailbox.try_recv(src) {
            Ok(Some(env)) => Some(self.open_metered(env, src, None)),
            Ok(None) => None,
            Err(e) => self.recv_panic(src, e),
        }
    }

    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> crate::CommResult<T> {
        validate_user_tag(tag);
        if self.faults.is_none() {
            // Fault-free runs keep the plain blocking semantics (and the
            // plain metering) of `recv_raw`.
            return Ok(self.recv_raw(src, tag));
        }
        match self.mailbox.recv_deadline(src, self.failable_window) {
            Ok(env) => Ok(self.open_metered(env, src, Some(tag)).1),
            Err(CommError::Disconnected { .. }) => {
                // Whether the peer crash-stopped or ran to completion
                // without sending, its mailbox is gone and the awaited
                // message can never arrive: a definitive verdict.
                Err(CommError::PeerDead { rank: src })
            }
            Err(e @ CommError::Timeout { .. }) => Err(e),
            Err(e) => self.recv_panic(src, e),
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
        // Ping-pong Vec<u64> payloads: after the first exchange each PE's
        // sends should draw from the capacity freed by its receives.
        let rounds = 10u64;
        let out = run_spmd(2, move |comm| {
            let peer = 1 - comm.rank();
            for i in 0..rounds {
                if comm.rank() == 0 {
                    comm.send(peer, 1, vec![i; 64]);
                    let _: Vec<u64> = comm.recv(peer, 2);
                } else {
                    let _: Vec<u64> = comm.recv(peer, 1);
                    comm.send(peer, 2, vec![i; 64]);
                }
            }
            comm.stats_snapshot()
        });
        // Every send after a PE's first receive can reuse a pooled buffer.
        for snap in &out.results {
            assert!(
                snap.pooled_reuses >= rounds - 1,
                "expected ≥ {} pooled reuses, got {}",
                rounds - 1,
                snap.pooled_reuses
            );
        }
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
