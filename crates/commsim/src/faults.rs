//! Deterministic fault injection for the simulated machine: [`FaultPlan`].

use crate::Rank;
use std::collections::{BTreeSet, HashMap};

/// One scheduled failure.  See [`FaultPlan`] for exact semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// PE `rank` crash-stops immediately before its `at_send_count`-th send.
    CrashPe {
        /// Rank that dies.
        rank: Rank,
        /// Number of sends the PE completes before dying (0-based trigger).
        at_send_count: u64,
    },
    /// Messages from `src` to `dst` are held back for `rounds` of the
    /// sender's subsequent send operations.
    DelayPair {
        /// Sending rank.
        src: Rank,
        /// Receiving rank.
        dst: Rank,
        /// Sender send-operations that must elapse before delivery.
        rounds: u64,
    },
    /// The `nth` (0-based) message from `src` to `dst` is lost in transit.
    DropMessage {
        /// Sending rank.
        src: Rank,
        /// Receiving rank.
        dst: Rank,
        /// 0-based index of the doomed message in the pair's send order.
        nth: u64,
    },
}

/// A deterministic schedule of [`FaultEvent`]s, built with the fluent
/// constructors and handed to a run through [`crate::World::with_faults`].
///
/// A plan is a *schedule* of failures, fixed before the SPMD program
/// starts and replayed exactly: the same plan against the same program yields
/// the same crashes, the same delayed deliveries and the same lost messages
/// on every run and on every backend.  Three event kinds are supported:
///
/// * [`FaultEvent::CrashPe`] — PE `rank` halts (crash-stop, no recovery)
///   immediately before performing its `at_send_count`-th message send,
///   counted from 0 across the whole run.  `at_send_count = 0` means the PE
///   dies before sending anything; `at_send_count = n` means exactly `n`
///   sends complete.  Messages sent before the crash are delivered normally
///   (they were already "on the wire").
/// * [`FaultEvent::DelayPair`] — every message on the ordered pair
///   `(src, dst)` is withheld from the receiver until the *sender* has
///   performed `rounds` further send operations (to any destination), or the
///   sender has terminated (finished or crashed), whichever comes first.
///   Tying the release clock to the sender's own send counter keeps the
///   schedule deterministic on every backend, including the threaded one.
/// * [`FaultEvent::DropMessage`] — the `nth` message (0-based) on the ordered
///   pair `(src, dst)` is lost after the sender has paid for it: the send is
///   metered as usual, but the receiver never observes the message and its
///   per-pair sequence transparently skips over it.
///
/// A plan rides in its [`crate::World`] to every engine; the empty plan
/// compiles to no fault hook at all, so a fault-free run pays nothing.
/// Detection is surfaced through [`crate::Communicator::recv_failable`],
/// which returns [`crate::CommError::PeerDead`] /
/// [`crate::CommError::Timeout`] instead of deadlocking.
///
/// An empty plan is exactly equivalent to no plan at all — results *and*
/// metered words per PE are bit-identical (pinned by the fault-injection
/// test suite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a crash-stop of `rank` before its `at_send_count`-th send.
    pub fn crash_pe(mut self, rank: Rank, at_send_count: u64) -> Self {
        self.events.push(FaultEvent::CrashPe {
            rank,
            at_send_count,
        });
        self
    }

    /// Schedule delivery delay on the ordered pair `(src, dst)`.
    pub fn delay_pair(mut self, src: Rank, dst: Rank, rounds: u64) -> Self {
        self.events.push(FaultEvent::DelayPair { src, dst, rounds });
        self
    }

    /// Schedule loss of the `nth` message on the ordered pair `(src, dst)`.
    pub fn drop_message(mut self, src: Rank, dst: Rank, nth: u64) -> Self {
        self.events.push(FaultEvent::DropMessage { src, dst, nth });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if the plan schedules nothing (equivalent to no plan).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Deterministically pick `count` distinct crash victims from
    /// `candidates` (pairs of `(rank, at_send_count)`), seeded by `seed`.
    /// Used by chaos harnesses to sweep crash rates reproducibly.
    pub fn seeded_crashes(seed: u64, candidates: &[(Rank, u64)], count: usize) -> Self {
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        // Fisher–Yates with a splitmix64 stream: same seed → same victims.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut plan = FaultPlan::new();
        let mut seen = BTreeSet::new();
        for &idx in &order {
            if plan.events.len() >= count {
                break;
            }
            let (rank, at) = candidates[idx];
            if seen.insert(rank) {
                plan = plan.crash_pe(rank, at);
            }
        }
        plan
    }

    /// Validate against a world of `p` PEs and compile into the lookup
    /// structure the backends consult on their hot paths.  Returns `None`
    /// for an empty plan so fault-free runs keep their zero-cost `None` hook.
    pub(crate) fn compile(&self, p: usize) -> Option<CompiledFaults> {
        if self.is_empty() {
            return None;
        }
        let mut compiled = CompiledFaults::default();
        for &event in &self.events {
            match event {
                FaultEvent::CrashPe {
                    rank,
                    at_send_count,
                } => {
                    assert!(rank < p, "FaultPlan: crash rank {rank} out of range 0..{p}");
                    // Several crash events on one rank: the earliest wins.
                    compiled
                        .crash_at
                        .entry(rank)
                        .and_modify(|at| *at = (*at).min(at_send_count))
                        .or_insert(at_send_count);
                }
                FaultEvent::DelayPair { src, dst, rounds } => {
                    assert!(
                        src < p && dst < p && src != dst,
                        "FaultPlan: delay pair ({src},{dst}) invalid for 0..{p}"
                    );
                    // Stacked delays on one pair add up.
                    *compiled.delays.entry((src, dst)).or_insert(0) += rounds;
                }
                FaultEvent::DropMessage { src, dst, nth } => {
                    assert!(
                        src < p && dst < p && src != dst,
                        "FaultPlan: drop pair ({src},{dst}) invalid for 0..{p}"
                    );
                    compiled.drops.entry((src, dst)).or_default().insert(nth);
                }
            }
        }
        Some(compiled)
    }
}

/// Compiled lookup form of a [`FaultPlan`]: O(1)-ish queries on the send and
/// receive hot paths.  Crate-internal; the backends own one per run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledFaults {
    /// rank → send count at which it crash-stops.
    crash_at: HashMap<Rank, u64>,
    /// (src, dst) → sender send-ops to hold messages back for.
    delays: HashMap<(Rank, Rank), u64>,
    /// (src, dst) → set of 0-based per-pair message indices lost in transit.
    drops: HashMap<(Rank, Rank), BTreeSet<u64>>,
}

impl CompiledFaults {
    /// Send count at which `rank` crashes, if it is scheduled to.
    pub(crate) fn crash_at(&self, rank: Rank) -> Option<u64> {
        self.crash_at.get(&rank).copied()
    }

    /// Hold-back window (in sender send-ops) for the pair, if delayed.
    pub(crate) fn delay_for(&self, src: Rank, dst: Rank) -> Option<u64> {
        self.delays.get(&(src, dst)).copied()
    }

    /// `true` if the pair's `nth` message is scheduled to be lost.
    pub(crate) fn is_dropped(&self, src: Rank, dst: Rank, nth: u64) -> bool {
        self.drops
            .get(&(src, dst))
            .is_some_and(|set| set.contains(&nth))
    }

    /// Destinations with a delayed pair from `src` (for wake bookkeeping).
    pub(crate) fn delayed_dsts(&self, src: Rank) -> impl Iterator<Item = Rank> + '_ {
        self.delays
            .keys()
            .filter(move |&&(s, _)| s == src)
            .map(|&(_, d)| d)
    }
}

/// Panic payload thrown inside a PE's closure when its scheduled crash point
/// is reached.  The backend runners catch it and record the PE as crashed;
/// anything else unwinding out of a PE is still a real bug and propagates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crashed {
    /// Rank that hit its crash point.
    pub(crate) rank: Rank,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_to_none() {
        assert!(FaultPlan::new().compile(4).is_none());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn compile_builds_lookup_tables() {
        let plan = FaultPlan::new()
            .crash_pe(2, 10)
            .crash_pe(2, 7) // earlier crash wins
            .delay_pair(0, 1, 3)
            .delay_pair(0, 1, 2) // delays stack
            .drop_message(1, 0, 0)
            .drop_message(1, 0, 4);
        let c = plan.compile(4).unwrap();
        assert_eq!(c.crash_at(2), Some(7));
        assert_eq!(c.crash_at(0), None);
        assert_eq!(c.delay_for(0, 1), Some(5));
        assert_eq!(c.delay_for(1, 0), None);
        assert!(c.is_dropped(1, 0, 0));
        assert!(c.is_dropped(1, 0, 4));
        assert!(!c.is_dropped(1, 0, 1));
        let dsts: Vec<Rank> = c.delayed_dsts(0).collect();
        assert_eq!(dsts, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compile_rejects_out_of_range_rank() {
        FaultPlan::new().crash_pe(4, 0).compile(4);
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_distinct() {
        let candidates: Vec<(Rank, u64)> = (0..8).map(|r| (r, 100 + r as u64)).collect();
        let a = FaultPlan::seeded_crashes(7, &candidates, 3);
        let b = FaultPlan::seeded_crashes(7, &candidates, 3);
        assert_eq!(a, b, "same seed must pick the same victims");
        assert_eq!(a.events().len(), 3);
        let mut ranks = BTreeSet::new();
        for e in a.events() {
            match *e {
                FaultEvent::CrashPe { rank, .. } => assert!(ranks.insert(rank)),
                _ => panic!("seeded_crashes only schedules crashes"),
            }
        }
        let c = FaultPlan::seeded_crashes(8, &candidates, 3);
        // Overwhelmingly likely to differ; if this ever flakes the seeds
        // genuinely collided and the assertion can be relaxed.
        assert_ne!(a, c, "different seed should pick different victims");
    }
}
