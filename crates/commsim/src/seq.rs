//! The deterministic single-threaded SPMD backend.
//!
//! [`run_spmd_seq`] executes the same SPMD closures as
//! [`crate::runner::run_spmd`], but on **one** thread and with a fully
//! deterministic schedule — no thread spawning, no stack-size tuning, and
//! bit-identical replays for debugging.
//!
//! # How it works: round-based replay
//!
//! Without threads there is no way to suspend a PE in the middle of its
//! closure, so the scheduler uses *re-execution rounds* instead.  In every
//! round each PE's closure is run from the beginning, in rank order:
//!
//! * **sends** never block; the message is written into a per-pair slot
//!   array at its send index (replayed sends simply refill the same slot);
//! * **receives** consume slot contents in FIFO index order; a receive whose
//!   slot has not been produced yet aborts the PE's execution for this round
//!   (via a sentinel panic that is caught by the scheduler — the default
//!   panic hook is taught to stay silent for it);
//! * **`try_recv`** outcomes are recorded in a per-PE decision log on first
//!   execution and replayed verbatim afterwards, so the schedule stays
//!   deterministic.
//!
//! Because a sender re-produces everything below its furthest point in every
//! round, each PE's progress is monotone across rounds, every PE eventually
//! completes in the same round, and a round in which nobody advances is a
//! genuine deadlock (reported with who-waits-on-whom diagnostics).
//!
//! The same replay model — the `Blocked` sentinel, the replay rules for
//! sends, the `try_recv` decision log and the busy-poll cut-off — also
//! powers the *multiplexed* backend ([`crate::mux`]), which schedules the
//! replayed closures as cooperative tasks over a worker pool instead of a
//! single loop.  ARCHITECTURE.md walks through all three backends side by
//! side.
//!
//! # Requirements on the closure
//!
//! The closure is executed **multiple times** per PE, so it must be
//! deterministic and must not rely on external side effects (mutating shared
//! state through interior mutability, I/O, wall-clock time, entropy from a
//! non-seeded RNG).  Every algorithm in this workspace satisfies this: local
//! data is derived from `comm.rank()` and seeded RNGs.  Communication
//! counters are reset at the start of every replay execution and metered
//! per execution, and the scheduler only stops after a round in which every
//! PE ran to completion — so the surviving counters describe exactly one
//! complete execution, whole-run [`crate::WorldStats`] agree with the
//! threaded backend, *and* mid-closure [`Communicator::stats_snapshot`]
//! deltas (phase metering) are correct too.  (Before PR 4 the deltas saw
//! totals accumulated across replay rounds, silently underreporting the
//! communication of any mid-closure phase.)
//!
//! One scheduling divergence from the threaded backend: a **busy-poll loop**
//! over [`Communicator::try_recv`] with no blocking receive in between
//! (`while comm.try_recv(..).is_none() {}`) can succeed under `run_spmd`
//! because the sender runs concurrently, but can never make progress here —
//! within a round no other PE is scheduled until this closure returns or
//! blocks.  Such loops are detected after [`BUSY_POLL_LIMIT`] empty probes
//! and reported as a panic instead of hanging.
//!
//! # Example
//!
//! ```
//! use commsim::{run_spmd_seq, Communicator};
//!
//! let out = run_spmd_seq(4, |comm| comm.allreduce_sum(comm.rank() as u64));
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;
use std::time::Instant;

use crate::communicator::{validate_user_tag, Communicator, COLLECTIVE_TAG_BASE};
use crate::error::{CommError, CommResult};
use crate::faults::{CompiledFaults, Crashed, FaultPlan};
use crate::message::CommData;
use crate::metrics::{StatsRegistry, StatsSnapshot};
use crate::runner::SpmdOutput;
use crate::transport::{BufferPool, Envelope};
use crate::{Rank, Tag};

/// Sentinel panic payload: "this PE cannot make progress this round".
///
/// Shared with the multiplexed backend ([`crate::mux`]), whose worker pool
/// catches the same sentinel to park a task instead of ending a round.
#[derive(Clone, Copy)]
pub(crate) struct Blocked {
    pub(crate) src: Rank,
    pub(crate) dst: Rank,
    pub(crate) index: usize,
    /// `Some(call)` when the block came from the `call`-th
    /// [`Communicator::recv_failable`] of the PE: the scheduler may resolve
    /// a whole-world stall by forcing that call to a `Timeout` verdict
    /// (recorded in the world's timeout log and replayed verbatim).
    pub(crate) failable: Option<usize>,
}

/// Teach the process-wide panic hook to stay silent for [`Blocked`] and
/// [`Crashed`] sentinels (they are control flow — round scheduling and
/// injected crash-stops — not failures); everything else is forwarded to the
/// previously installed hook.
pub(crate) fn install_quiet_block_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<Blocked>().is_none()
                && payload.downcast_ref::<Crashed>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Message state of one ordered PE pair.
#[derive(Default)]
struct PairState {
    /// `slots[n]` holds the pair's `n`-th message until its receiver
    /// consumes it this round; replayed sends refill the slot.
    slots: Vec<Option<Envelope>>,
    /// `(word count, used a pooled buffer)` of every message this pair has
    /// ever produced, by send index — so a replayed send whose previous
    /// copy is still in its slot can be metered without re-encoding.
    sent_meta: Vec<(usize, bool)>,
    /// Sender send-op counter value at which each message was produced;
    /// only populated under a fault plan (it drives `DelayPair` release).
    sent_at_op: Vec<u64>,
}

/// How a probed message slot looks to its receiver right now (one verdict
/// type for both replay backends).
pub(crate) enum Avail {
    /// Present and (if the pair is delayed) released for delivery.
    Ready,
    /// Not there yet (unsent, consumed-awaiting-replay, or held back by an
    /// injected delay) — block and retry in a later round.
    NotYet,
    /// Never coming: the sender crash-stopped and its final send log holds
    /// no message at this index.
    Dead,
}

/// State shared by all PEs of one sequential run.
struct SeqWorld {
    p: usize,
    stats: StatsRegistry,
    /// Pair states: `pairs[dst]` maps a source rank to the state of the
    /// ordered pair `(src, dst)`.  Lazily keyed by source so that world
    /// setup is O(p) and memory is O(touched pairs) — a PE talking to
    /// O(log p) peers (every tree collective) must not pay O(p) state, or
    /// massive-p sweeps would pay O(p²) before the first message.
    pairs: RefCell<Vec<HashMap<Rank, PairState>>>,
    /// Per-PE `try_recv` decision log (recorded once, replayed forever).
    try_log: RefCell<Vec<Vec<bool>>>,
    /// Shared message-buffer pool (one thread, so one pool suffices).
    pool: BufferPool,
    /// Compiled fault schedule; `None` on the fault-free path, which then
    /// skips every fault check (the zero-cost-when-`None` hook).
    faults: Option<CompiledFaults>,
    /// Ranks that have hit their scheduled crash point (monotone).
    crashed: RefCell<Vec<bool>>,
    /// Ranks whose send log is final — finished or crashed (monotone).
    /// Releases delayed pairs and finalises dead-peer verdicts.
    terminal: RefCell<Vec<bool>>,
    /// Furthest send-op counter each rank has reached across replay rounds;
    /// the release clock for `DelayPair` hold-backs.
    max_send_ops: RefCell<Vec<u64>>,
    /// Per-PE forced-`Timeout` verdicts for `recv_failable`, indexed by the
    /// PE's failable-call counter.  Written by the scheduler when a
    /// whole-world stall is resolved by timing a call out; replayed verbatim
    /// afterwards even if the awaited message has arrived since (determinism
    /// beats freshness here).
    timeout_log: RefCell<Vec<Vec<bool>>>,
}

impl SeqWorld {
    fn new(p: usize, faults: Option<CompiledFaults>) -> Self {
        SeqWorld {
            p,
            stats: StatsRegistry::new(p),
            pairs: RefCell::new((0..p).map(|_| HashMap::new()).collect()),
            try_log: RefCell::new(vec![Vec::new(); p]),
            pool: BufferPool::new(),
            faults,
            crashed: RefCell::new(vec![false; p]),
            terminal: RefCell::new(vec![false; p]),
            max_send_ops: RefCell::new(vec![0; p]),
            timeout_log: RefCell::new(vec![Vec::new(); p]),
        }
    }
}

/// Communicator handle of one PE during one replay round of a sequential
/// run (the single-threaded backend of [`Communicator`]).
///
/// Created by [`run_spmd_seq`]; user code only ever sees `&SeqComm`.
pub struct SeqComm {
    world: Rc<SeqWorld>,
    rank: Rank,
    collective_seq: Cell<u64>,
    /// Next send index per destination (this round).  A map, not a
    /// vector: a fresh handle is built for every PE in every round, so an
    /// O(p) vector here would make each *round* O(p²).
    send_cursor: RefCell<HashMap<Rank, usize>>,
    /// Next receive index per source (this round).
    recv_cursor: RefCell<HashMap<Rank, usize>>,
    /// Index of the next `try_recv` call into the decision log.
    try_calls: Cell<usize>,
    /// Freshly recorded empty `try_recv` probes since the last successful
    /// receive — the busy-poll livelock detector.
    empty_probe_streak: Cell<u64>,
    /// Communication operations completed this round (progress metric).
    ops: Cell<u64>,
    /// Send operations performed this execution; drives the `CrashPe`
    /// trigger and the `DelayPair` release clock.  Only maintained under a
    /// fault plan.
    send_ops: Cell<u64>,
    /// Index of the next `recv_failable` call into the timeout log.
    failable_calls: Cell<usize>,
}

/// Empty `try_recv` probes tolerated without an intervening successful
/// receive before the run is declared a busy-poll livelock (within one
/// replay round no other PE can be scheduled, so such a loop can never
/// observe new messages).
pub const BUSY_POLL_LIMIT: u64 = 1 << 20;

impl SeqComm {
    fn new(world: Rc<SeqWorld>, rank: Rank) -> Self {
        SeqComm {
            world,
            rank,
            collective_seq: Cell::new(0),
            send_cursor: RefCell::new(HashMap::new()),
            recv_cursor: RefCell::new(HashMap::new()),
            try_calls: Cell::new(0),
            empty_probe_streak: Cell::new(0),
            ops: Cell::new(0),
            send_ops: Cell::new(0),
            failable_calls: Cell::new(0),
        }
    }

    fn check_rank(&self, rank: Rank, role: &str) {
        let size = self.world.p;
        if rank >= size {
            let err = CommError::InvalidRank { rank, size };
            panic!("{role} {rank}: {err}");
        }
    }

    /// Effective receive index for `src` (the pair cursor skipped past any
    /// injected drops) and how that slot looks right now.
    fn probe_next(&self, src: Rank) -> (usize, Avail) {
        let mut idx = self.recv_cursor.borrow().get(&src).copied().unwrap_or(0);
        let faults = self.world.faults.as_ref();
        if let Some(f) = faults {
            // Dropped messages were paid for by the sender but never arrive;
            // the receive sequence skips over them transparently.
            while f.is_dropped(src, self.rank, idx as u64) {
                idx += 1;
            }
        }
        let pairs = self.world.pairs.borrow();
        let pair = pairs[self.rank].get(&src);
        let present = pair.is_some_and(|pr| pr.slots.get(idx).is_some_and(Option::is_some));
        if present {
            if let Some(f) = faults {
                if let Some(delay) = f.delay_for(src, self.rank) {
                    let sent_at = pair
                        .and_then(|pr| pr.sent_at_op.get(idx).copied())
                        .unwrap_or(0);
                    let released = self.world.max_send_ops.borrow()[src] >= sent_at + delay
                        || self.world.terminal.borrow()[src];
                    if !released {
                        return (idx, Avail::NotYet);
                    }
                }
            }
            return (idx, Avail::Ready);
        }
        // A crashed peer still replays (and refills) everything below its
        // crash point, so its per-pair send log is final once it has crashed:
        // an index at or past the log's end will never be produced.
        let dead = faults.is_some()
            && self.world.crashed.borrow()[src]
            && idx >= pair.map_or(0, |pr| pr.sent_meta.len());
        (idx, if dead { Avail::Dead } else { Avail::NotYet })
    }

    /// Consume the message at effective index `idx` from `src` (must be
    /// `Avail::Ready`).
    fn consume(&self, src: Rank, idx: usize) -> Envelope {
        let env = {
            let mut pairs = self.world.pairs.borrow_mut();
            let env = pairs[self.rank]
                .get_mut(&src)
                .and_then(|pair| pair.slots.get_mut(idx).and_then(Option::take))
                .expect("probed Ready slot must hold a message");
            // Counters are reset at the start of every replay execution,
            // so each receive is metered unconditionally: after the
            // final (complete) execution they describe exactly one run
            // of the closure.
            self.world.stats.pe(self.rank).record_recv(env.words());
            env
        };
        self.recv_cursor.borrow_mut().insert(src, idx + 1);
        self.empty_probe_streak.set(0);
        self.ops.set(self.ops.get() + 1);
        env
    }

    /// Consume and decode the next message from `src`, or abort this round's
    /// execution when it has not been produced (yet).  `failable` is the
    /// `recv_failable` call the abort is recorded under (`None` for a plain
    /// receive).  `Err(PeerDead)` when the sender crash-stopped with its
    /// send log exhausted; a wrong tag or payload type is a program bug in
    /// SPMD code and panics.
    fn fetch_next<T: CommData>(
        &self,
        src: Rank,
        expected: Option<Tag>,
        failable: Option<usize>,
    ) -> CommResult<(Tag, T)> {
        match self.probe_next(src) {
            (idx, Avail::Ready) => {
                let env = self.consume(src, idx);
                let (tag, _words, value) = env
                    .check_tag(expected)
                    .and_then(|()| env.open_pooled::<T>(Some(&self.world.pool)))
                    .unwrap_or_else(|e| panic!("recv from {src}: {e}"));
                Ok((tag, value))
            }
            (idx, Avail::NotYet) => panic::panic_any(Blocked {
                src,
                dst: self.rank,
                index: idx,
                failable,
            }),
            (_, Avail::Dead) => {
                self.ops.set(self.ops.get() + 1);
                Err(CommError::PeerDead { rank: src })
            }
        }
    }

    /// [`SeqComm::fetch_next`] for a plain receive, which has no way to
    /// handle a peer crash: fail fast with a descriptive panic — aborting
    /// beats waiting for the deadlock detector.
    fn take_next<T: CommData>(&self, src: Rank, expected: Option<Tag>) -> (Tag, T) {
        self.fetch_next(src, expected, None).unwrap_or_else(|err| {
            panic!("recv from {src}: {err} (use recv_failable to handle peer crashes)")
        })
    }
}

impl Communicator for SeqComm {
    #[inline]
    fn rank(&self) -> Rank {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.world.p
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.world.stats.pe(self.rank).snapshot()
    }

    fn next_collective_tag(&self) -> Tag {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        COLLECTIVE_TAG_BASE + seq
    }

    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        self.check_rank(dst, "send to");
        // Fault hook (zero-cost when no plan is loaded): a scheduled crash
        // fires immediately before the PE's `at_send_count`-th send, and the
        // per-execution send-op clock drives `DelayPair` release.
        let op = if let Some(f) = self.world.faults.as_ref() {
            let op = self.send_ops.get();
            if f.crash_at(self.rank) == Some(op) {
                panic::panic_any(Crashed { rank: self.rank });
            }
            self.send_ops.set(op + 1);
            let mut max_ops = self.world.max_send_ops.borrow_mut();
            max_ops[self.rank] = max_ops[self.rank].max(op + 1);
            op
        } else {
            0
        };
        let idx = {
            let mut cursors = self.send_cursor.borrow_mut();
            let cursor = cursors.entry(dst).or_insert(0);
            let idx = *cursor;
            *cursor += 1;
            idx
        };
        {
            let pairs = self.world.pairs.borrow();
            let replayed = pairs[dst].get(&self.rank).and_then(|pair| {
                pair.slots
                    .get(idx)
                    .is_some_and(Option::is_some)
                    .then(|| pair.sent_meta[idx])
            });
            if let Some((words, reused)) = replayed {
                // Replay of a message whose previous copy was never
                // consumed: the closure is deterministic, so the contents
                // are identical — skip the redundant re-encode, but still
                // meter it (counters describe the current execution),
                // including the pooled-reuse flag the original encode had.
                let pe = self.world.stats.pe(self.rank);
                pe.record_send(words);
                if reused {
                    pe.record_pooled_reuse();
                }
                self.ops.set(self.ops.get() + 1);
                return;
            }
        }
        let (env, reused) = Envelope::encode(tag, self.rank, value, Some(&self.world.pool));
        let mut pairs = self.world.pairs.borrow_mut();
        let pair = pairs[dst].entry(self.rank).or_default();
        let pe = self.world.stats.pe(self.rank);
        pe.record_send(env.words());
        if reused {
            pe.record_pooled_reuse();
        }
        if pair.slots.len() <= idx {
            pair.slots.resize_with(idx + 1, || None);
        }
        if pair.sent_meta.len() <= idx {
            pair.sent_meta.resize(idx + 1, (0, false));
        }
        if self.world.faults.is_some() {
            if pair.sent_at_op.len() <= idx {
                pair.sent_at_op.resize(idx + 1, 0);
            }
            pair.sent_at_op[idx] = op;
        }
        pair.sent_meta[idx] = (env.words(), reused);
        pair.slots[idx] = Some(env);
        self.ops.set(self.ops.get() + 1);
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        self.check_rank(src, "recv from");
        self.take_next(src, Some(expected_tag)).1
    }

    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T) {
        self.check_rank(src, "recv from");
        self.take_next(src, None)
    }

    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)> {
        self.check_rank(src, "try_recv from");
        let call = self.try_calls.get();
        self.try_calls.set(call + 1);
        let decision = {
            let mut logs = self.world.try_log.borrow_mut();
            let log = &mut logs[self.rank];
            if call < log.len() {
                log[call]
            } else {
                // Fault-aware availability: a held-back (delayed) or
                // never-coming (dropped / dead-peer) message probes as
                // absent, exactly like an unsent one.
                let available = matches!(self.probe_next(src), (_, Avail::Ready));
                log.push(available);
                if !available {
                    // Busy-poll detector: within one round no other PE can
                    // run, so a spin loop of empty probes with no blocking
                    // receive in between can never observe new messages.
                    let streak = self.empty_probe_streak.get() + 1;
                    self.empty_probe_streak.set(streak);
                    assert!(
                        streak <= BUSY_POLL_LIMIT,
                        "PE {}: {streak} consecutive empty try_recv probes without a \
                         successful receive — a busy-poll loop cannot make progress on \
                         the single-threaded sequential backend; use a blocking recv \
                         between probes, or run on the threaded backend (run_spmd)",
                        self.rank
                    );
                }
                available
            }
        };
        if decision {
            // The slot may still be awaiting its refill in a replay round;
            // take_next aborts the round in that case and we retry later.
            Some(self.take_next(src, None))
        } else {
            self.ops.set(self.ops.get() + 1);
            None
        }
    }

    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> CommResult<T> {
        validate_user_tag(tag);
        self.check_rank(src, "recv from");
        let call = self.failable_calls.get();
        self.failable_calls.set(call + 1);
        // A verdict forced by the scheduler on an earlier round replays
        // verbatim, even if the message has arrived since: later executions
        // must follow the exact control flow of the one that recorded it.
        let forced = self.world.timeout_log.borrow()[self.rank]
            .get(call)
            .copied()
            .unwrap_or(false);
        if forced {
            self.ops.set(self.ops.get() + 1);
            return Err(CommError::Timeout { from: src });
        }
        self.fetch_next(src, Some(tag), Some(call))
            .map(|(_, value)| value)
    }
}

/// Rounds with no progress tolerated before declaring a deadlock (progress
/// is monotone, so one stalled round already implies one; a margin keeps
/// the detector conservative).
const STALLED_ROUNDS_LIMIT: usize = 3;

/// Hard cap on replay rounds — purely a runaway backstop, never reached by
/// programs the deadlock detector can classify.
const MAX_ROUNDS: usize = 1 << 24;

/// Configuration for a sequential run, including an optional fault plan.
#[derive(Debug, Clone, Default)]
pub struct SeqConfig {
    /// Number of simulated PEs.
    pub num_pes: usize,
    /// Fault schedule to inject; `None` (or an empty plan) runs fault-free
    /// and is bit-identical to [`run_spmd_seq`].
    pub faults: Option<FaultPlan>,
}

impl SeqConfig {
    /// Fault-free configuration for `num_pes` PEs.
    pub fn new(num_pes: usize) -> Self {
        SeqConfig {
            num_pes,
            faults: None,
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// One line of the deadlock dump's per-pair wait map — who waits on whom,
/// the pair's production status and the peer's liveness, so a fault-induced
/// stall is debuggable in one read.  Both replay backends print their
/// blocked PEs through this one formatter.
pub(crate) fn wait_map_line(b: &Blocked, produced: usize, crashed: bool, terminal: bool) -> String {
    let peer = if crashed {
        "crashed"
    } else if terminal {
        "finished"
    } else {
        "blocked too"
    };
    format!(
        "PE {} waits for message #{} from PE {} [pair produced {produced} \
         message(s); peer {peer}{}]",
        b.dst,
        b.index,
        b.src,
        if b.failable.is_some() {
            "; waiter is failure-detecting"
        } else {
            ""
        }
    )
}

/// Render the wait map for a stalled round: one line per blocked PE.
fn wait_map_report(world: &SeqWorld, blocked_at: &[Option<Blocked>]) -> String {
    let pairs = world.pairs.borrow();
    let crashed = world.crashed.borrow();
    let terminal = world.terminal.borrow();
    blocked_at
        .iter()
        .flatten()
        .map(|b| {
            let produced = pairs[b.dst]
                .get(&b.src)
                .map_or(0, |pair| pair.sent_meta.len());
            wait_map_line(b, produced, crashed[b.src], terminal[b.src])
        })
        .collect::<Vec<_>>()
        .join("\n  ")
}

/// The round-replay scheduler shared by the fault-free and fault-injecting
/// entry points.  Returns `None` for PEs that crash-stopped.
fn run_seq_core<T, F>(p: usize, faults: Option<CompiledFaults>, f: F) -> SpmdOutput<Option<T>>
where
    F: Fn(&SeqComm) -> T,
{
    assert!(p > 0, "an SPMD region needs at least one PE");
    install_quiet_block_hook();

    let start = Instant::now();
    let world = Rc::new(SeqWorld::new(p, faults));
    let mut results: Vec<Option<T>> = (0..p).map(|_| None).collect();
    let mut best_ops: Vec<u64> = vec![0; p];
    let mut blocked_at: Vec<Option<Blocked>> = (0..p).map(|_| None).collect();
    let mut stalled_rounds = 0usize;

    for round in 0.. {
        assert!(
            round < MAX_ROUNDS,
            "sequential SPMD run exceeded {MAX_ROUNDS} replay rounds"
        );
        let mut all_done = true;
        let mut improved = false;
        for rank in 0..p {
            // Each execution starts from a clean counter set (see
            // `PeStats::reset`): the loop only exits after a round in which
            // *every* PE ran its closure to completion (or to its crash
            // point), so the surviving counters describe exactly one
            // complete execution per PE and mid-closure snapshot deltas
            // agree with the threaded backend.  Crashed PEs keep replaying
            // every round — consumed slots below the crash point must be
            // refilled, exactly like those of finished PEs.
            world.stats.pe(rank).reset();
            let comm = SeqComm::new(Rc::clone(&world), rank);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
            if comm.ops.get() > best_ops[rank] {
                best_ops[rank] = comm.ops.get();
                improved = true;
            }
            match outcome {
                Ok(value) => {
                    results[rank] = Some(value);
                    blocked_at[rank] = None;
                    world.terminal.borrow_mut()[rank] = true;
                }
                Err(payload) => match payload.downcast::<Blocked>() {
                    Ok(blocked) => {
                        all_done = false;
                        results[rank] = None;
                        blocked_at[rank] = Some(*blocked);
                    }
                    Err(payload) => {
                        if let Some(crash) = payload.downcast_ref::<Crashed>() {
                            // Scheduled crash-stop: the PE is terminally
                            // gone but its pre-crash sends stand.  First
                            // detection counts as progress (it can unblock
                            // failure-detecting receivers).
                            let mut crashed = world.crashed.borrow_mut();
                            if !crashed[crash.rank] {
                                crashed[crash.rank] = true;
                                world.terminal.borrow_mut()[crash.rank] = true;
                                improved = true;
                            }
                            results[rank] = None;
                            blocked_at[rank] = None;
                            continue;
                        }
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic payload>");
                        panic!("PE {rank} panicked: {msg}");
                    }
                },
            }
        }
        if all_done {
            break;
        }
        stalled_rounds = if improved { 0 } else { stalled_rounds + 1 };
        if stalled_rounds >= STALLED_ROUNDS_LIMIT {
            // A whole-world stall with failure-detecting receivers parked is
            // not a deadlock: time those calls out (recording the verdict
            // for verbatim replay) and let the world try again.
            let mut forced = false;
            if world.faults.is_some() {
                let mut log = world.timeout_log.borrow_mut();
                for b in blocked_at.iter().flatten() {
                    if let Some(call) = b.failable {
                        if log[b.dst].len() <= call {
                            log[b.dst].resize(call + 1, false);
                        }
                        log[b.dst][call] = true;
                        forced = true;
                    }
                }
            }
            if forced {
                stalled_rounds = 0;
                continue;
            }
            panic!(
                "sequential SPMD run deadlocked after {round} rounds:\n  {}",
                wait_map_report(&world, &blocked_at)
            );
        }
    }

    let elapsed = start.elapsed();
    let crashed = world.crashed.borrow();
    SpmdOutput {
        results: results
            .into_iter()
            .enumerate()
            .map(|(rank, v)| {
                if crashed[rank] {
                    None
                } else {
                    Some(v.expect("non-crashed PE of a completed run must have a result"))
                }
            })
            .collect(),
        stats: world.stats.world(),
        elapsed,
    }
}

/// Run `f` on `p` simulated PEs on the current thread, deterministically.
///
/// Drop-in alternative to [`crate::runner::run_spmd`]: same SPMD
/// programming model, same [`SpmdOutput`], but PEs are executed by
/// round-based replay on one thread (see the module docs for the execution
/// model and the purity requirements on `f`).  Unlike the threaded runner,
/// `f` and `T` need not be `Send`/`Sync`.
///
/// # Panics
///
/// Panics if `p == 0`, if any PE panics (propagated with the rank of the
/// offending PE), or if the program deadlocks (a receive that no matching
/// send can ever satisfy — reported with who-waits-on-whom diagnostics).
pub fn run_spmd_seq<T, F>(p: usize, f: F) -> SpmdOutput<T>
where
    F: Fn(&SeqComm) -> T,
{
    let out = run_seq_core(p, None, f);
    SpmdOutput {
        results: out
            .results
            .into_iter()
            .map(|v| v.expect("fault-free run cannot crash a PE"))
            .collect(),
        stats: out.stats,
        elapsed: out.elapsed,
    }
}

/// Run `f` under a fault schedule (see [`crate::faults`]): the sequential
/// counterpart of [`run_spmd_seq`] for chaos testing.
///
/// `results[rank]` is `None` exactly for the PEs that crash-stopped; every
/// surviving PE ran its closure to completion.  An empty (or absent) fault
/// plan is bit-identical — results and metered words per PE — to
/// [`run_spmd_seq`].
///
/// # Panics
///
/// In addition to [`run_spmd_seq`]'s conditions: a *plain* receive that
/// provably waits on a crashed peer panics with
/// [`CommError::PeerDead`] diagnostics (use
/// [`Communicator::recv_failable`] to observe failures as values instead).
pub fn run_spmd_seq_faulty<T, F>(config: SeqConfig, f: F) -> SpmdOutput<Option<T>>
where
    F: Fn(&SeqComm) -> T,
{
    let compiled = config
        .faults
        .as_ref()
        .and_then(|plan| plan.compile(config.num_pes));
    run_seq_core(config.num_pes, compiled, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::runner::run_spmd;

    #[test]
    fn results_are_indexed_by_rank() {
        let out = run_spmd_seq(5, |comm| comm.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn point_to_point_works_in_both_directions() {
        // Rank order is 0 first, so 1 -> 0 exercises the multi-round path.
        let out = run_spmd_seq(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                let v: u64 = comm.recv(1, 2);
                v
            } else {
                let v: u64 = comm.recv(0, 1);
                comm.send(0, 2, v * 2);
                v
            }
        });
        assert_eq!(out.results, vec![20, 10]);
    }

    #[test]
    fn all_collectives_run_on_the_sequential_backend() {
        for p in [1, 2, 3, 5, 8] {
            let out = run_spmd_seq(p, move |comm| {
                let r = comm.rank() as u64;
                let root_value = comm.is_root().then_some(41u64);
                (
                    comm.allreduce_sum(r),
                    comm.prefix_sum_exclusive(1),
                    comm.broadcast(0, root_value),
                    comm.allgather(r),
                    comm.alltoall((0..comm.size() as u64).collect()),
                    comm.scatter(0, comm.is_root().then(|| (0..comm.size() as u64).collect())),
                )
            });
            let expected_sum: u64 = (0..p as u64).sum();
            for (rank, (sum, prefix, bcast, all, a2a, scat)) in out.results.iter().enumerate() {
                assert_eq!(*sum, expected_sum, "p={p}");
                assert_eq!(*prefix, rank as u64);
                assert_eq!(*bcast, 41);
                assert_eq!(*all, (0..p as u64).collect::<Vec<_>>());
                assert_eq!(*a2a, vec![rank as u64; p]);
                assert_eq!(*scat, rank as u64);
            }
        }
    }

    #[test]
    fn statistics_match_the_threaded_backend() {
        let threaded = run_spmd(6, |comm| {
            comm.allreduce_vec_sum(vec![comm.rank() as u64; 16]);
            comm.barrier();
            comm.prefix_sum_inclusive(1)
        });
        let sequential = run_spmd_seq(6, |comm| {
            comm.allreduce_vec_sum(vec![comm.rank() as u64; 16]);
            comm.barrier();
            comm.prefix_sum_inclusive(1)
        });
        assert_eq!(threaded.results, sequential.results);
        assert_eq!(threaded.stats.total_words(), sequential.stats.total_words());
        assert_eq!(
            threaded.stats.total_messages(),
            sequential.stats.total_messages()
        );
        assert_eq!(
            threaded.stats.bottleneck_words(),
            sequential.stats.bottleneck_words()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            run_spmd_seq(7, |comm| {
                let v = comm.rank() as u64 * 3 + 1;
                let s = comm.allreduce(v, ReduceOp::custom(|a, b| a ^ b));
                (s, comm.prefix_sum_exclusive(v))
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.total_words(), b.stats.total_words());
    }

    #[test]
    fn try_recv_decisions_are_replayed_consistently() {
        let out = run_spmd_seq(2, |comm| {
            if comm.rank() == 0 {
                // Whatever the recorded probe decisions are, the blocking
                // receive afterwards must still see both messages in order.
                let mut got = Vec::new();
                while got.len() < 2 {
                    if let Some((_tag, v)) = comm.try_recv::<u64>(1) {
                        got.push(v);
                    } else {
                        // Force a round boundary: block on the guaranteed recv.
                        let v: u64 = comm.recv(1, 1);
                        got.push(v);
                    }
                }
                got
            } else {
                comm.send(0, 1, 7u64);
                comm.send(0, 1, 8u64);
                vec![]
            }
        });
        assert_eq!(out.results[0], vec![7, 8]);
    }

    #[test]
    fn messages_are_metered_once_despite_replays() {
        let out = run_spmd_seq(2, |comm| {
            if comm.rank() == 0 {
                let _: u64 = comm.recv(1, 1); // forces at least two rounds
                comm.send(1, 2, vec![1u64; 9]);
            } else {
                comm.send(0, 1, 5u64);
                let _: Vec<u64> = comm.recv(0, 2);
            }
        });
        // 1 word (scalar) + 10 words (vec), each counted exactly once.
        assert_eq!(out.stats.total_words(), 11);
        assert_eq!(out.stats.total_messages(), 2);
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let result = std::panic::catch_unwind(|| {
            run_spmd_seq(2, |comm| {
                if comm.rank() == 0 {
                    let _: u64 = comm.recv(1, 1); // never sent
                }
            })
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlocked"), "got: {msg}");
        assert!(msg.contains("PE 0 waits"), "got: {msg}");
    }

    #[test]
    fn user_panics_are_propagated_with_rank() {
        let result = std::panic::catch_unwind(|| {
            run_spmd_seq(3, |comm| {
                if comm.rank() == 2 {
                    panic!("boom");
                }
            })
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("PE 2 panicked: boom"), "got: {msg}");
    }

    #[test]
    fn non_send_results_are_allowed() {
        // Rc<T> is neither Send nor Sync — impossible on the threaded
        // backend, fine here.
        let out = run_spmd_seq(3, |comm| std::rc::Rc::new(comm.rank()));
        assert_eq!(*out.results[2], 2);
    }

    #[test]
    fn typed_path_pools_buffers_on_the_sequential_backend() {
        let out = run_spmd_seq(4, |comm| {
            for _ in 0..4 {
                comm.allreduce_vec_sum(vec![comm.rank() as u64; 32]);
            }
        });
        assert!(out.stats.total_pooled_reuses() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_is_rejected() {
        let _ = run_spmd_seq(0, |_comm| ());
    }

    #[test]
    fn busy_poll_loops_are_detected_instead_of_hanging() {
        // On the threaded backend this spin loop would terminate (the
        // sender runs concurrently); here it must be diagnosed.
        let result = std::panic::catch_unwind(|| {
            run_spmd_seq(2, |comm| {
                if comm.rank() == 0 {
                    while comm.try_recv::<u64>(1).is_none() {}
                } else {
                    comm.send(0, 1, 7u64);
                }
            })
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("busy-poll"), "got: {msg}");
    }

    #[test]
    fn one_shot_probes_interleaved_with_blocking_recvs_still_work() {
        // A probe-then-block pattern (the supported shape) completes and
        // sees every message exactly once.
        let out = run_spmd_seq(2, |comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..8 {
                    match comm.try_recv::<u64>(1) {
                        Some((_tag, v)) => got.push(v),
                        None => got.push(comm.recv(1, 1)),
                    }
                }
                got
            } else {
                for i in 0..8u64 {
                    comm.send(0, 1, i);
                }
                Vec::new()
            }
        });
        assert_eq!(out.results[0], (0..8).collect::<Vec<u64>>());
    }
}
