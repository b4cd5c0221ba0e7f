//! The replay engine: SPMD worlds without a thread per PE.
//!
//! One engine, two drivers.  [`World::mux`] multiplexes **thousands of
//! simulated PEs as cooperative tasks over a small worker pool**;
//! [`World::seq`] runs the *same* scheduler loop **inline on the calling
//! thread**.  Both execute the SPMD closures [`World::threaded`] does.  The
//! threaded backend pins one OS thread (with an 8 MiB stack) per PE, which
//! caps honest sweeps near p = 1024; this engine's cost per PE is
//! one queue entry plus the messages it touches, so the paper's asymptotic
//! claims — words/PE shrinking and start-ups staying polylogarithmic as p
//! grows — can be *measured* at p = 16 384 and beyond instead of
//! extrapolated.
//!
//! # Execution model: replay with park/wake
//!
//! A closure cannot be suspended mid-execution without a dedicated stack,
//! so the engine **re-executes** instead: a receive whose message has not
//! arrived aborts the current execution by unwinding with a sentinel payload
//! (raised with `resume_unwind`, which starts the unwind without calling
//! the panic hook, and caught by the scheduler), and
//! the closure is later re-run from the beginning, deterministically
//! replaying everything it already did.  Around that trick sits the
//! scheduler:
//!
//! * workers pull runnable tasks (PEs) from a shared ready-queue;
//! * a task that blocks on `(src, index)` **parks**: it is stored off to
//!   the side and consumes no worker until the matching send arrives;
//! * a send that produces the message a parked task waits for **wakes** it
//!   by moving it back onto the ready-queue.
//!
//! The ready-queue is **least-progress-first**: a min-heap on (messages
//! sent plus received by the task's furthest execution, arrival ticket).
//! All tasks start at progress 0, so the first pass runs them in ascending
//! rank order; afterwards the task furthest behind in the program runs
//! next, and tasks equally far along run in the order they became
//! runnable.  An aborted execution costs one unwind plus one re-execution,
//! so what the order buys is fewer aborts: by the time a task is picked,
//! the tasks behind it — whose messages it will need next — have already
//! run.  On binomial trees the least-advanced task is also the oldest, and
//! the order coincides with FIFO; on log-round exchanges (barrier,
//! hypercube all-to-all, the dissemination all-gather), where every PE
//! receives in every round, it roughly halves the executions per PE (pinned
//! by unit tests below; measurements in EXPERIMENTS.md).  The order is a
//! heuristic only for *cost*.  Termination does not depend on it, for the
//! reason it did not depend on FIFO: a parked task is re-queued only when
//! the message it parked on is in the store (or, under a fault plan, when
//! its receive got a verdict or its peer turned terminal — once per peer),
//! so every dequeue advances that task by at least one receive, and total
//! progress is bounded by the program.
//!
//! Because tasks re-execute from scratch, sent messages cannot be consumed
//! destructively (a finished sender will never run again to produce them a
//! second time).  Messages are therefore stored **permanently** as their
//! word encodings ([`Envelope`]s) and receives decode them *by reference*
//! ([`Envelope::decode`]); a replayed send that hits an already-stored index
//! is metered without re-encoding.  Every [`CommData`] payload has a word
//! encoding, so any program that compiles runs here.
//!
//! # Requirements on the closure
//!
//! The closure is executed **multiple times** per PE, so it must be
//! deterministic and must not rely on external side effects (mutating shared
//! state through interior mutability, I/O, wall-clock time, entropy from a
//! non-seeded RNG).  Every algorithm in this workspace satisfies this: local
//! data is derived from `comm.rank()` and seeded RNGs.
//!
//! # The inline driver
//!
//! [`World::seq`] spawns nothing: the one scheduler loop runs on the
//! calling thread, on the caller's stack, so the closure and its results
//! need not be `Send`/`Sync`, set-up is the `O(p)` world and nothing else,
//! and — one worker, one deterministic queue — the schedule is **fully
//! deterministic**: the same `(rank, outcome)` execution sequence on every
//! run.  It cannot hang: with a single worker `active` is 0 after every park
//! and every completion, so the deadlock check runs each time and leaves a
//! non-empty queue (a wake, a forced timeout), a finished world or a
//! recorded failure.  Every iteration of the loop finds one of the three, so
//! its `Condvar::wait` — the only place a worker can block — is never
//! reached.
//!
//! # Lazily materialised pair state
//!
//! The whole point of this engine is massive p, so nothing may cost
//! O(p²): per-destination message tables are `HashMap`s keyed by source
//! rank and materialise only for pairs that actually communicate, and the
//! per-task send/receive cursors are maps too.  World construction is
//! O(p) (one empty shard + one scheduler slot per PE) and total memory is
//! O(p + touched pairs + stored traffic).
//!
//! # Determinism and metering
//!
//! Communication counters are reset at the start of every execution and
//! the scheduler keeps each PE's counters from its final, complete
//! execution, so whole-run [`crate::WorldStats`] *and* mid-closure
//! [`Communicator::stats_snapshot`] deltas describe exactly one run of the
//! closure: words/PE and start-up counts are **bit-identical** to the
//! threaded backend on the deterministic algorithms in this workspace
//! (pinned by regression tests).  On a pool the scheduling order is *not*
//! deterministic (workers race for tasks), but message matching per ordered
//! pair is FIFO by index, so deterministic closures produce identical
//! results and identical traffic regardless of the schedule.
//!
//! A blocked receive that no send can ever satisfy is reported as a
//! deadlock with who-waits-on-whom diagnostics: when every task is either
//! finished or parked and the ready-queue is empty, no progress is
//! possible.
//!
//! # Example
//!
//! ```
//! use commsim::{Communicator, World};
//!
//! // 512 simulated PEs run on a handful of worker threads ...
//! let out = World::new(512).mux(|comm| comm.allreduce_sum(1u64));
//! assert!(out.results.iter().all(|&s| s == Some(512)));
//! // ... or on this thread alone, with one deterministic schedule.
//! let out = World::new(4).seq(|comm| comm.allreduce_sum(comm.rank() as u64));
//! assert_eq!(out.fault_free().results, vec![6, 6, 6, 6]);
//! ```

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use crate::communicator::{validate_user_tag, Communicator, COLLECTIVE_TAG_BASE};
use crate::error::{CommError, CommResult};
use crate::faults::{CompiledFaults, Crashed};
use crate::message::CommData;
use crate::metrics::{StatsRegistry, StatsSnapshot};
use crate::transport::Envelope;
use crate::world::{SpmdOutput, World, STACK_SIZE};
use crate::{Rank, Tag};

/// Sentinel panic payload: "this execution cannot continue until message
/// `index` of the pair `(src, dst)` exists".  The scheduler catches it and
/// parks the task.
#[derive(Clone, Copy)]
struct Blocked {
    src: Rank,
    dst: Rank,
    index: usize,
    /// `Some(call)` when the block came from the `call`-th
    /// [`Communicator::recv_failable`] of the PE: the stall resolver may
    /// force that call to a `Timeout` verdict (recorded in the task's
    /// timeout log and replayed verbatim).
    failable: Option<usize>,
}

/// Abort the current execution of a PE's closure by unwinding with
/// `sentinel` as the payload, for the scheduler to catch.  `resume_unwind` starts the unwind without calling the panic hook:
/// a sentinel is control flow, not a failure anyone should see reported.
/// Out of line and cold, so that the receive path it ends stays small.
#[cold]
#[inline(never)]
pub(crate) fn unwind_with<S: Send + 'static>(sentinel: S) -> ! {
    panic::resume_unwind(Box::new(sentinel))
}

/// How the message at a receive cursor looks to its receiver right now.
enum Avail {
    /// Present and (if the pair is delayed) released for delivery.
    Ready,
    /// Not there yet (unsent, or held back by an injected delay) — park.
    NotYet,
    /// Never coming: the sender crash-stopped and its final send log holds
    /// no message at this index.
    Dead,
}

/// One line of the deadlock dump's per-pair wait map — who waits on whom,
/// the pair's production status and the peer's liveness, so a fault-induced
/// stall is debuggable in one read.
fn wait_map_line(b: &Blocked, produced: usize, crashed: bool, terminal: bool) -> String {
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

/// One message, stored permanently as its word encoding so that every
/// re-execution of the receiving task can decode it again.
struct StoredMsg {
    env: Envelope,
    /// Sender send-op counter value when this message was produced; drives
    /// `DelayPair` release under a fault plan (0 on fault-free runs).
    sent_at_op: u64,
}

/// All messages ever sent from one source to this shard's destination,
/// in send order.  Never truncated: replayed executions re-read them.
#[derive(Default)]
struct MuxPair {
    msgs: Vec<StoredMsg>,
}

/// Per-destination message state, lazily keyed by source rank so that a
/// p-PE world only pays for pairs that actually communicate.
#[derive(Default)]
struct MuxShard {
    pairs: HashMap<Rank, MuxPair>,
    /// The destination task, parked waiting for `(src, index)`.  At most
    /// one waiter exists per shard (the shard's destination PE); it is
    /// registered and observed only under the shard lock, so a send can
    /// never slip between a task's empty check and its registration.
    waiter: Option<(Rank, usize)>,
}

/// A suspended PE: everything that must survive between executions.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TaskState {
    rank: Rank,
    /// Messages sent plus received by this task's furthest execution — its
    /// position in the program, and the ready queue's primary key.
    progress: u64,
    /// Forced-`Timeout` verdicts for `recv_failable`, by failable-call
    /// index (written by the stall resolver, replayed verbatim).
    timeout_log: Vec<bool>,
}

/// The runnable tasks, **least progress first**: a min-heap on
/// `(task.progress, arrival ticket)`, so the task furthest behind in the
/// program runs next and tasks equally far along run in arrival order.
/// (Tickets are unique, so the `TaskState` in the tuple is never compared;
/// its `Ord` only lets the tuple sit in a heap.)
#[derive(Default)]
struct ReadyQueue {
    heap: BinaryHeap<Reverse<(u64, u64, TaskState)>>,
    next_ticket: u64,
}

impl ReadyQueue {
    fn push(&mut self, task: TaskState) {
        self.heap
            .push(Reverse((task.progress, self.next_ticket, task)));
        self.next_ticket += 1;
    }

    fn pop(&mut self) -> Option<TaskState> {
        self.heap.pop().map(|Reverse((_, _, task))| task)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// What a parked task is waiting for — kept in the scheduler for deadlock
/// diagnostics and stall resolution (the authoritative wake bookkeeping is
/// `MuxShard::waiter`).
#[derive(Clone, Copy)]
struct WaitInfo {
    /// The receive the task parked on.  `failable: Some(call)` means the
    /// park came from `recv_failable` — the stall resolver may force that
    /// call to a `Timeout` verdict.
    blocked: Blocked,
    /// Messages the pair had produced when the task parked (diagnostics).
    produced: usize,
}

/// Scheduler state: the ready-queue plus park/progress bookkeeping.
struct Sched {
    ready: ReadyQueue,
    /// Parked task storage, indexed by rank.
    parked: Vec<Option<TaskState>>,
    /// What each parked task waits for (deadlock diagnostics only; the
    /// authoritative wake bookkeeping is `MuxShard::waiter`).
    waiting: Vec<Option<WaitInfo>>,
    /// Tasks currently executing on a worker.
    active: usize,
    /// Tasks that ran to completion.
    done: usize,
    /// Tasks that hit their scheduled crash point (terminal, like `done`).
    crashed_count: usize,
    /// First fatal error (PE panic or deadlock); ends the run.
    failure: Option<String>,
}

/// State shared by all workers of one multiplexed run.
struct MuxWorld {
    p: usize,
    stats: StatsRegistry,
    shards: Vec<Mutex<MuxShard>>,
    sched: Mutex<Sched>,
    /// Signals "ready-queue non-empty, or run over".
    cv: Condvar,
    /// Compiled fault schedule; `None` on the fault-free path, which then
    /// skips every fault check (the zero-cost-when-`None` hook).
    faults: Option<CompiledFaults>,
    /// Ranks that hit their scheduled crash point.  Set (release) after the
    /// crashing execution unwound, so an observer that loads `true`
    /// (acquire) also sees every pre-crash message in the store.
    crashed: Vec<AtomicBool>,
    /// Ranks whose send log is final — finished or crashed.  Releases
    /// delayed pairs and finalises dead-peer verdicts.
    terminal: Vec<AtomicBool>,
    /// Furthest send-op counter each rank has reached (monotone,
    /// `fetch_max`); the release clock for `DelayPair` hold-backs.
    max_send_ops: Vec<AtomicU64>,
}

/// Mutex poisoning is not an error state here: a panic inside a critical
/// section is either the `Blocked` sentinel (never raised while a lock is
/// held) or a genuine failure that is separately recorded and terminates
/// the run — the guarded data itself is never left mid-update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MuxWorld {
    /// A world of `p` tasks, all runnable (queued in rank order).
    fn new(p: usize, faults: Option<CompiledFaults>) -> Self {
        let mut ready = ReadyQueue::default();
        for rank in 0..p {
            ready.push(TaskState {
                rank,
                progress: 0,
                timeout_log: Vec::new(),
            });
        }
        MuxWorld {
            p,
            stats: StatsRegistry::new(p),
            shards: (0..p).map(|_| Mutex::new(MuxShard::default())).collect(),
            sched: Mutex::new(Sched {
                ready,
                parked: (0..p).map(|_| None).collect(),
                waiting: vec![None; p],
                active: 0,
                done: 0,
                crashed_count: 0,
                failure: None,
            }),
            cv: Condvar::new(),
            faults,
            crashed: (0..p).map(|_| AtomicBool::new(false)).collect(),
            terminal: (0..p).map(|_| AtomicBool::new(false)).collect(),
            max_send_ops: (0..p).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Terminal tasks (finished or crashed) — the run is over when this
    /// reaches `p`.
    fn finished(&self, sched: &Sched) -> usize {
        sched.done + sched.crashed_count
    }

    /// Must be called with the sched lock held, after `active` was
    /// decremented: if nothing runs, nothing is runnable and tasks remain,
    /// no send can ever arrive — the world is quiescent.  Under a fault
    /// plan, failure-detecting receives parked at quiescence are *timed
    /// out* (a recorded, replayable verdict) and their tasks resumed; only
    /// if nothing can be timed out is the run declared deadlocked.
    fn check_deadlock(&self, sched: &mut Sched) {
        if sched.active != 0 || !sched.ready.is_empty() || self.finished(sched) >= self.p {
            return;
        }
        if self.faults.is_some() {
            let mut forced = false;
            for rank in 0..self.p {
                if let Some(info) = sched.waiting[rank] {
                    if let Some(call) = info.blocked.failable {
                        if let Some(mut task) = sched.parked[rank].take() {
                            if task.timeout_log.len() <= call {
                                task.timeout_log.resize(call + 1, false);
                            }
                            task.timeout_log[call] = true;
                            sched.waiting[rank] = None;
                            // The shard's waiter registration goes stale
                            // here (lock order forbids clearing it while
                            // holding sched); the wake path tolerates it.
                            sched.ready.push(task);
                            forced = true;
                        }
                    }
                }
            }
            if forced {
                self.cv.notify_all();
                return;
            }
        }
        let waits: Vec<String> = sched
            .waiting
            .iter()
            .flatten()
            .map(|info| {
                let src = info.blocked.src;
                wait_map_line(
                    &info.blocked,
                    info.produced,
                    self.crashed[src].load(Ordering::Acquire),
                    self.terminal[src].load(Ordering::Acquire),
                )
            })
            .collect();
        if sched.failure.is_none() {
            sched.failure = Some(format!(
                "SPMD run deadlocked — every unfinished PE waits for a message \
                 that no runnable PE will send:\n  {}",
                waits.join("\n  ")
            ));
        }
        self.cv.notify_all();
    }

    /// Resume every parked task waiting on `src` (tolerantly: stale shard
    /// registrations are fine, resumed tasks re-check and re-park if still
    /// blocked).  Called with the sched lock held when `src` turned
    /// terminal — its death or completion releases delayed pairs and
    /// finalises dead-peer verdicts, so its waiters must re-evaluate.
    fn resume_waiters_on(&self, sched: &mut Sched, src: Rank) {
        for rank in 0..self.p {
            if sched.waiting[rank].is_some_and(|info| info.blocked.src == src) {
                if let Some(task) = sched.parked[rank].take() {
                    sched.waiting[rank] = None;
                    sched.ready.push(task);
                    self.cv.notify_one();
                }
            }
        }
    }

    /// With `dst`'s shard lock held: how the message at effective index
    /// `idx` of the pair `(src, dst)` looks right now.
    fn availability(&self, shard: &MuxShard, dst: Rank, src: Rank, idx: usize) -> Avail {
        let pair = shard.pairs.get(&src);
        let pair_len = pair.map_or(0, |p| p.msgs.len());
        if idx < pair_len {
            if let Some(f) = self.faults.as_ref() {
                if let Some(delay) = f.delay_for(src, dst) {
                    let sent_at = pair.expect("idx < len implies pair exists").msgs[idx].sent_at_op;
                    let released = self.max_send_ops[src].load(Ordering::Acquire)
                        >= sent_at + delay
                        || self.terminal[src].load(Ordering::Acquire);
                    if !released {
                        return Avail::NotYet;
                    }
                }
            }
            return Avail::Ready;
        }
        // A crashed task never runs again and the store is permanent, so
        // once the crashed flag is visible the pair's length is final: an
        // index at or past it will never be produced.
        if self.faults.is_some() && self.crashed[src].load(Ordering::Acquire) {
            Avail::Dead
        } else {
            Avail::NotYet
        }
    }
}

/// Communicator handle of one PE during one execution of its task on the
/// replay engine.
///
/// Created by [`World::mux`] and [`World::seq`] alike; user code only ever
/// sees `&MuxComm`.
pub struct MuxComm {
    world: Arc<MuxWorld>,
    rank: Rank,
    collective_seq: Cell<u64>,
    /// Next send index per destination (this execution).  A map, not a
    /// vector: a PE touching O(log p) peers must not pay O(p) per replay.
    send_cursor: RefCell<HashMap<Rank, usize>>,
    /// Next receive index per source (this execution).
    recv_cursor: RefCell<HashMap<Rank, usize>>,
    /// Send operations performed this execution; drives the `CrashPe`
    /// trigger and the `DelayPair` release clock.  Only maintained under a
    /// fault plan.
    send_ops: Cell<u64>,
    /// Index of the next `recv_failable` call into the timeout log.
    failable_calls: Cell<usize>,
    /// This task's forced-`Timeout` verdict log (moved in/out around each
    /// execution by the worker).
    timeout_log: RefCell<Vec<bool>>,
}

impl MuxComm {
    fn new(world: Arc<MuxWorld>, rank: Rank, timeout_log: Vec<bool>) -> Self {
        MuxComm {
            world,
            rank,
            collective_seq: Cell::new(0),
            send_cursor: RefCell::new(HashMap::new()),
            recv_cursor: RefCell::new(HashMap::new()),
            send_ops: Cell::new(0),
            failable_calls: Cell::new(0),
            timeout_log: RefCell::new(timeout_log),
        }
    }

    fn check_rank(&self, rank: Rank, role: &str) {
        let size = self.world.p;
        if rank >= size {
            let err = CommError::InvalidRank { rank, size };
            panic!("{role} {rank}: {err}");
        }
    }

    /// This execution's effective receive index for `src`: the pair cursor
    /// skipped past any injected drops (lost messages were paid for by the
    /// sender but never arrive; the receive sequence steps over them).
    fn effective_idx(&self, src: Rank) -> usize {
        let mut idx = self.recv_cursor.borrow().get(&src).copied().unwrap_or(0);
        if let Some(f) = self.world.faults.as_ref() {
            while f.is_dropped(src, self.rank, idx as u64) {
                idx += 1;
            }
        }
        idx
    }

    /// Decode the message at this execution's cursor for `src` *by
    /// reference* (the store keeps it for future replays), or abort the
    /// execution (park) when it has not been produced yet.  `failable` is
    /// the `recv_failable` call the park is recorded under (`None` for a
    /// plain receive).  `Err(PeerDead)` when the sender crash-stopped with
    /// its send log exhausted; a wrong tag or payload type is a program bug
    /// in SPMD code and panics.
    fn fetch_next<T: CommData>(
        &self,
        src: Rank,
        expected: Tag,
        failable: Option<usize>,
    ) -> CommResult<T> {
        let idx = self.effective_idx(src);
        let decoded = {
            let shard = lock(&self.world.shards[self.rank]);
            match self.world.availability(&shard, self.rank, src, idx) {
                Avail::Ready => {
                    let env = &shard.pairs[&src].msgs[idx].env;
                    // Counters are reset at the start of every execution,
                    // so each receive is metered unconditionally: after
                    // the final (complete) execution they describe exactly
                    // one run of the closure.
                    self.world.stats.pe(self.rank).record_recv(env.words());
                    let value = env
                        .check_tag(expected)
                        .and_then(|()| env.decode::<T>())
                        .unwrap_or_else(|e| panic!("recv from {src}: {e}"));
                    Some(value)
                }
                Avail::NotYet => None,
                Avail::Dead => return Err(CommError::PeerDead { rank: src }),
            }
        };
        match decoded {
            Some(value) => {
                self.recv_cursor.borrow_mut().insert(src, idx + 1);
                Ok(value)
            }
            // The shard lock is released before the sentinel unwinds (the
            // scheduler re-locks the shard to re-check and park).
            None => unwind_with(Blocked {
                src,
                dst: self.rank,
                index: idx,
                failable,
            }),
        }
    }
}

impl Communicator for MuxComm {
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
        // fires immediately before the task's `at_send_count`-th send, and
        // the send-op clock drives `DelayPair` release.
        let op = if let Some(f) = self.world.faults.as_ref() {
            let op = self.send_ops.get();
            if f.crash_at(self.rank) == Some(op) {
                unwind_with(Crashed { rank: self.rank });
            }
            self.send_ops.set(op + 1);
            self.world.max_send_ops[self.rank].fetch_max(op + 1, Ordering::AcqRel);
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
            let mut shard = lock(&self.world.shards[dst]);
            let pair = shard.pairs.entry(self.rank).or_default();
            let pe = self.world.stats.pe(self.rank);
            if let Some(stored) = pair.msgs.get(idx) {
                // Replay of a message that is already in the store: the
                // closure is deterministic, so the contents are identical —
                // skip the redundant re-encode, but still meter it (counters
                // describe the current execution).
                debug_assert_eq!(stored.env.tag, tag, "replayed send diverged");
                pe.record_send(stored.env.words());
                return;
            }
            debug_assert_eq!(idx, pair.msgs.len(), "send indices are dense");
            let env = Envelope::new(tag, self.rank, value);
            pe.record_send(env.words());
            pair.msgs.push(StoredMsg {
                env,
                sent_at_op: op,
            });
            // Wake the destination if it parked waiting for exactly this
            // message.  Registration happens under this shard's lock, so the
            // waiter is either visible here or has re-checked after this
            // push.
            let wake = match shard.waiter {
                Some((src, windex)) if src == self.rank && windex <= idx => {
                    shard.waiter = None;
                    true
                }
                _ => false,
            };
            if wake {
                // Lock order is always shard → sched.
                let mut sched = lock(&self.world.sched);
                // Tolerant take: the stall resolver resumes tasks without
                // clearing their shard registration, so a registered waiter
                // may have no parked task — it is already running again.
                if let Some(task) = sched.parked[dst].take() {
                    sched.waiting[dst] = None;
                    sched.ready.push(task);
                    self.world.cv.notify_one();
                }
            }
        }
        // Under a fault plan, this send advanced the sender's op clock,
        // which may have released held-back messages on *other* delayed
        // pairs from this rank; their parked receivers re-evaluate.  Both
        // shard locks above are released first (shards are never nested).
        if let Some(f) = self.world.faults.as_ref() {
            for delayed_dst in f.delayed_dsts(self.rank) {
                if delayed_dst == dst {
                    continue; // the primary wake above covered this shard
                }
                let mut shard = lock(&self.world.shards[delayed_dst]);
                let woken = match shard.waiter {
                    Some((src, windex)) if src == self.rank => matches!(
                        self.world.availability(&shard, delayed_dst, src, windex),
                        Avail::Ready
                    ),
                    _ => false,
                };
                if woken {
                    shard.waiter = None;
                    let mut sched = lock(&self.world.sched);
                    if let Some(task) = sched.parked[delayed_dst].take() {
                        sched.waiting[delayed_dst] = None;
                        sched.ready.push(task);
                        self.world.cv.notify_one();
                    }
                }
            }
        }
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        self.check_rank(src, "recv from");
        // A plain receive cannot handle a peer crash: fail fast with a
        // descriptive panic instead.
        self.fetch_next(src, expected_tag, None)
            .unwrap_or_else(|err| {
                panic!("recv from {src}: {err} (use recv_failable to handle peer crashes)")
            })
    }

    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> CommResult<T> {
        validate_user_tag(tag);
        self.check_rank(src, "recv from");
        let call = self.failable_calls.get();
        self.failable_calls.set(call + 1);
        // A verdict forced by the stall resolver replays verbatim, even if
        // the message has arrived since: later executions must follow the
        // exact control flow of the one that recorded it.
        let forced = self
            .timeout_log
            .borrow()
            .get(call)
            .copied()
            .unwrap_or(false);
        if forced {
            return Err(CommError::Timeout { from: src });
        }
        self.fetch_next(src, tag, Some(call))
    }
}

/// One worker: pull a runnable task, execute it, classify the outcome
/// (complete / parked / failed), repeat until the run is over.  The whole
/// scheduler — a pool runs it on every worker thread, the inline driver
/// once on the calling thread (hence no `Send` bounds here).
fn worker_loop<T, F>(world: &Arc<MuxWorld>, f: &F, results: &Mutex<Vec<Option<T>>>)
where
    F: Fn(&MuxComm) -> T,
{
    loop {
        let mut task = {
            let mut sched = lock(&world.sched);
            loop {
                if sched.failure.is_some() || world.finished(&sched) == world.p {
                    return;
                }
                if let Some(task) = sched.ready.pop() {
                    sched.active += 1;
                    break task;
                }
                sched = world.cv.wait(sched).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let rank = task.rank;
        // Each execution starts from a clean counter set; the run only
        // ends once every task ran to completion (or to its crash point),
        // so the surviving counters describe exactly one complete
        // execution per PE.
        world.stats.pe(rank).reset();
        let comm = MuxComm::new(
            Arc::clone(world),
            rank,
            std::mem::take(&mut task.timeout_log),
        );
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
        task.timeout_log = comm.timeout_log.into_inner();
        // Replays are deterministic, so an execution never ends before the
        // previous one did and this only grows.
        let counters = world.stats.pe(rank).snapshot();
        task.progress = counters.sent_messages + counters.received_messages;
        match outcome {
            Ok(value) => {
                lock(results)[rank] = Some(value);
                // Completion is terminal: it releases this rank's delayed
                // pairs (so waiters must re-evaluate under fault injection)
                // and lets the deadlock dump report the peer as finished
                // rather than blocked.
                world.terminal[rank].store(true, Ordering::Release);
                let mut sched = lock(&world.sched);
                sched.active -= 1;
                sched.done += 1;
                if world.faults.is_some() {
                    world.resume_waiters_on(&mut sched, rank);
                }
                if world.finished(&sched) == world.p {
                    world.cv.notify_all();
                } else {
                    // A completion can strand the rest: everyone else may
                    // be parked waiting for a send this task never did.
                    world.check_deadlock(&mut sched);
                }
            }
            Err(payload) => match payload.downcast::<Blocked>() {
                Ok(blocked) => {
                    let Blocked { src, index, .. } = *blocked;
                    let mut shard = lock(&world.shards[rank]);
                    // Re-check under the shard lock: the message may have
                    // arrived (or a held-back one been released) between
                    // the abort and now, in which case the task is
                    // immediately runnable again.  The check must be the
                    // fault-aware one — a present-but-delayed message is
                    // NOT arrived, or the task would requeue-spin.
                    let arrived =
                        matches!(world.availability(&shard, rank, src, index), Avail::Ready)
                            || (world.faults.is_some()
                                && world.crashed[src].load(Ordering::Acquire));
                    let produced = shard.pairs.get(&src).map_or(0, |pair| pair.msgs.len());
                    let mut sched = lock(&world.sched);
                    sched.active -= 1;
                    if arrived {
                        sched.ready.push(task);
                        world.cv.notify_one();
                    } else {
                        shard.waiter = Some((src, index));
                        sched.waiting[rank] = Some(WaitInfo {
                            blocked: *blocked,
                            produced,
                        });
                        sched.parked[rank] = Some(task);
                        world.check_deadlock(&mut sched);
                    }
                }
                Err(payload) => {
                    if let Some(crash) = payload.downcast_ref::<Crashed>() {
                        // Scheduled crash-stop: terminal like a completion
                        // (pre-crash sends stand; the store is final), but
                        // the rank produces no result.  Waiters on this
                        // rank re-evaluate — they may now resolve PeerDead
                        // or see a delayed pair released.
                        world.crashed[crash.rank].store(true, Ordering::Release);
                        world.terminal[crash.rank].store(true, Ordering::Release);
                        let mut sched = lock(&world.sched);
                        sched.active -= 1;
                        sched.crashed_count += 1;
                        world.resume_waiters_on(&mut sched, crash.rank);
                        if world.finished(&sched) == world.p {
                            world.cv.notify_all();
                        } else {
                            world.check_deadlock(&mut sched);
                        }
                        continue;
                    }
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    let mut sched = lock(&world.sched);
                    sched.active -= 1;
                    if sched.failure.is_none() {
                        sched.failure = Some(format!("PE {rank} panicked: {msg}"));
                    }
                    world.cv.notify_all();
                    return;
                }
            },
        }
    }
}

impl World {
    /// Run `f` on the replay engine, its PEs multiplexed as cooperative tasks
    /// over [`World::with_workers`] threads, under this world's fault plan.
    ///
    /// Same programming model and [`SpmdOutput`] as [`World::threaded`], but
    /// p can reach into the tens of thousands (see the module docs for the
    /// execution model and the purity requirements on `f` — the closure is
    /// executed multiple times).  `results[rank]` is `None` exactly for the
    /// PEs that crash-stopped.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`, if any PE panics (propagated with the rank of the
    /// offending PE), or if the program deadlocks (a receive that no matching
    /// send can ever satisfy — reported with who-waits-on-whom diagnostics).
    /// A *plain* receive that provably waits on a crashed peer panics with
    /// [`CommError::PeerDead`] diagnostics (use
    /// [`Communicator::recv_failable`] to observe failures as values).
    pub fn mux<T, F>(&self, f: F) -> SpmdOutput<Option<T>>
    where
        T: Send,
        F: Fn(&MuxComm) -> T + Send + Sync,
    {
        let workers = self.num_workers.unwrap_or_else(|| {
            thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        });
        self.replay(|world, results| {
            thread::scope(|scope| {
                for w in 0..workers.clamp(1, world.p) {
                    thread::Builder::new()
                        .name(format!("mux-worker-{w}"))
                        .stack_size(STACK_SIZE)
                        .spawn_scoped(scope, || worker_loop(world, &f, results))
                        .expect("failed to spawn mux worker thread");
                }
            });
        })
    }

    /// Run `f` on the replay engine inline on the current thread,
    /// deterministically, under this world's fault plan.
    ///
    /// As [`World::mux`], driven inline (see "The inline driver" in the
    /// module docs): no thread is spawned, closures run on the caller's
    /// stack, the schedule is the same on every run, and `f` and `T` need
    /// not be `Send`/`Sync`.
    ///
    /// # Panics
    ///
    /// As [`World::mux`].
    pub fn seq<T, F>(&self, f: F) -> SpmdOutput<Option<T>>
    where
        F: Fn(&MuxComm) -> T,
    {
        self.replay(|world, results| worker_loop(world, &f, results))
    }

    /// What both drivers share: set up the world, let `drive` run
    /// [`worker_loop`] on it (on a pool, or inline), collect the results.
    /// `None` marks PEs that crash-stopped.
    fn replay<T>(
        &self,
        drive: impl FnOnce(&Arc<MuxWorld>, &Mutex<Vec<Option<T>>>),
    ) -> SpmdOutput<Option<T>> {
        let faults = self.compiled_faults();
        let p = self.num_pes;
        let start = Instant::now();
        let world = Arc::new(MuxWorld::new(p, faults));
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..p).map(|_| None).collect());
        drive(&world, &results);
        {
            let sched = lock(&world.sched);
            if let Some(msg) = &sched.failure {
                panic!("{msg}");
            }
            assert_eq!(world.finished(&sched), p, "run ended with unfinished tasks");
        }
        let elapsed = start.elapsed();
        SpmdOutput {
            results: results
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .into_iter()
                .enumerate()
                .map(|(rank, v)| {
                    if world.crashed[rank].load(Ordering::Acquire) {
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
}

/// Run `f` on `p` simulated PEs on the current thread, deterministically:
/// `World::new(p).seq(f)` with no PE able to crash.
///
/// # Panics
///
/// As [`World::mux`].
pub fn run_spmd_seq<T, F>(p: usize, f: F) -> SpmdOutput<T>
where
    F: Fn(&MuxComm) -> T,
{
    World::new(p).seq(f).fault_free()
}

/// The pool driver's configuration under its former name.  Only the
/// `benchmark` package still spells it; everything else writes [`World`].
pub type MuxConfig = World;

/// `config.mux(f).fault_free()` under its former name; only the `benchmark`
/// package still calls it.
pub fn run_spmd_mux_with<T, F>(config: MuxConfig, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&MuxComm) -> T + Send + Sync,
{
    config.mux(f).fault_free()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::faults::FaultPlan;
    use crate::runner::run_spmd;
    use std::rc::Rc;

    /// A couple of workers force real multiplexing in the small-p tests.
    fn mux_with_workers<T: Send>(
        p: usize,
        workers: usize,
        f: impl Fn(&MuxComm) -> T + Send + Sync,
    ) -> SpmdOutput<T> {
        World::new(p).with_workers(workers).mux(f).fault_free()
    }

    /// One body under both drivers of the engine: inline on this thread, and
    /// on a pool of two.
    fn on_both_drivers<T: Send>(
        p: usize,
        f: impl Fn(&MuxComm) -> T + Send + Sync,
    ) -> [(&'static str, SpmdOutput<T>); 2] {
        [
            ("inline", run_spmd_seq(p, &f)),
            ("pool of 2", mux_with_workers(p, 2, &f)),
        ]
    }

    /// The message a run dies with, under the inline driver and on a pool of
    /// `workers`.
    fn panic_messages(
        p: usize,
        workers: usize,
        f: impl Fn(&MuxComm) + Send + Sync + std::panic::RefUnwindSafe,
    ) -> [String; 2] {
        let message = |run: &(dyn Fn() + std::panic::RefUnwindSafe)| {
            let err = std::panic::catch_unwind(run).expect_err("the run must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        [
            message(&|| drop(run_spmd_seq(p, &f))),
            message(&|| drop(mux_with_workers(p, workers, &f))),
        ]
    }

    #[test]
    fn results_are_indexed_by_rank() {
        for (driver, out) in on_both_drivers(5, |comm| comm.rank() * 10) {
            assert_eq!(out.results, vec![0, 10, 20, 30, 40], "{driver}");
        }
    }

    #[test]
    fn point_to_point_works_in_both_directions() {
        // Rank 0 runs first, so 1 -> 0 exercises the park/wake path.
        for (driver, out) in on_both_drivers(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                let v: u64 = comm.recv(1, 2);
                v
            } else {
                let v: u64 = comm.recv(0, 1);
                comm.send(0, 2, v * 2);
                v
            }
        }) {
            assert_eq!(out.results, vec![20, 10], "{driver}");
        }
    }

    #[test]
    fn self_send_does_not_park() {
        for (driver, out) in on_both_drivers(3, |comm| {
            comm.send(comm.rank(), 9, comm.rank() as u64);
            let v: u64 = comm.recv(comm.rank(), 9);
            v
        }) {
            assert_eq!(out.results, vec![0, 1, 2], "{driver}");
        }
    }

    #[test]
    fn all_collectives_run_under_both_drivers() {
        for p in [1, 2, 3, 5, 8] {
            for (driver, out) in on_both_drivers(p, move |comm| {
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
            }) {
                let expected_sum: u64 = (0..p as u64).sum();
                for (rank, (sum, prefix, bcast, all, a2a, scat)) in out.results.iter().enumerate() {
                    assert_eq!(*sum, expected_sum, "{driver} p={p}");
                    assert_eq!(*prefix, rank as u64);
                    assert_eq!(*bcast, 41);
                    assert_eq!(*all, (0..p as u64).collect::<Vec<_>>());
                    assert_eq!(*a2a, vec![rank as u64; p]);
                    assert_eq!(*scat, rank as u64);
                }
            }
        }
    }

    #[test]
    fn statistics_match_the_threaded_backend() {
        fn program<C: Communicator>(comm: &C) -> u64 {
            comm.allreduce_vec_sum(vec![comm.rank() as u64; 16]);
            comm.barrier();
            comm.prefix_sum_inclusive(1)
        }
        for p in [2, 6, 13] {
            let threaded = run_spmd(p, program);
            let replayed = [
                ("inline", run_spmd_seq(p, program)),
                ("pool of 3", mux_with_workers(p, 3, program)),
            ];
            for (driver, out) in replayed {
                assert_eq!(out.results, threaded.results, "{driver} p={p}");
                assert_eq!(out.stats.total_words(), threaded.stats.total_words());
                assert_eq!(out.stats.total_messages(), threaded.stats.total_messages());
                assert_eq!(
                    out.stats.bottleneck_words(),
                    threaded.stats.bottleneck_words()
                );
            }
        }
    }

    #[test]
    fn many_pes_multiplex_over_two_workers() {
        // p far above the pool size: tasks must genuinely park and wake.
        let p = 64;
        let out = mux_with_workers(p, 2, move |comm| {
            let r = comm.rank() as u64;
            (comm.allreduce_sum(r), comm.prefix_sum_exclusive(r))
        });
        let total: u64 = (0..p as u64).sum();
        let mut running = 0;
        for (rank, (sum, prefix)) in out.results.iter().enumerate() {
            assert_eq!(*sum, total);
            assert_eq!(*prefix, running);
            running += rank as u64;
        }
    }

    #[test]
    fn ring_pass_completes_on_a_single_worker() {
        // A dependency chain around the whole ring, serialised onto one
        // worker: completion proves park/wake does real scheduling work.
        let p = 16;
        let out = mux_with_workers(p, 1, move |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank() as u64);
            let v: u64 = comm.recv(prev, 7);
            v
        });
        for (rank, v) in out.results.iter().enumerate() {
            assert_eq!(*v as usize, (rank + p - 1) % p);
        }
    }

    #[test]
    fn ready_queue_pops_least_progress_first_and_ties_in_arrival_order() {
        let mut ready = ReadyQueue::default();
        for (rank, progress) in [(0, 5), (1, 2), (2, 5), (3, 2), (4, 0), (5, 5)] {
            ready.push(TaskState {
                rank,
                progress,
                timeout_log: Vec::new(),
            });
        }
        let order: Vec<Rank> = std::iter::from_fn(|| ready.pop())
            .map(|task| task.rank)
            .collect();
        assert_eq!(order, vec![4, 1, 3, 0, 2, 5]);
        assert!(ready.is_empty());
    }

    /// Closure invocations per PE — the replay engine's work, deterministic
    /// where wall-clock is not — under the inline driver, which must equal a
    /// one-worker pool's exactly (same queue, same order).
    fn executions_per_pe(p: usize, f: impl Fn(&MuxComm) + Send + Sync) -> f64 {
        let executions = AtomicU64::new(0);
        let counted = |comm: &MuxComm| {
            executions.fetch_add(1, Ordering::Relaxed);
            f(comm);
        };
        run_spmd_seq(p, counted);
        let inline = executions.swap(0, Ordering::Relaxed);
        mux_with_workers(p, 1, counted);
        assert_eq!(inline, executions.into_inner(), "inline vs one-worker pool");
        inline as f64 / p as f64
    }

    #[test]
    fn log_round_collectives_replay_within_their_budget() {
        for p in [64, 256] {
            let gathers = executions_per_pe(p, |comm| {
                for _ in 0..3 {
                    comm.allgather(vec![comm.rank() as u64; 8]);
                    comm.allreduce_vec_sum(vec![1; 4]);
                }
            });
            assert!(gathers <= 7.5, "p={p}: {gathers} executions/PE");
            let barriers = executions_per_pe(p, |comm| {
                for _ in 0..4 {
                    comm.barrier();
                }
            });
            assert!(barriers <= 5.0, "p={p}: {barriers} executions/PE");
        }
    }

    #[test]
    fn tree_collectives_replay_exactly_as_under_fifo() {
        // Along a binomial tree the least-advanced task is also the oldest
        // one, so the scheduler must not move these programs at all.
        for (p, fifo) in [(64, 634.0 / 64.0), (256, 2554.0 / 256.0)] {
            let reduces = executions_per_pe(p, |comm| {
                for _ in 0..6 {
                    comm.allreduce_sum(comm.rank() as u64);
                }
            });
            assert_eq!(reduces, fifo, "p={p}");
        }
    }

    #[test]
    fn runs_are_deterministic_in_results_and_traffic() {
        let run = || {
            on_both_drivers(7, |comm| {
                let v = comm.rank() as u64 * 3 + 1;
                let s = comm.allreduce(v, ReduceOp::custom(|a, b| a ^ b));
                (s, comm.prefix_sum_exclusive(v))
            })
        };
        for ((driver, a), (_, b)) in run().into_iter().zip(run()) {
            assert_eq!(a.results, b.results, "{driver}");
            assert_eq!(a.stats.total_words(), b.stats.total_words());
            assert_eq!(a.stats.total_messages(), b.stats.total_messages());
        }
    }

    #[test]
    fn mid_closure_snapshot_deltas_survive_replay() {
        // Phase metering: the snapshot delta across one collective must
        // describe that collective alone, despite replays.  The threaded
        // backend never replays, so it is the reference.
        fn program<C: Communicator>(comm: &C) -> u64 {
            comm.barrier();
            let before = comm.stats_snapshot();
            comm.allreduce_sum(comm.rank() as u64);
            comm.stats_snapshot().since(&before).sent_words
        }
        let threaded = run_spmd(4, program);
        for (driver, out) in on_both_drivers(4, program) {
            assert_eq!(out.results, threaded.results, "{driver}");
        }
    }

    #[test]
    fn messages_are_metered_once_despite_replays() {
        for (driver, out) in on_both_drivers(2, |comm| {
            if comm.rank() == 0 {
                let _: u64 = comm.recv(1, 1); // forces at least two executions
                comm.send(1, 2, vec![1u64; 9]);
            } else {
                comm.send(0, 1, 5u64);
                let _: Vec<u64> = comm.recv(0, 2);
            }
        }) {
            // 1 word (scalar) + 10 words (vec), each counted exactly once.
            assert_eq!(out.stats.total_words(), 11, "{driver}");
            assert_eq!(out.stats.total_messages(), 2, "{driver}");
        }
    }

    #[test]
    fn deadlock_is_detected() {
        for msg in panic_messages(2, 2, |comm| {
            if comm.rank() == 0 {
                let _: u64 = comm.recv(1, 1);
            } else {
                let _: u64 = comm.recv(0, 1);
            }
        }) {
            assert!(msg.contains("deadlocked"), "got: {msg}");
        }
    }

    #[test]
    fn completion_of_the_last_sender_triggers_deadlock_diagnostics() {
        // The silent PE finishes without sending; the other is then parked
        // forever.  Rank order decides where the detector fires: a waiting
        // PE 0 parks first (caught at PE 1's completion), a waiting PE 1
        // parks last (caught at its own park).
        for waiter in [0, 1] {
            for msg in panic_messages(2, 1, move |comm| {
                if comm.rank() == waiter {
                    let _: u64 = comm.recv(1 - waiter, 1);
                }
            }) {
                assert!(msg.contains("deadlocked"), "got: {msg}");
                let line = format!("PE {waiter} waits for message #0 from PE {}", 1 - waiter);
                assert!(msg.contains(&line), "got: {msg}");
            }
        }
    }

    #[test]
    fn pe_panics_are_propagated_with_rank() {
        for msg in panic_messages(3, 2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        }) {
            assert!(msg.contains("PE 1 panicked: boom"), "got: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_is_rejected() {
        let _ = run_spmd_seq(0, |_comm| ());
    }

    #[test]
    fn world_construction_is_lazy() {
        // Two PEs out of 4096 talk; the run must not materialise state for
        // the silent pairs (this is a smoke test that big-p worlds are
        // cheap — the allocation-counting pin lives in tests/).
        let out = World::new(4096).mux(|comm| match comm.rank() {
            0 => {
                comm.send(1, 1, 42u64);
                0u64
            }
            1 => comm.recv(0, 1),
            _ => 0,
        });
        assert_eq!(out.results[1], Some(42));
        assert_eq!(out.stats.total_messages(), 1);
    }

    // What `run_spmd_seq` promises beyond the engine's shared contract.

    #[test]
    fn non_send_results_are_allowed() {
        // Rc<T> is neither Send nor Sync — impossible on a pool or the
        // threaded backend, fine inline.
        let out = run_spmd_seq(3, |comm| Rc::new(comm.rank()));
        assert_eq!(*out.results[2], 2);
    }

    #[test]
    fn inline_runs_every_execution_on_the_calling_thread() {
        // Nothing here is `!Send`, so this still compiles — and fails — if
        // the entry point is ever routed through a worker thread.
        let caller = thread::current().id();
        let executions = AtomicU64::new(0);
        let p = 8;
        run_spmd_seq(p, |comm| {
            executions.fetch_add(1, Ordering::Relaxed);
            assert_eq!(thread::current().id(), caller, "PE {}", comm.rank());
            comm.allreduce_sum(1u64)
        });
        assert!(
            executions.into_inner() > p as u64,
            "the program must replay"
        );
    }

    #[test]
    fn inline_schedule_is_fully_deterministic() {
        // The `(rank, completed?)` sequence of every closure execution,
        // recorded through a capture no pool could accept.  PE 0 parks on
        // its first blocking receive from PE 1; equality across runs holds
        // only if nothing races: one thread, one queue order.
        let trace = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let out = run_spmd_seq(2, |comm| {
                log.borrow_mut().push((comm.rank(), false));
                let got: Vec<u64> = if comm.rank() == 0 {
                    (0..8).map(|_| comm.recv(1, 1)).collect()
                } else {
                    (0..8u64).for_each(|i| comm.send(0, 1, i));
                    Vec::new()
                };
                log.borrow_mut().last_mut().expect("pushed above").1 = true;
                got
            });
            assert_eq!(out.results[0], (0..8).collect::<Vec<u64>>());
            Rc::try_unwrap(log).expect("run is over").into_inner()
        };
        let first = trace();
        // Rank order, then the parked PE 0 again once PE 1 has sent.
        assert_eq!(first, vec![(0, false), (1, true), (0, true)]);
        assert_eq!(first, trace());
    }

    #[test]
    fn fault_verdicts_are_identical_inline_and_on_a_pool() {
        // Rank 3 dies before its second send; rank 0's messages to rank 1
        // are held back for three of its sends.  Every PE sends one token
        // to every peer, then classifies each incoming token.
        let plan = || FaultPlan::new().crash_pe(3, 1).delay_pair(0, 1, 3);
        let program = |comm: &MuxComm| -> Vec<String> {
            let (p, me) = (comm.size(), comm.rank());
            for dst in (0..p).filter(|&dst| dst != me) {
                comm.send(dst, 11, me as u64);
            }
            (0..p)
                .filter(|&src| src != me)
                .map(|src| format!("{:?}", comm.recv_failable::<u64>(src, 11)))
                .collect()
        };
        let world = World::new(5).with_workers(3).with_faults(plan());
        let inline = world.seq(program);
        let pooled = world.mux(program);
        assert_eq!(inline.results, pooled.results);
        assert_eq!(inline.results[3], None);
        let verdicts = inline.results[2].as_ref().expect("PE 2 survives");
        assert_eq!(
            verdicts,
            &["Ok(0)", "Ok(1)", "Err(PeerDead { rank: 3 })", "Ok(4)"]
        );
    }
}
