//! Point-to-point transport between simulated PEs.
//!
//! The transport is a **sharded inbox**: one shard per *destination* PE,
//! each holding a table of `p` per-source queue slots plus a parking cell
//! for the shard's blocked receiver.  A slot is a `OnceLock` holding the
//! pair's queue, a boxed `Mutex<VecDeque<Envelope>>`, installed by the
//! pair's **first send** (or by a receive that blocks on the pair).  So
//! constructing the transport for `p` PEs allocates `O(p)` shards, and only
//! pairs that communicate pay for a queue (pinned by the counting-allocator
//! test `tests/transport_alloc.rs`).  The slot table is the one eager
//! per-pair cost, 16 bytes per ordered pair: it gives every sender a fixed
//! address for its queue, reached without a lock on the table.  Worlds too
//! large for that table are the multiplexed backend's job
//! ([`crate::MuxComm`]).
//!
//! * **send** — the source mailbox pushes onto its pair's queue under the
//!   pair's mutex.  Only that sender and the destination's receiver ever
//!   take it, so senders to one destination share no lock.  The sender then
//!   loads the shard's `waiting_on` and unparks the receiver only if it is
//!   parked on this source: one atomic load in the common case.
//! * **recv** — the destination mailbox pops the pair's queue.  On empty it
//!   spins briefly (messages usually arrive within microseconds
//!   mid-collective), then stores its thread and then the source it waits
//!   on in the parking cell, pops again, and parks.  The pair's mutex orders
//!   that pop against the sender's push: either the pop finds the message,
//!   or the push came after it and the sender's load sees the registration
//!   and unparks.  A wake-up cannot be lost.  A stray unpark is a spurious
//!   wake-up, which the park loop absorbs.
//! * **disconnect** — dropping a mailbox stores its liveness flag `false`
//!   and wakes every parked receiver, so a blocking receive whose peer is
//!   gone fails fast with [`CommError::Disconnected`] after draining what
//!   is still queued.  A receive has no deadline: a message or a hang-up
//!   ends it, and detecting a slow or crashed peer is the replay engine's
//!   job (fault plans run there only).
//!
//! The transport meters nothing (the communicator counts words and
//! start-ups), so how it queues moves wall time only.  Against the
//! lock-free single-producer queues it replaced, the gated threaded
//! workloads (all at p = 2) ran no slower, p = 2 ping-pong got faster, and
//! a p = 256 hotspot where every PE floods one destination got slower
//! (EXPERIMENTS.md, "The threaded transport without `unsafe`").
//!
//! Per-source FIFO order is preserved (each ordered pair has its own
//! queue), which together with the SPMD structure of all algorithms in this
//! repository (every PE executes the same sequence of communication
//! operations) is what makes tag-checked in-order receives sufficient —
//! there is no need for out-of-order message matching.
//!
//! Payloads travel in one representation: the value's
//! [`WordCodec`](crate::codec::WordCodec) encoding in a `Vec<u64>` buffer,
//! tagged with the encoded type's `TypeId` (see [`Envelope`]).  The threaded
//! communicator draws that buffer from a private per-communicator pool.

use std::any::TypeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

use crate::codec::{decode_error, WordReader};
use crate::error::{CommError, CommResult};
use crate::message::CommData;
use crate::{Rank, Tag};

/// A small per-communicator free list of message buffers, private to the
/// threaded backend.
///
/// Buffers released by [`Envelope::open_pooled`] are cleared and parked here;
/// [`BufferPool::take`] hands them back to the next send, so that in steady
/// state a PE's sends reuse the capacity freed by its receives and the
/// message path allocates nothing at all.  The pool moves wall time only:
/// the metered words of a message are its encoding's length either way.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    free: RefCell<Vec<Vec<u64>>>,
}

impl BufferPool {
    /// Buffers parked beyond this limit are dropped instead of pooled.
    const MAX_BUFFERS: usize = 64;

    /// Take a cleared buffer: a parked one, or a fresh, unallocated vector.
    fn take(&self) -> Vec<u64> {
        self.free.borrow_mut().pop().unwrap_or_default()
    }

    /// Park a spent buffer for reuse (dropped when the pool is full or the
    /// buffer never allocated).
    fn put(&self, mut buf: Vec<u64>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut free = self.free.borrow_mut();
        if free.len() < Self::MAX_BUFFERS {
            free.push(buf);
        }
    }

    /// Number of buffers currently parked.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.free.borrow().len()
    }
}

/// A message travelling between two PEs: the payload's word encoding plus
/// the `TypeId` of the encoded type, so a mismatched receive is detected
/// instead of mis-decoded.
pub struct Envelope {
    /// Tag used for matching; collectives use an internal tag space.
    pub tag: Tag,
    /// Rank of the sender.
    pub from: Rank,
    /// Runtime type of the value that was encoded into `buf`.
    type_id: TypeId,
    /// The wire words; their number is the metered message size.
    buf: Vec<u64>,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("tag", &self.tag)
            .field("from", &self.from)
            .field("words", &self.words())
            .finish_non_exhaustive()
    }
}

impl Envelope {
    /// Wrap a payload without a buffer pool: tests, one-off sends and every
    /// send of the replay engine, whose store keeps each message for the
    /// rest of the region.  The buffer is shrunk to its words, so a kept
    /// message holds none of the spare capacity the encode's growth left.
    pub fn new<T: CommData>(tag: Tag, from: Rank, value: T) -> Self {
        let mut env = Self::encode(tag, from, value, None);
        env.buf.shrink_to_fit();
        env
    }

    /// Wrap a payload, drawing the buffer from `pool` when one is supplied.
    /// The value is encoded once, and the words written are the message.
    pub(crate) fn encode<T: CommData>(
        tag: Tag,
        from: Rank,
        value: T,
        pool: Option<&BufferPool>,
    ) -> Self {
        let mut buf = pool.map_or_else(Vec::new, BufferPool::take);
        value.encode(&mut buf);
        Envelope {
            tag,
            from,
            type_id: TypeId::of::<T>(),
            buf,
        }
    }

    /// Number of machine words of the payload — the wire length, which is
    /// what both sides meter.
    #[inline]
    pub fn words(&self) -> usize {
        self.buf.len()
    }

    /// `Err(TagMismatch)` unless the message carries the `expected` tag
    /// (`None` accepts any tag).
    pub fn check_tag(&self, expected: Option<Tag>) -> CommResult<()> {
        match expected {
            Some(expected) if expected != self.tag => Err(CommError::TagMismatch {
                expected,
                got: self.tag,
                from: self.from,
            }),
            _ => Ok(()),
        }
    }

    /// Decode the payload *by reference* (the envelope stays intact, so a
    /// replay backend can decode it again), failing if the stored type
    /// differs from `T` or the decode does not consume every word.
    pub fn decode<T: CommData>(&self) -> CommResult<T> {
        if self.type_id != TypeId::of::<T>() {
            return Err(CommError::TypeMismatch {
                tag: self.tag,
                expected: std::any::type_name::<T>(),
            });
        }
        let mut r = WordReader::new(&self.buf);
        let value = T::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(decode_error::<T>());
        }
        Ok(value)
    }

    /// Recover the payload, failing if the stored type differs.
    pub fn open<T: CommData>(self) -> CommResult<(Tag, usize, T)> {
        self.open_pooled::<T>(None)
    }

    /// Like [`Envelope::open`], but parks the spent buffer in `pool` so the
    /// receiver's next sends can reuse its capacity.
    pub(crate) fn open_pooled<T: CommData>(
        self,
        pool: Option<&BufferPool>,
    ) -> CommResult<(Tag, usize, T)> {
        let value = self.decode::<T>()?;
        let (tag, words) = (self.tag, self.words());
        if let Some(pool) = pool {
            pool.put(self.buf);
        }
        Ok((tag, words, value))
    }
}

/// One ordered pair's FIFO queue.  Its sender and the destination's receiver
/// are the only threads that ever lock it.
type PairQueue = Mutex<VecDeque<Envelope>>;

/// Lock `mutex`, ignoring poison: every update under the transport's locks
/// is one push, pop or store, which leaves the data valid at every step, so
/// a PE that panics must not take its peers' queues down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a shard's receiver parks: its thread, and the source it waits on.
///
/// A sender's fast path is one load of `waiting_on`.  The receiver stores
/// its thread before `waiting_on`, so a sender that sees the registration
/// finds the thread to unpark.  Wake-ups are not exactly-once: a stale
/// registration costs the receiver a spurious wake-up at worst.
struct ParkSlot {
    /// Rank the parked receiver waits on, or [`ParkSlot::NONE`].
    waiting_on: AtomicUsize,
    /// The receiver's thread, stored on every registration (a mailbox may
    /// move between threads).
    thread: Mutex<Option<Thread>>,
}

impl ParkSlot {
    /// `waiting_on` while no receiver is parked.
    const NONE: usize = usize::MAX;

    fn new() -> Self {
        ParkSlot {
            waiting_on: AtomicUsize::new(Self::NONE),
            thread: Mutex::new(None),
        }
    }

    /// Register the calling thread as parked on messages from `src`.
    fn register(&self, src: Rank) {
        *lock(&self.thread) = Some(thread::current());
        self.waiting_on.store(src, Ordering::SeqCst);
    }

    fn clear(&self) {
        self.waiting_on.store(Self::NONE, Ordering::SeqCst);
    }

    /// Unpark the receiver if it is parked on `src`, or on any source when
    /// `src` is `None` (a disconnecting peer wakes every receiver).
    fn wake(&self, src: Option<Rank>) {
        let waiting_on = self.waiting_on.load(Ordering::SeqCst);
        let parked = match src {
            Some(src) => waiting_on == src,
            None => waiting_on != Self::NONE,
        };
        if parked {
            if let Some(thread) = &*lock(&self.thread) {
                thread.unpark();
            }
        }
    }
}

/// One destination's inbox shard: every message addressed to that PE, in
/// lazily installed per-source FIFO queues, plus the parking cell its
/// receiver blocks in.
struct Shard {
    /// `queues[src]` holds the messages sent by PE `src`, in send order.  A
    /// pair that never communicates owns no heap beyond its slot.
    queues: Vec<OnceLock<Box<PairQueue>>>,
    parked: ParkSlot,
}

impl Shard {
    /// `src`'s queue, installed if neither end of the pair has touched it.
    /// A blocking receive installs it too, so the receiver's last pop
    /// before it parks and the sender's push always meet at the pair's
    /// mutex — the lost-wake-up argument of the module docs rests on that.
    fn queue(&self, src: Rank) -> &PairQueue {
        self.queues[src].get_or_init(Box::default)
    }
}

/// Transport state shared by all mailboxes of one SPMD world: `p` shards
/// (one per destination) plus the sender-liveness table used to turn a
/// hopeless blocking receive into a [`CommError::Disconnected`].
struct SharedMesh {
    shards: Vec<Shard>,
    /// `alive[r]` is `true` while PE `r`'s mailbox exists (so messages from
    /// it may still arrive).
    alive: Vec<AtomicBool>,
}

/// Spin iterations of a blocking receive before it parks the thread: a few
/// busy spins for the multi-core case where the sender is mid-push, then
/// scheduler yields that let a sender run on a loaded (or single-CPU)
/// machine.  Past the budget the receiver parks — collectives block for
/// whole message latencies, and a parked thread costs nothing.
const SPIN_BUSY: usize = 16;
const SPIN_YIELD: usize = 4;

/// The per-PE endpoint of the sharded transport.
///
/// Sending to `dst` appends to this PE's queue inside `dst`'s shard;
/// receiving from `src` pops this PE's shard's queue for `src` — FIFO order
/// per ordered pair.  A mailbox is the unique endpoint of its rank: it
/// cannot be cloned, and its shard's parking cell holds one receiver.
pub struct Mailbox {
    rank: Rank,
    mesh: Arc<SharedMesh>,
}

impl Mailbox {
    /// Build the sharded transport for `p` PEs and return one mailbox per
    /// PE.  Allocates `O(p)` shards — one slot table per destination; each
    /// pair's queue is deferred to that pair's first send — not the `O(p²)`
    /// channels of a full mesh (pinned by the allocation-counting
    /// integration test `transport_alloc.rs`).
    pub fn full_mesh(p: usize) -> Vec<Mailbox> {
        assert!(p > 0, "need at least one PE");
        let mesh = Arc::new(SharedMesh {
            shards: (0..p)
                .map(|_| Shard {
                    queues: (0..p).map(|_| OnceLock::new()).collect(),
                    parked: ParkSlot::new(),
                })
                .collect(),
            alive: (0..p).map(|_| AtomicBool::new(true)).collect(),
        });
        (0..p)
            .map(|rank| Mailbox {
                rank,
                mesh: Arc::clone(&mesh),
            })
            .collect()
    }

    /// Rank of the owning PE.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of PEs in the transport.
    pub fn size(&self) -> usize {
        self.mesh.shards.len()
    }

    fn check_rank(&self, rank: Rank) -> CommResult<()> {
        let size = self.size();
        if rank < size {
            Ok(())
        } else {
            Err(CommError::InvalidRank { rank, size })
        }
    }

    /// Send an envelope to `dst` (never blocks; queues are unbounded).
    pub fn send(&self, dst: Rank, env: Envelope) -> CommResult<()> {
        self.check_rank(dst)?;
        // A send sequenced after the destination's teardown (program order
        // or any happens-before edge) sees `alive == false` and fails.  A
        // send racing *concurrently* with the teardown may still win and
        // park the envelope in the dead shard — harmless (it is freed with
        // the mesh) and no worse than a message an mpsc receiver never
        // drained before hanging up.
        if !self.mesh.alive[dst].load(Ordering::SeqCst) {
            return Err(CommError::Disconnected { from: dst });
        }
        let shard = &self.mesh.shards[dst];
        lock(shard.queue(self.rank)).push_back(env);
        // After the push and its unlock: a receiver whose last pop missed
        // this message registered before that pop, so this load sees it.
        shard.parked.wake(Some(self.rank));
        Ok(())
    }

    /// Blocking receive of the next message from `src` (FIFO per pair):
    /// spin, then park until a message from `src` arrives or `src` hangs up.
    ///
    /// Returns [`CommError::Disconnected`] when `src`'s mailbox is gone and
    /// no message from it remains queued — the sharded equivalent of a
    /// hung-up mpsc channel.
    pub fn recv(&self, src: Rank) -> CommResult<Envelope> {
        self.check_rank(src)?;
        let shard = &self.mesh.shards[self.rank];
        let queue = shard.queue(src);
        let pop = || lock(queue).pop_front();
        for spin in 0..SPIN_BUSY + SPIN_YIELD {
            if let Some(env) = pop() {
                return Ok(env);
            }
            if spin < SPIN_BUSY {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        // Register, then pop again before every park: the pop pairs with
        // the sender's push through the pair's mutex, and the `alive` load
        // with a disconnecting peer's store through `SeqCst` (see `Drop`).
        shard.parked.register(src);
        let result = loop {
            if let Some(env) = pop() {
                break Ok(env);
            }
            if !self.mesh.alive[src].load(Ordering::SeqCst) {
                // `src` pushed everything before it stored `alive == false`.
                break pop().ok_or(CommError::Disconnected { from: src });
            }
            thread::park();
        };
        shard.parked.clear();
        result
    }

    /// Non-blocking receive of the next message from `src`, if one is queued.
    pub fn try_recv(&self, src: Rank) -> CommResult<Option<Envelope>> {
        self.check_rank(src)?;
        // Polling installs no queue, so every pop re-reads the slot.
        let slot = &self.mesh.shards[self.rank].queues[src];
        let pop = || slot.get().and_then(|queue| lock(queue).pop_front());
        if let Some(env) = pop() {
            return Ok(Some(env));
        }
        if !self.mesh.alive[src].load(Ordering::SeqCst) {
            return pop().map(Some).ok_or(CommError::Disconnected { from: src });
        }
        Ok(None)
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        // Mark this sender dead and wake every parked receiver, so a peer
        // waiting on a message that can no longer arrive fails fast with
        // `Disconnected` instead of hanging (mirrors mpsc hang-up).
        //
        // The store and the receivers' registrations are `SeqCst` Dekker
        // pairs: a receiver stores `waiting_on` before loading `alive`, we
        // store `alive` before loading `waiting_on` — so a receiver that saw
        // `alive == true` is visible here and gets unparked, while a
        // quiescent world tears down with one atomic load per shard.
        self.mesh.alive[self.rank].store(false, Ordering::SeqCst);
        for shard in &self.mesh.shards {
            shard.parked.wake(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    #[test]
    fn envelope_roundtrip() {
        let env = Envelope::new(7, 3, vec![1u64, 2, 3]);
        assert_eq!(env.words(), 4);
        assert_eq!(env.from, 3);
        let (tag, words, v): (Tag, usize, Vec<u64>) = env.open().unwrap();
        assert_eq!(tag, 7);
        assert_eq!(words, 4);
        assert_eq!(v, vec![1, 2, 3]);
    }

    /// An un-pooled envelope, the replay store's, keeps exactly its words:
    /// the encode's doubling leaves no capacity behind.
    #[test]
    fn an_unpooled_envelope_holds_exactly_its_words() {
        for len in [0usize, 1, 2, 3, 5, 100, 1000, 4097] {
            let env = Envelope::new(1, 0, vec![7u64; len]);
            assert_eq!(env.words(), len + 1);
            assert_eq!(env.buf.capacity(), env.words(), "len {len}");
        }
        let env = Envelope::new(1, 0, 42u64);
        assert_eq!(env.buf.capacity(), env.words());
    }

    #[test]
    fn typed_payloads_travel_as_words_not_boxes() {
        let env = Envelope::new(1, 0, vec![9u64, 8]);
        assert_eq!(env.buf, vec![2, 9, 8]);
    }

    #[test]
    fn envelope_type_mismatch_is_detected() {
        // Same wire width, different TypeId.
        let env = Envelope::new(1, 0, 42u64);
        let err = env.open::<u32>().unwrap_err();
        assert!(matches!(err, CommError::TypeMismatch { .. }));
        // Different wire shape altogether.
        let env = Envelope::new(1, 0, 42u64);
        let err = env.open::<String>().unwrap_err();
        assert!(matches!(err, CommError::TypeMismatch { .. }));
    }

    #[test]
    fn a_decode_that_leaves_words_over_is_rejected() {
        // A codec whose decode reads less than its encode wrote: same
        // TypeId, so only the fully-consumed check can catch it.
        struct Short;
        impl crate::codec::WordCodec for Short {
            fn encode(&self, out: &mut Vec<u64>) {
                out.extend([1, 2]);
            }
            fn decode(r: &mut WordReader<'_>) -> CommResult<Self> {
                r.next_word()
                    .map(|_| Short)
                    .ok_or_else(decode_error::<Self>)
            }
        }
        let env = Envelope::new(1, 0, Short);
        assert!(matches!(
            env.decode::<Short>(),
            Err(CommError::Decode { .. })
        ));
        assert!(matches!(env.open::<Short>(), Err(CommError::Decode { .. })));
    }

    #[test]
    fn pool_roundtrip_reuses_capacity() {
        let pool = BufferPool::default();
        let env = Envelope::encode(1, 0, vec![1u64, 2, 3], Some(&pool));
        let first = env.buf.as_ptr();
        // Open returns the buffer to the pool.
        let (_, _, v): (_, _, Vec<u64>) = env.open_pooled(Some(&pool)).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(pool.parked(), 1);
        // The next send encodes into that very buffer.
        let env = Envelope::encode(1, 0, vec![4u64], Some(&pool));
        assert_eq!(env.buf.as_ptr(), first);
        assert_eq!(pool.parked(), 0);
        let (_, _, v): (_, _, Vec<u64>) = env.open_pooled(Some(&pool)).unwrap();
        assert_eq!(v, vec![4]);
    }

    /// A bit stream that counts its writes: a send must write it once.
    struct Counted(u64);

    static WRITES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl crate::codec::BitCodec for Counted {
        fn write(&self, bits: &mut impl crate::codec::BitSink) {
            WRITES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            bits.put(self.0, 64);
        }
        fn read(bits: &mut crate::codec::BitReader) -> CommResult<Self> {
            bits.take(64).map(Counted)
        }
    }

    /// One `write` per send on the threaded backend, and per first send
    /// under the inline driver, whose replays keep the stored message.
    #[test]
    fn a_send_writes_its_stream_once() {
        use crate::{run_spmd, run_spmd_seq, Communicator};
        use std::sync::atomic::Ordering;
        fn swap<C: Communicator>(comm: &C) -> u64 {
            comm.send(1 - comm.rank(), 1, Counted(comm.rank() as u64));
            comm.recv::<Counted>(1 - comm.rank(), 1).0
        }
        let threads = run_spmd(2, swap);
        assert_eq!(threads.results, vec![1, 0]);
        assert_eq!(threads.stats.total_messages(), 2);
        assert_eq!(WRITES.swap(0, Ordering::Relaxed), 2, "threads");
        let inline = run_spmd_seq(2, swap);
        assert_eq!(inline.results, vec![1, 0]);
        assert_eq!(inline.stats.total_messages(), 2);
        assert_eq!(WRITES.swap(0, Ordering::Relaxed), 2, "inline driver");
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::default();
        for _ in 0..(BufferPool::MAX_BUFFERS + 10) {
            pool.put(Vec::with_capacity(4));
        }
        assert_eq!(pool.parked(), BufferPool::MAX_BUFFERS);
        // Zero-capacity buffers are not worth parking.
        let pool = BufferPool::default();
        pool.put(Vec::new());
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn mesh_send_recv_between_two_pes() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        b0.send(1, Envelope::new(0, 0, 99u64)).unwrap();
        let env = b1.recv(0).unwrap();
        let (_, _, v): (_, _, u64) = env.open().unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn self_send_is_allowed() {
        let boxes = Mailbox::full_mesh(1);
        let b = &boxes[0];
        b.send(0, Envelope::new(5, 0, 1u64)).unwrap();
        let env = b.recv(0).unwrap();
        assert_eq!(env.tag, 5);
    }

    #[test]
    fn fifo_order_is_preserved_per_pair() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        for i in 0..10u64 {
            b0.send(1, Envelope::new(i, 0, i)).unwrap();
        }
        for i in 0..10u64 {
            let env = b1.recv(0).unwrap();
            assert_eq!(env.tag, i);
        }
    }

    #[test]
    fn invalid_rank_is_reported() {
        let boxes = Mailbox::full_mesh(2);
        let err = boxes[0].send(5, Envelope::new(0, 0, 1u64)).unwrap_err();
        assert!(matches!(err, CommError::InvalidRank { rank: 5, size: 2 }));
        let err = boxes[0].recv(9).unwrap_err();
        assert!(matches!(err, CommError::InvalidRank { rank: 9, size: 2 }));
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let boxes = Mailbox::full_mesh(2);
        assert!(boxes[0].try_recv(1).unwrap().is_none());
    }

    /// Every PE concurrently sends `rounds` sequence-tagged messages to each
    /// of `dests(rank)` (itself included where listed); every receiver then
    /// drains the queue of each source that targets it and asserts the exact
    /// send order, sender and payload.
    fn stress_preserves_per_source_fifo_order(
        p: usize,
        rounds: u64,
        dests: fn(usize, usize) -> Vec<usize>,
    ) {
        let boxes = Mailbox::full_mesh(p);
        let handles: Vec<_> = boxes
            .into_iter()
            .map(|b| {
                thread::spawn(move || {
                    let targets = dests(b.rank(), p);
                    for i in 0..rounds {
                        for &dst in &targets {
                            let payload = (b.rank() as u64) << 32 | i;
                            b.send(dst, Envelope::new(i, b.rank(), payload)).unwrap();
                        }
                    }
                    for src in (0..p).filter(|&src| dests(src, p).contains(&b.rank())) {
                        for i in 0..rounds {
                            let env = b.recv(src).unwrap();
                            assert_eq!(env.from, src, "messages must come from queue owner");
                            assert_eq!(env.tag, i, "per-source FIFO order violated");
                            let (_, _, v): (_, _, u64) = env.open().unwrap();
                            assert_eq!(v, (src as u64) << 32 | i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn p16_stress_preserves_per_source_fifo_order() {
        stress_preserves_per_source_fifo_order(16, 100, |_, p| (0..p).collect());
    }

    #[test]
    fn p64_hotspot_stress_preserves_per_source_fifo_order() {
        // Every PE floods PE 0: all senders hit the same destination shard.
        stress_preserves_per_source_fifo_order(64, 256, |_, _| vec![0]);
    }

    #[test]
    fn p64_ring_stress_preserves_per_source_fifo_order() {
        // No sharing beyond each ordered (rank, successor) pair.
        stress_preserves_per_source_fifo_order(64, 256, |rank, p| vec![(rank + 1) % p]);
    }

    #[test]
    fn shard_count_is_one_per_destination() {
        for p in [1usize, 2, 16, 64] {
            let boxes = Mailbox::full_mesh(p);
            assert_eq!(boxes[0].size(), p, "shards must stay O(p)");
        }
    }

    #[test]
    fn fifo_survives_queue_growth() {
        // Push far more messages than the pair's queue first reserves
        // before draining, so it grows several times with messages in it.
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let n = 1000u64;
        for i in 0..n {
            b0.send(1, Envelope::new(i, 0, i)).unwrap();
        }
        for i in 0..n {
            let env = b1.recv(0).unwrap();
            assert_eq!(env.tag, i);
            let (_, _, v): (_, _, u64) = env.open().unwrap();
            assert_eq!(v, i);
        }
        assert!(b1.try_recv(0).unwrap().is_none());
    }

    #[test]
    fn park_and_wake_churn_delivers_every_message() {
        // The receiver blocks before each message exists, so every recv
        // exercises the spin→park→wake path rather than the fast path.
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let rounds = 200u64;
        let receiver = thread::spawn(move || {
            for i in 0..rounds {
                let env = b1.recv(0).unwrap();
                assert_eq!(env.tag, i);
            }
            b1
        });
        for i in 0..rounds {
            b0.send(1, Envelope::new(i, 0, i)).unwrap();
            // Let the receiver drain and (usually) park again.
            if i % 7 == 0 {
                thread::yield_now();
            }
        }
        receiver.join().unwrap();
    }

    #[test]
    fn blocked_recv_fails_fast_when_the_peer_hangs_up() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let t = thread::spawn(move || b1.recv(0));
        drop(b0);
        let err = t.join().unwrap().unwrap_err();
        assert!(matches!(err, CommError::Disconnected { from: 0 }));
    }

    #[test]
    fn queued_messages_survive_sender_hangup_then_disconnect() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        b0.send(1, Envelope::new(1, 0, 7u64)).unwrap();
        drop(b0);
        // The already-delivered message is still readable...
        assert!(b1.try_recv(0).unwrap().is_some());
        // ...and only then does the hang-up surface.
        assert!(matches!(
            b1.try_recv(0),
            Err(CommError::Disconnected { from: 0 })
        ));
        // Sending to a gone PE is also a disconnect, like a dropped mpsc
        // receiver.
        assert!(matches!(
            b1.send(0, Envelope::new(1, 1, 1u64)),
            Err(CommError::Disconnected { from: 0 })
        ));
    }

    #[test]
    fn cross_thread_messaging_works() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let t = thread::spawn(move || {
            let env = b1.recv(0).unwrap();
            let (_, _, v): (_, _, u64) = env.open().unwrap();
            v * 2
        });
        b0.send(1, Envelope::new(0, 0, 21u64)).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }

    /// Block until PE `rank`'s receiver has registered in its park cell as
    /// waiting on `src`, so the caller acts on a parked receiver — or until
    /// the receiver returned without parking, which its result then shows.
    fn wait_until_parked<T>(mesh: &SharedMesh, rank: Rank, src: Rank, receiver: &JoinHandle<T>) {
        while mesh.shards[rank].parked.waiting_on.load(Ordering::SeqCst) != src
            && !receiver.is_finished()
        {
            thread::yield_now();
        }
    }

    /// PE 2 parks on source 1 while source 0 floods it with 10 000
    /// messages, none of which may be returned in its place; source 1's one
    /// message then comes back as `Ok`, and the flood stays queued in order.
    #[test]
    fn recv_parked_on_one_source_ignores_another_sources_flood() {
        let mut boxes = Mailbox::full_mesh(3);
        let b2 = boxes.pop().unwrap();
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let flood = 10_000u64;
        let mesh = Arc::clone(&b2.mesh);
        let receiver = thread::spawn(move || {
            let got = b2.recv(1);
            (b2, got)
        });
        wait_until_parked(&mesh, 2, 1, &receiver);
        for i in 0..flood {
            b0.send(2, Envelope::new(i, 0, i)).unwrap();
        }
        b1.send(2, Envelope::new(7, 1, 7u64)).unwrap();
        let (b2, got) = receiver.join().unwrap();
        let env = got.unwrap();
        assert_eq!((env.from, env.tag), (1, 7));
        for i in 0..flood {
            assert_eq!(b2.try_recv(0).unwrap().unwrap().tag, i);
        }
        assert!(b2.try_recv(0).unwrap().is_none());
    }

    /// PE 0 sends three messages to a parked PE 1 and hangs up: PE 1 gets
    /// all three in order, then `Disconnected`.
    #[test]
    fn recv_reports_a_mid_wait_hang_up_after_the_queue_drains() {
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let mesh = Arc::clone(&b1.mesh);
        let receiver = thread::spawn(move || (0..4).map(|_| b1.recv(0)).collect::<Vec<_>>());
        wait_until_parked(&mesh, 1, 0, &receiver);
        for i in 0..3u64 {
            b0.send(1, Envelope::new(i, 0, i)).unwrap();
        }
        drop(b0);
        let got = receiver.join().unwrap();
        for (i, env) in got[..3].iter().enumerate() {
            assert_eq!(env.as_ref().unwrap().tag, i as Tag);
        }
        assert!(matches!(got[3], Err(CommError::Disconnected { from: 0 })));
    }

    #[test]
    fn recv_waits_out_a_silent_peer() {
        // A live peer that stays silent leaves `recv` parked until its
        // later message wakes it.
        let mut boxes = Mailbox::full_mesh(2);
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        let mesh = Arc::clone(&b1.mesh);
        let receiver = thread::spawn(move || b1.recv(0).map(|env| env.tag));
        wait_until_parked(&mesh, 1, 0, &receiver);
        b0.send(1, Envelope::new(3, 0, 3u64)).unwrap();
        assert_eq!(receiver.join().unwrap().unwrap(), 3);
    }
}
