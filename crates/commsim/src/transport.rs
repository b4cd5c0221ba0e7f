//! Point-to-point transport between simulated PEs.
//!
//! The transport is a **lock-free sharded inbox**: one shard per
//! *destination* PE, each holding a table of `p` per-source queue slots
//! plus a one-slot parking cell for the shard's blocked receiver.  A slot
//! is one lazily installed pointer (`LazyQueue`): the single-producer/
//! single-consumer segmented queue (`spsc::SpscQueue`) behind it is
//! heap-allocated by the pair's (unique) producer on the pair's **first
//! send**, so constructing the transport for `p` PEs allocates `O(p)`
//! shards and the per-pair cost — queue header and segments alike — is
//! paid only for pairs that actually communicate (pinned by the
//! counting-allocator test `transport_alloc.rs` and measured by the
//! `transport_setup` bench).  What remains eager is the pointer *table*
//! itself (`p` words per shard): lock-free slot addressing needs stable
//! addresses senders can reach without synchronising on the table, so the
//! table is the price of the no-lock send path — `ARCHITECTURE.md`
//! discusses the trade-off and why truly O(touched-pairs) worlds are the
//! multiplexed backend's job ([`crate::MuxComm`]).
//!
//! There is no mutex and no condvar anywhere on the message path:
//!
//! * **send** — the source mailbox appends to its private queue inside the
//!   destination's shard (plain slot write + one atomic publish increment)
//!   and wakes the destination's receiver only if one is registered as
//!   parked (a single atomic load in the common case).  Senders to the same
//!   destination never touch shared state, so a thousand PEs flooding one
//!   hotspot no longer convoy on that shard's lock.
//! * **recv** — the destination mailbox pops its shard's queue for the
//!   requested source; on empty it spins briefly (messages usually arrive
//!   within microseconds mid-collective), then registers itself in the
//!   shard's one-slot parking cell (`spsc::ParkSlot`) and parks via
//!   [`std::thread::park`].  Registration and the sender's publish
//!   increment form a Dekker pair (both `SeqCst`): either the sender sees
//!   the registration and unparks, or the receiver's post-registration
//!   re-check finds the message — a wakeup cannot be lost.
//! * **disconnect** — dropping a mailbox stores its liveness flag `false`
//!   and wakes every registered receiver, so a blocking receive whose peer
//!   is gone fails fast with [`CommError::Disconnected`] after draining
//!   anything still queued (exactly the former mpsc hang-up semantics).
//!
//! Per-source FIFO order is preserved (each ordered pair has its own
//! queue), which together with the SPMD structure of all algorithms in this
//! repository (every PE executes the same sequence of communication
//! operations) is what makes tag-checked in-order receives sufficient —
//! there is no need for out-of-order message matching.
//!
//! Payloads travel in one representation: the value's
//! [`WordCodec`](crate::codec::WordCodec) encoding in a pooled `Vec<u64>`
//! buffer, tagged with the encoded type's `TypeId` (see [`Envelope`]).  The
//! [`BufferPool`] is untouched by the lock-free rewrite: it is
//! per-communicator, not shared.
#![allow(unsafe_code)]

use std::any::TypeId;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use crate::codec::{decode_error, WordReader};
use crate::error::{CommError, CommResult};
use crate::message::CommData;
use crate::spsc::{ParkSlot, SpscQueue};
use crate::{Rank, Tag};

/// A small per-communicator free list of message buffers.
///
/// Buffers released by [`Envelope::open_pooled`] are cleared and parked here;
/// [`BufferPool::take`] hands them back to the next send, so that in steady
/// state a PE's sends reuse the capacity freed by its receives and the
/// message path allocates nothing at all.  Reuses are counted into the
/// `pooled_reuses` statistic (see [`crate::metrics::StatsSnapshot`]).
#[derive(Debug, Default)]
pub struct BufferPool {
    free: RefCell<Vec<Vec<u64>>>,
}

impl BufferPool {
    /// Buffers parked beyond this limit are dropped instead of pooled.
    const MAX_BUFFERS: usize = 64;

    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer; the boolean is `true` when it came from the
    /// free list (as opposed to starting from a fresh, unallocated vector).
    pub fn take(&self) -> (Vec<u64>, bool) {
        match self.free.borrow_mut().pop() {
            Some(buf) => (buf, true),
            None => (Vec::new(), false),
        }
    }

    /// Park a spent buffer for reuse (dropped when the pool is full or the
    /// buffer never allocated).
    pub fn put(&self, mut buf: Vec<u64>) {
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
    pub fn parked(&self) -> usize {
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
    /// Wrap a payload without a buffer pool (tests and one-off sends).
    pub fn new<T: CommData>(tag: Tag, from: Rank, value: T) -> Self {
        Self::encode(tag, from, value, None).0
    }

    /// Wrap a payload, drawing the buffer from `pool` when one is supplied.
    /// The boolean reports whether pooled capacity was reused.
    pub fn encode<T: CommData>(
        tag: Tag,
        from: Rank,
        value: T,
        pool: Option<&BufferPool>,
    ) -> (Self, bool) {
        let words = value.word_count();
        let (mut buf, popped) = match pool {
            Some(pool) => pool.take(),
            None => (Vec::new(), false),
        };
        // Only count a reuse when the pooled capacity actually covers this
        // message — otherwise reserve() allocates and the counter would
        // overstate the win on mixed scalar/vector traffic.
        let reused = popped && buf.capacity() >= words;
        buf.reserve(words);
        value.encode(&mut buf);
        debug_assert_eq!(
            buf.len(),
            words,
            "encode of {} must append exactly encoded_len() words",
            std::any::type_name::<T>()
        );
        let env = Envelope {
            tag,
            from,
            type_id: TypeId::of::<T>(),
            buf,
        };
        (env, reused)
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
    pub fn open_pooled<T: CommData>(
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

/// A lazily materialised per-pair queue slot: one pointer word until the
/// pair's first message, then the pair's [`SpscQueue`], heap-allocated and
/// installed by the pair's unique producer.
///
/// The slot itself is the only thing allocated eagerly (as part of the
/// shard's table); an ordered pair that never communicates costs exactly
/// these 8 bytes.  The pointer is written at most once (null → queue) and
/// freed only when the shard drops, so a reference derived from a non-null
/// load stays valid for the life of the mesh.
///
/// Ordering: install (`SeqCst` store) happens before the producer's first
/// publish increment, and every consumer attempt re-loads the pointer
/// (`SeqCst`), so the existing Dekker-pair argument between publish and
/// park-registration (see the module docs) extends unchanged — a consumer
/// that misses the install also misses the publish, re-checks after
/// registering, and cannot lose a wakeup.
struct LazyQueue {
    ptr: AtomicPtr<SpscQueue<Envelope>>,
}

impl LazyQueue {
    fn new() -> Self {
        LazyQueue {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Producer side: the pair's queue, installed on first use.
    ///
    /// # Safety
    ///
    /// Only the pair's unique producer may call this: the slot is written
    /// with a plain store (no CAS), which is race-free precisely because
    /// each `(src, dst)` slot has exactly one writer — PE `src`'s mailbox,
    /// which is unclonable and `!Sync`.
    unsafe fn get_or_install(&self) -> &SpscQueue<Envelope> {
        let p = self.ptr.load(Ordering::SeqCst);
        if !p.is_null() {
            // SAFETY: non-null means installed; never freed before drop.
            return unsafe { &*p };
        }
        let fresh = Box::into_raw(Box::new(SpscQueue::new()));
        self.ptr.store(fresh, Ordering::SeqCst);
        // SAFETY: just leaked from a live Box; freed only in Drop.
        unsafe { &*fresh }
    }

    /// Consumer side: the pair's queue, or `None` while the pair has never
    /// sent (an unmaterialised queue is indistinguishable from an empty
    /// one).  Re-loads the pointer so a concurrent install becomes visible.
    fn get(&self) -> Option<&SpscQueue<Envelope>> {
        let p = self.ptr.load(Ordering::SeqCst);
        if p.is_null() {
            None
        } else {
            // SAFETY: non-null means installed; never freed before drop.
            Some(unsafe { &*p })
        }
    }
}

impl Drop for LazyQueue {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: installed exactly once by the producer and never
            // freed elsewhere; `&mut self` proves no reference survives.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// One destination's inbox shard: every message addressed to that PE, held
/// in lazily materialised lock-free per-source FIFO queues, plus the
/// parking cell its (unique) receiver blocks in.
struct Shard {
    /// `queues[src]` holds the messages sent by PE `src`, in send order.
    /// PE `src`'s mailbox is the queue's unique producer and this shard's
    /// owner the unique consumer, so each queue runs the single-producer/
    /// single-consumer lock-free protocol of [`SpscQueue`].  A pair that
    /// never communicates owns no heap beyond its pointer slot.
    queues: Vec<LazyQueue>,
    /// Parking cell of the shard's receiver.  Senders (and disconnecting
    /// peers) wake it with one atomic load in the quiescent case; see
    /// [`ParkSlot`] for the exactly-once handoff.
    parked: ParkSlot,
}

impl Shard {
    /// One pop attempt from `src`'s queue (`None`: never materialised or
    /// currently empty).
    ///
    /// # Safety
    ///
    /// Caller must be the shard's unique consumer (the mailbox of the
    /// shard's destination rank).
    unsafe fn try_pop(&self, src: Rank) -> Option<Envelope> {
        let queue = self.queues[src].get()?;
        // SAFETY: unique consumer per the caller's contract.
        unsafe { queue.pop() }
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
/// busy spins for the multi-core case where the sender is mid-publish,
/// then scheduler yields that let a sender run on a loaded (or single-CPU)
/// machine.  Past the budget the receiver parks — collectives block for
/// whole message latencies, and a parked thread costs nothing.
const SPIN_BUSY: usize = 16;
const SPIN_YIELD: usize = 4;

/// The per-PE endpoint of the sharded transport.
///
/// Sending to `dst` appends to this PE's queue inside `dst`'s shard;
/// receiving from `src` pops this PE's shard's queue for `src` — FIFO order
/// per ordered pair, exactly like the former channel mesh.
///
/// A mailbox is the *unique* endpoint of its rank: it cannot be cloned, and
/// it is deliberately `!Sync` (calls are serialized by ownership even when
/// the mailbox moves between threads).  That uniqueness is what upholds the
/// single-producer/single-consumer contract of the underlying lock-free
/// queues — every `unsafe` block below discharges its obligation by
/// pointing at it.
pub struct Mailbox {
    rank: Rank,
    mesh: Arc<SharedMesh>,
    /// Opts out of `Sync`: two threads sharing `&Mailbox` could otherwise
    /// race the producer/consumer cursors of the lock-free queues.
    _not_sync: PhantomData<Cell<()>>,
}

impl Mailbox {
    /// Build the sharded transport for `p` PEs and return one mailbox per
    /// PE.  Allocates `O(p)` shards — one pointer table per destination;
    /// each pair's lock-free queue (header and segments alike) is deferred
    /// to that pair's first send — not the `O(p²)` channels of a full mesh
    /// (pinned by the allocation-counting integration test
    /// `transport_alloc.rs`).
    pub fn full_mesh(p: usize) -> Vec<Mailbox> {
        assert!(p > 0, "need at least one PE");
        let mesh = Arc::new(SharedMesh {
            shards: (0..p)
                .map(|_| Shard {
                    queues: (0..p).map(|_| LazyQueue::new()).collect(),
                    parked: ParkSlot::new(),
                })
                .collect(),
            alive: (0..p).map(|_| AtomicBool::new(true)).collect(),
        });
        (0..p)
            .map(|rank| Mailbox {
                rank,
                mesh: Arc::clone(&mesh),
                _not_sync: PhantomData,
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

    /// Send an envelope to `dst` (never blocks; queues are unbounded and
    /// the sender takes no lock).
    pub fn send(&self, dst: Rank, env: Envelope) -> CommResult<()> {
        let size = self.size();
        let shard = self
            .mesh
            .shards
            .get(dst)
            .ok_or(CommError::InvalidRank { rank: dst, size })?;
        // A send sequenced after the destination's teardown (program order
        // or any happens-before edge) sees `alive == false` and fails.  A
        // send racing *concurrently* with the teardown may still win and
        // park the envelope in the dead shard — harmless (it is freed with
        // the mesh) and no worse than a message an mpsc receiver never
        // drained before hanging up.
        if !self.mesh.alive[dst].load(Ordering::SeqCst) {
            return Err(CommError::Disconnected { from: dst });
        }
        // SAFETY: this mailbox is the unique endpoint of rank `self.rank`
        // (unclonable, `!Sync`), so it is the unique producer of the
        // `(self.rank, dst)` queue — which covers both the lazy install
        // (single writer of the slot) and the push.
        unsafe { shard.queues[self.rank].get_or_install().push(env) };
        // Publish-then-check: the queue's publish increment and the
        // receiver's park registration are both `SeqCst`, so either this
        // load sees a registration for our rank (and `wake` unparks
        // exactly one receiver), or the receiver's post-registration
        // re-pop sees our message.  A receiver blocked on a *different*
        // source is deliberately left asleep.  The common send-before-recv
        // case is one atomic load.
        shard.parked.wake(self.rank);
        Ok(())
    }

    /// Blocking receive of the next message from `src` (FIFO per pair).
    ///
    /// Returns [`CommError::Disconnected`] when `src`'s mailbox is gone and
    /// no message from it remains queued — the sharded equivalent of a
    /// hung-up mpsc channel.
    pub fn recv(&self, src: Rank) -> CommResult<Envelope> {
        let size = self.size();
        if src >= size {
            return Err(CommError::InvalidRank { rank: src, size });
        }
        let shard = &self.mesh.shards[self.rank];
        // SAFETY (here and below): this mailbox is the unique endpoint of
        // its rank, hence the unique consumer of every queue in its shard.
        // Each attempt re-loads the pair's lazy slot, so a queue installed
        // by the sender mid-wait becomes visible.
        if let Some(env) = unsafe { shard.try_pop(src) } {
            return Ok(env);
        }
        // Spin-then-park.  Spin phase: cheap busy spins, then yields.
        for spin in 0..(SPIN_BUSY + SPIN_YIELD) {
            if spin < SPIN_BUSY {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if let Some(env) = unsafe { shard.try_pop(src) } {
                return Ok(env);
            }
            if !self.mesh.alive[src].load(Ordering::SeqCst) {
                return self.drain_disconnected(shard, src);
            }
        }
        // Park phase: register, re-check (the Dekker pair with senders and
        // with a disconnecting peer), park; repeat on spurious or
        // wrong-source wakeups.  `register` replaces any handle a previous
        // iteration left behind.
        loop {
            shard.parked.register(src);
            if let Some(env) = unsafe { shard.try_pop(src) } {
                shard.parked.clear();
                return Ok(env);
            }
            if !self.mesh.alive[src].load(Ordering::SeqCst) {
                let result = self.drain_disconnected(shard, src);
                shard.parked.clear();
                return result;
            }
            std::thread::park();
        }
    }

    /// Blocking receive with a deadline: like [`Mailbox::recv`], but gives up
    /// with [`CommError::Timeout`] once `timeout` has elapsed without a
    /// message from `src` arriving.
    ///
    /// This is the threaded backend's failure-detection window (see
    /// [`crate::Communicator::recv_failable`]): a peer that crash-stopped
    /// tears its mailbox down during unwinding, which surfaces here as
    /// [`CommError::Disconnected`]; a peer that is merely slow surfaces as
    /// [`CommError::Timeout`], which the caller may retry.
    pub fn recv_deadline(&self, src: Rank, timeout: std::time::Duration) -> CommResult<Envelope> {
        let size = self.size();
        if src >= size {
            return Err(CommError::InvalidRank { rank: src, size });
        }
        let deadline = std::time::Instant::now() + timeout;
        let shard = &self.mesh.shards[self.rank];
        // SAFETY (here and below): unique consumer, as in `recv`.
        if let Some(env) = unsafe { shard.try_pop(src) } {
            return Ok(env);
        }
        for spin in 0..(SPIN_BUSY + SPIN_YIELD) {
            if spin < SPIN_BUSY {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            if let Some(env) = unsafe { shard.try_pop(src) } {
                return Ok(env);
            }
            if !self.mesh.alive[src].load(Ordering::SeqCst) {
                return self.drain_disconnected(shard, src);
            }
        }
        // Park phase with a clock: identical Dekker pairing to `recv`, plus
        // a deadline check after every wakeup (park_timeout bounds the wait
        // so an expired deadline is noticed even without a wakeup).
        loop {
            shard.parked.register(src);
            if let Some(env) = unsafe { shard.try_pop(src) } {
                shard.parked.clear();
                return Ok(env);
            }
            if !self.mesh.alive[src].load(Ordering::SeqCst) {
                let result = self.drain_disconnected(shard, src);
                shard.parked.clear();
                return result;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                shard.parked.clear();
                // One last pop: a sender may have published between the
                // re-check above and the registration clear.
                return match unsafe { shard.try_pop(src) } {
                    Some(env) => Ok(env),
                    None => Err(CommError::Timeout { from: src }),
                };
            }
            std::thread::park_timeout(deadline - now);
        }
    }

    /// Final pop after observing `src` dead: the liveness store is the last
    /// thing a dropping mailbox does after its sends, so one more pop after
    /// seeing `alive == false` is guaranteed to surface anything still
    /// queued — only then is the hang-up reported.
    fn drain_disconnected(&self, shard: &Shard, src: Rank) -> CommResult<Envelope> {
        // SAFETY: unique consumer, as in `recv`.
        match unsafe { shard.try_pop(src) } {
            Some(env) => Ok(env),
            None => Err(CommError::Disconnected { from: src }),
        }
    }

    /// Non-blocking receive of the next message from `src`, if one is queued.
    pub fn try_recv(&self, src: Rank) -> CommResult<Option<Envelope>> {
        let size = self.size();
        if src >= size {
            return Err(CommError::InvalidRank { rank: src, size });
        }
        let shard = &self.mesh.shards[self.rank];
        // SAFETY: unique consumer, as in `recv`.
        if let Some(env) = unsafe { shard.try_pop(src) } {
            return Ok(Some(env));
        }
        if !self.mesh.alive[src].load(Ordering::SeqCst) {
            return self.drain_disconnected(shard, src).map(Some);
        }
        Ok(None)
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        // Mark this sender dead and wake every registered receiver so a
        // peer waiting on a message that can no longer arrive fails fast
        // with `Disconnected` instead of hanging (mirrors mpsc hang-up).
        //
        // The store and the receivers' registrations are `SeqCst` Dekker
        // pairs: a receiver registers before loading `alive`, we store
        // `alive` before loading the park slots — so a receiver that saw
        // `alive == true` is visible here and gets unparked, while a
        // quiescent world tears down with one atomic load per shard.
        self.mesh.alive[self.rank].store(false, Ordering::SeqCst);
        for shard in &self.mesh.shards {
            shard.parked.wake(ParkSlot::ANY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

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
            fn encoded_len(&self) -> usize {
                2
            }
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
        let pool = BufferPool::new();
        // First send: nothing pooled yet.
        let (env, reused) = Envelope::encode(1, 0, vec![1u64, 2, 3], Some(&pool));
        assert!(!reused);
        // Open returns the buffer to the pool.
        let (_, _, v): (_, _, Vec<u64>) = env.open_pooled(Some(&pool)).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(pool.parked(), 1);
        // Second send reuses the parked capacity.
        let (env, reused) = Envelope::encode(1, 0, vec![4u64], Some(&pool));
        assert!(reused);
        assert_eq!(pool.parked(), 0);
        let (_, _, v): (_, _, Vec<u64>) = env.open_pooled(Some(&pool)).unwrap();
        assert_eq!(v, vec![4]);
    }

    #[test]
    fn undersized_pooled_buffers_do_not_count_as_reuse() {
        let pool = BufferPool::new();
        // A scalar send parks a tiny buffer...
        let (env, _) = Envelope::encode(1, 0, 7u64, Some(&pool));
        let _: (_, _, u64) = env.open_pooled(Some(&pool)).unwrap();
        assert_eq!(pool.parked(), 1);
        // ...which cannot cover a large vector: no reuse is reported.
        let (_, reused) = Envelope::encode(1, 0, vec![0u64; 256], Some(&pool));
        assert!(!reused);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(BufferPool::MAX_BUFFERS + 10) {
            pool.put(Vec::with_capacity(4));
        }
        assert_eq!(pool.parked(), BufferPool::MAX_BUFFERS);
        // Zero-capacity buffers are not worth parking.
        let pool = BufferPool::new();
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
    fn fifo_survives_segment_boundaries() {
        // Push far more messages than one queue segment holds before
        // draining, so the chain allocation/linking/freeing paths of the
        // lock-free queue all run.
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
}
