//! Pins the sharded transport's lazy setup with a *counting allocator*.
//!
//! History: the original full mesh minted `p²` mpsc channels (≈ one heap
//! allocation each), so constructing a 1024-PE world performed over a
//! million allocations.  The sharded inbox brought that down to one queue
//! table per destination (`p + O(1)` allocations), but each table still
//! held `p` *eager* ~64-byte queue headers — `p²` bytes of headers paid at
//! construction.  Since the lazy-materialisation pass, a table slot is a
//! single pointer word and the queue behind it (header and segments alike)
//! is allocated by the pair's producer on the pair's **first send**, so
//! construction performs `p + O(1)` allocations totalling ~8 bytes per
//! pair, and the remaining per-pair cost is paid only for pairs that
//! actually communicate.
//!
//! Counting real allocator traffic (instead of asserting on a struct
//! field) means a regression back to quadratic setup — in allocation
//! *count* or in per-pair header *bytes* — fails this test no matter how
//! it is implemented.
//!
//! The counting `#[global_allocator]` needs `unsafe`; the workspace denies
//! it by default, so this one test crate opts out explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use topk_selection::commsim::transport::Mailbox;

/// Forwards to the system allocator, counting every `alloc` call and the
/// bytes it requests — **per thread**: the harness runs this file's tests
/// on parallel threads, and a process-global counter would book one test's
/// `full_mesh(1024)` into another's delta.  Construction allocates on the
/// calling thread only, so the calling thread's counters see all of it.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading them never
    // allocates or registers anything, so the allocator cannot re-enter.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: an allocator must not panic, whatever state the
        // thread's TLS is in.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: same layout, forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `(allocation count, bytes)` requested while constructing (not dropping)
/// a `p`-PE world.
fn construction_cost(p: usize) -> (usize, usize) {
    let count_before = allocations();
    let bytes_before = ALLOCATED_BYTES.with(Cell::get);
    let boxes = Mailbox::full_mesh(p);
    let count = allocations() - count_before;
    let bytes = ALLOCATED_BYTES.with(Cell::get) - bytes_before;
    drop(boxes);
    (count, bytes)
}

#[test]
fn transport_construction_allocates_linearly_not_quadratically() {
    // Warm up any lazy runtime allocations before measuring.
    let _ = construction_cost(2);

    let (a64, _) = construction_cost(64);
    let (a1024, _) = construction_cost(1024);

    // Expected: p pointer tables + the shard/alive/mailbox vectors + Arc,
    // i.e. p + O(1).  Generous absolute bound: 4p + 64, which the old p²
    // channel mesh (≥ p² allocations: 4096 at p = 64, over a million at
    // p = 1024) fails by orders of magnitude.
    assert!(a64 <= 4 * 64 + 64, "p=64 performed {a64} allocations");
    assert!(
        a1024 <= 4 * 1024 + 64,
        "p=1024 performed {a1024} allocations"
    );

    // And the growth itself is linear: 16× the PEs may not cost more than
    // ~16× the allocations (slack for the O(1) terms).
    assert!(
        a1024 <= 20 * a64.max(1),
        "allocation growth is super-linear: {a64} at p=64 vs {a1024} at p=1024"
    );
}

#[test]
fn transport_construction_pays_one_pointer_not_a_header_per_pair() {
    let _ = construction_cost(2);

    // The pointer *table* is the one deliberately-eager p² cost (8 bytes
    // per ordered pair, needed for lock-free slot addressing — see the
    // transport module docs and ARCHITECTURE.md).  Before the lazy pass
    // each pair held a full ~64-byte queue header instead, so a bound of
    // 16 bytes/pair both admits the table (plus O(p) slack) and fails any
    // regression back to eager headers.
    for p in [64usize, 1024] {
        let (_, bytes) = construction_cost(p);
        let budget = 16 * p * p + 512 * p;
        assert!(
            bytes <= budget,
            "p={p} construction requested {bytes} bytes (> {budget}): \
             per-pair state is being allocated eagerly again"
        );
    }
}

#[test]
fn queue_heap_is_deferred_to_the_first_send() {
    use topk_selection::commsim::transport::Envelope;

    let _ = construction_cost(2);
    let boxes = Mailbox::full_mesh(8);
    let before = allocations();
    // First message of the pair (0, 1): installs that queue (header +
    // first segment + envelope internals) — allocation happens *now*, not
    // at construction.
    boxes[0]
        .send(1, Envelope::new(0, 0, 7u64))
        .expect("send to live peer");
    let first = allocations() - before;
    assert!(first > 0, "first send of a pair must materialise its queue");
    // Steady state: the second message reuses the installed queue; it may
    // allocate envelope internals but not another queue's worth of state.
    let before = allocations();
    boxes[0]
        .send(1, Envelope::new(1, 0, 7u64))
        .expect("send to live peer");
    let second = allocations() - before;
    assert!(
        second < first,
        "second send ({second} allocations) should be cheaper than the \
         installing send ({first} allocations)"
    );
}
