//! Pins the sharded transport's lazy setup with a *counting allocator*.
//!
//! History: the original full mesh minted `p²` mpsc channels (≈ one heap
//! allocation each), so constructing a 1024-PE world performed over a
//! million allocations.  The sharded inbox brought that down to one queue
//! table per destination (`p + O(1)` allocations), but each table still
//! held `p` *eager* ~64-byte queue headers — `p²` bytes of headers paid at
//! construction.  Since the lazy-materialisation pass, a table slot is an
//! empty `OnceLock` of 16 bytes, and the pair's queue behind it is
//! allocated on the pair's **first send**, so construction performs
//! `p + O(1)` allocations totalling ~16 bytes per pair, and the remaining
//! per-pair cost is paid only for pairs that actually communicate.
//!
//! Counting real allocator traffic (instead of asserting on a struct
//! field) means a regression back to quadratic setup — in allocation
//! *count* or in per-pair header *bytes* — fails this test no matter how
//! it is implemented.
//!
//! The same allocator pins the other side of the wire: no `WordCodec`
//! decoder reserves more memory than the words left in its buffer can
//! carry, however its length prefixes are corrupted.
//!
//! The counting `#[global_allocator]` needs `unsafe`; the workspace denies
//! it by default, so this one test crate opts out explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use topk_selection::commsim::codec::{WordCodec, WordReader, MAX_DECODE_LEN};
use topk_selection::commsim::transport::Mailbox;
use topk_selection::commsim::CommResult;
use topk_selection::topk::frequent::dht::KeyCounts;

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
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
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
        let _ = LARGEST_REQUEST.try_with(|n| n.set(n.get().max(layout.size())));
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

    // The slot *table* is the one deliberately-eager p² cost (16 bytes per
    // ordered pair: each sender's queue sits at a fixed address it reaches
    // without locking the table — see the transport module docs and
    // ARCHITECTURE.md).  Before the lazy pass each pair held a full
    // ~64-byte queue header instead, so a bound of 16 bytes/pair both
    // admits the table (plus O(p) slack) and fails any regression back to
    // eager headers.
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
    // First message of the pair (0, 1): installs that queue (its box, its
    // first buffer, envelope internals) — allocation happens *now*, not at
    // construction.
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

/// The largest single allocation, in bytes, this thread requested while
/// running `f` (a reallocation requests its whole new size).
fn largest_request<R>(f: impl FnOnce() -> R) -> usize {
    LARGEST_REQUEST.with(|n| n.set(0));
    let out = f();
    let largest = LARGEST_REQUEST.with(Cell::get);
    drop(out);
    largest
}

/// What each decoder is fed: random buffers (full words, and small words
/// that pass length checks), every truncation of the valid encoding `wire`,
/// and `wire` with any one word replaced by a length its remaining words
/// cannot back.
fn hostile_buffers(wire: &[u64]) -> Vec<Vec<u64>> {
    let mut state = wire.len() as u64;
    let mut next = move || {
        // splitmix64: a fixed stream, so a failure replays.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut buffers: Vec<Vec<u64>> = (0..32u64)
        .map(|i| {
            let len = next() % 24;
            (0..len)
                .map(|_| next() % [8, 1 << 20, u64::MAX][i as usize % 3])
                .collect()
        })
        .collect();
    buffers.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
    let n = wire.len() as u64;
    for at in 0..wire.len() {
        for corrupt in [n + 1, 64 * n, 1 << 20, MAX_DECODE_LEN as u64, u64::MAX] {
            let mut mutant = wire.to_vec();
            mutant[at] = corrupt;
            buffers.push(mutant);
        }
    }
    buffers
}

/// On every hostile buffer around `wire`, `decode` requests no single
/// allocation above `bytes_per_word` per buffer word, or `floor` bytes.
fn reserves_at_most<R>(
    family: &str,
    wire: &[u64],
    bytes_per_word: usize,
    floor: usize,
    decode: impl Fn(&[u64]) -> CommResult<R>,
) {
    for words in hostile_buffers(wire) {
        let bound = floor.max(bytes_per_word * words.len());
        let largest = largest_request(|| decode(&words));
        assert!(
            largest <= bound,
            "{family}: decoding {words:?} requested {largest} bytes at once (bound {bound})"
        );
    }
}

/// [`reserves_at_most`] for `T`'s decoder around `value`'s encoding.
fn codec_reserves_at_most<T: WordCodec>(value: T, bytes_per_word: usize, floor: usize) {
    let mut wire = Vec::new();
    value.encode(&mut wire);
    let family = std::any::type_name::<T>();
    reserves_at_most(family, &wire, bytes_per_word, floor, |words| {
        T::decode(&mut WordReader::new(words))
    });
}

#[test]
fn decoders_reserve_no_more_than_their_remaining_words_can_carry() {
    use std::mem::size_of;
    let nums: Vec<u64> = (0..12).map(|i| i * 0x1234_5678_9ABC).collect();

    // Scalars and tuples of scalars never allocate.
    codec_reserves_at_most(7u64, 0, 0);
    codec_reserves_at_most(-7i32, 0, 0);
    codec_reserves_at_most(1.5f64, 0, 0);
    codec_reserves_at_most(true, 0, 0);
    codec_reserves_at_most('λ', 0, 0);
    codec_reserves_at_most(u128::MAX, 0, 0);
    codec_reserves_at_most((), 0, 0);
    codec_reserves_at_most(Some(7u64), 0, 0);
    codec_reserves_at_most((7u64, false), 0, 0);

    // A `String` is at most 8 bytes per remaining word.
    codec_reserves_at_most("a word-packed string".to_string(), 8, 0);

    // A `Vec<T>` reserves at most `(remaining + 1)·size_of::<T>()`, and
    // `remaining + 1` is the buffer length once the prefix is read; an
    // element's own reservations are bounded by its (smaller) remainder.
    codec_reserves_at_most(nums.clone(), size_of::<u64>(), 0);
    let nested: Vec<Vec<u64>> = nums.chunks(5).map(<[u64]>::to_vec).collect();
    codec_reserves_at_most(nested, size_of::<Vec<u64>>(), 0);
    let texts: Vec<String> = nums.iter().map(u64::to_string).collect();
    codec_reserves_at_most(texts, size_of::<String>(), 0);
    let pairs: Vec<(u64, u64)> = nums.iter().map(|&v| (v, v / 2)).collect();
    codec_reserves_at_most(pairs, size_of::<(u64, u64)>(), 0);
    let options: Vec<Option<u64>> = nums.iter().map(|&v| (v % 3 > 0).then_some(v)).collect();
    codec_reserves_at_most(options, size_of::<Option<u64>>(), 0);

    // Containers of a `Vec` add nothing per word.
    codec_reserves_at_most(Some(nums.clone()), size_of::<u64>(), 0);
    codec_reserves_at_most((nums.clone(), "tail".to_string(), Some(3u64)), 8, 0);
    codec_reserves_at_most((1u8, 2u16, 3u32, nums.clone()), size_of::<u64>(), 0);
    codec_reserves_at_most(std::cmp::Reverse((5u64, nums.clone())), size_of::<u64>(), 0);

    // `KeyCounts`: a run's length is bounded by the bits left before it is
    // reserved, and every run has a count of its own, so a run holds at most
    // 64 keys of 8 bytes per remaining word.  The floor is the direct-index
    // table of counts below 256, at most doubled by amortized growth.
    let per_word = 64 * size_of::<u64>();
    let table = 2 * 256 * size_of::<Vec<u64>>();
    let dense: KeyCounts = (0..60u64).map(|k| (k * 3, k % 6)).collect();
    let wide: KeyCounts = nums.iter().map(|&k| (k, u64::MAX)).collect();
    for counts in [dense, wide] {
        codec_reserves_at_most(counts, per_word, table);
    }

    // The recoverable façades' checkpointed states: a selection run's
    // thresholds are a `Vec<u64>`, pinned above as `nums`; a frequent run's
    // published lists are a `Vec<Vec<(u64, u64)>>`.
    let published: Vec<Vec<(u64, u64)>> = nums
        .chunks(4)
        .map(|c| c.iter().map(|&k| (k, k / 3)).collect())
        .collect();
    codec_reserves_at_most(published, size_of::<Vec<(u64, u64)>>(), 0);
}
