//! Property-based tests (proptest) for the core invariants:
//!
//! * distributed selection always returns the element of exactly the
//!   requested rank, for arbitrary per-PE inputs (including empty PEs,
//!   duplicates and adversarial skew);
//! * the flexible-k selection always lands inside its band;
//! * the treap's `smallest` and `split_at_rank` behave exactly like a sorted
//!   vector's prefix and cut;
//! * redistribution never loses or invents elements and always balances;
//! * the top-k merge of DHT shares is the sequential top-k of their union;
//! * the bulk queue drains any insert schedule in global order;
//! * the word-count metering is additive;
//! * the word codec round-trips every implementing type, with the wire
//!   length equal to the metered word count (an aggregate grouped by count
//!   never costs more than its pairs, a packed count vector costs its
//!   codes' bits, each count coded against the one before it, and a sorted
//!   block of tagged `u64` selection keys is one bit stream);
//! * `u64`'s branch-free pair comparison is the tuple order;
//! * every decoder is total: random words and mutated encodings decode to a
//!   value or to `CommError::Decode`, never to a panic;
//! * the SPMD collective suite gives identical results and identical metered
//!   traffic on **all three** runners (threaded `Comm`; the replay engine's
//!   `MuxComm` driven inline by `run_spmd_seq` and by a pool with fewer
//!   workers than PEs, so cooperative park/wake multiplexing is actually
//!   exercised).  The threaded run and the analytic oracles are the
//!   references; the two replay drivers share one engine and are never each
//!   other's.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use topk_selection::commsim::codec::{BitWriter, PackedCounts, MAX_RICE};
use topk_selection::commsim::{CommData, CommError, CommResult, WordReader};
use topk_selection::prelude::*;
use topk_selection::seqkit::Treap;
use topk_selection::topk::branch_bound::BnbNode;
use topk_selection::topk::frequent::dht::KeyCounts;
use topk_selection::topk::frequent::select_top_counts;
use topk_selection::topk::util::{SelectKey, SortedBlock};

/// Round-trip a value through its wire encoding, checking the two codec
/// invariants: equality after decode, and full consumption of the encoding.
fn codec_roundtrip<T>(value: T) -> Result<(), TestCaseError>
where
    T: WordCodec + PartialEq + std::fmt::Debug,
{
    let mut wire = Vec::new();
    value.encode(&mut wire);
    let mut reader = WordReader::new(&wire);
    let decoded = T::decode(&mut reader);
    match decoded {
        Ok(decoded) => {
            prop_assert_eq!(&decoded, &value);
        }
        Err(e) => prop_assert!(false, "decode of {:?} failed: {e}", value),
    }
    prop_assert_eq!(reader.remaining(), 0, "decode must consume the encoding");
    Ok(())
}

/// What a decoder must survive besides valid encodings: a buffer of random
/// words, and the draws that mutate a valid encoding.
#[derive(Debug)]
struct Garbage {
    noise: Vec<u64>,
    extra: u64,
    at: usize,
}

fn garbage() -> impl Strategy<Value = Garbage> {
    vec(0u64..u64::MAX, 2..18).prop_map(|words| Garbage {
        extra: words[0],
        at: words[1] as usize,
        noise: words[2..].to_vec(),
    })
}

/// `decode` is total on `garbage`'s words and on mutants of `wire`, a valid
/// encoding: it returns a value or [`CommError::Decode`] for the random
/// buffer, the same buffer cut to small words (length prefixes, tags and
/// counts that pass the first checks), every truncation of `wire`, `wire`
/// extended by a word, and `wire` with one bit flipped or one word replaced.
/// A panic fails the case, reported with the same inputs.
fn decoder_is_total<R>(
    wire: &[u64],
    garbage: &Garbage,
    decode: impl Fn(&[u64]) -> CommResult<R>,
) -> Result<(), TestCaseError> {
    let small: Vec<u64> = garbage.noise.iter().map(|w| w % 8).collect();
    let mut inputs = vec![garbage.noise.clone(), small];
    inputs.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
    inputs.push([wire, &[garbage.extra]].concat());
    if !wire.is_empty() {
        let at = garbage.at % wire.len();
        let mut mutant = wire.to_vec();
        mutant[at] ^= 1 << (garbage.extra % 64);
        inputs.push(mutant.clone());
        mutant[at] = garbage.extra;
        inputs.push(mutant);
    }
    for words in &inputs {
        if let Err(e) = decode(words) {
            prop_assert!(
                matches!(e, CommError::Decode { .. }),
                "{:?} gave {}",
                words,
                e
            );
        }
    }
    Ok(())
}

/// [`decoder_is_total`] for `T`'s decoder around `value`'s encoding.
fn codec_is_total<T: WordCodec>(value: &T, garbage: &Garbage) -> Result<(), TestCaseError> {
    let mut wire = Vec::new();
    value.encode(&mut wire);
    decoder_is_total(&wire, garbage, |words| {
        T::decode(&mut WordReader::new(words))
    })
}

/// The collective program exercised on both backends: every paper collective
/// over per-PE inputs, generic over the [`Communicator`] backend.
type CollectiveOutputs = (
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    Option<Vec<u64>>,
    Vec<u64>,
    Vec<u64>,
    u64,
    Vec<u64>,
);

fn collective_program<C: Communicator>(comm: &C, values: &[u64], root: usize) -> CollectiveOutputs {
    let v = values[comm.rank()];
    let root_value = (comm.rank() == root).then_some(v);
    let scatter_values = (comm.rank() == root).then(|| values.to_vec());
    comm.barrier();
    (
        comm.allreduce_sum(v),
        comm.allreduce_min(v),
        comm.allreduce_max(v),
        comm.prefix_sum_exclusive(v),
        comm.prefix_sum_inclusive(v),
        comm.broadcast(root, root_value),
        comm.gather(root, v),
        comm.allgather(v),
        comm.alltoall((0..comm.size() as u64).map(|d| v * 1000 + d).collect()),
        comm.scatter(root, scatter_values),
        comm.alltoall_indirect((0..comm.size() as u64).map(|d| v + d).collect()),
    )
}

/// Strategy: between 1 and 5 PEs, each with 0..200 values in 0..1000.
fn distributed_input() -> impl Strategy<Value = Vec<Vec<u64>>> {
    vec(vec(0u64..1000, 0..200), 1..5)
}

/// Strategy: locally sorted variant of [`distributed_input`].
fn sorted_distributed_input() -> impl Strategy<Value = Vec<Vec<u64>>> {
    distributed_input().prop_map(|mut parts| {
        for part in &mut parts {
            part.sort_unstable();
        }
        parts
    })
}

fn total_len(parts: &[Vec<u64>]) -> usize {
    parts.iter().map(Vec::len).sum()
}

fn sorted_union(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

/// Distinct tagged pairs for a [`SortedBlock`]: each value `repeats` times
/// (cycled), each copy on the next of `ranks`' PEs at the next multiple of
/// `stride` as its local index, so equal values form runs across ranks.
fn tagged_pairs(values: &[u64], repeats: &[usize], ranks: &[u64], stride: u64) -> Vec<(u64, u64)> {
    let copies = values
        .iter()
        .zip(repeats.iter().cycle())
        .flat_map(|(&value, &times)| std::iter::repeat_n(value, times));
    copies
        .enumerate()
        .map(|(i, value)| (value, ranks[i % ranks.len()] << 40 | (i as u64 * stride)))
        .collect()
}

/// A word at an extreme: 0, `u64::MAX` or the word below it, one of the
/// four words around `center`, or any word.
fn extreme_word(center: u64) -> impl Strategy<Value = u64> {
    (0..=u64::MAX).prop_map(move |word| match word % 5 {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => center - 2 + (word >> 3) % 4,
        _ => word,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unsorted_selection_threshold_is_the_kth_smallest(
        parts in distributed_input(),
        k_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = total_len(&parts);
        prop_assume!(n > 0);
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        let reference = sorted_union(&parts);
        let p = parts.len();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], k, seed)
        });
        prop_assert!(out.results.iter().all(|r| r.threshold == reference[k - 1]));
        let selected: usize = out.results.iter().map(|r| r.local_selected.len()).sum();
        prop_assert_eq!(selected, k);
    }

    /// Keys each on one PE (as the DHT leaves them), counts from a few values
    /// so that distinct keys tie, PEs left empty, and `k` below, at and above
    /// the number of keys `d`, up to PEC's uncapped `usize::MAX`.
    #[test]
    fn top_counts_merge_is_the_sequential_top_k_of_the_union(
        draws in vec(0u64..u64::MAX, 0..60),
        p_index in 0usize..6,
        crowded in 0usize..2,
    ) {
        let p = [1usize, 2, 3, 5, 7, 8][p_index];
        // A draw is a 20-bit key, a count in 1..=5 and an owner; a key's first
        // draw decides its count and owner.  A crowded input leaves the upper
        // half of the PEs empty.
        let owners = if crowded == 1 { p.div_ceil(2) } else { p };
        let mut shares = vec![HashMap::new(); p];
        let mut union = HashMap::new();
        for &draw in &draws {
            let (key, count) = (draw >> 44, 1 + draw % 5);
            if let Entry::Vacant(slot) = union.entry(key) {
                slot.insert(count);
                shares[(draw >> 8) as usize % owners].insert(key, count);
            }
        }
        let mut oracle: Vec<(u64, u64)> = union.into_iter().collect();
        oracle.sort_unstable_by_key(|&(key, count)| Reverse((count, key)));
        let d = oracle.len();
        let ks = [1, 7, d.saturating_sub(1), d, d + 5, usize::MAX];
        let out = run_spmd_seq(p, |comm| {
            ks.map(|k| select_top_counts(comm, &shares[comm.rank()], k))
        });
        for (rank, tops) in out.results.iter().enumerate() {
            for (k, top) in ks.iter().zip(tops) {
                prop_assert_eq!(top, &oracle[..d.min(*k)], "p={} k={} rank {}", p, k, rank);
            }
        }
    }

    #[test]
    fn multisequence_selection_matches_the_union_oracle(
        parts in sorted_distributed_input(),
        k_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = total_len(&parts);
        prop_assume!(n > 0);
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        let reference = sorted_union(&parts);
        let p = parts.len();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            multisequence_select(comm, &parts_ref[comm.rank()], k, seed)
        });
        prop_assert!(out.results.iter().all(|r| r.threshold == reference[k - 1]));
        let counted: usize = out.results.iter().map(|r| r.local_count).sum();
        prop_assert_eq!(counted, k);
    }

    #[test]
    fn flexible_selection_stays_inside_its_band(
        parts in sorted_distributed_input(),
        lo_frac in 0.05f64..0.8,
        // The paper's "flexible k" regime: k̄ − k̲ = Ω(k̲).
        width_frac in 0.5f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = total_len(&parts) as u64;
        prop_assume!(n >= 4);
        let k_lo = ((lo_frac * n as f64) as u64).clamp(1, n);
        let k_hi = (k_lo + (width_frac * k_lo as f64).ceil() as u64).min(n);
        prop_assume!(k_hi >= k_lo);
        let p = parts.len();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            approx_multisequence_select(comm, &parts_ref[comm.rank()], k_lo, k_hi, seed)
        });
        let selected = out.results[0].selected;
        // With duplicates a band can be unreachable (every threshold jumps
        // over it); the algorithm then reports the closest achievable count.
        let reference = sorted_union(&parts);
        let achievable = (k_lo..=k_hi).any(|k| {
            let v = reference[(k - 1) as usize];
            reference.iter().filter(|&&x| x <= v).count() as u64 <= k_hi
        });
        if achievable {
            prop_assert!(selected >= k_lo && selected <= k_hi,
                "band ({k_lo},{k_hi}) reachable but selected {selected}");
        }
        // Consistency between the threshold and the count always holds.
        let v = out.results[0].threshold;
        let rank = reference.iter().filter(|&&x| x <= v).count() as u64;
        prop_assert_eq!(rank, selected);
    }

    #[test]
    fn treap_behaves_like_a_sorted_vector(
        values in vec(0u64..500, 0..300),
        extra in vec(0u64..500, 0..20),
        k in 0usize..320,
    ) {
        let mut treap = Treap::from_iter(values.iter().copied());
        let mut reference = values.clone();
        for &x in &extra {
            treap.insert(x);
            reference.push(x);
        }
        reference.sort_unstable();
        prop_assert_eq!(treap.len(), reference.len());
        prop_assert_eq!(treap.is_empty(), reference.is_empty());
        prop_assert_eq!(treap.smallest(reference.len()), reference.clone());
        prop_assert_eq!(treap.smallest(k), reference[..k.min(reference.len())].to_vec());
    }

    #[test]
    fn treap_split_concat_roundtrip(
        values in vec(0u64..500, 1..200),
        count in 0usize..220,
    ) {
        let treap = Treap::from_iter(values.iter().copied());
        let reference = treap.smallest(treap.len());
        let (lo, hi) = treap.clone().split_at_rank(count);
        let cut = count.min(reference.len());
        prop_assert_eq!(lo.len(), cut);
        prop_assert_eq!(hi.len(), reference.len() - cut);
        // The two halves, concatenated in order, are the whole tree again.
        let mut rejoined = lo.smallest(lo.len());
        rejoined.extend(hi.smallest(hi.len()));
        prop_assert_eq!(rejoined, reference);
        // The source is untouched by a split of its clone.
        prop_assert_eq!(treap.len(), values.len());
    }

    #[test]
    fn redistribution_preserves_content_and_balances(
        parts in distributed_input(),
    ) {
        let p = parts.len();
        let n = total_len(&parts);
        let target = if n == 0 { 0 } else { n.div_ceil(p) };
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            redistribute(comm, parts_ref[comm.rank()].clone())
        });
        let mut after: Vec<u64> = out.results.iter().flat_map(|(d, _)| d.iter().copied()).collect();
        after.sort_unstable();
        prop_assert_eq!(after, sorted_union(&parts));
        for (data, report) in &out.results {
            prop_assert!(data.len() <= target.max(1) || n == 0);
            prop_assert!(report.sent_elements == 0 || report.received_elements == 0);
        }
    }

    #[test]
    fn bulk_queue_batches_are_globally_smallest(
        parts in distributed_input(),
        batch in 1usize..100,
    ) {
        let n = total_len(&parts);
        prop_assume!(n > 0);
        let p = parts.len();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let mut q = BulkParallelQueue::new(comm);
            q.insert_bulk(parts_ref[comm.rank()].iter().copied());
            q.delete_min(comm, batch, 1)
        });
        let mut got: Vec<u64> = out.results.into_iter().flatten().collect();
        got.sort_unstable();
        let reference = sorted_union(&parts);
        let expect = &reference[..batch.min(n)];
        prop_assert_eq!(got, expect.to_vec());
    }

    #[test]
    fn word_counting_is_additive_over_vectors(
        values in vec(0u64..u64::MAX, 0..50),
    ) {
        use topk_selection::commsim::CommData;
        let per_element: usize = values.iter().map(|v| v.word_count()).sum();
        prop_assert_eq!(values.word_count(), per_element + 1);
    }

    #[test]
    fn collectives_match_sequential_oracles_on_all_backends(
        values in vec(0u64..1_000_000, 1..9),
        root_frac in 0.0f64..1.0,
    ) {
        let p = values.len();
        let root = ((root_frac * p as f64) as usize).min(p - 1);
        // The same generic program on all three backends.  The mux run pins
        // num_workers = 2 so that for p > 2 the test exercises genuine
        // multiplexing (several PEs sharing one worker, park/wake on block).
        let vals = values.clone();
        let threaded = run_spmd(p, move |comm| collective_program(comm, &vals, root));
        let vals = values.clone();
        let sequential = run_spmd_seq(p, move |comm| collective_program(comm, &vals, root));
        let vals = values.clone();
        let muxed = World::new(p)
            .with_workers(2)
            .mux(move |comm| collective_program(comm, &vals, root))
            .fault_free();

        let total: u64 = values.iter().sum();
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        for out in [&threaded, &sequential, &muxed] {
            let mut running = 0u64;
            for (rank, result) in out.results.iter().enumerate() {
                let (sum, mn, mx, excl, incl, bcast, ref gathered, ref all, ref a2a, scat, ref a2ai) =
                    *result;
                prop_assert_eq!(sum, total);
                prop_assert_eq!(mn, min);
                prop_assert_eq!(mx, max);
                prop_assert_eq!(excl, running);
                running += values[rank];
                prop_assert_eq!(incl, running);
                prop_assert_eq!(bcast, values[root]);
                if rank == root {
                    prop_assert_eq!(gathered.as_deref(), Some(values.as_slice()));
                } else {
                    prop_assert!(gathered.is_none());
                }
                prop_assert_eq!(all, &values);
                let expect_a2a: Vec<u64> =
                    values.iter().map(|&s| s * 1000 + rank as u64).collect();
                prop_assert_eq!(a2a, &expect_a2a);
                prop_assert_eq!(scat, values[rank]);
                let expect_a2ai: Vec<u64> = values.iter().map(|&s| s + rank as u64).collect();
                prop_assert_eq!(a2ai, &expect_a2ai);
            }
        }
        // All backends must agree bit-for-bit, including metered traffic.
        // (Pool-reuse counters are exempt: the mux backend stores messages
        // permanently for replay and never recycles buffers, a documented
        // divergence — see the commsim::mux module docs.)
        for other in [&sequential, &muxed] {
            prop_assert_eq!(&threaded.results, &other.results);
            prop_assert_eq!(threaded.stats.total_words(), other.stats.total_words());
            prop_assert_eq!(
                threaded.stats.total_messages(),
                other.stats.total_messages()
            );
            prop_assert_eq!(
                threaded.stats.bottleneck_words(),
                other.stats.bottleneck_words()
            );
        }
    }

    #[test]
    fn unsorted_selection_agrees_across_backends(
        parts in vec(vec(0u64..500, 0..60), 1..5),
        k_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = total_len(&parts);
        prop_assume!(n > 0);
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        let p = parts.len();
        let parts_a = parts.clone();
        let threaded = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_a[comm.rank()], k, seed).threshold
        });
        let parts_b = parts.clone();
        let sequential = run_spmd_seq(p, move |comm| {
            select_k_smallest(comm, &parts_b[comm.rank()], k, seed).threshold
        });
        let parts_c = parts.clone();
        let muxed = World::new(p)
            .mux(move |comm| select_k_smallest(comm, &parts_c[comm.rank()], k, seed).threshold)
            .fault_free();
        prop_assert_eq!(&threaded.results, &sequential.results);
        prop_assert_eq!(&threaded.results, &muxed.results);
        let reference = sorted_union(&parts);
        prop_assert!(sequential.results.iter().all(|&t| t == reference[k - 1]));
    }

    #[test]
    fn word_codec_roundtrips_scalars(
        a in 0u64..u64::MAX,
        b in i64::MIN..i64::MAX,
        c in 0u64..2,
        d in 0.0f64..1.0e18,
    ) {
        codec_roundtrip(a)?;
        codec_roundtrip(b)?;
        codec_roundtrip(a as u32 as u64)?;
        codec_roundtrip((a >> 32) as u32)?;
        codec_roundtrip((a % 256) as u8)?;
        codec_roundtrip((a % (1 << 16)) as u16)?;
        codec_roundtrip(a as usize)?;
        codec_roundtrip((b % 128) as i8)?;
        codec_roundtrip((b % (1 << 15)) as i16)?;
        codec_roundtrip((b % (1 << 31)) as i32)?;
        codec_roundtrip(b as isize)?;
        codec_roundtrip(c == 1)?;
        codec_roundtrip(d)?;
        codec_roundtrip(-d)?;
        codec_roundtrip(d as f32)?;
        codec_roundtrip((a as u128) << 64 | b as u64 as u128)?;
        codec_roundtrip(((b as i128) << 32) | (a as i128 & 0xFFFF_FFFF))?;
        codec_roundtrip(char::from_u32((a % 0xD800) as u32).unwrap_or('x'))?;
        codec_roundtrip(())?;
        // The two downstream codec types (`topk`), built from the same draws.
        codec_roundtrip(OrderedF64(-d))?;
        codec_roundtrip(BnbNode {
            neg_bound: OrderedF64(-d),
            level: (a >> 32) as u32,
            value: a,
            weight: b as u64,
        })?;
    }

    #[test]
    fn word_codec_roundtrips_containers(
        nums in vec(0u64..u64::MAX, 0..40),
        nested in vec(vec(0u64..100, 0..6), 0..6),
        text_codes in vec(32u64..127, 0..40),
        opt_tag in 0u64..2,
    ) {
        let text: String = text_codes.iter().map(|&c| c as u8 as char).collect();
        codec_roundtrip(nums.clone())?;
        codec_roundtrip(nested.clone())?;
        codec_roundtrip(text.clone())?;
        codec_roundtrip(vec![text.clone(); 3])?;
        codec_roundtrip(if opt_tag == 0 { None } else { Some(nums.clone()) })?;
        codec_roundtrip(vec![Some(1u64), None, Some(3)])?;
        codec_roundtrip(std::cmp::Reverse(nums.clone()))?;
        codec_roundtrip((nums.clone(), text.clone()))?;
        codec_roundtrip((1u64, nums.clone(), false))?;
        codec_roundtrip((1u8, 2u16, 3u32, nums.clone()))?;
        codec_roundtrip(nums.iter().map(|&v| (v, v / 2)).collect::<Vec<(u64, u64)>>())?;
    }

    /// An aggregate on the wire: the multiset survives — keys from the whole
    /// u64 range, dense keys, the same key repeated, counts of every bit
    /// length up to 64 — and while the count steps stay below 2³², `d` keys
    /// in `R` runs cost at most `1 + d + R` words, never more than `d` pairs
    /// would.
    #[test]
    fn word_codec_roundtrips_key_counts(
        keys in vec(0u64..u64::MAX, 0..40),
        dense in vec(0u64..1 << 16, 0..200),
        repeats in 1usize..4,
        small in vec(0u64..6, 200..201),
        wide in vec(0u64..u64::MAX, 40..41),
    ) {
        let repeated = dense.iter().flat_map(|&key| std::iter::repeat_n(key, repeats));
        for keys in [keys.clone(), dense.clone(), repeated.collect()] {
            let skewed: Vec<(u64, u64)> = keys.iter().copied().zip(small.iter().copied()).collect();
            let counts: KeyCounts = skewed.iter().copied().collect();
            codec_roundtrip(counts.clone())?;
            let mut runs: Vec<u64> = skewed.iter().map(|&(_, count)| count).collect();
            runs.sort_unstable();
            runs.dedup();
            prop_assert!(counts.word_count() <= 1 + skewed.len() + runs.len());
            prop_assert!(counts.word_count() <= skewed.word_count());
            let mut back: Vec<(u64, u64)> = counts.iter().collect();
            back.sort_unstable();
            let mut expected = skewed;
            expected.sort_unstable();
            prop_assert_eq!(back, expected);
        }

        // Counts from the whole u64 range, 2³² − 1 among them: a run of a count
        // that large may cost one word more, for its longer count-step code.
        let edge = u64::from(u32::MAX);
        let wide = wide.iter().copied().chain([0, edge - 1, edge, u64::MAX]);
        let pairs: Vec<(u64, u64)> = keys.iter().copied().cycle().zip(wide).collect();
        let counts: KeyCounts = pairs.iter().copied().collect();
        codec_roundtrip(counts.clone())?;
        let mut runs: Vec<u64> = pairs.iter().map(|&(_, count)| count).collect();
        runs.sort_unstable();
        runs.dedup();
        let escaped = runs.iter().filter(|&&count| count >= edge).count();
        prop_assert!(counts.word_count() <= 1 + pairs.len() + runs.len() + escaped);
    }

    /// A [`PackedCounts`] round-trips in exactly its stream's bits in whole
    /// words — `δ(len)`, `δ` of the first count, then each later count
    /// Rice-coded at its predecessor's bit length less one, or escaped to
    /// `δ` from quotient [`PackedCounts::ESCAPE`] on — and no entry costs
    /// more than `ESCAPE + 1` bits beyond `δ` of it or its predecessor.
    /// Counts as drawn, ascending, descending and alternating between the
    /// two ends.
    #[test]
    fn word_codec_roundtrips_packed_counts(
        words in vec(0u64..u64::MAX, 0..3001),
        width in 0u32..=64,
        top in 0usize..3001,
        order in 0u8..4,
    ) {
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let mut counts: Vec<u64> = words.iter().map(|&word| word & mask).collect();
        if let Some(count) = counts.get_mut(top % words.len().max(1)) {
            // The largest entry sets the width's top bit.
            *count |= mask ^ (mask >> 1);
        }
        match order {
            1 => counts.sort_unstable(),
            2 => counts.sort_unstable_by(|a, b| b.cmp(a)),
            3 => {
                counts.sort_unstable();
                let (low, high) = counts.split_at(counts.len() / 2);
                counts = low.iter().zip(high.iter().rev()).flat_map(|(&a, &b)| [a, b]).collect();
            }
            _ => {}
        }
        let delta = BitWriter::number_bits;
        let mut bits = delta(counts.len() as u64) + counts.first().map_or(0, |&c| delta(c));
        for w in counts.windows(2) {
            let r = (u64::BITS - w[0].leading_zeros()).saturating_sub(1).min(MAX_RICE);
            let entry = match w[1] >> r {
                q if q < PackedCounts::ESCAPE => q + 1 + u64::from(r),
                _ => PackedCounts::ESCAPE + 1 + delta(w[1]),
            };
            prop_assert!(entry <= PackedCounts::ESCAPE + 1 + delta(w[0].max(w[1])));
            bits += entry;
        }
        let packed = PackedCounts(counts);
        codec_roundtrip(packed.clone())?;
        prop_assert_eq!(packed.word_count() as u64, bits.div_ceil(64));
    }

    #[test]
    fn scalar_decoders_are_total(a in 0u64..u64::MAX, b in i64::MIN..i64::MAX, g in garbage()) {
        codec_is_total(&(a as u8), &g)?;
        codec_is_total(&(a as u16), &g)?;
        codec_is_total(&(a as u32), &g)?;
        codec_is_total(&a, &g)?;
        codec_is_total(&(a as usize), &g)?;
        codec_is_total(&(b as i8), &g)?;
        codec_is_total(&(b as i16), &g)?;
        codec_is_total(&(b as i32), &g)?;
        codec_is_total(&b, &g)?;
        codec_is_total(&(b as isize), &g)?;
        codec_is_total(&((a as u128) << 64 | b as u64 as u128), &g)?;
        codec_is_total(&((b as i128) << 64 | a as i128), &g)?;
        codec_is_total(&f64::from_bits(a), &g)?;
        codec_is_total(&f32::from_bits(a as u32), &g)?;
        codec_is_total(&(), &g)?;
    }

    #[test]
    fn bool_and_char_decoders_are_total(a in 0u64..u64::MAX, g in garbage()) {
        codec_is_total(&(a % 2 == 1), &g)?;
        codec_is_total(&char::from_u32(a as u32 % 0x11_0000).unwrap_or('\u{FFFD}'), &g)?;
    }

    #[test]
    fn string_decoder_is_total(codes in vec(0u32..0x800, 0..24), g in garbage()) {
        let text: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        codec_is_total(&text, &g)?;
    }

    #[test]
    fn vec_decoders_are_total(
        nums in vec(0u64..u64::MAX, 0..12),
        nested in vec(vec(0u64..100, 0..4), 0..4),
        g in garbage(),
    ) {
        codec_is_total(&nums, &g)?;
        codec_is_total(&nested, &g)?;
        codec_is_total(&nums.iter().map(|v| v.to_string()).collect::<Vec<String>>(), &g)?;
        codec_is_total(&nums.iter().map(|&v| (v, v / 2)).collect::<Vec<(u64, u64)>>(), &g)?;
    }

    #[test]
    fn option_decoders_are_total(a in 0u64..u64::MAX, nums in vec(0u64..100, 0..6), g in garbage()) {
        codec_is_total(&Some(a), &g)?;
        codec_is_total(&None::<u64>, &g)?;
        codec_is_total(&Some(nums.clone()), &g)?;
        codec_is_total(&Some(Some(a % 2 == 0)), &g)?;
        codec_is_total(&nums.iter().map(|&v| (v % 3 > 0).then_some(v)).collect::<Vec<_>>(), &g)?;
    }

    #[test]
    fn tuple_decoders_are_total(a in 0u64..u64::MAX, nums in vec(0u64..100, 0..6), g in garbage()) {
        codec_is_total(&(a, a % 2 == 0), &g)?;
        codec_is_total(&(nums.clone(), a.to_string(), Some(a)), &g)?;
        codec_is_total(&(a as u8, a as u16, a as u32, nums.clone()), &g)?;
    }

    #[test]
    fn reverse_decoders_are_total(a in 0u64..u64::MAX, nums in vec(0u64..100, 0..6), g in garbage()) {
        codec_is_total(&Reverse(a), &g)?;
        codec_is_total(&Reverse((a, nums.clone())), &g)?;
    }

    #[test]
    fn ordered_f64_decoder_is_total(a in 0u64..u64::MAX, g in garbage()) {
        codec_is_total(&OrderedF64(f64::from_bits(a)), &g)?;
        codec_is_total(&vec![OrderedF64(a as f64); 3], &g)?;
    }

    #[test]
    fn bnb_node_decoder_is_total(a in 0u64..u64::MAX, b in 0u64..u64::MAX, g in garbage()) {
        let node = BnbNode {
            neg_bound: OrderedF64(-(b as f64)),
            level: (a >> 32) as u32,
            value: a,
            weight: b,
        };
        codec_is_total(&node, &g)?;
        codec_is_total(&vec![node; 2], &g)?;
    }

    /// A block of `u64` keys round-trips through its bit stream in exactly
    /// its encoded length: values from the whole range and dense ones,
    /// repeated across up to four ranks, indices dense and spread.
    #[test]
    fn word_codec_roundtrips_sorted_blocks(
        values in vec(0u64..u64::MAX, 0..30),
        dense in vec(0u64..64, 0..30),
        repeats in vec(1usize..5, 1..8),
        ranks in vec(0u64..1 << 24, 1..5),
        stride in 1u64..1 << 20,
    ) {
        for values in [&values, &dense] {
            codec_roundtrip(SortedBlock::new(tagged_pairs(values, &repeats, &ranks, stride)))?;
        }
    }

    /// `u64`'s one-`u128` pair comparison is the tuple order, at the
    /// extremes of both words: keys 0, `u64::MAX` and equal keys, tags 0,
    /// `u64::MAX` and around the rank boundary `1 << 40` of the tie-break
    /// word.
    #[test]
    fn u64_pair_comparison_is_the_tuple_order(
        a in extreme_word(1 << 20),
        b in extreme_word(1 << 20),
        a_tag in extreme_word(1 << 40),
        b_tag in extreme_word(1 << 40),
        equal_keys in 0u8..2,
    ) {
        let b = if equal_keys == 1 { a } else { b };
        for (x, y) in [((a, a_tag), (b, b_tag)), ((b, b_tag), (a, a_tag)), ((a, a_tag), (a, a_tag))] {
            prop_assert_eq!(
                u64::pair_lt((&x.0, x.1), (&y.0, y.1)),
                x < y,
                "{:?} < {:?}", x, y
            );
        }
    }

    #[test]
    fn sorted_block_decoder_is_total(
        values in vec(0u64..1 << 16, 0..40),
        repeats in vec(1usize..4, 1..6),
        ranks in vec(0u64..64, 1..4),
        stride in 1u64..1 << 10,
        g in garbage(),
    ) {
        let pairs = tagged_pairs(&values, &repeats, &ranks, stride);
        let strings: Vec<(String, u64)> = pairs.iter().map(|&(v, tag)| (v.to_string(), tag)).collect();
        codec_is_total(&SortedBlock::new(pairs), &g)?;
        codec_is_total(&SortedBlock::new(strings), &g)?;
    }

    #[test]
    fn key_counts_decoder_is_total(
        dense in vec(0u64..1 << 16, 0..60),
        wide in vec(0u64..u64::MAX, 0..8),
        counts in vec(0u64..6, 60..61),
        g in garbage(),
    ) {
        let coded: KeyCounts = dense.iter().copied().zip(counts.iter().copied()).collect();
        codec_is_total(&coded, &g)?;
        let edge = u64::from(u32::MAX);
        let raw: KeyCounts = wide.iter().copied().zip([1, edge, u64::MAX].into_iter().cycle()).collect();
        codec_is_total(&raw, &g)?;
    }

    #[test]
    fn packed_counts_decoder_is_total(
        words in vec(0u64..u64::MAX, 0..40),
        width in 0u32..=64,
        g in garbage(),
    ) {
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let packed = PackedCounts(words.iter().map(|&word| word & mask).collect());
        codec_is_total(&packed, &g)?;
    }

    #[test]
    fn checkpoint_decoders_are_total(
        thresholds in vec(0u64..u64::MAX, 0..6),
        published in vec(vec(0u64..1000, 0..6), 0..4),
        g in garbage(),
    ) {
        // The recoverable façades' states cross as themselves: a selection
        // run's thresholds, a frequent run's published lists.
        codec_is_total(&thresholds, &g)?;
        let published: Vec<Vec<(u64, u64)>> = published
            .iter()
            .map(|phase| phase.iter().map(|&key| (key, key / 3)).collect())
            .collect();
        codec_is_total(&published, &g)?;
    }

    #[test]
    fn vec_payloads_meter_their_word_count(
        payload in vec(0u64..u64::MAX, 0..60),
    ) {
        // A Vec<u64> must be metered exactly like the generic word_count
        // contract says, on both legs of a ping-pong exchange.
        let words = payload.word_count() as u64;
        let data = payload.clone();
        let out = run_spmd(2, move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, data.clone());
                let _: Vec<u64> = comm.recv(1, 2);
            } else {
                let v: Vec<u64> = comm.recv(0, 1);
                comm.send(0, 2, v);
            }
        });
        prop_assert_eq!(out.stats.total_words(), 2 * words);
        prop_assert_eq!(out.stats.total_messages(), 2);
    }

    #[test]
    fn alltoall_is_a_global_transpose(
        seeds in vec(0u64..1000, 1..9),
    ) {
        let p = seeds.len();
        let seeds_ref = seeds.clone();
        let out = run_spmd(p, move |comm| {
            // PE r sends the value r * 1000 + seeds[d] to each destination d.
            let items: Vec<u64> = (0..comm.size())
                .map(|d| comm.rank() as u64 * 1000 + seeds_ref[d])
                .collect();
            comm.alltoall(items)
        });
        for (rank, received) in out.results.iter().enumerate() {
            let expect: Vec<u64> =
                (0..p).map(|src| src as u64 * 1000 + seeds[rank]).collect();
            prop_assert_eq!(received, &expect);
        }
    }

    #[test]
    fn in_place_partition_is_a_permutation_of_the_cloning_kernel(
        data in vec(0u64..100, 0..400),
        pivot_a in 0u64..100,
        pivot_b in 0u64..100,
    ) {
        use topk_selection::seqkit::{
            partition_three_way, partition_three_way_counts, partition_three_way_in_place,
        };
        let (lo, hi) = (pivot_a.min(pivot_b), pivot_a.max(pivot_b));

        // Reference: the cloning kernel.
        let (mut ra, mut rb, mut rc) = partition_three_way(&data, &lo, &hi);

        // The counting variant reports exactly the reference range sizes.
        prop_assert_eq!(
            partition_three_way_counts(&data, &lo, &hi),
            (ra.len(), rb.len(), rc.len())
        );

        // The in-place kernel produces the same three multisets.
        let mut copy = data.clone();
        let (lt, gt) = partition_three_way_in_place(&mut copy, &lo, &hi);
        prop_assert!(lt <= gt && gt <= copy.len());
        let (mut a, mut b, mut c) =
            (copy[..lt].to_vec(), copy[lt..gt].to_vec(), copy[gt..].to_vec());
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        ra.sort_unstable();
        rb.sort_unstable();
        rc.sort_unstable();
        prop_assert_eq!(a, ra);
        prop_assert_eq!(b, rb);
        prop_assert_eq!(c, rc);

        // And the whole thing is a permutation of the input.
        let mut sorted_copy = copy;
        sorted_copy.sort_unstable();
        let mut sorted_data = data.clone();
        sorted_data.sort_unstable();
        prop_assert_eq!(sorted_copy, sorted_data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property (sharded transport): for an arbitrary interleaved schedule of
    /// multi-source sends — every PE sends to an arbitrary sequence of
    /// destinations, concurrently with every other PE — the transport
    /// delivers **every** message (the exact per-pair counts are known from
    /// the schedule, and each receiver drains exactly that many) in
    /// **per-pair FIFO order** (each message carries its per-pair sequence
    /// number as tag and payload, asserted on receipt), with nothing left
    /// over afterwards.
    #[test]
    fn sharded_transport_preserves_fifo_and_loses_no_message_under_interleaving(
        raw_schedules in vec(vec(0usize..8, 0..80), 2..5),
    ) {
        use topk_selection::commsim::transport::{Envelope, Mailbox};
        use topk_selection::commsim::CommError;

        let p = raw_schedules.len();
        // Fold the generated destinations into range.
        let schedules: Vec<Vec<usize>> = raw_schedules
            .iter()
            .map(|s| s.iter().map(|d| d % p).collect())
            .collect();
        // expected[src][dst] = messages src sends to dst, from the schedule.
        let mut expected = vec![vec![0u64; p]; p];
        for (src, sched) in schedules.iter().enumerate() {
            for &dst in sched {
                expected[src][dst] += 1;
            }
        }

        let boxes = Mailbox::full_mesh(p);
        let handles: Vec<_> = boxes
            .into_iter()
            .map(|b| {
                let sched = schedules[b.rank()].clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let me = b.rank();
                    // Send phase: the whole schedule, interleaved with every
                    // other PE's sends (sends never block, so the phases
                    // cannot deadlock).
                    let mut seq = vec![0u64; p];
                    for &dst in &sched {
                        let payload = ((me as u64) << 32) | seq[dst];
                        b.send(dst, Envelope::new(seq[dst], me, payload)).unwrap();
                        seq[dst] += 1;
                    }
                    // Drain phase: exactly the scheduled count per source,
                    // in exact per-pair send order.
                    for (src, sent_by_src) in expected.iter().enumerate() {
                        for i in 0..sent_by_src[me] {
                            let env = b.recv(src).unwrap();
                            assert_eq!(env.from, src, "message from the wrong queue");
                            assert_eq!(env.tag, i, "per-pair FIFO order violated");
                            let v: u64 = env.open().unwrap();
                            assert_eq!(v, ((src as u64) << 32) | i, "payload corrupted");
                        }
                        // Nothing beyond the schedule may be queued.  The
                        // peer may or may not have hung up already, so both
                        // "empty" and "disconnected" are correct here.
                        assert!(
                            matches!(
                                b.try_recv(src),
                                Ok(None) | Err(CommError::Disconnected { .. })
                            ),
                            "unexpected extra message from {src}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// p = 16 stress of the sharded transport: the full collective battery must
/// produce bit-identical results *and* bit-identical metered traffic on the
/// threaded backend (sharded inboxes, 16 OS threads) and the replay engine
/// driven inline (`run_spmd_seq`), which bypasses the transport entirely and
/// so acts as the ordering oracle.
#[test]
fn sharded_transport_matches_seq_backend_at_p16() {
    let p = 16usize;
    let values: Vec<u64> = (0..p as u64).map(|r| r * 37 + 5).collect();
    let vals = values.clone();
    let threaded = run_spmd(p, move |comm| collective_program(comm, &vals, 3));
    let vals = values.clone();
    let sequential = run_spmd_seq(p, move |comm| collective_program(comm, &vals, 3));
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

/// p = 16 stress of per-source FIFO order through the `Communicator` layer:
/// every PE floods every other PE with sequence-numbered messages and each
/// receiver must observe every source's sequence in exact send order.
#[test]
fn sharded_transport_preserves_per_source_fifo_at_p16() {
    let p = 16usize;
    let rounds = 64u64;
    let out = run_spmd(p, move |comm| {
        for i in 0..rounds {
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    comm.send(dst, 7, (comm.rank() as u64) << 32 | i);
                }
            }
        }
        let mut in_order = true;
        for src in 0..comm.size() {
            if src == comm.rank() {
                continue;
            }
            for i in 0..rounds {
                let v: u64 = comm.recv(src, 7);
                in_order &= v == (src as u64) << 32 | i;
            }
        }
        in_order
    });
    assert!(out.results.iter().all(|&ok| ok));
}

/// Crash-tolerant probe used by the fault-plan proptests: every rank fires
/// a token at every other rank, then failure-detects each incoming token,
/// so any crash pattern yields a completed (and, on the replay backend,
/// fully deterministic) run.
fn fault_probe<C: Communicator>(comm: &C) -> Vec<String> {
    let (p, me) = (comm.size(), comm.rank());
    for dst in 0..p {
        if dst != me {
            comm.send(dst, 11, me as u64);
        }
    }
    (0..p)
        .filter(|src| *src != me)
        .map(|src| match comm.recv_failable::<u64>(src, 11) {
            Ok(v) => format!("ok {v}"),
            Err(e) => format!("err {e:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// An **empty** `FaultPlan` must be invisible: results and per-PE
    /// metered traffic bit-identical to a run with no plan at all, on all
    /// three backends.  This is the property that keeps every fault-free
    /// experiment valid while the fault hooks sit in the hot path.
    #[test]
    fn empty_fault_plan_is_invisible_on_all_backends(
        values in vec(0u64..1_000_000, 1..7),
        root_frac in 0.0f64..1.0,
    ) {
        use topk_selection::commsim::FaultPlan;
        let p = values.len();
        let root = ((root_frac * p as f64) as usize).min(p - 1);
        // The plan-less reference is the threaded backend: the two replay
        // runners share one engine, so neither can vouch for the other.
        let vals = values.clone();
        let base = run_spmd(p, move |comm| collective_program(comm, &vals, root));

        let world = World::new(p).with_faults(FaultPlan::new());
        let threaded = world.threaded(|comm| collective_program(comm, &values, root));
        let seq = world.seq(|comm| collective_program(comm, &values, root));
        let mux = world.mux(|comm| collective_program(comm, &values, root));

        for (name, out) in [("threaded", &threaded), ("seq", &seq), ("mux", &mux)] {
            for rank in 0..p {
                prop_assert_eq!(
                    Some(&base.results[rank]),
                    out.results[rank].as_ref(),
                    "{} rank {}: results diverge under the empty plan", name, rank
                );
                let b = base.stats.pe(rank);
                let f = out.stats.pe(rank);
                prop_assert_eq!(
                    (b.sent_messages, b.sent_words),
                    (f.sent_messages, f.sent_words),
                    "{} rank {}: metering diverges under the empty plan", name, rank
                );
            }
        }
    }

    /// A seeded crash plan is a pure function of its seed, and replaying it
    /// on the replay backend reproduces the execution bit-for-bit — results
    /// and metered words alike.
    #[test]
    fn seeded_fault_plans_replay_deterministically(
        seed in 0u64..u64::MAX,
        count in 0usize..4,
    ) {
        use topk_selection::commsim::FaultPlan;
        let p = 6;
        let candidates: Vec<(usize, u64)> = (0..p).map(|r| (r, r as u64 % 2)).collect();
        let a = FaultPlan::seeded_crashes(seed, &candidates, count);
        let b = FaultPlan::seeded_crashes(seed, &candidates, count);
        prop_assert_eq!(a.events(), b.events());

        let run = |plan: FaultPlan| World::new(p).with_faults(plan).seq(fault_probe);
        let x = run(a);
        let y = run(b);
        prop_assert_eq!(&x.results, &y.results);
        for rank in 0..p {
            let (xs, ys) = (x.stats.pe(rank), y.stats.pe(rank));
            prop_assert_eq!(
                (xs.sent_messages, xs.sent_words),
                (ys.sent_messages, ys.sent_words),
                "rank {}: replayed metering must be deterministic", rank
            );
        }
    }
}
