//! Sequential selection algorithms.
//!
//! Two selection routines are provided:
//!
//! * [`quickselect`] — classical Hoare selection with a random pivot,
//!   expected linear time, used as the reference implementation and for small
//!   inputs;
//! * [`floyd_rivest_select`] — the Floyd–Rivest algorithm [Floyd & Rivest
//!   1975], which picks its pivots from a sample around the target rank and
//!   thereby achieves `n + min(k, n−k) + o(n)` comparisons.  The distributed
//!   unsorted-selection algorithm of the paper's Section 4.1 is the
//!   distributed-memory analogue of this idea, so having the sequential
//!   version around is useful both as a local subroutine and as a baseline.
//!
//! Also provided are the three-way partition by a pivot pair `(ℓ, r)` that the
//! distributed algorithm (its Algorithm 1) applies to the local data, and the
//! branch-free sweeps its levels run: [`partition_counts_sample_compact`]
//! counts the three ranges, samples the middle one and copies it out in one
//! pass, and [`compact_filter`] is a stable filter in one pass.

use rand::Rng;

use crate::sampling::BernoulliSampler;

/// Select the element with rank `k` (0-based, i.e. the `(k+1)`-smallest) from
/// `data`, reordering `data` in the process.  Expected `O(n)` time.
///
/// # Panics
///
/// Panics if `data` is empty or `k >= data.len()`.
pub fn quickselect<T: Ord + Clone, R: Rng>(data: &mut [T], k: usize, rng: &mut R) -> T {
    assert!(!data.is_empty(), "cannot select from an empty slice");
    assert!(
        k < data.len(),
        "rank {k} out of bounds for length {}",
        data.len()
    );
    let mut lo = 0usize;
    let mut hi = data.len();
    let mut k = k;
    loop {
        if hi - lo <= 16 {
            data[lo..hi].sort_unstable();
            return data[lo + k].clone();
        }
        let pivot_idx = lo + rng.gen_range(0..hi - lo);
        let pivot = data[pivot_idx].clone();
        let (lt, gt) = partition_three_way_in_place(&mut data[lo..hi], &pivot, &pivot);
        let (lt, gt) = (lo + lt, lo + gt);
        // Now data[lo..lt] < pivot, data[lt..gt] == pivot, data[gt..hi] > pivot.
        let less = lt - lo;
        let equal = gt - lt;
        if k < less {
            hi = lt;
        } else if k < less + equal {
            return pivot;
        } else {
            k -= less + equal;
            lo = gt;
        }
    }
}

/// Floyd–Rivest selection: like [`quickselect`], but pivots are chosen from a
/// sample around the target rank, which makes the expected number of
/// comparisons `n + min(k, n−k) + o(n)`.
///
/// Selects the element of 0-based rank `k`, reordering `data`.
pub fn floyd_rivest_select<T: Ord + Clone, R: Rng>(data: &mut [T], k: usize, rng: &mut R) -> T {
    assert!(!data.is_empty(), "cannot select from an empty slice");
    assert!(
        k < data.len(),
        "rank {k} out of bounds for length {}",
        data.len()
    );
    fr_recursive(data, 0, data.len(), k, rng);
    data[k].clone()
}

/// Recursive core of Floyd–Rivest: after the call, `data[k]` holds the
/// element of rank `k` and `data[lo..hi]` is partitioned around it.
fn fr_recursive<T: Ord + Clone, R: Rng>(
    data: &mut [T],
    mut lo: usize,
    mut hi: usize,
    k: usize,
    rng: &mut R,
) {
    while hi - lo > 600 {
        let n = (hi - lo) as f64;
        let i = (k - lo) as f64;
        // Sample window around the target rank, as in the original paper:
        // recursing on it places an element of rank very close to k at
        // data[k], which then serves as the pivot for the full range.
        let z = n.ln();
        let s = 0.5 * (2.0 * z / 3.0).exp();
        let sign = if i < n / 2.0 { -1.0 } else { 1.0 };
        let sd = 0.5 * (z * s * (n - s) / n).sqrt() * sign;
        let new_lo = ((k as f64 - i * s / n + sd) as usize).clamp(lo, k);
        let new_hi = ((k as f64 + (n - i) * s / n + sd) as usize).clamp(k, hi - 1);
        fr_recursive(data, new_lo, new_hi + 1, k, rng);

        let pivot = data[k].clone();
        let (lt, gt) = partition_three_way_in_place(&mut data[lo..hi], &pivot, &pivot);
        let (lt, gt) = (lo + lt, lo + gt);
        // data[lo..lt] < pivot, data[lt..gt] == pivot, data[gt..hi] > pivot.
        if k < lt {
            hi = lt;
        } else if k < gt {
            return;
        } else {
            lo = gt;
        }
    }
    // Small range: a random-pivot quickselect pass suffices and is simpler
    // than the index gymnastics above.
    if hi > lo {
        let slice = &mut data[lo..hi];
        let target = k - lo;
        let v = quickselect(slice, target, rng);
        debug_assert!(slice[target] == v);
    }
}

/// Three-way partition of `data` by a pivot pair `(lo_pivot, hi_pivot)` with
/// `lo_pivot <= hi_pivot`, as used by the distributed selection algorithm
/// (paper Algorithm 1): returns `(a, b, c)` with
/// `a = ⟨e < lo_pivot⟩`, `b = ⟨lo_pivot ≤ e ≤ hi_pivot⟩`, `c = ⟨e > hi_pivot⟩`.
///
/// This is the cloning reference kernel: it allocates three fresh vectors and
/// clones every element.  The hot paths use the allocation-free variants
/// [`partition_three_way_in_place`] and [`partition_three_way_counts`]
/// instead; this version is kept as the specification the property tests
/// compare them against.
pub fn partition_three_way<T: Ord + Clone>(
    data: &[T],
    lo_pivot: &T,
    hi_pivot: &T,
) -> (Vec<T>, Vec<T>, Vec<T>) {
    debug_assert!(lo_pivot <= hi_pivot);
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut c = Vec::new();
    for e in data {
        if e < lo_pivot {
            a.push(e.clone());
        } else if e > hi_pivot {
            c.push(e.clone());
        } else {
            b.push(e.clone());
        }
    }
    (a, b, c)
}

/// In-place three-way partition (Dutch national flag) of `data` by the pivot
/// pair `(lo_pivot, hi_pivot)` with `lo_pivot <= hi_pivot`.
///
/// Reorders `data` in one pass with swaps only — no heap allocation, no
/// clones — so that afterwards
///
/// * `data[..lt]  < lo_pivot`,
/// * `lo_pivot <= data[lt..gt] <= hi_pivot`,
/// * `data[gt..]  > hi_pivot`,
///
/// and returns the split indices `(lt, gt)`.  The multiset of each range
/// equals the corresponding vector of [`partition_three_way`]; the relative
/// order *within* the ranges is not preserved (swapping cannot be stable).
/// `lo_pivot == hi_pivot` degenerates to the classical single-pivot
/// three-way partition, which is how [`quickselect`] and
/// [`floyd_rivest_select`] use this kernel.
pub fn partition_three_way_in_place<T: Ord>(
    data: &mut [T],
    lo_pivot: &T,
    hi_pivot: &T,
) -> (usize, usize) {
    debug_assert!(lo_pivot <= hi_pivot);
    let mut lt = 0usize; // data[..lt] < lo_pivot
    let mut gt = data.len(); // data[gt..] > hi_pivot
    let mut i = 0usize;
    while i < gt {
        if data[i] < *lo_pivot {
            data.swap(i, lt);
            lt += 1;
            i += 1;
        } else if data[i] > *hi_pivot {
            gt -= 1;
            data.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Index-free variant of the three-way split: the sizes `(|a|, |b|, |c|)` of
/// the ranges `e < lo_pivot`, `lo_pivot ≤ e ≤ hi_pivot`, `e > hi_pivot`
/// without moving, cloning, or allocating anything.
///
/// The distributed selection algorithm only needs these *counts* to pick the
/// recursion range; it runs them fused with its next level's sample and the
/// compaction of its middle range ([`partition_counts_sample_compact`]).
///
/// The loop is **branchless**: each element contributes two comparison
/// results (`e < ℓ` and `e > r`) as `0/1` arithmetic — no data-dependent
/// branch, so the branch predictor has nothing to mispredict no matter how
/// the input interleaves the three ranges, and for scalar keys the compiler
/// autovectorizes the accumulation.  The middle count follows as
/// `n − |a| − |c|`.  A fourfold unroll with independent accumulators breaks
/// the add dependency chain; `chunks_exact` keeps the bound checks out of
/// the hot loop.  The branchy original is the reference of this module's
/// tests; EXPERIMENTS.md ("PR 5") has the two side by side on uniform and
/// duplicate-heavy inputs.
pub fn partition_three_way_counts<T: Ord>(
    data: &[T],
    lo_pivot: &T,
    hi_pivot: &T,
) -> (usize, usize, usize) {
    debug_assert!(lo_pivot <= hi_pivot);
    let (a, c) = count_outside(data, |e| e < lo_pivot, |e| e > hi_pivot);
    (a, data.len() - a - c, c)
}

/// The branchless count behind [`partition_three_way_counts`]: how many
/// elements of `data` are `below` and how many `above`, as `0/1` sums in
/// four independent accumulators.
#[inline(always)]
fn count_outside<T>(
    data: &[T],
    below: impl Fn(&T) -> bool,
    above: impl Fn(&T) -> bool,
) -> (usize, usize) {
    let mut lower = [0usize; 4];
    let mut upper = [0usize; 4];
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        lower[0] += usize::from(below(&chunk[0]));
        upper[0] += usize::from(above(&chunk[0]));
        lower[1] += usize::from(below(&chunk[1]));
        upper[1] += usize::from(above(&chunk[1]));
        lower[2] += usize::from(below(&chunk[2]));
        upper[2] += usize::from(above(&chunk[2]));
        lower[3] += usize::from(below(&chunk[3]));
        upper[3] += usize::from(above(&chunk[3]));
    }
    let mut a = lower[0] + lower[1] + lower[2] + lower[3];
    let mut c = upper[0] + upper[1] + upper[2] + upper[3];
    for e in chunks.remainder() {
        a += usize::from(below(e));
        c += usize::from(above(e));
    }
    (a, c)
}

/// Elements per block of the compacting sweeps: an offset in a block fits a
/// byte.
const SWEEP_BLOCK: usize = 256;

/// The branch-free pass under [`partition_counts_sample_compact`] and
/// [`compact_filter`]: it counts the elements of `data` that lie `below` and
/// `above`, and hands each block of [`SWEEP_BLOCK`] elements to
/// `visit(base, block, offsets)` with the offsets of its other elements, in
/// order.  `below` and `above` see each element with its index in `data`.
///
/// The offsets are the offset buffer of BlockQuicksort (Edelkamp & Weiß,
/// ESA 2016): every element's offset is written, and the fill only advances
/// past one in neither outer range, so no branch depends on the data.
#[inline(always)]
fn sweep_blocks<E>(
    data: &[E],
    below: impl Fn(usize, &E) -> bool,
    above: impl Fn(usize, &E) -> bool,
    mut visit: impl FnMut(usize, &[E], &[u8]),
) -> (usize, usize) {
    let (mut a, mut c) = (0usize, 0usize);
    let mut offsets = [0u8; SWEEP_BLOCK];
    for (base, block) in (0..).step_by(SWEEP_BLOCK).zip(data.chunks(SWEEP_BLOCK)) {
        let mut filled = 0usize;
        for (offset, e) in block.iter().enumerate() {
            let (lt, gt) = (below(base + offset, e), above(base + offset, e));
            a += usize::from(lt);
            c += usize::from(gt);
            // `filled ≤ offset < SWEEP_BLOCK`: the mask only drops the
            // bounds check.
            offsets[filled % SWEEP_BLOCK] = offset as u8;
            filled += usize::from(!(lt | gt));
        }
        visit(base, block, &offsets[..filled]);
    }
    (a, c)
}

/// `emit` of the elements of `block` at `offsets`; `base` is the block's
/// index in its data.
fn emit_offsets<'a, E, O>(
    base: usize,
    block: &'a [E],
    offsets: &'a [u8],
    emit: &'a impl Fn(usize, &E) -> O,
) -> impl Iterator<Item = O> + 'a {
    offsets.iter().map(move |&offset| {
        let offset = usize::from(offset);
        emit(base + offset, &block[offset])
    })
}

/// One sweep over `data` that counts the elements `below` and `above` a
/// bracket, draws a Bernoulli(ρ) sample of the rest — the middle range —
/// and appends the whole middle range to `middle`, each element as
/// `emit(index, element)`.  Returns the three range sizes and the sample in
/// data order.
///
/// The sample — and the sequence of RNG draws — is bit-identical to
/// collecting the middle range in order and calling
/// [`bernoulli_sample`](crate::sampling::bernoulli_sample) on it: the skip
/// sampler numbers the middle elements as the sweep meets them, and it
/// draws one skip per sampled element plus the one that ends the sample
/// either way.  Each block's sampled elements are read off its
/// offsets, so the sample costs no pass of its own, and neither does the
/// compaction: a caller that needs the middle range next has it.
pub fn partition_counts_sample_compact<E, O, R: Rng + ?Sized>(
    data: &[E],
    below: impl Fn(usize, &E) -> bool,
    above: impl Fn(usize, &E) -> bool,
    emit: impl Fn(usize, &E) -> O,
    rho: f64,
    rng: &mut R,
    middle: &mut Vec<O>,
) -> ((usize, usize, usize), Vec<O>) {
    // The middle has at most `data.len()` elements: a skip past its actual
    // end is drawn all the same and never reached.
    let mut sampler = BernoulliSampler::new(data.len(), rho);
    let mut target = sampler.next_index(rng);
    let mut sample = Vec::new();
    let mut seen = 0usize;
    let (a, c) = sweep_blocks(data, below, above, |base, block, offsets| {
        let end = seen + offsets.len();
        while let Some(index) = target.filter(|&index| index < end) {
            let offset = usize::from(offsets[index - seen]);
            sample.push(emit(base + offset, &block[offset]));
            target = sampler.next_index(rng);
        }
        middle.extend(emit_offsets(base, block, offsets, &emit));
        seen = end;
    });
    ((a, seen, c), sample)
}

/// A stable filter over `data` in one branch-free sweep: appends
/// `emit(index, element)` of every element that `keep` accepts to `out`, in
/// data order.
pub fn compact_filter<E, O>(
    data: &[E],
    keep: impl Fn(usize, &E) -> bool,
    emit: impl Fn(usize, &E) -> O,
    out: &mut Vec<O>,
) {
    sweep_blocks(
        data,
        |_, _| false,
        |index, e| !keep(index, e),
        |base, block, offsets| out.extend(emit_offsets(base, block, offsets, &emit)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    fn reference_kth(data: &[u64], k: usize) -> u64 {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        sorted[k]
    }

    #[test]
    fn quickselect_matches_sorting_on_random_inputs() {
        let mut r = rng();
        for n in [1usize, 2, 3, 10, 100, 1000] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..500)).collect();
            for k in [0, n / 3, n / 2, n - 1] {
                let mut copy = data.clone();
                let got = quickselect(&mut copy, k, &mut r);
                assert_eq!(got, reference_kth(&data, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn quickselect_handles_heavy_duplicates() {
        let mut r = rng();
        let data: Vec<u64> = (0..1000).map(|_| r.gen_range(0..5)).collect();
        for k in [0, 250, 500, 999] {
            let mut copy = data.clone();
            assert_eq!(quickselect(&mut copy, k, &mut r), reference_kth(&data, k));
        }
    }

    #[test]
    fn quickselect_on_sorted_and_reversed_inputs() {
        let mut r = rng();
        let asc: Vec<u64> = (0..500).collect();
        let desc: Vec<u64> = (0..500).rev().collect();
        for k in [0, 100, 499] {
            let mut a = asc.clone();
            let mut d = desc.clone();
            assert_eq!(quickselect(&mut a, k, &mut r), k as u64);
            assert_eq!(quickselect(&mut d, k, &mut r), k as u64);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quickselect_rejects_empty_input() {
        let mut r = rng();
        quickselect::<u64, _>(&mut [], 0, &mut r);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn quickselect_rejects_out_of_range_rank() {
        let mut r = rng();
        quickselect(&mut [1u64, 2], 5, &mut r);
    }

    #[test]
    fn floyd_rivest_matches_sorting_on_large_inputs() {
        let mut r = rng();
        for n in [1usize, 10, 600, 601, 5000, 20000] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..1_000_000)).collect();
            for k in [0, n / 4, n / 2, n - 1] {
                let mut copy = data.clone();
                let got = floyd_rivest_select(&mut copy, k, &mut r);
                assert_eq!(got, reference_kth(&data, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn floyd_rivest_handles_duplicates_and_sorted_inputs() {
        let mut r = rng();
        let dup: Vec<u64> = (0..5000).map(|_| r.gen_range(0..7)).collect();
        let sorted: Vec<u64> = (0..5000).collect();
        for k in [0, 1234, 2500, 4999] {
            let mut d = dup.clone();
            assert_eq!(
                floyd_rivest_select(&mut d, k, &mut r),
                reference_kth(&dup, k)
            );
            let mut s = sorted.clone();
            assert_eq!(floyd_rivest_select(&mut s, k, &mut r), k as u64);
        }
    }

    #[test]
    fn partition_three_way_splits_correctly() {
        let data = vec![5u64, 1, 9, 3, 7, 3, 8, 2];
        let (a, b, c) = partition_three_way(&data, &3, &7);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, vec![5, 3, 7, 3]);
        assert_eq!(c, vec![9, 8]);
        assert_eq!(a.len() + b.len() + c.len(), data.len());
    }

    #[test]
    fn partition_three_way_with_equal_pivots() {
        let data = vec![1u64, 2, 2, 3];
        let (a, b, c) = partition_three_way(&data, &2, &2);
        assert_eq!(a, vec![1]);
        assert_eq!(b, vec![2, 2]);
        assert_eq!(c, vec![3]);
    }

    #[test]
    fn partition_three_way_empty_input() {
        let (a, b, c) = partition_three_way::<u64>(&[], &1, &2);
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
    }

    /// Sorted copies of the three ranges an in-place split produced.
    fn sorted_ranges(data: &[u64], lt: usize, gt: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut a = data[..lt].to_vec();
        let mut b = data[lt..gt].to_vec();
        let mut c = data[gt..].to_vec();
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        (a, b, c)
    }

    #[test]
    fn in_place_partition_matches_the_cloning_kernel_as_multisets() {
        let mut r = rng();
        for n in [0usize, 1, 2, 5, 100, 1000] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..50)).collect();
            for (lo, hi) in [(0u64, 49u64), (10, 10), (20, 30), (49, 49), (5, 45)] {
                let (mut ra, mut rb, mut rc) = partition_three_way(&data, &lo, &hi);
                ra.sort_unstable();
                rb.sort_unstable();
                rc.sort_unstable();
                let mut copy = data.clone();
                let (lt, gt) = partition_three_way_in_place(&mut copy, &lo, &hi);
                let (a, b, c) = sorted_ranges(&copy, lt, gt);
                assert_eq!((a, b, c), (ra, rb, rc), "n={n} pivots=({lo},{hi})");
            }
        }
    }

    #[test]
    fn in_place_partition_establishes_the_three_ranges() {
        let mut data = vec![5u64, 1, 9, 3, 7, 3, 8, 2];
        let (lt, gt) = partition_three_way_in_place(&mut data, &3, &7);
        assert_eq!(lt, 2);
        assert_eq!(gt, 6);
        assert!(data[..lt].iter().all(|&e| e < 3));
        assert!(data[lt..gt].iter().all(|&e| (3..=7).contains(&e)));
        assert!(data[gt..].iter().all(|&e| e > 7));
    }

    #[test]
    fn in_place_partition_handles_empty_and_degenerate_inputs() {
        let mut empty: [u64; 0] = [];
        assert_eq!(partition_three_way_in_place(&mut empty, &1, &2), (0, 0));
        let mut all_low = vec![0u64; 8];
        assert_eq!(partition_three_way_in_place(&mut all_low, &5, &9), (8, 8));
        let mut all_high = vec![10u64; 8];
        assert_eq!(partition_three_way_in_place(&mut all_high, &5, &9), (0, 0));
        let mut all_mid = vec![7u64; 8];
        assert_eq!(partition_three_way_in_place(&mut all_mid, &5, &9), (0, 8));
    }

    #[test]
    fn counting_variant_agrees_with_the_cloning_kernel() {
        let mut r = rng();
        for n in [0usize, 1, 17, 500] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..20)).collect();
            for (lo, hi) in [(0u64, 19u64), (7, 7), (3, 15)] {
                let (a, b, c) = partition_three_way(&data, &lo, &hi);
                assert_eq!(
                    partition_three_way_counts(&data, &lo, &hi),
                    (a.len(), b.len(), c.len()),
                    "n={n} pivots=({lo},{hi})"
                );
            }
        }
    }

    /// The compacting sweep must be indistinguishable — counts, sample,
    /// middle range *and* RNG stream — from counting, collecting the middle
    /// range and sampling it with `bernoulli_sample`, for every bracket shape
    /// and across the sweep's block boundaries.  Each element is emitted
    /// with its index, so an index off by a block would show.
    #[test]
    fn counting_sweep_samples_the_middle_like_bernoulli_sample() {
        use crate::sampling::bernoulli_sample;
        let mut r = rng();
        for n in [0usize, 1, 255, 256, 257, 3000] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..1000)).collect();
            let brackets = [
                (Some(250u64), Some(750u64)),
                (Some(500), None),
                (None, Some(20)),
                (None, None),
                (Some(3), Some(3)),
            ];
            for (lo, hi) in brackets {
                let below = |e: u64| lo.is_some_and(|lo| e < lo);
                let above = |e: u64| hi.is_some_and(|hi| e > hi);
                let middle: Vec<(u64, usize)> = (0..n)
                    .map(|i| (data[i], i))
                    .filter(|&(e, _)| !below(e) && !above(e))
                    .collect();
                let a = data.iter().filter(|&&e| below(e)).count();
                let c = data.iter().filter(|&&e| above(e)).count();
                for rho in [0.0, 0.003, 0.1, 0.5, 1.0] {
                    for seed in 0..5u64 {
                        let mut rng_ref = StdRng::seed_from_u64(seed);
                        let sample_ref = bernoulli_sample(&middle, rho, &mut rng_ref);
                        let mut rng_sweep = StdRng::seed_from_u64(seed);
                        let mut compacted = vec![(7, 7)];
                        let got = partition_counts_sample_compact(
                            &data,
                            |_, &e| below(e),
                            |_, &e| above(e),
                            |i, &e| (e, i),
                            rho,
                            &mut rng_sweep,
                            &mut compacted,
                        );
                        let case = format!("n={n} bracket=({lo:?},{hi:?}) rho={rho} seed={seed}");
                        assert_eq!(got, ((a, middle.len(), c), sample_ref), "{case}");
                        assert_eq!(compacted[0], (7, 7), "{case}: appends");
                        assert_eq!(compacted[1..], middle, "{case}");
                        assert_eq!(rng_sweep.gen::<u64>(), rng_ref.gen::<u64>(), "{case}");
                    }
                }
            }
        }
    }

    /// The branch-free filter keeps what `Iterator::filter` keeps, in order,
    /// with each element's index, across block boundaries and for the
    /// all-kept and none-kept extremes.
    #[test]
    fn compact_filter_is_a_stable_filter() {
        let mut r = rng();
        for n in [0usize, 1, 255, 256, 257, 1000] {
            let data: Vec<u64> = (0..n).map(|_| r.gen_range(0..10)).collect();
            for cut in [0u64, 3, 7, 10] {
                let keep = |i: usize, e: &u64| *e < cut || i % 97 == 0;
                let expected: Vec<(usize, u64)> = (0..n)
                    .filter(|&i| keep(i, &data[i]))
                    .map(|i| (i, data[i]))
                    .collect();
                let mut got = Vec::new();
                compact_filter(&data, keep, |i, &e| (i, e), &mut got);
                assert_eq!(got, expected, "n={n} cut={cut}");
            }
        }
    }

    /// The pre-optimisation counting kernel — one data-dependent three-way
    /// branch per element — kept as the reference the branchless
    /// [`partition_three_way_counts`] is tested against.
    fn partition_three_way_counts_branchy<T: Ord>(
        data: &[T],
        lo_pivot: &T,
        hi_pivot: &T,
    ) -> (usize, usize, usize) {
        let (mut a, mut b, mut c) = (0usize, 0usize, 0usize);
        for e in data {
            if e < lo_pivot {
                a += 1;
            } else if e > hi_pivot {
                c += 1;
            } else {
                b += 1;
            }
        }
        (a, b, c)
    }

    #[test]
    fn branchless_counts_match_the_branchy_reference() {
        // Sweep lengths across the unroll boundary (0..=9 covers every
        // remainder class twice) plus larger sizes, on uniform and
        // duplicate-heavy data.
        let mut r = rng();
        for n in (0usize..=9).chain([100, 1023, 1024, 1025]) {
            let uniform: Vec<u64> = (0..n).map(|_| r.gen_range(0..1000)).collect();
            let dupes: Vec<u64> = (0..n).map(|_| r.gen_range(0..3)).collect();
            for data in [&uniform, &dupes] {
                for (lo, hi) in [(0u64, 999u64), (1, 1), (250, 750), (2, 2), (999, 999)] {
                    assert_eq!(
                        partition_three_way_counts(data, &lo, &hi),
                        partition_three_way_counts_branchy(data, &lo, &hi),
                        "n={n} pivots=({lo},{hi})"
                    );
                }
            }
        }
    }
}
