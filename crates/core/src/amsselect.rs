//! Approximate multisequence selection with flexible `k`
//! (paper §4.3, Algorithm 2, Theorem 3).
//!
//! When the caller is willing to accept any number of selected elements
//! between `k̲` and `k̄`, the `O(α log² kp)` latency of exact multisequence
//! selection drops to `O(α log kp)`.  The idea: a Bernoulli sample of the
//! input with success probability `ρ ≈ 1/x` has, as its smallest element, a
//! truthful estimator for an element of rank `x`; on locally sorted data the
//! local rank of the smallest local sample is geometrically distributed and
//! can be generated in constant time, and a minimum reduction yields the
//! global estimate.  One exact counting step (binary search + sum reduction)
//! verifies whether the estimate's rank landed inside `k̲..k̄`; if not, the
//! algorithm recurses on the narrowed range exactly like quickselect.

use commsim::{CommData, Communicator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::sampling::geometric_deviate;

use crate::util::{global_max, global_min};

/// Result of an approximate multisequence selection.
#[derive(Debug, Clone)]
pub struct AmsSelectResult<T> {
    /// The selection threshold `v`: all elements `≤ v` are selected.
    pub threshold: T,
    /// Global number of selected elements (`k̲ ≤ selected ≤ k̄` on success).
    pub selected: u64,
    /// Number of *local* selected elements (the prefix length `j`).
    pub local_count: usize,
    /// Number of estimation rounds used.
    pub rounds: usize,
}

/// Bernoulli success probability of the min-based estimator (the paper's
/// sampling-rate formula in Algorithm 2): `ρ = 1 − ((k̲−1)/k̄)^{1/(k̄−k̲+1)}`.
///
/// This is the `ρ` that maximises
/// `P[rank of the smallest sample ∈ k̲..k̄] = (1−ρ)^{k̲−1} − (1−ρ)^{k̄}`:
/// setting the derivative to zero gives `(1−ρ)^{k̄−k̲+1} = (k̲−1)/k̄`.
fn min_estimator_probability(k_lo: u64, k_hi: u64) -> f64 {
    debug_assert!(k_lo >= 1 && k_hi >= k_lo);
    if k_lo == 1 {
        // (k̲−1)/k̄ = 0: sample everything; the minimum is the rank-1 element.
        return 1.0;
    }
    let base = (k_lo as f64 - 1.0) / k_hi as f64;
    let exponent = 1.0 / ((k_hi - k_lo + 1) as f64);
    (1.0 - base.powf(exponent)).clamp(f64::MIN_POSITIVE, 1.0)
}

/// Success probability of the dual, max-based estimator used when the target
/// rank is close to the total size `n` (the rank counted from the top lies in
/// `n−k̄+1 .. n−k̲+1`): `ρ = 1 − ((n−k̄)/(n−k̲+1))^{1/(k̄−k̲+1)}`.
fn max_estimator_probability(k_lo: u64, k_hi: u64, n: u64) -> f64 {
    debug_assert!(k_hi <= n);
    if k_hi == n {
        return 1.0;
    }
    let base = (n - k_hi) as f64 / (n - k_lo + 1) as f64;
    let exponent = 1.0 / ((k_hi - k_lo + 1) as f64);
    (1.0 - base.powf(exponent)).clamp(f64::MIN_POSITIVE, 1.0)
}

/// Select between `k̲` and `k̄` globally smallest elements from locally sorted
/// sequences (the paper's `amsSelect`, Algorithm 2).
///
/// Returns the threshold `v` and the per-PE prefix length `j` such that the
/// selected set is exactly the elements `≤ v`; their global count lies in
/// `k̲..=k̄`.
///
/// # Panics
///
/// Panics if `k̲ < 1`, `k̲ > k̄`, or `k̄` exceeds the global input size.
pub fn approx_multisequence_select<C, T>(
    comm: &C,
    sorted_local: &[T],
    k_lo: u64,
    k_hi: u64,
    seed: u64,
) -> AmsSelectResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    let total = comm.allreduce_sum(sorted_local.len() as u64);
    approx_multisequence_select_known_total(comm, sorted_local, total, k_lo, k_hi, seed)
}

/// [`approx_multisequence_select`] for callers that have already agreed on
/// `total = Σ|local|` (it must be that sum, identical on every PE): the
/// estimation rounds without the entry's size all-reduction.
pub(crate) fn approx_multisequence_select_known_total<C, T>(
    comm: &C,
    sorted_local: &[T],
    total: u64,
    k_lo: u64,
    k_hi: u64,
    seed: u64,
) -> AmsSelectResult<T>
where
    C: Communicator,
    T: Ord + Clone + CommData,
{
    debug_assert!(
        sorted_local.windows(2).all(|w| w[0] <= w[1]),
        "approx_multisequence_select requires locally sorted input"
    );
    assert!(k_lo >= 1, "k_lo must be at least 1");
    assert!(k_lo <= k_hi, "k_lo must not exceed k_hi");
    assert!(
        k_hi <= total,
        "k_hi = {k_hi} exceeds the global input size {total}"
    );

    let mut rng = StdRng::seed_from_u64(seed ^ (0xA5A5_0000 + comm.rank() as u64));
    // Current search window per PE and the target band relative to it.
    let mut lo = 0usize;
    let mut hi = sorted_local.len();
    let mut base_selected = 0u64; // elements already committed (left of window)
    let mut k_lo = k_lo;
    let mut k_hi = k_hi;
    let mut n = total;
    let mut rounds = 0usize;
    // Safety cap (expected constant number of rounds).
    let max_rounds = 64 + 2 * (64 - total.leading_zeros() as usize);

    loop {
        rounds += 1;
        let window = &sorted_local[lo..hi];

        // Estimator choice (as in Algorithm 2): min-based when the target is
        // in the lower half of the remaining range, max-based otherwise (the
        // recursion can push the target close to the remaining size n).
        let (v, k): (Option<T>, u64) = if k_lo <= n.saturating_sub(k_hi) {
            // Min-based estimator.
            let rho = min_estimator_probability(k_lo, k_hi);
            let x = geometric_deviate(rho, &mut rng);
            let candidate = if x as usize > window.len() {
                None
            } else {
                Some(window[x as usize - 1].clone())
            };
            let v = global_min(comm, candidate);
            let j = v
                .as_ref()
                .map(|v| window.partition_point(|e| e <= v))
                .unwrap_or(window.len());
            let k = comm.allreduce_sum(j as u64);
            (v, k)
        } else {
            // Max-based estimator (dual).
            let rho = max_estimator_probability(k_lo, k_hi, n);
            let x = geometric_deviate(rho, &mut rng);
            let candidate = if x as usize > window.len() {
                None
            } else {
                Some(window[window.len() - x as usize].clone())
            };
            let v = global_max(comm, candidate);
            let j = v
                .as_ref()
                .map(|v| window.partition_point(|e| e <= v))
                .unwrap_or(0);
            let k = comm.allreduce_sum(j as u64);
            (v, k)
        };

        // No PE drew a sample inside its window (possible when the windows
        // are tiny); retry — the geometric deviates are independent across
        // rounds.
        let v = match v {
            Some(v) => v,
            None => {
                if rounds > max_rounds {
                    // Fall back to everything ≤ the global max of the window:
                    // select the whole window.
                    let local_max = window.last().cloned();
                    let v = global_max(comm, local_max).expect("non-empty global window");
                    let j = window.partition_point(|e| e <= &v);
                    let k = comm.allreduce_sum(j as u64);
                    return AmsSelectResult {
                        threshold: v,
                        selected: base_selected + k,
                        local_count: lo + j,
                        rounds,
                    };
                }
                continue;
            }
        };
        let j = window.partition_point(|e| e <= &v);

        if k < k_lo && rounds <= max_rounds {
            // Too few: commit the prefix and search the remainder.
            base_selected += k;
            lo += j;
            k_lo -= k;
            k_hi -= k;
            n -= k;
        } else if k > k_hi && rounds <= max_rounds {
            // Too many: search inside the selected prefix.
            hi = lo + j;
            n = k;
        } else {
            return AmsSelectResult {
                threshold: v,
                selected: base_selected + k,
                local_count: lo + j,
                rounds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use rand::Rng;

    fn sorted_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                let mut v: Vec<u64> = (0..per_pe).map(|_| rng.gen_range(0..max)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// Count how many elements of the whole input are ≤ v.
    fn global_rank(parts: &[Vec<u64>], v: u64) -> u64 {
        parts.iter().flatten().filter(|&&x| x <= v).count() as u64
    }

    #[test]
    fn selected_count_lands_in_the_band() {
        for p in [1usize, 2, 4, 8] {
            let parts = sorted_parts(p, 400, 1 << 20, 3);
            let total = (400 * p) as u64;
            for (k_lo, k_hi) in [
                (1u64, 8u64),
                (10, 20),
                (100, 200),
                (total / 2, total / 2 + total / 4),
            ] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    approx_multisequence_select(comm, &parts_ref[comm.rank()], k_lo, k_hi, 11)
                });
                let selected = out.results[0].selected;
                assert!(
                    selected >= k_lo && selected <= k_hi,
                    "p={p} band=({k_lo},{k_hi}): selected {selected}"
                );
                // Consistency: selected == number of elements ≤ threshold.
                let v = out.results[0].threshold;
                assert_eq!(global_rank(&parts, v), selected);
                // Local counts sum to the global count.
                let sum: u64 = out.results.iter().map(|r| r.local_count as u64).sum();
                assert_eq!(sum, selected);
            }
        }
    }

    #[test]
    fn high_band_near_n_uses_the_max_estimator() {
        let p = 4;
        let parts = sorted_parts(p, 300, 10_000, 5);
        let total = (300 * p) as u64;
        let (k_lo, k_hi) = (total - 50, total - 10);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            approx_multisequence_select(comm, &parts_ref[comm.rank()], k_lo, k_hi, 7)
        });
        let selected = out.results[0].selected;
        assert!(selected >= k_lo && selected <= k_hi, "selected {selected}");
    }

    #[test]
    fn wide_band_takes_few_rounds() {
        let p = 8;
        let parts = sorted_parts(p, 1_000, 1 << 30, 9);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            // k̄ = 2k̲: the paper's "flexible k" regime.
            approx_multisequence_select(comm, &parts_ref[comm.rank()], 500, 1000, 13).rounds
        });
        // Expected O(1) rounds; allow a generous margin.
        assert!(
            out.results.iter().all(|&r| r <= 20),
            "rounds: {:?}",
            out.results
        );
    }

    #[test]
    fn tight_band_with_duplicates_still_terminates() {
        let p = 3;
        let parts: Vec<Vec<u64>> = (0..p).map(|_| vec![1u64; 50]).collect();
        // With all-equal values any threshold selects everything, so the only
        // feasible band containing a reachable count is [150, 150].
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            approx_multisequence_select(comm, &parts_ref[comm.rank()], 1, 150, 3)
        });
        assert_eq!(out.results[0].selected, 150);
    }

    #[test]
    fn latency_is_logarithmic_volume_small() {
        let p = 16;
        let parts = sorted_parts(p, 1_000, 1 << 30, 41);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = approx_multisequence_select(comm, &parts_ref[comm.rank()], 2000, 4000, 19);
            comm.stats_snapshot().since(&before)
        });
        for snap in &out.results {
            assert!(
                snap.bottleneck_words() < 500,
                "volume {}",
                snap.bottleneck_words()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the global input size")]
    fn single_rejects_oversized_band() {
        run_spmd(1, |comm| {
            let local: Vec<u64> = (0..10).collect();
            approx_multisequence_select(comm, &local, 1, 100, 0)
        });
    }
}
