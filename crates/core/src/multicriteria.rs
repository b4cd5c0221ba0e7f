//! Distributed multicriteria top-k (paper §6).
//!
//! `m` criteria each rank the objects by a per-criterion score; the overall
//! relevance of an object is a monotone function `t(x_1, …, x_m)` of its `m`
//! scores, and the task is to find the `k` most relevant objects.  Each PE
//! owns a subset of the objects and holds, for every criterion, a list of its
//! *local* objects sorted by decreasing score — the distributed analogue of
//! the inverted-index lists a search engine keeps.
//!
//! Two algorithms are provided:
//!
//! * [`rdta_top_k`] — for randomly distributed objects (RDTA): every PE runs
//!   the sequential threshold algorithm locally for `k̂ = O(k/p + log p)`
//!   results, the local thresholds are combined with a max-reduction, and the
//!   candidates are verified against the global threshold; on failure `k̂` is
//!   doubled.
//! * [`dta_top_k`] — for arbitrary distribution (DTA, Algorithm 3): an
//!   exponential search guesses the number `K` of list rows the sequential TA
//!   would scan; each guess uses the flexible-`k` multisequence selection of
//!   Section 4.3 to cut every list at (approximately) its globally K-th
//!   largest score, and a small per-PE sample estimates how many objects in
//!   the cut prefixes beat the threshold `t(x_1, …, x_m)`.  Once the estimate
//!   is at least `2k`, the prefixes are scanned and the `k` best hits are
//!   extracted with the unsorted selection algorithm.

use commsim::{Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqkit::threshold::{ObjectId, ScoreList, ThresholdAlgorithm};

use crate::unsorted::select_k_largest_known_total;
use crate::util::{global_min, OrderedF64};

/// One PE's share of a multicriteria workload: `m` local score lists over the
/// objects this PE owns (every list ranks the same local object set).
#[derive(Debug, Clone, Default)]
pub struct LocalMulticriteria {
    /// The local score lists, one per criterion.
    pub lists: Vec<ScoreList>,
}

impl LocalMulticriteria {
    /// Build from per-criterion score lists.
    pub fn new(lists: Vec<ScoreList>) -> Self {
        LocalMulticriteria { lists }
    }

    /// Number of criteria `m`.
    pub fn num_criteria(&self) -> usize {
        self.lists.len()
    }

    /// Exact aggregate score of a locally owned object (random access into
    /// every local list — all of an object's scores live on its owner).
    pub fn aggregate_score<F: Fn(&[f64]) -> f64>(&self, object: ObjectId, score_fn: &F) -> f64 {
        let scores: Vec<f64> = self.lists.iter().map(|l| l.score_of(object)).collect();
        score_fn(&scores)
    }
}

/// Result of a distributed multicriteria top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticriteriaResult {
    /// The `k` most relevant objects with their aggregate scores, sorted by
    /// decreasing score.  Identical on every PE.
    pub items: Vec<(ObjectId, f64)>,
    /// The final threshold `t(x_1, …, x_m)`.
    pub threshold: f64,
    /// DTA: the final per-list prefix parameter `K`; RDTA: the final `k̂`.
    pub scan_parameter: usize,
    /// Number of outer rounds (exponential-search steps / restarts).
    pub rounds: usize,
}

/// Extract the global top-`k` among locally scored candidate objects.
/// Candidates are `(object, aggregate score)` pairs owned by this PE; the
/// result (identical on every PE) is sorted by decreasing score.
fn select_best_candidates<C: Communicator>(
    comm: &C,
    candidates: &[(ObjectId, f64)],
    k: usize,
    seed: u64,
) -> Vec<(ObjectId, f64)> {
    let items: Vec<(OrderedF64, u64)> = candidates
        .iter()
        .map(|&(o, s)| (OrderedF64(s), o))
        .collect();
    let total = comm.allreduce_sum(items.len() as u64) as usize;
    let k = k.min(total);
    if k == 0 {
        return Vec::new();
    }
    let selection = select_k_largest_known_total(comm, &items, total, k, seed);
    let local_top: Vec<(u64, u64)> = selection
        .local_selected
        .into_iter()
        .map(|r| (r.0 .1, r.0 .0 .0.to_bits()))
        .collect();
    let mut all: Vec<(ObjectId, f64)> = comm
        .allgather(local_top)
        .into_iter()
        .flatten()
        .map(|(o, bits)| (o, f64::from_bits(bits)))
        .collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    all
}

/// RDTA: multicriteria top-k for randomly distributed objects.
pub fn rdta_top_k<C, F>(
    comm: &C,
    local: &LocalMulticriteria,
    score_fn: &F,
    k: usize,
    seed: u64,
) -> MulticriteriaResult
where
    C: Communicator,
    F: Fn(&[f64]) -> f64,
{
    assert!(k >= 1, "k must be at least 1");
    let p = comm.size();
    // Balls-into-bins bound: k̂ = O(k/p + log p).
    let mut k_hat = k.div_ceil(p) + (p.max(2) as f64).log2().ceil() as usize + 1;
    let mut rounds = 0usize;
    let total_objects =
        comm.allreduce_sum(local.lists.first().map(|l| l.len() as u64).unwrap_or(0));

    loop {
        rounds += 1;
        // Local sequential TA for the k̂ locally best objects.
        let ta = ThresholdAlgorithm::new(&local.lists, |scores: &[f64]| score_fn(scores));
        let local_result = ta.run(k_hat);
        let local_threshold = OrderedF64(local_result.threshold);
        // Global threshold: no unscanned object anywhere can beat it.
        let global_threshold = comm.allreduce_max(local_threshold).0;

        // Verify: are at least k candidates at or above the global threshold?
        let strong: Vec<(ObjectId, f64)> = local_result
            .top_k
            .iter()
            .copied()
            .filter(|&(_, s)| s >= global_threshold)
            .collect();
        let strong_count = comm.allreduce_sum(strong.len() as u64);
        let candidates_exhausted = (k_hat as u64) * (p as u64) >= total_objects;

        if strong_count >= k as u64 || candidates_exhausted {
            // Enough verified candidates: the k best of *all* candidates are
            // the answer.
            let candidates: Vec<(ObjectId, f64)> = local_result.top_k.clone();
            let items = select_best_candidates(comm, &candidates, k, seed ^ rounds as u64);
            return MulticriteriaResult {
                items,
                threshold: global_threshold,
                scan_parameter: k_hat,
                rounds,
            };
        }
        k_hat *= 2;
    }
}

/// DTA (Algorithm 3): multicriteria top-k for arbitrary object distribution.
pub fn dta_top_k<C, F>(
    comm: &C,
    local: &LocalMulticriteria,
    score_fn: &F,
    k: usize,
    seed: u64,
) -> MulticriteriaResult
where
    C: Communicator,
    F: Fn(&[f64]) -> f64,
{
    assert!(k >= 1, "k must be at least 1");
    let m = local.num_criteria();
    assert!(m >= 1, "need at least one criterion");
    let p = comm.size();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD7A ^ (comm.rank() as u64) << 3);

    // Per-list ascending key views (negated scores) for the flexible-k
    // multisequence selection, and the global list lengths.
    let neg_keys: Vec<Vec<OrderedF64>> = local
        .lists
        .iter()
        .map(|l| {
            let mut keys: Vec<OrderedF64> = l.iter().map(|(_, s)| OrderedF64(-s)).collect();
            keys.sort();
            keys
        })
        .collect();
    let list_totals: Vec<u64> = (0..m)
        .map(|i| comm.allreduce_sum(local.lists[i].len() as u64))
        .collect();
    let max_total = list_totals.iter().copied().max().unwrap_or(0);

    let mut big_k = k.div_ceil(m * p).max(1) as u64;
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        // Cut every list at (approximately) its globally K-th largest score.
        let mut cut_scores = vec![0.0f64; m];
        for i in 0..m {
            let total = list_totals[i];
            if total == 0 {
                cut_scores[i] = 0.0;
                continue;
            }
            if big_k >= total {
                // The whole list is selected: the cut is the globally
                // smallest score of list i.
                let local_min = local.lists[i].iter().map(|(_, s)| OrderedF64(s)).min();
                cut_scores[i] = global_min(comm, local_min).map(|v| v.0).unwrap_or(0.0);
            } else {
                let k_hi = (2 * big_k).min(total);
                let sel = crate::amsselect::approx_multisequence_select(
                    comm,
                    &neg_keys[i],
                    big_k,
                    k_hi,
                    seed ^ (rounds as u64) << 8 ^ i as u64,
                );
                cut_scores[i] = -sel.threshold.0;
            }
        }
        let threshold = {
            let t = score_fn(&cut_scores);
            // All PEs computed the same cut scores, hence the same threshold.
            t
        };

        // Per-PE, per-list hit estimation by sampling (Algorithm 3's inner
        // loop): y = O(log K) samples per list.
        let y = 8 + 2 * (64 - (big_k.max(1)).leading_zeros() as usize);
        let mut local_hit_estimate = 0.0f64;
        let mut exact_local_hits = 0u64;
        let mut prefixes: Vec<&[(ObjectId, f64)]> = Vec::with_capacity(m);
        for (list, &cut) in local.lists.iter().zip(&cut_scores).take(m) {
            prefixes.push(list.prefix_at_least(cut));
        }
        for (i, &prefix) in prefixes.iter().enumerate() {
            if prefix.is_empty() {
                continue;
            }
            let mut rejected = 0usize;
            let mut hits = 0usize;
            for _ in 0..y {
                let (object, _) = prefix[rng.gen_range(0..prefix.len())];
                // Reject the sample if the object already appears in an
                // earlier list's prefix (avoids double counting).
                let duplicate = (0..i).any(|j| local.lists[j].score_of(object) >= cut_scores[j]);
                if duplicate {
                    rejected += 1;
                } else if local.aggregate_score(object, score_fn) >= threshold {
                    hits += 1;
                }
            }
            local_hit_estimate +=
                prefix.len() as f64 * (1.0 - rejected as f64 / y as f64) * (hits as f64 / y as f64);
            // Exact local hits (used for the robust termination check below;
            // the prefixes are short, so this is cheap).
            for &(object, _) in prefix {
                let duplicate = (0..i).any(|j| local.lists[j].score_of(object) >= cut_scores[j]);
                if !duplicate && local.aggregate_score(object, score_fn) >= threshold {
                    exact_local_hits += 1;
                }
            }
        }
        let estimated_hits = comm
            .allreduce(
                OrderedF64(local_hit_estimate),
                ReduceOp::custom(|a: &OrderedF64, b: &OrderedF64| OrderedF64(a.0 + b.0)),
            )
            .0;
        let exact_hits = comm.allreduce_sum(exact_local_hits);

        let exhausted = big_k >= max_total;
        if exhausted || (estimated_hits >= 2.0 * k as f64 && exact_hits >= k as u64) {
            // Extraction: collect this PE's hits and select the global top-k.
            let mut candidates: Vec<(ObjectId, f64)> = Vec::new();
            let mut seen: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
            for prefix in &prefixes {
                for &(object, _) in *prefix {
                    if seen.insert(object) {
                        let score = local.aggregate_score(object, score_fn);
                        if score >= threshold || exhausted {
                            candidates.push((object, score));
                        }
                    }
                }
            }
            let items = select_best_candidates(comm, &candidates, k, seed ^ 0xD7B);
            return MulticriteriaResult {
                items,
                threshold,
                scan_parameter: big_k as usize,
                rounds,
            };
        }
        big_k *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;
    use datagen::MulticriteriaWorkload;
    use seqkit::threshold::exhaustive_top_k;

    fn additive(scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    /// Build the reference answer from the union of all lists.
    fn reference_top_k(workload: &MulticriteriaWorkload, k: usize) -> Vec<ObjectId> {
        let lists = workload.global_lists();
        exhaustive_top_k(&lists, additive, k)
            .into_iter()
            .map(|(o, _)| o)
            .collect()
    }

    fn run_dta(workload: &MulticriteriaWorkload, p: usize, k: usize) -> Vec<MulticriteriaResult> {
        let per_pe = workload.local_lists(p);
        run_spmd(p, move |comm| {
            let local = LocalMulticriteria::new(per_pe[comm.rank()].clone());
            dta_top_k(comm, &local, &additive, k, 7)
        })
        .into_results()
    }

    fn run_rdta(workload: &MulticriteriaWorkload, p: usize, k: usize) -> Vec<MulticriteriaResult> {
        let per_pe = workload.local_lists(p);
        run_spmd(p, move |comm| {
            let local = LocalMulticriteria::new(per_pe[comm.rank()].clone());
            rdta_top_k(comm, &local, &additive, k, 7)
        })
        .into_results()
    }

    #[test]
    fn dta_matches_the_exhaustive_answer() {
        for (objects, criteria, correlation) in
            [(300usize, 3usize, 0.6), (500, 2, 0.0), (200, 4, 1.0)]
        {
            let w = MulticriteriaWorkload::new(objects, criteria, correlation, 11);
            let want = reference_top_k(&w, 8);
            let results = run_dta(&w, 4, 8);
            for r in &results {
                let got: Vec<ObjectId> = r.items.iter().map(|&(o, _)| o).collect();
                assert_eq!(
                    got, want,
                    "objects={objects} m={criteria} corr={correlation}"
                );
            }
        }
    }

    #[test]
    fn rdta_matches_the_exhaustive_answer() {
        // The round-robin object placement of the generator is a random-like
        // distribution, which is RDTA's assumption.
        for correlation in [0.0, 0.5, 1.0] {
            let w = MulticriteriaWorkload::new(400, 3, correlation, 3);
            let want = reference_top_k(&w, 10);
            let results = run_rdta(&w, 4, 10);
            for r in &results {
                let got: Vec<ObjectId> = r.items.iter().map(|&(o, _)| o).collect();
                assert_eq!(got, want, "correlation={correlation}");
            }
        }
    }

    #[test]
    fn reported_scores_are_the_exact_aggregates() {
        let w = MulticriteriaWorkload::new(250, 3, 0.4, 17);
        let lists = w.global_lists();
        let results = run_dta(&w, 3, 5);
        for r in &results {
            for &(o, s) in &r.items {
                let exact: f64 = lists.iter().map(|l| l.score_of(o)).sum();
                assert!((s - exact).abs() < 1e-9, "object {o}: {s} vs {exact}");
            }
        }
    }

    #[test]
    fn single_pe_degenerates_to_the_sequential_answer() {
        let w = MulticriteriaWorkload::new(150, 3, 0.3, 23);
        let want = reference_top_k(&w, 6);
        for r in run_dta(&w, 1, 6) {
            let got: Vec<ObjectId> = r.items.iter().map(|&(o, _)| o).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn k_larger_than_object_count_returns_everything_ranked() {
        let w = MulticriteriaWorkload::new(20, 2, 0.5, 29);
        let results = run_dta(&w, 4, 50);
        for r in &results {
            assert_eq!(r.items.len(), 20);
            // Sorted by decreasing score.
            assert!(r.items.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }

    #[test]
    fn dta_scans_only_a_prefix_on_correlated_inputs() {
        // With correlated scores the top objects are at the top of every
        // list, so the exponential search stops at a small K.
        let w = MulticriteriaWorkload::new(2000, 3, 0.9, 31);
        let results = run_dta(&w, 4, 8);
        for r in &results {
            assert!(
                r.scan_parameter < 2000 / 4,
                "DTA scanned K = {} rows of 2000-object lists",
                r.scan_parameter
            );
        }
    }

    #[test]
    fn communication_stays_small_even_for_large_object_counts() {
        let w = MulticriteriaWorkload::new(4000, 3, 0.7, 37);
        let p = 4;
        let per_pe = w.local_lists(p);
        let out = run_spmd(p, move |comm| {
            let local = LocalMulticriteria::new(per_pe[comm.rank()].clone());
            let before = comm.stats_snapshot();
            let _ = dta_top_k(comm, &local, &additive, 8, 3);
            comm.stats_snapshot().since(&before).bottleneck_words()
        });
        for &words in &out.results {
            assert!(
                words < 4000,
                "DTA moved {words} words for a 4000-object workload"
            );
        }
    }

    #[test]
    fn local_multicriteria_helpers() {
        let lists = vec![
            ScoreList::new(vec![(1, 0.5), (2, 0.9)]),
            ScoreList::new(vec![(1, 0.3), (2, 0.1)]),
        ];
        let local = LocalMulticriteria::new(lists);
        assert_eq!(local.num_criteria(), 2);
        assert!((local.aggregate_score(1, &additive) - 0.8).abs() < 1e-12);
        assert!((local.aggregate_score(42, &additive) - 0.0).abs() < 1e-12);
    }
}
