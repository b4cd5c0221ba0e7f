//! Distributed multicriteria top-k (paper §6).
//!
//! `m` criteria each rank the objects by a per-criterion score; the overall
//! relevance of an object is a monotone function `t(x_1, …, x_m)` of its `m`
//! scores, and the task is to find the `k` most relevant objects.  Each PE
//! owns a subset of the objects and holds, for every criterion, a list of its
//! *local* objects sorted by decreasing score — the distributed analogue of
//! the inverted-index lists a search engine keeps.
//!
//! Objects rank by `Reverse((score, object))`: the higher score first, and
//! the larger id first at a tie — the order of §7's top-k merge, which
//! [`seqkit::threshold`]'s TA and its exhaustive oracle use as well.
//!
//! Two algorithms are provided:
//!
//! * [`rdta_top_k`] — for randomly distributed objects (RDTA): every PE runs
//!   the sequential threshold algorithm locally for its `k̂ = O(k/p + log p)`
//!   best objects.  A PE that holds objects beyond those `k̂` bounds them by
//!   its `k̂`-th candidate's score, and one maximum-reduction makes the
//!   largest such score the global bound.  Once at least `k` candidates lie
//!   strictly above it, or no PE holds an unreported object, the candidates
//!   contain the answer; otherwise `k̂` doubles.
//! * [`dta_top_k`] — for arbitrary distribution (DTA, Algorithm 3): an
//!   exponential search guesses the number `K` of list rows the sequential TA
//!   would scan; each guess uses the flexible-`k` multisequence selection of
//!   Section 4.3 to cut every list at (approximately) its globally K-th
//!   largest score.  An object outside every cut prefix scores at most
//!   `t(x_1, …, x_m)` of the cut scores — TA's bound — so the search stops
//!   as soon as the prefixes hold at least `k` objects scoring strictly
//!   above it, a count every PE takes exactly on its own prefixes and one
//!   sum-reduction adds up, or once every list is cut whole.
//!
//! Both end in §7's top-k merge ([`select_top_counts`]) over the PEs'
//! candidates: `⌈log₂ p⌉` exchanges of at most `k` `(object, score key)`
//! entries, the score key being [`OrderedF64`]'s order-preserving map to
//! `u64`.  Every object has one owner, so the merge's duplicate rule is
//! exact.

use std::collections::{HashMap, HashSet};

use commsim::Communicator;
use seqkit::threshold::{ObjectId, ScoreList, ThresholdAlgorithm};

use crate::amsselect::approx_multisequence_select_known_total;
use crate::frequent::select_top_counts;
use crate::util::{global_max, global_min, OrderedF64};

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
    /// The `k` most relevant objects with their aggregate scores, in the
    /// order `Reverse((score, object))`: decreasing score, the larger id
    /// first at a tie.  Identical on every PE.
    pub items: Vec<(ObjectId, f64)>,
    /// DTA: the final threshold `t(x_1, …, x_m)` of the cut scores.  RDTA:
    /// the verified bound, the largest `k̂`-th candidate score of a PE that
    /// holds unreported objects (`−∞` once no PE does).  No object outside
    /// the candidates scores above it.
    pub threshold: f64,
    /// DTA: the final per-list prefix parameter `K`; RDTA: the final `k̂`.
    pub scan_parameter: usize,
    /// Number of outer rounds (exponential-search steps / restarts).
    pub rounds: usize,
}

/// The global top-`k` of the PEs' candidates, identical on every PE: §7's
/// top-k merge ([`select_top_counts`]) over `(object, score key)` entries,
/// decoded back to scores.
fn merge_candidates<C: Communicator>(
    comm: &C,
    candidates: &[(ObjectId, f64)],
    k: usize,
) -> Vec<(ObjectId, f64)> {
    let keyed: HashMap<ObjectId, u64> = candidates
        .iter()
        .map(|&(object, score)| (object, OrderedF64(score).key()))
        .collect();
    select_top_counts(comm, &keyed, k)
        .into_iter()
        .map(|(object, key)| (object, OrderedF64::from_key(key).0))
        .collect()
}

/// RDTA: multicriteria top-k for randomly distributed objects.
pub fn rdta_top_k<C, F>(
    comm: &C,
    local: &LocalMulticriteria,
    score_fn: &F,
    k: usize,
) -> MulticriteriaResult
where
    C: Communicator,
    F: Fn(&[f64]) -> f64,
{
    assert!(k >= 1, "k must be at least 1");
    let p = comm.size();
    // Balls-into-bins bound: k̂ = O(k/p + log p).
    let mut k_hat = k.div_ceil(p) + (p.max(2) as f64).log2().ceil() as usize + 1;
    // Every list ranks the same local objects.
    let local_objects = local.lists.iter().map(ScoreList::len).max().unwrap_or(0);
    let ta = ThresholdAlgorithm::new(&local.lists, |scores: &[f64]| score_fn(scores));
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        // The k̂ locally best objects; every other local object scores at
        // most the k̂-th one.
        let candidates = ta.run(k_hat).top_k;
        let unreported = candidates
            .last()
            .filter(|_| local_objects > candidates.len())
            .map(|&(_, score)| OrderedF64(score));
        let bound = global_max(comm, unreported).map(|b| b.0);
        // Verified once k candidates beat every unreported object.
        let verified = bound.is_none_or(|bound| {
            let above = candidates.iter().filter(|&&(_, s)| s > bound).count();
            comm.allreduce_sum(above as u64) >= k as u64
        });
        if verified {
            return MulticriteriaResult {
                items: merge_candidates(comm, &candidates, k),
                threshold: bound.unwrap_or(f64::NEG_INFINITY),
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
    let list_totals = comm.allreduce_vec_sum(local.lists.iter().map(|l| l.len() as u64).collect());
    let max_total = list_totals.iter().copied().max().unwrap_or(0);

    let mut big_k = k.div_ceil(m * p).max(1) as u64;
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        // Cut every list at (approximately) its globally K-th largest score.
        let cut_scores: Vec<f64> = (0..m)
            .map(|i| {
                let total = list_totals[i];
                if total == 0 {
                    0.0
                } else if big_k >= total {
                    // The whole list is selected: the cut is the globally
                    // smallest score of list i.
                    let local_min = local.lists[i].iter().map(|(_, s)| OrderedF64(s)).min();
                    global_min(comm, local_min).map_or(0.0, |v| v.0)
                } else {
                    let sel = approx_multisequence_select_known_total(
                        comm,
                        &neg_keys[i],
                        total,
                        big_k,
                        (2 * big_k).min(total),
                        seed ^ (rounds as u64) << 8 ^ i as u64,
                    );
                    -sel.threshold.0
                }
            })
            .collect();
        // All PEs computed the same cut scores, hence the same threshold.
        let threshold = score_fn(&cut_scores);
        let exhausted = big_k >= max_total;

        // This PE's hits: the distinct objects of its cut prefixes that
        // score strictly above the threshold, or all of them once every
        // list is cut whole.
        let mut seen = HashSet::new();
        let hits: Vec<(ObjectId, f64)> = local
            .lists
            .iter()
            .zip(&cut_scores)
            .flat_map(|(list, &cut)| list.prefix_at_least(cut))
            .filter(|&&(object, _)| seen.insert(object))
            .map(|&(object, _)| (object, local.aggregate_score(object, score_fn)))
            .filter(|&(_, score)| exhausted || score > threshold)
            .collect();
        if exhausted || comm.allreduce_sum(hits.len() as u64) >= k as u64 {
            return MulticriteriaResult {
                items: merge_candidates(comm, &hits, k),
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
            rdta_top_k(comm, &local, &additive, k)
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
