//! Workload generator for the multicriteria top-k algorithms (paper §6).
//!
//! The scenario the paper motivates is a full-text search engine: `m`
//! keywords (criteria), each with a per-object relevance score, objects
//! distributed over the PEs, and each PE holding, for every criterion, a list
//! of its *local* objects sorted by decreasing score.  This generator builds
//! such a workload with controllable correlation between criteria: with
//! correlation 1 the same objects score high everywhere (easy for TA — it
//! stops early); with correlation 0 the criteria are independent (TA has to
//! scan deep).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqkit::threshold::{ObjectId, ScoreList};

/// Generator for distributed multicriteria score lists.
#[derive(Debug, Clone)]
pub struct MulticriteriaWorkload {
    /// Total number of distinct objects.
    pub num_objects: usize,
    /// Number of criteria (score lists), the paper's `m`.
    pub num_criteria: usize,
    /// Correlation in `[0, 1]` between an object's scores across criteria.
    pub correlation: f64,
    /// Base seed.
    pub seed: u64,
}

impl MulticriteriaWorkload {
    /// Create a workload description.
    pub fn new(num_objects: usize, num_criteria: usize, correlation: f64, seed: u64) -> Self {
        assert!(
            num_objects > 0 && num_criteria > 0,
            "need objects and criteria"
        );
        assert!(
            (0.0..=1.0).contains(&correlation),
            "correlation must be in [0, 1]"
        );
        MulticriteriaWorkload {
            num_objects,
            num_criteria,
            correlation,
            seed,
        }
    }

    /// Scores of every object in every criterion: `scores[c][o]` is the score
    /// of object `o` under criterion `c`, each in `(0, 1)`.
    fn global_scores(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // A latent "quality" per object drives the correlated part.
        let quality: Vec<f64> = (0..self.num_objects).map(|_| rng.gen::<f64>()).collect();
        (0..self.num_criteria)
            .map(|_| {
                (0..self.num_objects)
                    .map(|o| {
                        let independent: f64 = rng.gen();
                        let s =
                            self.correlation * quality[o] + (1.0 - self.correlation) * independent;
                        // Keep scores strictly positive so "missing" (score 0)
                        // stays distinguishable.
                        s.max(1e-9)
                    })
                    .collect()
            })
            .collect()
    }

    /// The *global* score lists (one per criterion), as a sequential TA
    /// baseline input.
    pub fn global_lists(&self) -> Vec<ScoreList> {
        let scores = self.global_scores();
        scores
            .iter()
            .map(|per_object| {
                ScoreList::new(
                    per_object
                        .iter()
                        .enumerate()
                        .map(|(o, &s)| (o as ObjectId, s))
                        .collect(),
                )
            })
            .collect()
    }

    /// Assign objects to PEs round-robin and return, for every PE, its `m`
    /// *local* score lists (each sorted by decreasing score, as the
    /// distributed algorithm requires).
    ///
    /// Returns `per_pe[pe][criterion]`.
    pub fn local_lists(&self, num_pes: usize) -> Vec<Vec<ScoreList>> {
        assert!(num_pes > 0);
        let scores = self.global_scores();
        (0..num_pes)
            .map(|pe| {
                scores
                    .iter()
                    .map(|per_object| {
                        ScoreList::new(
                            per_object
                                .iter()
                                .enumerate()
                                .filter(|(o, _)| o % num_pes == pe)
                                .map(|(o, &s)| (o as ObjectId, s))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// The additive scoring function `t(x_1, …, x_m) = Σ x_i` used throughout
    /// the experiments (any monotone function works for the algorithms).
    pub fn additive_score(scores: &[f64]) -> f64 {
        scores.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqkit::threshold::exhaustive_top_k;

    #[test]
    fn global_scores_have_the_right_shape() {
        let w = MulticriteriaWorkload::new(100, 3, 0.5, 1);
        let scores = w.global_scores();
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|c| c.len() == 100));
        assert!(scores.iter().flatten().all(|&s| s > 0.0 && s <= 1.0));
    }

    #[test]
    fn generation_is_reproducible() {
        let w = MulticriteriaWorkload::new(50, 2, 0.3, 7);
        assert_eq!(w.global_scores(), w.global_scores());
    }

    #[test]
    fn full_correlation_makes_criteria_agree() {
        let w = MulticriteriaWorkload::new(200, 4, 1.0, 3);
        let lists = w.global_lists();
        // With correlation 1 every criterion ranks objects identically, so
        // the top object of every list is the same.
        let tops: Vec<ObjectId> = lists.iter().map(|l| l.get(0).unwrap().0).collect();
        assert!(tops.iter().all(|&o| o == tops[0]), "tops: {tops:?}");
    }

    #[test]
    fn zero_correlation_gives_diverse_tops() {
        let w = MulticriteriaWorkload::new(500, 4, 0.0, 3);
        let lists = w.global_lists();
        let tops: Vec<ObjectId> = lists.iter().map(|l| l.get(0).unwrap().0).collect();
        // Extremely unlikely that four independent criteria all share the
        // same best object out of 500.
        assert!(tops.iter().any(|&o| o != tops[0]), "tops: {tops:?}");
    }

    #[test]
    fn local_lists_partition_the_objects() {
        let w = MulticriteriaWorkload::new(100, 2, 0.5, 11);
        let per_pe = w.local_lists(4);
        assert_eq!(per_pe.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for (pe, lists) in per_pe.iter().enumerate() {
            assert_eq!(lists.len(), 2);
            for (o, _) in lists[0].iter() {
                assert_eq!(o as usize % 4, pe, "object {o} on wrong PE");
                assert!(seen.insert(o));
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn union_of_local_lists_matches_global_ranking() {
        let w = MulticriteriaWorkload::new(120, 3, 0.4, 13);
        let global = w.global_lists();
        let per_pe = w.local_lists(3);
        // Reconstruct global top-5 from the union of local lists and compare
        // with the global lists' answer.
        let mut union_entries: Vec<Vec<(ObjectId, f64)>> = vec![Vec::new(); 3];
        for lists in &per_pe {
            for (c, list) in lists.iter().enumerate() {
                union_entries[c].extend(list.iter());
            }
        }
        let union_lists: Vec<ScoreList> = union_entries.into_iter().map(ScoreList::new).collect();
        let a = exhaustive_top_k(&global, MulticriteriaWorkload::additive_score, 5);
        let b = exhaustive_top_k(&union_lists, MulticriteriaWorkload::additive_score, 5);
        let ids_a: Vec<ObjectId> = a.iter().map(|&(o, _)| o).collect();
        let ids_b: Vec<ObjectId> = b.iter().map(|&(o, _)| o).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn invalid_correlation_is_rejected() {
        let _ = MulticriteriaWorkload::new(10, 2, 1.5, 0);
    }
}
