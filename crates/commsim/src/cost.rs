//! The α/β communication cost model.
//!
//! Following the paper's Section 2, sending a message of `m` machine words
//! takes time `α + mβ` where `α` is the start-up overhead and `β` the time
//! per word.  A running time of `O(x + βy + αz)` therefore separates internal
//! work `x`, communication volume `y` and latency `z`.  [`CostModel`] turns
//! the metered counters of a run ([`crate::WorldStats`]) into such a modeled
//! cost, which is what the Table 1 experiments report alongside wall time.
//!
//! The [`predict`] submodule goes the other way: closed-form *predictions*
//! of the per-PE bottleneck words and start-ups of each collective, matching
//! the collectives of [`crate::Communicator`] (binomial trees, the
//! dissemination all-gather, direct vs hypercube all-to-all).  The
//! cost-model planner (`topk::planner`) composes these per-collective
//! [`PredictedComm`] terms into per-algorithm predictions and audits them
//! against the metered counters.

use crate::metrics::{StatsSnapshot, WorldStats};

/// A closed-form prediction of one PE's bottleneck communication: the
/// analytic analogue of [`StatsSnapshot::bottleneck_words`] /
/// [`StatsSnapshot::bottleneck_messages`] for the busiest PE.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictedComm {
    /// Predicted bottleneck words per PE (`max(sent, received)` at the
    /// busiest PE).
    pub words: f64,
    /// Predicted bottleneck message start-ups per PE.
    pub startups: f64,
}

impl PredictedComm {
    /// A prediction with explicit terms.
    pub fn new(words: f64, startups: f64) -> Self {
        Self { words, startups }
    }

    /// Sequential composition: both phases are paid in full.
    pub fn plus(self, other: PredictedComm) -> Self {
        Self {
            words: self.words + other.words,
            startups: self.startups + other.startups,
        }
    }

    /// Scale both terms (e.g. a phase executed `f` times).
    pub fn scaled(self, f: f64) -> Self {
        Self {
            words: self.words * f,
            startups: self.startups * f,
        }
    }
}

/// Closed-form per-collective bottleneck predictions.
///
/// Every function returns the [`PredictedComm`] of the *busiest* PE (usually
/// the root of the binomial tree), matching what
/// [`StatsSnapshot::bottleneck_words`] meters, for the implementations of
/// [`crate::Communicator`]'s collectives.  `m` arguments count payload
/// machine words as the codec sends them (`Vec` payloads pay one extra
/// length word, which the caller includes).
pub mod predict {
    use super::PredictedComm;
    use crate::topology::dissemination_rounds;

    /// `ceil(log2 p)` as a float — the round count of every binomial-tree
    /// and dissemination collective.
    pub fn rounds(p: usize) -> f64 {
        dissemination_rounds(p) as f64
    }

    /// Binomial-tree broadcast of an `m`-word payload: the root sends one
    /// copy to each of its `ceil(log2 p)` children.
    pub fn broadcast(p: usize, m: f64) -> PredictedComm {
        let l = rounds(p);
        PredictedComm::new(l * m, l)
    }

    /// Binomial-tree reduction of an `m`-word payload (constant-size partial
    /// results): the root receives one partial per child.
    pub fn reduce(p: usize, m: f64) -> PredictedComm {
        let l = rounds(p);
        PredictedComm::new(l * m, l)
    }

    /// Reduction by concatenation of one `m_local`-word `Vec` block per PE
    /// (element words only — a message carries the concatenation of a whole
    /// subtree under **one** length word): the root receives every other
    /// block once plus one length word per child.  Exact for equal blocks;
    /// for ragged blocks pass the mean.
    pub fn reduce_concat(p: usize, m_local: f64) -> PredictedComm {
        let l = rounds(p);
        PredictedComm::new((p as f64 - 1.0) * m_local + l, l)
    }

    /// All-reduction: the reduce moves `l·m` words *into* the root and the
    /// broadcast moves `l·m` words *out of* it, so the max-direction
    /// bottleneck (what [`StatsSnapshot::bottleneck_words`] meters) pays
    /// `l·m` once, not twice.
    ///
    /// [`StatsSnapshot::bottleneck_words`]: crate::StatsSnapshot::bottleneck_words
    pub fn allreduce(p: usize, m: f64) -> PredictedComm {
        let l = rounds(p);
        PredictedComm::new(l * m, l)
    }

    /// Dissemination all-gather of one `m_local`-word block per PE (a `Vec`
    /// block's own length word included): `⌈log₂ p⌉` rounds, each one
    /// message whose outer `Vec` pays one length word, and every block but
    /// the PE's own crosses each PE once in each direction.  Exact on every
    /// PE for equal blocks; for ragged blocks pass the mean and read the
    /// result as the received side.
    pub fn allgather(p: usize, m_local: f64) -> PredictedComm {
        let l = rounds(p);
        PredictedComm::new(l + (p as f64 - 1.0) * m_local, l)
    }

    /// Direct all-to-all delivery of `m_total` payload words per PE spread
    /// over `p−1` destinations — a PE keeps its own share, so `m_total`
    /// counts only what it sends (each destination message pays its own
    /// length word when the payload is a `Vec`): `p−1` start-ups,
    /// volume-optimal.
    pub fn alltoall_direct(p: usize, m_total: f64) -> PredictedComm {
        PredictedComm::new(m_total + (p as f64 - 1.0), p as f64 - 1.0)
    }

    /// Hypercube-routed all-to-all of `m_total` payload words per PE: each
    /// item is forwarded on the rounds where its distance bit is set (half
    /// the `ceil(log2 p)` rounds in expectation) and carries a
    /// (destination, origin) routing header; `ceil(log2 p)` start-ups.
    pub fn alltoall_hypercube(p: usize, m_total: f64) -> PredictedComm {
        let l = rounds(p);
        // Per round: ~half the in-flight payload plus ~p/2 routed items'
        // 3-word overhead (dst, origin, inner length) plus the outer vec
        // length word.
        let per_round = 0.5 * m_total + 1.5 * p as f64 + 1.0;
        PredictedComm::new(l * per_round, l)
    }
}

/// Machine parameters of the modeled network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Start-up overhead per message (seconds, or any consistent unit).
    pub alpha: f64,
    /// Transfer time per machine word (same unit as `alpha`).
    pub beta: f64,
}

impl Default for CostModel {
    /// Defaults loosely modeled on the paper's InfiniBand 4X QDR testbed:
    /// ~1.5 µs start-up latency and ~2.5 ns per 8-byte word
    /// (≈ 3.2 GB/s effective per-port bandwidth).
    fn default() -> Self {
        CostModel {
            alpha: 1.5e-6,
            beta: 2.5e-9,
        }
    }
}

impl CostModel {
    /// Create a model with explicit parameters.
    pub fn new(alpha: f64, beta: f64) -> Self {
        Self { alpha, beta }
    }

    /// Modeled communication time of one PE given its counters: the PE pays
    /// α per start-up and β per word on its busier direction.
    fn pe_cost(&self, s: &StatsSnapshot) -> f64 {
        self.alpha * s.bottleneck_messages() as f64 + self.beta * s.bottleneck_words() as f64
    }

    /// Modeled communication time of a whole run: the bottleneck PE
    /// determines the cost (all PEs run concurrently).
    pub fn world_cost(&self, w: &WorldStats) -> f64 {
        w.per_pe()
            .iter()
            .map(|s| self.pe_cost(s))
            .fold(0.0, f64::max)
    }

    /// Decompose the modeled world cost into its latency (α) and bandwidth
    /// (β) contributions, each taken at the respective bottleneck PE.
    pub fn world_cost_split(&self, w: &WorldStats) -> (f64, f64) {
        let latency = self.alpha * w.bottleneck_messages() as f64;
        let bandwidth = self.beta * w.bottleneck_words() as f64;
        (latency, bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StatsSnapshot;

    fn snap(msgs: u64, words: u64) -> StatsSnapshot {
        StatsSnapshot {
            sent_messages: msgs,
            sent_words: words,
            received_messages: msgs,
            received_words: words,
        }
    }

    #[test]
    fn pe_cost_uses_bottleneck_direction() {
        let m = CostModel::new(1.0, 1.0);
        let s = StatsSnapshot {
            sent_messages: 2,
            sent_words: 10,
            received_messages: 5,
            received_words: 3,
        };
        // 5 start-ups (receive side dominates) + 10 words (send side dominates)
        assert_eq!(m.pe_cost(&s), 15.0);
    }

    #[test]
    fn world_cost_is_max_over_pes() {
        let m = CostModel::new(1.0, 1.0);
        let w = WorldStats::from_snapshots(vec![snap(1, 100), snap(50, 2), snap(3, 3)]);
        assert_eq!(m.world_cost(&w), 101.0);
    }

    #[test]
    fn split_reports_both_terms() {
        let m = CostModel::new(2.0, 3.0);
        let w = WorldStats::from_snapshots(vec![snap(4, 7), snap(5, 1)]);
        let (lat, bw) = m.world_cost_split(&w);
        assert_eq!(lat, 10.0);
        assert_eq!(bw, 21.0);
    }

    #[test]
    fn default_is_infiniband_like() {
        let m = CostModel::default();
        assert!(m.alpha > m.beta);
    }

    #[test]
    fn predictions_compose() {
        let a = PredictedComm::new(10.0, 2.0);
        let b = PredictedComm::new(5.0, 1.0);
        assert_eq!(a.plus(b), PredictedComm::new(15.0, 3.0));
        assert_eq!(b.scaled(3.0), PredictedComm::new(15.0, 3.0));
        assert_eq!(PredictedComm::default().plus(a), a);
    }

    /// The per-collective predictions must track the metered counters of the
    /// real implementations to well within 2× — that bound is what makes the
    /// planner's argmin meaningful.
    #[test]
    fn collective_predictions_bracket_the_metered_bottlenecks() {
        use crate::communicator::Communicator;
        use crate::runner::run_spmd;

        let check = |label: &str, pred: PredictedComm, words: u64, msgs: u64| {
            let wf = words as f64;
            let sf = msgs as f64;
            assert!(
                pred.words >= wf / 2.0 && pred.words <= wf * 2.0 + 8.0,
                "{label}: predicted {} words, metered {words}",
                pred.words
            );
            assert!(
                pred.startups >= sf / 2.0 && pred.startups <= sf * 2.0 + 2.0,
                "{label}: predicted {} startups, metered {msgs}",
                pred.startups
            );
        };

        let p = 8;
        let payload = 64usize;

        let out = run_spmd(p, move |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![1u64; payload])
            } else {
                None
            };
            comm.broadcast(0, v);
        });
        check(
            "broadcast",
            predict::broadcast(p, payload as f64 + 1.0),
            out.stats.bottleneck_words(),
            out.stats.bottleneck_messages(),
        );

        let out = run_spmd(p, |comm| {
            comm.allreduce_sum(comm.rank() as u64);
        });
        check(
            "allreduce",
            predict::allreduce(p, 1.0),
            out.stats.bottleneck_words(),
            out.stats.bottleneck_messages(),
        );

        let out = run_spmd(p, move |comm| {
            comm.allgather(vec![comm.rank() as u64; payload]);
        });
        // The all-gather is symmetric, so its prediction is not a bracket
        // but the metered value itself.
        let pred = predict::allgather(p, payload as f64 + 1.0);
        assert_eq!(pred.words, out.stats.bottleneck_words() as f64);
        assert_eq!(pred.startups, out.stats.bottleneck_messages() as f64);

        let out = run_spmd(p, move |comm| {
            let items: Vec<Vec<u64>> = (0..p).map(|_| vec![7u64; payload / p]).collect();
            comm.alltoall_indirect(items);
        });
        check(
            "alltoall hypercube",
            predict::alltoall_hypercube(p, (payload + p) as f64),
            out.stats.bottleneck_words(),
            out.stats.bottleneck_messages(),
        );
    }

    /// Direct delivery keeps a PE's own share and sends the other `p − 1`,
    /// each with its length word, so its prediction at the `(p − 1)`-share
    /// payload is not a bracket but the metered value itself.
    #[test]
    fn alltoall_direct_predicts_the_metered_bottleneck_exactly() {
        use crate::communicator::Communicator;
        use crate::runner::run_spmd;

        let share = 8usize;
        for p in [2usize, 5, 8, 64] {
            let out = run_spmd(p, move |comm| {
                comm.alltoall(vec![vec![7u64; share]; p]);
            });
            let pred = predict::alltoall_direct(p, ((p - 1) * share) as f64);
            assert_eq!(pred.words, out.stats.bottleneck_words() as f64, "p={p}");
            assert_eq!(
                pred.startups,
                out.stats.bottleneck_messages() as f64,
                "p={p}"
            );
        }
    }
}
