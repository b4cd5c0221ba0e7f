//! `frequent_zipf`: the paper's top-k most frequent objects (§7) on a
//! Zipf(1.0) key stream, cycling PAC → EC → PEC → Naive through the one
//! dispatch point `Algorithm::run`.

use std::collections::HashMap;
use std::time::Instant;

use commsim::{run_spmd, Communicator, SpmdOutput};
use datagen::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topk::{Algorithm, FrequentParams, TopKFrequentResult};

use super::{class_median_ms, derive_seed};
use crate::harness::{op_times_ms, Metrics, OpCounts, Pass, Scale, Workload};
use crate::stats::mean;
use crate::trace::{NoTrace, Spans, TraceSink};

const P: usize = 2;
const PER_PE: usize = 1 << 18;
const UNIVERSE: usize = 1 << 16;
const K: usize = 32;
const EPSILON: f64 = 2e-3;
const DELTA: f64 = 1e-3;
const INPUT_POOL: usize = 2;

/// The op classes, in schedule order: a cycle of five.  Naive is the
/// slowest and holds a fifth of the ops, so `op_p95_ms` sits inside its
/// class; PEC appears twice, so `op_p50_ms` sits inside the PEC class and
/// not on the edge between two classes.
const CYCLE: [Algorithm; 5] = [
    Algorithm::Pac,
    Algorithm::Ec,
    Algorithm::Pec,
    Algorithm::Naive,
    Algorithm::Pec,
];

struct FrequentOp {
    algorithm: Algorithm,
    input: usize,
    params: FrequentParams,
}

/// Oracle for one input: exact counts, and the keys by descending count.
struct ExactCounts {
    counts: HashMap<u64, u64>,
    ranking: Vec<(u64, u64)>,
}

pub struct FrequentZipf {
    /// `inputs[input][rank]`.
    inputs: Vec<Vec<Vec<u64>>>,
    exact: Vec<ExactCounts>,
    ops: Vec<FrequentOp>,
}

/// The paper's absolute error of a reported key set (§7: the count of the
/// most frequent object missed minus that of the least frequent one
/// reported), computed from a ranking by descending exact count instead of
/// `topk::frequent::absolute_error`'s scan of every distinct key per op.
fn absolute_error_from_ranking(
    ranking: &[(u64, u64)],
    counts: &HashMap<u64, u64>,
    reported: &[u64],
) -> u64 {
    let best_missed = ranking
        .iter()
        .find(|(key, _)| !reported.contains(key))
        .map_or(0, |&(_, count)| count);
    let worst_reported = reported
        .iter()
        .map(|key| counts.get(key).copied().unwrap_or(0))
        .min()
        .unwrap_or(0);
    best_missed.saturating_sub(worst_reported)
}

impl FrequentZipf {
    /// Threaded, p = 2, n/p = 2^18, k = 32, ε = 2·10⁻³, δ = 10⁻³; M = 200, K = 3.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let zipf = Zipf::new(UNIVERSE, 1.0);
        let inputs: Vec<Vec<Vec<u64>>> = (0..INPUT_POOL)
            .map(|input| {
                (0..P)
                    .map(|rank| {
                        let mut rng =
                            StdRng::seed_from_u64(derive_seed(seed, 3, (input * P + rank) as u64));
                        zipf.sample_many(PER_PE, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let exact = inputs
            .iter()
            .map(|parts| {
                let counts = seqkit::hashagg::count_keys(parts.iter().flatten().copied());
                let mut ranking: Vec<(u64, u64)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
                ranking.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ExactCounts { counts, ranking }
            })
            .collect();
        let ops = (0..scale.ops(200))
            .map(|i| FrequentOp {
                algorithm: CYCLE[i % CYCLE.len()],
                input: (i / CYCLE.len()) % INPUT_POOL,
                params: FrequentParams::new(K, EPSILON, DELTA, derive_seed(seed, 4, i as u64)),
            })
            .collect();
        FrequentZipf { inputs, exact, ops }
    }

    fn op_body<C: Communicator, S: Spans>(
        comm: &C,
        spans: &S,
        index: usize,
        local: &[u64],
        op: &FrequentOp,
    ) -> TopKFrequentResult {
        spans.set_op(index as u32);
        let _op = spans.span("op");
        let _call = spans.span(match op.algorithm {
            Algorithm::Pac => "pac_top_k",
            Algorithm::Ec => "ec_top_k",
            Algorithm::Pec => "pec_top_k",
            _ => "naive_top_k",
        });
        op.algorithm.run(comm, local, &op.params)
    }

    fn run_op(
        &self,
        index: usize,
        trace: Option<(&TraceSink, bool)>,
    ) -> SpmdOutput<TopKFrequentResult> {
        let op = &self.ops[index];
        let parts = &self.inputs[op.input];
        match trace {
            None => run_spmd(P, |comm| {
                Self::op_body(comm, &NoTrace, index, &parts[comm.rank()], op)
            }),
            Some((sink, store)) => run_spmd(P, |comm| {
                sink.with_trace(comm, store, |tc| {
                    Self::op_body(tc, tc, index, &parts[tc.rank()], op)
                })
            }),
        }
    }

    /// Oracle: every PE reports the same k keys, their relative error is at
    /// most ε, and a result that claims exact counts (EC, PEC) has them.
    fn correct(&self, op: &FrequentOp, results: &[TopKFrequentResult]) -> bool {
        let exact = &self.exact[op.input];
        let n = (P * PER_PE) as f64;
        results.len() == P
            && results.iter().all(|result| {
                let keys = result.keys();
                let error = absolute_error_from_ranking(&exact.ranking, &exact.counts, &keys);
                *result == results[0]
                    && keys.len() == K
                    && error as f64 / n <= EPSILON
                    && (!result.exact_counts
                        || result
                            .items
                            .iter()
                            .all(|(key, count)| exact.counts.get(key) == Some(count)))
            })
    }
}

impl Workload for FrequentZipf {
    fn num_ops(&self) -> usize {
        self.ops.len()
    }

    fn run_rounds(&self) -> usize {
        3
    }

    fn num_pes(&self) -> usize {
        P
    }

    fn total_elements(&self) -> u64 {
        (self.ops.len() * P * PER_PE) as u64
    }

    fn run_pass(&mut self, trace: Option<(&TraceSink, bool)>) -> Pass {
        let pass_start = Instant::now();
        let mut pass = Pass::default();
        for (index, op) in self.ops.iter().enumerate() {
            let start = Instant::now();
            let out = self.run_op(index, trace);
            pass.op_ns.push(start.elapsed().as_nanos() as u64);
            pass.counts.push(OpCounts::from_world(&out.stats));
            pass.failed_ops += usize::from(!self.correct(op, &out.results));
        }
        pass.wall_ns = pass_start.elapsed().as_nanos() as u64;
        pass
    }

    fn layer_metrics(
        &self,
        untraced: &[Pass],
        _traced: &[Pass],
        _sink: &TraceSink,
        out: &mut Metrics,
    ) {
        let times = op_times_ms(untraced);
        for algorithm in [
            Algorithm::Pac,
            Algorithm::Ec,
            Algorithm::Pec,
            Algorithm::Naive,
        ] {
            let token = algorithm.token();
            let in_class = |i: usize| self.ops[i].algorithm == algorithm;
            if let Some(ms) = class_median_ms(&times, in_class) {
                out.set(&format!("topk.frequent.{token}_ms"), ms);
            }
            let words: Vec<f64> = untraced[0]
                .counts
                .iter()
                .enumerate()
                .filter(|&(i, _)| in_class(i))
                .map(|(_, c)| c.bottleneck_words as f64)
                .collect();
            if !words.is_empty() {
                out.set(&format!("topk.frequent.{token}_words"), mean(&words));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_error_agrees_with_the_library_definition() {
        let counts: HashMap<u64, u64> = [(0, 16), (1, 10), (2, 10), (3, 9), (4, 8), (5, 7)]
            .into_iter()
            .collect();
        let mut ranking: Vec<(u64, u64)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
        ranking.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for reported in [
            vec![0, 1, 2, 3, 5],
            vec![1, 2],
            vec![],
            vec![0, 99],
            vec![0, 1, 2, 3, 4, 5],
        ] {
            assert_eq!(
                absolute_error_from_ranking(&ranking, &counts, &reported),
                topk::frequent::absolute_error(&counts, &reported),
                "reported {reported:?}"
            );
        }
    }
}
