//! `bulkpq_churn`: the bulk-parallel priority queue (§5) run the way a
//! scheduler would — round after round of skewed local inserts followed by
//! a global `deleteMin*` — inside one long SPMD region per pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use commsim::{run_spmd, Communicator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk::BulkParallelQueue;
use workloads::ArrivalPattern;

use super::{derive_seed, pass_from_logs, OpLog};
use crate::harness::{Metrics, Pass, Scale, Workload};
use crate::stats::mean;
use crate::trace::{NoTrace, Spans, TraceSink};

const P: usize = 2;
const PRELOAD_PER_PE: usize = 10_240;
/// Global inserts per round, split over the PEs by `ArrivalPattern::Skewed`.
const INSERTS_PER_ROUND: usize = 512;
/// Band of the flexible `deleteMin*` on every third round.
const FLEX_LO: usize = 384;
const FLEX_HI: usize = 640;
/// A job arriving in round `r` is due at `r · WINDOW + slack`, slack below
/// `SPREAD`: consecutive rounds' jobs compete inside the queue (the same
/// deadline model as `workloads::sched`).
const PRIORITY_WINDOW: u64 = 1 << 16;
const PRIORITY_SPREAD: u64 = 8 * PRIORITY_WINDOW;

/// What one PE brings back from a pass.
struct PeOutcome {
    log: OpLog,
    /// This PE's share of every round's batch, ascending.
    batches: Vec<Vec<u64>>,
}

pub struct BulkPqChurn {
    seed: u64,
    rounds: usize,
    /// `preload[rank]`.
    preload: Vec<Vec<u64>>,
    /// `arrivals[round][rank]`.
    arrivals: Vec<Vec<Vec<u64>>>,
    /// The global batch of every round as first verified against the
    /// sequential model; later passes must reproduce it bit for bit.
    verified: Option<Vec<Vec<u64>>>,
}

impl BulkPqChurn {
    /// Threaded, p = 2, preload 10 240 keys/PE, M = 1600 rounds, K = 3.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let rounds = scale.ops(1600);
        let draw = |rng_seed: u64, base: u64, count: usize| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            (0..count)
                .map(|_| base + rng.gen_range(0..PRIORITY_SPREAD))
                .collect()
        };
        let preload = (0..P)
            .map(|rank| draw(derive_seed(seed, 5, rank as u64), 0, PRELOAD_PER_PE))
            .collect();
        let arrivals = (0..rounds)
            .map(|round| {
                (0..P)
                    .map(|rank| {
                        draw(
                            derive_seed(seed, 6, (round * P + rank) as u64),
                            (round as u64 + 1) * PRIORITY_WINDOW,
                            ArrivalPattern::Skewed.arrivals(round, rank, P, INSERTS_PER_ROUND),
                        )
                    })
                    .collect()
            })
            .collect();
        BulkPqChurn {
            seed,
            rounds,
            preload,
            arrivals,
            verified: None,
        }
    }

    /// The long region on one PE.  Every third round deletes a flexible
    /// 384..640 batch; the others delete exactly as many as brings the queue
    /// back to its preload length (512 after a fixed round, `1024 − the
    /// flexible batch` after a flexible one), so the queue length stays
    /// within ±128 of the preload for the whole pass.  Two fixed rounds to
    /// one flexible, not one to one: with equal shares `op_p50_ms` would sit
    /// on the edge between the two classes.
    ///
    /// `harness` is the untraced communicator: the size of a flexible batch
    /// is the schedule's business, not the queue's, so the all-reduction
    /// that learns it runs outside the op's timer, meter and trace.
    fn region<C: Communicator, S: Spans>(
        &self,
        comm: &C,
        spans: &S,
        harness: &impl Communicator,
    ) -> PeOutcome {
        let rank = comm.rank();
        let mut queue: BulkParallelQueue<u64> = BulkParallelQueue::new(comm);
        queue.insert_bulk(self.preload[rank].iter().copied());
        let target = P * PRELOAD_PER_PE;
        let mut backlog = target;
        let mut log = OpLog::with_capacity(self.rounds);
        let mut batches = Vec::with_capacity(self.rounds);
        for round in 0..self.rounds {
            spans.set_op(round as u32);
            let round_seed = derive_seed(self.seed, 7, round as u64);
            backlog += INSERTS_PER_ROUND;
            let batch = log.measure(comm, || {
                let _op = spans.span("op");
                {
                    let _call = spans.span("insert_bulk");
                    queue.insert_bulk(self.arrivals[round][rank].iter().copied());
                }
                if is_flexible(round) {
                    let _call = spans.span("delete_min_flexible");
                    queue.delete_min_flexible(comm, FLEX_LO, FLEX_HI, round_seed)
                } else {
                    let _call = spans.span("delete_min");
                    queue.delete_min(comm, backlog - target, round_seed)
                }
            });
            // A fixed `delete_min(k)` removes exactly k; only a flexible
            // batch's size has to be learned.
            backlog = if is_flexible(round) {
                queue.global_len(harness) as usize
            } else {
                target
            };
            batches.push(batch);
        }
        PeOutcome { log, batches }
    }

    /// Oracle: a sequential `BinaryHeap` fed the same inserts.  A fixed
    /// round's batch must be exactly the model's k smallest; a flexible
    /// round's size must lie in the band and its content must be the
    /// model's prefix of that size.  Returns the failed rounds.
    fn check_against_model(&self, batches: &[Vec<u64>]) -> usize {
        let mut heap: BinaryHeap<Reverse<u64>> =
            self.preload.iter().flatten().map(|&v| Reverse(v)).collect();
        let target = P * PRELOAD_PER_PE;
        let mut failed = 0;
        for (round, batch) in batches.iter().enumerate() {
            heap.extend(self.arrivals[round].iter().flatten().map(|&v| Reverse(v)));
            let size_ok = if !is_flexible(round) {
                batch.len() == heap.len() - target
            } else {
                (FLEX_LO..=FLEX_HI).contains(&batch.len())
            };
            // Pop what the queue claims to have removed, so one bad round
            // does not desynchronise the model for the rounds after it.
            let expected: Vec<u64> = (0..batch.len().min(heap.len()))
                .filter_map(|_| heap.pop().map(|Reverse(v)| v))
                .collect();
            failed += usize::from(!size_ok || expected != *batch);
        }
        failed
    }
}

fn is_flexible(round: usize) -> bool {
    round % 3 == 2
}

/// Merge the PEs' ascending shares of every round into global batches.
fn merge_batches(outcomes: &[PeOutcome], rounds: usize) -> Vec<Vec<u64>> {
    (0..rounds)
        .map(|round| {
            let mut all: Vec<u64> = outcomes
                .iter()
                .filter_map(|o| o.batches.get(round))
                .flatten()
                .copied()
                .collect();
            all.sort_unstable();
            all
        })
        .collect()
}

impl Workload for BulkPqChurn {
    fn num_ops(&self) -> usize {
        self.rounds
    }

    fn run_rounds(&self) -> usize {
        3
    }

    fn num_pes(&self) -> usize {
        P
    }

    /// Inserted plus deleted keys; the deletes average the inserts because
    /// the fixed rounds restore the preload length.
    fn total_elements(&self) -> u64 {
        (2 * self.rounds * INSERTS_PER_ROUND) as u64
    }

    fn run_pass(&mut self, trace: Option<(&TraceSink, bool)>) -> Pass {
        let start = Instant::now();
        let this = &*self;
        let out = match trace {
            None => run_spmd(P, |comm| this.region(comm, &NoTrace, comm)),
            Some((sink, store)) => run_spmd(P, |comm| {
                sink.with_trace(comm, store, |tc| this.region(tc, tc, comm))
            }),
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let logs: Vec<&OpLog> = out.results.iter().map(|o| &o.log).collect();
        let mut pass = pass_from_logs(&logs, self.rounds, wall_ns);
        let batches = merge_batches(&out.results, self.rounds);
        pass.failed_ops += match &self.verified {
            Some(verified) => verified
                .iter()
                .zip(&batches)
                .filter(|(a, b)| a != b)
                .count(),
            None => {
                let failed = self.check_against_model(&batches);
                self.verified = Some(batches);
                failed
            }
        };
        pass
    }

    fn layer_metrics(
        &self,
        untraced: &[Pass],
        _traced: &[Pass],
        sink: &TraceSink,
        out: &mut Metrics,
    ) {
        // Rank 0 is the hot frontend of the skewed arrivals.
        for (span, metric) in [
            ("insert_bulk", "topk.bulkpq.insert_us"),
            ("delete_min", "topk.bulkpq.delete_min_us"),
            ("delete_min_flexible", "topk.bulkpq.delete_min_flexible_us"),
        ] {
            if let Some(ns) = sink.mean_span_ns(0, span) {
                out.set(metric, ns / 1e3);
            }
        }
        out.set(
            "topk.bulkpq.startups_per_round",
            mean(
                &untraced[0]
                    .counts
                    .iter()
                    .map(|c| c.startups as f64)
                    .collect::<Vec<_>>(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_rejects_a_wrong_batch_and_a_band_violation() {
        let mut workload = BulkPqChurn::new(11, Scale::Smoke);
        let pass = workload.run_pass(None);
        assert_eq!(pass.failed_ops, 0);
        let good = workload.verified.clone().expect("first pass verifies");
        assert_eq!(workload.check_against_model(&good), 0);

        let mut wrong_key = good.clone();
        *wrong_key[0].last_mut().unwrap() += 1;
        assert!(workload.check_against_model(&wrong_key) >= 1);

        let mut short_flexible = good.clone();
        short_flexible[2].truncate(FLEX_LO - 1);
        assert!(workload.check_against_model(&short_flexible) >= 1);
    }

    #[test]
    fn the_queue_length_returns_to_the_preload_after_every_fixed_round() {
        let mut workload = BulkPqChurn::new(5, Scale::Smoke);
        workload.run_pass(None);
        let batches = workload.verified.as_ref().unwrap();
        let mut len = P * PRELOAD_PER_PE;
        for (round, batch) in batches.iter().enumerate() {
            len = len + INSERTS_PER_ROUND - batch.len();
            if !is_flexible(round) {
                assert_eq!(len, P * PRELOAD_PER_PE, "round {round}");
            } else {
                assert!(
                    len.abs_diff(P * PRELOAD_PER_PE) <= 128,
                    "round {round}: {len}"
                );
            }
        }
    }
}
