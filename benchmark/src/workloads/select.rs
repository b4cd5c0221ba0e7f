//! `select_local` and `select_wide_mux`: the paper's unsorted selection
//! (§4.1) on the §10.1 skewed input, once where local work dominates and
//! once where the replay engine does.

use std::time::Instant;

use commsim::{run_spmd, run_spmd_mux_with, run_spmd_seq, Communicator, MuxConfig, SpmdOutput};
use datagen::SkewedSelectionInput;
use topk::select_k_smallest;

use super::derive_seed;
use crate::harness::{Metrics, OpCounts, Pass, Scale, Workload};
use crate::stats::{mean, median};
use crate::trace::{NoTrace, Spans, TraceSink};

/// Distinct inputs the ops cycle through, so consecutive ops do not find
/// their input in cache.
const INPUT_POOL: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// One OS thread per PE.
    Threaded,
    /// All PEs replayed on one mux worker.
    MuxOneWorker,
}

struct SelectOp {
    input: usize,
    k: usize,
    seed: u64,
}

/// What each PE reports for one op.
type PeAnswer = (u64, usize, usize);

pub struct Select {
    backend: Backend,
    p: usize,
    rounds: usize,
    /// `inputs[input][rank]`.
    inputs: Vec<Vec<Vec<u64>>>,
    /// Oracle: the sorted concatenation of each input.
    sorted: Vec<Vec<u64>>,
    ops: Vec<SelectOp>,
    /// Recursion levels of each op in the latest pass (a deterministic
    /// function of the schedule).
    levels: Vec<usize>,
}

impl Select {
    /// Threaded, p = 2, n/p = 2^18, M = 210, K = 5.
    pub fn local(seed: u64, scale: Scale) -> Self {
        let generator = |input_seed| SkewedSelectionInput::paper_scale(input_seed);
        Self::build(
            Backend::Threaded,
            2,
            1 << 18,
            scale.ops(210),
            5,
            seed,
            generator,
        )
    }

    /// `MuxConfig::new(64).with_workers(1)`, n/p = 2^6, M = 200, K = 3.
    pub fn wide_mux(seed: u64, scale: Scale) -> Self {
        // 64 PEs × 3 inputs each build their own Zipf table: the paper-scale
        // 2^20-entry tables would cost seconds of set-up for 64 keys apiece.
        let generator = |input_seed| SkewedSelectionInput {
            seed: input_seed,
            ..SkewedSelectionInput::default()
        };
        Self::build(
            Backend::MuxOneWorker,
            64,
            1 << 6,
            scale.ops(200),
            3,
            seed,
            generator,
        )
    }

    fn build(
        backend: Backend,
        p: usize,
        per_pe: usize,
        num_ops: usize,
        rounds: usize,
        seed: u64,
        generator: impl Fn(u64) -> SkewedSelectionInput,
    ) -> Self {
        // §10.1 draws each PE's Zipf exponent uniformly from [1, 1.2).  Input
        // `i` of the pool draws from the `i`-th third of that range, so every
        // seed covers the whole range evenly and the run-to-run spread is the
        // machine's, not the luck of three draws.
        let inputs: Vec<Vec<Vec<u64>>> = (0..INPUT_POOL)
            .map(|i| {
                let mut input = generator(derive_seed(seed, 1, i as u64));
                let width = (input.max_exponent - input.min_exponent) / INPUT_POOL as f64;
                input.min_exponent += width * i as f64;
                input.max_exponent = input.min_exponent + width;
                input.generate_all(p, per_pe)
            })
            .collect();
        let sorted = inputs
            .iter()
            .map(|parts| {
                let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
                all.sort_unstable();
                all
            })
            .collect();
        let n = p * per_pe;
        // k cycles through the three classes n/1024, n/32, n/2 in a cycle of
        // five.  The slowest class (n/2) holds a fifth of the ops, so
        // op_p95_ms sits inside it and is a property of the inputs; the two
        // cheap classes hold two fifths each, so op_p50_ms sits inside their
        // cluster instead of on the edge between it and the slow class, where
        // a few ops changing sides would move it by a third.
        let ks = [n / 1024, n / 32, n / 1024, n / 32, n / 2];
        let ops = (0..num_ops)
            .map(|i| SelectOp {
                input: (i / ks.len()) % INPUT_POOL,
                k: ks[i % ks.len()].max(1),
                seed: derive_seed(seed, 2, i as u64),
            })
            .collect();
        Select {
            backend,
            p,
            rounds,
            inputs,
            sorted,
            ops,
            levels: Vec::new(),
        }
    }

    /// One op on one PE: op span → algorithm-call span → the algorithm.
    fn op_body<C: Communicator, S: Spans>(
        comm: &C,
        spans: &S,
        index: usize,
        local: &[u64],
        op: &SelectOp,
    ) -> PeAnswer {
        spans.set_op(index as u32);
        let _op = spans.span("op");
        let result = {
            let _call = spans.span("select_k_smallest");
            select_k_smallest(comm, local, op.k, op.seed)
        };
        (
            result.threshold,
            result.local_selected.len(),
            result.recursion_levels,
        )
    }

    /// Run op `index` as one SPMD region on this workload's backend.
    fn run_op(&self, index: usize, trace: Option<(&TraceSink, bool)>) -> SpmdOutput<PeAnswer> {
        let op = &self.ops[index];
        let parts = &self.inputs[op.input];
        match (self.backend, trace) {
            (Backend::Threaded, None) => run_spmd(self.p, |comm| {
                Self::op_body(comm, &NoTrace, index, &parts[comm.rank()], op)
            }),
            (Backend::Threaded, Some((sink, store))) => run_spmd(self.p, |comm| {
                sink.with_trace(comm, store, |tc| {
                    Self::op_body(tc, tc, index, &parts[tc.rank()], op)
                })
            }),
            (Backend::MuxOneWorker, None) => run_spmd_mux_with(self.mux_config(), |comm| {
                Self::op_body(comm, &NoTrace, index, &parts[comm.rank()], op)
            }),
            // Spans inside a re-executed closure would be replayed: only the
            // execution counter and the closure-time guard are kept.
            (Backend::MuxOneWorker, Some((sink, _))) => {
                run_spmd_mux_with(self.mux_config(), |comm| {
                    sink.with_trace(comm, false, |tc| {
                        Self::op_body(tc, tc, index, &parts[tc.rank()], op)
                    })
                })
            }
        }
    }

    fn mux_config(&self) -> MuxConfig {
        MuxConfig::new(self.p).with_workers(1)
    }

    /// Oracle: every PE reports the k-th smallest of the sorted
    /// concatenation, and the local selections sum to exactly k.
    fn correct(&self, op: &SelectOp, answers: &[PeAnswer]) -> bool {
        let expected = self.sorted[op.input][op.k - 1];
        answers.len() == self.p
            && answers
                .iter()
                .all(|&(threshold, _, _)| threshold == expected)
            && answers
                .iter()
                .map(|&(_, selected, _)| selected)
                .sum::<usize>()
                == op.k
    }

    /// The seq-vs-`workers:1` evidence: the first ops of this schedule on
    /// `run_spmd_seq`, and the cost of regions with nothing in them.
    fn replay_backend_metrics(&self, traced: &[Pass], sink: &TraceSink, out: &mut Metrics) {
        let traced_ops: usize = traced.iter().map(|p| p.op_ns.len()).sum();
        let region_s: f64 = traced
            .iter()
            .flat_map(|p| &p.op_ns)
            .map(|&ns| ns as f64 / 1e9)
            .sum();
        let closure_s = sink.total_closure_ns() as f64 / 1e9;
        out.set(
            "commsim.mux.executions_per_pe",
            sink.total_executions() as f64 / (self.p * traced_ops) as f64,
        );
        out.set("commsim.mux.closure_s", closure_s);
        // One worker: closures never overlap, so region wall − closure time
        // is what the scheduler, wait-map and typed store cost.
        out.set("commsim.mux.sched_s", region_s - closure_s);

        let time_ms = |f: &dyn Fn()| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        };
        let empty = |f: &dyn Fn()| median(&(0..9).map(|_| time_ms(f)).collect::<Vec<_>>());
        out.set(
            "commsim.mux.empty_region_ms",
            empty(&|| drop(run_spmd_mux_with(self.mux_config(), |_| ()))),
        );
        out.set(
            "commsim.seq.empty_region_ms",
            empty(&|| drop(run_spmd_seq(self.p, |_| ()))),
        );

        let seq_sink = TraceSink::new(self.p);
        let seq_ops = self.ops.len().min(30);
        let seq_ms: Vec<f64> = (0..seq_ops)
            .map(|index| {
                let op = &self.ops[index];
                let parts = &self.inputs[op.input];
                time_ms(&|| {
                    let out = run_spmd_seq(self.p, |comm| {
                        seq_sink.with_trace(comm, false, |tc| {
                            Self::op_body(tc, tc, index, &parts[tc.rank()], op)
                        })
                    });
                    assert!(
                        self.correct(op, &out.results),
                        "seq backend failed op {index}"
                    );
                })
            })
            .collect();
        out.set("commsim.seq.wide_op_ms", median(&seq_ms));
        out.set(
            "commsim.seq.executions_per_pe",
            seq_sink.total_executions() as f64 / (self.p * seq_ops) as f64,
        );

        // The scaling point: three ops at p = 256, same n/p.
        let wide_p = 4 * self.p;
        let per_pe = self.inputs[0][0].len();
        let wide = SkewedSelectionInput::default().generate_all(wide_p, per_pe);
        let wide_ms: Vec<f64> = (0..3)
            .map(|i| {
                let k = (wide_p * per_pe / 32).max(1);
                time_ms(&|| {
                    run_spmd_mux_with(MuxConfig::new(wide_p).with_workers(1), |comm| {
                        select_k_smallest(comm, &wide[comm.rank()], k, i).threshold
                    });
                })
            })
            .collect();
        out.set("commsim.mux.wide_op_ms_p256", median(&wide_ms));
    }
}

impl Workload for Select {
    fn num_ops(&self) -> usize {
        self.ops.len()
    }

    fn run_rounds(&self) -> usize {
        self.rounds
    }

    fn num_pes(&self) -> usize {
        self.p
    }

    fn total_elements(&self) -> u64 {
        (self.ops.len() * self.sorted[0].len()) as u64
    }

    fn run_pass(&mut self, trace: Option<(&TraceSink, bool)>) -> Pass {
        let pass_start = Instant::now();
        let mut pass = Pass::default();
        let mut levels = Vec::with_capacity(self.ops.len());
        for index in 0..self.ops.len() {
            let start = Instant::now();
            let out = self.run_op(index, trace);
            pass.op_ns.push(start.elapsed().as_nanos() as u64);
            pass.counts.push(OpCounts::from_world(&out.stats));
            pass.failed_ops += usize::from(!self.correct(&self.ops[index], &out.results));
            levels.push(out.results[0].2);
        }
        self.levels = levels;
        pass.wall_ns = pass_start.elapsed().as_nanos() as u64;
        pass
    }

    fn layer_metrics(
        &self,
        _untraced: &[Pass],
        traced: &[Pass],
        sink: &TraceSink,
        out: &mut Metrics,
    ) {
        out.set(
            "topk.select.levels_per_op",
            mean(&self.levels.iter().map(|&l| l as f64).collect::<Vec<_>>()),
        );
        if self.backend == Backend::MuxOneWorker {
            self.replay_backend_metrics(traced, sink, out);
        }
    }
}
