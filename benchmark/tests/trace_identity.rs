//! `TraceComm` must be invisible to the program: results and per-PE
//! `WorldStats` are bit-identical with and without it, on the threaded and
//! on the replaying mux backend.

use benchmark::trace::{Spans, TraceSink};
use commsim::{run_spmd, run_spmd_mux_with, Communicator, MuxConfig, ReduceOp, SpmdOutput};
use datagen::SkewedSelectionInput;
use topk::{select_k_smallest, Algorithm, FrequentParams};

/// A program that goes through selection, the frequent-objects stack (DHT,
/// all-to-all, gather, broadcast), scans, a barrier and plain point-to-point.
fn program<C: Communicator>(
    comm: &C,
    parts: &[Vec<u64>],
) -> (u64, usize, Vec<(u64, u64)>, u64, u64) {
    let local = &parts[comm.rank()];
    let n: usize = parts.iter().map(Vec::len).sum();
    let selection = select_k_smallest(comm, local, n / 3, 17);
    let frequent = Algorithm::Ec.run(comm, local, &FrequentParams::new(4, 0.05, 0.05, 5));
    let prefix = comm.scan_inclusive(comm.rank() as u64 + 1, &ReduceOp::sum());
    comm.barrier();
    let next = (comm.rank() + 1) % comm.size();
    let prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send(next, 9, vec![comm.rank() as u64; 3]);
    let ring: Vec<u64> = comm.recv(prev, 9);
    (
        selection.threshold,
        selection.local_selected.len(),
        frequent.items,
        prefix,
        ring.iter().sum(),
    )
}

fn assert_identical<T: PartialEq + std::fmt::Debug>(bare: &SpmdOutput<T>, traced: &SpmdOutput<T>) {
    assert_eq!(bare.results, traced.results);
    assert_eq!(bare.stats.per_pe(), traced.stats.per_pe());
}

#[test]
fn threaded_results_and_stats_are_bit_identical() {
    let p = 4;
    let parts = SkewedSelectionInput::default().generate_all(p, 3000);
    let bare = run_spmd(p, |comm| program(comm, &parts));
    let sink = TraceSink::new(p);
    let traced = run_spmd(p, |comm| {
        sink.with_trace(comm, true, |tc| {
            let _op = tc.span("op");
            program(tc, &parts)
        })
    });
    assert_identical(&bare, &traced);
    // The wrapper saw exactly the traffic the backend metered.
    assert_eq!(sink.total_words(), bare.stats.total_words());
    assert_eq!(sink.total_msgs(), bare.stats.total_messages());
    assert_eq!(sink.total_executions(), p as u64);
}

#[test]
fn mux_results_and_stats_are_bit_identical_despite_replay() {
    let p = 16;
    let parts = SkewedSelectionInput::default().generate_all(p, 200);
    let config = || MuxConfig::new(p).with_workers(2);
    let bare = run_spmd_mux_with(config(), |comm| program(comm, &parts));
    let sink = TraceSink::new(p);
    let traced = run_spmd_mux_with(config(), |comm| {
        sink.with_trace(comm, false, |tc| program(tc, &parts))
    });
    assert_identical(&bare, &traced);
    // Only completed executions commit their sends, so replays do not
    // inflate the counts; they do show up as extra closure starts.
    assert_eq!(sink.total_words(), bare.stats.total_words());
    assert_eq!(sink.total_msgs(), bare.stats.total_messages());
    assert!(sink.total_executions() > p as u64);
}
