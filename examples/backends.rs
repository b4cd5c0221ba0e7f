//! Backend walkthrough: one SPMD program, three runners.
//!
//! Demonstrates the `Communicator` trait introduced with the API redesign:
//! the same generic closure runs on the threaded backend (`run_spmd`, one OS
//! thread per PE) and on the replay engine under both of its drivers — the
//! deterministic sequential one (`run_spmd_seq`, the scheduler inline on
//! this thread) and the multiplexed one (`run_spmd_mux`, thousands of PEs as
//! cooperative tasks over a small worker pool) — producing identical results
//! and identical metered traffic.  Also shows the message path at work:
//! every payload crosses the transport as its word encoding, and on the
//! threaded backend the `pooled_reuses` counter proves the buffers are being
//! recycled (the replay engine keeps every message for re-execution, which
//! makes it honestly 0 — see ARCHITECTURE.md).
//!
//! ```bash
//! cargo run --release --example backends
//! ```

use topk_selection::prelude::*;

/// A little SPMD program written once, against the trait: repeated vector
/// all-reductions (the hot path) plus a couple of scalar collectives.
fn program<C: Communicator>(comm: &C) -> (u64, u64) {
    let mut checksum = 0u64;
    for round in 0..16 {
        let v = vec![comm.rank() as u64 + round; 256];
        let summed = comm.allreduce_vec_sum(v);
        checksum = checksum.wrapping_add(summed[0]);
    }
    let offset = comm.prefix_sum_exclusive(1);
    (checksum, offset)
}

fn main() {
    let p = 8;

    let threaded = run_spmd(p, program::<Comm>);
    let sequential = run_spmd_seq(p, program::<MuxComm>);
    let muxed = run_spmd_mux(p, program::<MuxComm>);

    assert_eq!(threaded.results, sequential.results);
    assert_eq!(threaded.results, muxed.results);
    assert_eq!(threaded.stats.total_words(), sequential.stats.total_words());
    assert_eq!(threaded.stats.total_words(), muxed.stats.total_words());

    println!("same program, three runners, p = {p}:");
    // Only the threaded transport consumes messages, so only it has
    // buffers to recycle; the replay engine reports 0 under either driver.
    for (runner, out) in [
        ("threaded", &threaded),
        ("sequential", &sequential),
        ("multiplexed", &muxed),
    ] {
        println!(
            "  {runner:<11} {:>9} words {:>5} msgs {:>5} pooled reuses   {:?}",
            out.stats.total_words(),
            out.stats.total_messages(),
            out.stats.total_pooled_reuses(),
            out.elapsed
        );
    }
    println!(
        "  results agree on all {} PEs; every payload crossed as u64 words (the one wire format)",
        p
    );
}
