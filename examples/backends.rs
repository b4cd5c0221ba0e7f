//! Backend walkthrough: one SPMD program, three backends.
//!
//! Demonstrates the `Communicator` trait and the one way to start a world:
//! `run_on!(backend, World::new(p), program)` runs the same generic program
//! on every `Backend` — the threaded one (one OS thread per PE) and the
//! replay engine under both of its drivers, the deterministic sequential one
//! (the scheduler inline on this thread) and the multiplexed one (thousands
//! of PEs as cooperative tasks over a small worker pool) — producing
//! identical results and identical metered traffic: every payload crosses
//! the transport as its word encoding, and every backend meters the same
//! per-PE messages and words.
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

    let reference = run_spmd(p, program);

    println!("same program, three backends, p = {p}:");
    for backend in Backend::ALL {
        let out = run_on!(backend, World::new(p), program).fault_free();
        assert_eq!(out.results, reference.results);
        assert_eq!(out.stats.per_pe(), reference.stats.per_pe());
        println!(
            "  {:<9} {:>9} words {:>5} msgs   {:?}",
            backend.name(),
            out.stats.total_words(),
            out.stats.total_messages(),
            out.elapsed
        );
    }
    println!(
        "  results agree on all {} PEs; every payload crossed as u64 words (the one wire format)",
        p
    );
}
