//! # topk-selection — the umbrella crate
//!
//! This crate re-exports the whole workspace behind a single dependency, so
//! downstream users (and the examples and integration tests in this
//! repository) can write
//!
//! ```
//! use topk_selection::prelude::*;
//!
//! let out = run_spmd(4, |comm| {
//!     let local: Vec<u64> = (0..100u64).map(|i| i * 4 + comm.rank() as u64).collect();
//!     select_k_smallest(comm, &local, 5, 1).local_selected
//! });
//! let selected: usize = out.results.iter().map(Vec::len).sum();
//! assert_eq!(selected, 5);
//! ```
//!
//! The individual crates are:
//!
//! * [`commsim`] — the simulated distributed-memory machine (SPMD runtime,
//!   collectives, communication metering),
//! * [`seqkit`] — sequential building blocks (selection, sampling,
//!   threshold algorithm, hash aggregation, stream summaries),
//! * [`datagen`] — synthetic workload generators matching the paper's
//!   evaluation section,
//! * [`topk`] — the paper's distributed algorithms themselves,
//! * [`workloads`] — end-to-end application scenarios (real-text word
//!   frequency, the streaming top-k service, multi-round bulk-queue
//!   scheduling) built on all of the above.

#![forbid(unsafe_code)]

pub use commsim;
pub use datagen;
pub use seqkit;
pub use topk;
pub use workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use commsim::{
        run_on, run_spmd, run_spmd_seq, Backend, Comm, Communicator, CostModel, MuxComm,
        SpmdOutput, WordCodec, World,
    };
    pub use datagen::{
        MulticriteriaWorkload, SkewedSelectionInput, UniformInput, WeightedZipfInput, Zipf,
    };
    pub use seqkit::ThresholdAlgorithm;
    pub use topk::{
        approx_multisequence_select, dta_top_k, knapsack_branch_bound_parallel,
        knapsack_branch_bound_sequential, multisequence_select, rdta_top_k, redistribute,
        select_k_smallest, select_threshold, sum_top_k, sum_top_k_exact, Algorithm,
        BulkParallelQueue, FrequentParams, KnapsackInstance, LocalMulticriteria, OrderedF64,
    };
    pub use workloads::{
        distributed_intern, run_scheduler, split_text_shards, tokenize, ArrivalPattern,
        BatchPolicy, SchedulerOutcome, SchedulerParams, StreamConfig, StreamService,
    };
}
