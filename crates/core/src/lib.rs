//! # topk — communication-efficient distributed top-k selection
//!
//! A from-scratch Rust implementation of the algorithm family of
//! *"Communication Efficient Algorithms for Top-k Selection Problems"*
//! (Hübschle-Schneider, Sanders & Müller, IPDPS 2016).  All algorithms are
//! written in SPMD style against the simulated distributed-memory machine of
//! the [`commsim`] crate: every PE holds private local data, communicates
//! only through metered point-to-point messages and collective operations,
//! and the headline property — **sublinear per-PE communication volume and
//! (poly)logarithmic latency** — can be verified directly from the metered
//! counters.
//!
//! | Paper section | Problem | Entry point |
//! |---|---|---|
//! | §4.1 | Selection from unsorted input | [`select_k_smallest`] |
//! | §4.2 / App. A | Selection from locally sorted input | [`multisequence_select`] |
//! | §4.3 | Flexible-`k` selection | [`approx_multisequence_select`] |
//! | §5 | Bulk-parallel priority queue | [`BulkParallelQueue`] |
//! | §5 | Branch-and-bound application | [`knapsack_branch_bound_parallel`] |
//! | §6 | Multicriteria top-k (threshold algorithm): exact-count stop, RDTA's verified bound, the §7 merge for extraction | [`dta_top_k`], [`rdta_top_k`] |
//! | §7 | Top-k most frequent objects: PAC, EC, PEC, one pipeline ([`frequent`]) | [`Algorithm::run`]; Theorem 14's Zipf PEC: [`pec_zipf_top_k`] |
//! | §8 | Top-k sum aggregation | [`sum_top_k`], [`sum_top_k_exact`] |
//! | §9 | Adaptive data redistribution | [`redistribute()`] |
//! | §10 | Baselines of the evaluation | [`Algorithm::Naive`], [`Algorithm::NaiveTree`] |
//!
//! ## Example
//!
//! ```
//! use commsim::{run_spmd, Communicator};
//! use topk::unsorted::select_k_smallest;
//!
//! // Four PEs, each holding 1000 local values; find the 10 globally smallest.
//! let out = run_spmd(4, |comm| {
//!     let local: Vec<u64> = (0..1000u64).map(|i| i * 4 + comm.rank() as u64).collect();
//!     select_k_smallest(comm, &local, 10, 42)
//! });
//! let total_selected: usize = out.results.iter().map(|r| r.local_selected.len()).sum();
//! assert_eq!(total_selected, 10);
//! assert!(out.results.iter().all(|r| r.threshold == 9));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod amsselect;
pub mod branch_bound;
mod bulk_pq;
pub mod frequent;
mod msselect;
pub mod multicriteria;
pub mod planner;
pub mod recover;
mod redistribute;
mod sum_agg;
pub mod unsorted;
pub mod util;

pub use amsselect::{approx_multisequence_select, AmsSelectResult};
pub use branch_bound::{
    knapsack_branch_bound_parallel, knapsack_branch_bound_sequential, BnbResult, KnapsackInstance,
};
pub use bulk_pq::BulkParallelQueue;
pub use frequent::{pec::pec_zipf_top_k, FrequentParams, TopKFrequentResult};
pub use msselect::{multisequence_select, MsSelectResult};
pub use multicriteria::{dta_top_k, rdta_top_k, LocalMulticriteria, MulticriteriaResult};
pub use planner::{Algorithm, Plan, PlanAudit, PlanInputs};
pub use recover::{run_frequent_recoverable, select_k_smallest_recoverable};
pub use redistribute::{redistribute, RedistributionReport};
pub use sum_agg::{sum_top_k, sum_top_k_exact, TopKSumResult};
pub use unsorted::{select_k_smallest, select_threshold, UnsortedSelectionResult};
pub use util::OrderedF64;
