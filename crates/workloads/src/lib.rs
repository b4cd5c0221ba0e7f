//! # workloads — realistic end-to-end scenarios over the algorithm stack
//!
//! Everything below `crates/core` moves abstract `u64` keys.  This crate
//! opens the two application scenarios the paper itself motivates its
//! algorithms with, and in doing so exercises the whole stack the way a user
//! would:
//!
//! * [`text`] — **real-text word frequency** (Section 7, Figure 4): a
//!   deterministic tokenizer, a distributed string-interning layer that maps
//!   words to dense `u64` ids (so string keys flow through the existing
//!   DHT/selection machinery unchanged), and oracle-scored runs of the
//!   PAC/EC/PEC/Naive algorithms over interned corpora.  Pair it with
//!   `datagen::TextCorpus` for synthetic-English input or
//!   [`text::split_text_shards`] for user-supplied files.
//! * [`StreamService`] — **streaming top-k service**: the text pipeline turned
//!   into a never-terminating service — PEs ingest an unbounded
//!   non-stationary document stream in mini-batches, keep a sliding-window
//!   top-k sketch current, re-intern new vocabulary incrementally with
//!   stable ids, periodically publish a global top-k through the §7
//!   aggregation + `select_top_counts`' top-k merge, and answer a modeled
//!   Poisson stream of point queries between batches, scoring p95 answer
//!   staleness and words per ingested item.  A batch meters its own PE;
//!   [`world_report`] folds the PEs' reports into the world's figures.
//! * [`sched`] — **multi-round bulk-queue scheduling** (Section 5): a job
//!   scheduler driving [`topk::BulkParallelQueue`] round after round —
//!   skewed/bursty arrival streams, `insert_bulk` + `delete_min` /
//!   `delete_min_flexible` batches, per-round communication and throughput
//!   metering — exercising the flexible-batch path far beyond single-shot
//!   tests.
//!
//! Both scenarios are generic over [`commsim::Communicator`], so they run
//! bit-identically on the threaded `Comm` and the replay engine's `MuxComm`
//! (`World::seq`, `World::mux`); the integration tests pin exactly that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sched;
mod stream;
pub mod text;

pub use sched::{
    run_scheduler, ArrivalPattern, BatchPolicy, RoundReport, SchedulerOutcome, SchedulerParams,
};
pub use stream::{
    world_report, BatchReport, ReplicaShard, StreamConfig, StreamReport, StreamService,
};
pub use text::{
    distributed_intern, resolve_items, run_planned_scored, split_text_shards, tokenize,
    InternedShard, WordFrequencyScore,
};
