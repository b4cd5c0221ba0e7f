//! # seqkit — sequential building blocks
//!
//! The distributed algorithms of the paper are built from a small set of
//! classical sequential components (its Section 2, "Preliminaries").  This
//! crate implements them from scratch so that the distributed layer
//! (`topk`) has no external algorithmic dependencies:
//!
//! * [`select`] — in-place quickselect and the Floyd–Rivest two-pivot
//!   selection used to pick pivots close to a target rank,
//! * [`Treap`] — a randomized order-statistic search tree (`insert`,
//!   `smallest(k)`, `split_at_rank`), kept only for the benchmark probe
//!   that times it; the bulk-parallel priority queue (paper Section 5)
//!   keeps its elements in std's `BTreeSet`,
//! * [`sampling`] — Bernoulli sampling via geometric skip values and the
//!   geometric random deviates used by the flexible-`k` selection
//!   (paper Sections 2 and 4.3),
//! * [`sorted`] — the merge-based reference for selection over locally sorted
//!   sequences (multisequence selection, paper Section 4.2),
//! * [`threshold`] — Fagin's sequential threshold algorithm, the baseline
//!   that the distributed multicriteria top-k approximates (Section 6),
//! * [`MisraGries`] — the classical deterministic frequent-object summary
//!   (Misra–Gries) used as a sequential baseline for Section 7,
//! * [`SlidingWindowTopK`] — a sliding-window variant of the above (a ring
//!   of mergeable sub-sketches), the sketch of the never-terminating
//!   streaming top-k service, and [`DecayingTopK`], an exponentially-decaying
//!   one (scaled counters), kept for its benchmark probe,
//! * [`hashagg`] — hash-based key aggregation used for local counting in the
//!   frequent-objects and sum-aggregation algorithms (Sections 7 and 8),
//! * [`skew`] — one-pass sampled Zipf-exponent and universe-size estimation,
//!   the input-side half of the cost-model planner (`topk::planner`): callers
//!   that do not know their distribution fit one from the data,
//! * [`Interner`] — dense string ↔ `u64` id interning, the sequential half of
//!   the real-text word-frequency pipeline (the paper's Figure 4 scenario):
//!   string keys are interned once so the distributed machinery can keep
//!   moving machine words.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hashagg;
mod heavy_hitters;
mod intern;
pub mod sampling;
pub mod select;
pub mod skew;
pub mod sorted;
pub mod threshold;
mod treap;
mod windowed;

pub use heavy_hitters::MisraGries;
pub use intern::Interner;
pub use sampling::{bernoulli_sample, geometric_deviate};
pub use select::{
    floyd_rivest_select, partition_three_way, partition_three_way_counts,
    partition_three_way_in_place, quickselect,
};
pub use skew::{expected_distinct, fit_zipf_exponent, SkewFit};
pub use sorted::select_in_sorted_union;
pub use threshold::{ScoreList, ThresholdAlgorithm, ThresholdResult};
pub use treap::Treap;
pub use windowed::{DecayingTopK, SlidingWindowTopK};
