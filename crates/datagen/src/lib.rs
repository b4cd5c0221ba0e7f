//! # datagen — synthetic workload generators
//!
//! The paper's evaluation (Section 10) uses purely synthetic inputs, which
//! this crate regenerates:
//!
//! * [`Zipf`] — Zipf-distributed object frequencies ("model word frequencies
//!   in natural languages, city population sizes, and many other rankings"),
//!   used by the top-k most-frequent-objects experiments (Figures 7 and 8);
//! * [`NegativeBinomial`] — the negative binomial distribution with
//!   `r = 1000`, `p = 0.05` mentioned as the flat-plateau counterpoint;
//! * [`SkewedSelectionInput`] — the Section 10.1 generator for the
//!   unsorted-selection experiment (Figure 6): per-PE Zipf distributions with
//!   randomized support size and exponent so that the data distribution is
//!   skewed across PEs but several PEs contribute to the result;
//! * [`MulticriteriaWorkload`] — score-list generators for the multicriteria
//!   top-k algorithms of Section 6;
//! * [`WeightedZipfInput`] — key/value workloads for the sum aggregation of
//!   Section 8;
//! * [`text`] — seedable synthetic-English corpora (Zipf word frequencies
//!   over an embedded word list, rendered with sentence structure) for the
//!   real-text word-frequency workload of Section 7 / Figure 4, including a
//!   **time-varying streaming mode** ([`text::StreamProfile`]: topic drift by
//!   rotating the rank → word permutation, flash-crowd bursts that spike one
//!   key) for the never-terminating top-k service workload.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod multicriteria;
mod negbin;
mod selection;
pub mod text;
mod weighted;
mod zipf;

pub use multicriteria::MulticriteriaWorkload;
pub use negbin::NegativeBinomial;
pub use selection::{SkewedSelectionInput, UniformInput};
pub use text::{FlashCrowd, StreamProfile, TextCorpus};
pub use weighted::WeightedZipfInput;
pub use zipf::Zipf;
