//! # bench — experiment harness for the paper's evaluation
//!
//! This crate regenerates every table and figure of the paper's Section 10
//! (plus the cost comparison of Table 1) on the simulated machine:
//!
//! * binaries (`cargo run -p bench --release --bin <name>`):
//!   * `table1` — modeled α/β cost and bottleneck volume of every algorithm
//!     vs. its baseline,
//!   * `fig6`   — weak scaling of unsorted selection (Figure 6),
//!   * `fig7`   — weak scaling of the top-k most frequent objects algorithms
//!     (Figures 7a/7b),
//!   * `fig8`   — the strict-accuracy variant (Figure 8),
//!   * `bnb_expansions` — the `K = m + O(hp)` branch-and-bound claim of §5,
//!   * `wordfreq_text` — real-text word frequency (§7, Figure 4): tokenizer
//!     → distributed interning → PAC/EC/PEC/Naive,
//!   * `bulkpq_sched` — multi-round job scheduling on the bulk priority
//!     queue (§5),
//!   * `stream_topk` — the streaming top-k service over a non-stationary
//!     stream, with a `--chaos` mode under injected faults.
//!
//! Every bin takes `--backend threaded|seq|mux` ([`commsim::Backend`]) and
//! starts its worlds with [`commsim::run_on!`].  Every bin reads its
//! command line through [`cli::Cli`], one call per flag with the bin's own
//! default: `--flag value` pairs and bare switches, in any order, the last
//! of a repeated flag winning.  An unknown flag, a valued flag without a
//! value and a value that does not parse each panic with a message naming
//! the flag.
//!
//! Absolute times are not comparable with the paper's Infiniband cluster —
//! see ARCHITECTURE.md and EXPERIMENTS.md "Machine notes" — but the *shape*
//! of every curve (who wins, where the crossovers are, what scales and what
//! does not) is, and EXPERIMENTS.md records both.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod planning;
pub mod report;
pub mod scaling;

pub use planning::AlgoChoice;
pub use report::Table;
pub use scaling::{pe_sweep, scaled_epsilon, Measurement, ScaledEpsilon};
