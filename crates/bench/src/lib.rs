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
//!   * `bnb_expansions` — the `K = m + O(hp)` branch-and-bound claim of §5.
//!
//! Absolute times are not comparable with the paper's Infiniband cluster —
//! see ARCHITECTURE.md and EXPERIMENTS.md "Machine notes" — but the *shape*
//! of every curve (who wins, where the crossovers are, what scales and what
//! does not) is, and EXPERIMENTS.md records both.

pub mod planning;
pub mod report;
pub mod scaling;

pub use planning::AlgoChoice;
pub use report::Table;
pub use scaling::{measure_spmd, pe_sweep, scaled_epsilon, Backend, Measurement, ScaledEpsilon};

/// Run the same generic SPMD closure on the backend picked on the CLI; the
/// macro duplicates the closure literal into each match arm so each
/// backend infers its own communicator type (`&Comm` on threads, `&MuxComm`
/// on both drivers of the replay engine) and its own `Send` bounds.
#[macro_export]
macro_rules! run_on {
    ($backend:expr, $p:expr, $f:expr) => {
        match $backend {
            $crate::Backend::Threaded => ::commsim::run_spmd($p, $f),
            $crate::Backend::Seq => ::commsim::run_spmd_seq($p, $f),
            $crate::Backend::Mux => ::commsim::run_spmd_mux($p, $f),
        }
    };
}

/// Fault-injecting counterpart of [`run_on!`]: run the closure on the CLI
/// backend under a `commsim::FaultPlan`.  Yields `SpmdOutput<Option<T>>` —
/// crashed PEs contribute `None`, survivors `Some(T)`.
#[macro_export]
macro_rules! run_on_faulty {
    ($backend:expr, $p:expr, $plan:expr, $f:expr) => {
        match $backend {
            $crate::Backend::Threaded => {
                ::commsim::run_spmd_faulty(::commsim::SpmdConfig::new($p).with_faults($plan), $f)
            }
            $crate::Backend::Seq => {
                ::commsim::run_spmd_seq_faulty(::commsim::SeqConfig::new($p).with_faults($plan), $f)
            }
            $crate::Backend::Mux => {
                ::commsim::run_spmd_mux_faulty(::commsim::MuxConfig::new($p).with_faults($plan), $f)
            }
        }
    };
}
