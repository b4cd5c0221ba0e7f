//! The layered top-k benchmark.  See `README.md` in this directory.
//!
//! Everything that measures lives here, outside `crates/*`: the workloads
//! and their oracles ([`workloads`]), the run procedure ([`harness`]), the
//! estimators ([`stats`]), the `TraceComm` wrapper ([`trace`]) and the
//! outside probes ([`probes`]).

pub mod compare;
pub mod harness;
pub mod json;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
