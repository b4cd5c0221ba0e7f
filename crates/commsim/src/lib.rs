//! # commsim — a simulated distributed-memory machine
//!
//! This crate provides the substrate on which the communication-efficient
//! top-k selection algorithms of Hübschle-Schneider, Sanders & Müller
//! (IPDPS 2016) are implemented.  It models the machine the paper assumes in
//! its Section 2 ("Preliminaries"):
//!
//! * `p` processing elements (PEs), numbered `0..p`, each holding **private
//!   local data** — there is no shared memory between PEs,
//! * full-duplex, single-ported point-to-point communication where sending a
//!   message of `m` machine words costs `α + mβ`,
//! * collective operations (broadcast, reduction, all-reduction, prefix sums,
//!   gather, scatter, all-gather, all-to-all) that run in
//!   `O(βm + α log p)` (or `O(βmp + α log p)` where the output is inherently
//!   of size `mp`: [`Communicator::allgather`] is a dissemination all-gather
//!   that meets this on every PE, exactly `⌈log₂ p⌉ + (p−1)·m` words in
//!   `⌈log₂ p⌉` messages).  The rooted collectives are binomial trees, so
//!   for long vectors their root's path pays `βm·log p` rather than `βm`.
//!
//! The machine model is captured by the [`Communicator`] trait, and every
//! algorithm built on this crate is generic over it.  A [`World`] configures
//! one run — PEs, fault plan, pool size — and starts it on one of two
//! engines through one method per [`Backend`] (see [`World`], and
//! `ARCHITECTURE.md` at the repository root for the full side-by-side
//! treatment):
//!
//! * **threaded** ([`Comm`], via [`World::threaded`]) — one OS thread per PE
//!   over a sharded inbox transport (one shard of per-source mutex queues
//!   per destination PE, installed on a pair's first send, park/unpark
//!   blocking); real parallelism and wall-clock timings, fault-free runs
//!   only;
//! * **replay** ([`MuxComm`]) — a blocked receive aborts the
//!   PE's closure and a park/wake scheduler re-executes it later; no thread
//!   or stack per PE, traffic metering bit-identical to the threaded
//!   backend, and the one engine that injects a [`FaultPlan`], with exact
//!   failure verdicts.  Two drivers: **multiplexed** ([`World::mux`]) schedules
//!   thousands of simulated PEs (p = 16 384 and beyond) over a small worker
//!   pool; **sequential** ([`World::seq`]) runs the same scheduler inline on
//!   the calling thread — one deterministic schedule, no `Send` bounds; fast
//!   tests and reproducible debugging.
//!
//! [`run_on!`] runs one closure on a backend chosen at run time, and
//! [`run_spmd`] / [`run_spmd_seq`] are the fault-free shorthands.
//!
//! Every message that crosses the "network" is metered: the number of
//! machine words, the number of message start-ups, and per-PE send/receive
//! totals are recorded so that algorithms can be evaluated in the α/β cost
//! model the paper uses — independently of wall-clock time.
//!
//! ## Quick example
//!
//! ```
//! use commsim::{run_spmd, Communicator, ReduceOp};
//!
//! // Four PEs each contribute their rank; the sum 0+1+2+3 = 6 is computed
//! // with a tree all-reduction and is available on every PE.
//! let out = run_spmd(4, |comm| {
//!     let local = comm.rank() as u64;
//!     comm.allreduce(local, ReduceOp::sum())
//! });
//! assert!(out.results.iter().all(|&s| s == 6));
//! // The communication volume is logged per PE:
//! assert!(out.stats.bottleneck_words() > 0);
//! ```
//!
//! ## Message representation: u64 words, one path
//!
//! Every payload travels in one form: its u64-word encoding
//! ([`codec::WordCodec`] — implemented for all scalars, `String`, and the
//! standard containers over them) in a word buffer, on every backend.
//! [`CommData`], the bound the communicator API takes, is a blanket over
//! `WordCodec + Send + 'static`, and a message's metered size *is* its wire
//! length.  A type without a codec does not compile as a payload; implement
//! `WordCodec` to make one sendable.  A [`StatsSnapshot`] holds the paper's
//! four counts — messages and words, sent and received — and every backend
//! meters them bit-identically; the threaded backend's buffer pool, which
//! recycles capacity between receives and sends, is private to it and
//! meters nothing.
//!
//! ## What is (deliberately) simulated
//!
//! The paper's evaluation ran on an Infiniband cluster with MPI.  Absolute
//! transfer speed is irrelevant to the paper's claims, which are about
//! *communication volume* and *latency (start-ups)*.  The simulator preserves
//! exactly those quantities and exposes them through [`WorldStats`] and
//! [`CostModel`], so experiments report both measured wall-time shape and the
//! modeled `α·startups + β·words` cost.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod collectives;
mod comm;
mod communicator;
pub mod cost;
mod error;
mod faults;
mod message;
mod metrics;
mod mux;
pub mod recovery;
mod runner;
mod subgroup;
pub mod topology;
pub mod transport;
mod world;

pub use codec::{WordCodec, WordReader};
pub use collectives::ReduceOp;
pub use comm::Comm;
pub use communicator::Communicator;
pub use cost::{CostModel, PredictedComm};
pub use error::{CommError, CommResult};
pub use faults::{FaultEvent, FaultPlan};
pub use message::CommData;
pub use metrics::{StatsSnapshot, WorldStats};
pub use mux::{run_spmd_mux_with, run_spmd_seq, MuxComm, MuxConfig};
pub use recovery::{run_recoverable, Membership, RecoveryError, RecoveryOutcome};
pub use runner::run_spmd;
pub use subgroup::SubComm;
pub use world::{Backend, SpmdOutput, World};

/// Rank of a processing element, `0..p`.
pub type Rank = usize;

/// Message tag used to match point-to-point sends and receives.
pub type Tag = u64;
