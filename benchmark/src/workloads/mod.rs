//! The five workloads.  Each is a fixed schedule: `M` distinct ops derived
//! from `--seed` (op `i` derives its own seed), the same in every pass.

mod bulkpq;
mod frequent;
mod select;
mod stream;

use std::time::Instant;

use commsim::{Communicator, StatsSnapshot};

use crate::harness::{OpCounts, Pass, Scale, Workload};

/// Build the named workload's inputs and oracles for `seed`.
///
/// # Panics
///
/// Panics on a name that is not one of [`crate::spec::WORKLOADS`]; `main`
/// validates the name where it enters the program.
pub fn build(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "select_local" => Box::new(select::Select::local(seed, scale)),
        "select_wide_mux" => Box::new(select::Select::wide_mux(seed, scale)),
        "frequent_zipf" => Box::new(frequent::FrequentZipf::new(seed, scale)),
        "bulkpq_churn" => Box::new(bulkpq::BulkPqChurn::new(seed, scale)),
        "stream_service" => Box::new(stream::StreamServiceLoad::new(seed, scale)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// SplitMix64 step: the seed of op (or input) `index` under run seed `seed`.
pub(crate) fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one PE measured around each op of a long region.
pub(crate) struct OpLog {
    pub ns: Vec<u64>,
    pub deltas: Vec<StatsSnapshot>,
}

impl OpLog {
    pub fn with_capacity(ops: usize) -> Self {
        OpLog {
            ns: Vec::with_capacity(ops),
            deltas: Vec::with_capacity(ops),
        }
    }

    /// Time and meter one op.
    pub fn measure<C: Communicator, T>(&mut self, comm: &C, op: impl FnOnce() -> T) -> T {
        let before = comm.stats_snapshot();
        let start = Instant::now();
        let out = op();
        self.ns.push(start.elapsed().as_nanos() as u64);
        self.deltas.push(comm.stats_snapshot().since(&before));
        out
    }
}

/// Fold the per-PE logs of a long region into a [`Pass`]: an op's time is
/// the max over PEs, its counts the world statistics of the per-PE deltas.
/// A PE that logged fewer than `ops` ops makes the missing ops failures.
pub(crate) fn pass_from_logs(logs: &[&OpLog], ops: usize, wall_ns: u64) -> Pass {
    let ran = logs.iter().map(|l| l.ns.len()).min().unwrap_or(0).min(ops);
    let mut pass = Pass {
        op_ns: Vec::with_capacity(ran),
        counts: Vec::with_capacity(ran),
        failed_ops: ops - ran,
        wall_ns,
    };
    for op in 0..ran {
        pass.op_ns.push(
            logs.iter()
                .map(|l| l.ns[op])
                .max()
                .expect("at least one PE"),
        );
        pass.counts.push(OpCounts::from_deltas(
            logs.iter().map(|l| l.deltas[op]).collect(),
        ));
    }
    pass
}

/// Median of the per-op times of the ops selected by `class`.
pub(crate) fn class_median_ms(times_ms: &[f64], class: impl Fn(usize) -> bool) -> Option<f64> {
    let picked: Vec<f64> = times_ms
        .iter()
        .enumerate()
        .filter(|&(i, _)| class(i))
        .map(|(_, &ms)| ms)
        .collect();
    (!picked.is_empty()).then(|| crate::stats::median(&picked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_every_argument() {
        let base = derive_seed(1, 0, 0);
        assert_ne!(base, derive_seed(2, 0, 0));
        assert_ne!(base, derive_seed(1, 1, 0));
        assert_ne!(base, derive_seed(1, 0, 1));
        assert_eq!(base, derive_seed(1, 0, 0));
    }
}
