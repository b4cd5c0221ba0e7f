//! Weak-scaling measurement helpers shared by the experiment binaries.

use std::time::Duration;

use commsim::{CostModel, SpmdOutput, WorldStats};

/// One measured configuration of a weak-scaling sweep.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Number of simulated PEs.
    pub num_pes: usize,
    /// Wall-clock time of the SPMD region.
    pub wall_time: Duration,
    /// Bottleneck communication volume (max over PEs of max(sent, received)
    /// words).
    pub bottleneck_words: u64,
    /// Bottleneck number of message start-ups.
    pub bottleneck_messages: u64,
    /// Total words moved across the whole machine.
    pub total_words: u64,
    /// Modeled communication time under the default α/β cost model.
    pub modeled_comm_time: f64,
    /// Raw per-PE statistics for further analysis.
    pub stats: WorldStats,
}

impl Measurement {
    /// Measure an SPMD run from its statistics and wall time.
    pub fn of<T>(out: &SpmdOutput<T>) -> Self {
        let stats = out.stats.clone();
        Measurement {
            num_pes: stats.num_pes(),
            wall_time: out.elapsed,
            bottleneck_words: stats.bottleneck_words(),
            bottleneck_messages: stats.bottleneck_messages(),
            total_words: stats.total_words(),
            modeled_comm_time: CostModel::default().world_cost(&stats),
            stats,
        }
    }

    /// Collapse repetitions of one configuration into a single measurement:
    /// wall time is averaged, communication counters (identical across
    /// repetitions up to sampling randomness) are taken from the last.
    /// The bins measure each repetition with [`Measurement::of`] and reduce
    /// them here.
    pub fn averaged(mut repetitions: Vec<Measurement>) -> Self {
        assert!(!repetitions.is_empty(), "need at least one repetition");
        let avg_nanos = repetitions
            .iter()
            .map(|m| m.wall_time.as_nanos())
            .sum::<u128>()
            / repetitions.len() as u128;
        let mut last = repetitions.pop().expect("non-empty");
        last.wall_time = Duration::from_nanos(avg_nanos as u64);
        last
    }
}

/// An accuracy target derived by scaling a paper ε down to a reduced per-PE
/// input size, with an **explicit** cap (see [`scaled_epsilon`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledEpsilon {
    /// The ε to use: `min(uncapped, cap)`.
    pub value: f64,
    /// The scaled value before capping.
    pub uncapped: f64,
    /// `true` iff the cap bound (`uncapped > cap`): the accuracy target is
    /// flattened and weak-scaling curves at this scale are not comparable
    /// with uncapped ones.
    pub capped: bool,
}

impl ScaledEpsilon {
    /// Print the standard warning to stderr when the cap bound.  Every
    /// binary that scales ε calls this so a flattened accuracy target is
    /// never silent (the pre-PR-4 fig7 clamped without telling anyone,
    /// distorting quick-scale curves).
    pub fn warn_if_capped(&self, binary: &str) {
        if self.capped {
            eprintln!(
                "warning: {binary}: ε cap {:.1e} binds (uncapped scaled ε = {:.1e}); \
                 the accuracy target is flattened at this scale — raise --eps-cap or \
                 --per-pe for a faithful weak-scaling curve",
                self.value, self.uncapped
            );
        }
    }
}

/// Scale the paper's ε from its reference per-PE input size `2^base_log` to
/// the reduced `2^log_per_pe` by the square root of the size reduction
/// (keeping the sample-to-input ratio comparable), bounded by `cap`.
pub fn scaled_epsilon(base: f64, base_log: u32, log_per_pe: u32, cap: f64) -> ScaledEpsilon {
    let scale = (2f64.powi(base_log as i32) / 2f64.powi(log_per_pe as i32)).sqrt();
    let uncapped = base * scale;
    ScaledEpsilon {
        value: uncapped.min(cap),
        uncapped,
        capped: uncapped > cap,
    }
}

/// The PE counts of a weak-scaling sweep: powers of two from 1 to `max`
/// (inclusive if `max` itself is a power of two, else the largest power of
/// two below it is the last step).
pub fn pe_sweep(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 1;
    while p <= max {
        out.push(p);
        p *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::{run_spmd, Communicator};

    #[test]
    fn pe_sweep_is_powers_of_two() {
        assert_eq!(pe_sweep(1), vec![1]);
        assert_eq!(pe_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(pe_sweep(10), vec![1, 2, 4, 8]);
        assert_eq!(pe_sweep(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn measurement_captures_communication() {
        let m = Measurement::of(&run_spmd(4, |comm| {
            let _ = comm.allreduce_sum(comm.rank() as u64);
        }));
        assert_eq!(m.num_pes, 4);
        assert!(m.bottleneck_words > 0);
        assert!(m.total_words > 0);
        assert!(m.modeled_comm_time > 0.0);
        assert!(m.bottleneck_messages > 0);
    }

    #[test]
    fn scaled_epsilon_reports_when_the_cap_binds() {
        // At the reference size the base value passes through untouched.
        let at_ref = scaled_epsilon(3e-4, 28, 28, 0.05);
        assert_eq!(at_ref.value, 3e-4);
        assert!(!at_ref.capped);
        // Moderately reduced: scaled but uncapped (fig7's default scale).
        let moderate = scaled_epsilon(3e-4, 28, 18, 0.05);
        assert!((moderate.value - 3e-4 * 32.0).abs() < 1e-12);
        assert!(!moderate.capped);
        // Quick scale: the cap binds and says so.
        let quick = scaled_epsilon(3e-4, 28, 10, 0.05);
        assert_eq!(quick.value, 0.05);
        assert!(quick.capped);
        assert!(quick.uncapped > quick.value);
    }

    #[test]
    fn averaged_measurement_keeps_the_counters() {
        let reps = (0..3).map(|_| Measurement::of(&run_spmd(2, |comm| comm.barrier())));
        let m = Measurement::averaged(reps.collect());
        assert_eq!(m.num_pes, 2);
        // A barrier moves no payload.
        assert_eq!(m.bottleneck_words, 0);
    }
}
