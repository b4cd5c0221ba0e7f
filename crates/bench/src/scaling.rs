//! Weak-scaling measurement helpers shared by the experiment binaries.

use std::time::Duration;

use commsim::{run_spmd, Comm, CostModel, WorldStats};

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
    /// Build a measurement from an SPMD run's statistics.
    pub fn from_stats(num_pes: usize, wall_time: Duration, stats: WorldStats) -> Self {
        let model = CostModel::default();
        Measurement {
            num_pes,
            wall_time,
            bottleneck_words: stats.bottleneck_words(),
            bottleneck_messages: stats.bottleneck_messages(),
            total_words: stats.total_words(),
            modeled_comm_time: model.world_cost(&stats),
            stats,
        }
    }

    /// Collapse repetitions of one configuration into a single measurement:
    /// wall time is averaged, communication counters (identical across
    /// repetitions up to sampling randomness) are taken from the last.
    /// The bins build the per-repetition measurements with
    /// [`crate::run_on!`] and reduce them here.
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

/// Run `body` as an SPMD region on `p` PEs and collect a [`Measurement`].
///
/// The body receives the communicator and is responsible for generating its
/// own local input (deterministically from `comm.rank()`), exactly like the
/// experiment binaries do.
pub fn measure_spmd<F>(p: usize, body: F) -> Measurement
where
    F: Fn(&Comm) + Send + Sync,
{
    let out = run_spmd(p, |comm| body(comm));
    Measurement::from_stats(p, out.elapsed, out.stats)
}

/// Which [`commsim::Communicator`] backend an experiment binary drives
/// (selected with `--backend threaded|seq|mux` on the bins); dispatch a
/// generic SPMD closure onto it with the [`crate::run_on!`] macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per PE (`run_spmd`) — wall-clock measurements.
    Threaded,
    /// The replay engine driven inline on the calling thread
    /// (`run_spmd_seq`) — one deterministic schedule.
    Seq,
    /// The replay engine's cooperative tasks over a worker pool
    /// (`run_spmd_mux`) — massive-p sweeps (p = 16 384 and beyond) with
    /// bit-identical traffic metering.
    Mux,
}

impl Backend {
    /// Parse a `--backend` CLI value; panics on anything but
    /// `threaded`/`seq`/`mux` (matching the bins' argument-error
    /// convention).
    pub fn parse(value: &str) -> Self {
        match value {
            "threaded" => Backend::Threaded,
            "seq" => Backend::Seq,
            "mux" => Backend::Mux,
            other => panic!("unknown backend {other} (threaded|seq|mux)"),
        }
    }

    /// The CLI name (for report labels).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Seq => "seq",
            Backend::Mux => "mux",
        }
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
    use commsim::Communicator;

    #[test]
    fn pe_sweep_is_powers_of_two() {
        assert_eq!(pe_sweep(1), vec![1]);
        assert_eq!(pe_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(pe_sweep(10), vec![1, 2, 4, 8]);
        assert_eq!(pe_sweep(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn measurement_captures_communication() {
        let m = measure_spmd(4, |comm| {
            let _ = comm.allreduce_sum(comm.rank() as u64);
        });
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
        let reps = (0..3).map(|_| measure_spmd(2, |comm| comm.barrier()));
        let m = Measurement::averaged(reps.collect());
        assert_eq!(m.num_pes, 2);
        // A barrier moves no payload.
        assert_eq!(m.bottleneck_words, 0);
    }
}
