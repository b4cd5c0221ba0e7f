//! Runs one workload: set-up, interleaved passes, estimators, layer metrics.
//!
//! Closed loop, one op in flight.  A run is `K` rounds; a round builds the
//! workload afresh (inputs, oracles, one untimed warm-up pass: `setup_s`)
//! and then times one pass over the same `M` ops.  See [`crate::stats`] for
//! the estimator.  Set-up is repeated because `setup_s` needs more than one
//! sample, and because where the allocator puts a 2 MB input decides the
//! cache conflicts of every op on it: all timings of one build move
//! together, by up to 10 %.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use commsim::{StatsSnapshot, WorldStats};

use crate::probes;
use crate::spec;
use crate::stats::{mean, median, per_op_times, percentile};
use crate::trace::{self_times_ns, TraceSink};
use crate::workloads;

/// Below three rounds a median votes nothing out; the run still completes
/// but says so.
pub const MIN_RELIABLE_ROUNDS: usize = 3;

/// The communication counts of one op, in the paper's currencies (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// `WorldStats::bottleneck_words()`: max over PEs of max(sent, received).
    pub bottleneck_words: u64,
    /// `WorldStats::bottleneck_messages()`: start-ups on the busiest PE.
    pub startups: u64,
    /// `WorldStats::total_words()`, counted on the send side.
    pub total_words: u64,
    /// `WorldStats::total_messages()`.
    pub total_msgs: u64,
}

impl OpCounts {
    pub fn from_world(stats: &WorldStats) -> Self {
        OpCounts {
            bottleneck_words: stats.bottleneck_words(),
            startups: stats.bottleneck_messages(),
            total_words: stats.total_words(),
            total_msgs: stats.total_messages(),
        }
    }

    /// Inside a long region: the same statistics over the per-PE
    /// `stats_snapshot().since()` deltas around one op.
    pub fn from_deltas(per_pe: Vec<StatsSnapshot>) -> Self {
        Self::from_world(&WorldStats::from_snapshots(per_pe))
    }
}

/// What one pass over the schedule produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each op in nanoseconds (max over PEs inside a region).
    pub op_ns: Vec<u64>,
    pub counts: Vec<OpCounts>,
    /// Ops whose result failed its oracle, plus ops a PE did not run.
    pub failed_ops: usize,
    /// Wall time of the whole pass (regions included).
    pub wall_ns: u64,
}

/// How much of the schedule to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// 1/20 of the ops: every oracle is exercised in well under a second.
    Smoke,
}

impl Scale {
    pub fn ops(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(1),
        }
    }
}

/// Named values, first writer wins (the named workload's own numbers take
/// precedence over those measured on other workloads' reduced schedules).
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        if self.get(name).is_none() {
            self.0.push((name.to_string(), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One of the five workloads, built for one seed.
pub trait Workload {
    /// `M`: ops per pass.
    fn num_ops(&self) -> usize;
    /// Rounds of a full run (`K`); fewer run if `--seconds` is too short
    /// for them on this machine.
    fn run_rounds(&self) -> usize;
    fn num_pes(&self) -> usize;
    /// Σ input elements over the `M` ops.
    fn total_elements(&self) -> u64;
    /// Execute every op once, in schedule order, checking each result
    /// against its oracle (outside the op timers).  With a sink the pass
    /// runs through `TraceComm`; `store_spans` asks it to keep spans too.
    fn run_pass(&mut self, trace: Option<(&TraceSink, bool)>) -> Pass;
    /// This workload's per-layer metrics from interleaved untraced and
    /// traced passes.
    fn layer_metrics(
        &self,
        untraced: &[Pass],
        traced: &[Pass],
        sink: &TraceSink,
        out: &mut Metrics,
    );
}

/// Per-op milliseconds: the median of each op's timings over `passes` (see
/// [`crate::stats::per_op_times`]).
pub fn op_times_ms(passes: &[Pass]) -> Vec<f64> {
    per_op_times(&timings_ms(passes))
}

/// `[pass][op]` in milliseconds.
fn timings_ms(passes: &[Pass]) -> Vec<Vec<f64>> {
    passes
        .iter()
        .map(|p| p.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect())
        .collect()
}

/// The wall-clock metrics of a workload from the `M` per-op times.  They are
/// reported, not gated (README, "Demoted").
fn wall_clock_metrics(workload: &dyn Workload, passes: &[Pass], out: &mut Metrics) {
    let times = op_times_ms(passes);
    out.set(
        "elems_per_s",
        workload.total_elements() as f64 / (times.iter().sum::<f64>() / 1e3),
    );
    out.set("op_p50_ms", median(&times));
    out.set("op_p95_ms", percentile(&times, 0.95));
}

/// The outcome of a run, before formatting.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_pass: usize,
    /// Rounds run (`K`), each with its own set-up.
    pub rounds: usize,
    /// The named workload's spans (traced runs only), for the trace file.
    pub trace: Option<TraceSink>,
    /// Every timing of the untraced run, `[round][op]` in milliseconds, and
    /// every round's set-up time in seconds, so a result file can be
    /// re-analysed.
    pub timings_ms: Vec<Vec<f64>>,
    pub setups_s: Vec<f64>,
}

/// Everything a run is parameterised by.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Ops whose counts in `pass` differ from the first pass.  The counts are a
/// deterministic function of the schedule, so any difference is a failure.
fn count_mismatches(first: &Pass, pass: &Pass) -> usize {
    first
        .counts
        .iter()
        .zip(&pass.counts)
        .filter(|(a, b)| a != b)
        .count()
        + first.counts.len().abs_diff(pass.counts.len())
}

/// How many units of `unit_s` seconds fit in a budget of `seconds`: at
/// least one, so a run always measures something, and at most `max`.
fn units_for_budget(seconds: f64, unit_s: f64, max: usize) -> usize {
    ((seconds / unit_s.max(1e-9)).floor() as usize).clamp(1, max)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, pass: &Pass, first: Option<&Pass>) {
        self.attempted += pass.op_ns.len() as u64;
        self.failed += pass.failed_ops as u64;
        if let Some(first) = first {
            self.failed += count_mismatches(first, pass) as u64;
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

/// The end-to-end run: tracing off, every end-to-end metric, and the
/// wall-clock metrics that are reported but not gated.
fn run_untraced(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut timed: Vec<Pass> = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    let mut planned = 1;
    while timed.len() < planned {
        // Release the previous copy first: the rounds are there to average
        // over memory layouts, not to double the working set.
        drop(built.take());
        let start = Instant::now();
        let mut workload = workloads::build(&cfg.workload, cfg.seed, cfg.scale);
        let warm = workload.run_pass(None);
        setup_s.push(start.elapsed().as_secs_f64());
        tally.add(&warm, None);
        if timed.is_empty() {
            // `--seconds` budgets the whole run.  The first set-up and its
            // warm-up pass say how long a round takes on this machine.
            let round_s = setup_s[0] + warm.wall_ns as f64 / 1e9;
            planned = units_for_budget(cfg.seconds, round_s, workload.run_rounds());
        }
        let pass = workload.run_pass(None);
        tally.add(&pass, Some(timed.first().unwrap_or(&warm)));
        timed.push(pass);
        built = Some(workload);
    }
    let workload = built.expect("at least one round ran");

    let counts = &timed[0].counts;
    let count_mean =
        |f: fn(&OpCounts) -> u64| mean(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s));
    metrics.set(
        "bottleneck_words_per_op",
        count_mean(|c| c.bottleneck_words),
    );
    metrics.set("startups_per_op", count_mean(|c| c.startups));
    metrics.set("total_words_per_op", count_mean(|c| c.total_words));
    wall_clock_metrics(workload.as_ref(), &timed, &mut metrics);
    metrics.set("peak_rss_mb", crate::report::peak_rss_mb());
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        ops_per_pass: workload.num_ops(),
        rounds: timed.len(),
        trace: None,
        timings_ms: timings_ms(&timed),
        setups_s: setup_s,
    }
}

/// Interleave `pairs` untraced and traced passes of `workload`.
fn interleaved(
    workload: &mut dyn Workload,
    pairs: usize,
    sink: &TraceSink,
    tally: &mut Tally,
) -> (Vec<Pass>, Vec<Pass>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        let plain = workload.run_pass(None);
        tally.add(&plain, untraced.first());
        // Counts must not depend on the wrapper either.
        let with_trace = workload.run_pass(Some((sink, pair == 0)));
        tally.add(&with_trace, Some(&plain));
        untraced.push(plain);
        traced.push(with_trace);
    }
    (untraced, traced)
}

/// Metrics every threaded or replayed workload derives the same way from
/// its traced passes.
fn shared_layer_metrics(untraced: &[Pass], traced: &[Pass], sink: &TraceSink, out: &mut Metrics) {
    let traced_ops: usize = traced.iter().map(|p| p.op_ns.len()).sum();
    out.set(
        "commsim.p2p.msgs_per_op",
        sink.total_msgs() as f64 / traced_ops as f64,
    );
    out.set(
        "commsim.p2p.words_per_op",
        sink.total_words() as f64 / traced_ops as f64,
    );
    let rank0 = sink.pe(0);
    let load = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e9;
    let (send_s, recv_s) = (load(&rank0.send_ns), load(&rank0.recv_ns));
    out.set("commsim.p2p.send_s", send_s);
    out.set("commsim.p2p.recv_wait_s", recv_s);
    let traced_op_s: f64 = traced
        .iter()
        .flat_map(|p| &p.op_ns)
        .map(|&ns| ns as f64 / 1e9)
        .sum();
    out.set("commsim.p2p.comm_share", (send_s + recv_s) / traced_op_s);
    let plain_p50 = median(&op_times_ms(untraced));
    let traced_p50 = median(&op_times_ms(traced));
    out.set(
        "bench.trace_overhead_share",
        (traced_p50 - plain_p50) / plain_p50,
    );
}

/// Self time per span level on rank 0 (op → algorithm → collective → p2p).
fn self_time_metrics(sink: &TraceSink, out: &mut Metrics) {
    const COLLECTIVES: [&str; 11] = [
        "broadcast",
        "reduce",
        "allreduce",
        "scan_inclusive",
        "scan_exclusive",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "alltoall_indirect",
        "barrier",
    ];
    let spans = sink.pe(0).spans.lock().expect("no PE panicked");
    let mut levels = [0u64; 4];
    for (span, self_ns) in spans.iter().zip(self_times_ns(&spans)) {
        let level = match span.name {
            "op" => 0,
            name if COLLECTIVES.contains(&name) => 2,
            name if name == "send_raw" || name.starts_with("recv") || name == "try_recv" => 3,
            _ => 1,
        };
        levels[level] += self_ns;
    }
    for (name, ns) in ["op", "algorithm", "collective", "p2p"].iter().zip(levels) {
        out.set(&format!("trace.self_s.{name}"), ns as f64 / 1e9);
    }
}

/// The traced run: every per-layer metric.  The named workload runs its
/// full schedule, untraced and traced passes interleaved; the layers it
/// does not drive are measured on the reduced schedules of the workloads
/// that do, and by the outside probes.
fn run_traced(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    let mut workload = workloads::build(&cfg.workload, cfg.seed, cfg.scale);
    let warm = workload.run_pass(None);
    tally.add(&warm, None);
    // Before the trace buffers and the other workloads' reduced schedules
    // exist: one build and one pass of the named workload alone.
    metrics.set("peak_rss_mb", crate::report::peak_rss_mb());
    // One build, so both sides see the same memory layout; as many
    // untraced + traced pairs of passes as fit in two fifths of the budget.
    // The rest is for the set-up, the other workloads' reduced schedules
    // and the probes.
    let pair_s = 2.0 * warm.wall_ns as f64 / 1e9;
    let pairs = units_for_budget(0.4 * cfg.seconds, pair_s, 3);
    let sink = TraceSink::new(workload.num_pes());
    let (untraced, traced) = interleaved(workload.as_mut(), pairs, &sink, &mut tally);
    wall_clock_metrics(workload.as_ref(), &untraced, &mut metrics);
    shared_layer_metrics(&untraced, &traced, &sink, &mut metrics);
    self_time_metrics(&sink, &mut metrics);
    workload.layer_metrics(&untraced, &traced, &sink, &mut metrics);
    let ops_per_pass = workload.num_ops();
    drop(workload);

    for other in spec::WORKLOADS.iter().filter(|w| w.name != cfg.workload) {
        let mut reduced = workloads::build(other.name, cfg.seed, Scale::Smoke);
        tally.add(&reduced.run_pass(None), None);
        let reduced_sink = TraceSink::new(reduced.num_pes());
        let (untraced, traced) = interleaved(reduced.as_mut(), 1, &reduced_sink, &mut tally);
        reduced.layer_metrics(&untraced, &traced, &reduced_sink, &mut metrics);
    }
    probes::run(cfg.seed, &mut metrics);

    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        ops_per_pass,
        rounds: 1,
        trace: Some(sink),
        timings_ms: Vec::new(),
        setups_s: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_clamped() {
        assert_eq!(units_for_budget(12.0, 2.0, 7), 6);
        assert_eq!(units_for_budget(12.0, 1.0, 7), 7);
        assert_eq!(units_for_budget(1.0, 2.0, 7), 1);
        assert_eq!(units_for_budget(1.0, 0.0, 5), 5);
    }

    #[test]
    fn count_mismatches_are_counted_per_op() {
        let counts = |words: &[u64]| Pass {
            counts: words
                .iter()
                .map(|&w| OpCounts {
                    total_words: w,
                    ..OpCounts::default()
                })
                .collect(),
            ..Pass::default()
        };
        assert_eq!(
            count_mismatches(&counts(&[1, 2, 3]), &counts(&[1, 2, 3])),
            0
        );
        assert_eq!(
            count_mismatches(&counts(&[1, 2, 3]), &counts(&[1, 9, 3])),
            1
        );
        assert_eq!(count_mismatches(&counts(&[1, 2, 3]), &counts(&[1, 2])), 1);
    }

    #[test]
    fn first_writer_wins() {
        let mut m = Metrics::default();
        m.set("a", 1.0);
        m.set("a", 2.0);
        assert_eq!(m.get("a"), Some(1.0));
    }
}
