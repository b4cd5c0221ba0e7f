//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics.  `BENCHMARK.json` at the repository
//! root states the same thing for the driver; `tests/contract.rs` keeps the
//! two from drifting apart.

/// `run_seconds` of `BENCHMARK.json`: the budget of one run, set-ups and
/// warm-up passes included.
pub const RUN_SECONDS: u64 = 25;

/// A named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "select_local",
        why: "p=2 threads, 2^18 keys/PE: seqkit kernels and topk::unsorted do the work, transport almost none; a kernel or allocation win must show here",
    },
    WorkloadSpec {
        name: "select_wide_mux",
        why: "same selection at p=64 on one mux worker, 64 keys/PE: replay and wait-map bookkeeping dominate; a kernel win must show no change here",
    },
    WorkloadSpec {
        name: "frequent_zipf",
        why: "PAC/EC/PEC/Naive on Zipf(1.0) keys: hash aggregation, sampling, DHT and the word codec carry large messages; the bandwidth use of the transport",
    },
    WorkloadSpec {
        name: "bulkpq_churn",
        why: "bulk priority queue rounds in one long region: ~57 tiny latency-bound start-ups per op; a transport change that trades wake-up latency for bandwidth loses here",
    },
    WorkloadSpec {
        name: "stream_service",
        why: "StreamService batches in one long region: generate, tokenize, intern, sketch, refresh every 4th; p50 is a plain batch, p95 a refresh batch",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What kind of number a metric is, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory: differs between runs of the same code.
    Measured,
    /// A count made by the program: repeats bit-for-bit for a fixed seed.
    Count,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub kind: Kind,
}

/// Share of the parent's median by which a count may get worse.  The counts
/// repeat exactly for a fixed seed, and `compare` and `selfcheck` judge them
/// by equality.  Their bound in `BENCHMARK.json` cannot be zero because the
/// driver's acceptance check compares runs made on *different* seeds, where
/// the inputs — and with them the recursion depths of a randomized
/// selection — differ by up to 5 %.
pub const COUNT_BOUND: f64 = 0.10;

/// `setup_s` is the one wall-clock metric the driver's contract requires,
/// and the contract gives it the largest bound it allows: on this sandbox a
/// neighbour's memory traffic slows every memory-bound second by 15–25 %
/// for minutes at a time (README, "Demoted").
pub const SETUP_BOUND: f64 = 0.25;

const fn count(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: COUNT_BOUND,
        kind: Kind::Count,
    }
}

/// What the driver gates.  The wall-clock and memory metrics of ISSUE 13
/// (`elems_per_s`, `op_p50_ms`, `op_p95_ms`, `peak_rss_mb`) cannot hold a
/// tenth on this sandbox and are reported per layer instead.
pub const END_TO_END: [MetricSpec; 4] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: SETUP_BOUND,
        kind: Kind::Measured,
    },
    count("bottleneck_words_per_op", "words"),
    count("startups_per_op", "messages"),
    count("total_words_per_op", "words"),
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, printed by the traced run.  Layer = module.
pub const PER_LAYER: [LayerSpec; 71] = [
    // The whole program on the named workload: ISSUE 13's wall-clock and
    // memory metrics, reported and not gated (README, "Demoted").  Times
    // come from the traced run's untraced passes; memory is `VmHWM` after
    // one build and one untraced pass.
    higher("elems_per_s", "1/s"),
    lower("op_p50_ms", "ms"),
    lower("op_p95_ms", "ms"),
    lower("peak_rss_mb", "MB"),
    // seqkit kernels (outside probes).
    lower("seqkit.partition_counts_ns_per_elem", "ns"),
    lower("seqkit.sample_retain_ns_per_elem", "ns"),
    lower("seqkit.floyd_rivest_ns_per_elem", "ns"),
    lower("seqkit.count_keys_ns_per_elem", "ns"),
    lower("seqkit.bernoulli_sample_ns_per_elem", "ns"),
    lower("seqkit.treap_insert_ns", "ns"),
    lower("seqkit.treap_smallest_us", "us"),
    lower("seqkit.treap_split_ns", "ns"),
    lower("seqkit.sliding_insert_ns_per_item", "ns"),
    lower("seqkit.decaying_insert_ns_per_item", "ns"),
    lower("seqkit.intern_ns_per_token", "ns"),
    lower("seqkit.sliding_merged_us", "us"),
    // commsim: codec, transport, runner, collectives (outside probes).
    lower("commsim.codec.encode_ns_per_word", "ns"),
    lower("commsim.codec.decode_ns_per_word", "ns"),
    lower("commsim.transport.pingpong_rtt_us", "us"),
    lower("commsim.transport.pingpong_256w_rtt_us", "us"),
    lower("commsim.collectives.barrier_us", "us"),
    lower("commsim.collectives.allreduce_us", "us"),
    lower("commsim.collectives.allreduce_256w_us", "us"),
    lower("commsim.collectives.allgather_us", "us"),
    lower("commsim.collectives.allgather_256w_us", "us"),
    lower("commsim.collectives.alltoall_us", "us"),
    lower("commsim.collectives.alltoall_256w_us", "us"),
    lower("commsim.runner.empty_region_us", "us"),
    // commsim point-to-point, from TraceComm on the named workload.
    lower("commsim.p2p.msgs_per_op", "messages"),
    lower("commsim.p2p.words_per_op", "words"),
    lower("commsim.p2p.send_s", "s"),
    lower("commsim.p2p.recv_wait_s", "s"),
    lower("commsim.p2p.comm_share", "share"),
    // commsim replay backends.
    lower("commsim.mux.executions_per_pe", "count"),
    lower("commsim.mux.closure_s", "s"),
    lower("commsim.mux.sched_s", "s"),
    lower("commsim.mux.empty_region_ms", "ms"),
    lower("commsim.mux.wide_op_ms_p256", "ms"),
    lower("commsim.seq.executions_per_pe", "count"),
    lower("commsim.seq.empty_region_ms", "ms"),
    lower("commsim.seq.wide_op_ms", "ms"),
    // topk.
    lower("topk.select.levels_per_op", "count"),
    lower("topk.frequent.pac_ms", "ms"),
    lower("topk.frequent.ec_ms", "ms"),
    lower("topk.frequent.pec_ms", "ms"),
    lower("topk.frequent.naive_ms", "ms"),
    lower("topk.frequent.pac_words", "words"),
    lower("topk.frequent.ec_words", "words"),
    lower("topk.frequent.pec_words", "words"),
    lower("topk.frequent.naive_words", "words"),
    lower("topk.dht.aggregate_ms", "ms"),
    lower("topk.select_threshold_ms", "ms"),
    lower("topk.bulkpq.insert_us", "us"),
    lower("topk.bulkpq.delete_min_us", "us"),
    lower("topk.bulkpq.delete_min_flexible_us", "us"),
    lower("topk.bulkpq.startups_per_round", "messages"),
    // workloads / datagen.
    lower("workloads.stream.plain_batch_ms", "ms"),
    lower("workloads.stream.refresh_batch_ms", "ms"),
    lower("workloads.stream.words_per_item", "words"),
    lower("workloads.stream.p95_staleness_items", "count"),
    lower("workloads.text.tokenize_ns_per_word", "ns"),
    lower("datagen.stream_batch_text_ns_per_word", "ns"),
    lower("datagen.select_input_s", "s"),
    lower("datagen.zipf_sample_ns_per_elem", "ns"),
    // Plain single-threaded std baselines of the same problems.
    lower("baseline.std_select_ms", "ms"),
    lower("baseline.std_count_ms", "ms"),
    // Tracing cost on the named workload.
    lower("bench.trace_overhead_share", "share"),
    // Self time per span level on the named workload's first traced pass
    // (rank 0): where inside an op the time goes.
    lower("trace.self_s.op", "s"),
    lower("trace.self_s.algorithm", "s"),
    lower("trace.self_s.collective", "s"),
    lower("trace.self_s.p2p", "s"),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static LayerSpec> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}
