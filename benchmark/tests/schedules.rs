//! The reduced (`--smoke`) schedules: every oracle passes, counts are a
//! function of the seed alone, and a traced run reports every per-layer
//! metric with point-to-point counts equal to the untraced ones.

use benchmark::harness::{self, OpCounts, RunConfig, Scale};
use benchmark::spec;
use benchmark::workloads;

fn smoke_counts(name: &str, seed: u64) -> Vec<OpCounts> {
    let mut workload = workloads::build(name, seed, Scale::Smoke);
    let pass = workload.run_pass(None);
    assert_eq!(
        pass.failed_ops, 0,
        "{name} seed {seed}: an op failed its oracle"
    );
    assert_eq!(
        pass.op_ns.len(),
        workload.num_ops(),
        "{name}: every op is timed"
    );
    assert_eq!(pass.counts.len(), workload.num_ops());
    assert!(
        pass.counts.iter().all(|c| c.total_words > 0),
        "{name}: every op communicates"
    );
    pass.counts
}

#[test]
fn smoke_schedules_pass_every_oracle_and_counts_follow_the_seed() {
    for workload in &spec::WORKLOADS {
        let first = smoke_counts(workload.name, 41);
        assert_eq!(
            first,
            smoke_counts(workload.name, 41),
            "{}: same seed, same counts",
            workload.name
        );
        assert_ne!(
            first,
            smoke_counts(workload.name, 42),
            "{}: another seed, other counts",
            workload.name
        );
    }
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric() {
    let outcome = harness::run(&RunConfig {
        workload: "bulkpq_churn".to_string(),
        seed: 7,
        seconds: 0.001,
        trace: false,
        scale: Scale::Smoke,
    });
    assert_eq!(outcome.failed, 0);
    // No budget to speak of: one round, which is a warm-up pass and a
    // timed pass.
    assert_eq!(outcome.rounds, 1);
    assert_eq!(outcome.attempted, 2 * outcome.ops_per_pass as u64);
    let reported = ["elems_per_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb"];
    for name in spec::END_TO_END.iter().map(|m| m.name).chain(reported) {
        let value = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let outcome = harness::run(&RunConfig {
        workload: "stream_service".to_string(),
        seed: 7,
        seconds: 0.001,
        trace: true,
        scale: Scale::Smoke,
    });
    assert_eq!(outcome.failed, 0);
    for layer in &spec::PER_LAYER {
        let value = outcome
            .metrics
            .get(layer.name)
            .unwrap_or_else(|| panic!("{} missing", layer.name));
        assert!(value.is_finite(), "{} = {value}", layer.name);
    }
    // What TraceComm counted is what the backend metered.
    let mut plain = workloads::build("stream_service", 7, Scale::Smoke);
    let counts = plain.run_pass(None).counts;
    let words = counts.iter().map(|c| c.total_words).sum::<u64>() as f64 / counts.len() as f64;
    let msgs = counts.iter().map(|c| c.total_msgs).sum::<u64>() as f64 / counts.len() as f64;
    assert_eq!(outcome.metrics.get("commsim.p2p.words_per_op"), Some(words));
    assert_eq!(outcome.metrics.get("commsim.p2p.msgs_per_op"), Some(msgs));
    let sink = outcome.trace.expect("a traced run keeps its spans");
    let spans = sink.pe(0).spans.lock().unwrap();
    assert!(spans.iter().any(|s| s.name == "ingest_batch"));
    assert!(spans.iter().any(|s| s.name == "send_raw"));
}
