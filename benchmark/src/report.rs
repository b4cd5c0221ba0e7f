//! Output: the metric lines and final JSON line on stdout, the result file,
//! the trace file, and the facts about the machine a result is only
//! comparable under.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{Outcome, RunConfig, Scale, MIN_RELIABLE_ROUNDS};
use crate::json::Json;
use crate::spec;
use crate::trace::TraceSink;

/// Result and trace files go here (ignored by git), relative to the
/// directory the benchmark is started from — the root of the checkout.
pub const OUT_DIR: &str = "benchmark/out";

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of `program args…`'s stdout, or "unknown".  `output()` waits
/// for the child to end.
fn first_line_of(program: &str, args: &[&str], envs: &[(&str, &Path)]) -> String {
    let mut command = Command::new(program);
    command.args(args);
    for (key, value) in envs {
        command.env(key, value);
    }
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    // Never look for a repository above the directory we were started in.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    first_line_of(
        "git",
        &["rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", &ceiling)],
    )
}

/// Write the spans of `sink` to `benchmark/out/trace-<workload>.jsonl`.
/// Returns the path (if it could be written), spans written and dropped.
fn write_trace(workload: &str, sink: &TraceSink) -> (Option<String>, usize, u64) {
    let path = format!("{OUT_DIR}/trace-{workload}.jsonl");
    let written = fs::create_dir_all(OUT_DIR)
        .and_then(|()| fs::File::create(&path))
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            let counts = sink.write_jsonl(&mut out)?;
            out.flush()?;
            Ok(counts)
        });
    match written {
        Ok((spans, dropped)) => (Some(path), spans, dropped),
        Err(err) => {
            eprintln!("warning: could not write {path}: {err}");
            (None, 0, 0)
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| spec::per_layer(name).map(|m| m.unit))
        .expect("every reported metric is declared in spec.rs")
}

/// ISSUE 13's wall-clock and memory metrics: an untraced run measures them
/// too, prints them and keeps them in its result file for `compare`, but
/// they are not in the line the driver reads (README, "Demoted").
const REPORTED_NOT_GATED: [&str; 4] = ["elems_per_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb"];

/// The metrics of `outcome` in the order `spec.rs` declares them; after the
/// end-to-end metrics of an untraced run, those it reports but does not gate.
fn ordered_metrics(cfg: &RunConfig, outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let names: Vec<&'static str> = if cfg.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        let gated = spec::END_TO_END.iter().map(|m| m.name);
        gated.chain(REPORTED_NOT_GATED).collect()
    };
    names
        .into_iter()
        .filter_map(|name| outcome.metrics.get(name).map(|value| (name, value)))
        .collect()
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

/// Print every metric by name with its unit, then — as the last line — the
/// one JSON object the driver reads.  Also writes the result file.
pub fn emit(cfg: &RunConfig, outcome: &Outcome, out_path: Option<&str>) {
    let metrics = ordered_metrics(cfg, outcome);
    if cfg.trace {
        for layer in spec::PER_LAYER
            .iter()
            .filter(|m| outcome.metrics.get(m.name).is_none())
        {
            eprintln!("warning: per-layer metric {} was not measured", layer.name);
        }
    }
    let (trace_file, spans_written, spans_dropped) = outcome
        .trace
        .as_ref()
        .map_or((None, 0, 0), |sink| write_trace(&cfg.workload, sink));
    let threaded = cfg.workload != "select_wide_mux";
    let unreliable =
        (nproc() < 2 && threaded) || (outcome.rounds < MIN_RELIABLE_ROUNDS && !cfg.trace);
    if nproc() < 2 {
        eprintln!(
            "warning: nproc = {} < 2: the threaded workloads time-share one core; \
             their wall-clock metrics are marked unreliable",
            nproc()
        );
    }

    let mut text = format!(
        "workload {} seed {} trace {} ops/pass {} rounds {} attempted {} failed {}\n",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        outcome.ops_per_pass,
        outcome.rounds,
        outcome.attempted,
        outcome.failed
    );
    for &(name, value) in &metrics {
        text.push_str(&format!("{name} {value} {}\n", unit_of(name)));
    }

    // What the driver reads: exactly the declared metrics.  The result file
    // repeats it, with every reported metric, after the facts a result is
    // only comparable under.
    let declared: Vec<(&'static str, f64)> = metrics
        .iter()
        .copied()
        .filter(|(name, _)| cfg.trace || spec::end_to_end(name).is_some())
        .collect();
    let result = |metrics: &[(&'static str, f64)]| {
        [
            ("correct", Json::Bool(outcome.failed == 0)),
            ("attempted", Json::Int(outcome.attempted)),
            ("failed", Json::Int(outcome.failed)),
            ("metrics", metrics_json(metrics)),
        ]
    };
    let timings = Json::Arr(
        outcome
            .timings_ms
            .iter()
            .map(|round| Json::Arr(round.iter().map(|&ms| Json::Num(ms)).collect()))
            .collect(),
    );
    let facts = [
        ("workload", Json::str(&cfg.workload)),
        ("seed", Json::Int(cfg.seed)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.scale == Scale::Smoke)),
        ("seconds", Json::Num(cfg.seconds)),
        ("ops_per_pass_M", Json::Int(outcome.ops_per_pass as u64)),
        ("rounds_K", Json::Int(outcome.rounds as u64)),
        ("nproc", Json::Int(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["--version"], &[])),
        ),
        ("git_commit", Json::str(git_commit())),
        ("wall_clock_unreliable", Json::Bool(unreliable)),
        ("spans_written", Json::Int(spans_written as u64)),
        ("spans_dropped", Json::Int(spans_dropped)),
        ("trace_file", trace_file.map_or(Json::Null, Json::str)),
    ];
    let file = Json::obj(facts.into_iter().chain(result(&metrics)).chain([
        (
            "setup_s_by_round",
            Json::Arr(outcome.setups_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("timings_ms_by_round_op", timings),
    ]));
    let summary = Json::obj(result(&declared));
    let path = out_path.map_or_else(
        || {
            format!(
                "{OUT_DIR}/{}-seed{}-trace{}.json",
                cfg.workload,
                cfg.seed,
                u8::from(cfg.trace)
            )
        },
        str::to_string,
    );
    let write = Path::new(&path)
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(&path, file.render() + "\n"));
    if let Err(err) = write {
        eprintln!("warning: could not write {path}: {err}");
    }

    text.push_str(&summary.render());
    text.push('\n');
    // A reader that closed the pipe early (`| head`) is not an error.
    let _ = std::io::stdout().write_all(text.as_bytes());
}
