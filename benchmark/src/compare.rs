//! `compare` and `selfcheck`: the tools that decide whether two runs agree
//! within the benchmark's own bounds.

use std::fs;
use std::process::Command;

use crate::json::Json;
use crate::report::OUT_DIR;
use crate::spec::{self, Better, Kind, MetricSpec};

/// How one metric of two runs compares.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub a: f64,
    pub b: f64,
    /// Share by which `b` is worse than `a` (negative: better).
    pub worse_by: f64,
    pub bound: Option<f64>,
    pub within: bool,
}

/// Share by which `b` is worse than `a` for a metric where `better` wins.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn compare_metric(spec: &MetricSpec, a: f64, b: f64) -> Row {
    let worse = worse_by(a, b, spec.better);
    Row {
        name: spec.name.to_string(),
        a,
        b,
        worse_by: worse,
        bound: Some(spec.bound),
        // Counts of the same seed repeat bit for bit; anything else is a
        // change in what the program does.
        within: match spec.kind {
            Kind::Count => a == b,
            Kind::Measured => worse <= spec.bound,
        },
    }
}

fn metric_values(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    doc.get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| "no \"metrics\" object".to_string())?
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect()
}

/// Compare run `b` against run `a` (two result documents).  End-to-end
/// metrics are judged against their bounds (counts for equality); per-layer
/// metrics have no bound and are listed for reading.
pub fn compare_docs(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let b_values = metric_values(b)?;
    metric_values(a)?
        .into_iter()
        .map(|(name, a_value)| {
            let b_value = b_values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} is missing from the second file"))?;
            Ok(match spec::end_to_end(&name) {
                Some(spec) => compare_metric(spec, a_value, b_value),
                None => Row {
                    worse_by: worse_by(
                        a_value,
                        b_value,
                        spec::per_layer(&name).map_or(Better::Lower, |m| m.better),
                    ),
                    name,
                    a: a_value,
                    b: b_value,
                    bound: None,
                    within: true,
                },
            })
        })
        .collect()
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<42} {:>16} {:>16} {:>9} {:>7}  verdict",
        "metric", "a", "b", "worse by", "bound"
    );
    for row in rows {
        let bound = row
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{b:.2}"));
        let verdict = match (row.bound, row.within) {
            (None, _) => "",
            (Some(_), true) => "within",
            (Some(_), false) => "OUTSIDE",
        };
        println!(
            "{:<42} {:>16.6} {:>16.6} {:>8.2}% {:>7}  {}",
            row.name,
            row.a,
            row.b,
            row.worse_by * 100.0,
            bound,
            verdict
        );
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A result file is one document; a captured stdout ends in one.
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    Json::parse(last).map_err(|e| format!("{path}: {e}"))
}

/// `benchmark compare <a.json> <b.json>`; true if every bounded metric of
/// `b` is within its bound of `a`.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    for key in ["workload", "seed", "trace"] {
        if doc_a.get(key) != doc_b.get(key) {
            eprintln!(
                "warning: the two runs differ in {key}: counts are only comparable for equal seeds"
            );
        }
    }
    let rows = compare_docs(&doc_a, &doc_b)?;
    print_rows(&rows);
    Ok(rows.iter().all(|r| r.within))
}

/// A/A sets `selfcheck` runs, and their seed.
const SELFCHECK_SETS: usize = 3;
const SELFCHECK_SEED: u64 = 1;

/// Run one workload in a child process and return its result file, which
/// also has the metrics that are reported but not gated.
fn run_child(workload: &str, out_file: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0", "--out", out_file])
        .args(["--seed", &SELFCHECK_SEED.to_string()])
        .args(["--seconds", &spec::RUN_SECONDS.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let doc = load(out_file)?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload}: oracle failures: {}", doc.render()));
    }
    Ok(doc)
}

/// One side's runs of one workload as a single document: per metric the
/// median over the runs, the way the driver judges a commit.
fn side_median(runs: &[Json]) -> Result<Json, String> {
    let per_run: Vec<Vec<(String, f64)>> =
        runs.iter().map(metric_values).collect::<Result<_, _>>()?;
    let medians = per_run[0].iter().enumerate().map(|(i, (name, _))| {
        let values: Vec<f64> = per_run.iter().map(|run| run[i].1).collect();
        let value = Json::Num(crate::stats::median(&values));
        (name.as_str(), Json::obj([("value", value)]))
    });
    Ok(Json::obj([("metrics", Json::obj(medians))]))
}

/// `benchmark selfcheck`: three alternating A/A sets.  A set runs every
/// workload once for side A and once for side A′ — the same binary, the same
/// seed — so the two sides interleave in time.  Per workload and metric the
/// median of each side's three runs is compared with the other's, in both
/// directions; a count must be the same in all six runs.  True if all agree
/// within the bounds.
pub fn selfcheck() -> Result<bool, String> {
    // `runs[side][workload]` collects one document per set.
    let mut runs = [
        vec![Vec::new(); spec::WORKLOADS.len()],
        vec![Vec::new(); spec::WORKLOADS.len()],
    ];
    for set in 0..SELFCHECK_SETS {
        for (side, name) in ["a", "b"].iter().enumerate() {
            for (w, workload) in spec::WORKLOADS.iter().enumerate() {
                let file = format!("{OUT_DIR}/selfcheck-set{set}{name}-{}.json", workload.name);
                eprintln!("selfcheck: set {set} side {name} {}", workload.name);
                runs[side][w].push(run_child(workload.name, &file)?);
            }
        }
    }
    let mut ok = true;
    for (w, workload) in spec::WORKLOADS.iter().enumerate() {
        let (a, b) = (side_median(&runs[0][w])?, side_median(&runs[1][w])?);
        for (label, from, to) in [("A′ against A", &a, &b), ("A against A′", &b, &a)] {
            println!(
                "\n{}: {label}, medians of {SELFCHECK_SETS} runs",
                workload.name
            );
            let rows = compare_docs(from, to)?;
            print_rows(&rows);
            ok &= rows.iter().all(|r| r.within);
        }
        // Medians hide a count that differs in one run only.
        let is_count = |name: &str| spec::end_to_end(name).is_some_and(|m| m.kind == Kind::Count);
        for other in runs.iter().flat_map(|side| &side[w]) {
            let rows = compare_docs(&runs[0][w][0], other)?;
            if rows.iter().any(|r| is_count(&r.name) && !r.within) {
                println!(
                    "{}: a count differs between runs of one seed",
                    workload.name
                );
                ok = false;
            }
        }
    }
    println!("\nselfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(metrics: &[(&str, f64)]) -> Json {
        Json::obj([(
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("x"))]),
                )
            })),
        )])
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn measured_metrics_use_the_bound_and_counts_use_equality() {
        let a = doc(&[
            ("setup_s", 10.0),
            ("startups_per_op", 42.0),
            ("op_p50_ms", 5.0),
        ]);
        let b = doc(&[
            ("setup_s", 12.0),
            ("startups_per_op", 42.5),
            ("op_p50_ms", 50.0),
        ]);
        let rows = compare_docs(&a, &b).unwrap();
        assert!(rows[0].within, "20 % slower is inside a quarter");
        assert!(!rows[1].within, "a count that differs at all is a change");
        assert!(
            rows[2].within && rows[2].bound.is_none(),
            "metrics that are not gated have no bound"
        );
        // ... but they know which direction is worse.
        let rows = compare_docs(
            &doc(&[("elems_per_s", 100.0)]),
            &doc(&[("elems_per_s", 80.0)]),
        );
        assert!((rows.unwrap()[0].worse_by - 0.2).abs() < 1e-12);
        let (a, slower) = (doc(&[("setup_s", 10.0)]), doc(&[("setup_s", 12.6)]));
        assert!(!compare_docs(&a, &slower).unwrap()[0].within);
        // Faster is never outside.
        assert!(compare_docs(&slower, &a).unwrap()[0].within);
    }

    #[test]
    fn a_side_is_judged_by_the_median_of_its_runs() {
        let runs = [
            doc(&[("setup_s", 2.0), ("startups_per_op", 7.0)]),
            doc(&[("setup_s", 9.0), ("startups_per_op", 7.0)]),
            doc(&[("setup_s", 2.2), ("startups_per_op", 7.0)]),
        ];
        let side = side_median(&runs).unwrap();
        assert_eq!(
            metric_values(&side).unwrap(),
            [
                ("setup_s".to_string(), 2.2),
                ("startups_per_op".to_string(), 7.0)
            ]
        );
    }

    #[test]
    fn a_metric_missing_from_the_second_file_is_an_error() {
        let a = doc(&[("setup_s", 10.0)]);
        assert!(compare_docs(&a, &doc(&[])).is_err());
        assert!(compare_docs(&Json::Null, &a).is_err());
    }
}
