//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! benchmark selfcheck
//! ```

use std::process::ExitCode;

use benchmark::compare;
use benchmark::harness::{self, RunConfig, Scale};
use benchmark::report;
use benchmark::spec;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
  benchmark compare <a.json> <b.json>
  benchmark selfcheck
workloads: select_local select_wide_mux frequent_zipf bulkpq_churn stream_service";

/// `--flag value` pairs and bare flags, checked against what a command takes.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            bare: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if bare.contains(&arg.as_str()) {
                flags.bare.push(arg.clone());
            } else if valued.contains(&arg.as_str()) {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: {text:?} is not a valid number")),
        }
    }

    /// `--seconds`: a positive, finite number of seconds, at most an hour.
    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.number("--seconds", spec::RUN_SECONDS as f64)?;
        if seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds: {seconds} is not in (0, 3600]"))
        }
    }
}

fn run_workload(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
        &["--smoke"],
    )?;
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    if !spec::is_workload(workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: flags.number("--seed", 1)?,
        seconds: flags.seconds()?,
        trace,
        scale: if flags.bare.iter().any(|f| f == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        },
    };
    let outcome = harness::run(&cfg);
    report::emit(&cfg, &outcome, flags.get("--out"));
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("selfcheck") => match &args[1..] {
            [] => compare::selfcheck(),
            _ => Err("selfcheck takes no arguments".to_string()),
        },
        Some(_) => run_workload(args),
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
