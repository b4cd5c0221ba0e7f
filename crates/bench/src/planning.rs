//! CLI glue for the cost-model planner: the `--algo` value, the plan-audit
//! printing shared by the bench bins, and the §7 panel of Figures 7 and 8.
//!
//! Every bin that runs a §7 frequent-objects algorithm accepts
//! `--algo <pac|ec|pec|naive|naive-tree|all|auto>`:
//!
//! * a concrete token runs that algorithm exactly as earlier revisions did
//!   (hand-picked dispatch, bit-identical metering — pinned by
//!   `tests/planner_integration.rs`),
//! * `all` sweeps the bin's default algorithm list,
//! * `auto` hands the choice to [`topk::planner::plan_for_data`]: the plan
//!   is derived from the data, executed, and audited — and the audit row
//!   (prediction vs metered reality) is printed in the stable
//!   [`PlanAudit::audit_line`](topk::PlanAudit::audit_line) format, which
//!   the CI smoke goldens pin byte for byte, after the plan's
//!   [`explain`](topk::planner::Plan::explain) table under `--plan-explain`.

use std::str::FromStr;

use commsim::{run_on, Backend, Communicator, World};
use topk::planner::{self, Algorithm};
use topk::FrequentParams;

use crate::report::fmt_duration;
use crate::{Measurement, Table};

/// What `--algo` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Sweep the bin's default algorithm list (the pre-planner behavior).
    All,
    /// Let the cost-model planner pick per cell.
    Auto,
    /// One hand-picked algorithm.
    Fixed(Algorithm),
}

/// Parse an `--algo` value: `all`, `auto`, or an [`Algorithm`] token.
impl FromStr for AlgoChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "all" => Ok(AlgoChoice::All),
            "auto" => Ok(AlgoChoice::Auto),
            other => Algorithm::parse(other)
                .map(AlgoChoice::Fixed)
                .ok_or_else(|| {
                    "expected auto, all, or one of pac|ec|pec|naive|naive-tree".to_string()
                }),
        }
    }
}

/// The weak-scaling panel of Figures 7 and 8: one row per algorithm and PE
/// count in `pes`, each averaged over `reps` runs on `input(rank)`.
///
/// `all` runs the paper's panel — PAC, EC, Naive and Naive Tree (PEC is
/// reachable as a fixed choice).  `auto` plans every cell from the data
/// with `params`' k, ε and δ, executes the plan with `params.seed`, and
/// prints its audit row, preceded by the plan under `plan_explain`.
#[allow(clippy::too_many_arguments)]
pub fn frequent_panel(
    title: &str,
    backend: Backend,
    pes: &[usize],
    reps: usize,
    algo: AlgoChoice,
    plan_explain: bool,
    params: &FrequentParams,
    input: impl Fn(usize) -> Vec<u64> + Sync,
) -> Table {
    let mut table = Table::new(
        title,
        &[
            "algorithm",
            "PEs",
            "wall time",
            "words/PE",
            "startups/PE",
            "sample",
        ],
    );
    // `None` is the planner's choice.
    let contenders: Vec<Option<Algorithm>> = match algo {
        AlgoChoice::Auto => vec![None],
        AlgoChoice::Fixed(a) => vec![Some(a)],
        AlgoChoice::All => [
            Algorithm::Pac,
            Algorithm::Ec,
            Algorithm::Naive,
            Algorithm::NaiveTree,
        ]
        .map(Some)
        .to_vec(),
    };
    for &fixed in &contenders {
        for &p in pes {
            let mut last = None;
            let runs = (0..reps)
                .map(|_| {
                    let out = run_on!(backend, World::new(p), |comm| {
                        let local = input(comm.rank());
                        match fixed {
                            Some(a) => (None, a.run(comm, &local, params).sample_size),
                            None => {
                                let plan = planner::plan_for_data(
                                    comm,
                                    &local,
                                    params.k,
                                    params.epsilon,
                                    params.delta,
                                );
                                let (result, audit) = plan.execute(comm, &local, params.seed);
                                (Some((plan, audit)), result.sample_size)
                            }
                        }
                    });
                    let m = Measurement::of(&out);
                    last = out.results.into_iter().next().flatten();
                    m
                })
                .collect();
            let m = Measurement::averaged(runs);
            let (planned, sample) = last.expect("at least one rep");
            let label = match (fixed, planned) {
                (Some(a), _) => a.name().to_string(),
                (None, planned) => {
                    let (plan, audit) = planned.expect("a planned cell returns its plan");
                    if plan_explain {
                        println!("{}", plan.explain());
                    }
                    println!("{}", audit.audit_line());
                    format!("auto({})", plan.algorithm.token())
                }
            };
            table.add_row(vec![
                label,
                p.to_string(),
                fmt_duration(m.wall_time),
                m.bottleneck_words.to_string(),
                m.bottleneck_messages.to_string(),
                sample.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_choice_parses_all_spellings() {
        assert_eq!("all".parse(), Ok(AlgoChoice::All));
        assert_eq!("AUTO".parse(), Ok(AlgoChoice::Auto));
        assert_eq!("pac".parse(), Ok(AlgoChoice::Fixed(Algorithm::Pac)));
        assert_eq!(
            "naive-tree".parse(),
            Ok(AlgoChoice::Fixed(Algorithm::NaiveTree))
        );
    }

    #[test]
    fn algo_choice_rejects_garbage() {
        let err = "quicksort".parse::<AlgoChoice>().unwrap_err();
        assert!(err.contains("pac|ec|pec|naive|naive-tree"), "{err}");
    }
}
