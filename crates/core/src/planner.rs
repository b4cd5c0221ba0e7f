//! Cost-model-driven algorithm planner: `plan → execute → audit`.
//!
//! The repo has five frequent-objects algorithms ([`Algorithm`]), and until
//! this module every caller picked by hand.  The planner makes the choice
//! the way the paper does in its analysis: predict the per-PE bottleneck
//! words and start-ups of every candidate from closed-form formulas and run
//! the one that moves the fewest words ([`plan`]).  The hash table's routing
//! is not a choice: it is a function of `p` inside
//! [`aggregate_counts`](crate::frequent::dht::aggregate_counts) — direct up
//! to 8 PEs, hypercube beyond — and every candidate is priced on the route
//! that rule takes.
//!
//! The prediction formulas compose the per-collective terms of
//! [`commsim::cost::predict`] (which match the implemented binomial-tree and
//! hypercube collectives) with the paper's sample sizes:
//!
//! * sample sizes come from the very functions the algorithms call —
//!   [`pac::required_sample_size`] (Section 7.1), `ec::optimal_k_star` +
//!   `ec::required_sample_size` (Section 7.2); PEC draws one sample, PAC's
//!   at its coarse ε₀, and when that sample is not the whole input counts
//!   `k*` of its keys exactly, priced at the Zipf closed form
//!   `k* = ⌈(2+√2)^{1/z}·k⌉` of Theorem 14 (a sample of the whole input ends
//!   after PAC's merge);
//! * the number of *distinct* keys a sample contains — the quantity every
//!   DHT and coordinator volume actually scales with — is the Poissonized
//!   expectation [`seqkit::skew::expected_distinct`] under a Zipf model of
//!   the input ([`PlanInputs::zipf_exponent`] over
//!   [`PlanInputs::universe`] keys), fitted by [`plan_for_data`] with the
//!   one-pass estimator of `seqkit::skew` when the caller does not know its
//!   distribution;
//! * the top-`k` merge shared by all sampling algorithms
//!   ([`select_top_counts`](crate::frequent::select_top_counts)) costs every
//!   PE `⌈log₂ p⌉` start-ups, round `j`'s message carrying the best
//!   `min(k, d·2^j/p)` of the `d` aggregated keys;
//! * an aggregate on the wire is a [`KeyCounts`](crate::frequent::dht::KeyCounts)
//!   — keys grouped by count, each run Rice-coded as sorted gaps, all in one
//!   bit stream — so a message of `d` keys out of the fitted universe `U`
//!   whose counts sum to `m` is charged a word for its run count and
//!   `⌈(d·(log₂(U/d) + 2) + 20·R̂)/64⌉` words of codes, at most 64 bits a
//!   key, `R̂ = min(d, ⌊(√(8m + 1) − 1)/2⌋)` being the most runs of distinct
//!   counts that mass can pay for, each with a header of about 20 bits;
//! * EC's and PEC's exact counts cross the wire as a
//!   [`PackedCounts`](commsim::codec::PackedCounts), each count coded
//!   against the one before it, charged
//!   `⌈(δ(k*) + Σ_j (log₂(top/j^s + 1) + 1.5))/64⌉` words for the fitted
//!   Zipf's counts `top/j^s`, `top = n/H(U, s)`;
//! * the collectives of an algorithm are summed **per PE**, for rank 0 (root
//!   of the all-reductions, the baselines' coordinator) and for a leaf, each
//!   direction on its own, and the busier of the two is the prediction — the
//!   meter reads one PE's `max(sent, received)`, not the sum of every
//!   collective's own bottleneck.
//!
//! Every planned execution ([`Plan::execute`]) meters reality with the
//! existing [`commsim::StatsSnapshot`] deltas and records a [`PlanAudit`] —
//! predicted vs measured words/PE and start-ups plus their relative errors —
//! rendered as one stable line ([`PlanAudit::audit_line`]).  The audit rows
//! are what EXPERIMENTS.md's prediction-error table is built from, and the
//! CI smoke goldens pin every byte of them: the cost model the paper's
//! claims rest on is itself under regression test.
//!
//! Everything here is deterministic: plans are pure functions of their
//! inputs, and [`plan_for_data`] combines the per-PE fits through one
//! fixed-point integer all-reduction, so every PE — and every backend —
//! derives the *identical* plan (pinned by `tests/planner_integration.rs`).

use commsim::cost::predict;
use commsim::{Communicator, PredictedComm};

use crate::frequent::{dht, ec, naive, pac, pec};
use crate::frequent::{FrequentParams, TopKFrequentResult};
use crate::util::allreduce_pair;
use seqkit::skew::{expected_distinct, fit_zipf_exponent, generalized_harmonic};

/// The §7 top-k most-frequent-objects algorithms as a dispatchable value —
/// the one enum the text workload, the recovery driver, the benchmark and
/// the bench bins' `--algo` flags run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Probably approximately correct (Section 7.1).
    Pac,
    /// Exact counting of sampled candidates (Section 7.2).
    Ec,
    /// Probably exactly correct (Section 7.3); the coarse first-stage ε₀ is
    /// `min(20·ε, 0.05)`.
    Pec,
    /// Centralized baseline: every PE ships its aggregate to a coordinator.
    Naive,
    /// Centralized baseline through a merging reduction tree.
    NaiveTree,
}

impl Algorithm {
    /// All algorithms, in the order the experiments report them.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Pac,
        Algorithm::Ec,
        Algorithm::Pec,
        Algorithm::Naive,
        Algorithm::NaiveTree,
    ];

    /// Display name (matches the paper's figure legends).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Pac => "PAC",
            Algorithm::Ec => "EC",
            Algorithm::Pec => "PEC",
            Algorithm::Naive => "Naive",
            Algorithm::NaiveTree => "Naive Tree",
        }
    }

    /// Single-token lowercase name, stable for CLI flags and audit lines.
    pub fn token(self) -> &'static str {
        match self {
            Algorithm::Pac => "pac",
            Algorithm::Ec => "ec",
            Algorithm::Pec => "pec",
            Algorithm::Naive => "naive",
            Algorithm::NaiveTree => "naive-tree",
        }
    }

    /// Parse a CLI token (case-insensitive; `naive-tree`, `naive_tree` and
    /// `tree` all name the tree baseline).  `auto` is *not* an algorithm —
    /// callers handle it before parsing.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "pac" => Some(Algorithm::Pac),
            "ec" => Some(Algorithm::Ec),
            "pec" => Some(Algorithm::Pec),
            "naive" => Some(Algorithm::Naive),
            "naive-tree" | "naive_tree" | "naivetree" | "tree" => Some(Algorithm::NaiveTree),
            _ => None,
        }
    }

    /// Run this algorithm on the distributed input `local_data` (collective).
    /// This is the one way to run a §7 algorithm: every caller — text
    /// workload, bench bins — goes through it, and a planned execution
    /// ([`Plan::execute`]) through its known-`n` form, since the plan has
    /// summed `n` already.  It reduces the global input size `n` once and
    /// hands it to the algorithm's stages ([`crate::frequent`]).  Every PE
    /// receives the same result; an empty input gives an empty one.
    pub fn run<C: Communicator>(
        self,
        comm: &C,
        local_data: &[u64],
        params: &FrequentParams,
    ) -> TopKFrequentResult {
        let n = comm.allreduce_sum(local_data.len() as u64);
        self.run_known_n(comm, local_data, params, n)
    }

    /// [`Algorithm::run`] on an input whose global size `n` every PE
    /// already holds: no reduction of its own.
    pub(crate) fn run_known_n<C: Communicator>(
        self,
        comm: &C,
        local_data: &[u64],
        params: &FrequentParams,
        n: u64,
    ) -> TopKFrequentResult {
        let mut result = TopKFrequentResult {
            items: Vec::new(),
            sample_size: 0,
            exact_counts: matches!(self, Algorithm::Ec | Algorithm::Pec),
        };
        if n == 0 {
            return result;
        }
        (result.items, result.sample_size) = match self {
            Algorithm::Pac => pac::top_k(comm, local_data, params, n),
            Algorithm::Ec => ec::top_k(comm, local_data, params, n),
            Algorithm::Pec => pec::top_k(comm, local_data, params, n),
            Algorithm::Naive => naive::top_k(comm, local_data, params, n),
            Algorithm::NaiveTree => naive::tree_top_k(comm, local_data, params, n),
        };
        result
    }
}

/// Everything a plan is a function of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInputs {
    /// Global input size.
    pub n: u64,
    /// Result size.
    pub k: usize,
    /// Number of PEs.
    pub p: usize,
    /// Relative error bound ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Zipf exponent of the modeled input distribution.
    pub zipf_exponent: f64,
    /// Number of distinct keys of the modeled distribution, at least 1.
    pub universe: u64,
}

/// One algorithm's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCandidate {
    /// The algorithm this candidate prices.
    pub algorithm: Algorithm,
    /// Predicted bottleneck words and start-ups per PE.
    pub predicted: PredictedComm,
    /// Predicted global sample size the algorithm will draw.
    pub sample_target: u64,
    /// Predicted candidate-set size (`k` itself for PAC and the baselines).
    pub k_star: u64,
}

/// A concrete dispatch decision plus the predictions it was made from.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The inputs the plan was derived from.
    pub inputs: PlanInputs,
    /// Chosen algorithm: the least predicted bottleneck words, then the
    /// fewest predicted start-ups, then the first in [`Algorithm::ALL`].
    pub algorithm: Algorithm,
    /// Every algorithm's prediction, in [`Algorithm::ALL`] order.
    pub candidates: Vec<PlanCandidate>,
}

impl Plan {
    /// The chosen algorithm's prediction.
    pub fn chosen(&self) -> &PlanCandidate {
        self.candidates
            .iter()
            .find(|c| c.algorithm == self.algorithm)
            .expect("every algorithm has a candidate")
    }

    /// Execute the plan (collective) on the `local_data` it was planned for
    /// ([`plan_for_data`]'s), whose global size is the plan's `n`, and audit
    /// the prediction: the algorithm phase is metered with
    /// [`commsim::StatsSnapshot`] deltas and the world bottlenecks are
    /// agreed with one pair max-reduction *after* the metering window
    /// closes, so the audit traffic never pollutes the measurement.
    pub fn execute<C: Communicator>(
        &self,
        comm: &C,
        local_data: &[u64],
        seed: u64,
    ) -> (TopKFrequentResult, PlanAudit) {
        let i = &self.inputs;
        let params = FrequentParams::new(i.k, i.epsilon, i.delta, seed);
        let before = comm.stats_snapshot();
        let result = self.algorithm.run_known_n(comm, local_data, &params, i.n);
        let delta = comm.stats_snapshot().since(&before);
        let local = (delta.bottleneck_words(), delta.bottleneck_messages());
        let (measured_words, measured_startups) = allreduce_pair(comm, local, u64::max, u64::max);
        let audit = PlanAudit {
            algorithm: self.algorithm,
            p: i.p,
            n: i.n,
            k: i.k,
            predicted: self.chosen().predicted,
            measured_words,
            measured_startups,
        };
        (result, audit)
    }

    /// Multi-line human-readable explanation: the inputs, every candidate's
    /// prediction, and the chosen dispatch.  Deterministic (pinned across
    /// backends by the integration tests).
    pub fn explain(&self) -> String {
        let i = &self.inputs;
        let mut out = format!(
            "plan: n={} p={} k={} eps={:.3e} delta={:.3e} skew={:.2} universe={}\n",
            i.n, i.p, i.k, i.epsilon, i.delta, i.zipf_exponent, i.universe
        );
        for c in &self.candidates {
            let marker = if c.algorithm == self.algorithm {
                "*"
            } else {
                " "
            };
            out.push_str(&format!(
                " {marker} {:<10} pred_words={:<12.1} pred_startups={:.1}\n",
                c.algorithm.token(),
                c.predicted.words,
                c.predicted.startups,
            ));
        }
        let chosen = self.chosen();
        out.push_str(&format!(
            "  chosen algo={} sample_target={} k_star={}",
            self.algorithm.token(),
            chosen.sample_target,
            chosen.k_star
        ));
        out
    }
}

/// Prediction vs metered reality of one planned execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanAudit {
    /// The executed algorithm.
    pub algorithm: Algorithm,
    /// World size.
    pub p: usize,
    /// Global input size.
    pub n: u64,
    /// Result size.
    pub k: usize,
    /// The plan's prediction.
    pub predicted: PredictedComm,
    /// Metered world-bottleneck words of the algorithm phase.
    pub measured_words: u64,
    /// Metered world-bottleneck start-ups of the algorithm phase.
    pub measured_startups: u64,
}

impl PlanAudit {
    /// The stable one-line audit format the CI smoke checks grep for:
    ///
    /// ```text
    /// plan-audit algo=pac p=4 n=4096 k=32 pred_words=123.4 meas_words=150 \
    /// pred_startups=40.0 meas_startups=38 words_err=-17.7% startups_err=5.3%
    /// ```
    ///
    /// (One line.  The errors are derived from the printed one-decimal
    /// predictions, so a reader can recompute them from the row.  The hash
    /// table's route is not printed: it is a function of `p`.)
    pub fn audit_line(&self) -> String {
        let words = format!("{:.1}", self.predicted.words);
        let startups = format!("{:.1}", self.predicted.startups);
        let error = |printed: &str, measured| {
            let printed = printed.parse().expect("a printed f64 parses");
            relative_error(printed, measured) * 100.0
        };
        format!(
            "plan-audit algo={} p={} n={} k={} pred_words={words} meas_words={} \
             pred_startups={startups} meas_startups={} words_err={:.1}% startups_err={:.1}%",
            self.algorithm.token(),
            self.p,
            self.n,
            self.k,
            self.measured_words,
            self.measured_startups,
            error(&words, self.measured_words),
            error(&startups, self.measured_startups),
        )
    }
}

/// Relative prediction error `(predicted − measured) / measured` (`0` when
/// nothing was measured).
fn relative_error(predicted: f64, measured: u64) -> f64 {
    if measured == 0 {
        0.0
    } else {
        (predicted - measured as f64) / measured as f64
    }
}

/// Plan from known inputs — pure, deterministic, communication-free.
///
/// The paper's claims — and the bound the planner is held to — are about
/// communication *volume*, so the pick is the candidate with the least
/// predicted bottleneck words; the fewer predicted start-ups break a tie
/// (e.g. the two centralized baselines at p ≤ 2, whose volumes coincide),
/// and a tie in both goes to the first in [`Algorithm::ALL`].
pub fn plan(inputs: PlanInputs) -> Plan {
    let candidates: Vec<PlanCandidate> = Algorithm::ALL
        .iter()
        .map(|&algorithm| candidate(algorithm, &inputs))
        .collect();
    let order = |c: &PlanCandidate| (c.predicted.words, c.predicted.startups);
    let best = candidates
        .iter()
        .reduce(|best, c| if order(c) < order(best) { c } else { best })
        .expect("Algorithm::ALL is non-empty");
    Plan {
        inputs,
        algorithm: best.algorithm,
        candidates,
    }
}

/// Plan for concrete data (collective): every PE fits the one-pass Zipf
/// estimator of [`seqkit::skew`] on its local shard, and one fixed-point
/// integer vector all-reduction sums the global `n` and the fits weighted by
/// their local sample sizes — integer sums are associative, so the combined
/// model, and the pure [`plan`] derived from it, is bit-identical on every
/// PE and backend.
pub fn plan_for_data<C: Communicator>(
    comm: &C,
    local_data: &[u64],
    k: usize,
    epsilon: f64,
    delta: f64,
) -> Plan {
    let fit = fit_zipf_exponent(local_data, 1 << 16);
    let sums = comm.allreduce_vec_sum(vec![
        local_data.len() as u64,
        fit.sampled,
        ((fit.exponent * 1e6).round() as u64).saturating_mul(fit.sampled),
        fit.universe.saturating_mul(fit.sampled),
    ]);
    let (n, sampled, exponent_sum, universe_sum) = (sums[0], sums[1], sums[2], sums[3]);
    let (zipf_exponent, universe) = match sampled {
        0 => (1.0, 1),
        _ => (
            (exponent_sum as f64 / sampled as f64) / 1e6,
            (universe_sum / sampled).max(1),
        ),
    };
    plan(PlanInputs {
        n,
        k,
        p: comm.size(),
        epsilon,
        delta,
        zipf_exponent,
        universe,
    })
}

/// Price one algorithm (see the module docs for the formula provenance).
fn candidate(algorithm: Algorithm, i: &PlanInputs) -> PlanCandidate {
    let p = i.p;
    let n = i.n.max(1);
    let k = i.k as f64;
    let params = FrequentParams::new(i.k, i.epsilon, i.delta, 0);
    // Expected distinct keys in a sample of size `s` (global) or `s/p`
    // (one PE's share) under the fitted Zipf model.
    let d = |s: f64| expected_distinct(s, i.universe, i.zipf_exponent);
    let d_loc = |s: u64| d(s as f64 / p as f64);
    let u = i.universe as f64;
    // A planned execution starts from the `n` its plan summed.
    let start = Traffic::new(p);

    let (traffic, sample, k_star) = match algorithm {
        Algorithm::Pac => {
            let s = pac::required_sample_size(n, i.k, i.epsilon, i.delta);
            let traffic = sampling_stage(start, s, d_loc(s), d(s as f64), k, u);
            (traffic, s, i.k as u64)
        }
        Algorithm::Ec => {
            let k_star = ec::optimal_k_star(n, p, &params);
            let s = ec::required_sample_size(n, k_star, i.epsilon, i.delta);
            // The merge returns at most the sample's distinct keys, and
            // the exact counts are of that candidate set.
            let k_eff = (k_star as f64).min(d(s as f64));
            let traffic = sampling_stage(start, s, d_loc(s), d(s as f64), k_eff, u)
                .allreduce(packed_counts_words(k_eff, i));
            (traffic, s, k_star as u64)
        }
        Algorithm::Pec => {
            // The PAC machinery at the coarse ε₀; a sample of the whole
            // input is exact and ends there.
            let epsilon0 = pec::coarse_epsilon(i.epsilon);
            let s0 = pac::required_sample_size(n, i.k, epsilon0, i.delta);
            let d0 = d(s0 as f64);
            let traffic = sampling_stage(start, s0, d_loc(s0), d0, k, u);
            if s0 >= n {
                (traffic, s0, i.k as u64)
            } else {
                // k* from the Theorem-14 Zipf closed form; the merge of
                // the candidates (no PE reduces their number) and their
                // exact counts.
                let k_star = pec::zipf_k_star(i.k, i.zipf_exponent.max(0.2))
                    .min(n as f64)
                    .max(k);
                let k_eff = k_star.min(d0);
                let traffic = traffic
                    .top_counts(d0, k_eff, s0 as f64, u)
                    .allreduce(packed_counts_words(k_eff, i));
                (traffic, s0, k_star as u64)
            }
        }
        Algorithm::Naive | Algorithm::NaiveTree => {
            let s = pac::required_sample_size(n, i.k, i.epsilon, i.delta);
            // What the coordinator receives, and what a leaf sends it.
            let (up, up_leaf) = if algorithm == Algorithm::Naive {
                // Every PE's aggregated sample, directly.
                let sample = key_counts_words(d_loc(s), s as f64 / p as f64, u);
                let others = p as f64 - 1.0;
                (PredictedComm::new(others * sample, others), sample)
            } else {
                // Binomial merging tree: the root's child at level j
                // carries the merged aggregate of a 2^j-PE subtree, a
                // leaf its own.
                let merged = |pes: f64| {
                    let sample = s as f64 * pes / p as f64;
                    key_counts_words(d(sample), sample, u)
                };
                let l = predict::rounds(p) as u32;
                let root_recv: f64 = (0..l)
                    .map(|j| merged((1u64 << j).min(p as u64) as f64))
                    .sum();
                (PredictedComm::new(root_recv, l as f64), merged(1.0))
            };
            // The shipment (its sample size rides it), and the
            // coordinator's broadcast of the global sample size and the
            // winners.
            let traffic = start.exchange(up, up_leaf, 2.0 * k + 2.0);
            (traffic, s, i.k as u64)
        }
    };
    PlanCandidate {
        algorithm,
        predicted: traffic.bottleneck(),
        sample_target: sample,
        k_star,
    }
}

/// The sampling stage: the DHT over the sample's aggregate, whose shares
/// carry the sample size, and the top-`k` merge (PAC's answer, PEC's `ŝ_k`,
/// EC's candidates).  Keys are drawn from `universe` distinct values.
fn sampling_stage(
    traffic: Traffic,
    sample: u64,
    d_local: f64,
    d_global: f64,
    k: f64,
    universe: f64,
) -> Traffic {
    let mass_local = sample as f64 / traffic.p as f64;
    traffic
        .everywhere(dht_exchange(traffic.p, d_local, mass_local, universe))
        .top_counts(d_global, k, sample as f64, universe)
}

/// The DHT's all-to-all of one PE's `d_local` distinct keys of `universe`,
/// whose counts sum to `mass_local`, on the route
/// [`aggregate_counts`](crate::frequent::dht::aggregate_counts) takes at `p`:
/// one [`KeyCounts`](crate::frequent::dht::KeyCounts) per destination, whose
/// leading word the all-to-all terms charge per message.  A destination's
/// share is `1/p` of the keys.  Direct delivery keeps the PE's own share and
/// sends the other `p − 1`; the hypercube term is charged all `p`.
///
/// The price spreads a share's keys over the whole universe, while a share
/// ships its keys' quotients `key / p`, which span `universe / p`: it
/// charges about `log₂ p` bits a key more than the wire carries.  It stays
/// because EC's own price runs about a third above its meter on skewed
/// inputs: with the quotient price alone, PAC wins cells of the planner's
/// regret grid where EC moves fewer words (up to 1.21× the argmin at
/// `p = 2`, `n/p = 2¹¹`, `s = 1.3`).
fn dht_exchange(p: usize, d_local: f64, mass_local: f64, universe: f64) -> PredictedComm {
    let shares = p.max(1) as f64;
    let payload = key_counts_words(d_local / shares, mass_local / shares, universe) - 1.0;
    if dht::routes_directly(p) {
        predict::alltoall_direct(p, (shares - 1.0) * payload)
    } else {
        predict::alltoall_hypercube(p, shares * payload)
    }
}

/// Words of one [`KeyCounts`](crate::frequent::dht::KeyCounts) of `d` keys
/// out of `universe` whose counts sum to `mass`: a word for the run count,
/// then one bit stream of `d` Rice-coded gaps of about `log₂(universe/d) + 2`
/// bits each — never more than 64 — and a header of [`RUN_HEADER_BITS`] for
/// each of `R̂ = min(d, ⌊(√(8·mass + 1) − 1)/2⌋)` runs, the most runs of
/// distinct counts that mass can pay for (`1 + 2 + … + R ≤ mass`).
fn key_counts_words(d: f64, mass: f64, universe: f64) -> f64 {
    let runs = (((8.0 * mass + 1.0).sqrt() - 1.0) / 2.0).floor().min(d);
    let key_bits = ((universe / d.max(1.0)).log2().max(0.0) + 2.0).min(64.0);
    1.0 + ((d * key_bits + runs * RUN_HEADER_BITS) / 64.0).ceil()
}

/// The bits a run header costs on a sample's shares: its count step, its
/// length and its Rice parameter, each a few bits.
const RUN_HEADER_BITS: f64 = 20.0;

/// Words of the [`PackedCounts`](commsim::codec::PackedCounts) of `len`
/// exact counts: one bit stream of `δ(len)` and each count coded against
/// the one before it.  The candidates arrive in sample-count order, so they
/// are priced as the fitted Zipf's top counts in rank order, `top/j^s` for
/// `j = 1 … len` with `top = n/H(U, s)`, each at
/// `log₂(top/j^s + 1) + PACKED_COUNT_EXTRA_BITS` bits.
fn packed_counts_words(len: f64, i: &PlanInputs) -> f64 {
    let s = i.zipf_exponent;
    let top = i.n as f64 / generalized_harmonic(i.universe, s);
    let len = len.round().max(0.0) as u64;
    let counts: f64 = (1..=len)
        .map(|j| (top / (j as f64).powf(s) + 1.0).log2() + PACKED_COUNT_EXTRA_BITS)
        .sum();
    let length = commsim::codec::BitWriter::number_bits(len) as f64;
    ((length + counts) / 64.0).ceil()
}

/// The bits a packed count costs beyond `log₂(c + 1)`.  A count of its
/// predecessor's bit length is a Rice code of `bit_length(c) + 1` bits (a
/// unary quotient of 1 and the `bit_length(c) − 1` low bits), and a bit
/// length exceeds `log₂(c + 1)` by about half a bit over a band of counts.
const PACKED_COUNT_EXTRA_BITS: f64 = 1.5;

/// One PE's predicted traffic summed over a run of collectives, each
/// direction on its own: the metered bottleneck is `max(sent, received)` of
/// a PE's sums, not the sum of each collective's busier direction.
#[derive(Clone, Copy, Default)]
struct PeTraffic {
    sent: PredictedComm,
    received: PredictedComm,
}

/// The two PEs an algorithm's bottleneck can sit on, each with its traffic
/// summed over the whole algorithm: rank 0, the root of the all-reductions
/// and the baselines' coordinator, and a leaf of those trees.  The busier
/// one is the prediction.
#[derive(Clone, Copy)]
struct Traffic {
    p: usize,
    /// Rank 0, then a leaf.
    pes: [PeTraffic; 2],
}

impl Traffic {
    fn new(p: usize) -> Self {
        Traffic {
            p,
            pes: [PeTraffic::default(); 2],
        }
    }

    /// A collective that loads every PE alike, in both directions (the DHT's
    /// all-to-all, a merge round).
    fn everywhere(mut self, comm: PredictedComm) -> Self {
        for pe in &mut self.pes {
            pe.sent = pe.sent.plus(comm);
            pe.received = pe.received.plus(comm);
        }
        self
    }

    /// A reduction onto rank 0 followed by its broadcast: the root receives
    /// `up` and sends `down` words to each child; a leaf sends `up_leaf`
    /// words up and gets `down` words back.
    fn exchange(mut self, up: PredictedComm, up_leaf: f64, down: f64) -> Self {
        if self.p < 2 {
            return self;
        }
        let [root, leaf] = &mut self.pes;
        root.received = root.received.plus(up);
        root.sent = root.sent.plus(predict::broadcast(self.p, down));
        leaf.sent = leaf.sent.plus(PredictedComm::new(up_leaf, 1.0));
        leaf.received = leaf.received.plus(PredictedComm::new(down, 1.0));
        self
    }

    /// An all-reduction of `m` words through rank 0.
    fn allreduce(self, m: f64) -> Self {
        self.exchange(predict::reduce(self.p, m), m, m)
    }

    /// `select_top_counts`' merge of the `aggregate` keys, spread evenly
    /// over the PEs, down to `k`: in round `j` every PE sends and receives
    /// the best `min(k, aggregate·2^j/p)` entries of a window of `2^j < p`
    /// PEs.  `sample` is the global sample size — all the mass the entries'
    /// counts can sum to — and the keys are drawn from `universe`.
    fn top_counts(mut self, aggregate: f64, k: f64, sample: f64, universe: f64) -> Self {
        let p = self.p as f64;
        for j in 0..predict::rounds(self.p) as i32 {
            let entries = k.min(aggregate * 2f64.powi(j) / p);
            let words = key_counts_words(entries, sample, universe);
            self = self.everywhere(PredictedComm::new(words, 1.0));
        }
        self
    }

    /// The busier PE's busier direction, words and start-ups each.
    fn bottleneck(&self) -> PredictedComm {
        let sums = self.pes.iter().flat_map(|pe| [pe.sent, pe.received]);
        PredictedComm::new(
            sums.clone().map(|c| c.words).fold(0.0, f64::max),
            sums.map(|c| c.startups).fold(0.0, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: u64, k: usize, p: usize, exponent: f64, universe: u64) -> PlanInputs {
        PlanInputs {
            n,
            k,
            p,
            epsilon: 0.05,
            delta: 1e-4,
            zipf_exponent: exponent,
            universe,
        }
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let i = inputs(1 << 20, 32, 16, 1.0, 1 << 18);
        let a = plan(i);
        let b = plan(i);
        assert_eq!(a, b);
        assert_eq!(a.explain(), b.explain());
        assert_eq!(a.candidates.len(), Algorithm::ALL.len());
    }

    #[test]
    fn the_chosen_candidate_is_the_predicted_words_argmin() {
        // p ≤ 2 ties the two baselines' words; the start-ups decide.
        for p in [2, 8] {
            let plan = plan(inputs(1 << 18, 32, p, 1.1, 1 << 16));
            let order = |c: &PlanCandidate| (c.predicted.words, c.predicted.startups);
            let chosen = plan.chosen();
            for c in &plan.candidates {
                assert!(order(chosen) <= order(c), "p={p}: {chosen:?} over {c:?}");
            }
            // A tie in both goes to the first in `Algorithm::ALL`.
            let first = plan.candidates.iter().find(|c| order(c) == order(chosen));
            assert_eq!(first.unwrap().algorithm, plan.algorithm);
        }
    }

    #[test]
    fn large_p_abandons_the_centralized_baseline() {
        // At p = 256 the Naive coordinator's (p−1)·aggregate volume dwarfs
        // every sampling algorithm; the planner must not pick it.
        let plan = plan(inputs(1 << 26, 32, 256, 1.0, 1 << 20));
        assert!(
            !matches!(plan.algorithm, Algorithm::Naive),
            "picked {:?}",
            plan.algorithm
        );
        let naive = plan.candidates[3];
        assert_eq!(naive.algorithm, Algorithm::Naive);
        assert!(naive.predicted.words > 1.5 * plan.chosen().predicted.words);
    }

    #[test]
    fn audit_lines_render_every_field() {
        let audit = PlanAudit {
            algorithm: Algorithm::NaiveTree,
            p: 16,
            n: 123_456,
            k: 32,
            predicted: PredictedComm::new(1234.5, 42.0),
            measured_words: 1500,
            measured_startups: 55,
        };
        assert_eq!(
            audit.audit_line(),
            "plan-audit algo=naive-tree p=16 n=123456 k=32 pred_words=1234.5 meas_words=1500 \
             pred_startups=42.0 meas_startups=55 words_err=-17.7% startups_err=-23.6%"
        );
    }

    #[test]
    fn algorithm_tokens_round_trip() {
        for &a in &Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.token()), Some(a));
            assert_eq!(Algorithm::parse(&a.token().to_uppercase()), Some(a));
        }
        assert_eq!(Algorithm::parse("auto"), None);
        assert_eq!(Algorithm::parse("tree"), Some(Algorithm::NaiveTree));
    }

    #[test]
    fn all_algorithms_have_distinct_names() {
        for label in [Algorithm::name, Algorithm::token] {
            let labels: std::collections::HashSet<&str> =
                Algorithm::ALL.iter().map(|&a| label(a)).collect();
            assert_eq!(labels.len(), Algorithm::ALL.len());
        }
    }

    /// The error fields are computed from the printed prediction, so a
    /// reader recomputes them from the row: 194.252 prints as 194.3, which
    /// is 0.7 % above 193 (the unrounded value is 0.6 % above).
    #[test]
    fn audit_line_errors_follow_the_printed_prediction() {
        let audit = PlanAudit {
            algorithm: Algorithm::Pac,
            p: 4,
            n: 4096,
            k: 8,
            predicted: PredictedComm::new(194.252, 12.0),
            measured_words: 193,
            measured_startups: 12,
        };
        assert_eq!(
            audit.audit_line(),
            "plan-audit algo=pac p=4 n=4096 k=8 pred_words=194.3 meas_words=193 \
             pred_startups=12.0 meas_startups=12 words_err=0.7% startups_err=0.0%"
        );
    }

    #[test]
    fn key_counts_are_priced_as_key_codes_and_run_headers_in_one_bit_stream() {
        // Mass 10 pays for at most 4 runs of distinct counts, 80 header bits.
        // Unknown universe: 64 bits a key, 6 480 bits in all.
        assert_eq!(key_counts_words(100.0, 10.0, f64::INFINITY), 1.0 + 102.0);
        // 100 keys out of 6400: gaps of 64, 8 bits a key — 880 bits.
        assert_eq!(key_counts_words(100.0, 10.0, 6400.0), 1.0 + 14.0);
        // Codes longer than a word a key are capped at 64 bits.
        assert_eq!(key_counts_words(2.0, 1.0, 1e30), 1.0 + 3.0);
        // Dense keys: 3 bits a key and 20 a header share the words.
        assert_eq!(key_counts_words(64.0, 1.0, 128.0), 1.0 + 4.0);
        assert_eq!(key_counts_words(0.0, 0.0, 6400.0), 1.0);
    }

    #[test]
    fn exact_counts_are_priced_at_the_fitted_counts_own_bit_lengths() {
        // n = 2¹⁹ over Zipf(1.0) on 2¹⁶ keys: top count n/H ≈ 44 900.  The
        // j-th count's log₂ falls from 15.5 by log₂ j, 9.7 bits below it on
        // average over 2 240 counts, so a count costs about 5.8 + 1.5 bits:
        // under half the 16-bit width of the largest.
        let zipf = inputs(1 << 19, 32, 2, 1.0, 1 << 16);
        let words = packed_counts_words(2240.0, &zipf);
        assert!((250.0..265.0).contains(&words), "{words}");
        // The empty vector is δ(0), one word.
        assert_eq!(packed_counts_words(0.0, &zipf), 1.0);
        // A count of 1 costs 2.5 bits: 64 of them and δ(64), 12 bits, take
        // 172 bits.
        let flat = inputs(1 << 16, 32, 2, 0.0, 1 << 16);
        assert_eq!(packed_counts_words(64.0, &flat), 3.0);
        // One key takes all of n: its count costs log₂(n + 1) + 1.5 bits,
        // δ(1) 2 more.
        let one_key = inputs(1 << 19, 32, 2, 1.0, 1);
        assert_eq!(packed_counts_words(1.0, &one_key), 1.0);
    }
}
