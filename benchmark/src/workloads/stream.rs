//! `stream_service`: the L4 service path — every op is one
//! `StreamService::ingest_batch` (generate → tokenize → intern → sketch,
//! refresh every 4th batch via the DHT and `select_threshold`) inside one
//! long SPMD region per pass.

use std::collections::HashMap;
use std::time::Instant;

use commsim::{run_spmd, Communicator};
use datagen::{FlashCrowd, StreamProfile, TextCorpus};
use workloads::{StreamConfig, StreamService};

use super::{class_median_ms, derive_seed, pass_from_logs, OpLog};
use crate::harness::{op_times_ms, Metrics, Pass, Scale, Workload};
use crate::trace::{NoTrace, Spans, TraceSink};

const P: usize = 2;
/// Words each PE ingests per batch: 4000 per batch over the two PEs.
const WORDS_PER_PE: usize = 2000;
const VOCAB: usize = 2000;
const ZIPF_EXPONENT: f64 = 1.05;

/// The published top-k after a refresh batch.
type Published = Vec<(String, u64)>;

struct PeOutcome {
    log: OpLog,
    /// `(batch, serving_topk())` after every refresh.
    published: Vec<(usize, Published)>,
    words_per_item: f64,
    p95_staleness_items: u64,
}

pub struct StreamServiceLoad {
    batches: usize,
    config: StreamConfig,
    corpus: TextCorpus,
    profile: StreamProfile,
    /// Oracle: `batch_counts[batch][vocabulary index]` is how often the word
    /// occurs in that batch over all PEs.
    batch_counts: Vec<Vec<u32>>,
    word_index: HashMap<String, usize>,
    /// The service's own report of the latest pass (exact, seed-determined).
    words_per_item: f64,
    p95_staleness_items: u64,
}

impl StreamServiceLoad {
    /// Threaded, p = 2, default `StreamConfig` with 4000 words per batch,
    /// drifting profile with one flash crowd; M = 1200 batches, K = 5.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let batches = scale.ops(1200);
        let config = StreamConfig {
            words_per_batch: WORDS_PER_PE,
            seed: derive_seed(seed, 8, 0),
            ..StreamConfig::default()
        };
        let corpus = TextCorpus::new(VOCAB, ZIPF_EXPONENT, derive_seed(seed, 9, 0));
        let profile = StreamProfile {
            drift_every: 10,
            drift_step: 25,
            burst: Some(FlashCrowd {
                start: batches / 2,
                len: (batches / 24).max(2),
                rank: 150,
                intensity: 0.4,
            }),
        };
        let word_index: HashMap<String, usize> = corpus
            .vocabulary()
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let batch_counts = (0..batches)
            .map(|batch| {
                let mut counts = vec![0u32; VOCAB];
                for rank in 0..P {
                    for word in corpus.stream_batch_words(&profile, rank, batch, WORDS_PER_PE) {
                        counts[word_index[word]] += 1;
                    }
                }
                counts
            })
            .collect();
        StreamServiceLoad {
            batches,
            config,
            corpus,
            profile,
            batch_counts,
            word_index,
            words_per_item: 0.0,
            p95_staleness_items: 0,
        }
    }

    fn region<C: Communicator, S: Spans>(&self, comm: &C, spans: &S) -> PeOutcome {
        let mut service = StreamService::new(self.config);
        let mut log = OpLog::with_capacity(self.batches);
        let mut published = Vec::with_capacity(self.batches / self.config.refresh_every + 1);
        for batch in 0..self.batches {
            spans.set_op(batch as u32);
            let refreshed = log.measure(comm, || {
                let _op = spans.span("op");
                let _call = spans.span("ingest_batch");
                service
                    .ingest_batch(comm, &self.corpus, &self.profile)
                    .refreshed
            });
            if refreshed {
                published.push((batch, service.serving_topk().to_vec()));
            }
        }
        let report = service.report();
        PeOutcome {
            log,
            published,
            words_per_item: report.words_per_item,
            p95_staleness_items: report.p95_staleness_items,
        }
    }

    /// Oracle for one refresh: every published count is an under-estimate of
    /// the brute-force window count, short by at most the summed
    /// `SlidingWindowTopK::error_bound()` of the PEs, and the list is full.
    fn refresh_correct(&self, batch: usize, published: &Published) -> bool {
        let window_start = (batch + 1).saturating_sub(self.config.window);
        let window_batches = batch - window_start + 1;
        let per_pe_bound =
            (window_batches * WORDS_PER_PE) as u64 / (self.config.sketch_capacity as u64 + 1);
        let bound = per_pe_bound * P as u64;
        published.len() == self.config.k
            && published.iter().all(|(word, count)| {
                self.word_index.get(word).is_some_and(|&index| {
                    let truth: u64 = (window_start..=batch)
                        .map(|b| u64::from(self.batch_counts[b][index]))
                        .sum();
                    *count <= truth && truth - count <= bound
                })
            })
    }

    fn is_refresh(&self, batch: usize) -> bool {
        batch.is_multiple_of(self.config.refresh_every)
    }
}

impl Workload for StreamServiceLoad {
    fn num_ops(&self) -> usize {
        self.batches
    }

    fn run_rounds(&self) -> usize {
        5
    }

    fn num_pes(&self) -> usize {
        P
    }

    fn total_elements(&self) -> u64 {
        (self.batches * P * WORDS_PER_PE) as u64
    }

    fn run_pass(&mut self, trace: Option<(&TraceSink, bool)>) -> Pass {
        let start = Instant::now();
        let this = &*self;
        let out = match trace {
            None => run_spmd(P, |comm| this.region(comm, &NoTrace)),
            Some((sink, store)) => run_spmd(P, |comm| {
                sink.with_trace(comm, store, |tc| this.region(tc, tc))
            }),
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let logs: Vec<&OpLog> = out.results.iter().map(|o| &o.log).collect();
        let mut pass = pass_from_logs(&logs, self.batches, wall_ns);

        // Every PE must have published the same list at every refresh batch.
        let expected_refreshes = (0..self.batches).filter(|&b| self.is_refresh(b)).count();
        let root = &out.results[0];
        let agree = out.results.iter().all(|o| o.published == root.published);
        pass.failed_ops += if agree && root.published.len() == expected_refreshes {
            root.published
                .iter()
                .filter(|(batch, list)| {
                    !self.is_refresh(*batch) || !self.refresh_correct(*batch, list)
                })
                .count()
        } else {
            expected_refreshes
        };
        self.words_per_item = root.words_per_item;
        self.p95_staleness_items = root.p95_staleness_items;
        pass
    }

    fn layer_metrics(
        &self,
        untraced: &[Pass],
        _traced: &[Pass],
        _sink: &TraceSink,
        out: &mut Metrics,
    ) {
        let times = op_times_ms(untraced);
        if let Some(ms) = class_median_ms(&times, |b| !self.is_refresh(b)) {
            out.set("workloads.stream.plain_batch_ms", ms);
        }
        if let Some(ms) = class_median_ms(&times, |b| self.is_refresh(b)) {
            out.set("workloads.stream.refresh_batch_ms", ms);
        }
        out.set("workloads.stream.words_per_item", self.words_per_item);
        out.set(
            "workloads.stream.p95_staleness_items",
            self.p95_staleness_items as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_rejects_over_counts_and_short_lists() {
        let mut workload = StreamServiceLoad::new(3, Scale::Smoke);
        let pass = workload.run_pass(None);
        assert_eq!(pass.failed_ops, 0);

        let out = run_spmd(P, |comm| workload.region(comm, &NoTrace));
        let (batch, good) = out.results[0].published.last().unwrap().clone();
        assert!(workload.refresh_correct(batch, &good));
        let mut over = good.clone();
        over[0].1 += 1_000_000;
        assert!(!workload.refresh_correct(batch, &over));
        let mut short = good.clone();
        short.pop();
        assert!(!workload.refresh_correct(batch, &short));
        let mut unknown = good;
        unknown[0].0 = "notaword".to_string();
        assert!(!workload.refresh_correct(batch, &unknown));
    }
}
