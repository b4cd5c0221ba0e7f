//! Streaming top-k service.
//!
//! The batch pipeline of [`crate::text`] answers *one* question about *one*
//! corpus and terminates.  This module turns it into a long-running service:
//! every PE ingests an unbounded document stream in mini-batches
//! ([`datagen::TextCorpus::stream_batch_text`] with a non-stationary
//! [`datagen::StreamProfile`]), maintains a **sliding-window** top-k summary
//! ([`seqkit::SlidingWindowTopK`] over interned ids), re-interns newly seen
//! vocabulary incrementally ([`StreamVocab`] —
//! ids are append-only and stable, unlike the batch
//! [`crate::text::distributed_intern`] which renumbers on every call), and
//! periodically **refreshes a published global top-k** with the paper's §7
//! machinery: per-PE window candidates are DHT-aggregated
//! ([`topk::frequent::dht::aggregate_counts`]), and
//! [`topk::frequent::select_top_counts`] merges the shares' top-k lists in
//! `⌈log₂ p⌉` exchanges, the publication step PAC, EC and PEC share.  Point
//! queries are answered *between* batches from the last published snapshot
//! — exactly how a serving system trades freshness for communication.  They
//! arrive as a modeled Poisson stream ([`StreamConfig::query_lambda`] per
//! batch), scored analytically, so serving them meters no words.
//!
//! Two scored metrics fall out, both reported by [`StreamReport`]:
//!
//! * **p95 answer staleness** of those queries, measured in *globally
//!   ingested items* since the serving snapshot was published (item counts,
//!   not wall clock, so the metric is bit-identical across backends), and
//! * **words per ingested item**, this PE's bottleneck communication volume
//!   divided by the number of items ingested — the streaming analogue of the
//!   paper's words/PE columns.
//!
//! A batch meters itself without a collective: every traffic figure of
//! [`BatchReport`] and [`StreamReport`] is this PE's own.  The world figures
//! — each batch's busiest PE — are a fold over every PE's reports outside
//! the region ([`world_report`]), the way [`commsim::WorldStats`] meters
//! every other workload.  So a plain batch sends only its vocabulary
//! all-gather, and a refresh adds the hash table's all-to-all and the
//! merge's `⌈log₂ p⌉` rounds.
//!
//! Everything the service communicates is a deterministic function of
//! `(seed, rank, batch)`, so per-batch metered words/PE are bit-identical
//! across the threaded, seq and mux backends (pinned by
//! `tests/streaming_integration.rs`).
//!
//! With [`StreamConfig::replication`] `= r > 0` the service tolerates
//! crash-stops.  Each batch opens with a round of the shared
//! [`commsim::recovery::Membership`] protocol, and the same batch cycle
//! then runs over the survivor [`SubComm`] instead of the world; every
//! refresh pushes this PE's serving shard to its `r` ring successors with
//! [`commsim::recovery::ring_push`], so point queries fail over to a
//! replica and a recovering PE can [`StreamService::rejoin`] from one.

use std::cmp::Reverse;
use std::collections::HashMap;

use commsim::recovery::{ring_push, Membership};
use commsim::{Communicator, CostModel, Rank, StatsSnapshot, SubComm, Tag};
use datagen::{StreamProfile, TextCorpus};
use seqkit::SlidingWindowTopK;
use topk::frequent::{dht, select_top_counts};
use topk::util::{owner_of, splitmix64};

use crate::text::tokenize;

/// User tag of a replica push's numeric part (epoch, log base, counts).
/// (`0xF17A`/`0xF17B` belong to the shared membership protocol of
/// [`commsim::recovery`], `0xF17E` to its checkpoint pushes.)
const REPLICA_META_TAG: Tag = 0xF17C;
/// User tag of a replica push's vocabulary delta (`Vec<String>`).
const REPLICA_VOCAB_TAG: Tag = 0xF17D;

/// Modeled payload of a remote point-query response, in machine words
/// (word id, count, epoch, staleness).
const REMOTE_QUERY_WORDS: f64 = 4.0;

/// Tuning knobs of the streaming service.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Size of the published global top-k.
    pub k: usize,
    /// Sliding-window length in mini-batches.
    pub window: usize,
    /// Counters per Misra–Gries sub-sketch (and per merged window summary).
    pub sketch_capacity: usize,
    /// Publish a fresh global top-k every this many batches (`1` = every
    /// batch; larger trades staleness for communication).
    pub refresh_every: usize,
    /// Words each PE ingests per mini-batch.
    pub words_per_batch: usize,
    /// Seed of the modeled query stream (the corpus has its own seed).
    pub seed: u64,
    /// Number of buddy PEs each serving shard is replicated to (ring
    /// successors in the live group).  `0` — the default — disables the
    /// whole failure-tolerance machinery: no membership round, no replica
    /// traffic, communication bit-identical to the pre-FT service.
    /// Non-zero enables per-batch membership, degraded refreshes over the
    /// survivor subgroup, and replica failover (any world size — the
    /// membership bitmaps grow with `p`).
    pub replication: usize,
    /// Mean arrivals per batch of the modeled Poisson point-query stream,
    /// which scores staleness, availability and latency (analytically
    /// against the α/β cost model — zero communication, so it never perturbs
    /// the metered words).  Must be finite and positive.
    pub query_lambda: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            k: 10,
            window: 8,
            sketch_capacity: 64,
            refresh_every: 4,
            words_per_batch: 1000,
            seed: 0x5EED,
            replication: 0,
            query_lambda: 4.0,
        }
    }
}

/// Incremental distributed interning: a global `word → u64 id` map that only
/// ever **grows**, kept identical on every PE.
///
/// The batch [`crate::text::distributed_intern`] assigns ids by rank in the
/// sorted global vocabulary — re-running it after new words arrive renumbers
/// everything, which would invalidate every id already inside the window
/// sketches.  Here ids are *append-only*: each batch gathers only the words
/// no PE has seen before (sorted and deduplicated, so the delta is canonical)
/// and appends them in that order, so existing ids are stable forever and the
/// per-batch communication is proportional to the *new* vocabulary, which
/// under Zipf traffic decays rapidly after warm-up.
#[derive(Debug, Clone, Default)]
pub struct StreamVocab {
    /// id → word; the id of a word is its index, identical on every PE.
    vocab: Vec<String>,
    /// word → id (the inverse map).
    index: HashMap<String, u64>,
}

impl StreamVocab {
    /// An empty vocabulary.
    pub fn new() -> Self {
        StreamVocab::default()
    }

    /// Number of interned words.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// `true` if no word has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// The word behind `id`.
    pub fn resolve(&self, id: u64) -> Option<&str> {
        self.vocab.get(id as usize).map(String::as_str)
    }

    /// Intern a batch of tokens, growing the global vocabulary by exactly the
    /// words *no* PE had seen before (collective — all PEs must call this
    /// together).  Returns the token stream mapped to ids.
    ///
    /// Because the vocabulary is identical on every PE, "unknown locally"
    /// equals "unknown globally", so the allgathered delta is precisely the
    /// set of globally new words; sorting and deduplicating the union makes
    /// the appended order canonical regardless of which PE contributed what.
    fn ingest<C: Communicator>(&mut self, comm: &C, tokens: &[String]) -> Vec<u64> {
        let mut fresh: Vec<String> = tokens
            .iter()
            .filter(|t| !self.index.contains_key(*t))
            .cloned()
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut delta: Vec<String> = comm.allgather(fresh).into_iter().flatten().collect();
        delta.sort_unstable();
        delta.dedup();
        for word in delta {
            let id = self.vocab.len() as u64;
            self.index.insert(word.clone(), id);
            self.vocab.push(word);
        }
        tokens.iter().map(|t| self.index[t.as_str()]).collect()
    }

    /// Rebuild a vocabulary by replaying an id-ordered log (a buddy's
    /// [`ReplicaShard::vocab_log`]): word `log[i]` gets id `i`, exactly as it
    /// did on the PE that interned it.
    fn from_log(log: &[String]) -> Self {
        let mut v = StreamVocab::new();
        for word in log {
            let id = v.vocab.len() as u64;
            v.index.insert(word.clone(), id);
            v.vocab.push(word.clone());
        }
        v
    }

    /// The interned words in id order.
    pub fn words(&self) -> &[String] {
        &self.vocab
    }
}

/// Per-batch record of the service loop (one entry per ingested mini-batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Batch index (0-based).
    pub batch: usize,
    /// Globally new words interned during this batch.
    pub new_vocab: usize,
    /// Whether this batch published a fresh global top-k.
    pub refreshed: bool,
    /// Staleness (in globally ingested items) of the answers served after
    /// this batch.
    pub staleness_items: u64,
    /// Words this PE sent during the batch (ingest + refresh traffic).
    pub sent_words: u64,
    /// Messages this PE sent during the batch.
    pub sent_messages: u64,
    /// This PE's bottleneck words of the batch, `max(sent, received)`; the
    /// world's is the maximum over the PEs ([`world_report`]).
    pub bottleneck_words: u64,
    /// PEs that participated in this batch (equals the world size until a
    /// crash is detected; always the world size with `replication == 0`).
    pub live_pes: usize,
    /// Words this PE sent on replica pushes during the batch (the robustness
    /// tax; `0` with `replication == 0`).
    pub replication_words: u64,
    /// This PE's *total* message sends since the service started, sampled
    /// at the very end of the batch.  This is the calibration hook for
    /// boundary-aligned chaos crashes: a `FaultEvent::CrashPe` with
    /// `at_send_count` equal to this value dies exactly at its first send of
    /// the *next* batch — the membership heartbeat — and is detected
    /// cleanly, never mid-collective.
    ///
    /// [`FaultEvent::CrashPe`]: commsim::FaultEvent::CrashPe
    pub sends_total: u64,
}

/// Summary of a service run: identical on every PE but for the traffic
/// fields, which are this PE's own ([`world_report`] folds them).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Mini-batches ingested.
    pub batches: usize,
    /// Items ingested globally (all PEs, all batches).
    pub items_global: u64,
    /// Final global vocabulary size.
    pub vocab_size: usize,
    /// 95th percentile of the routed queries' answer staleness, in globally
    /// ingested items.
    pub p95_staleness_items: u64,
    /// Worst-case routed-query answer staleness, in globally ingested items.
    pub max_staleness_items: u64,
    /// Sum over batches of this PE's bottleneck words.
    pub total_bottleneck_words: u64,
    /// `total_bottleneck_words / items_global` — the scored communication
    /// metric of the streaming scenario.
    pub words_per_item: f64,
    /// Whether the serving snapshot was published by a degraded refresh
    /// (aggregation over a strict subset of the world's PEs).
    pub degraded: bool,
    /// Fraction of the world's PEs that contributed to the serving snapshot
    /// (`1.0` until a crash is detected).
    pub coverage: f64,
    /// Modeled Poisson point queries routed to serving shards.
    pub routed_queries: u64,
    /// Routed queries for which the primary shard or one of its replicas was
    /// alive.
    pub answered_queries: u64,
    /// `answered_queries / routed_queries` (`1.0` when none were routed).
    pub availability: f64,
    /// Median modeled latency of an answered routed query, in seconds of the
    /// α/β cost model (`0.0` when the front-end PE held a serving copy).
    pub p50_query_latency: f64,
    /// 95th percentile of the modeled routed-query latency.
    pub p95_query_latency: f64,
    /// 99th percentile of the modeled routed-query latency.
    pub p99_query_latency: f64,
    /// Sum over batches of this PE's replica-push words — the total
    /// robustness tax (`0` with `replication == 0`).
    pub total_replication_words: u64,
}

/// The world view of a run, folded outside the region: `report` (any PE's)
/// with its traffic fields replaced by the sums over batches of each batch's
/// maximum over `pes`, every PE's per-batch reports.  A PE whose reports end
/// early — a crash victim, its reports up to the crash taken from a
/// fault-free run — counts for the batches it reports.
pub fn world_report(report: &StreamReport, pes: &[&[BatchReport]]) -> StreamReport {
    let batches = pes.iter().map(|reports| reports.len()).max().unwrap_or(0);
    let total = |field: fn(&BatchReport) -> u64| -> u64 {
        (0..batches)
            .map(|t| {
                let at_t = pes.iter().filter_map(|reports| reports.get(t));
                at_t.map(field).max().unwrap_or(0)
            })
            .sum()
    };
    let total_bottleneck_words = total(|b| b.bottleneck_words);
    StreamReport {
        total_bottleneck_words,
        words_per_item: per_item(total_bottleneck_words, report.items_global),
        total_replication_words: total(|b| b.replication_words),
        ..report.clone()
    }
}

/// `words / items`, `0.0` when nothing was ingested.
fn per_item(words: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        words as f64 / items as f64
    }
}

/// A buddy's copy of one PE's serving shard, pushed at every refresh (see
/// [`StreamConfig::replication`]).
///
/// The vocabulary travels as an append-only **delta log**: each push carries
/// only the ids interned since the previous push to this buddy (a buddy that
/// became a successor after a membership change receives the full log once).
/// Replaying the log rebuilds the id → word map exactly, which is what lets
/// a recovering PE rejoin with stable ids ([`StreamService::rejoin`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaShard {
    /// World rank of the primary this shard replicates.
    pub owner: Rank,
    /// Batch index of the refresh that produced it.
    pub epoch: usize,
    /// The primary's DHT-owned windowed aggregate: `(id, count)` pairs.
    pub counts: Vec<(u64, u64)>,
    /// Accumulated id-ordered vocabulary log (index = interned id).
    pub vocab_log: Vec<String>,
}

/// The streaming top-k service state of one PE.
///
/// Drive it by calling [`ingest_batch`](Self::ingest_batch) once per
/// mini-batch on every PE (collective).  The service never terminates on its
/// own — the caller decides how many batches to run.
#[derive(Debug)]
pub struct StreamService {
    config: StreamConfig,
    vocab: StreamVocab,
    sliding: SlidingWindowTopK<u64>,
    /// The published global top-k: `(word, windowed count estimate)`, most
    /// frequent first; identical on every PE.
    snapshot: Vec<(String, u64)>,
    /// Globally ingested items when the snapshot was published.
    snapshot_items: u64,
    /// Globally ingested items so far.
    items_global: u64,
    batches_done: usize,
    /// Staleness of every routed query, in globally ingested items.
    staleness: Vec<u64>,
    batch_reports: Vec<BatchReport>,
    total_bottleneck_words: u64,
    // ----- failure-tolerance state (inert while `replication == 0`) -----
    /// The shared membership protocol ([`commsim::recovery::Membership`]):
    /// presumed-live group, suspicion bitmap, and eviction flag.  The group
    /// is empty until the first FT batch initialises it to the full world.
    /// An evicted service — the coordinator declared this live PE dead (a
    /// lost heartbeat, not a crash), or a round failed with a
    /// [`commsim::recovery::RecoveryError`] — goes quiescent: every later
    /// `ingest_batch` is a communication-free no-op.
    membership: Membership,
    /// The live group at the last refresh — the ownership map the serving
    /// shards (and their replicas) were built against.
    snapshot_group: Vec<Rank>,
    /// Whether the serving snapshot came from a degraded refresh.
    degraded: bool,
    /// Live fraction of the world at the last refresh.
    coverage: f64,
    /// This PE's DHT-owned windowed aggregate at the last refresh
    /// (`(id, count)`, descending by count) — the serving shard replicas
    /// are made of.
    shard: Vec<(u64, u64)>,
    /// Replicas this PE holds for its ring predecessors, keyed by the
    /// primary's world rank.
    replicas: HashMap<Rank, ReplicaShard>,
    /// Per-buddy high-water mark of the vocabulary log already pushed.
    replica_pushed: HashMap<Rank, usize>,
    total_replication_words: u64,
    /// Modeled latency of every answered routed query (cost-model seconds).
    query_latencies: Vec<f64>,
    routed_queries: u64,
    answered_queries: u64,
}

impl StreamService {
    /// A fresh service (empty vocabulary, empty window, nothing published).
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.k >= 1, "k must be at least 1");
        assert!(
            config.refresh_every >= 1,
            "refresh_every must be at least 1"
        );
        assert!(config.words_per_batch >= 1, "batches must be non-empty");
        assert!(
            config.query_lambda.is_finite() && config.query_lambda > 0.0,
            "query_lambda must be finite and positive"
        );
        StreamService {
            sliding: SlidingWindowTopK::new(config.window, config.sketch_capacity),
            config,
            vocab: StreamVocab::new(),
            snapshot: Vec::new(),
            snapshot_items: 0,
            items_global: 0,
            batches_done: 0,
            staleness: Vec::new(),
            batch_reports: Vec::new(),
            total_bottleneck_words: 0,
            membership: Membership::new(),
            snapshot_group: Vec::new(),
            degraded: false,
            coverage: 1.0,
            shard: Vec::new(),
            replicas: HashMap::new(),
            replica_pushed: HashMap::new(),
            total_replication_words: 0,
            query_latencies: Vec::new(),
            routed_queries: 0,
            answered_queries: 0,
        }
    }

    /// Bootstrap a recovering PE from a buddy's replica of its shard: the
    /// vocabulary log is replayed (so every id resolves exactly as it did
    /// before the crash) and the replicated aggregate becomes the serving
    /// shard.  The window sketch restarts empty — the sliding window
    /// refills within `config.window` batches, which is the documented
    /// recovery semantics (windowed counts are transient by design).
    pub fn rejoin(config: StreamConfig, replica: &ReplicaShard) -> Self {
        let mut service = StreamService::new(config);
        service.vocab = StreamVocab::from_log(&replica.vocab_log);
        service.shard = replica.counts.clone();
        service
    }

    /// Ingest the next mini-batch of the stream (collective — all PEs must
    /// call this together, with the same corpus and profile).
    ///
    /// One call = one full service cycle: generate this PE's documents,
    /// tokenize, intern new vocabulary, update the window sketch, publish a
    /// fresh global top-k if the refresh cadence says so, score the batch's
    /// Poisson point queries against the current snapshot, and meter the
    /// batch's communication.
    ///
    /// With `replication > 0` the cycle opens with a membership round and
    /// runs over the survivor subgroup it agrees on, pushing replicas at
    /// every refresh; an evicted service goes quiescent instead.
    pub fn ingest_batch<C: Communicator>(
        &mut self,
        comm: &C,
        corpus: &TextCorpus,
        profile: &StreamProfile,
    ) -> &BatchReport {
        let before = comm.stats_snapshot();
        if self.config.replication == 0 {
            let world: Vec<Rank> = (0..comm.size()).collect();
            return self.cycle(comm, comm, &world, before, corpus, profile);
        }
        // Agree on the live group before any data traffic.  Crashes are
        // assumed to fall *between* batches (a victim's crash send-count
        // calibrated to its first send of a batch — its heartbeat — exactly
        // what `FaultPlan::seeded_crashes` plus the chaos harness produce); a
        // PE dying midway through a collective leaves the survivors'
        // collective unanswerable and fails fast with a `PeerDead` panic.
        if !self.membership.is_evicted() && self.membership.round(comm).is_err() {
            // A protocol violation poisons the round.  Degrade: this PE
            // drops out of the group, and the survivors evict it on their
            // next round.
            self.membership.quiesce();
        }
        if self.membership.is_evicted() {
            // Survivable eviction (a lost heartbeat, or a slow PE exhausting
            // the coordinator's timeout budget): the group moved on without
            // this live PE.  Rejoining with stale window state would corrupt
            // the published counts, and any communication would wedge the
            // protocol, so the service goes quiescent.
            return self.evicted_report(comm);
        }
        let live = self.membership.group().to_vec();
        let sub = SubComm::new(comm, live.clone(), self.batches_done as u64);
        self.cycle(comm, &sub, &live, before, corpus, profile)
    }

    /// The service cycle of [`Self::ingest_batch`].  `group` runs every
    /// collective — `comm` itself with `replication == 0`, the survivor
    /// subgroup otherwise — and `live` lists its members' world ranks;
    /// `comm` supplies this PE's world rank, the world size and the meter.
    fn cycle<C: Communicator, G: Communicator>(
        &mut self,
        comm: &C,
        group: &G,
        live: &[Rank],
        before: StatsSnapshot,
        corpus: &TextCorpus,
        profile: &StreamProfile,
    ) -> &BatchReport {
        let t = self.batches_done;

        // Ingest: generate → tokenize → intern → sketch.
        let text = corpus.stream_batch_text(profile, comm.rank(), t, self.config.words_per_batch);
        let tokens = tokenize(&text);
        debug_assert_eq!(tokens.len(), self.config.words_per_batch);
        let vocab_before = self.vocab.len();
        let ids = self.vocab.ingest(group, &tokens);
        for &id in &ids {
            self.sliding.insert(id);
        }
        self.items_global += (self.config.words_per_batch * live.len()) as u64;

        // Periodic refresh: publish a fresh global top-k (batch 0 always
        // refreshes, so the service is never serving from nothing).  A
        // refresh that runs while part of the world is dead publishes a
        // *degraded* snapshot — the dead PEs' window contributions are
        // simply absent, and the coverage fraction says so.
        let refreshed = t % self.config.refresh_every == 0;
        let mut replication_words = 0;
        if refreshed {
            self.refresh(group);
            self.snapshot_group = live.to_vec();
            self.degraded = live.len() < comm.size();
            self.coverage = live.len() as f64 / comm.size() as f64;
            replication_words = self.replicate(group, t, live);
        }

        // Score the between-batch point queries against the published
        // snapshot (analytic, zero traffic).
        let staleness_now = self.items_global - self.snapshot_items;
        self.score_routed_queries(t, live, staleness_now);

        // Meter the batch: this PE's own counters, no collective.
        let end_of_batch = comm.stats_snapshot();
        let delta = end_of_batch.since(&before);
        let words = delta.bottleneck_words();
        self.total_bottleneck_words += words;
        self.total_replication_words += replication_words;

        // Close the batch: the window advances one step.
        self.sliding.advance();
        self.batches_done += 1;

        self.batch_reports.push(BatchReport {
            batch: t,
            new_vocab: self.vocab.len() - vocab_before,
            refreshed,
            staleness_items: staleness_now,
            sent_words: delta.sent_words,
            sent_messages: delta.sent_messages,
            bottleneck_words: words,
            live_pes: live.len(),
            replication_words,
            sends_total: end_of_batch.sent_messages,
        });
        self.batch_reports.last().expect("just pushed")
    }

    /// Push this PE's serving shard (aggregate counts + vocabulary delta
    /// log) to its `replication` ring successors in `group`, and store the
    /// replicas received from its ring predecessors: one [`ring_push`] per
    /// part.  Returns the words this PE sent on replica traffic (the
    /// robustness tax).
    fn replicate<G: Communicator>(&mut self, group: &G, t: usize, live: &[Rank]) -> u64 {
        let before = group.stats_snapshot();
        let copies = self.config.replication;
        let vocab_len = self.vocab.len();
        // A buddy that has never received from us (or a new successor after
        // a membership change) gets the full log from zero.
        let base = |pushed: &HashMap<Rank, usize>, buddy: Rank| {
            pushed.get(&buddy).copied().unwrap_or(0).min(vocab_len)
        };
        // The batch, the buddy's vocabulary base and the aggregate counts.
        let metas = ring_push(group, copies, REPLICA_META_TAG, |successor| {
            let from = base(&self.replica_pushed, live[successor]);
            (t as u64, from as u64, self.shard.clone())
        });
        let deltas = ring_push(group, copies, REPLICA_VOCAB_TAG, |successor| {
            let buddy = live[successor];
            let from = base(&self.replica_pushed, buddy);
            self.replica_pushed.insert(buddy, vocab_len);
            self.vocab.words()[from..].to_vec()
        });
        for ((predecessor, (epoch, base, counts)), (_, delta)) in metas.into_iter().zip(deltas) {
            let owner = live[predecessor];
            let (epoch, base) = (epoch as usize, base as usize);
            let shard = self.replicas.entry(owner).or_insert_with(|| ReplicaShard {
                owner,
                epoch,
                counts: Vec::new(),
                vocab_log: Vec::new(),
            });
            shard.epoch = epoch;
            shard.counts = counts;
            // Align to the sender's base (idempotent under re-pushes of a
            // suffix we already hold), then append the delta.
            shard.vocab_log.truncate(base);
            shard.vocab_log.extend(delta);
        }
        group.stats_snapshot().since(&before).sent_words
    }

    /// Score the modeled Poisson point-query stream for batch `t`.
    ///
    /// The queries are *analytic*: every PE derives the identical stream
    /// from `(seed, t)` and scores it against the α/β cost model, so the
    /// exercise is communication-free and cannot perturb the metered words.
    /// Every arrival after batch `t` sees the same ingest state, so each
    /// records the same `staleness` — once per arrival, so the percentiles
    /// weigh batches by query volume.  Each query picks a front-end PE
    /// (uniform over the live group) and a vocabulary id; the serving shard
    /// is the id's owner under the *snapshot* group (the map the replicas
    /// were built against), its holders are the owner plus the
    /// `replication` ring successors.  A query is answered iff some holder
    /// is still alive; it is free iff the front-end itself holds a copy, and
    /// costs one modeled round-trip (`2α + βm`) otherwise.
    fn score_routed_queries(&mut self, t: usize, live: &[Rank], staleness: u64) {
        if self.vocab.is_empty() {
            return;
        }
        let seed = self
            .config
            .seed
            .wrapping_mul(0x9E6C_63D0_876A_3F6B)
            .wrapping_add(t as u64);
        let arrivals = poisson_count(self.config.query_lambda, seed);
        let snapshot_group = &self.snapshot_group;
        let g = snapshot_group.len();
        let r = self.config.replication.min(g - 1);
        let cost = CostModel::default();
        for q in 0..arrivals {
            let h = splitmix64(seed ^ (q.wrapping_mul(0xA076_1D64_78BD_642F)));
            let front_end = live[(h % live.len() as u64) as usize];
            let id = splitmix64(h) % self.vocab.len() as u64;
            let owner_gidx = owner_of(id, g);
            let holders: Vec<Rank> = (0..=r)
                .map(|j| snapshot_group[(owner_gidx + j) % g])
                .collect();
            self.routed_queries += 1;
            self.staleness.push(staleness);
            if holders.iter().any(|h| live.contains(h)) {
                self.answered_queries += 1;
                let latency = if holders.contains(&front_end) {
                    0.0
                } else {
                    2.0 * cost.alpha + cost.beta * REMOTE_QUERY_WORDS
                };
                self.query_latencies.push(latency);
            }
        }
    }

    /// Publish a fresh global top-k: DHT-aggregate the per-PE window
    /// candidates, then merge the shares' top-k lists with
    /// [`select_top_counts`], the publication step of §7's algorithms.
    fn refresh<C: Communicator>(&mut self, comm: &C) {
        let owned = dht::aggregate_counts(comm, self.sliding.candidate_counts());
        // The owned aggregate *is* this PE's serving shard — kept, most
        // frequent first, for the replica pushes of the failure-tolerant mode.
        self.shard = owned.iter().map(|(&id, &c)| (id, c)).collect();
        self.shard.sort_unstable_by_key(|&(id, c)| Reverse((c, id)));
        self.snapshot = select_top_counts(comm, &owned, self.config.k)
            .into_iter()
            .map(|(id, c)| {
                let word = self
                    .vocab
                    .resolve(id)
                    .expect("published ids come from the vocabulary")
                    .to_string();
                (word, c)
            })
            .collect();
        self.snapshot_items = self.items_global;
    }

    /// The communication-free batch record of an evicted service (see
    /// [`Self::is_evicted`]): nothing is ingested, nothing is sent, and
    /// `live_pes` reports the group that moved on without this PE.
    fn evicted_report<C: Communicator>(&mut self, comm: &C) -> &BatchReport {
        self.batch_reports.push(BatchReport {
            batch: self.batches_done,
            new_vocab: 0,
            refreshed: false,
            staleness_items: self.items_global - self.snapshot_items,
            sent_words: 0,
            sent_messages: 0,
            bottleneck_words: 0,
            live_pes: self.membership.group().len(),
            replication_words: 0,
            sends_total: comm.stats_snapshot().sent_messages,
        });
        self.batches_done += 1;
        self.batch_reports.last().expect("just pushed")
    }

    /// The published global top-k (identical on every PE).
    pub fn serving_topk(&self) -> &[(String, u64)] {
        &self.snapshot
    }

    /// The incremental vocabulary.
    pub fn vocab(&self) -> &StreamVocab {
        &self.vocab
    }

    /// Per-batch records so far.
    pub fn batch_reports(&self) -> &[BatchReport] {
        &self.batch_reports
    }

    /// `true` if the membership coordinator declared this live PE dead (a
    /// lost heartbeat, not a crash) and the service went quiescent.
    pub fn is_evicted(&self) -> bool {
        self.membership.is_evicted()
    }

    /// The live group as of the last membership round (the full world until
    /// a crash is detected; meaningful only with `replication > 0`).
    pub fn live_group(&self) -> &[Rank] {
        self.membership.group()
    }

    /// The replicas this PE holds for its ring predecessors, keyed by the
    /// primary's world rank.
    pub fn replicas(&self) -> &HashMap<Rank, ReplicaShard> {
        &self.replicas
    }

    /// This PE's own serving shard (`(id, count)` of its DHT-owned
    /// aggregate at the last refresh).
    pub fn serving_shard(&self) -> &[(u64, u64)] {
        &self.shard
    }

    /// Summarise the run so far: identical on every PE but for the traffic
    /// fields, this PE's own.
    pub fn report(&self) -> StreamReport {
        let mut staleness = self.staleness.clone();
        staleness.sort_unstable();
        let mut latencies = self.query_latencies.clone();
        latencies.sort_unstable_by(f64::total_cmp);
        StreamReport {
            batches: self.batches_done,
            items_global: self.items_global,
            vocab_size: self.vocab.len(),
            p95_staleness_items: nearest_rank(&staleness, 0.95),
            max_staleness_items: staleness.last().copied().unwrap_or(0),
            total_bottleneck_words: self.total_bottleneck_words,
            words_per_item: per_item(self.total_bottleneck_words, self.items_global),
            degraded: self.degraded,
            coverage: self.coverage,
            routed_queries: self.routed_queries,
            answered_queries: self.answered_queries,
            availability: if self.routed_queries == 0 {
                1.0
            } else {
                self.answered_queries as f64 / self.routed_queries as f64
            },
            p50_query_latency: nearest_rank(&latencies, 0.50),
            p95_query_latency: nearest_rank(&latencies, 0.95),
            p99_query_latency: nearest_rank(&latencies, 0.99),
            total_replication_words: self.total_replication_words,
        }
    }
}

/// Nearest-rank `q`-quantile of an ascending slice: its `⌈q·n⌉`-th element
/// (`T::default()` when empty).
fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Deterministic Poisson sample (Knuth's product-of-uniforms method) driven
/// by a splitmix64 stream — every PE derives the identical arrival count
/// from the same seed, which is what keeps the query scoring collective-free.
fn poisson_count(lambda: f64, seed: u64) -> u64 {
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut product = 1.0;
    let mut state = seed;
    loop {
        state = splitmix64(state.wrapping_add(k).wrapping_add(1));
        let uniform = (state >> 11) as f64 / (1u64 << 53) as f64;
        product *= uniform;
        if product <= limit || k > 100_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd_seq;

    type PeOutcome = (StreamReport, Vec<BatchReport>, Vec<(String, u64)>);

    fn drive(
        p: usize,
        batches: usize,
        config: StreamConfig,
        profile: StreamProfile,
    ) -> Vec<PeOutcome> {
        run_spmd_seq(p, move |comm| {
            let corpus = TextCorpus::new(500, 1.05, 42);
            let mut service = StreamService::new(config);
            for _ in 0..batches {
                service.ingest_batch(comm, &corpus, &profile);
            }
            (
                service.report(),
                service.batch_reports().to_vec(),
                service.serving_topk().to_vec(),
            )
        })
        .results
    }

    fn quick_config() -> StreamConfig {
        StreamConfig {
            k: 5,
            window: 4,
            sketch_capacity: 48,
            refresh_every: 3,
            words_per_batch: 300,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn incremental_interning_is_id_stable_and_global() {
        let out = run_spmd_seq(3, |comm| {
            let mut vocab = StreamVocab::new();
            let batch1: Vec<String> = match comm.rank() {
                0 => vec!["bee", "ant"],
                1 => vec!["cat", "ant"],
                _ => vec!["dog"],
            }
            .into_iter()
            .map(String::from)
            .collect();
            let ids1 = vocab.ingest(comm, &batch1);
            let snapshot: Vec<String> = (0..vocab.len())
                .map(|i| vocab.resolve(i as u64).unwrap().to_string())
                .collect();
            // Second batch: one genuinely new word plus repeats.
            let batch2: Vec<String> = vec!["emu".to_string(), "ant".to_string()];
            let ids2 = vocab.ingest(comm, &batch2);
            (ids1, snapshot, ids2, vocab.len())
        });
        // Batch-1 vocabulary is the sorted union: ant bee cat dog.
        let expect = ["ant", "bee", "cat", "dog"].map(String::from).to_vec();
        for (ids1, snapshot, ids2, len) in &out.results {
            assert_eq!(snapshot, &expect);
            // Existing ids survived the second ingest; emu was appended.
            assert_eq!(ids2, &vec![4, 0]);
            assert_eq!(*len, 5);
            assert!(!ids1.is_empty());
        }
        assert_eq!(out.results[0].0, vec![1, 0]);
        assert_eq!(out.results[1].0, vec![2, 0]);
        assert_eq!(out.results[2].0, vec![3]);
    }

    #[test]
    fn service_publishes_the_hot_word_and_reports_are_global() {
        let profile = StreamProfile::stationary();
        let results = drive(4, 7, quick_config(), profile);
        let (r0, b0, top0) = &results[0];
        let pes: Vec<&[BatchReport]> = results.iter().map(|(_, b, _)| b.as_slice()).collect();
        let world = world_report(r0, &pes);
        for (r, b, top) in &results {
            // Every field but this PE's own traffic is global.
            let traffic_free = |r: &StreamReport| StreamReport {
                total_bottleneck_words: 0,
                words_per_item: 0.0,
                total_replication_words: 0,
                ..r.clone()
            };
            assert_eq!(traffic_free(r), traffic_free(r0), "summary must agree");
            assert_eq!(top, top0, "published top-k must be identical");
            assert_eq!(b.len(), 7);
            let own: u64 = b.iter().map(|batch| batch.bottleneck_words).sum();
            assert_eq!(r.total_bottleneck_words, own);
            assert!(own <= world.total_bottleneck_words);
            // The fold is the same from any PE's summary.
            assert_eq!(world_report(r, &pes), world);
            for (mine, first) in b.iter().zip(b0.iter()) {
                assert_eq!(mine.refreshed, first.refreshed);
                assert_eq!(mine.staleness_items, first.staleness_items);
            }
        }
        // Zipf rank 1 ("the") dominates a stationary stream.
        assert_eq!(top0[0].0, "the");
        assert_eq!(r0.batches, 7);
        assert_eq!(r0.items_global, 7 * 4 * 300);
        assert!(r0.routed_queries > 0 && r0.answered_queries == r0.routed_queries);
        assert!(r0.words_per_item > 0.0 && world.words_per_item >= r0.words_per_item);
    }

    #[test]
    fn staleness_follows_the_refresh_cadence() {
        let profile = StreamProfile::stationary();
        let config = quick_config(); // refresh_every = 3, p = 2 below
        let results = drive(2, 6, config, profile);
        let (r, b, _) = &results[0];
        let per_batch_items = (config.words_per_batch * 2) as u64;
        // Batches 0 and 3 refresh: staleness 0.  Batches 2 and 5 are two
        // batches past their snapshot.
        let expect: Vec<u64> = vec![0, 1, 2, 0, 1, 2]
            .into_iter()
            .map(|lag| lag * per_batch_items)
            .collect();
        let got: Vec<u64> = b.iter().map(|br| br.staleness_items).collect();
        assert_eq!(got, expect);
        assert_eq!(r.max_staleness_items, 2 * per_batch_items);
        assert_eq!(r.p95_staleness_items, 2 * per_batch_items);
    }

    #[test]
    fn vocabulary_growth_decays_after_warmup() {
        let profile = StreamProfile::stationary();
        let results = drive(2, 8, quick_config(), profile);
        let (_, b, _) = &results[0];
        // Zipf traffic: almost the whole working vocabulary arrives in the
        // first batches; later batches intern close to nothing.
        let early: usize = b[..2].iter().map(|br| br.new_vocab).sum();
        let late: usize = b[6..].iter().map(|br| br.new_vocab).sum();
        assert!(
            early > 5 * late.max(1),
            "vocab growth did not decay: early {early}, late {late}"
        );
    }

    #[test]
    fn flash_crowd_reaches_the_published_topk() {
        let config = StreamConfig {
            refresh_every: 1, // publish every batch so the burst is visible
            ..quick_config()
        };
        let profile = StreamProfile {
            drift_every: 0,
            drift_step: 0,
            burst: Some(datagen::FlashCrowd {
                start: 3,
                len: 3,
                rank: 200, // a tail word that is nowhere near the top-k
                intensity: 0.5,
            }),
        };
        let results = drive(2, 6, config, profile);
        let (_, _, top) = &results[0];
        let corpus = TextCorpus::new(500, 1.05, 42);
        let burst_word = corpus.word_for_rank(200);
        assert!(
            top.iter().any(|(w, _)| w == burst_word),
            "burst word {burst_word:?} missing from published top-k {top:?}"
        );
    }

    #[test]
    #[should_panic(expected = "query_lambda must be finite and positive")]
    fn a_zero_query_rate_is_rejected() {
        StreamService::new(StreamConfig {
            query_lambda: 0.0,
            ..StreamConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "query_lambda must be finite and positive")]
    fn a_nan_query_rate_is_rejected() {
        StreamService::new(StreamConfig {
            query_lambda: f64::NAN,
            ..StreamConfig::default()
        });
    }
}
