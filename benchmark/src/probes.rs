//! Outside probes: each layer's kernels timed alone, from `benchmark/src`,
//! at the sizes the workloads use them at.  A probe that moves while its
//! workload's end-to-end metric does not says the layer is not on the
//! blocking path; see README.md for the layer → end-to-end predictions.
//!
//! All probes together take a couple of seconds.  Each reports the median
//! of a few repetitions.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use commsim::codec::{WordCodec, WordReader};
use commsim::{run_spmd, Communicator};
use datagen::{SkewedSelectionInput, StreamProfile, TextCorpus, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::sampling::{bernoulli_sample, bernoulli_sample_retain};
use seqkit::select::{floyd_rivest_select, partition_three_way_counts};
use seqkit::{DecayingTopK, Interner, SlidingWindowTopK, Treap};
use topk::frequent::dht;
use topk::select_threshold;

use crate::harness::Metrics;
use crate::stats::median;
use crate::workloads::derive_seed;

/// Seconds one call of `run` takes.
fn time_secs<T>(run: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let out = run();
    let secs = start.elapsed().as_secs_f64();
    black_box(out);
    secs
}

/// Median seconds of `reps` runs of `run`, each on a fresh `setup()` value
/// built outside the timer.
fn median_secs<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let state = black_box(setup());
            time_secs(|| run(state))
        })
        .collect();
    median(&samples)
}

pub fn run(seed: u64, out: &mut Metrics) {
    let select_input = selection_kernels(seed, out);
    let keys = counting_kernels(seed, out);
    treap_kernels(seed, out);
    stream_kernels(seed, out);
    codec(&keys, out);
    transport_and_collectives(out);
    topk_calls(&keys, out);
    baselines(&select_input, &keys, out);
}

/// The kernels under `select_local`.  Returns the two PEs' inputs.
fn selection_kernels(seed: u64, out: &mut Metrics) -> Vec<Vec<u64>> {
    let per_pe = 1 << 18;
    let generator = SkewedSelectionInput::paper_scale(derive_seed(seed, 20, 0));
    let mut input = Vec::new();
    out.set(
        "datagen.select_input_s",
        time_secs(|| input = generator.generate_all(2, per_pe)),
    );
    let data = &input[0];
    let n = data.len() as f64;
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let (lo, hi) = (sorted[sorted.len() / 3], sorted[2 * sorted.len() / 3]);

    let secs = median_secs(15, || (), |()| partition_three_way_counts(data, &lo, &hi));
    out.set("seqkit.partition_counts_ns_per_elem", secs * 1e9 / n);

    let (_, middle, _) = partition_three_way_counts(data, &lo, &hi);
    let mut rng = StdRng::seed_from_u64(seed);
    let secs = median_secs(
        9,
        || data.clone(),
        |mut v| bernoulli_sample_retain(&mut v, |e| (lo..=hi).contains(e), middle, 1e-3, &mut rng),
    );
    out.set("seqkit.sample_retain_ns_per_elem", secs * 1e9 / n);

    let secs = median_secs(
        9,
        || data.clone(),
        |mut v| {
            let k = v.len() / 2;
            floyd_rivest_select(&mut v, k, &mut rng)
        },
    );
    out.set("seqkit.floyd_rivest_ns_per_elem", secs * 1e9 / n);
    input
}

/// The kernels under `frequent_zipf`.  Returns one PE's Zipf keys.
fn counting_kernels(seed: u64, out: &mut Metrics) -> Vec<u64> {
    let n = 1 << 18;
    let zipf = Zipf::new(1 << 16, 1.0);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 21, 0));
    let mut keys = Vec::new();
    let secs = time_secs(|| keys = zipf.sample_many(n, &mut rng));
    out.set("datagen.zipf_sample_ns_per_elem", secs * 1e9 / n as f64);

    let secs = median_secs(
        5,
        || (),
        |()| seqkit::hashagg::count_keys(keys.iter().copied()),
    );
    out.set("seqkit.count_keys_ns_per_elem", secs * 1e9 / n as f64);

    let secs = median_secs(9, || (), |()| bernoulli_sample(&keys, 0.05, &mut rng));
    out.set("seqkit.bernoulli_sample_ns_per_elem", secs * 1e9 / n as f64);
    keys
}

/// The treap operations under one `bulkpq_churn` round, at its sizes.
fn treap_kernels(seed: u64, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 22, 0));
    let mut draw = |count: usize| -> Vec<(u64, u64)> {
        (0..count as u64)
            .map(|id| (rand::Rng::gen_range(&mut rng, 0..1u64 << 19), id))
            .collect()
    };
    let base: Treap<(u64, u64)> = draw(10_240).into_iter().collect();
    let arrivals = draw(512);

    let secs = median_secs(
        9,
        || base.clone(),
        |mut t| {
            for &item in &arrivals {
                t.insert(item);
            }
            t
        },
    );
    out.set("seqkit.treap_insert_ns", secs * 1e9 / arrivals.len() as f64);

    let secs = median_secs(9, || (), |()| base.smallest(512));
    out.set("seqkit.treap_smallest_us", secs * 1e6);

    let secs = median_secs(9, || base.clone(), |t| t.split_at_rank(512));
    out.set("seqkit.treap_split_ns", secs * 1e9);
}

/// The sequential work inside one `stream_service` batch.
fn stream_kernels(seed: u64, out: &mut Metrics) {
    let words = 2000;
    let corpus = TextCorpus::new(2000, 1.05, derive_seed(seed, 23, 0));
    let profile = StreamProfile::stationary();
    let batches = 24;

    let mut texts = Vec::with_capacity(batches);
    let secs: Vec<f64> = (0..batches)
        .map(|batch| {
            median_secs(
                1,
                || (),
                |()| texts.push(corpus.stream_batch_text(&profile, 0, batch, words)),
            )
        })
        .collect();
    out.set(
        "datagen.stream_batch_text_ns_per_word",
        median(&secs) * 1e9 / words as f64,
    );

    let mut tokens = Vec::with_capacity(batches);
    let secs: Vec<f64> = texts
        .iter()
        .map(|text| time_secs(|| tokens.push(workloads::tokenize(text))))
        .collect();
    out.set(
        "workloads.text.tokenize_ns_per_word",
        median(&secs) * 1e9 / words as f64,
    );

    let mut interner = Interner::new();
    let mut ids: Vec<Vec<u64>> = Vec::with_capacity(batches);
    let secs: Vec<f64> = tokens
        .iter()
        .map(|batch| {
            median_secs(
                1,
                || (),
                |()| ids.push(batch.iter().map(|w| interner.intern(w)).collect()),
            )
        })
        .collect();
    out.set(
        "seqkit.intern_ns_per_token",
        median(&secs) * 1e9 / words as f64,
    );

    let mut sliding: SlidingWindowTopK<u64> = SlidingWindowTopK::new(8, 64);
    let secs: Vec<f64> = ids
        .iter()
        .map(|batch| {
            let secs = median_secs(
                1,
                || (),
                |()| batch.iter().for_each(|&id| sliding.insert(id)),
            );
            sliding.advance();
            secs
        })
        .collect();
    out.set(
        "seqkit.sliding_insert_ns_per_item",
        median(&secs) * 1e9 / words as f64,
    );
    out.set(
        "seqkit.sliding_merged_us",
        median_secs(15, || (), |()| sliding.merged()) * 1e6,
    );

    let mut decaying: DecayingTopK<u64> = DecayingTopK::new(64, 0.9);
    let secs: Vec<f64> = ids
        .iter()
        .map(|batch| {
            let secs = median_secs(
                1,
                || (),
                |()| batch.iter().for_each(|&id| decaying.insert(id)),
            );
            decaying.advance();
            secs
        })
        .collect();
    out.set(
        "seqkit.decaying_insert_ns_per_item",
        median(&secs) * 1e9 / words as f64,
    );
}

/// `WordCodec` on the payload `dht::aggregate_counts` ships: 2^14 pairs.
fn codec(keys: &[u64], out: &mut Metrics) {
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .take(1 << 14)
        .map(|&k| (k, k ^ 0x5555))
        .collect();
    let words = pairs.encoded_len() as f64;
    let mut wire = Vec::with_capacity(pairs.encoded_len());
    let secs = median_secs(
        15,
        || (),
        |()| {
            wire.clear();
            pairs.encode(&mut wire);
        },
    );
    out.set("commsim.codec.encode_ns_per_word", secs * 1e9 / words);
    let secs = median_secs(
        15,
        || (),
        |()| Vec::<(u64, u64)>::decode(&mut WordReader::new(&wire)).expect("round trip"),
    );
    out.set("commsim.codec.decode_ns_per_word", secs * 1e9 / words);
}

/// What a probe repeats inside a threaded region.
type RegionBody<'a> = dyn Fn(&commsim::Comm) + Send + Sync + 'a;

/// Microseconds per iteration of `body`, timed on rank 0 inside one p = 2
/// threaded region (median of three timed blocks after a warm-up block).
fn per_call_us(iterations: usize, body: impl Fn(&commsim::Comm) + Send + Sync) -> f64 {
    let out = run_spmd(2, |comm| {
        (0..4)
            .map(|_| {
                comm.barrier();
                let start = Instant::now();
                for _ in 0..iterations {
                    body(comm);
                }
                start.elapsed().as_secs_f64() * 1e6 / iterations as f64
            })
            .collect::<Vec<f64>>()
    });
    median(&out.results[0][1..])
}

/// p = 2 threaded transport and collectives, 1-word and 256-word payloads:
/// the start-up latency `bulkpq_churn` and `stream_service` pay ~100 times
/// per op.
fn transport_and_collectives(out: &mut Metrics) {
    fn pingpong<T: commsim::CommData + Clone>(comm: &commsim::Comm, payload: &T) {
        if comm.rank() == 0 {
            comm.send(1, 1, payload.clone());
            let _: T = comm.recv(1, 2);
        } else {
            let _: T = comm.recv(0, 1);
            comm.send(0, 2, payload.clone());
        }
    }
    let wide = vec![7u64; 255]; // 255 words + the length prefix = 256 on the wire
    let n = 1000;
    out.set(
        "commsim.transport.pingpong_rtt_us",
        per_call_us(n, |c| pingpong(c, &7u64)),
    );
    out.set(
        "commsim.transport.pingpong_256w_rtt_us",
        per_call_us(n, |c| pingpong(c, &wide)),
    );
    out.set(
        "commsim.collectives.barrier_us",
        per_call_us(n, |c| c.barrier()),
    );
    let collectives: [(&str, &RegionBody); 6] = [
        ("allreduce_us", &|c| {
            black_box(c.allreduce_sum(1));
        }),
        ("allreduce_256w_us", &|c| {
            drop(black_box(c.allreduce_vec_sum(wide.clone())))
        }),
        ("allgather_us", &|c| drop(black_box(c.allgather(1u64)))),
        ("allgather_256w_us", &|c| {
            drop(black_box(c.allgather(wide.clone())))
        }),
        ("alltoall_us", &|c| {
            drop(black_box(c.alltoall(vec![1u64; c.size()])))
        }),
        ("alltoall_256w_us", &|c| {
            drop(black_box(c.alltoall(vec![wide.clone(); c.size()])))
        }),
    ];
    for (name, body) in collectives {
        out.set(&format!("commsim.collectives.{name}"), per_call_us(n, body));
    }
    let secs = median_secs(200, || (), |()| run_spmd(2, |_| ()));
    out.set("commsim.runner.empty_region_us", secs * 1e6);
}

/// The two distributed calls `stream_service`'s refresh is made of, and
/// `frequent_zipf`'s aggregation, each alone in a p = 2 region.
fn topk_calls(keys: &[u64], out: &mut Metrics) {
    let half = keys.len() / 2;
    let local_counts: Vec<HashMap<u64, u64>> = [&keys[..half], &keys[half..]]
        .iter()
        .map(|part| seqkit::hashagg::count_keys(part.iter().copied()))
        .collect();
    let run = run_spmd(2, |comm| {
        (0..7)
            .map(|_| {
                let mine = local_counts[comm.rank()].clone();
                comm.barrier();
                let start = Instant::now();
                black_box(dht::aggregate_counts(comm, mine));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<f64>>()
    });
    out.set("topk.dht.aggregate_ms", median(&run.results[0]));

    // A refresh selects k = 10 among ~2 × 64 aggregated window candidates.
    let items: Vec<Vec<Reverse<(u64, u64)>>> = (0..2u64)
        .map(|rank| {
            (0..64u64)
                .map(|i| Reverse((1000 - 7 * i - rank, 2 * i + rank)))
                .collect()
        })
        .collect();
    let us = per_call_us(200, |comm| {
        black_box(select_threshold(comm, &items[comm.rank()], 10, 0x5EED));
    });
    out.set("topk.select_threshold_ms", us / 1e3);
}

/// The same problems, plain single-threaded std: the numbers the
/// distributed ops are up against.
fn baselines(select_input: &[Vec<u64>], keys: &[u64], out: &mut Metrics) {
    let all: Vec<u64> = select_input.iter().flatten().copied().collect();
    let secs = median_secs(
        5,
        || all.clone(),
        |mut v| {
            let k = v.len() / 2;
            *v.select_nth_unstable(k).1
        },
    );
    out.set("baseline.std_select_ms", secs * 1e3);

    // frequent_zipf counts 2^19 keys per op: both halves of a 2^18 draw twice.
    let secs = median_secs(
        3,
        || (),
        |()| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &key in keys.iter().chain(keys) {
                *counts.entry(key).or_insert(0) += 1;
            }
            counts
        },
    );
    out.set("baseline.std_count_ms", secs * 1e3);
}
