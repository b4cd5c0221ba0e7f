//! Communication-efficient selection from unsorted input (paper §4.1).
//!
//! This is the paper's Algorithm 1 — a distributed Floyd–Rivest-style
//! selection.  Each level of recursion counts the PEs' elements against two
//! pivots, `a < ℓ`, `ℓ ≤ b ≤ r`, `c > r`, and recurses into the range that
//! holds the target rank; the pivots bracket the target's rank in a
//! Bernoulli sample of the level's input (expected size `max(96, ⌈√p⌉)` in
//! total — see `SAMPLE`) by one and a half binomial standard deviations.
//! Theorem 1 shows the algorithm needs neither randomly distributed input
//! nor any data redistribution: expected time
//! `O(n/p + β·min(√p·log_p n, n/p) + α log n)`.
//!
//! # Collective schedule
//!
//! One size all-reduction at the entry, then **one round trip per level**:
//! a reduction onto the sample root, PE `p − 1`, and that PE's broadcast.
//! A PE can draw the next level's sample before anyone knows where the
//! target fell, because if the target lies in the middle range the next
//! level's input *is* the middle.  So in one sweep over its buffer each PE
//! counts its elements below and inside the level's bracket and
//! Bernoulli-samples its middle range, at a rate every PE derives from
//! `(k, total)` and the bracket's shape alone (`sample_rate`); the counts
//! and the sample go up in one message.  The root sums the counts, and:
//!
//! * if the target lies in the middle, it reads the next level's pivots
//!   from the sample it holds — a sample of exactly the next level's input;
//! * if the middle was sent whole (its expected size was at most
//!   `base_case`), it answers on the spot: the base case takes no round
//!   trip of its own;
//! * if the target fell outside the bracket (a *miss*, ≈ 13 % of levels at
//!   1.5σ), the next level is *cold*: its bracket is open on both sides, so
//!   it only samples, and the root picks pivots from that sample.
//!
//! Its broadcast is one compact `Decision`: the two counts the PEs need to
//! narrow (the third is `total` less them), which sides of the next bracket
//! are closed, and the pivots or the answer as a coded block.  Each report
//! and each decision is one bit stream — its flags and δ-coded counts, then
//! its block — padded to a word once: a message costs
//! `⌈(header + block bits)/64⌉` words.  The first
//! level is cold.  A bracket that reaches an edge of its sample stays open
//! on that side (`ℓ = −∞` or `r = +∞`): no sample element separates the
//! outer range beyond it from the middle, so the target cannot miss there.
//! The `k = 1` and `k = total` shortcuts are one min/max all-reduction on
//! rank 0.
//!
//! The sample root is `p − 1` because the entry's all-reduction roots at
//! rank 0: each of the two PEs is the root of one tree and a leaf of the
//! other, so the busiest PE handles `2·⌈log₂ p⌉` messages per level (its
//! children's reports and its broadcast to them) and one at the entry.  A
//! level is two tree traversals on the critical path, `2·⌈log₂ p⌉` message
//! hops, where sampling and counting in separate round trips on two roots
//! took `4·⌈log₂ p⌉`.
//!
//! Every PE sorts its sample into a [`SortedBlock`] before it sends it, and
//! every hop of the reduction merges two blocks and adds the counts.  A merge
//! of disjoint blocks is associative and commutative, as [`ReduceOp`] asks,
//! so the root receives the sorted union whatever order the tree combines
//! the shares in, and it reads a pivot or the answer by its index.  A block
//! of `u64` keys is Rice-coded value gaps and packed tags (the layout is on
//! [`SortedBlock`]); on §10.1's Zipf input that takes a selection's
//! bottleneck words to about an eighth of what the two-word `(value, tag)`
//! pairs cost (EXPERIMENTS.md).  Other keys write their pairs' words into
//! the stream ([`SelectKey`]).
//!
//! The survivor count of the next level is one of the counts the root has
//! just broadcast, so it is carried through the loop and never reduced
//! again, and the tie-break tag is the packed `(rank, local index)` word of
//! [`tie_break_offset`], which orders like the global index without the
//! prefix sum that would compute one.  There is no level cap: a pivot is an
//! input element and the outer ranges exclude it, and a closed side has a
//! sample element beyond it, so every level after a cold one shrinks the
//! input.
//!
//! Every entry point runs that one recursion over `local` itself: element
//! `i` carries the implicit tag `offset + i` until the first narrowing, so
//! only survivors are ever copied with their tags.  Each level reads its
//! input once — a level with a pivot counts, samples and copies out its
//! middle range in one branch-free sweep, comparing `u64` pairs as one
//! `u128` ([`SelectKey::pair_lt`]) — and only a miss costs a second,
//! filtering pass (`select_recursive`).
//! [`select_k_smallest`] returns the *threshold* (the element of global rank
//! `k` under a tie-broken total order) and each PE's local part of the
//! selected set, whose sizes sum to exactly `k` across all PEs;
//! [`select_threshold`] returns the threshold alone and skips the filter
//! that materialises the set.

use commsim::codec::{decode_error, BitCodec, BitReader, BitSink};
use commsim::{CommResult, Communicator, ReduceOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqkit::sampling::bernoulli_sample_with;
use seqkit::select::{compact_filter, partition_counts_sample_compact};

use crate::util::{global_max, global_min, tie_break_offset, SelectKey, SortedBlock};

/// Result of a distributed unsorted selection.
#[derive(Debug, Clone)]
pub struct UnsortedSelectionResult<T> {
    /// The element of global rank `k` (1-based) under the tie-broken order —
    /// the selection "threshold".
    pub threshold: T,
    /// This PE's elements among the `k` globally smallest.  The lengths of
    /// these vectors over all PEs sum to exactly `k`.
    pub local_selected: Vec<T>,
    /// Number of recursion levels the algorithm used.  A level is one round
    /// trip to the sample root (or the `k = 1` / `k = total` all-reduction
    /// that ends a selection at an extreme rank): the cold first level, about
    /// `ln(n / 3m) / ln(m / (1.5·√m + 2))` narrowing levels for a level
    /// sample of `m` elements (5.8× per level at `m = 96`), the last of which
    /// answers, and one more cold level per miss.
    pub recursion_levels: usize,
}

/// Floor of the expected level sample (elements in total, over all PEs); the
/// paper's `|S| = √p` takes over beyond p = 9 216.
///
/// A level costs one round trip and the `m` tagged elements the sample root
/// collects, and keeps the share `f(m) = (c·√m + 2)/m` of its input at
/// `q = ½`, a `√m/c` narrowing.  A coded `u64` element costs about
/// `log₂(span/m) + 3` bits for its value gap plus its packed tag
/// ([`SortedBlock`]): nearly linear in `m`, so for a fixed product of
/// narrowings the words are still smallest when every level draws the same
/// sample (AM–GM).  Between sample sizes the trade is start-ups for words:
/// doubling `m` costs a level a little under twice the words (each value
/// gap loses a bit) and divides the levels by `ln(√(2m)/c) / ln(√m/c)`, so
/// each doubling buys fewer start-ups than the one before.  The sweep in
/// EXPERIMENTS.md ("One round trip per §4.1 level") took the `m` past which
/// start-ups barely fall: `m = 128` saves 4 % of them for 18 % more words,
/// `m = 64` costs 15 % more.  At 1.5σ, `m = 96` narrows 5.8× per level
/// (`f = 0.17`).
const SAMPLE: usize = 96;

/// Half-width of the pivot bracket in binomial standard deviations of the
/// target's sample rank — what the paper's `Δ = p^{1/4+δ}` is at `|S| = √p`.
/// 1.5σ misses the target in ≈ 13 % of two-sided levels (a miss costs one
/// cold level: a sample of the outer range and no narrowing); 2σ misses in
/// 4.6 % but keeps 29 % more survivors on every level.  Narrower brackets
/// miss more often and saved no start-up over three seeds at p = 2
/// (1.25σ: −0.3 … +2.3 %, 1σ: +2.6 … +3.7 %; EXPERIMENTS.md, "One round
/// trip per §4.1 level").
const BRACKET_SIGMAS: f64 = 1.5;

/// A level sends its middle range whole, and the root answers on the spot,
/// once the middle's expected size is at most this many level samples
/// ([`base_case`]): one round trip earlier than sampling that middle.  Two
/// samples' worth take 4 % more start-ups at p = 2 and 17 % more at p = 64;
/// four save 1–2 % of them for up to 3 % more words (EXPERIMENTS.md, "One
/// round trip per §4.1 level").
const BASE_CASE_SAMPLES: usize = 3;

/// Expected total sample size of one level on `p` PEs.
fn level_sample(p: usize) -> usize {
    SAMPLE.max((p as f64).sqrt().ceil() as usize)
}

/// Largest expected middle range a level sends whole on `p` PEs.
fn base_case(p: usize) -> usize {
    BASE_CASE_SAMPLES * level_sample(p)
}

/// Sample ranks (0-based, `lo ≤ hi < m`) of the two pivots bracketing the
/// quantile `q` in a sample of `m ≥ 1` elements: `q·m ± Δ` with
/// `Δ = BRACKET_SIGMAS·√(m·q·(1−q)) + 1`, clamped to the sample.
fn bracket(m: usize, q: f64) -> (usize, usize) {
    let pos = q * m as f64;
    let delta = BRACKET_SIGMAS * (m as f64 * q * (1.0 - q)).sqrt() + 1.0;
    let lo = ((pos - delta).floor().max(0.0) as usize).min(m - 1);
    let hi = ((pos + delta).ceil() as usize).min(m - 1);
    (lo, hi)
}

/// The pivots of a level; `None` is an open side (`ℓ = −∞` or `r = +∞`).
/// Open on both sides, the whole input is the middle: a cold level.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bracket<T> {
    lo: Option<(T, u64)>,
    hi: Option<(T, u64)>,
}

impl<T: SelectKey> Bracket<T> {
    /// The bracket of a cold level.
    fn open() -> Self {
        Bracket { lo: None, hi: None }
    }

    /// The bracket of global rank `k` of `total` in `sample`, a sorted
    /// Bernoulli sample of those `total` elements: the pivots at
    /// [`bracket`]'s sample ranks, a side that reaches the sample's edge
    /// left open.
    fn pick(sample: &[(T, u64)], k: usize, total: usize) -> Self {
        if sample.is_empty() {
            return Bracket::open();
        }
        let (lo, hi) = bracket(sample.len(), k as f64 / total as f64);
        Bracket {
            lo: (lo > 0).then(|| sample[lo].clone()),
            hi: (hi + 1 < sample.len()).then(|| sample[hi].clone()),
        }
    }

    /// Whether neither side is closed: a cold level's bracket.
    fn is_open(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }
}

/// Bernoulli rate at which a level samples its middle range: an expected
/// [`level_sample`] elements of its expected size, or the whole middle once
/// that size is at most [`base_case`].
///
/// Every PE derives it from `(k, total)` and which sides of the level's
/// bracket are closed, so it costs no word: the expected size is `total`
/// times the bracket's nominal share, the quantiles `q ± Δ/m` of
/// [`bracket`] at the nominal sample size `m`, cut at 0 and 1, with an open
/// side reaching its edge.
fn sample_rate(p: usize, k: usize, total: usize, lo_closed: bool, hi_closed: bool) -> f64 {
    let m = level_sample(p) as f64;
    let q = k as f64 / total as f64;
    let delta = (BRACKET_SIGMAS * (m * q * (1.0 - q)).sqrt() + 1.0) / m;
    let below = if lo_closed { (q - delta).max(0.0) } else { 0.0 };
    let through = if hi_closed { (q + delta).min(1.0) } else { 1.0 };
    let middle = (through - below) * total as f64;
    if middle <= base_case(p) as f64 {
        1.0
    } else {
        m / middle
    }
}

/// The PE that collects the levels' reports and decides: the last one,
/// because the entry's all-reduction roots at the first (module docs).
fn sample_root(p: usize) -> usize {
    p - 1
}

/// What a PE sends up the reduction tree after a level's sweep, and what
/// each hop combines: the elements below the bracket and inside it, and a
/// sorted Bernoulli sample of the middle range.
///
/// On the wire it is one bit stream, `[δ(below) · δ(middle) · sample |
/// padding]`: the two [`BitSink::number`] codes, then the sample's block
/// ([`SortedBlock`]), padded once at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LevelReport<T> {
    below: u64,
    middle: u64,
    sample: SortedBlock<T>,
}

impl<T: SelectKey> LevelReport<T> {
    /// The report of the union of two disjoint sets of elements.
    fn merge(&self, other: &Self) -> Self {
        LevelReport {
            below: self.below + other.below,
            middle: self.middle + other.middle,
            sample: self.sample.merge(&other.sample),
        }
    }
}

impl<T: SelectKey> BitCodec for LevelReport<T> {
    fn write(&self, bits: &mut impl BitSink) {
        bits.number(self.below);
        bits.number(self.middle);
        self.sample.write(bits);
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        Ok(LevelReport {
            below: bits.number()?,
            middle: bits.number()?,
            sample: SortedBlock::read(bits)?,
        })
    }
}

/// The sample root's broadcast after a level.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decision<T> {
    /// The element of the target rank: the middle was sent whole and held
    /// it.
    Answer((T, u64)),
    /// The global counts below and inside the level's bracket, and the
    /// bracket of the next level — open on both sides if it is cold, or if
    /// it ends on a shortcut or sends its whole input.
    Next {
        below: u64,
        middle: u64,
        bracket: Bracket<T>,
    },
}

/// Bits of a [`Decision`]'s flags: answer, lower side closed, upper side
/// closed.
const DECISION_FLAGS: u32 = 3;

impl<T: SelectKey> Decision<T> {
    /// The flags and, unless this is an answer, the counts.
    fn header(&self) -> (u64, Option<(u64, u64)>) {
        match self {
            Decision::Answer(_) => (1, None),
            Decision::Next {
                below,
                middle,
                bracket,
            } => {
                let flags =
                    u64::from(bracket.lo.is_some()) << 1 | u64::from(bracket.hi.is_some()) << 2;
                (flags, Some((*below, *middle)))
            }
        }
    }

    /// The carried pairs as one block: the answer or the closed sides'
    /// pivots.
    fn carried(&self) -> SortedBlock<T> {
        SortedBlock::new(match self {
            Decision::Answer(answer) => vec![answer.clone()],
            Decision::Next { bracket, .. } => {
                bracket.lo.iter().chain(&bracket.hi).cloned().collect()
            }
        })
    }
}

/// A [`Decision`] with its carried block built once: what the root
/// broadcasts, so no hop of the broadcast tree rebuilds the block to size
/// or to write its message.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Decided<T> {
    decision: Decision<T>,
    carried: SortedBlock<T>,
}

impl<T: SelectKey> From<Decision<T>> for Decided<T> {
    fn from(decision: Decision<T>) -> Self {
        let carried = decision.carried();
        Decided { decision, carried }
    }
}

/// `[flags (3 bits) · δ(below) · δ(middle) · carried | padding]`, the counts
/// absent for an answer and the carried pairs one [`SortedBlock`], all in
/// one bit stream: a decision takes its bits in whole words once, where the
/// counts and two pivots as plain `Option` pairs took nine words.
impl<T: SelectKey> BitCodec for Decided<T> {
    fn write(&self, bits: &mut impl BitSink) {
        let (flags, counts) = self.decision.header();
        bits.put(flags, DECISION_FLAGS);
        if let Some((below, middle)) = counts {
            bits.number(below);
            bits.number(middle);
        }
        self.carried.write(bits);
    }

    fn read(bits: &mut BitReader) -> CommResult<Self> {
        let flags = bits.take(DECISION_FLAGS)?;
        let counts = if flags == 1 {
            None
        } else if flags & 1 == 0 {
            Some((bits.number()?, bits.number()?))
        } else {
            return Err(decode_error::<Self>());
        };
        let carried = SortedBlock::<T>::read(bits)?;
        let mut pairs = carried.pairs().to_vec().into_iter();
        let (lo_closed, hi_closed) = (flags & 2 != 0, flags & 4 != 0);
        let expected = if counts.is_none() {
            1
        } else {
            usize::from(lo_closed) + usize::from(hi_closed)
        };
        if pairs.len() != expected {
            return Err(decode_error::<Self>());
        }
        let decision = match counts {
            None => Decision::Answer(pairs.next().expect("one carried pair")),
            Some((below, middle)) => Decision::Next {
                below,
                middle,
                bracket: Bracket {
                    lo: lo_closed.then(|| pairs.next()).flatten(),
                    hi: hi_closed.then(|| pairs.next()).flatten(),
                },
            },
        };
        Ok(Decided { decision, carried })
    }
}

/// The range of a level that holds the target rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Range {
    Below,
    Middle,
    Above,
}

/// Where global rank `k` of `total` falls given the counts below and inside
/// the bracket: its range, its rank in that range and the range's size.
fn locate(k: usize, total: usize, below: usize, middle: usize) -> (Range, usize, usize) {
    if k <= below {
        (Range::Below, k, below)
    } else if k <= below + middle {
        (Range::Middle, k - below, middle)
    } else {
        (Range::Above, k - below - middle, total - below - middle)
    }
}

/// The sample root's decision on the summed `report` of a level that
/// selects global rank `k` of `total`.
fn decide<T: SelectKey>(report: LevelReport<T>, p: usize, k: usize, total: usize) -> Decision<T> {
    let (below, middle) = (report.below as usize, report.middle as usize);
    let (range, next_k, next_total) = locate(k, total, below, middle);
    let sample = report.sample.pairs();
    if range == Range::Middle && sample.len() == middle {
        return Decision::Answer(sample[next_k - 1].clone());
    }
    // A miss, a shortcut or a small remainder: the next level's bracket is
    // open on both sides.
    let warm =
        range == Range::Middle && next_k != 1 && next_k != next_total && next_total > base_case(p);
    Decision::Next {
        below: report.below,
        middle: report.middle,
        bracket: if warm {
            Bracket::pick(sample, next_k, next_total)
        } else {
            Bracket::open()
        },
    }
}

/// A level's input on this PE.  Until the first narrowing it is `local`
/// itself, element `i` carrying the implicit tag `offset + i`; only the
/// survivors of a narrowing are ever stored with their tags.
enum Input<'a, T> {
    Local { local: &'a [T], offset: u64 },
    Tagged(Vec<(T, u64)>),
}

impl<T: SelectKey> Input<'_, T> {
    fn len(&self) -> usize {
        match self {
            Input::Local { local, .. } => local.len(),
            Input::Tagged(s) => s.len(),
        }
    }

    /// The smallest tagged element, if any.
    fn min(&self) -> Option<(T, u64)> {
        match self {
            Input::Local { local, offset } => local.iter().zip(*offset..).min(),
            Input::Tagged(s) => s.iter().map(|(v, t)| (v, *t)).min(),
        }
        .map(|(v, t)| (v.clone(), t))
    }

    /// The largest tagged element, if any.
    fn max(&self) -> Option<(T, u64)> {
        match self {
            Input::Local { local, offset } => local.iter().zip(*offset..).max(),
            Input::Tagged(s) => s.iter().map(|(v, t)| (v, *t)).max(),
        }
        .map(|(v, t)| (v.clone(), t))
    }

    /// The level's sweep against `bracket` ([`sweep`]).
    fn sweep(
        &self,
        bracket: &Bracket<T>,
        rho: f64,
        rng: &mut StdRng,
        middle: &mut Vec<(T, u64)>,
    ) -> ((usize, usize, usize), Vec<(T, u64)>) {
        match self {
            Input::Local { local, offset } => sweep(
                local,
                |i, v| (v, offset + i as u64),
                bracket,
                rho,
                rng,
                middle,
            ),
            Input::Tagged(s) => sweep(s, |_, (v, t)| (v, *t), bracket, rho, rng, middle),
        }
    }

    /// Append the elements of `range` of `bracket`, an outer range, to `out`.
    fn narrow_into(&self, bracket: &Bracket<T>, range: Range, out: &mut Vec<(T, u64)>) {
        match self {
            Input::Local { local, offset } => {
                narrow_into(local, |i, v| (v, offset + i as u64), bracket, range, out)
            }
            Input::Tagged(s) => narrow_into(s, |_, (v, t)| (v, *t), bracket, range, out),
        }
    }
}

/// One level's pass over `data`, whose element `i` is the pair `pair(i, e)`:
/// a cold level only samples it; a level with a pivot counts it against
/// `bracket`, samples the middle range and appends that range to `middle`,
/// in one branch-free sweep ([`partition_counts_sample_compact`]).  Returns
/// the three range sizes and the sample.
fn sweep<T: SelectKey, E>(
    data: &[E],
    pair: impl Fn(usize, &E) -> (&T, u64),
    bracket: &Bracket<T>,
    rho: f64,
    rng: &mut StdRng,
    middle: &mut Vec<(T, u64)>,
) -> ((usize, usize, usize), Vec<(T, u64)>) {
    let emit = |i, e: &E| {
        let (v, t) = pair(i, e);
        (v.clone(), t)
    };
    let never = |_, _: &E| false;
    match (&bracket.lo, &bracket.hi) {
        (None, None) => (
            (0, data.len(), 0),
            bernoulli_sample_with(data, rho, rng, emit),
        ),
        (Some((lo, lo_tag)), Some((hi, hi_tag))) => partition_counts_sample_compact(
            data,
            |i, e| T::pair_lt(pair(i, e), (lo, *lo_tag)),
            |i, e| T::pair_lt((hi, *hi_tag), pair(i, e)),
            emit,
            rho,
            rng,
            middle,
        ),
        (Some((lo, lo_tag)), None) => partition_counts_sample_compact(
            data,
            |i, e| T::pair_lt(pair(i, e), (lo, *lo_tag)),
            never,
            emit,
            rho,
            rng,
            middle,
        ),
        (None, Some((hi, hi_tag))) => partition_counts_sample_compact(
            data,
            never,
            |i, e| T::pair_lt((hi, *hi_tag), pair(i, e)),
            emit,
            rho,
            rng,
            middle,
        ),
    }
}

/// Append the elements of `data` in `range` of `bracket`, an outer range
/// beyond a closed side, to `out` in one branch-free stable filter; element
/// `i` is the pair `pair(i, e)`.
fn narrow_into<T: SelectKey, E>(
    data: &[E],
    pair: impl Fn(usize, &E) -> (&T, u64),
    bracket: &Bracket<T>,
    range: Range,
    out: &mut Vec<(T, u64)>,
) {
    let emit = |i, e: &E| {
        let (v, t) = pair(i, e);
        (v.clone(), t)
    };
    match (range, &bracket.lo, &bracket.hi) {
        (Range::Below, Some((lo, tag)), _) => {
            compact_filter(data, |i, e| T::pair_lt(pair(i, e), (lo, *tag)), emit, out)
        }
        (Range::Above, _, Some((hi, tag))) => {
            compact_filter(data, |i, e| T::pair_lt((hi, *tag), pair(i, e)), emit, out)
        }
        _ => unreachable!("an open side has no elements beyond it"),
    }
}

/// Select the `k` globally smallest elements of the distributed input.
///
/// `local` is this PE's part of the input; `k` counts over the union of all
/// PEs' parts and must satisfy `1 ≤ k ≤ Σ|local|`.  Ties are broken by
/// `(rank, local index)`, so exactly `k` elements are selected in total.
pub fn select_k_smallest<C, T>(
    comm: &C,
    local: &[T],
    k: usize,
    seed: u64,
) -> UnsortedSelectionResult<T>
where
    C: Communicator,
    T: SelectKey,
{
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    let ((threshold, tag), offset, levels) = threshold_tagged(comm, local, total, k, seed);
    // The selected set is cut from `local` and the implicit tags, in one
    // branch-free filter.
    let mut local_selected = Vec::new();
    compact_filter(
        local,
        |i, v| !T::pair_lt((&threshold, tag), (v, offset + i as u64)),
        |_, v| v.clone(),
        &mut local_selected,
    );
    UnsortedSelectionResult {
        threshold,
        local_selected,
        recursion_levels: levels,
    }
}

/// The selection behind every entry point: the tie-broken element of global
/// rank `k` among `total = Σ|local|` elements, this PE's tie-break offset and
/// the number of levels used.
fn threshold_tagged<C, T>(
    comm: &C,
    local: &[T],
    total: usize,
    k: usize,
    seed: u64,
) -> ((T, u64), u64, usize)
where
    C: Communicator,
    T: SelectKey,
{
    assert!(k >= 1, "k must be at least 1");
    assert!(k <= total, "k = {k} exceeds the global input size {total}");

    // Make the order unique: (value, packed (rank, local index)).
    let offset = tie_break_offset(comm.rank(), comm.size(), local.len());
    let input = Input::Local { local, offset };

    let mut rng =
        StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let mut levels = 0usize;
    let threshold = select_recursive(comm, input, total, k, &mut rng, &mut levels);
    (threshold, offset, levels)
}

/// Select only the threshold (the element of global rank `k`), without
/// materialising the selected set.
///
/// This is [`select_k_smallest`] minus its final filter over `local`: the
/// same recursion, hence the same RNG stream, levels and messages (pinned by
/// `threshold_only_path_is_bit_identical_to_the_full_path` below), so the
/// fig6 words/PE columns apply to both entry points.
pub fn select_threshold<C, T>(comm: &C, local: &[T], k: usize, seed: u64) -> T
where
    C: Communicator,
    T: SelectKey,
{
    let total = comm.allreduce_sum(local.len() as u64) as usize;
    threshold_tagged(comm, local, total, k, seed).0 .0
}

/// Core recursion of Algorithm 1 on tie-broken keys: one round trip to the
/// [`sample_root`] per level (module docs).
///
/// The input starts as `local` with its implicit tags ([`Input`]) and is
/// read once per level.  A cold level only samples it.  A level with a pivot
/// runs one branch-free sweep ([`partition_counts_sample_compact`]) that
/// counts it against the bracket, samples the middle range and copies that
/// range into a spare buffer.  After a hit (the target in the middle, ≈ 87 %
/// of such levels) the spare buffer is the next level's input, with no
/// second pass; after a miss one branch-free filter ([`compact_filter`])
/// copies the outer range there instead.  So the tagged pairs are only ever
/// survivors, and the two buffers swap: each is reserved once, at the size
/// of the input it first receives a narrowing of, and never grows.  The
/// sweep draws the RNG exactly as collecting the middle and calling
/// `bernoulli_sample` on it would (pinned by
/// `one_sweep_level_is_bit_identical_to_the_collecting_reference` below).
///
/// `total` is the agreed global size of the input on entry; the chosen
/// range's agreed count becomes the next level's `total`.
fn select_recursive<C, T>(
    comm: &C,
    mut input: Input<'_, T>,
    mut total: usize,
    mut k: usize,
    rng: &mut StdRng,
    levels: &mut usize,
) -> (T, u64)
where
    C: Communicator,
    T: SelectKey,
{
    let p = comm.size();
    let root = sample_root(p);
    let merge = ReduceOp::custom(LevelReport::merge);
    let mut bracket = Bracket::open();
    let mut spare = Vec::new();
    loop {
        *levels += 1;
        debug_assert!(k >= 1 && k <= total);

        // Cheap base cases: the extremes need only a single reduction.
        if k == 1 {
            return global_min(comm, input.min()).expect("k = 1 requires a non-empty input");
        }
        if k == total {
            return global_max(comm, input.max()).expect("k = total requires a non-empty input");
        }

        let rho = sample_rate(p, k, total, bracket.lo.is_some(), bracket.hi.is_some());
        spare.clear();
        if !bracket.is_open() {
            spare.reserve(input.len());
        }
        let ((below, middle, _), sample) = input.sweep(&bracket, rho, rng, &mut spare);
        let report = LevelReport {
            below: below as u64,
            middle: middle as u64,
            sample: SortedBlock::new(sample),
        };
        let decided = comm
            .reduce(root, report, &merge)
            .map(|all| Decided::from(decide(all, p, k, total)));
        let (below, middle, next) = match comm.broadcast(root, decided).decision {
            Decision::Answer(answer) => return answer,
            Decision::Next {
                below,
                middle,
                bracket,
            } => (below as usize, middle as usize, bracket),
        };
        let (range, next_k, next_total) = locate(k, total, below, middle);
        // A cold level's middle is its whole input, which stays.
        if !bracket.is_open() {
            if range != Range::Middle {
                spare.clear();
                input.narrow_into(&bracket, range, &mut spare);
            }
            spare = match std::mem::replace(&mut input, Input::Tagged(spare)) {
                Input::Tagged(s) => s,
                Input::Local { .. } => Vec::new(),
            };
        }
        (k, total, bracket) = (next_k, next_total, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::check_bit_stream;
    use commsim::codec::BitWriter;
    use commsim::{run_on, run_spmd, run_spmd_seq, Backend, WordCodec, WordReader, World};
    use rand::Rng;
    use seqkit::sampling::bernoulli_sample;

    /// The reference the one-sweep level is pinned against: the same
    /// schedule, but each level counts its ranges, collects the middle range
    /// into a buffer of its own and samples that buffer with
    /// `bernoulli_sample` — the sweeps the production level fuses into one.
    /// Thresholds, selected sets, levels and metered traffic must come out
    /// identical.
    ///
    /// It also keeps a [`Trail`] of the levels.
    fn select_recursive_collecting<C, T>(
        comm: &C,
        mut s: Vec<(T, u64)>,
        mut total: usize,
        mut k: usize,
        rng: &mut StdRng,
        levels: &mut usize,
        trail: &mut Trail,
    ) -> (T, u64)
    where
        C: Communicator,
        T: SelectKey,
    {
        let p = comm.size();
        let merge = ReduceOp::custom(LevelReport::merge);
        let mut bracket = Bracket::open();
        loop {
            *levels += 1;
            if k == 1 {
                return global_min(comm, s.iter().min().cloned()).unwrap();
            }
            if k == total {
                return global_max(comm, s.iter().max().cloned()).unwrap();
            }
            let rho = sample_rate(p, k, total, bracket.lo.is_some(), bracket.hi.is_some());
            let below = match &bracket.lo {
                Some(lo) => s.iter().filter(|e| *e < lo).count(),
                None => 0,
            };
            let contains = |e: &&(T, u64)| {
                bracket.lo.as_ref().is_none_or(|lo| lo <= *e)
                    && bracket.hi.as_ref().is_none_or(|hi| *e <= hi)
            };
            let middle: Vec<(T, u64)> = s.iter().filter(contains).cloned().collect();
            let sample = bernoulli_sample(&middle, rho, rng);
            trail.samples.push(sample.len());
            trail
                .closed_sides
                .push((bracket.lo.is_some(), bracket.hi.is_some()));
            let report = LevelReport {
                below: below as u64,
                middle: middle.len() as u64,
                sample: SortedBlock::new(sample),
            };
            let decided = comm
                .reduce(sample_root(p), report, &merge)
                .map(|all| Decided::from(decide(all, p, k, total)));
            let decision = comm.broadcast(sample_root(p), decided).decision;
            let (below, middle_total, next) = match decision {
                Decision::Answer(answer) => {
                    trail.answered = true;
                    return answer;
                }
                Decision::Next {
                    below,
                    middle,
                    bracket,
                } => (below as usize, middle as usize, bracket),
            };
            let (range, next_k, next_total) = locate(k, total, below, middle_total);
            s = match (range, &bracket.lo, &bracket.hi) {
                (Range::Middle, _, _) => middle,
                (Range::Below, Some(lo), _) => s.into_iter().filter(|e| e < lo).collect(),
                (Range::Above, _, Some(hi)) => s.into_iter().filter(|e| e > hi).collect(),
                _ => unreachable!("an open side has no elements beyond it"),
            };
            trail.closed += usize::from(bracket.lo.is_some() || bracket.hi.is_some());
            trail.misses += usize::from(range != Range::Middle);
            (k, total, bracket) = (next_k, next_total, next);
        }
    }

    /// What the collecting reference records of a selection's levels.
    #[derive(Debug, Clone, Default)]
    struct Trail {
        /// Levels whose bracket has a closed side.
        closed: usize,
        /// Closed levels whose target fell outside the bracket.  Only a
        /// closed side can be missed (an open side has nothing beyond it),
        /// so every level that leaves for an outer range is one.
        misses: usize,
        /// This PE's sample size on each level that sent a report.
        samples: Vec<usize>,
        /// Which sides of the bracket were closed on each such level.
        closed_sides: Vec<(bool, bool)>,
        /// Whether the root answered from a whole middle.
        answered: bool,
    }

    /// `select_k_smallest` rebuilt on the collecting reference recursion;
    /// also returns the reference's [`Trail`].
    fn select_k_smallest_collecting<C, T>(
        comm: &C,
        local: &[T],
        k: usize,
        seed: u64,
    ) -> (UnsortedSelectionResult<T>, Trail)
    where
        C: Communicator,
        T: SelectKey,
    {
        // Mirror the real entry point's up-front size check so the metered
        // traffic of the two variants is comparable one-to-one.
        let total = comm.allreduce_sum(local.len() as u64) as usize;
        assert!(k >= 1 && k <= total);
        let offset = tie_break_offset(comm.rank(), comm.size(), local.len());
        let tagged: Vec<(T, u64)> = local.iter().cloned().zip(offset..).collect();
        let mut rng =
            StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let (mut levels, mut trail) = (0usize, Trail::default());
        let threshold_tagged =
            select_recursive_collecting(comm, tagged, total, k, &mut rng, &mut levels, &mut trail);
        let local_selected: Vec<T> = local
            .iter()
            .enumerate()
            .filter(|&(i, v)| (v, offset + i as u64) <= (&threshold_tagged.0, threshold_tagged.1))
            .map(|(_, v)| v.clone())
            .collect();
        let result = UnsortedSelectionResult {
            threshold: threshold_tagged.0,
            local_selected,
            recursion_levels: levels,
        };
        (result, trail)
    }

    /// Input shapes of the two identity tests, 2^16 elements each: large
    /// enough that a selection away from the extreme ranks runs at least two
    /// narrowing levels before the base case.
    fn identity_shapes(seed: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
        vec![
            ("uniform", random_parts(4, 1 << 14, 1 << 40, seed)),
            ("dupes", random_parts(4, 1 << 14, 7, seed + 12)),
            (
                "skewed",
                (0..4)
                    .map(|r| {
                        if r == 0 {
                            (0..40_000u64).collect()
                        } else {
                            (1_000_000..1_008_512u64).collect()
                        }
                    })
                    .collect(),
            ),
            (
                "empty_pe",
                vec![
                    vec![],
                    (0..1 << 15).collect(),
                    vec![],
                    (1 << 15..1 << 16).collect(),
                ],
            ),
        ]
    }

    /// Ranks the identity tests select: the extremes (base-case shortcuts
    /// and their prediction by the previous level) and five ranks away from
    /// them, which must narrow at least twice.
    fn identity_ranks(n: usize) -> [(usize, usize); 9] {
        let near = n / 100;
        [
            (1, 0),
            (2, 1),
            (near, 2),
            (n / 32, 2),
            (n / 3, 2),
            (n / 2, 2),
            (n - near, 2),
            (n - 1, 1),
            (n, 0),
        ]
    }

    /// The one-sweep count-and-sample level must leave everything the
    /// driver can observe — threshold, selected sets, recursion depth and
    /// per-PE metered words/messages (the fig6 words/PE columns) —
    /// bit-identical to the collecting reference, across input shapes, PE
    /// counts, ranks and seeds.  Besides the `u64` shapes: §10.1's
    /// paper-scale Zipf input, whose ranks `n/100` to `n/16` all hold value
    /// 1, so the pivots of `k = n/100` and `n/32` share one value and their
    /// tags decide every comparison; and `String` keys, which take the
    /// default tuple order, with an empty PE.
    #[test]
    fn one_sweep_level_is_bit_identical_to_the_collecting_reference() {
        for (name, parts) in identity_shapes(11) {
            assert_matches_the_collecting_reference(name, &parts);
        }
        let paper = datagen::SkewedSelectionInput::paper_scale(11).generate_all(2, 1 << 15);
        let mut sorted: Vec<u64> = paper.iter().flatten().copied().collect();
        sorted.sort_unstable();
        let n = sorted.len();
        assert_eq!(
            (sorted[n / 100 - 1], sorted[n / 16]),
            (1, 1),
            "one tie group"
        );
        assert_matches_the_collecting_reference("paper_scale", &paper);
        let strings: Vec<Vec<String>> = random_parts(3, 1 << 14, 1 << 40, 23)
            .into_iter()
            .enumerate()
            .map(|(rank, part)| match rank {
                1 => Vec::new(),
                _ => part.into_iter().map(|v| format!("key-{v}")).collect(),
            })
            .collect();
        assert_matches_the_collecting_reference("strings_and_an_empty_pe", &strings);
    }

    /// Every [`identity_ranks`] selection of `parts`, on two seeds, through
    /// `select_k_smallest` and the collecting reference: the same
    /// thresholds, selected sets, levels and metered traffic on every PE.
    fn assert_matches_the_collecting_reference<T>(name: &str, parts: &[Vec<T>])
    where
        T: SelectKey + std::fmt::Debug + Send + Sync,
    {
        let n: usize = parts.iter().map(Vec::len).sum();
        let p = parts.len();
        for (k, min_narrowing) in identity_ranks(n) {
            for seed in [1u64, 99] {
                let one_sweep = run_spmd_seq(p, |comm| {
                    let before = comm.stats_snapshot();
                    let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                    (r, comm.stats_snapshot().since(&before))
                });
                let collecting = run_spmd_seq(p, |comm| {
                    let before = comm.stats_snapshot();
                    let (r, _) = select_k_smallest_collecting(comm, &parts[comm.rank()], k, seed);
                    (r, comm.stats_snapshot().since(&before))
                });
                for ((f, fs), (t, ts)) in one_sweep.results.iter().zip(collecting.results.iter()) {
                    assert!(
                        f.recursion_levels > min_narrowing,
                        "{name} k={k} seed={seed}: {} levels",
                        f.recursion_levels
                    );
                    assert_eq!(f.threshold, t.threshold, "{name} k={k} seed={seed}");
                    assert_eq!(
                        f.local_selected, t.local_selected,
                        "{name} k={k} seed={seed}"
                    );
                    assert_eq!(
                        f.recursion_levels, t.recursion_levels,
                        "{name} k={k} seed={seed}"
                    );
                    assert_eq!(
                        fs.sent_words, ts.sent_words,
                        "metered words diverged: {name} k={k} seed={seed}"
                    );
                    assert_eq!(
                        fs.sent_messages, ts.sent_messages,
                        "metered messages diverged: {name} k={k} seed={seed}"
                    );
                }
                assert_eq!(
                    one_sweep.stats.bottleneck_words(),
                    collecting.stats.bottleneck_words(),
                    "{name} k={k} seed={seed}"
                );
            }
        }
    }

    /// The threshold-only entry point must leave everything the driver can
    /// observe — threshold and per-PE metered words/messages — bit-identical
    /// to the full `select_k_smallest` path with the same arguments, across
    /// input shapes, PE counts, ranks and seeds (it is the same recursion;
    /// only the filter over `local` is skipped).
    #[test]
    fn threshold_only_path_is_bit_identical_to_the_full_path() {
        for (name, parts) in identity_shapes(17) {
            let n: usize = parts.iter().map(Vec::len).sum();
            let p = parts.len();
            for (k, min_narrowing) in identity_ranks(n) {
                for seed in [1u64, 99] {
                    let full = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                        assert!(
                            r.recursion_levels > min_narrowing,
                            "{name} k={k} seed={seed}: {} levels",
                            r.recursion_levels
                        );
                        (r.threshold, comm.stats_snapshot().since(&before))
                    });
                    let thresh = run_spmd_seq(p, |comm| {
                        let before = comm.stats_snapshot();
                        let t = select_threshold(comm, &parts[comm.rank()], k, seed);
                        (t, comm.stats_snapshot().since(&before))
                    });
                    for ((ft, fs), (tt, ts)) in full.results.iter().zip(thresh.results.iter()) {
                        assert_eq!(ft, tt, "{name} k={k} seed={seed}");
                        assert_eq!(
                            fs.sent_words, ts.sent_words,
                            "metered words diverged: {name} k={k} seed={seed}"
                        );
                        assert_eq!(
                            fs.sent_messages, ts.sent_messages,
                            "metered messages diverged: {name} k={k} seed={seed}"
                        );
                    }
                    assert_eq!(
                        full.stats.bottleneck_words(),
                        thresh.stats.bottleneck_words(),
                        "{name} k={k} seed={seed}"
                    );
                }
            }
        }
    }

    /// The start-up budget is exact.  At p = 64 a binomial tree has
    /// ⌈log₂ p⌉ = 6 levels; in a reduction followed by a broadcast its root
    /// receives from its 6 children and sends to them, a leaf sends 1 and
    /// receives 1, and an inner node of `c` children receives and sends
    /// `c + 1`, at most 6.  The entry all-reduction roots at rank 0, every
    /// level's round trip at rank p − 1, and each is a leaf of the other's
    /// tree (relative rank 63 of rank 0's, relative rank 1 of rank p − 1's).
    /// So a selection of `recursion_levels` levels, none of them the
    /// `k = 1` / `k = total` shortcut, sends:
    ///
    /// * rank 0:     `6 + levels` (the entry's broadcast, one report a level),
    /// * rank p − 1: `1 + 6·levels` (its entry report, one broadcast a level),
    ///
    /// and no PE sends or receives more than `1 + 6·levels`: `2·⌈log₂ p⌉`
    /// messages a level on the busiest PE, where a level of three
    /// collectives on two roots cost `⌈log₂ p⌉ + 1` on each of two PEs and
    /// `7·levels` in all.  (Fixed seeds on which no level ends on a shortcut,
    /// an all-reduction on rank 0.)
    #[test]
    fn startup_budget_is_one_round_trip_on_the_sample_root_per_level() {
        let p = 64;
        let per_pe = 64;
        let parts = random_parts(p, per_pe, 1 << 40, 5);
        let n = p * per_pe;
        for (k, seed) in [(n / 1024, 1u64), (n / 32, 2), (n / 2, 3), (n / 3, 4)] {
            let parts_ref = parts.clone();
            let out = run_spmd_seq(p, move |comm| {
                let before = comm.stats_snapshot();
                let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, seed);
                let sent = comm.stats_snapshot().since(&before).sent_messages;
                (r.recursion_levels, sent)
            });
            let (levels, sent_by_first) = out.results[0];
            let (_, sent_by_last) = out.results[p - 1];
            let levels = levels as u64;
            assert!(levels >= 2, "k={k}: the recursion must narrow");
            assert_eq!(sent_by_first, 6 + levels, "k={k} seed={seed}");
            assert_eq!(sent_by_last, 1 + 6 * levels, "k={k} seed={seed}");
            assert_eq!(
                out.stats.bottleneck_messages(),
                1 + 6 * levels,
                "k={k} seed={seed}"
            );
        }
    }

    /// An empty sample leaves the next level cold: the root broadcasts the
    /// counts with a bracket open on both sides, so every PE samples again
    /// together.  (Driven on `decide` itself: a cold level samples
    /// `total > 3m` survivors at rate `m/total`, so its sample is empty with
    /// probability `(1 − m/total)^total < e^{−96}` and no seed gets there.)
    /// A sample of under three elements leaves it cold too: its bracket
    /// reaches both edges.
    #[test]
    fn an_empty_or_tiny_sample_leaves_the_next_level_cold() {
        let p = 4;
        let total = 10 * base_case(p);
        for sample in [vec![], vec![(5u64, 0u64)], vec![(5, 0), (9, 1)]] {
            let report = LevelReport {
                below: 0,
                middle: total as u64,
                sample: SortedBlock::new(sample.clone()),
            };
            let decision = decide(report, p, total / 2, total);
            let expected = Decision::Next {
                below: 0,
                middle: total as u64,
                bracket: Bracket::open(),
            };
            assert_eq!(decision, expected, "{sample:?}");
        }
    }

    /// Every decision the root can broadcast round-trips through its wire
    /// form, and so does a level report.  Flags that do not match the
    /// carried pairs are a decode error: one bit flipped in the flags of a
    /// two-pivot decision or of an answer gives them.
    #[test]
    fn decisions_round_trip_and_reject_mismatched_flags() {
        let (lo, hi) = ((3u64, 1u64 << 40), (7u64, 2));
        let decisions = [
            Decision::Answer(lo),
            Decision::Next {
                below: 0,
                middle: 1 << 30,
                bracket: Bracket::open(),
            },
            Decision::Next {
                below: 5,
                middle: 6,
                bracket: Bracket {
                    lo: Some(lo),
                    hi: None,
                },
            },
            Decision::Next {
                below: 0,
                middle: 6,
                bracket: Bracket {
                    lo: None,
                    hi: Some(hi),
                },
            },
            Decision::Next {
                below: u64::MAX,
                middle: 0,
                bracket: Bracket {
                    lo: Some(lo),
                    hi: Some(hi),
                },
            },
        ];
        for decision in decisions {
            check_bit_stream(&Decided::from(decision));
        }
        check_bit_stream(&LevelReport {
            below: 12,
            middle: 1 << 20,
            sample: SortedBlock::new(vec![lo, hi]),
        });
    }

    /// The tag of local element `index` on PE `rank`.
    fn tag(rank: usize, index: u64) -> u64 {
        tie_break_offset(rank, rank + 1, 0) + index
    }

    /// PE `rank`'s report and decision, of shapes that vary with the rank:
    /// samples of 0 to 6 pairs, every kind of decision, counts up to 2⁴⁰.
    fn level_messages<T: SelectKey>(
        rank: usize,
        key: impl Fn(u64) -> T,
    ) -> (LevelReport<T>, Decided<T>) {
        let pairs: Vec<(T, u64)> = (0..rank as u64 % 7)
            .map(|i| (key(i * i * 1009 + rank as u64 % 3), tag(rank, i)))
            .collect();
        let report = LevelReport {
            below: rank as u64 * 977,
            middle: 1 << (rank % 41),
            sample: SortedBlock::new(pairs),
        };
        let pivot = |i: u64| (key(i * 31 + rank as u64), tag(rank, i));
        let (lo, hi) = (pivot(2).min(pivot(3)), pivot(2).max(pivot(3)));
        let decision = match rank % 4 {
            0 => Decision::Answer(pivot(1)),
            kind => Decision::Next {
                below: rank as u64,
                middle: 1 << (rank % 33),
                bracket: Bracket {
                    lo: (kind != 1).then_some(lo),
                    hi: (kind == 3).then_some(hi),
                },
            },
        };
        (report, Decided::from(decision))
    }

    /// The header bits of a report and a decision: their counts' codes and
    /// the decision's flags.
    fn header_bits<T: SelectKey>(report: &LevelReport<T>, decided: &Decided<T>) -> [u64; 2] {
        let counts = |below, middle| BitWriter::number_bits(below) + BitWriter::number_bits(middle);
        let decision = u64::from(DECISION_FLAGS)
            + match decided.decision {
                Decision::Answer(_) => 0,
                Decision::Next { below, middle, .. } => counts(below, middle),
            };
        [counts(report.below, report.middle), decision]
    }

    /// Bits of `block`'s stream, as its reader consumes them.
    fn bits_read<T: SelectKey>(block: &SortedBlock<T>) -> u64 {
        let mut words = Vec::new();
        block.encode(&mut words);
        let mut words = WordReader::new(&words);
        let mut bits = BitReader::new::<SortedBlock<T>>(&mut words);
        SortedBlock::<T>::read(&mut bits).expect("a block decodes");
        64 * block.encoded_len() as u64 - bits.bits_left()
    }

    /// Every level message is one bit stream: it meters exactly
    /// `⌈(header + block bits)/64⌉` words — never more than the
    /// `⌈header/64⌉ + ⌈block bits/64⌉` of a header padded apart — on
    /// threads, the replay engine's pool and its inline driver, at p = 2, 5
    /// and 64, for `u64` keys and the default part of `String` keys.  Each
    /// PE sends its report and decision to the next and decodes its
    /// predecessor's.
    #[test]
    fn level_messages_meter_their_bits_in_whole_words_on_every_backend() {
        fn check<T: SelectKey + std::fmt::Debug>(key: fn(u64) -> T) {
            for p in [2usize, 5, 64] {
                let mut expected = Vec::new();
                for rank in 0..p {
                    let (report, decided) = level_messages(rank, key);
                    let [report_header, decision_header] = header_bits(&report, &decided);
                    let blocks = [bits_read(&report.sample), bits_read(&decided.carried)];
                    let mut words = 0;
                    for (header, block) in
                        [(report_header, blocks[0]), (decision_header, blocks[1])]
                    {
                        let joined = (header + block).div_ceil(64);
                        assert!(joined <= header.div_ceil(64) + block.div_ceil(64));
                        words += joined;
                    }
                    assert_eq!(
                        words,
                        (report.encoded_len() + decided.encoded_len()) as u64,
                        "p={p} rank {rank}"
                    );
                    expected.push(words);
                }
                for backend in [Backend::Threaded, Backend::Mux, Backend::Seq] {
                    let out = run_on!(backend, World::new(p).with_workers(2), |comm| {
                        let (rank, p) = (comm.rank(), comm.size());
                        let before = comm.stats_snapshot();
                        let (report, decided) = level_messages(rank, key);
                        comm.send((rank + 1) % p, 0, report);
                        comm.send((rank + 1) % p, 1, decided);
                        let from = (rank + p - 1) % p;
                        let got: LevelReport<T> = comm.recv(from, 0);
                        let decided: Decided<T> = comm.recv(from, 1);
                        assert_eq!((got, decided), level_messages(from, key));
                        comm.stats_snapshot().since(&before).sent_words
                    })
                    .fault_free();
                    assert_eq!(out.results, expected, "{backend:?} p={p}");
                }
            }
        }
        check(|v| v);
        check(|v| format!("key-{v}"));
    }

    /// Every level message of both key kinds keeps the bit-stream property
    /// ([`check_bit_stream`]): only canonical streams decode, and none
    /// panics.
    #[test]
    fn level_messages_are_canonical_bit_streams() {
        for rank in 0..24 {
            let (report, decided) = level_messages(rank, |v| v);
            check_bit_stream(&report);
            check_bit_stream(&decided);
            let (report, decided) = level_messages(rank, |v| format!("{v}"));
            check_bit_stream(&report);
            check_bit_stream(&decided);
        }
    }

    /// Where the data lies relative to the two roots must not matter:
    /// everything on rank 0, everything on the sample root, nothing on the
    /// sample root, every other PE empty.  Both entry points give the
    /// sorted-union oracle's threshold, exactly `k` selected elements and the
    /// same level count on every PE, on a power-of-two and an odd `p`.
    #[test]
    fn placement_extremes_agree_with_the_oracle() {
        let n = 1usize << 12;
        for p in [4usize, 5] {
            let all = random_parts(1, n, 1 << 40, 61).remove(0);
            let on = |holders: &[usize]| -> Vec<Vec<u64>> {
                let mut parts = vec![Vec::new(); p];
                for (i, &v) in all.iter().enumerate() {
                    parts[holders[i % holders.len()]].push(v);
                }
                parts
            };
            let shapes = [
                ("all_on_rank_0", on(&[0])),
                ("all_on_the_sample_root", on(&[p - 1])),
                (
                    "nothing_on_the_sample_root",
                    on(&(0..p - 1).collect::<Vec<_>>()),
                ),
                (
                    "every_other_pe_empty",
                    on(&(1..p).step_by(2).collect::<Vec<_>>()),
                ),
            ];
            for (name, parts) in shapes {
                for k in [2usize, n / 32, n / 2, n - 1] {
                    let out = run_spmd_seq(p, |comm| {
                        let local = &parts[comm.rank()];
                        let r = select_k_smallest(comm, local, k, 3);
                        let t = select_threshold(comm, local, k, 3);
                        (r.threshold, t, r.recursion_levels, r.local_selected.len())
                    });
                    let expected = reference_threshold(&parts, k);
                    let levels = out.results[0].2;
                    for &(full, counts_only, l, _) in &out.results {
                        assert_eq!(full, expected, "{name} p={p} k={k}");
                        assert_eq!(counts_only, expected, "{name} p={p} k={k}");
                        assert_eq!(l, levels, "{name} p={p} k={k}");
                    }
                    let selected: usize = out.results.iter().map(|r| r.3).sum();
                    assert_eq!(selected, k, "{name} p={p} k={k}");
                }
            }
        }
    }

    /// Same thresholds, recorded levels: `(threshold, recursion_levels)` of
    /// `(p, n/p, k, seed)` cells.  The thresholds are the ones recorded while
    /// every PE held the whole sample (commit 09e4d9b), bit for bit; the
    /// levels were re-recorded when a level became one round trip, the cold
    /// first level counting as one (3, 5, 4, 3, 2, 3, 3, 3 before).
    #[test]
    fn thresholds_and_levels_match_the_recorded_golden_values() {
        for (p, per_pe, k, seed, threshold, levels) in [
            (2usize, 1usize << 15, 64usize, 1u64, 1141497833u64, 4usize),
            (2, 1 << 15, 1 << 15, 2, 554605289030, 4),
            (4, 1 << 12, 5000, 3, 334833653113, 5),
            (5, 1000, 1234, 4, 276605897511, 3),
            (7, 600, 4199, 5, 1099357005929, 2),
            (64, 64, 128, 6, 39242346080, 2),
            (64, 64, 2048, 7, 550798344567, 3),
            (64, 64, 1365, 8, 362159794991, 3),
        ] {
            let parts = random_parts(p, per_pe, 1 << 40, 1000 + p as u64);
            let out = run_spmd_seq(p, |comm| {
                let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                (r.threshold, r.recursion_levels)
            });
            for got in &out.results {
                assert_eq!(*got, (threshold, levels), "p={p} n/p={per_pe} k={k}");
            }
        }
    }

    /// The schedule's edge cases against the sorted-union oracle on all three
    /// backends — threads, the pool of the replay engine and its inline
    /// driver — with the same threshold, selected counts, levels and per-PE
    /// metering on each: a bracket open below (`k = 2`) and one open above
    /// (`k = n − 1`), a whole middle answered on the root, a miss that takes
    /// a cold level, and an all-equal input.  The collecting reference's
    /// [`Trail`] shows that each case takes the path it is named after.
    #[test]
    fn edge_cases_agree_with_the_oracle_on_every_backend() {
        let p = 4;
        let n = 1usize << 14;
        let uniform = random_parts(p, n / p, 1 << 40, 71);
        let trail = |parts: &[Vec<u64>], k: usize, seed: u64| {
            let out = run_spmd_seq(p, |comm| {
                select_k_smallest_collecting(comm, &parts[comm.rank()], k, seed).1
            });
            out.results[0].clone()
        };
        let miss_seed = (0..64)
            .find(|&seed| trail(&uniform, n / 2, seed).misses > 0)
            .expect("a seed on which a level misses");
        let cases = [
            ("open below", uniform.clone(), 2, 1),
            ("open above", uniform.clone(), n - 1, 1),
            ("whole middle", uniform.clone(), n / 3, 1),
            ("miss", uniform.clone(), n / 2, miss_seed),
            ("all equal", vec![vec![7u64; n / p]; p], n / 2, 1),
        ];
        for (name, parts, k, seed) in cases {
            let path = trail(&parts, k, seed);
            let cold_levels = path.closed_sides.iter().filter(|&&c| c == (false, false));
            let took_its_path = match name {
                "open below" => path.closed_sides.contains(&(false, true)),
                "open above" => path.closed_sides.contains(&(true, false)),
                "miss" => path.misses > 0 && cold_levels.count() >= 2,
                _ => path.answered,
            };
            assert!(took_its_path, "{name}: {path:?}");
            let expected = reference_threshold(&parts, k);
            let runs = [Backend::Threaded, Backend::Mux, Backend::Seq].map(|backend| {
                let out = run_on!(backend, World::new(p).with_workers(2), |comm| {
                    let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                    (r.threshold, r.local_selected.len(), r.recursion_levels)
                })
                .fault_free();
                let metered: Vec<_> = out
                    .stats
                    .per_pe()
                    .iter()
                    .map(|s| {
                        (
                            s.sent_words,
                            s.sent_messages,
                            s.received_words,
                            s.received_messages,
                        )
                    })
                    .collect();
                (out.results, metered)
            });
            for (results, metered) in &runs[1..] {
                assert_eq!(results, &runs[0].0, "{name}");
                assert_eq!(metered, &runs[0].1, "{name}");
            }
            let (results, _) = &runs[0];
            assert!(results.iter().all(|r| r.0 == expected), "{name}");
            assert_eq!(results.iter().map(|r| r.1).sum::<usize>(), k, "{name}");
        }
    }

    /// The narrowing is a stated expectation, not a fitted one (a first
    /// statistical check of a guarantee the module docs state).  A level at
    /// `q = ½` keeps the share `f = (c·√m + 2)/m` of its input (0.17 at
    /// m = 96, c = 1.5).  The first level is cold; from the second on a level
    /// of input `n·f^(j−2)` answers once its middle, `n·f^(j−1)`, is at most
    /// the base case, so a selection takes `⌈ln(n/3m) / ln(1/f)⌉ + 1` levels,
    /// and the bound allows one more for the sample's fluctuation and the
    /// cold level a miss costs.  And a 1.5σ bracket misses the target's
    /// sample rank in ≈ 13 % of its levels (EXPERIMENTS.md, "Floyd–Rivest
    /// sample sizing"), fewer where one side is open; more than 20 % of a
    /// cell's closed levels, half as many again as that, would mean the
    /// bracket is not the one documented.  201 algorithm seeds per (p, n)
    /// cell — 67 for each of the three ranks — on one uniform 40-bit input,
    /// run on the collecting reference (which counts the misses and is pinned
    /// bit-identical to the production path above).
    fn assert_stated_narrowing(p: usize, n: usize, stated_bound: f64) {
        const SEEDS: usize = 67;
        let m = level_sample(p) as f64;
        let f = (BRACKET_SIGMAS * m.sqrt() + 2.0) / m;
        let bound = ((n as f64 / base_case(p) as f64).ln() / (1.0 / f).ln()).ceil() + 2.0;
        assert_eq!(bound, stated_bound, "p={p} n={n}");
        let parts = random_parts(p, n / p, 1 << 40, 31);
        for k in [n / 1024, n / 32, n / 2] {
            let (mut levels, mut closed, mut misses) = (0usize, 0usize, 0usize);
            for seed in 0..SEEDS as u64 {
                let out = run_spmd_seq(p, |comm| {
                    let (r, trail) =
                        select_k_smallest_collecting(comm, &parts[comm.rank()], k, seed);
                    (r.recursion_levels, trail)
                });
                let (l, trail) = &out.results[0];
                levels += l;
                closed += trail.closed;
                misses += trail.misses;
            }
            let mean = levels as f64 / SEEDS as f64;
            assert!(mean <= bound, "p={p} n={n} k={k}: mean levels {mean}");
            assert!(
                misses * 5 <= closed,
                "p={p} n={n} k={k}: {misses} misses in {closed} closed levels"
            );
        }
    }

    #[test]
    fn narrowing_meets_the_stated_bound_at_p2() {
        assert_stated_narrowing(2, 1 << 16, 6.0);
    }

    #[test]
    fn narrowing_meets_the_stated_bound_at_p64() {
        assert_stated_narrowing(64, 1 << 14, 5.0);
    }

    /// Inputs on which a sampling schedule could stall — no spread in the
    /// values, no spread over the PEs — still narrow: exact thresholds
    /// against the sorted union, exactly `k` selected, at most 8 levels.
    #[test]
    fn adversarial_inputs_make_progress() {
        let per_pe = 1usize << 12;
        let shapes: Vec<(&str, Vec<Vec<u64>>)> = vec![
            ("all_equal", vec![vec![7; per_pe]; 4]),
            ("seven_values", random_parts(4, per_pe, 7, 41)),
            (
                "one_pe_holds_everything",
                random_parts(1, 4 * per_pe, 1 << 40, 43)
                    .into_iter()
                    .chain(vec![vec![]; 3])
                    .collect(),
            ),
            (
                "ascending_by_rank",
                (0..4)
                    .map(|r| (r * per_pe as u64..(r + 1) * per_pe as u64).collect())
                    .collect(),
            ),
            (
                "empty_pes",
                [vec![], random_parts(1, 2 * per_pe, 1 << 40, 47).remove(0)]
                    .into_iter()
                    .cycle()
                    .take(4)
                    .collect(),
            ),
        ];
        for (name, parts) in shapes {
            let n: usize = parts.iter().map(Vec::len).sum();
            for k in [2usize, n / 1024, n / 32, n / 2, n - 1] {
                for seed in [1u64, 2, 3] {
                    let out = run_spmd_seq(parts.len(), |comm| {
                        let r = select_k_smallest(comm, &parts[comm.rank()], k, seed);
                        (r.threshold, r.local_selected.len(), r.recursion_levels)
                    });
                    let expected = reference_threshold(&parts, k);
                    for &(threshold, _, levels) in &out.results {
                        assert_eq!(threshold, expected, "{name} k={k} seed={seed}");
                        assert!(levels <= 8, "{name} k={k} seed={seed}: {levels} levels");
                    }
                    let selected: usize = out.results.iter().map(|r| r.1).sum();
                    assert_eq!(selected, k, "{name} k={k} seed={seed}");
                }
            }
        }
    }

    /// The words of a selection at p = 2, where every collective is one
    /// exchange.  Rank 0 sends 1 word at the entry (the all-reduction's
    /// broadcast) and per level one report: its two counts, below 2^16 here,
    /// as two δ codes of at most `COUNTS` = 50 bits, and its sample — the
    /// whole middle on the last level — as one coded block in the same
    /// stream.  Rank 1, the sample root, sends 1 word at the entry and per
    /// level one decision: 3 flag bits, the counts, and at most two pivots
    /// as a block of at most 163 bits (`HEADER`, a value gap's Rice code of
    /// at most 42 bits and two tags of at most 16 each), so 4 words.  A
    /// level that ends on the `k = 1` / `k = total` shortcut sends a 3-word
    /// optional pair either way.
    ///
    /// On both inputs here — uniform values below 2^40, and §10.1's Zipf
    /// ranks below 2^14, where values repeat — rank 0's block of `len`
    /// elements takes at most `HEADER + len·ELEMENT` bits:
    ///
    /// * `HEADER` = 89: δ(len) ≤ 15 bits for `len < 256`, the 23 field bits
    ///   and δ(first value) ≤ 51 bits for a value below 2^40;
    /// * `ELEMENT` = 56: a value gap's Rice code takes under `r_v + 3` bits
    ///   on average (the unary quotients of `c` gaps take under `2c` bits at
    ///   `r_v = ⌊log₂ mean gap⌋`), and `r_v ≤ 35` for a block of 33 or more
    ///   elements, whose gaps sum below 2^40; rank 0's dense tag is its
    ///   index, raw at `w_i ≤ 15` bits or Rice-coded in a run at `r_t ≤ 14`
    ///   (its dense gaps are below 2^15), under 17 bits on average.  A block
    ///   of 32 elements or fewer takes at most `32·(43 + 17)` bits, less than
    ///   96 elements' `ELEMENT` bits.
    ///
    /// The sample sizes are the collecting reference's, pinned bit-identical
    /// above.  So the bound is exact in its layout: an entry word, then per
    /// level the larger of `⌈(COUNTS + HEADER + len·ELEMENT)/64⌉` and a
    /// decision.
    /// And the samples are one per level plus the whole middle: over the 20
    /// seeds of a cell the two PEs sample at most `m` elements per level
    /// before the last and `3m` on it in the mean (a whole middle has an
    /// expected size of at most `3m`).  How the two PEs split them depends
    /// on the input: on the Zipf input rank 0 holds most of the small values.
    #[test]
    fn words_at_p2_are_one_coded_sample_per_level_plus_the_base_case() {
        const COUNTS: u64 = 50;
        const HEADER: u64 = 89;
        const ELEMENT: u64 = 56;
        const DECISION_WORDS: u64 = 4;
        const SHORTCUT_WORDS: u64 = 3;
        let m = level_sample(2) as u64;
        let report = |len: u64| (COUNTS + HEADER + len * ELEMENT).div_ceil(64);
        let n = 1usize << 16;
        let inputs = [
            ("uniform", random_parts(2, n / 2, 1 << 40, 53)),
            (
                "zipf",
                datagen::SkewedSelectionInput::default().generate_all(2, n / 2),
            ),
        ];
        for (name, parts) in &inputs {
            for k in [n / 1024, n / 32, n / 2] {
                let (mut sent, mut expected) = (0u64, 0u64);
                for seed in 0..20u64 {
                    let out = run_spmd_seq(2, |comm| {
                        select_k_smallest(comm, &parts[comm.rank()], k, seed).recursion_levels
                    });
                    let reference = run_spmd_seq(2, |comm| {
                        select_k_smallest_collecting(comm, &parts[comm.rank()], k, seed).1
                    });
                    let samples = &reference.results[0].samples;
                    let shortcuts = out.results[0] as u64 - samples.len() as u64;
                    let bound = 1
                        + samples
                            .iter()
                            .map(|&len| report(len as u64).max(DECISION_WORDS))
                            .sum::<u64>()
                        + shortcuts * SHORTCUT_WORDS;
                    assert!(
                        out.stats.bottleneck_words() <= bound,
                        "{name} k={k} seed={seed}: {} words for samples {samples:?}, \
                         bound {bound}",
                        out.stats.bottleneck_words()
                    );
                    sent += reference
                        .results
                        .iter()
                        .flat_map(|trail| &trail.samples)
                        .sum::<usize>() as u64;
                    expected += (samples.len() as u64).saturating_sub(1) * m + 3 * m;
                }
                assert!(
                    sent <= expected,
                    "{name} k={k}: {sent} sampled elements, {expected} expected"
                );
            }
        }
    }

    /// The threshold-only entry point on its own against the brute-force
    /// oracle, including duplicate-heavy input (ties must break on the packed
    /// `(rank, local index)` tag).
    #[test]
    fn threshold_only_path_selects_correct_thresholds() {
        for p in [1usize, 3, 5] {
            let parts = random_parts(p, 400, 40, 77); // heavy duplication
            let n = 400 * p;
            for k in [1usize, 17, n / 2, n] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_threshold(comm, &parts_ref[comm.rank()], k, 13)
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    /// Non-`Copy` keys: every element the recursion holds is a clone, so a
    /// narrowing that dropped or duplicated one would show here.  Both entry
    /// points against the sorted union on duplicate-heavy `String`s, exactly
    /// `k` selected, and — away from the extreme ranks — at least one
    /// narrowing level before the base case.
    #[test]
    fn non_copy_keys_select_through_both_entry_points() {
        for p in [1usize, 3] {
            let parts: Vec<Vec<String>> = random_parts(p, 400, 40, 83)
                .into_iter()
                .map(|part| part.into_iter().map(|v| format!("key-{v:02}")).collect())
                .collect();
            let n = 400 * p;
            let mut sorted: Vec<&String> = parts.iter().flatten().collect();
            sorted.sort_unstable();
            for k in [1usize, 17, n / 2, n] {
                let out = run_spmd_seq(p, |comm| {
                    let local = &parts[comm.rank()];
                    let r = select_k_smallest(comm, local, k, 19);
                    assert!(r.local_selected.iter().all(|v| *v <= r.threshold));
                    let t = select_threshold(comm, local, k, 19);
                    (r.threshold, t, r.local_selected.len(), r.recursion_levels)
                });
                for (full, threshold_only, _, levels) in &out.results {
                    assert_eq!(full, sorted[k - 1], "p={p} k={k}");
                    assert_eq!(threshold_only, sorted[k - 1], "p={p} k={k}");
                    assert!(k == 1 || k == n || *levels >= 2, "p={p} k={k}: {levels}");
                }
                let selected: usize = out.results.iter().map(|r| r.2).sum();
                assert_eq!(selected, k, "p={p} k={k}");
            }
        }
    }

    /// Reference: sort the union and take the k-th smallest.
    fn reference_threshold(parts: &[Vec<u64>], k: usize) -> u64 {
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        all[k - 1]
    }

    fn random_parts(p: usize, per_pe: usize, max: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..per_pe).map(|_| rng.gen_range(0..max)).collect())
            .collect()
    }

    #[test]
    fn selects_correct_threshold_on_uniform_data() {
        for p in [1usize, 2, 4, 7] {
            let parts = random_parts(p, 500, 10_000, 42);
            for k in [1usize, 10, 250, 500 * p / 2, 500 * p] {
                let parts_ref = parts.clone();
                let out = run_spmd(p, move |comm| {
                    select_k_smallest(comm, &parts_ref[comm.rank()], k, 7).threshold
                });
                let expected = reference_threshold(&parts, k);
                assert!(out.results.iter().all(|&t| t == expected), "p={p} k={k}");
            }
        }
    }

    #[test]
    fn selected_sets_have_total_size_exactly_k() {
        let p = 4;
        let parts = random_parts(p, 300, 50, 3); // many duplicates
        for k in [1usize, 7, 150, 600, 1200] {
            let parts_ref = parts.clone();
            let out = run_spmd(p, move |comm| {
                select_k_smallest(comm, &parts_ref[comm.rank()], k, 11)
                    .local_selected
                    .len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, k, "k={k}");
        }
    }

    #[test]
    fn selected_elements_are_the_smallest_ones() {
        let p = 3;
        let parts = random_parts(p, 200, 1_000, 5);
        let k = 77;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], k, 1).local_selected
        });
        let mut selected: Vec<u64> = out.results.into_iter().flatten().collect();
        selected.sort_unstable();
        let mut all: Vec<u64> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(selected, all[..k].to_vec());
    }

    #[test]
    fn handles_skewed_distribution_across_pes() {
        // All small values on PE 0, all large values on the others.
        let p = 4;
        let parts: Vec<Vec<u64>> = (0..p)
            .map(|r| {
                if r == 0 {
                    (0..400u64).collect()
                } else {
                    (10_000..10_400u64).collect()
                }
            })
            .collect();
        let k = 350;
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 9);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 349));
        assert_eq!(out.results[0].1, 350);
        assert!(out.results[1..].iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn handles_empty_local_inputs_on_some_pes() {
        let p = 4;
        let parts: Vec<Vec<u64>> = vec![vec![], (0..100).collect(), vec![], (100..200).collect()];
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 150, 2).threshold
        });
        assert!(out.results.iter().all(|&t| t == 149));
    }

    #[test]
    fn all_equal_values_still_select_exactly_k() {
        let p = 3;
        let parts: Vec<Vec<u64>> = vec![vec![7; 100], vec![7; 100], vec![7; 100]];
        let parts_ref = parts.clone();
        let k = 123;
        let out = run_spmd(p, move |comm| {
            let r = select_k_smallest(comm, &parts_ref[comm.rank()], k, 3);
            (r.threshold, r.local_selected.len())
        });
        assert!(out.results.iter().all(|&(t, _)| t == 7));
        let total: usize = out.results.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, k);
    }

    #[test]
    fn k_equal_to_one_and_total_work() {
        let p = 2;
        let parts = random_parts(p, 50, 1000, 8);
        let all_min = *parts.iter().flatten().min().unwrap();
        let all_max = *parts.iter().flatten().max().unwrap();
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let lo = select_threshold(comm, &parts_ref[comm.rank()], 1, 4);
            let hi = select_threshold(comm, &parts_ref[comm.rank()], 100, 4);
            (lo, hi)
        });
        assert!(out
            .results
            .iter()
            .all(|&(lo, hi)| lo == all_min && hi == all_max));
    }

    #[test]
    fn recursion_depth_is_modest() {
        let p = 4;
        let parts = random_parts(p, 4000, 1 << 30, 13);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            select_k_smallest(comm, &parts_ref[comm.rank()], 4321, 5).recursion_levels
        });
        assert!(
            out.results.iter().all(|&l| l <= 6),
            "levels: {:?}",
            out.results
        );
    }

    #[test]
    fn communication_volume_is_sublinear_in_local_input() {
        // The paper's headline claim: per-PE communication is o(n/p).
        let p = 4;
        let per_pe = 20_000;
        let parts = random_parts(p, per_pe, 1 << 40, 99);
        let parts_ref = parts.clone();
        let out = run_spmd(p, move |comm| {
            let before = comm.stats_snapshot();
            let _ = select_k_smallest(comm, &parts_ref[comm.rank()], 5000, 12);
            comm.stats_snapshot().since(&before)
        });
        for snap in &out.results {
            assert!(
                snap.bottleneck_words() < (per_pe / 4) as u64,
                "per-PE communication {} words is not sublinear in n/p = {per_pe}",
                snap.bottleneck_words()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the global input size")]
    fn k_larger_than_input_is_rejected() {
        run_spmd(2, |comm| {
            let local: Vec<u64> = vec![1, 2, 3];
            select_threshold(comm, &local, 100, 0)
        });
    }
}
