//! Tracing from outside the program: [`TraceComm`] wraps any
//! [`Communicator`] and records spans and point-to-point counters without a
//! single line of instrumentation inside `crates/*`.
//!
//! Span hierarchy: op → algorithm call (both opened by the workload code in
//! `benchmark/src`) → collective (the wrapper overrides every provided
//! collective to open a span) → `send_raw` / `recv_raw`.  Spans stay in a
//! per-PE in-memory buffer and are written out after the run; a span's self
//! time is its duration minus its children's.
//!
//! The wrapper changes nothing the program can observe: tags, payloads and
//! metering are the inner communicator's, so results and `WorldStats` are
//! bit-identical with and without it (pinned by `tests/trace_identity.rs`).

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use commsim::{CommData, CommResult, Communicator, Rank, ReduceOp, StatsSnapshot, Tag};

/// Spans one PE may store per traced pass.  The point-to-point counters and
/// the per-name totals keep running past it; only the stored spans stop, so
/// a 1600-round region cannot grow the trace without bound.
pub const SPAN_BUDGET: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the sink's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same PE's buffer.
    pub parent: Option<u32>,
    /// The op (index in the schedule) this span belongs to.
    pub op: u32,
}

/// Calls and total time of all spans with one name on one PE, kept even
/// when the span buffer is full or span storage is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotal {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
}

impl NameTotal {
    /// Add `calls` calls taking `total_ns` in all to `name`'s entry.
    fn add(totals: &mut Vec<NameTotal>, name: &'static str, calls: u64, total_ns: u64) {
        match totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.calls += calls;
                t.total_ns += total_ns;
            }
            None => totals.push(NameTotal {
                name,
                calls,
                total_ns,
            }),
        }
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| (span.end_ns - span.start_ns).saturating_sub(children))
        .collect()
}

/// What one PE accumulated.
#[derive(Debug, Default)]
pub struct PeSink {
    /// Time inside `send_raw`, over every execution of the closure.
    pub send_ns: AtomicU64,
    /// Time inside the receive calls (mostly waiting for the peer).
    pub recv_ns: AtomicU64,
    /// Messages and words sent by *completed* executions — on the replay
    /// backends an aborted execution's sends are replayed, not repeated.
    pub msgs: AtomicU64,
    pub words: AtomicU64,
    /// Closure starts (1 per region on the threaded backend; 1 + replays on
    /// the replay backends).
    pub executions: AtomicU64,
    /// Time between a closure's start and its return or unwind.
    pub closure_ns: AtomicU64,
    pub spans: Mutex<Vec<Span>>,
    pub totals: Mutex<Vec<NameTotal>>,
    /// Spans not stored because the budget was used up.
    pub dropped_spans: AtomicU64,
}

/// The benchmark-owned collection point all [`TraceComm`]s of a run flush
/// into.  Counters are statistics that publish no other data, and the
/// region's thread join orders them before the reader: `Relaxed` suffices.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    pes: Vec<PeSink>,
}

impl TraceSink {
    pub fn new(num_pes: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            pes: (0..num_pes).map(|_| PeSink::default()).collect(),
        }
    }

    pub fn pe(&self, rank: Rank) -> &PeSink {
        &self.pes[rank]
    }

    fn sum(&self, field: impl Fn(&PeSink) -> &AtomicU64) -> u64 {
        self.pes
            .iter()
            .map(|pe| field(pe).load(Ordering::Relaxed))
            .sum()
    }

    pub fn total_msgs(&self) -> u64 {
        self.sum(|pe| &pe.msgs)
    }

    pub fn total_words(&self) -> u64 {
        self.sum(|pe| &pe.words)
    }

    pub fn total_executions(&self) -> u64 {
        self.sum(|pe| &pe.executions)
    }

    pub fn total_closure_ns(&self) -> u64 {
        self.sum(|pe| &pe.closure_ns)
    }

    /// Run `f` with a traced view of `comm`.  `store_spans` is false on the
    /// replay backends (spans inside a re-executed closure would be
    /// replayed) and on all but the first traced pass.
    pub fn with_trace<C: Communicator, T>(
        &self,
        comm: &C,
        store_spans: bool,
        f: impl FnOnce(&TraceComm<'_, C>) -> T,
    ) -> T {
        let traced = TraceComm::new(comm, self, store_spans);
        let out = f(&traced);
        traced.commit();
        out
    }

    /// Mean duration in nanoseconds of rank `rank`'s spans called `name`.
    pub fn mean_span_ns(&self, rank: Rank, name: &str) -> Option<f64> {
        let totals = self.pes[rank].totals.lock().expect("no PE panicked");
        totals
            .iter()
            .find(|t| t.name == name && t.calls > 0)
            .map(|t| t.total_ns as f64 / t.calls as f64)
    }

    /// Write every stored span as one JSON object per line, with its self
    /// time, and return `(spans written, spans dropped)`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<(usize, u64)> {
        let mut written = 0;
        for (rank, pe) in self.pes.iter().enumerate() {
            let spans = pe.spans.lock().expect("no PE panicked");
            let self_ns = self_times_ns(&spans);
            for (id, span) in spans.iter().enumerate() {
                let parent = span
                    .parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"pe\": {rank}, \"id\": {id}, \"parent\": {parent}, \"op\": {}, \
                     \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    span.op, span.name, span.start_ns, span.end_ns, self_ns[id],
                )?;
                written += 1;
            }
        }
        Ok((written, self.sum(|pe| &pe.dropped_spans)))
    }
}

/// Source of spans for workload code that runs both traced and untraced.
pub trait Spans {
    /// Open a span that closes when the guard drops (so unwinds count).
    fn span(&self, name: &'static str) -> Option<SpanGuard<'_>>;
    /// Attribute the following spans to op `op` of the schedule.
    fn set_op(&self, op: u32);
}

/// The untraced run: no spans, no clock reads.
pub struct NoTrace;

impl Spans for NoTrace {
    #[inline]
    fn span(&self, _name: &'static str) -> Option<SpanGuard<'_>> {
        None
    }
    #[inline]
    fn set_op(&self, _op: u32) {}
}

/// Per-execution recording state (the part of [`TraceComm`] that does not
/// depend on the communicator type).
struct Recorder<'a> {
    sink: &'a PeSink,
    epoch: Instant,
    created: Instant,
    store_spans: bool,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    /// Open spans, innermost last; `None` marks an open span that was not
    /// stored, so children of a dropped span get no dangling parent.
    stack: RefCell<Vec<Option<u32>>>,
    totals: RefCell<Vec<NameTotal>>,
    dropped: Cell<u64>,
    send_ns: Cell<u64>,
    recv_ns: Cell<u64>,
    msgs: Cell<u64>,
    words: Cell<u64>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    rec: &'a Recorder<'a>,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let rec = self.rec;
        let duration = (end - self.start).as_nanos() as u64;
        NameTotal::add(&mut rec.totals.borrow_mut(), self.name, 1, duration);
        if !rec.store_spans {
            return;
        }
        let slot = rec.stack.borrow_mut().pop().flatten();
        if let Some(id) = slot {
            rec.spans.borrow_mut()[id as usize].end_ns = (end - rec.epoch).as_nanos() as u64;
        }
    }
}

impl<'a> Recorder<'a> {
    fn open(&'a self, name: &'static str) -> SpanGuard<'a> {
        let start = Instant::now();
        if self.store_spans {
            let mut spans = self.spans.borrow_mut();
            let mut stack = self.stack.borrow_mut();
            if spans.len() < SPAN_BUDGET {
                let start_ns = (start - self.epoch).as_nanos() as u64;
                stack.push(Some(spans.len() as u32));
                let parent = stack.iter().rev().skip(1).find_map(|&s| s);
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    op: self.op.get(),
                });
            } else {
                stack.push(None);
                self.dropped.set(self.dropped.get() + 1);
            }
        }
        SpanGuard {
            rec: self,
            name,
            start,
        }
    }
}

impl Drop for Recorder<'_> {
    /// Flush into the sink.  Runs on normal return and on unwind (the
    /// replay backends abort executions with a sentinel panic), so time
    /// spent in aborted executions is counted.  Never panics: a poisoned
    /// lock is simply skipped.
    fn drop(&mut self) {
        let sink = self.sink;
        sink.executions.fetch_add(1, Ordering::Relaxed);
        sink.closure_ns
            .fetch_add(self.created.elapsed().as_nanos() as u64, Ordering::Relaxed);
        sink.send_ns
            .fetch_add(self.send_ns.get(), Ordering::Relaxed);
        sink.recv_ns
            .fetch_add(self.recv_ns.get(), Ordering::Relaxed);
        sink.dropped_spans
            .fetch_add(self.dropped.get(), Ordering::Relaxed);
        if let Ok(mut totals) = sink.totals.lock() {
            for mine in self.totals.get_mut().drain(..) {
                NameTotal::add(&mut totals, mine.name, mine.calls, mine.total_ns);
            }
        }
        if let Ok(mut stored) = sink.spans.lock() {
            // Parent indices are local to this execution's buffer.
            let base = stored.len() as u32;
            stored.extend(self.spans.get_mut().drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
}

/// A [`Communicator`] that times and counts what passes through it.
pub struct TraceComm<'a, C: Communicator> {
    inner: &'a C,
    rec: Recorder<'a>,
}

impl<'a, C: Communicator> TraceComm<'a, C> {
    pub fn new(inner: &'a C, sink: &'a TraceSink, store_spans: bool) -> Self {
        TraceComm {
            inner,
            rec: Recorder {
                sink: sink.pe(inner.rank()),
                epoch: sink.epoch,
                created: Instant::now(),
                store_spans,
                op: Cell::new(0),
                spans: RefCell::new(Vec::new()),
                stack: RefCell::new(Vec::new()),
                totals: RefCell::new(Vec::new()),
                dropped: Cell::new(0),
                send_ns: Cell::new(0),
                recv_ns: Cell::new(0),
                msgs: Cell::new(0),
                words: Cell::new(0),
            },
        }
    }

    /// The closure completed: its sends are the ones the backend metered.
    pub fn commit(self) {
        let sink = self.rec.sink;
        sink.msgs.fetch_add(self.rec.msgs.get(), Ordering::Relaxed);
        sink.words
            .fetch_add(self.rec.words.get(), Ordering::Relaxed);
    }

    /// The view the generic collectives run on: it has only the required
    /// (traced) methods, so the provided collective bodies of
    /// `commsim::collectives` execute over the traced raw surface.
    fn raw(&self) -> Raw<'_, 'a, C> {
        Raw(self)
    }
}

impl<C: Communicator> Spans for TraceComm<'_, C> {
    fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        Some(self.rec.open(name))
    }
    fn set_op(&self, op: u32) {
        self.rec.op.set(op);
    }
}

/// Adds the elapsed time to a cell on drop — a receive on a replay backend
/// leaves by unwinding.
struct AddOnDrop<'a> {
    cell: &'a Cell<u64>,
    start: Instant,
}

impl Drop for AddOnDrop<'_> {
    fn drop(&mut self) {
        self.cell
            .set(self.cell.get() + self.start.elapsed().as_nanos() as u64);
    }
}

impl<C: Communicator> TraceComm<'_, C> {
    fn time_send(&self, words: usize) -> (SpanGuard<'_>, AddOnDrop<'_>) {
        self.rec.msgs.set(self.rec.msgs.get() + 1);
        self.rec.words.set(self.rec.words.get() + words as u64);
        let span = self.rec.open("send_raw");
        let timer = AddOnDrop {
            cell: &self.rec.send_ns,
            start: span.start,
        };
        (span, timer)
    }

    fn time_recv(&self, name: &'static str) -> (SpanGuard<'_>, AddOnDrop<'_>) {
        let span = self.rec.open(name);
        let timer = AddOnDrop {
            cell: &self.rec.recv_ns,
            start: span.start,
        };
        (span, timer)
    }
}

/// Forward the backend surface of `Communicator` to `$target`.
macro_rules! forward_required {
    ($target:ident) => {
        fn rank(&self) -> Rank {
            self.$target().rank()
        }
        fn size(&self) -> usize {
            self.$target().size()
        }
        fn stats_snapshot(&self) -> StatsSnapshot {
            self.$target().stats_snapshot()
        }
        fn next_collective_tag(&self) -> Tag {
            self.$target().next_collective_tag()
        }
    };
}

impl<'a, C: Communicator> TraceComm<'a, C> {
    fn inner(&self) -> &'a C {
        self.inner
    }
}

impl<C: Communicator> Communicator for TraceComm<'_, C> {
    forward_required!(inner);

    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        let _timed = self.time_send(value.word_count());
        self.inner.send_raw(dst, tag, value);
    }

    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        let _timed = self.time_recv("recv_raw");
        self.inner.recv_raw(src, expected_tag)
    }

    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T) {
        let _timed = self.time_recv("recv_any_tag");
        self.inner.recv_any_tag(src)
    }

    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)> {
        let _timed = self.time_recv("try_recv");
        self.inner.try_recv(src)
    }

    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> CommResult<T> {
        let _timed = self.time_recv("recv_failable");
        self.inner.recv_failable(src, tag)
    }

    fn broadcast<T: CommData + Clone>(&self, root: Rank, value: Option<T>) -> T {
        let _span = self.rec.open("broadcast");
        self.raw().broadcast(root, value)
    }

    fn reduce<T: CommData + Clone>(&self, root: Rank, value: T, op: &ReduceOp<T>) -> Option<T> {
        let _span = self.rec.open("reduce");
        self.raw().reduce(root, value, op)
    }

    fn allreduce<T: CommData + Clone>(&self, value: T, op: ReduceOp<T>) -> T {
        let _span = self.rec.open("allreduce");
        self.raw().allreduce(value, op)
    }

    fn scan_inclusive<T: CommData + Clone>(&self, value: T, op: &ReduceOp<T>) -> T {
        let _span = self.rec.open("scan_inclusive");
        self.raw().scan_inclusive(value, op)
    }

    fn scan_exclusive<T: CommData + Clone>(&self, value: T, identity: T, op: &ReduceOp<T>) -> T {
        let _span = self.rec.open("scan_exclusive");
        self.raw().scan_exclusive(value, identity, op)
    }

    fn gather<T: CommData>(&self, root: Rank, value: T) -> Option<Vec<T>> {
        let _span = self.rec.open("gather");
        self.raw().gather(root, value)
    }

    fn allgather<T: CommData + Clone>(&self, value: T) -> Vec<T> {
        let _span = self.rec.open("allgather");
        self.raw().allgather(value)
    }

    fn scatter<T: CommData>(&self, root: Rank, values: Option<Vec<T>>) -> T {
        let _span = self.rec.open("scatter");
        self.raw().scatter(root, values)
    }

    fn alltoall<T: CommData>(&self, items: Vec<T>) -> Vec<T> {
        let _span = self.rec.open("alltoall");
        self.raw().alltoall(items)
    }

    fn alltoall_indirect<T: CommData>(&self, items: Vec<T>) -> Vec<T> {
        let _span = self.rec.open("alltoall_indirect");
        self.raw().alltoall_indirect(items)
    }

    fn barrier(&self) {
        let _span = self.rec.open("barrier");
        self.raw().barrier()
    }
}

/// See [`TraceComm::raw`].
struct Raw<'b, 'a, C: Communicator>(&'b TraceComm<'a, C>);

impl<'b, 'a, C: Communicator> Raw<'b, 'a, C> {
    fn traced(&self) -> &'b TraceComm<'a, C> {
        self.0
    }
}

impl<C: Communicator> Communicator for Raw<'_, '_, C> {
    forward_required!(traced);

    fn send_raw<T: CommData>(&self, dst: Rank, tag: Tag, value: T) {
        self.0.send_raw(dst, tag, value)
    }
    fn recv_raw<T: CommData>(&self, src: Rank, expected_tag: Tag) -> T {
        self.0.recv_raw(src, expected_tag)
    }
    fn recv_any_tag<T: CommData>(&self, src: Rank) -> (Tag, T) {
        self.0.recv_any_tag(src)
    }
    fn try_recv<T: CommData>(&self, src: Rank) -> Option<(Tag, T)> {
        self.0.try_recv(src)
    }
    fn recv_failable<T: CommData>(&self, src: Rank, tag: Tag) -> CommResult<T> {
        self.0.recv_failable(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsim::run_spmd;

    #[test]
    fn spans_nest_op_algorithm_collective_p2p() {
        let sink = TraceSink::new(2);
        run_spmd(2, |comm| {
            sink.with_trace(comm, true, |tc| {
                tc.set_op(7);
                let _op = tc.span("op");
                let _algo = tc.span("algo");
                tc.allreduce_sum(1)
            })
        });
        let spans = sink.pe(1).spans.lock().unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names[..3], ["op", "algo", "allreduce"]);
        assert!(names[3..]
            .iter()
            .all(|n| *n == "send_raw" || *n == "recv_raw"));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[3..].iter().all(|s| s.parent == Some(2)));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        // p = 2 all-reduce: one message up, one down.
        assert_eq!(sink.total_msgs(), 2);
        assert_eq!(sink.total_words(), 2);
        assert_eq!(sink.total_executions(), 2);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let sink = TraceSink::new(1);
        {
            let mut spans = sink.pe(0).spans.lock().unwrap();
            let span = |start_ns, end_ns, parent| Span {
                name: "s",
                start_ns,
                end_ns,
                parent,
                op: 0,
            };
            spans.extend([
                span(0, 100, None),
                span(10, 40, Some(0)),
                span(50, 70, Some(0)),
            ]);
        }
        let mut out = Vec::new();
        assert_eq!(sink.write_jsonl(&mut out).unwrap(), (3, 0));
        let text = String::from_utf8(out).unwrap();
        let first = crate::json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("self_ns").unwrap().as_u64(), Some(50));
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
    }

    #[test]
    fn a_full_buffer_drops_spans_but_keeps_counting() {
        let sink = TraceSink::new(1);
        run_spmd(1, |comm| {
            sink.with_trace(comm, true, |tc| {
                for _ in 0..SPAN_BUDGET + 10 {
                    let _s = tc.span("tick");
                }
            })
        });
        assert_eq!(sink.pe(0).spans.lock().unwrap().len(), SPAN_BUDGET);
        assert_eq!(sink.pe(0).dropped_spans.load(Ordering::Relaxed), 10);
        let totals = sink.pe(0).totals.lock().unwrap();
        assert_eq!(totals[0].calls, SPAN_BUDGET as u64 + 10);
    }
}
