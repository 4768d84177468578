//! Lightweight span/event collection for the YAT mediator — the
//! observability substrate behind `EXPLAIN ANALYZE`.
//!
//! The paper's optimizations exist "to minimize the communication costs
//! between the sources and the mediator" (Section 5.3); judging them
//! requires attributing *each* cost to the operator, rewrite or round
//! trip that incurred it. This crate provides the collection side:
//!
//! * a [`Collector`] that records a tree of [`SpanData`] — one span per
//!   algebra operator evaluated (opened by `yat-algebra`'s evaluator),
//!   one per protocol round trip (opened by `yat-mediator`'s transport),
//!   plus free-form phases;
//! * [`profile`] — aggregation of the raw span tree into an annotated
//!   operator profile (calls, cardinalities, wall time, traffic), the
//!   data structure `Mediator::explain` renders.
//!
//! No external subscriber is required: spans go into a `Vec` behind a
//! mutex and cost nothing when no collector is attached (every
//! instrumentation site takes `Option<&Collector>`).

#![deny(missing_docs)]

pub mod profile;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Span kind labels used by the built-in instrumentation sites.
pub mod kind {
    /// An algebra operator evaluation (label = `Alg::describe()`).
    pub const OPERATOR: &str = "operator";
    /// A mediator↔wrapper protocol round trip (label = request kind and
    /// connection name).
    pub const RPC: &str = "rpc";
    /// A coarse execution phase (document prefetch, evaluation, …).
    pub const PHASE: &str = "phase";
    /// An optimizer rule application.
    pub const RULE: &str = "rule";
    /// An answer-cache event (`hit @src` / `miss @src` / `evict @src`).
    /// Excluded from [`crate::profile::build`]: `EXPLAIN ANALYZE`
    /// reports cache activity in its own section, not as operator rows.
    pub const CACHE: &str = "cache";
    /// A serving-layer phase of one client request (`accept`,
    /// `queue-wait`, `execute`, `respond`), recorded by `yat-server`.
    pub const SERVER: &str = "server";
    /// A streamed-answer delivery (label = `stream answer`), recorded by
    /// the mediator's streaming executor around batch delivery. Carries
    /// [`crate::attr::CHUNKS`], [`crate::attr::BATCH_ROWS`] and
    /// [`crate::attr::ROWS_OUT`]; on the server side, the per-stream
    /// write loop records one too. Excluded from
    /// [`crate::profile::build`] like the other non-operator kinds.
    pub const STREAM: &str = "stream";
    /// An index-plane event: one per round trip that carried a wrapper's
    /// index report (label = `<collection> @<source>`).
    /// Carries [`crate::attr::PROBES`], [`crate::attr::CANDIDATES`],
    /// [`crate::attr::SCANNED`], [`crate::attr::COLLECTION_SIZE`],
    /// [`crate::attr::ROWS_OUT`], [`crate::attr::EVALUATIONS`] and
    /// [`crate::attr::SCAN_EVALUATIONS`]. Excluded from [`crate::profile::build`]
    /// like the other non-operator kinds: `EXPLAIN ANALYZE` reports
    /// index activity in its own section.
    pub const INDEX: &str = "index";
    /// A storage-plane event: one per pushed-plan execution against a
    /// store-backed source (label = `<collection> @<source>`). Carries
    /// [`crate::attr::SEGMENTS`], [`crate::attr::RESIDENT`],
    /// [`crate::attr::SEGMENT_LOADS`], [`crate::attr::EVICTIONS`] and
    /// [`crate::attr::BYTES_READ`]. Excluded from
    /// [`crate::profile::build`] like the other non-operator kinds:
    /// `EXPLAIN ANALYZE` reports storage activity in its own section.
    pub const STORAGE: &str = "storage";
}

/// Attribute names recorded by the built-in instrumentation sites (the
/// profile aggregator understands these).
pub mod attr {
    /// Output cardinality of an operator (`Tab` rows; `1` for a tree).
    pub const ROWS_OUT: &str = "rows_out";
    /// Serialized request bytes of a round trip.
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Serialized response bytes of a round trip.
    pub const BYTES_RECEIVED: &str = "bytes_received";
    /// Documents (trees or result rows) received in a round trip.
    pub const DOCUMENTS: &str = "documents";
    /// The wrapper an `rpc` span's round trip went to. Traffic is
    /// aggregated by it, whatever else the span's label shows.
    pub const SOURCE: &str = "source";
    /// Present (with the message) when the spanned work failed.
    pub const ERROR: &str = "error";
    /// Index of the worker lane a scatter/gather job executed on.
    pub const LANE: &str = "lane";
    /// Response bytes a cache hit kept off the wire (or an eviction
    /// freed).
    pub const BYTES_SAVED: &str = "bytes_saved";
    /// Admission-queue depth observed when a server span was recorded.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Queries executing on worker threads when a server span was
    /// recorded.
    pub const IN_FLIGHT: &str = "in_flight";
    /// Index of the server worker thread that executed a request.
    pub const WORKER: &str = "worker";
    /// On the `operator` span of a dependent `Push`, the requests shipped
    /// to sources for its bindings.
    pub const BATCHES: &str = "batches";
    /// Left rows a `DJoin` passed bindings for (the `operator` span of
    /// its dependent `Push`).
    pub const BINDINGS: &str = "bindings";
    /// Distinct binding tuples among those rows — what actually had to
    /// be answered.
    pub const DISTINCT: &str = "distinct";
    /// Answer chunks a streamed delivery emitted (`stream` spans).
    pub const CHUNKS: &str = "chunks";
    /// Rows per answer chunk a streamed delivery was configured with.
    pub const BATCH_ROWS: &str = "batch_rows";
    /// Microseconds from the start of a streamed execution to its sink
    /// accepting chunk 0 (the mediator's `stream` span, the server's
    /// streamed `execute` span): where a query's time-to-first-row went.
    pub const FIRST_CHUNK_US: &str = "first_chunk_us";
    /// High-water mark of gathered-but-unconsumed results buffered at
    /// once — the scatter/gather backpressure gauge (`phase` spans) and
    /// the server's per-stream in-flight-chunk gauge (`stream` spans).
    /// Bounded by the configured budget, never by answer size.
    pub const PEAK_PENDING: &str = "peak_pending";
    /// Index lookups one index-driven evaluation performed (`index`
    /// events): posting-list, path-hash or field-index probes.
    pub const PROBES: &str = "probes";
    /// Candidates (documents, objects or nodes) those probes seeded.
    pub const CANDIDATES: &str = "candidates";
    /// Documents/objects actually examined to produce the answer. Equal
    /// to [`COLLECTION_SIZE`] on the scan path; ideally much smaller on
    /// the indexed path.
    pub const SCANNED: &str = "scanned";
    /// Total size of the collection/extent the evaluation addressed.
    pub const COLLECTION_SIZE: &str = "collection_size";
    /// Plan evaluations one `index` event covers (a batched request
    /// evaluates its plan once per binding).
    pub const EVALUATIONS: &str = "evaluations";
    /// How many of those evaluations fell back to a scan.
    pub const SCAN_EVALUATIONS: &str = "scan_evaluations";
    /// Live segments in a source's persistent store (`storage` events).
    pub const SEGMENTS: &str = "segments";
    /// Segments resident in the store's LRU after the execution.
    pub const RESIDENT: &str = "resident";
    /// Segment loads from disk during the execution.
    pub const SEGMENT_LOADS: &str = "segment_loads";
    /// Segment evictions during the execution.
    pub const EVICTIONS: &str = "evictions";
    /// Bytes read from disk during the execution.
    pub const BYTES_READ: &str = "bytes_read";
}

/// A pluggable destination for [`warn`] messages.
pub type WarnSink = Box<dyn Fn(&str) + Send + Sync>;

/// Where warnings go: the installed sink, or stderr when none is set.
static WARN_SINK: Mutex<Option<WarnSink>> = Mutex::new(None);

/// Emits one out-of-band warning — configuration problems (an invalid
/// `YAT_EXEC_MODE`/`YAT_CACHE` value, say) that have no span to hang off
/// of. Goes to the sink installed by [`set_warn_sink`], or to stderr
/// prefixed `[yat warn]` when none is installed.
pub fn warn(message: impl AsRef<str>) {
    let message = message.as_ref();
    match &*WARN_SINK.lock().unwrap_or_else(|e| e.into_inner()) {
        Some(sink) => sink(message),
        None => eprintln!("[yat warn] {message}"),
    }
}

/// Installs (or, with `None`, removes) the global warning sink. Tests
/// capture warnings this way; embedders can forward them to a logger.
pub fn set_warn_sink(sink: Option<WarnSink>) {
    *WARN_SINK.lock().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter.
    Uint(u64),
    /// A signed quantity.
    Int(i64),
    /// Free text.
    Str(String),
}

impl AttrValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::Uint(v) => Some(*v),
            AttrValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One recorded span: a named piece of work with a parent, attributes
/// and a wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Index into the collector's span list (creation order).
    pub id: usize,
    /// Enclosing span, `None` for roots.
    pub parent: Option<usize>,
    /// Coarse category (see [`kind`]).
    pub kind: &'static str,
    /// Human-readable label; spans with equal `(kind, label)` under the
    /// same parent aggregate into one profile row.
    pub label: String,
    /// Recorded attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Wall time between open and close (zero for events and unclosed
    /// spans).
    pub elapsed: Duration,
    /// Whether the span was closed (guard dropped).
    pub closed: bool,
}

impl SpanData {
    /// The first attribute named `name`.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The retained spans, oldest first.
    spans: VecDeque<SpanData>,
    /// The id of `spans[0]`: in a bounded collector, the spans before it
    /// have aged out.
    first: usize,
    /// How many spans a bounded collector keeps.
    cap: Option<usize>,
    /// Open-span stacks, one per thread: a span opened on a worker thread
    /// nests under the innermost span *of that thread*, never under
    /// whatever another thread happens to have open at the same instant.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl Inner {
    fn stack(&mut self) -> &mut Vec<usize> {
        self.stacks.entry(std::thread::current().id()).or_default()
    }

    fn next_id(&self) -> usize {
        self.first + self.spans.len()
    }

    /// Appends a span, aging out the oldest one when the collector is
    /// full.
    fn push(&mut self, span: SpanData) {
        if self.cap.is_some_and(|cap| self.spans.len() >= cap) {
            self.spans.pop_front();
            self.first += 1;
        }
        self.spans.push_back(span);
    }

    /// The span with id `id`, unless it aged out.
    fn get_mut(&mut self, id: usize) -> Option<&mut SpanData> {
        let index = id.checked_sub(self.first)?;
        self.spans.get_mut(index)
    }
}

/// A shared, thread-safe span collector.
///
/// Cloning is cheap (it is an `Arc` handle); all clones feed the same
/// span list. Spans opened while another span is open *on the same
/// thread* become its children, so each thread contributes a faithful
/// call tree; [`Collector::span_under`] stitches the per-thread trees
/// together when work fans out to workers.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("spans", &self.lock().spans.len())
            .finish()
    }
}

impl Collector {
    /// A fresh, empty collector that keeps every span.
    pub fn new() -> Self {
        Collector::default()
    }

    /// A collector that keeps only the most recent `cap` spans — for a
    /// long-running process that records spans forever. Ids stay
    /// monotonic; closing a span that aged out while open, or opening one
    /// under an aged-out parent, records nothing about the lost span.
    pub fn bounded(cap: usize) -> Self {
        let c = Collector::default();
        c.lock().cap = Some(cap.max(1));
        c
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span; it closes (and records its duration) when the
    /// returned guard drops. Until then, newly opened spans and events
    /// *on the same thread* nest under it.
    pub fn span(&self, kind: &'static str, label: impl Into<String>) -> Span<'_> {
        self.open(kind, label.into(), None)
    }

    /// Opens a span with an explicit parent instead of the current
    /// thread's innermost open span. The scatter/gather executor uses this
    /// to hang worker-lane job spans under the phase span that dispatched
    /// them, even though the jobs open on other threads. Spans opened
    /// afterwards on the same thread still nest under the new span.
    pub fn span_under(
        &self,
        parent: Option<usize>,
        kind: &'static str,
        label: impl Into<String>,
    ) -> Span<'_> {
        self.open(kind, label.into(), Some(parent))
    }

    fn open(&self, kind: &'static str, label: String, explicit: Option<Option<usize>>) -> Span<'_> {
        let mut inner = self.lock();
        let id = inner.next_id();
        let parent = match explicit {
            Some(parent) => parent,
            None => inner.stack().last().copied(),
        };
        inner.push(SpanData {
            id,
            parent,
            kind,
            label,
            attrs: Vec::new(),
            elapsed: Duration::ZERO,
            closed: false,
        });
        inner.stack().push(id);
        Span {
            collector: self,
            id,
            start: Instant::now(),
            excluded: Duration::ZERO,
            buffered: Vec::new(),
        }
    }

    /// Records an instantaneous event (a zero-duration, already-closed
    /// span) under the currently open span.
    pub fn event(
        &self,
        kind: &'static str,
        label: impl Into<String>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let mut inner = self.lock();
        let id = inner.next_id();
        let parent = inner.stack().last().copied();
        inner.push(SpanData {
            id,
            parent,
            kind,
            label: label.into(),
            attrs,
            elapsed: Duration::ZERO,
            closed: true,
        });
    }

    /// A snapshot of the spans recorded so far (the retained ones, for a
    /// bounded collector), in creation order.
    pub fn spans(&self) -> Vec<SpanData> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Number of spans recorded (retained, for a bounded collector).
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded spans (the open-span stacks survive only if
    /// empty; call between executions, not mid-span).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.first = 0;
        inner.stacks.clear();
    }

    fn close(&self, id: usize, elapsed: Duration, attrs: Vec<(&'static str, AttrValue)>) {
        let mut inner = self.lock();
        // Usually the span closes on the thread that opened it, but a
        // guard may legally move; search that stack first, then the rest.
        let current = std::thread::current().id();
        let owner = if inner.stacks.get(&current).is_some_and(|s| s.contains(&id)) {
            Some(current)
        } else {
            inner
                .stacks
                .iter()
                .find(|(_, s)| s.contains(&id))
                .map(|(t, _)| *t)
        };
        if let Some(thread) = owner {
            let stack = inner.stacks.get_mut(&thread).expect("stack exists");
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                inner.stacks.remove(&thread);
            }
        }
        let Some(span) = inner.get_mut(id) else {
            return; // aged out of a bounded collector while open
        };
        span.attrs.extend(attrs);
        span.elapsed = elapsed;
        span.closed = true;
    }
}

/// An open span. Record attributes while it is live; dropping it closes
/// the span and stores the measured wall time.
pub struct Span<'a> {
    collector: &'a Collector,
    id: usize,
    start: Instant,
    /// Time inside the span that its recorded duration leaves out.
    excluded: Duration,
    // attrs buffer locally so recording does not take the lock
    buffered: Vec<(&'static str, AttrValue)>,
}

impl Span<'_> {
    /// This span's id (stable across the collector's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Records an unsigned counter attribute at close time.
    pub fn record_u64(&mut self, name: &'static str, value: u64) {
        self.pending().push((name, AttrValue::Uint(value)));
    }

    /// Records a text attribute at close time.
    pub fn record_str(&mut self, name: &'static str, value: impl Into<String>) {
        self.pending().push((name, AttrValue::Str(value.into())));
    }

    /// Leaves `time` out of the duration recorded at close: time spent
    /// inside the span on work that is not its own, such as a consumer
    /// handed pieces of the span's answer while it is still open.
    pub fn exclude(&mut self, time: Duration) {
        self.excluded += time;
    }

    fn pending(&mut self) -> &mut Vec<(&'static str, AttrValue)> {
        &mut self.buffered
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let attrs = std::mem::take(&mut self.buffered);
        let elapsed = self.start.elapsed().saturating_sub(self.excluded);
        self.collector.close(self.id, elapsed, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let c = Collector::new();
        {
            let mut outer = c.span(kind::PHASE, "execute");
            outer.record_u64(attr::ROWS_OUT, 3);
            {
                let _inner = c.span(kind::OPERATOR, "Bind works");
                c.event(kind::RPC, "event under inner", vec![]);
            }
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(spans[0].attr(attr::ROWS_OUT), Some(&AttrValue::Uint(3)));
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let c = Collector::new();
        let a = c.span(kind::PHASE, "a");
        let b = c.span(kind::PHASE, "b");
        drop(a); // wrong order on purpose
        let d = c.span(kind::PHASE, "c"); // parent should be b, still open
        drop(d);
        drop(b);
        let spans = c.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.closed));
    }

    #[test]
    fn threads_get_independent_stacks() {
        let c = Collector::new();
        let _outer = c.span(kind::PHASE, "main-thread work");
        std::thread::scope(|s| {
            s.spawn(|| {
                // no explicit parent and nothing open on *this* thread:
                // the span must become a root, not a child of `outer`
                let _w = c.span(kind::PHASE, "worker root");
                c.event(kind::RPC, "under worker", vec![]);
            })
            .join()
            .unwrap();
        });
        let spans = c.spans();
        let worker = spans.iter().find(|s| s.label == "worker root").unwrap();
        assert_eq!(worker.parent, None);
        let nested = spans.iter().find(|s| s.label == "under worker").unwrap();
        assert_eq!(nested.parent, Some(worker.id));
    }

    #[test]
    fn span_under_stitches_cross_thread_trees() {
        let c = Collector::new();
        let scatter_id = {
            let scatter = c.span(kind::PHASE, "scatter");
            let id = scatter.id();
            std::thread::scope(|s| {
                for lane in 0..2u64 {
                    let c = &c;
                    s.spawn(move || {
                        let mut job = c.span_under(Some(id), kind::PHASE, format!("job {lane}"));
                        job.record_u64(attr::LANE, lane);
                        c.event(kind::RPC, format!("rpc of job {lane}"), vec![]);
                    });
                }
            });
            id
        };
        let spans = c.spans();
        assert!(spans.iter().all(|s| s.closed));
        for lane in 0..2u64 {
            let job = spans
                .iter()
                .find(|s| s.label == format!("job {lane}"))
                .unwrap();
            assert_eq!(job.parent, Some(scatter_id));
            assert_eq!(job.attr(attr::LANE), Some(&AttrValue::Uint(lane)));
            let rpc = spans
                .iter()
                .find(|s| s.label == format!("rpc of job {lane}"))
                .unwrap();
            assert_eq!(
                rpc.parent,
                Some(job.id),
                "rpc nests under its own lane's job"
            );
        }
        // profile aggregation sees one scatter root with both jobs under it
        let profile = profile::build(&spans);
        let scatter = &profile[0];
        assert_eq!(scatter.label, "scatter");
        assert_eq!(scatter.children.len(), 2);
    }

    #[test]
    fn warnings_reach_the_installed_sink() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        set_warn_sink(Some(Box::new(move |m| {
            sink.lock().unwrap().push(m.to_string());
        })));
        warn("first");
        warn(String::from("second"));
        set_warn_sink(None);
        warn("after removal this goes to stderr, not the sink");
        assert_eq!(*seen.lock().unwrap(), ["first", "second"]);
    }

    #[test]
    fn bounded_collectors_keep_the_most_recent_spans() {
        let c = Collector::bounded(3);
        let outer = c.span(kind::SERVER, "serve query");
        let outer_id = outer.id();
        for i in 0..5 {
            c.event(kind::SERVER, format!("e{i}"), vec![]);
        }
        // the open outer span aged out: closing it is a no-op, and a span
        // opened under it still records its parent's id
        drop(outer);
        let late = c.span_under(Some(outer_id), kind::SERVER, "execute");
        let late_id = late.id();
        drop(late);
        let spans = c.spans();
        assert_eq!(c.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            [4, 5, late_id],
            "ids stay monotonic"
        );
        assert_eq!(late_id, 6);
        assert_eq!(spans[2].parent, Some(outer_id));
        assert!(spans.iter().all(|s| s.closed));
    }

    #[test]
    fn clear_resets() {
        let c = Collector::new();
        c.span(kind::PHASE, "x");
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }
}
