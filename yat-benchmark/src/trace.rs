//! The outside-in trace: an in-memory span recorder and the wrapper
//! decorator that spans every `handle()` call. Nothing here reaches
//! into the program under test — spans are recorded from the
//! benchmark's own files, around the calls into each layer.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use yat_capability::protocol::{Request, Response, WrapperServer};
use yat_capability::{IndexReport, StorageReport};

/// "No span": the parent of roots, and the current parent while no
/// staged query is open.
const NONE: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`mediator.execute`, `wais.handle`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier (0 = recorded while
    /// serving, where the decorator cannot know the request).
    pub query: u64,
}

impl Span {
    /// Wall time of the span, milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Keeps spans in memory; they are written out when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The span new decorator spans nest under (the staged replay sets
    /// it around `mediator.execute`); `NONE` while serving.
    current_parent: AtomicUsize,
    current_query: AtomicU64,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current_parent: AtomicUsize::new(NONE),
            current_query: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` under a span called `name`, child of `parent`;
    /// returns the span's index with the result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent);
        let out = work();
        self.close(id);
        (id, out)
    }

    /// Opens a span; [`Recorder::close`] stamps its end.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query: self.current_query.load(Ordering::SeqCst),
        });
        spans.len() - 1
    }

    /// Closes the span opened as `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end_ns;
    }

    /// Starts request `query`: spans opened from now on carry its id.
    pub fn begin_query(&self, query: u64) {
        self.current_query.store(query, Ordering::SeqCst);
    }

    /// Makes `parent` the span decorator spans nest under (`None` to
    /// detach). Set before the calls it should adopt are made and read
    /// by them afterwards, on whichever lane thread they run.
    pub fn adopt_under(&self, parent: Option<usize>) {
        self.current_parent
            .store(parent.unwrap_or(NONE), Ordering::SeqCst);
    }

    /// Reads the span list in place.
    pub fn with_spans<T>(&self, read: impl FnOnce(&[Span]) -> T) -> T {
        read(&self.spans.lock().expect("span list lock poisoned"))
    }

    /// Total milliseconds and call count of spans called `name`
    /// recorded at index `from` or later.
    pub fn total(&self, name: &str, from: usize) -> (f64, u64) {
        let spans = self.spans.lock().expect("span list lock poisoned");
        spans[from.min(spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
    }

    /// How many spans are recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        self.with_spans(|spans| {
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"query\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.query,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
        })
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (children of parallel lanes may overlap, so
/// the covered part is the union of their intervals).
pub fn self_ms(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = me.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    ((me.end_ns - me.start_ns) - covered) as f64 / 1e6
}

/// Wraps a source so every `handle()` is spanned under the layer's name.
/// Everything else — the name, the out-of-band index and storage
/// reports, the epoch cell — passes straight through, so answers, wire
/// traffic and cache invalidation are exactly those of the bare source.
pub struct Traced {
    inner: Box<dyn WrapperServer>,
    span_name: &'static str,
    recorder: Arc<Recorder>,
}

impl Traced {
    /// Decorates `inner`; its `handle()` spans are called `span_name`
    /// (`oql.handle` or `wais.handle`).
    pub fn new(
        inner: Box<dyn WrapperServer>,
        span_name: &'static str,
        recorder: Arc<Recorder>,
    ) -> Traced {
        Traced {
            inner,
            span_name,
            recorder,
        }
    }
}

impl WrapperServer for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(&self, request: &Request) -> Response {
        let parent = match self.recorder.current_parent.load(Ordering::SeqCst) {
            NONE => None,
            id => Some(id),
        };
        self.recorder
            .span(self.span_name, parent, || self.inner.handle(request))
            .1
    }

    fn take_index_report(&self) -> Option<IndexReport> {
        self.inner.take_index_report()
    }

    fn take_storage_report(&self) -> Option<StorageReport> {
        self.inner.take_storage_report()
    }

    fn register_epoch(&self, epoch: Arc<AtomicU64>) {
        self.inner.register_epoch(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            query: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 10_000_000, None),
            span(1_000_000, 4_000_000, Some(0)),
            // overlaps the first child (parallel lanes): union is 1..6
            span(3_000_000, 6_000_000, Some(0)),
            // a grandchild does not count against the root
            span(1_000_000, 2_000_000, Some(1)),
        ];
        assert_eq!(self_ms(&spans, 0), 5.0);
        assert_eq!(self_ms(&spans, 1), 2.0);
        assert_eq!(self_ms(&spans, 2), 3.0);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let rec = Recorder::new();
        rec.begin_query(9);
        let (root, ()) = rec.span("root", None, || {});
        let (kid, ()) = rec.span("kid", Some(root), || {});
        let spans = rec.with_spans(<[Span]>::to_vec);
        assert_eq!(spans[kid].parent, Some(root));
        assert_eq!(spans[kid].query, 9);
        assert_eq!(rec.total("kid", 0).1, 1);
        assert_eq!(rec.total("kid", kid + 1).1, 0);
        assert!(rec.to_json().contains("\"name\": \"kid\""));
    }
}
