//! Byte-counted XML transport between mediator and wrappers.
//!
//! The paper deploys wrappers and mediator on different hosts (Fig. 2);
//! capability-based rewriting exists "to minimize the communication costs
//! between the sources and the mediator, as well as the conversion costs
//! to the middleware model" (Section 5.3). This transport makes those
//! costs observable: every request and response crosses the boundary as
//! serialized XML text which is parsed again on the other side — exactly
//! the work a networked deployment would do — and a [`Meter`] accumulates
//! the traffic. Every message crosses through the DOM-free
//! [`yat_capability::codec`] — a `<result>` in pieces of whole rows,
//! each read and handed on before the next is written. When
//! a [`yat_obs::Collector`] is attached
//! ([`Connection::call_traced`]) each round trip additionally records an
//! `rpc` span carrying the request kind and the same byte/document
//! counts, nested under whatever operator span is currently open.

use crate::policy::StreamPolicy;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use yat_algebra::Tab;
use yat_capability::codec::{DecodeError, ResultPieces, ResultReader};
use yat_capability::protocol::{Request, Response, WrapperServer};
use yat_capability::xml::WireError;
use yat_obs::{attr, kind, AttrValue, Collector};

/// Cumulative traffic statistics for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Bytes of serialized requests sent to the wrapper.
    pub bytes_sent: u64,
    /// Bytes of serialized responses received.
    pub bytes_received: u64,
    /// Number of round trips.
    pub round_trips: u64,
    /// Documents (trees) received, whether as whole documents or inside
    /// result tables.
    pub documents_received: u64,
}

impl MeterSnapshot {
    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

impl std::ops::Add for MeterSnapshot {
    type Output = MeterSnapshot;

    fn add(self, other: MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            round_trips: self.round_trips + other.round_trips,
            documents_received: self.documents_received + other.documents_received,
        }
    }
}

impl std::ops::Sub for MeterSnapshot {
    type Output = MeterSnapshot;

    /// Delta between two snapshots of the same monotonically-growing
    /// meter (saturating, so a reset between snapshots yields zeros
    /// rather than wrapping).
    fn sub(self, earlier: MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            documents_received: self
                .documents_received
                .saturating_sub(earlier.documents_received),
        }
    }
}

/// A shared traffic meter.
#[derive(Debug, Default, Clone)]
pub struct Meter {
    inner: Arc<Mutex<MeterSnapshot>>,
}

impl Meter {
    /// A fresh meter.
    pub fn new() -> Self {
        Meter::default()
    }

    fn lock(&self) -> MutexGuard<'_, MeterSnapshot> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current totals.
    pub fn snapshot(&self) -> MeterSnapshot {
        *self.lock()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        *self.lock() = MeterSnapshot::default();
    }

    fn record(&self, sent: u64, received: u64, documents: u64) {
        let mut m = self.lock();
        m.bytes_sent += sent;
        m.bytes_received += received;
        m.round_trips += 1;
        m.documents_received += documents;
    }
}

/// Simulated per-connection network delay, applied to every round trip.
///
/// The delay for one request is `base` plus a `jitter` fraction drawn
/// from a [`yat_prng::Rng`] seeded with `seed` *and a hash of the
/// serialized request text*. That makes the delay a pure function of the
/// request — independent of call order, thread interleaving or how many
/// other requests are in flight — so a parallel execution observes
/// exactly the per-request delays a sequential one would, and benchmark
/// comparisons between [`crate::ExecMode`]s are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    /// Fixed delay added to every round trip.
    pub base: Duration,
    /// Upper bound of the additional uniformly-drawn jitter.
    pub jitter: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Latency {
    /// A fixed delay with no jitter.
    pub fn fixed(base: Duration) -> Self {
        Latency {
            base,
            jitter: Duration::ZERO,
            seed: 0,
        }
    }

    /// The simulated delay for one serialized request.
    fn delay_for(&self, request_text: &str) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        use std::hash::Hasher;
        let mut h = yat_model::hash::Fnv64::new();
        h.write(request_text.as_bytes());
        let frac = yat_prng::Rng::seed_from_u64(self.seed ^ h.finish()).gen_f64();
        self.base + self.jitter.mul_f64(frac)
    }
}

/// Test-only wire fault injection: which leg of the round trip gets its
/// serialized text corrupted before re-parsing.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Mangle the serialized request before the wrapper parses it.
    CorruptRequest,
    /// Mangle the serialized response before the mediator parses it —
    /// for a `<result>`, its last piece, so earlier pieces have been
    /// handed on by the time the damage is read.
    CorruptResponse,
}

/// A metered connection to a wrapper.
pub struct Connection {
    server: Box<dyn WrapperServer>,
    meter: Meter,
    latency: Mutex<Option<Latency>>,
    timeout: Mutex<Option<Duration>>,
    /// The source's data version. Bumps when the underlying data is
    /// known (or suspected) to have changed; the answer cache records
    /// the epoch an answer was produced at and refuses entries older
    /// than its freshness window.
    epoch: Arc<AtomicU64>,
    /// Round trips currently on the wire. Parallel scatter lanes and
    /// server worker threads share one `Connection`, so this gauge is
    /// how the serving layer reports per-source load.
    in_flight: AtomicU64,
    /// The federation cost record this connection feeds, if it belongs
    /// to a registered member: every round trip observes its latency,
    /// bytes, and outcome.
    cost: Mutex<Option<Arc<yat_federate::CostRecord>>>,
    #[cfg(test)]
    fault: Mutex<Option<Fault>>,
}

/// One round trip counted in a connection's `in_flight` gauge. The
/// count drops with the guard, so a trip whose piece consumer panics
/// (the server's worker contains such a panic) is not left in flight.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        InFlight(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Connection {
    /// Connects to an in-process wrapper. The connection's epoch cell is
    /// handed to the wrapper, so servers over mutable stores bump it on
    /// every data change — cached answers stale out without anyone
    /// calling [`Connection::bump_epoch`] by hand.
    pub fn new(server: Box<dyn WrapperServer>) -> Self {
        let epoch = Arc::new(AtomicU64::new(0));
        server.register_epoch(epoch.clone());
        Connection {
            server,
            meter: Meter::new(),
            latency: Mutex::new(None),
            timeout: Mutex::new(None),
            epoch,
            in_flight: AtomicU64::new(0),
            cost: Mutex::new(None),
            #[cfg(test)]
            fault: Mutex::new(None),
        }
    }

    /// Attaches the federation cost record this connection feeds (set by
    /// the mediator when the source is registered as a group member).
    pub fn set_cost_record(&self, record: Option<Arc<yat_federate::CostRecord>>) {
        *self.cost.lock().unwrap_or_else(|e| e.into_inner()) = record;
    }

    /// The wrapper's advertised name.
    pub fn name(&self) -> &str {
        self.server.name()
    }

    /// The connection's meter.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The source's current data epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Round trips currently on the wire to this source.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Declares the source's data changed: subsequent cache lookups see
    /// the new epoch and drop answers recorded before it. Returns the
    /// new epoch.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The shared epoch cell itself — wrappers that learn about source
    /// changes out-of-band (replication feeds, tests) can hold a clone
    /// and bump it directly.
    pub fn epoch_cell(&self) -> Arc<AtomicU64> {
        self.epoch.clone()
    }

    /// Re-hands the epoch cell to the wrapper. After the underlying
    /// source is replaced in place — typically remounted from its
    /// persistent store following a restart — the replacement must both
    /// learn the cell (so future mutations keep invalidating) and raise
    /// it to its persisted epoch (so answers cached before the restart
    /// can never validate again).
    pub fn resync_epoch(&self) {
        self.server.register_epoch(self.epoch.clone());
    }

    /// Installs (or clears) the simulated network delay for this
    /// connection.
    pub fn set_latency(&self, latency: Option<Latency>) {
        *self.latency.lock().unwrap_or_else(|e| e.into_inner()) = latency;
    }

    /// The currently configured simulated delay.
    pub fn latency(&self) -> Option<Latency> {
        *self.latency.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs (or clears) a round-trip deadline. A round trip whose
    /// simulated delay exceeds the deadline fails with a [`WireError`]
    /// naming this connection; the meter stays untouched, exactly as for
    /// any other failed trip.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        *self.timeout.lock().unwrap_or_else(|e| e.into_inner()) = timeout;
    }

    /// Arms a one-shot wire fault for the next round trip.
    #[cfg(test)]
    pub(crate) fn inject_fault(&self, fault: Fault) {
        *self.fault.lock().unwrap_or_else(|e| e.into_inner()) = Some(fault);
    }

    #[cfg(test)]
    fn take_fault(&self) -> Option<Fault> {
        self.fault.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// The `rpc` span label of `request`: `<request-kind> @<wrapper>`,
    /// followed by the element set a pushed fragment names
    /// (`execute @xmlartwork elements={artist,style,title}`).
    fn rpc_label(&self, request: &Request) -> String {
        let label = format!("{} @{}", request.kind(), self.name());
        match request {
            Request::Execute { plan } | Request::ExecuteBatch { plan, .. } => {
                match plan.element_set() {
                    Some(set) => format!("{label} {set}"),
                    None => label,
                }
            }
            _ => label,
        }
    }

    /// One metered round trip: the request is serialized to XML text,
    /// re-parsed on the wrapper side, handled, and the response comes
    /// back the same way.
    pub fn call(&self, request: &Request) -> Result<Response, WireError> {
        self.call_traced(request, None)
    }

    /// [`Connection::call`] with an optional span collector: the round
    /// trip records an `rpc` span labeled `<request-kind> @<wrapper>`
    /// (plus a pushed fragment's element set) with the wrapper's name,
    /// bytes each way and documents received, or the wire error.
    ///
    /// A `<result>` crosses in pieces of
    /// [`StreamPolicy::DEFAULT_BATCH_ROWS`] rows, which are put back
    /// together into one table: a result is read the one way a streamed
    /// answer reads it, piece by piece.
    pub fn call_traced(
        &self,
        request: &Request,
        obs: Option<&Collector>,
    ) -> Result<Response, WireError> {
        let mut whole: Option<Tab> = None;
        let collect = &mut |piece: Tab| -> Result<(), Infallible> {
            match &mut whole {
                Some(tab) => tab.append(piece),
                None => whole = Some(piece),
            }
            Ok(())
        };
        match self.call_pieces(request, obs, StreamPolicy::DEFAULT_BATCH_ROWS, collect) {
            Ok(Some(response)) => Ok(response),
            Ok(None) => Ok(Response::Result(
                whole.expect("a result crosses in at least one piece"),
            )),
            Err(Cut::Wire(e)) => Err(e),
            Err(Cut::Consumer(never)) => match never {},
        }
    }

    /// [`Connection::call_traced`] with the answer handed on as it
    /// crosses. The wrapper answers whole; a `<result>` is then written
    /// and read `piece_rows` rows at a time, and each piece's table goes
    /// to `each` before the next piece is written. Returns `None` when
    /// the answer was a result — all of it went to `each` — and any
    /// other response whole.
    ///
    /// The wrapper's verdict (an error, a refusal, a panic, a timeout)
    /// is known before the first piece is written. A trip that fails
    /// after that, or that `each` refuses, leaves the meter untouched, as
    /// a failed trip always does; its `rpc` span records the error and
    /// the rows handed on before it. A refusal by `each` is not the
    /// source's failure, so the cost record does not see it. The span
    /// and the cost record's latency leave out the time spent in `each`.
    pub(crate) fn call_pieces<E>(
        &self,
        request: &Request,
        obs: Option<&Collector>,
        piece_rows: usize,
        each: &mut dyn FnMut(Tab) -> Result<(), E>,
    ) -> Result<Option<Response>, Cut<E>>
    where
        E: std::fmt::Display,
    {
        let mut span = obs.map(|c| {
            let mut span = c.span(kind::RPC, self.rpc_label(request));
            span.record_str(attr::SOURCE, self.name());
            span
        });
        let in_flight = InFlight::enter(&self.in_flight);
        let started = std::time::Instant::now();
        let mut handed = Handed::default();
        let outcome = self.round_trip(request, piece_rows, each, &mut handed);
        let elapsed = started.elapsed().saturating_sub(handed.time);
        if let Some(span) = span.as_mut() {
            span.exclude(handed.time);
        }
        drop(in_flight);
        // Index and storage accounting travel out-of-band: the wrapper
        // files a report per request under the calling thread, and the
        // transport drains it every round trip — failed and untraced ones
        // included — so a report never outlives its request.
        let report = self.server.take_index_report();
        let storage = self.server.take_storage_report();
        let observe = |bytes: u64, ok: bool| {
            if let Some(cost) = &*self.cost.lock().unwrap_or_else(|e| e.into_inner()) {
                cost.observe(elapsed, bytes, ok);
            }
        };
        match outcome {
            Ok((response, sent, received, documents)) => {
                if let Some(span) = span.as_mut() {
                    span.record_u64(attr::BYTES_SENT, sent);
                    span.record_u64(attr::BYTES_RECEIVED, received);
                    span.record_u64(attr::DOCUMENTS, documents);
                }
                self.meter.record(sent, received, documents);
                // A well-formed `Response::Error` or `Refused` is a
                // successful round trip on the wire but a failure of the
                // source: the cost record must see it, or a member that
                // answers every data request with an error would never
                // trip quarantine.
                let ok = !matches!(response, Some(Response::Error(_) | Response::Refused(_)));
                let executed = matches!(
                    request,
                    Request::Execute { .. } | Request::ExecuteBatch { .. }
                );
                if ok && executed {
                    if let (Some(obs), Some(r)) = (obs, report) {
                        obs.event(
                            kind::INDEX,
                            format!("{} @{}", r.collection, self.name()),
                            vec![
                                (attr::PROBES, AttrValue::Uint(r.probes)),
                                (attr::CANDIDATES, AttrValue::Uint(r.candidates)),
                                (attr::SCANNED, AttrValue::Uint(r.scanned)),
                                (attr::COLLECTION_SIZE, AttrValue::Uint(r.collection_size)),
                                (attr::ROWS_OUT, AttrValue::Uint(r.rows)),
                                (attr::EVALUATIONS, AttrValue::Uint(r.evaluations)),
                                (attr::SCAN_EVALUATIONS, AttrValue::Uint(r.scans)),
                            ],
                        );
                    }
                }
                // Storage accounting travels the same way, for document
                // fetches as well as pushed plans: only store-backed
                // sources ever produce a report.
                if ok && (executed || matches!(request, Request::GetDocument { .. })) {
                    if let (Some(obs), Some(r)) = (obs, storage) {
                        obs.event(
                            kind::STORAGE,
                            format!("{} @{}", r.collection, self.name()),
                            vec![
                                (attr::SEGMENTS, AttrValue::Uint(r.segments)),
                                (attr::RESIDENT, AttrValue::Uint(r.resident)),
                                (attr::SEGMENT_LOADS, AttrValue::Uint(r.loads)),
                                (attr::EVICTIONS, AttrValue::Uint(r.evictions)),
                                (attr::BYTES_READ, AttrValue::Uint(r.bytes_read)),
                            ],
                        );
                    }
                }
                observe(sent + received, ok);
                Ok(response)
            }
            Err(cut) => {
                if let Some(span) = span.as_mut() {
                    span.record_str(attr::ERROR, cut.to_string());
                    if handed.rows > 0 {
                        span.record_u64(attr::DOCUMENTS, handed.rows);
                    }
                }
                // a consumer that stops reading says nothing about the
                // source
                if let Cut::Wire(_) = cut {
                    observe(0, false);
                }
                Err(cut)
            }
        }
    }

    /// The wire itself. Nothing is metered here: a failed round trip
    /// must leave the [`Meter`] untouched so its totals only ever count
    /// traffic that actually produced a response.
    fn round_trip<E>(
        &self,
        request: &Request,
        piece_rows: usize,
        each: &mut dyn FnMut(Tab) -> Result<(), E>,
        handed: &mut Handed,
    ) -> Result<(Option<Response>, u64, u64, u64), Cut<E>> {
        let mut request_text = String::new();
        request.encode(&mut request_text);
        #[cfg(test)]
        let fault = self.take_fault();
        #[cfg(test)]
        if fault == Some(Fault::CorruptRequest) {
            corrupt(&mut request_text);
        }
        let sent = request_text.len() as u64;

        // Simulated network: the configured delay covers the whole round
        // trip. It is a pure function of the request text, so it does not
        // depend on which lane or in which order the request is sent.
        if let Some(latency) = self.latency() {
            let delay = latency.delay_for(&request_text);
            let timeout = *self.timeout.lock().unwrap_or_else(|e| e.into_inner());
            match timeout {
                Some(deadline) if delay > deadline => {
                    std::thread::sleep(deadline);
                    return Err(Cut::Wire(WireError::Timeout(format!(
                        "request to `{}` timed out after {deadline:?}",
                        self.name()
                    ))));
                }
                _ => std::thread::sleep(delay),
            }
        }

        // --- wrapper side -------------------------------------------------
        let request = Request::decode(&request_text)
            .map_err(|e| e.in_context("request did not survive the wire"))?;
        // A wrapper crash must surface as a wire error naming the source,
        // not take down the calling (possibly worker) thread.
        let response =
            catch_unwind(AssertUnwindSafe(|| self.server.handle(&request))).map_err(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                WireError::Remote(format!("wrapper `{}` panicked: {msg}", self.name()))
            })?;
        // -------------------------------------------------------------------
        let survive = |e: DecodeError| Cut::Wire(e.in_context("response did not survive the wire"));

        let Response::Result(tab) = response else {
            let mut response_text = String::new();
            response.encode(&mut response_text);
            #[cfg(test)]
            if fault == Some(Fault::CorruptResponse) {
                corrupt(&mut response_text);
            }
            let received = response_text.len() as u64;
            let response = Response::decode(&response_text).map_err(survive)?;
            let documents = match &response {
                // a fetched collection counts its member documents — the
                // unit the paper's conversion overhead scales with
                Response::Document { tree, .. } => (tree.children.len() as u64).max(1),
                _ => 0,
            };
            return Ok((Some(response), sent, received, documents));
        };

        // A result crosses piece by piece: each piece is written, read and
        // handed on before the next is written, so the consumer's first
        // rows wait for one piece's wire work, not the whole answer's.
        let mut pieces = ResultPieces::new(tab, piece_rows);
        let mut reader = ResultReader::new();
        let mut piece = String::new();
        let mut received = 0;
        while let Some(last) = pieces.write_next(&mut piece) {
            #[cfg(test)]
            if last && fault == Some(Fault::CorruptResponse) {
                corrupt(&mut piece);
            }
            received += piece.len() as u64;
            let rows = reader.read(&piece, last).map_err(survive)?;
            piece.clear();
            if let Some(rows) = rows {
                handed.rows += rows.len() as u64;
                let consumer = std::time::Instant::now();
                let consumed = each(rows);
                handed.time += consumer.elapsed();
                consumed.map_err(Cut::Consumer)?;
            }
        }
        Ok((None, sent, received, handed.rows))
    }
}

/// Why a round trip that hands its answer on in pieces
/// ([`Connection::call_pieces`]) stopped.
#[derive(Debug)]
pub(crate) enum Cut<E> {
    /// The wire or the wrapper failed.
    Wire(WireError),
    /// The consumer refused a piece.
    Consumer(E),
}

impl<E: std::fmt::Display> std::fmt::Display for Cut<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cut::Wire(e) => e.fmt(f),
            Cut::Consumer(e) => write!(f, "answer cut by its consumer: {e}"),
        }
    }
}

impl<E> From<WireError> for Cut<E> {
    fn from(e: WireError) -> Self {
        Cut::Wire(e)
    }
}

/// What a round trip handed on in pieces so far.
#[derive(Debug, Default)]
struct Handed {
    /// Rows handed on.
    rows: u64,
    /// Time spent in the consumer.
    time: std::time::Duration,
}

/// Truncates mid-element so the text is no longer well-formed XML.
#[cfg(test)]
fn corrupt(text: &mut String) {
    let cut = text.len() / 2;
    while !text.is_char_boundary(cut) {
        text.pop();
    }
    text.truncate(cut.min(text.len()));
    text.push('<');
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl WrapperServer for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn handle(&self, request: &Request) -> Response {
            match request {
                Request::GetDocument { name } => Response::Document {
                    name: name.clone(),
                    tree: yat_model::Node::sym(name.clone(), vec![yat_model::Node::atom(1)]),
                },
                _ => Response::Error("echo only serves documents".into()),
            }
        }
    }

    fn get_works() -> Request {
        Request::GetDocument {
            name: "works".into(),
        }
    }

    #[test]
    fn calls_are_metered_both_ways() {
        let c = Connection::new(Box::new(Echo));
        assert_eq!(c.name(), "echo");
        let r = c.call(&get_works()).unwrap();
        assert!(matches!(r, Response::Document { .. }));
        let m = c.meter().snapshot();
        assert_eq!(m.round_trips, 1);
        assert_eq!(m.documents_received, 1);
        assert!(m.bytes_sent > 0 && m.bytes_received > 0);
        assert_eq!(m.total_bytes(), m.bytes_sent + m.bytes_received);

        c.meter().reset();
        assert_eq!(c.meter().snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn epochs_start_at_zero_and_bump_through_the_shared_cell() {
        let c = Connection::new(Box::new(Echo));
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.bump_epoch(), 1);
        let cell = c.epoch_cell();
        cell.fetch_add(1, Ordering::SeqCst);
        assert_eq!(c.epoch(), 2, "out-of-band bumps are visible");
    }

    #[test]
    fn snapshots_add() {
        let a = MeterSnapshot {
            bytes_sent: 1,
            bytes_received: 2,
            round_trips: 3,
            documents_received: 4,
        };
        let b = a + a;
        assert_eq!(b.bytes_sent, 2);
        assert_eq!(b.documents_received, 8);
    }

    #[test]
    fn traced_calls_record_rpc_spans() {
        let c = Connection::new(Box::new(Echo));
        let obs = Collector::new();
        c.call_traced(&get_works(), Some(&obs)).unwrap();
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.kind, kind::RPC);
        assert_eq!(span.label, "get-document @echo");
        assert_eq!(
            span.attr(attr::SOURCE).map(|v| v.to_string()).as_deref(),
            Some("echo")
        );
        let m = c.meter().snapshot();
        assert_eq!(
            span.attr(attr::BYTES_SENT).and_then(|v| v.as_u64()),
            Some(m.bytes_sent)
        );
        assert_eq!(
            span.attr(attr::BYTES_RECEIVED).and_then(|v| v.as_u64()),
            Some(m.bytes_received)
        );
        assert_eq!(
            span.attr(attr::DOCUMENTS).and_then(|v| v.as_u64()),
            Some(m.documents_received)
        );
    }

    #[test]
    fn malformed_request_surfaces_wire_error_not_panic() {
        let c = Connection::new(Box::new(Echo));
        c.inject_fault(Fault::CorruptRequest);
        let err = c.call(&get_works()).unwrap_err();
        assert!(err.to_string().contains("request did not survive"), "{err}");
    }

    #[test]
    fn malformed_response_surfaces_wire_error_not_panic() {
        let c = Connection::new(Box::new(Echo));
        c.inject_fault(Fault::CorruptResponse);
        let err = c.call(&get_works()).unwrap_err();
        assert!(
            err.to_string().contains("response did not survive"),
            "{err}"
        );
    }

    #[test]
    fn latency_delay_is_a_pure_function_of_the_request() {
        let lat = Latency {
            base: Duration::from_millis(10),
            jitter: Duration::from_millis(10),
            seed: 42,
        };
        let a1 = lat.delay_for("<get-document name='works'/>");
        let a2 = lat.delay_for("<get-document name='works'/>");
        let b = lat.delay_for("<get-document name='persons'/>");
        assert_eq!(a1, a2, "same request → same delay, regardless of order");
        assert_ne!(a1, b, "jitter differs across requests");
        assert!(a1 >= lat.base && a1 <= lat.base + lat.jitter);
        // the draw is fixed across builds: a seeded benchmark sees the
        // same delays every run
        assert_eq!(a1, Duration::from_nanos(12_442_917));
        assert_eq!(b, Duration::from_nanos(13_970_553));
        assert_eq!(
            Latency::fixed(Duration::from_millis(5)).delay_for("anything"),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn simulated_latency_delays_but_still_answers() {
        let c = Connection::new(Box::new(Echo));
        c.set_latency(Some(Latency::fixed(Duration::from_millis(5))));
        let t0 = std::time::Instant::now();
        c.call(&get_works()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(c.meter().snapshot().round_trips, 1);
    }

    #[test]
    fn timeout_fails_the_trip_naming_the_source_and_leaves_the_meter() {
        let c = Connection::new(Box::new(Echo));
        c.set_latency(Some(Latency::fixed(Duration::from_millis(50))));
        c.set_timeout(Some(Duration::from_millis(2)));
        let t0 = std::time::Instant::now();
        let err = c.call(&get_works()).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "gives up at the deadline instead of sleeping the full delay"
        );
        assert!(err.to_string().contains("`echo` timed out"), "{err}");
        assert_eq!(c.meter().snapshot(), MeterSnapshot::default());

        // raising the deadline above the delay lets calls through again
        c.set_timeout(Some(Duration::from_millis(200)));
        c.call(&get_works()).unwrap();
        assert_eq!(c.meter().snapshot().round_trips, 1);
    }

    struct Grenade;

    impl WrapperServer for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }

        fn handle(&self, _request: &Request) -> Response {
            panic!("pulled the pin");
        }
    }

    #[test]
    fn wrapper_panic_becomes_a_wire_error_naming_the_source() {
        let c = Connection::new(Box::new(Grenade));
        let err = c.call(&get_works()).unwrap_err();
        assert!(
            err.to_string().contains("wrapper `grenade` panicked")
                && err.to_string().contains("pulled the pin"),
            "{err}"
        );
        // the failed trip never moved the meter and the connection object
        // (its mutexes included) is still healthy
        assert_eq!(c.meter().snapshot(), MeterSnapshot::default());
        c.call(&get_works()).unwrap_err();
    }

    #[test]
    fn in_flight_gauge_rises_during_a_trip_and_settles_back() {
        let c = Arc::new(Connection::new(Box::new(Echo)));
        assert_eq!(c.in_flight(), 0);
        c.set_latency(Some(Latency::fixed(Duration::from_millis(30))));
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || c.call(&get_works()).unwrap())
        };
        // sample while the simulated delay holds the trip on the wire
        let mut peak = 0;
        for _ in 0..100 {
            peak = peak.max(c.in_flight());
            if peak > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.join().unwrap();
        assert_eq!(peak, 1, "the trip was observable in flight");
        assert_eq!(c.in_flight(), 0, "gauge settles back after the trip");

        // failed trips settle back too
        c.set_latency(None);
        c.inject_fault(Fault::CorruptRequest);
        c.call(&get_works()).unwrap_err();
        assert_eq!(c.in_flight(), 0);
    }

    /// Answers every request with a table of `n` one-column rows.
    struct Rows(i64);

    impl WrapperServer for Rows {
        fn name(&self) -> &str {
            "rows"
        }

        fn handle(&self, _request: &Request) -> Response {
            let mut tab = Tab::new(vec!["n".to_string()]);
            for n in 0..self.0 {
                tab.push(vec![yat_algebra::Value::Tree(yat_model::Node::atom(n))]);
            }
            Response::Result(tab)
        }
    }

    #[test]
    fn a_panicking_piece_consumer_leaves_nothing_in_flight() {
        let c = Connection::new(Box::new(Rows(8)));
        let execute = Request::Execute {
            plan: yat_algebra::Alg::source("works"),
        };
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = c.call_pieces::<Infallible>(&execute, None, 2, &mut |_piece| {
                panic!("the consumer fell over")
            });
        }));
        assert!(unwound.is_err(), "the consumer's panic reaches the caller");
        assert_eq!(c.in_flight(), 0, "the unwound trip left the gauge");

        // the connection still answers, and settles back again
        let mut rows = 0;
        let answered = c.call_pieces::<Infallible>(&execute, None, 2, &mut |piece| {
            rows += piece.len();
            Ok(())
        });
        assert!(matches!(answered, Ok(None)));
        assert_eq!(rows, 8);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn meter_stays_consistent_after_failed_round_trips() {
        let c = Connection::new(Box::new(Echo));
        // a clean call to establish a baseline
        c.call(&get_works()).unwrap();
        let before = c.meter().snapshot();

        // failed round trips must not move the meter at all: counting the
        // request bytes of a trip that produced no response would break
        // total_bytes/round_trips invariants downstream
        c.inject_fault(Fault::CorruptRequest);
        c.call(&get_works()).unwrap_err();
        assert_eq!(c.meter().snapshot(), before);

        c.inject_fault(Fault::CorruptResponse);
        c.call(&get_works()).unwrap_err();
        assert_eq!(c.meter().snapshot(), before);

        // and the connection still works afterwards, resuming the counts
        c.call(&get_works()).unwrap();
        let after = c.meter().snapshot();
        assert_eq!(after.round_trips, before.round_trips + 1);
        assert_eq!(after.bytes_sent, before.bytes_sent * 2);

        // a traced failure records the error on the span, meter unchanged
        let obs = Collector::new();
        c.inject_fault(Fault::CorruptResponse);
        c.call_traced(&get_works(), Some(&obs)).unwrap_err();
        assert_eq!(c.meter().snapshot(), after);
        let spans = obs.spans();
        assert!(spans[0].attr(attr::ERROR).is_some());
    }
}
