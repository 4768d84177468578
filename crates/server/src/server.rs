//! The service: accept loop, admission queue, worker pool, drain.
//!
//! Threading model (one `Server`):
//!
//! ```text
//!             accept loop ──spawns──▶ connection threads (1 per client)
//!                                          │  try_send (bounded)
//!                                          ▼
//!                               admission queue (sync_channel)
//!                                          │  recv
//!                                          ▼
//!                               worker pool (N threads, one Mediator)
//! ```
//!
//! A connection thread parses frames and *admits* query work; it never
//! executes a plan itself. Admission is a `try_send` into a bounded
//! channel: when the queue is full the client is answered
//! [`ServerReply::Overloaded`] with a retry hint instead of being made
//! to wait — load is shed at the door, which keeps the tail latency of
//! admitted queries bounded by queue depth × service time. Workers
//! check the request's deadline *before* starting execution: a query
//! that already waited out its budget in the queue is refused cheaply
//! rather than executed for a client that has given up.
//!
//! Shutdown is a drain, not an abort: admission stops, the queue's
//! sender is dropped so workers exit once the backlog is empty, and the
//! `Bye` reply reports how many queries were still in the house when
//! the drain began. A query leaves the house only once its connection
//! thread has written its whole reply, materialized or streamed — or
//! given up on a client that stopped reading: a write that makes no
//! progress for [`WRITE_TIMEOUT`] closes the connection and retires the
//! query. A connection may idle between requests for as long as it
//! likes, but once a request frame's first byte has arrived the rest
//! must follow within [`READ_TIMEOUT`], or the connection closes as it
//! does on a truncated frame.

use std::cell::Cell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yat_algebra::{BatchSink, EvalError, EvalOut, Tab};
use yat_capability::framing;
use yat_capability::protocol::{ClientRequest, ServerReply, ServerStats, SourceGauge, StreamFrame};
use yat_capability::xml::WireError;
use yat_mediator::{Mediator, OptimizerOptions};
use yat_model::Tree;
use yat_obs::{attr, kind, Collector, SpanData};

// The worker pool shares one mediator by reference; this is the
// compile-time proof that doing so is sound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mediator>();
};

/// How many serving-layer spans a server keeps: the most recent ones,
/// about [`SPAN_LOG_CAP`] / 4 queries' worth (`serve query`, `queue-wait`,
/// `execute`, `respond`). A constant, not a setting — the log is for
/// looking at recent requests, and an unbounded one grows by every query
/// a long-running server ever served.
pub const SPAN_LOG_CAP: usize = 1024;

/// How long one write of a reply may block on a client that reads
/// nothing before the connection is closed. Without it a client that
/// stops reading a reply larger than the socket buffers would keep a
/// worker — and any drain — waiting forever. A client that reads
/// slowly but steadily is not cut: the limit applies to each 256 KiB
/// slice of a reply, not to the whole reply.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(3);

/// How long the rest of a request frame may take once its first byte
/// has arrived. Without it a client that sends part of a frame and stops
/// would hold its connection thread forever. The clock runs only inside
/// a frame: a connection that idles between requests is never cut.
pub const READ_TIMEOUT: Duration = Duration::from_secs(3);

/// The most one reply `write` hands the socket at once, so that a call
/// blocks only until the client has made room for one slice.
const WRITE_SLICE: usize = 256 << 10;

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing queries (at least 1).
    pub workers: usize,
    /// Admission-queue capacity; a `try_send` beyond it sheds the query
    /// with [`ServerReply::Overloaded`] (at least 1).
    pub queue_capacity: usize,
    /// Deadline applied to queries that do not carry their own
    /// `deadline-ms`. `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// The retry hint carried by `Overloaded` replies.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            retry_after_ms: 25,
        }
    }
}

/// One admitted piece of work, en route from a connection thread to a
/// worker.
struct Job {
    request: ClientRequest,
    admitted_at: Instant,
    deadline: Option<Duration>,
    /// Span id of the connection thread's `serve <kind>` span, so the
    /// worker's `execute` span stitches under it across threads.
    parent_span: usize,
    /// Closed (by dropping the sender) when a worker picks the job up —
    /// ends the connection thread's `queue-wait` span at the moment the
    /// wait actually ended.
    started: SyncSender<()>,
    /// Bounded reply channel (capacity = the stream policy's
    /// `max_pending`). A materialized query sends one
    /// [`StreamEvent::Reply`]; a streamed one (the client negotiated
    /// `stream="chunked"`) sends its chunks and a terminal frame, and a
    /// worker that produces batches faster than the connection thread
    /// can write them blocks in `send`, which backpressures the
    /// mediator's delivery loop — per-query memory stays bounded by
    /// `max_pending` serialized chunks.
    events: SyncSender<StreamEvent>,
    /// The worker blocks here after its last event until the connection
    /// thread has written it, so a drain can never observe the query
    /// retired while its reply is still being written.
    done: Receiver<()>,
}

/// One message from a worker to the connection thread of an admitted
/// query. Frames are pre-encoded on the worker so the connection
/// thread only writes bytes.
pub(crate) enum StreamEvent {
    /// One ordinary reply frame: a materialized answer, or a streamed
    /// query's error before its first chunk (including deadline
    /// refusals), which looks exactly like its materialized counterpart.
    Reply(ServerReply),
    /// One `answer-chunk` frame.
    Chunk(String),
    /// The terminal frame: `answer-end`, or `stream-abort` after a
    /// mid-stream failure.
    End(String),
}

/// What [`admit`] hands back to the connection thread.
enum Admitted {
    /// A refusal (overloaded, draining) to write at once.
    Reply(ServerReply),
    /// Admitted work: its reply arrives on `events`; after writing the
    /// last frame the connection thread acks on `done`.
    Queued {
        events: Receiver<StreamEvent>,
        done: SyncSender<()>,
    },
}

/// State shared by the accept loop, connection threads and workers.
pub(crate) struct Shared {
    mediator: Mediator,
    config: ServerConfig,
    addr: SocketAddr,
    obs: Collector,
    /// `Some` while admitting; `drain` takes it so workers exit once the
    /// backlog empties.
    sender: Mutex<Option<SyncSender<Job>>>,
    stop: AtomicBool,
    draining: AtomicBool,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
    connections: AtomicU64,
    admitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    /// A server's state before it admits anything: no admission queue,
    /// every gauge at zero.
    pub(crate) fn new(mediator: Mediator, config: ServerConfig, addr: SocketAddr) -> Shared {
        Shared {
            mediator,
            config,
            addr,
            obs: Collector::bounded(SPAN_LOG_CAP),
            sender: Mutex::new(None),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }
}

/// Spawns [`Server`]s; the unit struct exists so the entry points read
/// `Server::spawn(mediator, config)`.
pub struct Server;

impl Server {
    /// Binds a loopback port chosen by the OS and starts serving.
    pub fn spawn(mediator: Mediator, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::bind(mediator, config, ("127.0.0.1", 0))
    }

    /// Binds `addr` and starts serving: the accept loop and the worker
    /// pool run until [`ServerHandle::shutdown`] or a client's
    /// `Shutdown` request drains the server.
    pub fn bind(
        mediator: Mediator,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = sync_channel::<Job>(config.queue_capacity);
        let mut shared = Shared::new(mediator, config, addr);
        shared.sender = Mutex::new(Some(tx));
        let shared = Arc::new(shared);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("yat-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared, &rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("yat-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn accept thread")
        };
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// A running server: its address, live gauges, and the drain switch.
/// Dropping the handle drains and joins the server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current gauges and counters — the same numbers a `Stats` request
    /// answers with.
    pub fn stats(&self) -> ServerStats {
        build_stats(&self.shared)
    }

    /// The shared mediator (e.g. to install per-source latencies or
    /// inspect cache stats from the embedding process).
    pub fn mediator(&self) -> &Mediator {
        &self.shared.mediator
    }

    /// The most recent [`SPAN_LOG_CAP`] serving-layer spans (`serve query`
    /// → `queue-wait` / `execute`, `respond`, `accept`).
    pub fn spans(&self) -> Vec<SpanData> {
        self.shared.obs.spans()
    }

    /// Drains the server: stops admitting, waits for queued and
    /// executing queries to finish, then stops the accept loop. Returns
    /// how many queries were still queued or executing when the drain
    /// began. Idempotent.
    pub fn shutdown(&self) -> u64 {
        drain(&self.shared)
    }

    /// Waits for the accept loop and the worker pool to exit (they do
    /// after a drain).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        drain(&self.shared);
        self.join_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut span = shared.obs.span(kind::SERVER, "accept");
            span.record_u64(attr::QUEUE_DEPTH, shared.queue_depth.load(Ordering::SeqCst));
            span.record_u64(attr::IN_FLIGHT, shared.in_flight.load(Ordering::SeqCst));
        }
        let shared = shared.clone();
        // Per-connection panic containment: a handler bug takes down its
        // own thread, never the listener or the pool.
        let _ = std::thread::Builder::new()
            .name(format!("yat-conn-{id}"))
            .spawn(move || {
                if catch_unwind(AssertUnwindSafe(|| serve_connection(&shared, stream))).is_err() {
                    shared.errors.fetch_add(1, Ordering::SeqCst);
                }
            });
    }
}

/// Reads frames off one client connection until it closes (or the
/// framing breaks beyond recovery).
fn serve_connection(shared: &Shared, stream: TcpStream) {
    // a reply write that times out fails like any broken write: a
    // materialized reply still acks its worker, a streamed one drops its
    // channels and so stops its producer, and the connection closes
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(stream_for_reads) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(stream_for_reads);
    let mut writer = stream;
    loop {
        let read = framing::read_element(&mut reader);
        if reader.frame_done().is_err() {
            return;
        }
        let el = match read {
            Ok(Some(el)) => el,
            Ok(None) => return, // client hung up between frames
            Err(e @ WireError::Malformed(_)) => {
                // the frame was consumed whole — the stream is still
                // aligned, so answer the error and keep the connection
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let message = e.to_string();
                if respond(shared, &mut writer, &ServerReply::Error { message }).is_err() {
                    return;
                }
                continue;
            }
            Err(e) => {
                // truncated/oversized frame, a frame that stopped short
                // for READ_TIMEOUT, or socket failure: the frame
                // boundary is lost, so answer if possible and hang up
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let message = e.to_string();
                let _ = respond(shared, &mut writer, &ServerReply::Error { message });
                return;
            }
        };
        let request = match ClientRequest::from_xml(&el) {
            Ok(request) => request,
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let message = e.to_string();
                if respond(shared, &mut writer, &ServerReply::Error { message }).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            ClientRequest::Stats => {
                let reply = ServerReply::Stats(build_stats(shared));
                if respond(shared, &mut writer, &reply).is_err() {
                    return;
                }
            }
            ClientRequest::Shutdown => {
                let drained = drain_backlog(shared);
                // Bye goes out before the accept loop is released: a
                // process embedding the server may exit the moment
                // `join` returns, and the reply must already be on the
                // wire by then.
                let _ = respond(shared, &mut writer, &ServerReply::Bye { drained });
                stop_accepting(shared);
                return;
            }
            work => {
                if serve_work(shared, &mut writer, work).is_err() {
                    return;
                }
            }
        }
    }
}

/// The read half of a client connection. Blocks without a limit until a
/// frame's first byte arrives; from then on each read fails once
/// [`READ_TIMEOUT`] has passed since that byte, so the rest of the frame
/// arrives within it or the frame fails (within 2 × `READ_TIMEOUT` for a
/// client that trickles bytes). [`FrameReader::frame_done`] stops the
/// clock between frames.
struct FrameReader {
    stream: TcpStream,
    /// When the frame being read must be complete; `None` between frames.
    deadline: Option<Instant>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            deadline: None,
        }
    }

    /// Ends the current frame: the next read may block indefinitely.
    fn frame_done(&mut self) -> io::Result<()> {
        if self.deadline.take().is_some() {
            self.stream.set_read_timeout(None)?;
        }
        Ok(())
    }
}

impl io::Read for FrameReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let late = || {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("the rest of the frame did not arrive within {READ_TIMEOUT:?}"),
            )
        };
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(late());
        }
        let n = io::Read::read(&mut self.stream, buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut if self.deadline.is_some() => {
                late()
            }
            _ => e,
        })?;
        if n > 0 && self.deadline.is_none() {
            self.stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.deadline = Some(Instant::now() + READ_TIMEOUT);
        }
        Ok(n)
    }
}

/// Admits one `Query`/`Explain`, waits for its answer, writes it back —
/// all under a `serve <kind>` span so queue wait, execution (stitched
/// from the worker thread) and the response write line up as children.
fn serve_work(
    shared: &Shared,
    writer: &mut TcpStream,
    request: ClientRequest,
) -> Result<(), WireError> {
    let mut span = shared
        .obs
        .span(kind::SERVER, format!("serve {}", request.kind()));
    let depth = shared.queue_depth.load(Ordering::SeqCst);
    span.record_u64(attr::QUEUE_DEPTH, depth);
    span.record_u64(attr::IN_FLIGHT, shared.in_flight.load(Ordering::SeqCst));
    let streamed = matches!(&request, ClientRequest::Query { stream: true, .. });
    let (reply, done) = match admit(shared, request, span.id(), depth) {
        Admitted::Reply(reply) => (reply, None),
        Admitted::Queued { events, done } if streamed => {
            return without_nagle(writer, |writer| stream_reply(shared, writer, events, done));
        }
        Admitted::Queued { events, done } => {
            let reply = match events.recv() {
                Ok(StreamEvent::Reply(reply)) => reply,
                // a worker sends a materialized query nothing else; a
                // closed channel means it died with the job
                _ => {
                    shared.errors.fetch_add(1, Ordering::SeqCst);
                    ServerReply::Error {
                        message: "query was dropped mid-execution (worker died)".into(),
                    }
                }
            };
            (reply, Some(done))
        }
    };
    if let ServerReply::Error { message } = &reply {
        span.record_str(attr::ERROR, message.clone());
    }
    let result = respond(shared, writer, &reply);
    // the ack after the write is the drain guarantee: the worker holds
    // the query in flight until its reply is fully on the wire
    if let Some(done) = done {
        let _ = done.send(());
    }
    result
}

/// Runs `write` with `TCP_NODELAY` set on `stream`, then turns Nagle's
/// algorithm back on. A streamed reply is written this way: with Nagle
/// on, the tail of each frame waits for the client to acknowledge what
/// went before, and a client that is reading request/reply traffic
/// delays that acknowledgement by up to 40 ms (Linux), so whether an
/// answer stalled between chunks depended on timing. Other replies keep
/// the socket's defaults. Failing to set the option only costs latency,
/// so it is not an error.
pub(crate) fn without_nagle<T>(
    stream: &mut TcpStream,
    write: impl FnOnce(&mut TcpStream) -> T,
) -> T {
    let _ = stream.set_nodelay(true);
    let out = write(stream);
    let _ = stream.set_nodelay(false);
    out
}

/// The admission decision for one query.
fn admit(shared: &Shared, request: ClientRequest, parent_span: usize, depth: u64) -> Admitted {
    if shared.draining.load(Ordering::SeqCst) {
        shared.errors.fetch_add(1, Ordering::SeqCst);
        return Admitted::Reply(ServerReply::Error {
            message: "server is draining; no new queries admitted".into(),
        });
    }
    let deadline = match &request {
        ClientRequest::Query { deadline_ms, .. } => deadline_ms
            .map(Duration::from_millis)
            .or(shared.config.default_deadline),
        _ => shared.config.default_deadline,
    };
    let (started_tx, started_rx) = sync_channel::<()>(1);
    // the reply channel, bounded by the stream policy's pending budget
    let max_pending = shared.mediator.stream_policy().max_pending;
    let (events_tx, events_rx) = sync_channel::<StreamEvent>(max_pending.max(1));
    let (done_tx, done_rx) = sync_channel::<()>(1);
    let job = Job {
        request,
        admitted_at: Instant::now(),
        deadline,
        parent_span,
        started: started_tx,
        events: events_tx,
        done: done_rx,
    };
    let sender = shared
        .sender
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let Some(sender) = sender else {
        shared.errors.fetch_add(1, Ordering::SeqCst);
        return Admitted::Reply(ServerReply::Error {
            message: "server is draining; no new queries admitted".into(),
        });
    };
    match sender.try_send(job) {
        Ok(()) => {
            shared.admitted.fetch_add(1, Ordering::SeqCst);
            shared.queue_depth.fetch_add(1, Ordering::SeqCst);
            {
                let mut wait = shared.obs.span(kind::SERVER, "queue-wait");
                wait.record_u64(attr::QUEUE_DEPTH, depth);
                // returns when the worker signals pickup (or dies with
                // the job, which also closes the channel)
                let _ = started_rx.recv();
            }
            Admitted::Queued {
                events: events_rx,
                done: done_tx,
            }
        }
        Err(TrySendError::Full(_)) => {
            // load shedding: the queue is saturated, so refuse at the
            // door with a hint instead of queueing unboundedly
            shared.shed.fetch_add(1, Ordering::SeqCst);
            Admitted::Reply(ServerReply::Overloaded {
                retry_after_ms: shared.config.retry_after_ms,
            })
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            Admitted::Reply(ServerReply::Error {
                message: "server is draining; no new queries admitted".into(),
            })
        }
    }
}

/// Writes a streamed reply: chunk frames as the worker produces them,
/// then the terminal frame, then the done-ack that lets the worker
/// retire the query. Returning early on a write failure drops both
/// channel ends, which the worker observes as a refused sink (stops
/// producing) and an instant done-ack (retires the query).
pub(crate) fn stream_reply(
    shared: &Shared,
    writer: &mut TcpStream,
    events: Receiver<StreamEvent>,
    done: SyncSender<()>,
) -> Result<(), WireError> {
    let mut span = shared.obs.span(kind::SERVER, "respond stream");
    let mut chunks = 0u64;
    let mut bytes = 0u64;
    loop {
        // a vanished worker fails the query as its own failure would:
        // a plain error before the first chunk, `stream-abort` after it
        let event = events.recv().unwrap_or_else(|_| {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let message = "query was dropped mid-execution (worker died)";
            span.record_str(attr::ERROR, message);
            stream_failure(chunks, message.into())
        });
        match event {
            StreamEvent::Reply(reply) => {
                // single-frame fallback: nothing was streamed
                if let ServerReply::Error { message } = &reply {
                    span.record_str(attr::ERROR, message.clone());
                }
                let result = respond(shared, writer, &reply);
                let _ = done.send(());
                return result;
            }
            StreamEvent::Chunk(frame) => {
                chunks += 1;
                bytes += frame.len() as u64;
                if let Err(e) = write_reply_frame(writer, &frame) {
                    span.record_str(attr::ERROR, e.to_string());
                    return Err(e);
                }
            }
            StreamEvent::End(frame) => {
                bytes += frame.len() as u64;
                span.record_u64(attr::CHUNKS, chunks);
                span.record_u64(attr::BYTES_SENT, bytes);
                let result = write_reply_frame(writer, &frame);
                if let Err(e) = &result {
                    span.record_str(attr::ERROR, e.to_string());
                }
                // the ack after the final write is the drain guarantee:
                // the worker holds the query in flight until its stream
                // is fully on the wire
                let _ = done.send(());
                return result;
            }
        }
    }
}

/// Writes one reply frame, giving up on a client that stopped reading.
fn write_reply_frame(writer: &mut TcpStream, frame: &str) -> Result<(), WireError> {
    framing::write_frame(&mut Impatient(writer), frame)
}

/// A reply writer that gives up on a client that stopped reading. Each
/// `write` hands the socket at most [`WRITE_SLICE`] bytes, and the
/// socket's [`WRITE_TIMEOUT`] ends a call that cannot place them. A call
/// that ran into the timeout fails even when it placed part of its slice
/// (the socket then returns the short count): a client that needs longer
/// than the timeout to make room for one slice has stopped reading.
struct Impatient<'s>(&'s mut TcpStream);

impl io::Write for Impatient<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let slice = &buf[..buf.len().min(WRITE_SLICE)];
        let started = Instant::now();
        let placed = self.0.write(slice)?;
        if placed < slice.len() && started.elapsed() >= WRITE_TIMEOUT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("the client read nothing for {WRITE_TIMEOUT:?}"),
            ));
        }
        Ok(placed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Writes one reply frame under a `respond` span.
fn respond(shared: &Shared, writer: &mut TcpStream, reply: &ServerReply) -> Result<(), WireError> {
    let mut span = shared.obs.span(kind::SERVER, "respond");
    let mut text = String::new();
    reply.encode(&mut text);
    span.record_u64(attr::BYTES_SENT, text.len() as u64);
    let result = write_reply_frame(writer, &text);
    if let Err(e) = &result {
        span.record_str(attr::ERROR, e.to_string());
    }
    result
}

fn worker_loop(index: usize, shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        // Err means the sender was taken by `drain` and the backlog is
        // empty: the pool winds down.
        let Ok(job) = job else { break };
        // in_flight rises before queue_depth falls so the drain loop
        // never observes both zero while a job is in hand
        let in_flight = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        drop(job.started); // ends the client's queue-wait span
        let waited = job.admitted_at.elapsed();
        let expired = job.deadline.is_some_and(|d| waited > d);
        let streamed = matches!(&job.request, ClientRequest::Query { stream: true, .. });

        let (last, served) = if expired {
            // refused before execution: the client's budget is already
            // spent, running the plan would serve nobody
            (
                StreamEvent::Reply(deadline_error(waited, job.deadline)),
                false,
            )
        } else if streamed {
            serve_streamed(
                shared,
                index,
                in_flight,
                &job.request,
                job.parent_span,
                &job.events,
            )
        } else {
            let reply = serve_materialized(
                shared,
                index,
                in_flight,
                &job.request,
                job.parent_span,
                waited,
            );
            let served = matches!(
                reply,
                ServerReply::Answer { .. } | ServerReply::Explained { .. }
            );
            (StreamEvent::Reply(reply), served)
        };
        if served {
            shared.served.fetch_add(1, Ordering::SeqCst);
        } else {
            shared.errors.fetch_add(1, Ordering::SeqCst);
        }
        let _ = job.events.send(last);
        // the done-ack is the drain guarantee: the query stays in flight
        // until its reply is fully written (or the connection thread is
        // gone, which closes the channel)
        let _ = job.done.recv();
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executes one materialized request on a worker under its `execute`
/// span.
fn serve_materialized(
    shared: &Shared,
    index: usize,
    in_flight: u64,
    request: &ClientRequest,
    parent_span: usize,
    waited: Duration,
) -> ServerReply {
    let mut span = shared
        .obs
        .span_under(Some(parent_span), kind::SERVER, "execute");
    span.record_u64(attr::WORKER, index as u64);
    span.record_u64(attr::IN_FLIGHT, in_flight);
    match catch_unwind(AssertUnwindSafe(|| execute(shared, request, waited, index))) {
        Ok(reply) => reply,
        Err(payload) => {
            // panic containment: the worker survives to take the next
            // job, the client learns what happened
            let msg = panic_message(payload);
            span.record_str(attr::ERROR, msg.clone());
            ServerReply::Error {
                message: format!("query panicked on worker {index}: {msg}"),
            }
        }
    }
}

/// The refusal for a query whose deadline expired in the queue.
fn deadline_error(waited: Duration, allowed: Option<Duration>) -> ServerReply {
    ServerReply::Error {
        message: format!(
            "deadline expired in the admission queue (waited {}, allowed {})",
            yat_obs::profile::fmt_duration(waited),
            yat_obs::profile::fmt_duration(allowed.unwrap_or_default()),
        ),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// Executes one streamed query on a worker: the mediator's delivery
/// loop pushes each batch through [`WireSink`] as an `answer-chunk`
/// frame, and the terminal event is decided here — `answer-end` on
/// success, a plain error reply when nothing was streamed yet (so
/// pre-stream failures look exactly like materialized ones), or
/// `stream-abort` after the first chunk (delivered frames cannot be
/// recalled, so the failure must be typed in-band). Returns the
/// terminal event, still to be sent, and whether the query counts as
/// served.
fn serve_streamed(
    shared: &Shared,
    index: usize,
    in_flight: u64,
    request: &ClientRequest,
    parent_span: usize,
    events: &SyncSender<StreamEvent>,
) -> (StreamEvent, bool) {
    let ClientRequest::Query { text, .. } = request else {
        let message = format!("verb `{}` is not streamable work", request.kind());
        return (StreamEvent::Reply(ServerReply::Error { message }), false);
    };
    let mut span = shared
        .obs
        .span_under(Some(parent_span), kind::SERVER, "execute");
    span.record_u64(attr::WORKER, index as u64);
    span.record_u64(attr::IN_FLIGHT, in_flight);
    let chunks_sent = AtomicU64::new(0);
    let first_chunk = Cell::new(None);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let sink = WireSink {
            events,
            chunks: &chunks_sent,
            started,
            first_chunk: &first_chunk,
        };
        // tests latch production on what the client has observed
        #[cfg(test)]
        let sink = crate::tests::GatedSink::new(sink, shared.addr);
        let mut sink = sink;
        shared
            .mediator
            .query_stream(text, OptimizerOptions::default(), &mut sink)
    }));
    let chunks = chunks_sent.load(Ordering::SeqCst);
    span.record_u64(attr::CHUNKS, chunks);
    if let Some(first) = first_chunk.get() {
        span.record_u64(attr::FIRST_CHUNK_US, first.as_micros() as u64);
    }
    match outcome {
        Ok(Ok(stats)) => {
            let end = StreamFrame::End {
                chunks: stats.chunks,
                rows: stats.rows,
            };
            (StreamEvent::End(encode(&end)), true)
        }
        Ok(Err(e)) => {
            let message = e.to_string();
            span.record_str(attr::ERROR, message.clone());
            (stream_failure(chunks, message), false)
        }
        Err(payload) => {
            let msg = panic_message(payload);
            span.record_str(attr::ERROR, msg.clone());
            let message = format!("query panicked on worker {index}: {msg}");
            (stream_failure(chunks, message), false)
        }
    }
}

/// How a streamed query fails depends on whether frames already went
/// out: before the first chunk the failure is an ordinary error reply;
/// after it, a typed `stream-abort` terminal frame.
fn stream_failure(chunks_sent: u64, message: String) -> StreamEvent {
    if chunks_sent == 0 {
        StreamEvent::Reply(ServerReply::Error { message })
    } else {
        StreamEvent::End(encode(&StreamFrame::Abort { message }))
    }
}

/// One stream frame, encoded for the wire.
fn encode(frame: &StreamFrame) -> String {
    let mut text = String::new();
    frame.encode(&mut text);
    text
}

/// The wire-side [`BatchSink`]: each batch becomes one pre-encoded
/// `answer-chunk` frame pushed through the job's bounded event channel.
/// A full channel blocks the producer (backpressure); a closed one (the
/// client hung up, a write failed) surfaces as a sink refusal that stops
/// the mediator's delivery loop instead of evaluating unwatched batches.
struct WireSink<'a> {
    events: &'a SyncSender<StreamEvent>,
    chunks: &'a AtomicU64,
    /// When execution started, and when chunk 0 was accepted after it.
    started: Instant,
    first_chunk: &'a Cell<Option<Duration>>,
}

impl WireSink<'_> {
    fn push(&mut self, payload: EvalOut) -> Result<(), EvalError> {
        let seq = self.chunks.load(Ordering::SeqCst);
        let frame = encode(&StreamFrame::Chunk { seq, payload });
        self.events
            .send(StreamEvent::Chunk(frame))
            .map_err(|_| EvalError::Sink("client connection closed mid-stream".into()))?;
        if seq == 0 {
            self.first_chunk.set(Some(self.started.elapsed()));
        }
        self.chunks.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

impl BatchSink for WireSink<'_> {
    fn on_columns(&mut self, _columns: &[String]) -> Result<(), EvalError> {
        // every chunk repeats the layout inside its <tab> body
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        self.push(EvalOut::Tab(batch))
    }

    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
        self.push(EvalOut::Tree(tree.clone()))
    }
}

/// Runs one admitted request against the shared mediator.
fn execute(
    shared: &Shared,
    request: &ClientRequest,
    waited: Duration,
    worker: usize,
) -> ServerReply {
    match request {
        ClientRequest::Query { text, .. } => {
            match shared.mediator.query(text, OptimizerOptions::default()) {
                Ok(out) => ServerReply::Answer { out },
                Err(e) => ServerReply::Error {
                    message: e.to_string(),
                },
            }
        }
        ClientRequest::Explain { text } => {
            match shared
                .mediator
                .explain_query(text, OptimizerOptions::default())
            {
                Ok(explain) => {
                    let mut text = explain.render();
                    if !text.ends_with('\n') {
                        text.push('\n');
                    }
                    // the server-side view EXPLAIN ANALYZE cannot see
                    // from inside the executor: what happened between
                    // the socket and the worker
                    text.push_str(&format!(
                        "serving\n  worker {worker}; queue wait {}; gauges at dispatch: {} waiting, {} executing\n",
                        yat_obs::profile::fmt_duration(waited),
                        shared.queue_depth.load(Ordering::SeqCst),
                        shared.in_flight.load(Ordering::SeqCst),
                    ));
                    ServerReply::Explained { text }
                }
                Err(e) => ServerReply::Error {
                    message: e.to_string(),
                },
            }
        }
        // Stats/Shutdown are handled on the connection thread and never
        // reach the queue; answering defensively beats panicking.
        other => ServerReply::Error {
            message: format!("verb `{}` is not executable work", other.kind()),
        },
    }
}

fn build_stats(shared: &Shared) -> ServerStats {
    let cache = shared.mediator.cache_stats();
    let registry = shared.mediator.registry();
    let sources = shared
        .mediator
        .interfaces()
        .keys()
        .filter_map(|name| {
            shared.mediator.connection(name).map(|conn| {
                let member = registry.member(name);
                let cost = member.map(|m| m.cost.snapshot());
                SourceGauge {
                    name: name.clone(),
                    round_trips: conn.meter().snapshot().round_trips,
                    in_flight: conn.in_flight(),
                    group: member.map(|m| m.group.clone()),
                    ewma_latency_us: cost.as_ref().map_or(0, |c| c.ewma_latency_us as u64),
                    errors: cost.as_ref().map_or(0, |c| c.errors),
                }
            })
        })
        .collect();
    ServerStats {
        workers: shared.config.workers as u64,
        queue_capacity: shared.config.queue_capacity as u64,
        queue_depth: shared.queue_depth.load(Ordering::SeqCst),
        in_flight: shared.in_flight.load(Ordering::SeqCst),
        connections: shared.connections.load(Ordering::SeqCst),
        admitted: shared.admitted.load(Ordering::SeqCst),
        served: shared.served.load(Ordering::SeqCst),
        shed: shared.shed.load(Ordering::SeqCst),
        errors: shared.errors.load(Ordering::SeqCst),
        protocol_errors: shared.protocol_errors.load(Ordering::SeqCst),
        draining: shared.draining.load(Ordering::SeqCst),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        sources,
    }
}

/// The graceful drain: see the module docs. Returns the number of
/// queries that were queued or executing when the drain began.
fn drain(shared: &Shared) -> u64 {
    let drained = drain_backlog(shared);
    stop_accepting(shared);
    drained
}

/// Stops admission and waits for queued and executing queries to
/// finish; returns how many there were when the drain began.
fn drain_backlog(shared: &Shared) -> u64 {
    shared.draining.store(true, Ordering::SeqCst);
    let drained =
        shared.queue_depth.load(Ordering::SeqCst) + shared.in_flight.load(Ordering::SeqCst);
    // dropping the sender lets workers finish the backlog and then exit
    drop(
        shared
            .sender
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take(),
    );
    while shared.queue_depth.load(Ordering::SeqCst) > 0
        || shared.in_flight.load(Ordering::SeqCst) > 0
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    drained
}

/// Releases the accept loop so `join` can return.
fn stop_accepting(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    // the accept loop is blocked in `incoming()`; one throwaway
    // connection wakes it to observe `stop`
    let _ = TcpStream::connect(shared.addr);
}
