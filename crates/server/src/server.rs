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
//! the drain began.

use std::io::{self};
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
use yat_mediator::{Mediator, OptimizerOptions, StreamPolicy};
use yat_model::Tree;
use yat_obs::{attr, kind, Collector, SpanData};

// The worker pool shares one mediator by reference; this is the
// compile-time proof that doing so is sound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mediator>();
};

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
    reply: SyncSender<ServerReply>,
    /// Present when the client negotiated `stream="chunked"`: the worker
    /// delivers frames through it instead of `reply`.
    stream: Option<StreamJob>,
}

/// The streamed-reply half of a [`Job`].
struct StreamJob {
    /// Bounded frame channel (capacity = the stream policy's
    /// `max_pending`): a worker that produces batches faster than the
    /// connection thread can write them blocks in `send`, which
    /// backpressures the mediator's delivery loop — per-query memory
    /// stays bounded by `max_pending` serialized chunks.
    events: SyncSender<StreamEvent>,
    /// The worker blocks here after its terminal event until the
    /// connection thread has written the final frame, so a drain can
    /// never observe the query retired while its stream is still being
    /// written.
    done: Receiver<()>,
}

/// One message from a worker to the connection thread of a streamed
/// query. Frames are pre-serialized on the worker so the connection
/// thread only writes bytes.
enum StreamEvent {
    /// Fall back to one ordinary reply frame: errors before the first
    /// chunk (including deadline refusals) look exactly like their
    /// materialized counterparts.
    Reply(ServerReply),
    /// One `answer-chunk` frame.
    Chunk(String),
    /// The terminal frame: `answer-end`, or `stream-abort` after a
    /// mid-stream failure.
    End(String),
}

/// What [`admit`] hands back to the connection thread.
enum Admitted {
    /// One reply frame to write.
    Reply(ServerReply),
    /// A streamed answer: frames arrive on `events`; after writing the
    /// terminal frame the connection thread acks on `done`.
    Stream {
        events: Receiver<StreamEvent>,
        done: SyncSender<()>,
    },
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
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
        let shared = Arc::new(Shared {
            mediator,
            config,
            addr,
            obs: Collector::new(),
            sender: Mutex::new(Some(tx)),
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
        });
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

    /// The serving-layer spans recorded so far (`serve query` →
    /// `queue-wait` / `execute`, `respond`, `accept`).
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
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    loop {
        let el = match framing::read_element(&mut reader) {
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
                // truncated/oversized frame or socket failure: the frame
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
    match admit(shared, request, span.id(), depth) {
        Admitted::Reply(reply) => {
            if let ServerReply::Error { message } = &reply {
                span.record_str(attr::ERROR, message.clone());
            }
            respond(shared, writer, &reply)
        }
        Admitted::Stream { events, done } => stream_reply(shared, writer, events, done),
    }
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
    let (reply_tx, reply_rx) = sync_channel::<ServerReply>(1);
    // a negotiated stream gets its frame channel here, bounded by the
    // stream policy's pending budget
    let streamed = matches!(&request, ClientRequest::Query { stream: true, .. });
    let (stream_job, stream_admitted) = if streamed {
        let max_pending = match shared.mediator.stream_policy() {
            StreamPolicy::Chunked { max_pending, .. } => max_pending,
            StreamPolicy::Off => StreamPolicy::DEFAULT_MAX_PENDING,
        };
        let (events_tx, events_rx) = sync_channel::<StreamEvent>(max_pending.max(1));
        let (done_tx, done_rx) = sync_channel::<()>(1);
        (
            Some(StreamJob {
                events: events_tx,
                done: done_rx,
            }),
            Some((events_rx, done_tx)),
        )
    } else {
        (None, None)
    };
    let job = Job {
        request,
        admitted_at: Instant::now(),
        deadline,
        parent_span,
        started: started_tx,
        reply: reply_tx,
        stream: stream_job,
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
            if let Some((events, done)) = stream_admitted {
                return Admitted::Stream { events, done };
            }
            match reply_rx.recv() {
                Ok(reply) => Admitted::Reply(reply),
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::SeqCst);
                    Admitted::Reply(ServerReply::Error {
                        message: "query was dropped mid-execution (worker died)".into(),
                    })
                }
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
fn stream_reply(
    shared: &Shared,
    writer: &mut TcpStream,
    events: Receiver<StreamEvent>,
    done: SyncSender<()>,
) -> Result<(), WireError> {
    let mut span = shared.obs.span(kind::SERVER, "respond stream");
    let mut chunks = 0u64;
    let mut bytes = 0u64;
    loop {
        match events.recv() {
            Ok(StreamEvent::Reply(reply)) => {
                // single-frame fallback: nothing was streamed
                if let ServerReply::Error { message } = &reply {
                    span.record_str(attr::ERROR, message.clone());
                }
                let result = respond(shared, writer, &reply);
                let _ = done.send(());
                return result;
            }
            Ok(StreamEvent::Chunk(frame)) => {
                chunks += 1;
                bytes += frame.len() as u64;
                if let Err(e) = framing::write_frame(writer, &frame) {
                    span.record_str(attr::ERROR, e.to_string());
                    return Err(e);
                }
            }
            Ok(StreamEvent::End(frame)) => {
                bytes += frame.len() as u64;
                span.record_u64(attr::CHUNKS, chunks);
                span.record_u64(attr::BYTES_SENT, bytes);
                let result = framing::write_frame(writer, &frame);
                if let Err(e) = &result {
                    span.record_str(attr::ERROR, e.to_string());
                }
                // the ack after the final write is the drain guarantee:
                // the worker holds the query in flight until its stream
                // is fully on the wire
                let _ = done.send(());
                return result;
            }
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                let reply = ServerReply::Error {
                    message: "query was dropped mid-execution (worker died)".into(),
                };
                span.record_str(attr::ERROR, "query was dropped mid-execution (worker died)");
                return respond(shared, writer, &reply);
            }
        }
    }
}

/// Writes one reply frame under a `respond` span.
fn respond(shared: &Shared, writer: &mut TcpStream, reply: &ServerReply) -> Result<(), WireError> {
    let mut span = shared.obs.span(kind::SERVER, "respond");
    let text = reply.to_xml().to_xml();
    span.record_u64(attr::BYTES_SENT, text.len() as u64);
    let result = framing::write_frame(writer, &text);
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

        if let Some(stream) = &job.stream {
            let served = if expired {
                let _ = stream
                    .events
                    .send(StreamEvent::Reply(deadline_error(waited, job.deadline)));
                false
            } else {
                serve_streamed(
                    shared,
                    index,
                    in_flight,
                    &job.request,
                    job.parent_span,
                    stream,
                )
            };
            // the done-ack is the drain guarantee: the query stays in
            // flight until its stream is fully written (or the
            // connection thread is gone, which closes the channel)
            let _ = stream.done.recv();
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            if served {
                shared.served.fetch_add(1, Ordering::SeqCst);
            } else {
                shared.errors.fetch_add(1, Ordering::SeqCst);
            }
            continue;
        }

        let reply = if expired {
            // refused before execution: the client's budget is already
            // spent, running the plan would serve nobody
            deadline_error(waited, job.deadline)
        } else {
            let mut span = shared
                .obs
                .span_under(Some(job.parent_span), kind::SERVER, "execute");
            span.record_u64(attr::WORKER, index as u64);
            span.record_u64(attr::IN_FLIGHT, in_flight);
            match catch_unwind(AssertUnwindSafe(|| {
                execute(shared, &job.request, waited, index)
            })) {
                Ok(reply) => reply,
                Err(payload) => {
                    // panic containment: the worker survives to take the
                    // next job, the client learns what happened
                    let msg = panic_message(payload);
                    span.record_str(attr::ERROR, msg.clone());
                    ServerReply::Error {
                        message: format!("query panicked on worker {index}: {msg}"),
                    }
                }
            }
        };
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        match &reply {
            ServerReply::Answer { .. } | ServerReply::Explained { .. } => {
                shared.served.fetch_add(1, Ordering::SeqCst);
            }
            _ => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        let _ = job.reply.send(reply);
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
/// recalled, so the failure must be typed in-band). Returns whether the
/// query counts as served.
fn serve_streamed(
    shared: &Shared,
    index: usize,
    in_flight: u64,
    request: &ClientRequest,
    parent_span: usize,
    stream: &StreamJob,
) -> bool {
    let ClientRequest::Query { text, .. } = request else {
        let _ = stream.events.send(StreamEvent::Reply(ServerReply::Error {
            message: format!("verb `{}` is not streamable work", request.kind()),
        }));
        return false;
    };
    let mut span = shared
        .obs
        .span_under(Some(parent_span), kind::SERVER, "execute");
    span.record_u64(attr::WORKER, index as u64);
    span.record_u64(attr::IN_FLIGHT, in_flight);
    let chunks_sent = AtomicU64::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let sink = WireSink {
            events: &stream.events,
            chunks: &chunks_sent,
        };
        // tests latch production on what the client has observed
        #[cfg(test)]
        let sink = crate::tests::GatedSink::new(sink, shared.addr);
        let mut sink = sink;
        shared
            .mediator
            .query_stream_federated(text, OptimizerOptions::default(), &mut sink)
    }));
    let chunks = chunks_sent.load(Ordering::SeqCst);
    span.record_u64(attr::CHUNKS, chunks);
    let (event, served) = match outcome {
        Ok(Ok((stats, prov))) => {
            let (answered_by, missing) = wire_prov(&prov);
            (
                StreamEvent::End(
                    StreamFrame::End {
                        chunks: stats.chunks,
                        rows: stats.rows,
                        answered_by,
                        missing,
                    }
                    .to_xml()
                    .to_xml(),
                ),
                true,
            )
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
    };
    drop(span);
    let _ = stream.events.send(event);
    served
}

/// How a streamed query fails depends on whether frames already went
/// out: before the first chunk the failure is an ordinary error reply;
/// after it, a typed `stream-abort` terminal frame.
fn stream_failure(chunks_sent: u64, message: String) -> StreamEvent {
    if chunks_sent == 0 {
        StreamEvent::Reply(ServerReply::Error { message })
    } else {
        StreamEvent::End(StreamFrame::Abort { message }.to_xml().to_xml())
    }
}

/// The wire-side [`BatchSink`]: each batch becomes one pre-serialized
/// `answer-chunk` frame pushed through the job's bounded event channel.
/// A full channel blocks the producer (backpressure); a closed one (the
/// client hung up, a write failed) surfaces as a sink refusal that stops
/// the mediator's delivery loop instead of evaluating unwatched batches.
struct WireSink<'a> {
    events: &'a SyncSender<StreamEvent>,
    chunks: &'a AtomicU64,
}

impl WireSink<'_> {
    fn push(&mut self, payload: EvalOut) -> Result<(), EvalError> {
        let seq = self.chunks.load(Ordering::SeqCst);
        let frame = StreamFrame::Chunk { seq, payload }.to_xml().to_xml();
        self.events
            .send(StreamEvent::Chunk(frame))
            .map_err(|_| EvalError::Sink("client connection closed mid-stream".into()))?;
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
            match shared
                .mediator
                .query_federated(text, OptimizerOptions::default())
            {
                Ok((out, prov)) => {
                    let (answered_by, missing) = wire_prov(&prov);
                    ServerReply::Answer {
                        out,
                        answered_by,
                        missing,
                    }
                }
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

/// Renders an answer's provenance as wire attributes: `None`/`None` for
/// a complete answer (the frame stays byte-identical to the pre-
/// federation wire), both attributes when sources were skipped under
/// `PartialFailure::Degrade`.
fn wire_prov(prov: &yat_mediator::Provenance) -> (Option<String>, Option<String>) {
    if prov.is_degraded() {
        (Some(prov.answered_by_attr()), Some(prov.missing_attr()))
    } else {
        (None, None)
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
