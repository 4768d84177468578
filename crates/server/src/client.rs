//! A blocking wire-protocol client for `yat-server`.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use yat_algebra::{BatchSink, CollectSink, EvalError, EvalOut};
use yat_capability::framing;
use yat_capability::protocol::{ClientRequest, ServerReply, ServerStats, StreamFrame};
use yat_capability::xml::WireError;

/// One client connection. Requests are answered in order on the same
/// stream; a connection can carry any number of them. The stream is a
/// TCP socket unless a test drives the client over a double.
pub struct Client<S = TcpStream> {
    stream: S,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        TcpStream::connect(addr)
            .map(Client::over)
            .map_err(|e| WireError::Io(format!("connect failed: {e}")))
    }

    /// Connects, retrying for up to `patience` — for racing a server
    /// that is still binding its port (the benchmark's driver against a
    /// just-spawned server).
    ///
    /// Retries back off exponentially from 5 ms, doubling up to 200 ms,
    /// with ±50 % seeded jitter, so a fleet of clients racing the same
    /// just-spawned server doesn't hammer the listen queue in lockstep.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        patience: Duration,
    ) -> Result<Client, WireError> {
        let start = Instant::now();
        // Seed from the thread id so concurrent clients jitter
        // differently, yet a replay on the same thread layout is
        // deterministic.
        let seed = {
            use std::hash::{Hash, Hasher};
            let mut h = std::hash::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish()
        };
        let mut rng = yat_prng::Rng::seed_from_u64(seed);
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Ok(Client::over(stream)),
                Err(e) if start.elapsed() >= patience => {
                    return Err(WireError::Io(format!(
                        "connect failed after {patience:?}: {e}"
                    )))
                }
                Err(_) => {
                    let delay = backoff_delay(attempt, rng.gen_f64());
                    attempt = attempt.saturating_add(1);
                    // Never sleep past the patience window.
                    let left = patience.saturating_sub(start.elapsed());
                    std::thread::sleep(delay.min(left));
                }
            }
        }
    }
}

impl<S: Read + Write> Client<S> {
    /// A client speaking over an already open `stream`.
    pub(crate) fn over(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Sends one request and reads its reply.
    pub fn roundtrip(&mut self, request: &ClientRequest) -> Result<ServerReply, WireError> {
        send(&mut self.stream, request)?;
        match framing::read_frame(&mut self.stream)? {
            Some(text) => Ok(ServerReply::decode(&text)?),
            None => Err(WireError::Io(
                "server closed the connection before replying".into(),
            )),
        }
    }

    /// Runs a YATL query, returning whatever the server replied
    /// (`Answer`, `Overloaded`, `Error`, …).
    pub fn query(&mut self, text: impl Into<String>) -> Result<ServerReply, WireError> {
        self.roundtrip(&ClientRequest::Query {
            text: text.into(),
            deadline_ms: None,
            stream: false,
        })
    }

    /// [`Client::query`] with a per-request deadline: the server refuses
    /// to start executing once `deadline_ms` has passed since admission.
    pub fn query_with_deadline(
        &mut self,
        text: impl Into<String>,
        deadline_ms: u64,
    ) -> Result<ServerReply, WireError> {
        self.roundtrip(&ClientRequest::Query {
            text: text.into(),
            deadline_ms: Some(deadline_ms),
            stream: false,
        })
    }

    /// Runs a YATL query with `stream="chunked"` negotiated: the answer
    /// arrives as `answer-chunk` frames and is reassembled here —
    /// byte-identical to what [`Client::query`] would have returned in
    /// one frame. A server that does not stream (or a pre-stream
    /// failure) answers with a single frame, which is returned as-is
    /// with `chunks == 0`.
    pub fn query_streamed(&mut self, text: impl Into<String>) -> Result<StreamedReply, WireError> {
        let request = ClientRequest::Query {
            text: text.into(),
            deadline_ms: None,
            stream: true,
        };
        send(&mut self.stream, &request)?;
        read_streamed_reply(&mut self.stream)
    }

    /// Runs a query as `EXPLAIN ANALYZE`, returning the rendered report
    /// (server-side timings appended).
    pub fn explain(&mut self, text: impl Into<String>) -> Result<ServerReply, WireError> {
        self.roundtrip(&ClientRequest::Explain { text: text.into() })
    }

    /// Fetches the server's gauges and counters.
    pub fn stats(&mut self) -> Result<ServerStats, WireError> {
        match self.roundtrip(&ClientRequest::Stats)? {
            ServerReply::Stats(stats) => Ok(stats),
            other => Err(WireError::Remote(format!(
                "expected server-stats, got <{}>",
                other.kind()
            ))),
        }
    }

    /// Asks the server to drain and exit; returns how many queries were
    /// still in flight when the drain began.
    pub fn shutdown(&mut self) -> Result<u64, WireError> {
        match self.roundtrip(&ClientRequest::Shutdown)? {
            ServerReply::Bye { drained } => Ok(drained),
            other => Err(WireError::Remote(format!(
                "expected bye, got <{}>",
                other.kind()
            ))),
        }
    }
}

/// Writes `request` as one frame in a single `write`: the only way a
/// client request reaches the socket. Written as header and payload,
/// the payload would wait behind Nagle's algorithm for the server to
/// acknowledge the header, and a server whose last answer began within
/// its delayed-ACK timeout (40 ms on Linux) holds that acknowledgement
/// back, however cheap the query. Replies are another matter: a
/// non-streamed reply still leaves as header and payload, so the
/// client's delayed ACK of the header holds the payload (~44 ms per
/// loopback round trip).
fn send(w: &mut impl Write, request: &ClientRequest) -> Result<(), WireError> {
    let mut text = String::new();
    request.encode(&mut text);
    let mut frame = Vec::with_capacity(4 + text.len());
    framing::write_frame(&mut frame, &text)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// The delay before retry number `attempt` (0-based) of
/// [`Client::connect_retry`]: exponential from a 5 ms base, doubling per
/// attempt, capped at 200 ms, with ±50 % uniform jitter drawn from
/// `unit` (a value in `[0, 1)`).
///
/// Pure so the schedule is testable without sleeping: the curve is
/// `base * 2^attempt`, and jitter scales the capped value into
/// `[0.5x, 1.5x)`.
pub(crate) fn backoff_delay(attempt: u32, unit: f64) -> Duration {
    const BASE_MS: f64 = 5.0;
    const CAP_MS: f64 = 200.0;
    let exp = BASE_MS * f64::powi(2.0, attempt.min(16) as i32);
    let capped = exp.min(CAP_MS);
    let jittered = capped * (0.5 + unit.clamp(0.0, 1.0));
    Duration::from_micros((jittered * 1000.0) as u64)
}

/// A streamed reply, reassembled client-side.
#[derive(Debug)]
pub struct StreamedReply {
    /// The reassembled reply: `Answer` when the stream completed, or
    /// whatever single frame the server fell back to (`Error`,
    /// `Overloaded`, …).
    pub reply: ServerReply,
    /// `answer-chunk` frames received (`0` for a single-frame reply).
    pub chunks: u64,
    /// Time from calling into the read to the first reply frame — the
    /// time-to-first-row a streaming consumer experiences.
    pub ttfr: Duration,
}

/// Reads one streamed reply off `reader` and reassembles it, enforcing
/// the stream invariants: chunk sequence numbers must be gapless and in
/// order, all chunks of one stream must share a shape (one column
/// layout, or one tree root whose chunks concatenate their top-level
/// subtrees — checked by the [`CollectSink`] that reassembles them), and
/// the `answer-end` frame's declared chunk and row counts must equal
/// what actually arrived. Every violation — including the connection
/// closing mid-stream — is a typed [`WireError`]; a short stream can
/// never silently read as a short answer.
///
/// A first frame that is not a stream frame is parsed as an ordinary
/// [`ServerReply`] and returned with `chunks == 0` (the single-frame
/// fallback path: errors, overload shedding, servers that predate
/// streaming).
///
/// Generic over [`Read`] so the frame-corruption tests can drive it
/// from in-memory byte streams.
pub(crate) fn read_streamed_reply(reader: &mut impl Read) -> Result<StreamedReply, WireError> {
    let start = Instant::now();
    let first = framing::read_frame(reader)?
        .ok_or_else(|| WireError::Io("server closed the connection before replying".into()))?;
    let ttfr = start.elapsed();
    let mut frame = match StreamFrame::decode(&first).map_err(WireError::from) {
        Ok(frame) => frame,
        Err(WireError::UnknownVerb(_)) => {
            return Ok(StreamedReply {
                reply: ServerReply::decode(&first)?,
                chunks: 0,
                ttfr,
            })
        }
        Err(e) => return Err(e),
    };
    // the in-process reassembly: shape, column and root checks included
    let mut sink = CollectSink::new();
    loop {
        let chunks = sink.chunks;
        match frame {
            StreamFrame::Chunk { seq, payload } => {
                if seq != chunks {
                    return Err(WireError::Stream(format!(
                        "answer-chunk seq {seq} arrived where {chunks} was expected"
                    )));
                }
                match payload {
                    EvalOut::Tab(batch) => {
                        if chunks == 0 {
                            sink.on_columns(batch.columns()).map_err(stream_error)?;
                        }
                        sink.on_batch(batch)
                    }
                    EvalOut::Tree(chunk) => sink.on_tree(&chunk),
                }
                .map_err(stream_error)?;
            }
            StreamFrame::End {
                chunks: declared,
                rows,
            } => {
                if declared != chunks {
                    return Err(WireError::Stream(format!(
                        "answer-end declares {declared} chunks but {chunks} arrived"
                    )));
                }
                let out = sink.into_answer().ok_or_else(|| {
                    WireError::Stream("answer-end arrived before any answer-chunk".into())
                })?;
                let got_rows = match &out {
                    EvalOut::Tab(t) => t.len() as u64,
                    EvalOut::Tree(t) => t.children.len() as u64,
                };
                if rows != got_rows {
                    return Err(WireError::Stream(format!(
                        "answer-end declares {rows} rows but {got_rows} arrived"
                    )));
                }
                return Ok(StreamedReply {
                    reply: ServerReply::Answer { out },
                    chunks,
                    ttfr,
                });
            }
            StreamFrame::Abort { message } => {
                return Err(WireError::Stream(format!(
                    "server aborted the stream after {chunks} chunks: {message}"
                )))
            }
        }
        let text = framing::read_frame(reader)?.ok_or_else(|| {
            WireError::Stream(format!(
                "connection closed mid-stream after {} chunks, before answer-end",
                sink.chunks
            ))
        })?;
        frame = StreamFrame::decode(&text).map_err(|e| match e.into() {
            WireError::UnknownVerb(v) => {
                WireError::Stream(format!("unexpected <{v}> frame mid-stream"))
            }
            other => other,
        })?;
    }
}

/// A [`CollectSink`] refusal, as the stream error it is on the wire.
fn stream_error(e: EvalError) -> WireError {
    match e {
        EvalError::Sink(message) => WireError::Stream(message),
        other => WireError::Stream(other.to_string()),
    }
}
