//! A blocking wire-protocol client for `yat-server`.

use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use yat_algebra::EvalOut;
use yat_capability::framing;
use yat_capability::protocol::{ClientRequest, ServerReply, ServerStats, StreamFrame};
use yat_capability::xml::WireError;
use yat_model::{Node, Tree};

/// One client connection. Requests are answered in order on the same
/// stream; a connection can carry any number of them.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        TcpStream::connect(addr)
            .map(|stream| Client { stream })
            .map_err(|e| WireError::Io(format!("connect failed: {e}")))
    }

    /// Connects, retrying for up to `patience` — for racing a server
    /// that is still binding its port (the CI smoke test, `yat-load`
    /// against a just-spawned `yat-server`).
    ///
    /// Retries back off exponentially with seeded jitter (see
    /// [`backoff_delay`]) so a fleet of clients racing the same
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
                Ok(stream) => return Ok(Client { stream }),
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

    /// Sends one request and reads its reply.
    pub fn roundtrip(&mut self, request: &ClientRequest) -> Result<ServerReply, WireError> {
        framing::write_element(&mut self.stream, &request.to_xml())?;
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
        write_in_one(&mut self.stream, &request)?;
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

/// Writes `request` as one frame in a single `write`. Written as header
/// and payload, the payload waits behind Nagle's algorithm for the
/// server to acknowledge the header, and a server whose last answer
/// began within its delayed-ACK timeout (40 ms on Linux) holds that
/// acknowledgement back: a streamed query's time-to-first-row would jump
/// by the timeout whenever the previous answer was fast.
pub(crate) fn write_in_one(w: &mut impl Write, request: &ClientRequest) -> Result<(), WireError> {
    let text = request.to_xml().to_xml();
    framing::write_frame(&mut BufWriter::with_capacity(4 + text.len(), w), &text)
}

/// The delay before retry number `attempt` (0-based) of
/// [`Client::connect_retry`]: exponential from a 5 ms base, doubling per
/// attempt, capped at 200 ms, with ±50 % uniform jitter drawn from
/// `unit` (a value in `[0, 1)`).
///
/// Pure so the schedule is testable without sleeping: the curve is
/// `base * 2^attempt`, and jitter scales the capped value into
/// `[0.5x, 1.5x)`.
pub fn backoff_delay(attempt: u32, unit: f64) -> Duration {
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
/// subtrees), and the `answer-end` frame's declared
/// chunk and row counts must equal what actually arrived. Every
/// violation — including the connection closing mid-stream — is a typed
/// [`WireError`]; a short stream can never silently read as a short
/// answer.
///
/// A first frame that is not a stream frame is parsed as an ordinary
/// [`ServerReply`] and returned with `chunks == 0` (the single-frame
/// fallback path: errors, overload shedding, servers that predate
/// streaming).
///
/// Generic over [`Read`] so the frame-corruption tests can drive it
/// from in-memory byte streams.
pub fn read_streamed_reply(reader: &mut impl Read) -> Result<StreamedReply, WireError> {
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
    let mut answer: Option<EvalOut> = None;
    // the subtrees of every tree chunk after the first: the root is
    // rebuilt once, when the stream ends
    let mut more: Vec<Tree> = Vec::new();
    let mut chunks = 0u64;
    loop {
        match frame {
            StreamFrame::Chunk { seq, payload } => {
                if seq != chunks {
                    return Err(WireError::Stream(format!(
                        "answer-chunk seq {seq} arrived where {chunks} was expected"
                    )));
                }
                match (&mut answer, payload) {
                    (None, payload) => answer = Some(payload),
                    (Some(EvalOut::Tab(acc)), EvalOut::Tab(batch)) => {
                        if batch.columns() != acc.columns() {
                            return Err(WireError::Stream(format!(
                                "chunk columns {:?} differ from the stream's layout {:?}",
                                batch.columns(),
                                acc.columns()
                            )));
                        }
                        for row in batch.into_rows() {
                            acc.push(row);
                        }
                    }
                    (Some(EvalOut::Tree(acc)), EvalOut::Tree(chunk)) => {
                        if acc.label != chunk.label {
                            return Err(WireError::Stream(format!(
                                "tree chunk root `{}` differs from the stream's root `{}`",
                                chunk.label, acc.label
                            )));
                        }
                        more.extend(chunk.children.iter().cloned());
                    }
                    (Some(_), _) => {
                        return Err(WireError::Stream(
                            "stream mixes tree and table chunks".into(),
                        ))
                    }
                }
                chunks += 1;
            }
            StreamFrame::End {
                chunks: declared,
                rows,
                answered_by,
                missing,
            } => {
                if declared != chunks {
                    return Err(WireError::Stream(format!(
                        "answer-end declares {declared} chunks but {chunks} arrived"
                    )));
                }
                let out = match answer {
                    Some(EvalOut::Tree(root)) => EvalOut::Tree(Node::appended(&root, more)),
                    Some(out) => out,
                    None => {
                        return Err(WireError::Stream(
                            "answer-end arrived before any answer-chunk".into(),
                        ))
                    }
                };
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
                    reply: ServerReply::Answer {
                        out,
                        answered_by,
                        missing,
                    },
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
                "connection closed mid-stream after {chunks} chunks, before answer-end"
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
