//! End-to-end tests: a real `yat-server` on a loopback socket, real
//! clients, the paper's cultural-goods federation behind it.

use crate::client::{read_streamed_reply, StreamedReply};
use crate::load::{LoadMode, LoadSpec};
use crate::{load, Client, Server, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{Cursor, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::Duration;
use yat_algebra::{BatchSink, CollectSink, EvalError, EvalOut, Tab, Value};
use yat_capability::framing;
use yat_capability::protocol::{ClientRequest, ServerReply, StreamFrame};
use yat_capability::xml::WireError;
use yat_mediator::{ExecMode, Mediator, OptimizerOptions, StreamPolicy};
use yat_model::Node;
use yat_obs::{attr, kind};
use yat_oql::art::{art_store, ArtSpec};
use yat_oql::O2Wrapper;
use yat_prng::Rng;
use yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat_yatl::paper;

/// The Fig. 2 federation at a small scale: O2 artifacts + Wais works +
/// view1, the same construction `yat-bench`'s `workload::Scenario` uses.
fn federation(scale: usize) -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts: scale,
            persons: (scale / 5).max(2),
            seed: 42,
        }),
    )))
    .expect("fresh mediator accepts the O2 wrapper");
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new(
            "works",
            &generate_works(&WorksSpec {
                works: scale,
                impressionist_pct: 30,
                optional_pct: 60,
                giverny_pct: 30,
                seed: 42,
            }),
        ),
    )))
    .expect("fresh mediator accepts the Wais wrapper");
    m.load_program(paper::VIEW1).expect("view1 is well-formed");
    m
}

/// Spins until `condition` holds — the tests' way of ordering themselves
/// behind a server-side state change they cannot be told about. Bounded,
/// so a condition that never comes is a failure, not a hang.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !condition() {
        assert!(start.elapsed() < LATCH_PATIENCE, "gave up waiting: {what}");
        std::thread::yield_now();
    }
}

/// Serialized reply bytes for an in-process answer — the byte-identity
/// yardstick the wire must match.
fn expected_answer(mediator: &Mediator, query: &str) -> String {
    let out = mediator
        .query(query, OptimizerOptions::default())
        .expect("paper query answers in-process");
    ServerReply::answer(out).to_xml().to_xml()
}

#[test]
fn socket_answers_are_byte_identical_to_in_process_answers() {
    let reference = federation(12);
    let handle = Server::spawn(federation(12), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for query in [paper::Q1, paper::Q2] {
        let reply = client.query(query).expect("query round-trips");
        assert_eq!(
            reply.to_xml().to_xml(),
            expected_answer(&reference, query),
            "wire answer must be byte-identical to the in-process answer"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn eight_clients_two_hundred_seeded_queries_all_verified() {
    let reference = federation(8);
    let mut expected = HashMap::new();
    for query in [paper::Q1, paper::Q2] {
        expected.insert(query.to_string(), expected_answer(&reference, query));
    }
    let handle = Server::spawn(
        federation(8),
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let spec = LoadSpec {
        expected: Some(expected),
        ..LoadSpec::closed(vec![paper::Q1.to_string(), paper::Q2.to_string()])
    };
    assert_eq!((spec.clients, spec.queries), (8, 200));
    let report = load::run(handle.addr(), &spec);
    assert_eq!(report.answered, 200, "{report:?}");
    assert_eq!(report.mismatches, 0, "every answer byte-identical");
    assert!(report.clean(), "{report:?}");
    let stats = handle.stats();
    assert_eq!(stats.served, 200);
    assert!(stats.connections >= 8);
    assert_eq!(stats.queue_depth, 0, "queue empties when the run ends");
    assert_eq!(stats.in_flight, 0);
    assert!(
        stats.sources.iter().any(|s| s.name == "o2artifact")
            && stats.sources.iter().any(|s| s.name == "xmlartwork"),
        "per-source gauges name both wrappers: {:?}",
        stats.sources
    );
    assert!(stats.sources.iter().all(|s| s.in_flight == 0));
    assert!(stats.sources.iter().any(|s| s.round_trips > 0));
}

#[test]
fn overload_sheds_only_when_the_queue_is_saturated() {
    let handle = Server::spawn(
        federation(6),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            retry_after_ms: 5,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();

    // unsaturated: a lone client never sees Overloaded
    let mut solo = Client::connect(addr).expect("client connects");
    for _ in 0..3 {
        let reply = solo.query(paper::Q1).expect("query round-trips");
        assert!(matches!(reply, ServerReply::Answer { .. }), "{reply:?}");
    }
    assert_eq!(handle.stats().shed, 0, "no shedding without saturation");

    // saturated: the one worker parked on a latched stream, the one
    // queue slot taken — every further query is shed at the door
    let parked = ParkedStream::open(&handle, paper::Q1);
    std::thread::scope(|scope| {
        let queued = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("client connects");
            client.query(paper::Q1).expect("query round-trips")
        });
        wait_until("1 queued", || handle.stats().queue_depth >= 1);
        for _ in 0..4 {
            let reply = solo.query(paper::Q1).expect("query round-trips");
            assert!(
                matches!(reply, ServerReply::Overloaded { retry_after_ms: 5 }),
                "a saturated queue sheds at the door: {reply:?}"
            );
        }
        // the worker kept serving what it had admitted
        let streamed = parked.finish();
        assert!(matches!(streamed.reply, ServerReply::Answer { .. }));
        let reply = queued.join().unwrap();
        assert!(matches!(reply, ServerReply::Answer { .. }), "{reply:?}");
    });
    assert_eq!(handle.stats().shed, 4);
}

#[test]
fn deadlines_expire_in_the_queue_without_executing() {
    let handle = Server::spawn(
        federation(6),
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    // occupy the lone worker
    let parked = ParkedStream::open(&handle, paper::Q1);
    std::thread::scope(|scope| {
        let hurried = scope.spawn(move || {
            Client::connect(addr)
                .expect("client connects")
                .query_with_deadline(paper::Q1, 1)
                .expect("deadline refusal still round-trips")
        });
        wait_until("1 queued", || handle.stats().queue_depth >= 1);
        // a lower bound, not a race: the queued query has now waited out
        // its 1 ms budget before the worker frees up
        std::thread::sleep(Duration::from_millis(5));
        let blocker = parked.finish();
        assert!(matches!(blocker.reply, ServerReply::Answer { .. }));
        match hurried.join().unwrap() {
            ServerReply::Error { message } => {
                assert!(message.contains("deadline expired"), "{message}")
            }
            other => panic!("expected a deadline error, got {other:?}"),
        }
    });
    let stats = handle.stats();
    assert!(stats.errors >= 1);
}

#[test]
fn hostile_frames_leave_the_server_alive_and_the_connection_usable() {
    let handle = Server::spawn(federation(6), ServerConfig::default()).expect("server binds");
    let addr = handle.addr();

    // a well-framed payload that is not XML: typed error, stream stays up
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    framing::write_frame(&mut stream, "<unclosed").expect("frame writes");
    match framing::read_element(&mut stream).expect("reply arrives") {
        Some(el) => {
            let reply = ServerReply::from_xml(&el).expect("reply parses");
            assert!(matches!(reply, ServerReply::Error { .. }), "{reply:?}");
        }
        None => panic!("server hung up instead of answering the error"),
    }
    // a wrapper verb on the client port: rejected, stream still up
    framing::write_frame(&mut stream, "<get-interface/>").expect("frame writes");
    let el = framing::read_element(&mut stream)
        .expect("reply arrives")
        .expect("reply present");
    match ServerReply::from_xml(&el).expect("reply parses") {
        ServerReply::Error { message } => assert!(message.contains("unknown"), "{message}"),
        other => panic!("{other:?}"),
    }
    // and the same connection still executes real queries afterwards
    framing::write_element(
        &mut stream,
        &ClientRequest::Query {
            text: paper::Q1.into(),
            deadline_ms: None,
            stream: false,
        }
        .to_xml(),
    )
    .expect("frame writes");
    let el = framing::read_element(&mut stream)
        .expect("reply arrives")
        .expect("reply present");
    assert!(matches!(
        ServerReply::from_xml(&el).expect("reply parses"),
        ServerReply::Answer { .. }
    ));

    // an oversized header poisons only its own connection
    let mut bomber = TcpStream::connect(addr).expect("raw connect");
    {
        use std::io::Write as _;
        bomber
            .write_all(&[0xff, 0xff, 0xff, 0xff])
            .expect("header writes");
    }
    let el = framing::read_element(&mut bomber)
        .expect("reply arrives")
        .expect("reply present");
    match ServerReply::from_xml(&el).expect("reply parses") {
        ServerReply::Error { message } => assert!(message.contains("frame"), "{message}"),
        other => panic!("{other:?}"),
    }

    // the server itself is untouched: fresh clients still get answers
    let mut client = Client::connect(addr).expect("client connects");
    assert!(matches!(
        client.query(paper::Q1).expect("query round-trips"),
        ServerReply::Answer { .. }
    ));
    let stats = handle.stats();
    assert!(stats.protocol_errors >= 3, "{stats:?}");
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    // one worker, parked on a latched stream, so the three queries
    // behind it provably sit in the queue when the drain begins
    let handle = Server::spawn(
        federation(6),
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    let parked = ParkedStream::open(&handle, paper::Q2);
    let (drained, streamed, outcomes) = std::thread::scope(|scope| {
        let queriers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    client.query(paper::Q2).expect("query round-trips")
                })
            })
            .collect();
        wait_until("3 queued", || handle.stats().queue_depth >= 3);
        let drain = scope.spawn(move || {
            Client::connect(addr)
                .expect("client connects")
                .shutdown()
                .expect("shutdown round-trips")
        });
        wait_until("the drain begins", || handle.stats().draining);
        let stats = handle.stats();
        assert_eq!((stats.in_flight, stats.queue_depth), (1, 3), "{stats:?}");
        let streamed = parked.finish();
        let outcomes: Vec<_> = queriers.into_iter().map(|h| h.join().unwrap()).collect();
        (drain.join().unwrap(), streamed, outcomes)
    });
    assert_eq!(drained, 4, "shutdown found the four queries to drain");
    for reply in outcomes.iter().chain([&streamed.reply]) {
        assert!(
            matches!(reply, ServerReply::Answer { .. }),
            "queued and in-flight queries complete through the drain: {reply:?}"
        );
    }
    let stats = handle.stats();
    assert!(stats.draining);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.served, 4);
    // the drain stops the accept loop and the pool; join returns
    handle.join();
}

#[test]
fn draining_server_refuses_new_queries() {
    let handle = Server::spawn(federation(6), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    // one round trip first: `connect` only proves the kernel queued the
    // connection, and a shutdown racing the accept loop may drop it
    // unserved. An *established* session must get the polite refusal.
    client.stats().expect("session is established");
    assert_eq!(handle.shutdown(), 0, "idle server has nothing to drain");
    match client.query(paper::Q1).expect("refusal round-trips") {
        ServerReply::Error { message } => assert!(message.contains("draining"), "{message}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn explain_over_the_wire_carries_the_serving_section() {
    let handle = Server::spawn(federation(8), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    match client.explain(paper::Q1).expect("explain round-trips") {
        ServerReply::Explained { text } => {
            assert!(text.contains("serving"), "{text}");
            assert!(text.contains("worker "), "{text}");
            assert!(text.contains("queue wait"), "{text}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn serving_spans_stitch_queue_wait_and_execute_under_one_request() {
    let handle = Server::spawn(federation(6), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    client.query(paper::Q1).expect("query round-trips");
    // a connection serves its requests strictly in order, and the `serve
    // query` span closes (recording its attributes) only after the reply
    // is written — so a second round trip on the same connection is the
    // latch that orders this thread after that close
    client.stats().expect("stats round-trips");
    let spans = handle.spans();
    let serve = spans
        .iter()
        .find(|s| s.kind == kind::SERVER && s.label == "serve query")
        .expect("serve span recorded");
    assert!(serve.attr(attr::QUEUE_DEPTH).is_some());
    assert!(serve.attr(attr::IN_FLIGHT).is_some());
    let children: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == Some(serve.id))
        .collect();
    assert!(
        children.iter().any(|s| s.label == "queue-wait"),
        "{children:?}"
    );
    let execute = children
        .iter()
        .find(|s| s.label == "execute")
        .expect("execute span stitched under the request across threads");
    assert!(execute.attr(attr::WORKER).is_some());
    assert!(spans
        .iter()
        .any(|s| s.kind == kind::SERVER && s.label == "accept"));
    assert!(spans
        .iter()
        .any(|s| s.kind == kind::SERVER && s.label == "respond"));
}

#[test]
fn open_loop_load_measures_from_the_schedule() {
    let handle = Server::spawn(federation(6), ServerConfig::default()).expect("server binds");
    let report = load::run(
        handle.addr(),
        &LoadSpec {
            clients: 2,
            queries: 10,
            seed: 7,
            mode: LoadMode::Open { offered_qps: 200.0 },
            deadline_ms: None,
            stream: false,
            mix: vec![paper::Q1.to_string()],
            expected: None,
        },
    );
    assert_eq!(report.answered, 10, "{report:?}");
    assert!(report.clean());
    assert!(report.p50_ms() > 0.0);
    assert!(report.p99_ms() >= report.p50_ms());
}

/// A federation like [`federation`], but with independently sized
/// sources — the streaming tests want a `works` collection much larger
/// than the artifacts extent.
fn works_federation(works: usize, artifacts: usize) -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts,
            persons: (artifacts / 5).max(2),
            seed: 42,
        }),
    )))
    .expect("fresh mediator accepts the O2 wrapper");
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new(
            "works",
            &generate_works(&WorksSpec {
                works,
                impressionist_pct: 30,
                optional_pct: 60,
                giverny_pct: 30,
                seed: 42,
            }),
        ),
    )))
    .expect("fresh mediator accepts the Wais wrapper");
    m.load_program(paper::VIEW1).expect("view1 is well-formed");
    m
}

/// A full scan of the Wais works collection — one answer subtree per
/// work, so chunk counts are exact.
const WORKS_SCAN: &str = "MAKE out *($t2) := r [ $t2 ] MATCH works WITH works *work [ title: $t2 ]";

#[test]
fn streamed_wire_answers_are_byte_identical_and_chunked() {
    let reference = federation(12);
    let mut mediator = federation(12);
    mediator.set_stream_policy(StreamPolicy::Chunked {
        batch_rows: 4,
        max_pending: 4,
    });
    let handle = Server::spawn(mediator, ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    // a client that does not negotiate streaming still gets single-frame
    // answers, byte-identical to a non-streaming server's
    for query in [paper::Q1, paper::Q2, WORKS_SCAN] {
        let reply = client.query(query).expect("query round-trips");
        assert_eq!(
            reply.to_xml().to_xml(),
            expected_answer(&reference, query),
            "single-frame answer unchanged by the server's stream policy"
        );
    }
    // the same queries streamed: the reassembled answer is byte-identical
    for query in [paper::Q1, paper::Q2, WORKS_SCAN] {
        let streamed = client.query_streamed(query).expect("stream round-trips");
        assert_eq!(
            streamed.reply.to_xml().to_xml(),
            expected_answer(&reference, query),
            "reassembled stream must be byte-identical to the single frame"
        );
        assert!(
            streamed.chunks >= 1,
            "an answer stream has at least one chunk"
        );
    }
    // 12 works in 4-subtree chunks: exactly 3
    let streamed = client
        .query_streamed(WORKS_SCAN)
        .expect("stream round-trips");
    assert_eq!(streamed.chunks, 3, "12 subtrees / 4 per batch");
    // the respond path records its chunk counters
    let spans = handle.spans();
    let respond = spans
        .iter()
        .find(|s| s.kind == kind::SERVER && s.label == "respond stream")
        .expect("streamed responses get their own respond span");
    assert!(respond.attr(attr::CHUNKS).is_some());
    assert!(respond.attr(attr::BYTES_SENT).is_some());
}

#[test]
fn corrupted_chunk_streams_yield_typed_errors_never_short_answers() {
    fn batch(rows: &[i64]) -> EvalOut {
        let mut tab = Tab::new(vec!["n".to_string()]);
        for &n in rows {
            tab.push(vec![Value::Atom(n.into())]);
        }
        EvalOut::Tab(tab)
    }
    fn frame_bytes(frame: &StreamFrame) -> Vec<u8> {
        let mut buf = Vec::new();
        framing::write_element(&mut buf, &frame.to_xml()).expect("frame writes");
        buf
    }
    let frames = [
        frame_bytes(&StreamFrame::Chunk {
            seq: 0,
            payload: batch(&[1, 2]),
        }),
        frame_bytes(&StreamFrame::Chunk {
            seq: 1,
            payload: batch(&[3, 4]),
        }),
        frame_bytes(&StreamFrame::Chunk {
            seq: 2,
            payload: batch(&[5]),
        }),
        frame_bytes(&StreamFrame::End {
            chunks: 3,
            rows: 5,
            answered_by: None,
            missing: None,
        }),
    ];
    let full: Vec<u8> = frames.concat();

    // control: the intact stream reassembles completely
    let ok = read_streamed_reply(&mut Cursor::new(full.clone())).expect("intact stream parses");
    assert_eq!(ok.chunks, 3);
    match &ok.reply {
        ServerReply::Answer {
            out: EvalOut::Tab(t),
            ..
        } => assert_eq!(t.len(), 5),
        other => panic!("expected a 5-row answer, got {other:?}"),
    }

    // seeded truncation sweep: cutting the byte stream anywhere —
    // mid-header, mid-frame, between frames — must surface as an error,
    // never as a silently shorter answer
    let mut rng = Rng::seed_from_u64(0x0057_EA77);
    for _ in 0..64 {
        let cut = rng.gen_range(0..full.len());
        let result = read_streamed_reply(&mut Cursor::new(full[..cut].to_vec()));
        let reply = result.map(|r| r.reply);
        assert!(
            reply.is_err(),
            "truncation at byte {cut} parsed as {reply:?}"
        );
    }

    // every structural corruption is a typed stream error
    let stream_err = |frames: &[&Vec<u8>]| -> WireError {
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        read_streamed_reply(&mut Cursor::new(bytes)).expect_err("corrupt stream must not parse")
    };
    // reordered chunks: the seq gap is refused at the first wrong frame
    let err = stream_err(&[&frames[1], &frames[0], &frames[2], &frames[3]]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("seq")),
        "{err}"
    );
    // a dropped chunk is a seq gap too
    let err = stream_err(&[&frames[0], &frames[2], &frames[3]]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("seq")),
        "{err}"
    );
    // answer-end declaring the wrong chunk count
    let end = frame_bytes(&StreamFrame::End {
        chunks: 2,
        rows: 5,
        answered_by: None,
        missing: None,
    });
    let err = stream_err(&[&frames[0], &frames[1], &frames[2], &end]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("chunks")),
        "{err}"
    );
    // answer-end declaring the wrong row count
    let end = frame_bytes(&StreamFrame::End {
        chunks: 3,
        rows: 4,
        answered_by: None,
        missing: None,
    });
    let err = stream_err(&[&frames[0], &frames[1], &frames[2], &end]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("rows")),
        "{err}"
    );
    // answer-end with no chunks at all
    let end = frame_bytes(&StreamFrame::End {
        chunks: 0,
        rows: 0,
        answered_by: None,
        missing: None,
    });
    let err = stream_err(&[&end]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("before any")),
        "{err}"
    );
    // a mid-stream abort is surfaced as the typed abort error
    let abort = frame_bytes(&StreamFrame::Abort {
        message: "lane died".into(),
    });
    let err = stream_err(&[&frames[0], &abort]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("aborted")),
        "{err}"
    );
    // a non-stream frame mid-stream is refused
    let mut foreign = Vec::new();
    framing::write_element(
        &mut foreign,
        &ServerReply::Error {
            message: "surprise".into(),
        }
        .to_xml(),
    )
    .expect("frame writes");
    let err = stream_err(&[&frames[0], &foreign]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("mid-stream")),
        "{err}"
    );
    // chunks that change shape mid-stream are refused
    let tree_chunk = frame_bytes(&StreamFrame::Chunk {
        seq: 1,
        payload: EvalOut::Tree(Node::sym("out", vec![Node::elem("r", "x")])),
    });
    let err = stream_err(&[&frames[0], &tree_chunk]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("mixes")),
        "{err}"
    );
    // chunks that change column layout mid-stream are refused
    let mut other_tab = Tab::new(vec!["m".to_string()]);
    other_tab.push(vec![Value::Atom(9i64.into())]);
    let odd = frame_bytes(&StreamFrame::Chunk {
        seq: 1,
        payload: EvalOut::Tab(other_tab),
    });
    let err = stream_err(&[&frames[0], &odd]);
    assert!(
        matches!(&err, WireError::Stream(m) if m.contains("columns")),
        "{err}"
    );
    // an oversized declared frame length is the framing layer's problem
    let bomb = vec![0xff, 0xff, 0xff, 0xff];
    let err = stream_err(&[&frames[0], &bomb]);
    assert!(matches!(err, WireError::FrameTooLarge { .. }), "{err}");
}

/// Latches by server address. The first streamed query a server with a
/// registered latch executes stops producing right after it has queued
/// its first chunk, until the test sends on (or drops) the latch — so
/// "the client saw chunk 0 while the answer was still incomplete" is an
/// ordering the test forces, not one it hopes the clock shows.
static FIRST_CHUNK_LATCHES: Mutex<BTreeMap<SocketAddr, Receiver<()>>> = Mutex::new(BTreeMap::new());

/// What `serve_streamed` wraps its wire sink in under `cfg(test)`.
pub(crate) struct GatedSink<S> {
    inner: S,
    latch: Option<Receiver<()>>,
}

impl<S: BatchSink> GatedSink<S> {
    pub(crate) fn new(inner: S, server: SocketAddr) -> Self {
        let latch = FIRST_CHUNK_LATCHES.lock().unwrap().remove(&server);
        GatedSink { inner, latch }
    }

    fn after_chunk(&mut self) -> Result<(), EvalError> {
        match self.latch.take().map(|l| l.recv_timeout(LATCH_PATIENCE)) {
            Some(Err(RecvTimeoutError::Timeout)) => Err(EvalError::Sink(
                "the test never released the first-chunk latch".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// Far beyond any scheduling delay: a latch that times out is a test
/// that forgot to release it, reported as a stream abort, not a hang.
const LATCH_PATIENCE: Duration = Duration::from_secs(60);

impl<S: BatchSink> BatchSink for GatedSink<S> {
    fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError> {
        self.inner.on_columns(columns)
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        self.inner.on_batch(batch)?;
        self.after_chunk()
    }

    fn on_tree(&mut self, tree: &yat_model::Tree) -> Result<(), EvalError> {
        self.inner.on_tree(tree)?;
        self.after_chunk()
    }
}

/// A streamed query whose worker is parked behind its server's
/// first-chunk latch: the first `answer-chunk` frame has been read off
/// the socket, the rest of the answer is unproduced.
struct ParkedStream {
    release: Sender<()>,
    socket: TcpStream,
    first: yat_xml::Element,
}

impl ParkedStream {
    /// Registers a first-chunk latch on `handle`'s server, sends `query`
    /// streamed over a raw socket and reads up to the first chunk.
    fn open(handle: &crate::ServerHandle, query: &str) -> ParkedStream {
        let (release, latch) = channel();
        FIRST_CHUNK_LATCHES
            .lock()
            .unwrap()
            .insert(handle.addr(), latch);
        let mut socket = TcpStream::connect(handle.addr()).expect("client connects");
        let request = ClientRequest::Query {
            text: query.to_string(),
            deadline_ms: None,
            stream: true,
        };
        framing::write_element(&mut socket, &request.to_xml()).expect("request is written");
        let first = framing::read_element(&mut socket)
            .expect("first frame reads")
            .expect("server answers");
        assert!(
            matches!(
                StreamFrame::from_xml(&first),
                Ok(StreamFrame::Chunk { seq: 0, .. })
            ),
            "{first:?}"
        );
        ParkedStream {
            release,
            socket,
            first,
        }
    }

    /// Opens the latch and reads the rest of the stream, replaying the
    /// frame already consumed in front of what is still on the wire.
    fn finish(self) -> StreamedReply {
        self.release
            .send(())
            .expect("the worker is waiting on the latch");
        let mut head = Vec::new();
        framing::write_element(&mut head, &self.first).expect("frame re-encodes");
        read_streamed_reply(&mut Cursor::new(head).chain(&self.socket))
            .expect("the rest of the stream arrives once the latch opens")
    }
}

#[test]
fn first_chunk_lands_before_the_answer_completes() {
    // 200 subtrees in 16-subtree chunks: 13 chunks, of which the worker
    // may produce only the first until the latch opens
    let reference = works_federation(200, 8);
    let mut mediator = works_federation(200, 8);
    mediator.set_stream_policy(StreamPolicy::Chunked {
        batch_rows: 16,
        max_pending: 8,
    });
    let handle = Server::spawn(mediator, ServerConfig::default()).expect("server binds");
    let parked = ParkedStream::open(&handle, WORKS_SCAN);
    // chunk 0 is in the client's hands and the worker is parked behind
    // the latch with twelve chunks still to produce: the query cannot
    // have retired
    let stats = handle.stats();
    assert_eq!((stats.in_flight, stats.served), (1, 0), "{stats:?}");

    let streamed = parked.finish();
    assert_eq!(streamed.chunks, 13, "200 subtrees / 16 per batch");
    assert_eq!(
        streamed.reply.to_xml().to_xml(),
        expected_answer(&reference, WORKS_SCAN),
        "the latched stream reassembles to the materialized answer"
    );
}

#[test]
fn graceful_shutdown_finishes_in_flight_streams_before_bye() {
    let reference = federation(12);
    let mut mediator = federation(12);
    mediator.set_stream_policy(StreamPolicy::Chunked {
        batch_rows: 2,
        max_pending: 2,
    });
    let handle = Server::spawn(
        mediator,
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    let parked = ParkedStream::open(&handle, paper::Q2);
    let (drained, streamed) = std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            Client::connect(addr)
                .expect("client connects")
                .shutdown()
                .expect("shutdown round-trips")
        });
        // the drain has begun and the stream is still in the house: only
        // now may it finish
        wait_until("the drain begins", || handle.stats().draining);
        assert_eq!(handle.stats().in_flight, 1, "the parked stream");
        let streamed = parked.finish();
        (drain.join().unwrap(), streamed)
    });
    assert_eq!(drained, 1, "nothing but the stream was in the house");
    assert!(
        matches!(streamed.reply, ServerReply::Answer { .. }),
        "a partially streamed answer finishes through the drain: {:?}",
        streamed.reply
    );
    assert_eq!(
        streamed.reply.to_xml().to_xml(),
        expected_answer(&reference, paper::Q2),
        "the drained stream is complete, not a silent prefix"
    );
    assert!(streamed.chunks >= 1);
    let stats = handle.stats();
    assert!(stats.draining);
    assert_eq!(stats.in_flight, 0);
    handle.join();
}

#[test]
fn hundred_thousand_row_answers_stream_with_bounded_gather() {
    // the acceptance-criterion run: a >=100k-subtree answer, streamed
    // under the parallel executor. The scatter gather may never buffer
    // more than its lane budget (the bounded rendezvous channel,
    // observed through the `peak_pending` gauge) and the answer boundary
    // works in `DEFAULT_BATCH_ROWS`-subtree chunks.
    let lanes = 4;
    let mut mediator = works_federation(100_000, 8);
    mediator.set_cache_policy(yat_mediator::CachePolicy::Off);
    mediator.set_exec_mode(ExecMode::Parallel {
        max_in_flight: lanes,
    });
    let plan = mediator.plan_query(WORKS_SCAN).expect("query plans");
    let (optimized, _) = mediator.optimize(&plan, OptimizerOptions::default());

    mediator.set_stream_policy(StreamPolicy::Off);
    let expected = mediator.execute(&optimized).expect("materialized answer");

    mediator.set_stream_policy(StreamPolicy::chunked());
    let collector = yat_obs::Collector::new();
    let mut sink = CollectSink::new();
    let stats = mediator
        .execute_stream_traced(&optimized, &mut sink, Some(&collector))
        .expect("streamed answer");
    assert!(stats.rows >= 100_000, "answer has {} rows", stats.rows);
    assert_eq!(
        stats.chunks,
        stats.rows.div_ceil(StreamPolicy::DEFAULT_BATCH_ROWS as u64),
        "chunks cut at the default batch budget"
    );
    let streamed = sink.into_answer().expect("stream delivered an answer");
    assert_eq!(
        ServerReply::answer(streamed).to_xml().to_xml(),
        ServerReply::answer(expected).to_xml().to_xml(),
        "100k-row streamed answer byte-identical to the materialized one"
    );

    let spans = collector.spans();
    let stream_span = spans
        .iter()
        .find(|s| s.kind == kind::STREAM)
        .expect("streamed delivery records its span");
    assert_eq!(
        stream_span.attr(attr::BATCH_ROWS).and_then(|v| v.as_u64()),
        Some(StreamPolicy::DEFAULT_BATCH_ROWS as u64)
    );
    assert_eq!(
        stream_span.attr(attr::CHUNKS).and_then(|v| v.as_u64()),
        Some(stats.chunks)
    );
    let scatter = spans
        .iter()
        .find(|s| s.kind == kind::PHASE && s.label == "scatter")
        .expect("parallel execution records the scatter phase");
    let peak = scatter
        .attr(attr::PEAK_PENDING)
        .and_then(|v| v.as_u64())
        .expect("the gather gauge is recorded");
    assert!(
        peak <= lanes as u64,
        "gather buffered {peak} results against a budget of {lanes}"
    );
}

#[test]
fn gather_gauge_stays_within_the_lane_budget_on_multi_source_plans() {
    // Q2 pushes work to both sources: two scatter jobs racing two lanes.
    // The gauge must show the bounded channel held, and the streamed
    // answer must still be byte-identical to the materialized one.
    let lanes = 2;
    let mut mediator = federation(12);
    mediator.set_cache_policy(yat_mediator::CachePolicy::Off);
    mediator.set_exec_mode(ExecMode::Parallel {
        max_in_flight: lanes,
    });
    let plan = mediator.plan_query(paper::Q2).expect("query plans");
    let (optimized, _) = mediator.optimize(&plan, OptimizerOptions::default());
    let expected = mediator.execute(&optimized).expect("materialized answer");
    mediator.set_stream_policy(StreamPolicy::Chunked {
        batch_rows: 2,
        max_pending: 2,
    });
    let collector = yat_obs::Collector::new();
    let mut sink = CollectSink::new();
    mediator
        .execute_stream_traced(&optimized, &mut sink, Some(&collector))
        .expect("streamed answer");
    let streamed = sink.into_answer().expect("stream delivered an answer");
    assert_eq!(
        ServerReply::answer(streamed).to_xml().to_xml(),
        ServerReply::answer(expected).to_xml().to_xml()
    );
    let spans = collector.spans();
    let scatter = spans
        .iter()
        .find(|s| s.kind == kind::PHASE && s.label == "scatter")
        .expect("parallel execution records the scatter phase");
    let peak = scatter
        .attr(attr::PEAK_PENDING)
        .and_then(|v| v.as_u64())
        .expect("the gather gauge is recorded");
    assert!(peak >= 1, "two source jobs must flow through the gather");
    assert!(
        peak <= lanes as u64,
        "gather buffered {peak} results against a budget of {lanes}"
    );
}

#[test]
fn workers_share_one_compiled_program_per_plan() {
    // the VM engine on a shared mediator: concurrent workers answering
    // the same queries must reuse one compiled program per distinct
    // optimized plan (compile once, execute many), and the wire answers
    // must stay byte-identical to the interpreter's
    let reference = federation(12);
    let mut vm_mediator = federation(12);
    vm_mediator.set_exec_engine(yat_mediator::ExecEngine::Vm);
    let handle = Server::spawn(
        vm_mediator,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    let reference = &reference;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for _ in 0..3 {
                    for query in [paper::Q1, paper::Q2] {
                        let reply = client.query(query).expect("query round-trips");
                        assert_eq!(
                            reply.to_xml().to_xml(),
                            expected_answer(reference, query),
                            "vm wire answer must match the interpreter's"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(
        handle.mediator().programs_compiled(),
        2,
        "24 queries over 4 workers compile exactly one program per distinct plan"
    );
    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------- federation

/// [`federation`] with the works collection split into a two-shard
/// partition group; the shard named in `dead` connects but fails every
/// data request.
fn sharded_federation(scale: usize, dead: &[&str]) -> Mediator {
    use yat_mediator::{Dead, MemberRole};
    let works = generate_works(&WorksSpec {
        works: scale,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    let style_of = |w: &yat_model::Tree| -> String {
        w.children
            .iter()
            .find(|c| matches!(&c.label, yat_model::Label::Sym(s) if s.as_str() == "style"))
            .and_then(|c| c.children.first())
            .map(|v| format!("{}", v.label))
            .unwrap_or_default()
    };
    let split = |keep: &dyn Fn(&str) -> bool| {
        Node::labeled(
            works.label.clone(),
            works
                .children
                .iter()
                .filter(|w| keep(&style_of(w)))
                .cloned()
                .collect(),
        )
    };
    let imp = split(&|s| s.contains("Impressionist") && !s.contains("Post"));
    let rest = split(&|s| !s.contains("Impressionist") || s.contains("Post"));
    let shard = |values: &[&str]| MemberRole::Shard {
        field: "style".into(),
        values: values.iter().map(|s| s.to_string()).collect(),
    };
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts: scale,
            persons: (scale / 5).max(2),
            seed: 42,
        }),
    )))
    .unwrap();
    let imp_wrapper = WaisWrapper::new("wais-imp", WaisSource::new("works", &imp));
    if dead.contains(&"wais-imp") {
        m.connect_member(
            Box::new(Dead(imp_wrapper)),
            "wais",
            shard(&["Impressionist"]),
        )
        .unwrap();
    } else {
        m.connect_member(Box::new(imp_wrapper), "wais", shard(&["Impressionist"]))
            .unwrap();
    }
    let rest_wrapper = WaisWrapper::new("wais-rest", WaisSource::new("works", &rest));
    let rest_values = ["Post-Impressionist", "Realist", "Cubist", "Romantic"];
    if dead.contains(&"wais-rest") {
        m.connect_member(Box::new(Dead(rest_wrapper)), "wais", shard(&rest_values))
            .unwrap();
    } else {
        m.connect_member(Box::new(rest_wrapper), "wais", shard(&rest_values))
            .unwrap();
    }
    m.load_program(paper::VIEW1).unwrap();
    m
}

#[test]
fn degraded_answers_carry_provenance_on_the_wire() {
    let mut m = sharded_federation(12, &["wais-rest"]);
    m.set_partial_failure(yat_mediator::PartialFailure::Degrade);
    let handle = Server::spawn(m, ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // materialized: the <answer> element carries the attributes
    let reply = client.query(paper::Q1).expect("query round-trips");
    let ServerReply::Answer {
        answered_by: Some(answered),
        missing: Some(missing),
        ..
    } = &reply
    else {
        panic!("expected a degraded answer, got {reply:?}");
    };
    assert!(answered.contains("wais-imp"), "{answered}");
    assert_eq!(missing, "wais-rest");
    let text = reply.to_xml().to_xml();
    assert!(text.contains("answered-by="), "{text}");
    assert!(text.contains("missing-sources=\"wais-rest\""), "{text}");

    // streamed: the answer-end frame carries them, and the client
    // propagates them into the reassembled Answer
    let streamed = client
        .query_streamed(paper::Q1)
        .expect("stream round-trips");
    let ServerReply::Answer {
        answered_by: Some(answered),
        missing: Some(missing),
        ..
    } = &streamed.reply
    else {
        panic!(
            "expected a degraded streamed answer, got {:?}",
            streamed.reply
        );
    };
    assert!(answered.contains("wais-imp"), "{answered}");
    assert_eq!(missing, "wais-rest");

    // stats: member gauges carry their group and cost counters
    let stats = client.stats().expect("stats round-trips");
    let gauge = |name: &str| {
        stats
            .sources
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no gauge for {name}: {:?}", stats.sources))
            .clone()
    };
    assert_eq!(gauge("wais-imp").group.as_deref(), Some("wais"));
    assert!(
        gauge("wais-imp").ewma_latency_us > 0,
        "{:?}",
        gauge("wais-imp")
    );
    assert!(gauge("wais-rest").errors > 0, "{:?}", gauge("wais-rest"));
    assert_eq!(gauge("o2artifact").group, None, "plain sources stay plain");

    handle.shutdown();
    handle.join();
}

#[test]
fn complete_federated_answers_stay_byte_identical_to_plain_wire() {
    // a healthy federation must not leak provenance attributes: the
    // reply bytes match a plain two-source mediator's exactly
    let reference = federation(12);
    let handle =
        Server::spawn(sharded_federation(12, &[]), ServerConfig::default()).expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for query in [paper::Q1, paper::Q2] {
        let reply = client.query(query).expect("query round-trips");
        assert_eq!(
            reply.to_xml().to_xml(),
            expected_answer(&reference, query),
            "federated wire answer must match the plain mediator's bytes"
        );
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn backoff_schedule_is_exponential_jittered_and_capped() {
    use crate::client::backoff_delay;
    // midpoint jitter reproduces the bare exponential curve
    assert_eq!(backoff_delay(0, 0.5), Duration::from_millis(5));
    assert_eq!(backoff_delay(1, 0.5), Duration::from_millis(10));
    assert_eq!(backoff_delay(2, 0.5), Duration::from_millis(20));
    // the curve caps at 200ms before jitter
    assert_eq!(backoff_delay(12, 0.5), Duration::from_millis(200));
    assert_eq!(backoff_delay(63, 0.5), Duration::from_millis(200));
    // jitter spans [0.5x, 1.5x)
    assert_eq!(backoff_delay(0, 0.0), Duration::from_micros(2500));
    assert_eq!(backoff_delay(3, 1.0), Duration::from_millis(60));
    // distinct jitter draws de-synchronize a client fleet
    let mut rng = Rng::seed_from_u64(7);
    let delays: Vec<Duration> = (0..8).map(|_| backoff_delay(4, rng.gen_f64())).collect();
    let distinct: std::collections::HashSet<_> = delays.iter().collect();
    assert!(distinct.len() > 1, "{delays:?}");
    for d in &delays {
        assert!(
            *d >= Duration::from_millis(40) && *d < Duration::from_millis(120),
            "{d:?}"
        );
    }
}

#[test]
fn connect_retry_still_reaches_a_late_binding_server() {
    // the jittered schedule must not break the original contract: a
    // client that starts before the server still connects within patience
    let handle = Server::spawn(federation(6), ServerConfig::default()).expect("server binds");
    let addr = handle.addr();
    let mut client = Client::connect_retry(addr, Duration::from_secs(2)).expect("retry connects");
    assert!(matches!(
        client.query(paper::Q1).expect("query round-trips"),
        ServerReply::Answer { .. }
    ));
    // and a dead address still errors out after patience
    drop(client);
    handle.shutdown();
    handle.join();
    let err = match Client::connect_retry(addr, Duration::from_millis(120)) {
        Err(e) => e,
        Ok(_) => panic!("connect to a dead address must fail"),
    };
    assert!(err.to_string().contains("connect failed"), "{err}");
}
