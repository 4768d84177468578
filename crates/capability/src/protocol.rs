//! The mediator ↔ wrapper message protocol. Four requests cover the
//! paper's interaction patterns (Section 2 / Fig. 2):
//!
//! * `<get-interface/>` — import structural metadata and query
//!   capabilities (`yat> import o2artifact;`);
//! * `<get-document name="..."/>` — fetch a whole exported document (the
//!   naive strategy: materialize at the mediator);
//! * `<execute>plan</execute>` — evaluate a pushed plan at the source
//!   (capability-based evaluation, Section 5.3);
//! * `<execute-batch>plan bindings</execute-batch>` — evaluate a pushed
//!   plan once per row of a bindings table (set-oriented information
//!   passing: a `DJoin` ships its distinct left-hand values together
//!   instead of one `execute` per value).
//!
//! Every message is an XML document with one serialization, written and
//! read by [`crate::codec`]; transports move the serialized bytes and
//! account for them.

use crate::interface::Interface;
use crate::tab_xml::{tab_from_xml, tab_to_xml};
use crate::xml::WireError;
use std::sync::Arc;
use yat_algebra::{Alg, EvalOut, Tab, Value};
use yat_model::xml_convert::{tree_from_xml, tree_to_xml};
use yat_model::{Atom, Tree};
use yat_xml::Element;

/// The most bindings one `execute-batch` may carry — a wire limit the
/// request parser enforces. A constant on purpose: it bounds the message
/// size and the heap a batch pins on both sides, the mediator cuts larger
/// binding sets into several requests, and a wrapper refuses anything
/// longer.
pub const MAX_BATCH_BINDINGS: usize = 1024;

/// The column an `execute-batch` result is tagged with: each row's
/// first cell is the ordinal (an `Int`) of the binding that produced it.
/// Not a legal variable name, so it cannot collide with a plan column.
pub const BATCH_ORDINAL: &str = "#";

/// The bindings table of an `execute-batch`: the values a `DJoin`
/// passes to a pushed plan, one row per distinct binding. Every row
/// binds every variable — substituting row *i* into the plan gives
/// exactly the plan an `execute` for that binding would have carried.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bindings {
    /// The bound variables.
    pub vars: Vec<String>,
    /// One value per variable, per binding.
    pub rows: Vec<Vec<Atom>>,
}

impl Bindings {
    /// The one binding of no variables — what a plain `execute`
    /// evaluates its plan under.
    pub fn unit() -> Bindings {
        Bindings {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }
}

/// The columns of a batch result whose plan produces `columns`.
pub fn batch_columns(columns: &[String]) -> Vec<String> {
    let mut cols = Vec::with_capacity(columns.len() + 1);
    cols.push(BATCH_ORDINAL.to_string());
    cols.extend_from_slice(columns);
    cols
}

/// One row of a batch result: `values` tagged with the binding that
/// produced them.
pub fn batch_row(ordinal: usize, values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut row = vec![Value::Atom(Atom::Int(ordinal as i64))];
    row.extend(values);
    row
}

/// Splits a batch result back into one table per binding (`bindings` of
/// them, empty tables for bindings that matched nothing), refusing a
/// table that is not tagged or names a binding that was never sent.
pub fn split_batch_result(tab: Tab, bindings: usize) -> Result<Vec<Tab>, WireError> {
    let Some((tag, columns)) = tab.columns().split_first() else {
        return Err(WireError::Malformed("batch result has no columns".into()));
    };
    if tag != BATCH_ORDINAL {
        return Err(WireError::Malformed(format!(
            "batch result is not tagged: first column is `{tag}`"
        )));
    }
    let mut tabs: Vec<Tab> = (0..bindings).map(|_| Tab::new(columns.to_vec())).collect();
    for mut row in tab.into_rows() {
        let rest = row.split_off(1);
        match &row[0] {
            Value::Atom(Atom::Int(i)) if (0..bindings as i64).contains(i) => {
                tabs[*i as usize].push(rest)
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "batch result row tagged `{other}`, expected a binding ordinal below {bindings}"
                )))
            }
        }
    }
    Ok(tabs)
}

/// A request from the mediator to a wrapper.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Import the wrapper's interface.
    GetInterface,
    /// Fetch a whole named document.
    GetDocument {
        /// Exported document name.
        name: String,
    },
    /// Execute a pushed plan.
    Execute {
        /// The plan (wrapper-local `Source` names).
        plan: Arc<Alg>,
    },
    /// Execute a pushed plan once per binding. The answer is one
    /// [`Response::Result`] whose first column is [`BATCH_ORDINAL`]: the
    /// rows of binding 0, then of binding 1, … — each group exactly the
    /// table an `Execute` of the substituted plan would have returned.
    ExecuteBatch {
        /// The *unsubstituted* plan.
        plan: Arc<Alg>,
        /// The values to substitute, one row per binding.
        bindings: Bindings,
    },
}

impl Request {
    /// The request's wire label — the XML element name it serializes to.
    /// Stable, so traces and profiles can use it to identify round-trip
    /// kinds.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::GetInterface => "get-interface",
            Request::GetDocument { .. } => "get-document",
            Request::Execute { .. } => "execute",
            Request::ExecuteBatch { .. } => "execute-batch",
        }
    }
}

/// A wrapper's response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The wrapper's interface.
    Interface(Interface),
    /// A whole document.
    Document {
        /// Its exported name.
        name: String,
        /// The tree.
        tree: Tree,
    },
    /// The result of an executed plan.
    Result(Tab),
    /// The wrapper declines a pushed plan its source cannot run (a shape
    /// its query language has no translation for). Like `Error` it
    /// fails the request; unlike `Error` it says the source is healthy
    /// and the plan was never attempted.
    Refused(String),
    /// A failure.
    Error(String),
}

// ------------------------------------------------------- client ↔ server
//
// The verbs above travel between the mediator and its wrappers. The
// serving layer (`yat-server`) multiplexes many *clients* over one
// mediator, and those sessions speak their own, disjoint verb set so a
// wrapper can never be confused for a client or vice versa.

/// A request from a client to a running `yat-server`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Plan → optimize → execute a YATL query, answering with the
    /// serialized result.
    Query {
        /// The YATL query text.
        text: String,
        /// Optional per-request deadline: the server refuses to *start*
        /// executing once this much time has passed since admission
        /// (queue wait included), answering `Error` instead.
        deadline_ms: Option<u64>,
        /// Client-negotiated chunked answer streaming (`stream="chunked"`
        /// on the wire). When set, a successful answer arrives as
        /// `answer-chunk*` + `answer-end` frames instead of one `answer`
        /// frame; replies other than answers stay single-frame. A server
        /// that predates the capability simply ignores the attribute and
        /// answers single-frame — the client handles both, so old and new
        /// peers interoperate in every combination.
        stream: bool,
    },
    /// Run the query as `EXPLAIN ANALYZE`, answering with the rendered
    /// report (server-side timings appended).
    Explain {
        /// The YATL query text.
        text: String,
    },
    /// Ask for the server's gauges and counters.
    Stats,
    /// Ask the server to drain in-flight queries and exit.
    Shutdown,
}

impl ClientRequest {
    /// The request's wire label — the XML element name it serializes to.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientRequest::Query { .. } => "query",
            ClientRequest::Explain { .. } => "explain",
            ClientRequest::Stats => "stats",
            ClientRequest::Shutdown => "shutdown",
        }
    }
}

/// Per-source activity reported by [`ServerStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceGauge {
    /// The source's advertised name.
    pub name: String,
    /// Completed mediator↔wrapper round trips.
    pub round_trips: u64,
    /// Round trips currently on the wire (the connection-pool gauge).
    pub in_flight: u64,
    /// The federation group this source belongs to, when the mediator
    /// registered it as a member; `None` for plain connections (the
    /// gauge then serializes exactly as it did before federation).
    pub group: Option<String>,
    /// EWMA round-trip latency in microseconds, truncated to an
    /// integer for the wire. `0` until the member has history.
    pub ewma_latency_us: u64,
    /// Failed round trips recorded against the member's cost record.
    pub errors: u64,
}

/// The gauges and counters a `Stats` request answers with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads in the session pool.
    pub workers: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Queries waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Queries executing on workers right now.
    pub in_flight: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Queries admitted to the queue since start.
    pub admitted: u64,
    /// Queries answered successfully since start.
    pub served: u64,
    /// Queries refused with `Overloaded` because the queue was full.
    pub shed: u64,
    /// Queries that failed (execution errors, expired deadlines).
    pub errors: u64,
    /// Frames that failed to decode as a [`ClientRequest`].
    pub protocol_errors: u64,
    /// Reply writes cut because the client stopped reading for
    /// `WRITE_TIMEOUT`; the connection was closed. A client that hangs
    /// up is not counted.
    pub cut_writes: u64,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
    /// Answer-cache hits across all sessions.
    pub cache_hits: u64,
    /// Answer-cache misses across all sessions.
    pub cache_misses: u64,
    /// Per-source wrapper-connection activity.
    pub sources: Vec<SourceGauge>,
}

/// A `yat-server`'s reply to one [`ClientRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServerReply {
    /// A query's result (`Tab` for table-shaped plans, `Tree` for
    /// constructed documents) — byte-identical, serialized, to what the
    /// in-process `Mediator::query` would have produced.
    Answer {
        /// The result.
        out: EvalOut,
    },
    /// A rendered `EXPLAIN ANALYZE` report.
    Explained {
        /// The report text.
        text: String,
    },
    /// The server's gauges and counters.
    Stats(ServerStats),
    /// The admission queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested client back-off.
        retry_after_ms: u64,
    },
    /// The request failed (parse error, execution error, expired
    /// deadline, draining server).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledges `Shutdown` after every in-flight query drained.
    Bye {
        /// Queries that were drained (completed after the shutdown
        /// request arrived).
        drained: u64,
    },
}

impl ServerReply {
    /// An answer reply.
    pub fn answer(out: EvalOut) -> ServerReply {
        ServerReply::Answer { out }
    }

    /// The reply's wire label — the XML element name it serializes to.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerReply::Answer { .. } => "answer",
            ServerReply::Explained { .. } => "explained",
            ServerReply::Stats(_) => "server-stats",
            ServerReply::Overloaded { .. } => "overloaded",
            ServerReply::Error { .. } => "error",
            ServerReply::Bye { .. } => "bye",
        }
    }

    /// The reply as a DOM element: the answer built directly, any other
    /// reply parsed from its [`ServerReply::encode`] text. Kept for
    /// callers that compare replies as DOM text; the wire uses `encode`.
    pub fn to_xml(&self) -> Element {
        match self {
            ServerReply::Answer { out } => {
                let body = match out {
                    EvalOut::Tab(tab) => Element::new("result").with_child(tab_to_xml(tab)),
                    EvalOut::Tree(tree) => tree_to_xml(tree),
                };
                Element::new(self.kind()).with_child(body)
            }
            _ => {
                let mut text = String::new();
                self.encode(&mut text);
                yat_xml::parse_element(&text).expect("the codec writes well-formed XML")
            }
        }
    }

    /// Reads a reply from a DOM element: an answer through the DOM
    /// table and tree readers, any other reply through
    /// [`ServerReply::decode`] of the element's text.
    pub fn from_xml(el: &Element) -> Result<ServerReply, WireError> {
        if el.name != "answer" {
            return ServerReply::decode(&el.to_xml()).map_err(WireError::from);
        }
        let body = el.elements().next().ok_or_else(|| WireError::Missing {
            element: "answer".into(),
            what: "a result or document body".into(),
        })?;
        let out = if body.name == "result" {
            let inner = body.elements().next().ok_or_else(|| WireError::Missing {
                element: "result".into(),
                what: "a result table".into(),
            })?;
            EvalOut::Tab(tab_from_xml(inner)?)
        } else {
            EvalOut::Tree(tree_from_xml(body))
        };
        Ok(ServerReply::Answer { out })
    }
}

/// One frame of a chunked answer stream — what a `stream="chunked"`
/// query's successful answer is delivered as. The stream is
/// `Chunk{seq: 0}`, `Chunk{seq: 1}`, …, then exactly one terminal frame:
/// `End` (whose counts let the consumer prove nothing was dropped) or
/// `Abort` (the producer failed after chunks were already on the wire —
/// too late for a plain `error` reply, which would leave the delivered
/// prefix looking like a complete short answer).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// One batch of the answer. Table-shaped answers carry a `Tab`
    /// holding this batch's rows (every chunk repeats the column
    /// layout); tree-shaped answers carry a copy of the answer's root
    /// holding this batch's top-level subtrees (every chunk repeats the
    /// root, the receiver concatenates the children).
    Chunk {
        /// Zero-based position in the stream; a receiver must refuse
        /// gaps and reordering.
        seq: u64,
        /// The batch.
        payload: EvalOut,
    },
    /// Terminal frame of a successful stream.
    End {
        /// Chunks that were sent; must equal what arrived.
        chunks: u64,
        /// Total rows across all chunks (top-level subtrees for a
        /// tree-shaped answer).
        rows: u64,
    },
    /// Terminal frame of a failed stream.
    Abort {
        /// What went wrong on the producer side.
        message: String,
    },
}

impl StreamFrame {
    /// The frame's wire label — the XML element name it serializes to.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamFrame::Chunk { .. } => "answer-chunk",
            StreamFrame::End { .. } => "answer-end",
            StreamFrame::Abort { .. } => "stream-abort",
        }
    }
}

/// The server side of the protocol, implemented by each wrapper.
///
/// Kept object-safe and string-free on purpose: the transport layer in
/// `yat-mediator` encodes each [`Request`] to XML text with
/// [`Request::encode`], decodes it on the wrapper's side, and sends the
/// [`Response`] back the same way through [`crate::codec`], counting
/// the bytes — the conversion work of the paper's networked deployment
/// (Fig. 2), with no DOM on either leg.
pub trait WrapperServer: Send + Sync {
    /// The wrapper's advertised name (`o2artifact`).
    fn name(&self) -> &str;

    /// Handles one request.
    fn handle(&self, request: &Request) -> Response;

    /// Takes the index accounting of the most recent `Execute`, if the
    /// wrapper recorded one ([`crate::IndexReport`]). Observational
    /// only: the transport layer collects it *next to* the wire (never
    /// on it) and feeds the `EXPLAIN ANALYZE` index section, so answers
    /// and traffic stay byte-identical whether anyone asks or not.
    fn take_index_report(&self) -> Option<crate::IndexReport> {
        None
    }

    /// Takes the storage accounting of the most recent `Execute`, if
    /// the wrapper runs store-backed and recorded one
    /// ([`crate::StorageReport`]). Observational only, collected next
    /// to the wire exactly like [`WrapperServer::take_index_report`];
    /// in-memory wrappers return `None`.
    fn take_storage_report(&self) -> Option<crate::StorageReport> {
        None
    }

    /// Registers a mediator-side epoch cell the wrapper must bump when
    /// its underlying store mutates (documents added/removed), so the
    /// answer cache can never serve pre-mutation results. Default:
    /// ignore (immutable sources).
    fn register_epoch(&self, _epoch: std::sync::Arc<std::sync::atomic::AtomicU64>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Node;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::GetInterface,
            Request::GetDocument {
                name: "artifacts".into(),
            },
            Request::Execute {
                plan: Alg::source("works"),
            },
            Request::ExecuteBatch {
                plan: Alg::source("works"),
                bindings: Bindings {
                    vars: vec!["a".into(), "t'".into()],
                    rows: vec![
                        vec![Atom::Str("Claude Monet".into()), Atom::Int(1897)],
                        vec![Atom::Str("x".into()), Atom::Float(0.5)],
                    ],
                },
            },
        ];
        for r in reqs {
            assert_eq!(survives_the_wire(&r), r);
            let mut text = String::new();
            r.encode(&mut text);
            assert!(
                text.starts_with(&format!("<{}", r.kind())),
                "kind() is the wire label: {text}"
            );
        }
        assert!(matches!(
            Request::decode("<nonsense/>"),
            Err(crate::codec::DecodeError::Wire(WireError::UnknownVerb(_)))
        ));
    }

    fn survives_the_wire(r: &Request) -> Request {
        let mut text = String::new();
        r.encode(&mut text);
        Request::decode(&text).unwrap()
    }

    #[test]
    fn batch_bindings_survive_escaping_and_typing() {
        // markup, quotes, entities and non-ASCII inside values; every
        // atom type keeps its type (`1` and `1.0` stay distinct)
        let bindings = Bindings {
            vars: vec!["t".into(), "n".into()],
            rows: vec![
                vec![
                    Atom::Str("<b a=\"1\">Tom & 'Jerry'</b>".into()),
                    Atom::Int(1),
                ],
                vec![Atom::Str("Cézanne — \u{1F3A8}".into()), Atom::Float(1.0)],
                vec![Atom::Str("true".into()), Atom::Bool(true)],
            ],
        };
        let req = Request::ExecuteBatch {
            plan: Alg::source("works"),
            bindings: bindings.clone(),
        };
        let Request::ExecuteBatch { bindings: back, .. } = survives_the_wire(&req) else {
            panic!("an execute-batch comes back as one")
        };
        assert_eq!(back, bindings);
        assert!(matches!(back.rows[0][1], Atom::Int(1)));
        assert!(matches!(back.rows[1][1], Atom::Float(_)));
        assert!(matches!(back.rows[2][0], Atom::Str(_)));
    }

    #[test]
    fn batch_bindings_may_be_empty_either_way() {
        // no rows (nothing left to ask) and no variables (one binding
        // that substitutes nothing) are both legal tables
        for bindings in [
            Bindings {
                vars: vec!["t".into()],
                rows: vec![],
            },
            Bindings::unit(),
        ] {
            let req = Request::ExecuteBatch {
                plan: Alg::source("works"),
                bindings,
            };
            assert_eq!(survives_the_wire(&req), req);
        }
    }

    #[test]
    fn malformed_batch_requests_are_refused() {
        let parse = |xml: &str| Request::decode(xml).map_err(WireError::from);
        let plan = "<source name=\"works\"/>";
        // no bindings table
        assert!(parse(&format!("<execute-batch>{plan}</execute-batch>")).is_err());
        // row arity differs from the variable list
        let short = format!(
            "<execute-batch>{plan}<bindings vars=\"a b\">\
             <b><a type=\"Int\" value=\"1\"/></b></bindings></execute-batch>"
        );
        assert!(parse(&short).unwrap_err().to_string().contains("arity"));
        // a binding must be atomic
        let tree = format!(
            "<execute-batch>{plan}<bindings vars=\"a\"><b><n/></b></bindings></execute-batch>"
        );
        assert!(parse(&tree).unwrap_err().to_string().contains("atomic"));
        // one row more than a batch may carry
        let rows = "<b><a type=\"Int\" value=\"1\"/></b>".repeat(MAX_BATCH_BINDINGS + 1);
        let long =
            format!("<execute-batch>{plan}<bindings vars=\"a\">{rows}</bindings></execute-batch>");
        assert!(parse(&long).unwrap_err().to_string().contains("more than"));
    }

    #[test]
    fn batch_results_split_by_ordinal() {
        let mut tab = Tab::new(batch_columns(&["t".to_string()]));
        let cell = |s: &str| [yat_algebra::Value::Atom(Atom::Str(s.into()))];
        tab.push(batch_row(2, cell("c")));
        tab.push(batch_row(0, cell("a1")));
        tab.push(batch_row(0, cell("a2")));
        let tabs = split_batch_result(tab.clone(), 3).unwrap();
        assert_eq!(tabs.iter().map(Tab::len).collect::<Vec<_>>(), [2, 0, 1]);
        assert!(tabs.iter().all(|t| t.columns() == ["t".to_string()]));
        assert_eq!(tabs[0].row(1), &cell("a2"));
        // a binding that was never sent, and an untagged table
        assert!(split_batch_result(tab, 2).is_err());
        assert!(split_batch_result(Tab::new(vec!["t".into()]), 1).is_err());
    }

    #[test]
    fn a_wrapper_refusing_a_batch_answers_with_an_error() {
        struct NoBatches;
        impl WrapperServer for NoBatches {
            fn name(&self) -> &str {
                "nobatch"
            }
            fn handle(&self, request: &Request) -> Response {
                Response::Error(format!("cannot run <{}>", request.kind()))
            }
        }
        let req = Request::ExecuteBatch {
            plan: Alg::source("works"),
            bindings: Bindings::unit(),
        };
        let mut reply = String::new();
        NoBatches
            .handle(&survives_the_wire(&req))
            .encode(&mut reply);
        let reply = Response::decode(&reply).unwrap();
        assert_eq!(reply, Response::Error("cannot run <execute-batch>".into()));
    }

    #[test]
    fn responses_roundtrip() {
        let mut tab = Tab::new(vec!["t".into()]);
        tab.push(vec![yat_algebra::Value::Tree(Node::elem(
            "title", "Nympheas",
        ))]);
        let resps = vec![
            Response::Document {
                name: "works".into(),
                tree: Node::sym("works", vec![]),
            },
            Response::Result(tab),
            Response::Refused("no OQL for <group>".into()),
            Response::Error("nope".into()),
        ];
        for r in resps {
            let mut text = String::new();
            r.encode(&mut text);
            assert_eq!(Response::decode(&text).unwrap(), r, "{text}");
        }
    }
}
