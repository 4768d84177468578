//! The DOM-free wire codec: every message between mediator and wrappers
//! and between server and clients is written straight onto an [`Out`]
//! and read straight from the events of one [`Reader`] over its text.
//!
//! Each message type has one serialization: `encode(&self, out)` and
//! `decode(text)` — [`Request`], [`Response`], [`ClientRequest`],
//! [`ServerReply`] and [`StreamFrame`] here, the plans they carry in
//! [`plan_xml`](crate::plan_xml), interfaces and patterns in
//! [`xml`](crate::xml). Data (a `Tab`, a `Value` or a `Tree`) goes onto
//! the frame's `String`, or a [`yat_xml::ByteCount`] when only the
//! length is wanted; decoding builds it as the events come, interning
//! each distinct tag once per frame ([`Symbols`]). No DOM is built on
//! either side.
//!
//! A wrapper's `<result>` can also cross in pieces of whole rows
//! ([`ResultPieces`], [`ResultReader`]), so the mediator hands rows on
//! before the whole frame has been written; the pieces are the frame's
//! bytes, cut between rows.
//!
//! The DOM serialization of tables and trees
//! ([`tab_xml`](crate::tab_xml), `yat_model::xml_convert`) stays only
//! as the reference `tests/prop_wire_codec.rs` holds the data frames to
//! — the same bytes written, the same values read and the same
//! [`WireError`] variant on damaged frames — and behind
//! `ServerReply::to_xml`, which the benchmark compares answers with.
//! `tests/request_corpus.rs` pins the bytes of every request kind.

use crate::plan_xml::write_plan;
use crate::protocol::{
    Bindings, ClientRequest, Request, Response, ServerReply, ServerStats, SourceGauge, StreamFrame,
    MAX_BATCH_BINDINGS,
};
use crate::xml::WireError;
use yat_algebra::{EvalOut, Tab, Value};
use yat_model::xml_convert::{read_tree, write_tree, Symbols};
use yat_model::{Atom, AtomType, Tree};
use yat_xml::{push_attribute, push_text, Event, Out, ParseError, Reader};

/// Why a frame did not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not well-formed XML.
    Syntax(ParseError),
    /// The text is well-formed but not a valid message.
    Wire(WireError),
}

impl DecodeError {
    /// The [`WireError`] to report: a syntax error becomes
    /// [`WireError::Malformed`] prefixed with `context` (say, which leg of
    /// a round trip the text was on); a message error is returned as is.
    pub fn in_context(self, context: &str) -> WireError {
        match self {
            DecodeError::Syntax(e) => WireError::Malformed(format!("{context}: {e}")),
            DecodeError::Wire(e) => e,
        }
    }
}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> Self {
        DecodeError::Syntax(e)
    }
}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::Wire(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        e.in_context("frame did not parse as XML")
    }
}

pub(crate) fn malformed(msg: impl Into<String>) -> DecodeError {
    DecodeError::Wire(WireError::Malformed(msg.into()))
}

fn missing(element: &str, what: &str) -> DecodeError {
    DecodeError::Wire(WireError::Missing {
        element: element.into(),
        what: what.into(),
    })
}

// ---------------------------------------------------------------- encode

/// A start tag being written: its attributes, then either `/>` or the
/// content and the end tag.
pub(crate) struct Tag<'o, O: Out> {
    out: &'o mut O,
    name: &'static str,
}

impl<'o, O: Out> Tag<'o, O> {
    /// Opens `<name`.
    pub(crate) fn new(out: &'o mut O, name: &'static str) -> Self {
        out.push_str("<");
        out.push_str(name);
        Tag { out, name }
    }

    /// Adds ` name="value"`.
    pub(crate) fn attr(self, name: &str, value: &str) -> Self {
        push_attribute(self.out, name, value);
        self
    }

    /// Adds the attribute when there is a value.
    pub(crate) fn opt(self, name: &str, value: Option<&str>) -> Self {
        match value {
            Some(value) => self.attr(name, value),
            None => self,
        }
    }

    /// Ends an element that has no content: `/>`.
    pub(crate) fn end(self) {
        self.out.push_str("/>");
    }

    /// Writes the content with `body`, then the end tag — or ends the
    /// element with `/>` when it is `empty`.
    pub(crate) fn body(self, empty: bool, body: impl FnOnce(&mut O)) {
        if empty {
            return self.end();
        }
        self.out.push_str(">");
        body(self.out);
        self.out.push_str("</");
        self.out.push_str(self.name);
        self.out.push_str(">");
    }

    /// [`Tag::body`] for content that is never empty.
    pub(crate) fn with(self, body: impl FnOnce(&mut O)) {
        self.body(false, body)
    }
}

/// Writes a table: `<tab cols="t a"><row><cell>…</cell>…</row>…</tab>`.
pub fn write_tab(tab: &Tab, out: &mut impl Out) {
    write_tab_open(tab.columns(), out);
    if tab.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push_str(">");
    for row in tab.rows() {
        write_row(row, out);
    }
    out.push_str("</tab>");
}

/// `<tab cols="…"`, up to the end of the start tag.
fn write_tab_open(columns: &[String], out: &mut impl Out) {
    out.push_str("<tab");
    push_attribute(out, "cols", &columns.join(" "));
}

/// One `<row>` of a `<tab>`.
fn write_row(row: &[Value], out: &mut impl Out) {
    if row.is_empty() {
        out.push_str("<row/>");
        return;
    }
    out.push_str("<row>");
    for v in row {
        out.push_str("<cell>");
        write_value(v, out);
        out.push_str("</cell>");
    }
    out.push_str("</row>");
}

/// Writes a cell value: `<t>` and a tree, `<a type value/>`, `<l name/>`,
/// `<c>` and the members of a collection, or `<n/>`.
pub fn write_value(v: &Value, out: &mut impl Out) {
    match v {
        Value::Tree(t) => {
            out.push_str("<t>");
            write_tree(t, out);
            out.push_str("</t>");
        }
        Value::Atom(a) => write_atom(a, out),
        Value::Label(l) => {
            out.push_str("<l");
            push_attribute(out, "name", l);
            out.push_str("/>");
        }
        Value::Coll(c) if c.is_empty() => out.push_str("<c/>"),
        Value::Coll(c) => {
            out.push_str("<c>");
            for x in c {
                write_value(x, out);
            }
            out.push_str("</c>");
        }
        Value::Null => out.push_str("<n/>"),
    }
}

/// `<a type="Int" value="1897"/>`.
fn write_atom(a: &Atom, out: &mut impl Out) {
    out.push_str("<a");
    push_attribute(out, "type", a.atom_type().name());
    push_attribute(out, "value", &a.text());
    out.push_str("/>");
}

/// Writes a wrapper's `<document>` response.
pub fn write_document(name: &str, tree: &Tree, out: &mut impl Out) {
    out.push_str("<document");
    push_attribute(out, "name", name);
    out.push_str(">");
    write_tree(tree, out);
    out.push_str("</document>");
}

/// Writes a `<result>`: a wrapper's response to a pushed plan, and the
/// body of a table-shaped answer.
pub fn write_result(tab: &Tab, out: &mut impl Out) {
    out.push_str("<result>");
    write_tab(tab, out);
    out.push_str("</result>");
}

/// A table's `<result>` frame, written in pieces of at most `rows` rows
/// each so that the reading side ([`ResultReader`]) can hand rows on
/// before the whole frame exists. Concatenated, the pieces are exactly
/// the bytes of [`write_result`]: the first piece opens the frame
/// (`<result><tab cols="…">`), the last one closes it (`</tab></result>`),
/// every piece holds whole rows, and an empty table is one piece. The
/// table is consumed as it is written: a row is dropped once its piece
/// holds it.
pub struct ResultPieces {
    columns: Vec<String>,
    unwritten: std::vec::IntoIter<Vec<Value>>,
    rows: usize,
    /// Whether the next piece is the first.
    first: bool,
}

impl ResultPieces {
    /// The pieces of `tab`'s frame, `rows` rows each (at least one).
    pub fn new(tab: Tab, rows: usize) -> Self {
        let columns = tab.columns().to_vec();
        ResultPieces {
            columns,
            unwritten: tab.into_rows().into_iter(),
            rows: rows.max(1),
            first: true,
        }
    }

    /// Writes the next piece onto `out` and says whether it is the last
    /// one; `None` once every piece has been written.
    pub fn write_next(&mut self, out: &mut impl Out) -> Option<bool> {
        let first = std::mem::replace(&mut self.first, false);
        if !first && self.unwritten.len() == 0 {
            return None;
        }
        if first {
            out.push_str("<result>");
            write_tab_open(&self.columns, out);
            if self.unwritten.len() == 0 {
                out.push_str("/></result>");
                return Some(true);
            }
            out.push_str(">");
        }
        for row in self.unwritten.by_ref().take(self.rows) {
            write_row(&row, out);
        }
        let last = self.unwritten.len() == 0;
        if last {
            out.push_str("</tab></result>");
        }
        Some(last)
    }
}

/// Reads a `<result>` frame piece by piece, as [`ResultPieces`] cuts it:
/// each piece yields the rows it completes, so they can be handed on
/// while later pieces are still to come.
///
/// Read in order, the pieces give exactly what [`Response::decode`]
/// gives for their concatenation — the same rows, or an error of the
/// same kind — however they are cut or damaged. A piece is read only up
/// to its last complete row; whatever follows (a row cut short, the
/// frame's tail, any error) is kept and read again together with the
/// next piece, and the last piece settles it exactly as the whole frame
/// would: a syntax error anywhere after a message error still wins.
/// Pieces cut between rows, as [`ResultPieces`] cuts them, leave
/// nothing over.
#[derive(Debug, Default)]
pub struct ResultReader {
    /// The frame's columns, once a row after its head has been read.
    columns: Option<Vec<String>>,
    /// Text after the last complete row, not yet settled.
    carry: String,
}

impl ResultReader {
    /// A reader at the start of a frame.
    pub fn new() -> Self {
        ResultReader::default()
    }

    /// Reads the next piece (`last` for the frame's final one). Returns
    /// the rows the piece completed under the frame's columns — `None`
    /// when it completed none yet — and, for the last piece, the rest of
    /// the table or the error the whole frame decodes to.
    pub fn read(&mut self, piece: &str, last: bool) -> Result<Option<Tab>, DecodeError> {
        let joined;
        let text = if self.carry.is_empty() {
            piece
        } else {
            self.carry.push_str(piece);
            joined = std::mem::take(&mut self.carry);
            joined.as_str()
        };
        if last {
            return self.settle(text).map(Some);
        }
        let (rows, rest) = self.complete_rows(text);
        self.carry = text[rest..].to_string();
        Ok(rows)
    }

    /// The complete rows at the start of `text`, and the offset after the
    /// last of them (0 when none).
    fn complete_rows(&mut self, text: &str) -> (Option<Tab>, usize) {
        let (reader, columns) = match &self.columns {
            Some(columns) => (Reader::within(text, &["result", "tab"]), columns.clone()),
            None => match Decoder::result_head(text) {
                Some(head) => head,
                None => return (None, 0),
            },
        };
        let mut d = Decoder {
            reader,
            symbols: Symbols::default(),
        };
        let mut tab = Tab::new(columns);
        let mut settled = 0;
        // stop at the end of the piece, at the end of the table and at
        // the first error alike: what follows the last complete row is
        // read again with more text
        while d.reader.offset() < text.len() {
            let complete = match d.reader.next() {
                Ok(Event::Start("row")) => d.row(tab.columns().len()).map(|row| tab.push(row)),
                Ok(Event::Start(_)) => d.reader.skip_element().map_err(DecodeError::from),
                Ok(Event::End(_) | Event::Eof) | Err(_) => break,
                Ok(_) => continue,
            };
            match complete {
                Ok(()) => settled = d.reader.offset(),
                Err(_) => break,
            }
        }
        if settled == 0 {
            return (None, 0);
        }
        if self.columns.is_none() {
            self.columns = Some(tab.columns().to_vec());
        }
        (Some(tab), settled)
    }

    /// Reads `text` — the frame from the last complete row on, or all of
    /// it — to its end, as [`Response::decode`] reads a whole frame.
    fn settle(&mut self, text: &str) -> Result<Tab, DecodeError> {
        let Some(columns) = self.columns.take() else {
            return match Response::decode(text)? {
                Response::Result(tab) => Ok(tab),
                other => Err(malformed(format!(
                    "expected a <result> frame, found {other:?}"
                ))),
            };
        };
        let d = Decoder {
            reader: Reader::within(text, &["result", "tab"]),
            symbols: Symbols::default(),
        };
        // `decode` reads the rest of <result> after the table, as
        // `first_child` and `finish` read it in a whole frame
        d.decode(|d| {
            let mut tab = Tab::new(columns);
            d.rows(&mut tab)?;
            Ok(tab)
        })
    }
}

/// The body an `<answer>` or `<answer-chunk>` carries.
fn write_answer_body(body: &EvalOut, out: &mut impl Out) {
    match body {
        EvalOut::Tab(tab) => write_result(tab, out),
        EvalOut::Tree(tree) => write_tree(tree, out),
    }
}

/// `<bindings vars="a t"><b><a type=".." value=".."/>..</b>..</bindings>`:
/// one `<b>` per binding, its cells written like a result table's atoms.
fn write_bindings(bindings: &Bindings, out: &mut impl Out) {
    Tag::new(out, "bindings")
        .attr("vars", &bindings.vars.join(" "))
        .body(bindings.rows.is_empty(), |out| {
            for row in &bindings.rows {
                Tag::new(out, "b").body(row.is_empty(), |out| {
                    for a in row {
                        write_atom(a, out);
                    }
                });
            }
        });
}

impl Request {
    /// Writes the request's wire text.
    pub fn encode(&self, out: &mut impl Out) {
        let tag = Tag::new(out, self.kind());
        match self {
            Request::GetInterface => tag.end(),
            Request::GetDocument { name } => tag.attr("name", name).end(),
            Request::Execute { plan } => tag.with(|out| write_plan(plan, out)),
            Request::ExecuteBatch { plan, bindings } => tag.with(|out| {
                write_plan(plan, out);
                write_bindings(bindings, out);
            }),
        }
    }

    /// Reads a request from its wire text.
    pub fn decode(text: &str) -> Result<Request, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| match root {
            "get-interface" => Ok(Request::GetInterface),
            "get-document" => Ok(Request::GetDocument {
                name: d.need_attr(root, "name")?,
            }),
            "execute" => Ok(Request::Execute {
                plan: d
                    .first_child(Decoder::plan)?
                    .ok_or_else(|| missing(root, "plan"))?,
            }),
            "execute-batch" => {
                let (mut plan, mut bindings) = (None, None);
                d.each_child(|d, name| {
                    if plan.is_none() {
                        plan = Some(d.plan(name)?);
                    } else if bindings.is_none() {
                        bindings = Some(d.bindings(name)?);
                    } else {
                        d.skip()?;
                    }
                    Ok(())
                })?;
                match (plan, bindings) {
                    (Some(plan), Some(bindings)) => Ok(Request::ExecuteBatch { plan, bindings }),
                    _ => Err(missing(root, "a plan and a bindings table")),
                }
            }
            other => Err(WireError::UnknownVerb(format!("unknown request <{other}>")).into()),
        })
    }
}

impl Response {
    /// Writes the response's wire text.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            Response::Interface(i) => i.encode(out),
            Response::Document { name, tree } => write_document(name, tree, out),
            Response::Result(tab) => write_result(tab, out),
            Response::Refused(reason) => Tag::new(out, "refused").attr("reason", reason).end(),
            Response::Error(msg) => Tag::new(out, "error").attr("message", msg).end(),
        }
    }

    /// Reads a response from its wire text.
    pub fn decode(text: &str) -> Result<Response, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| match root {
            "interface" => Ok(Response::Interface(d.interface(root)?)),
            "document" => {
                let name = d.need_attr(root, "name")?;
                let tree = d
                    .first_child(Decoder::tree)?
                    .ok_or_else(|| missing(root, "a document tree"))?;
                Ok(Response::Document { name, tree })
            }
            "result" => Ok(Response::Result(d.result()?)),
            "refused" => Ok(Response::Refused(d.attr_or_empty("reason"))),
            "error" => Ok(Response::Error(d.attr_or_empty("message"))),
            other => Err(WireError::UnknownVerb(format!("unknown response <{other}>")).into()),
        })
    }
}

impl ClientRequest {
    /// Writes the request's wire text.
    pub fn encode(&self, out: &mut impl Out) {
        let tag = Tag::new(out, self.kind());
        match self {
            ClientRequest::Query {
                text,
                deadline_ms,
                stream,
            } => tag
                .opt(
                    "deadline-ms",
                    deadline_ms.map(|ms| ms.to_string()).as_deref(),
                )
                .opt("stream", stream.then_some("chunked"))
                .with(|out| push_text(out, text)),
            ClientRequest::Explain { text } => tag.with(|out| push_text(out, text)),
            ClientRequest::Stats | ClientRequest::Shutdown => tag.end(),
        }
    }

    /// Reads a request from its wire text.
    pub fn decode(text: &str) -> Result<ClientRequest, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| match root {
            "query" => {
                let deadline_ms = match d.reader.attr("deadline-ms") {
                    Some(_) => Some(d.counter(root, "deadline-ms")?),
                    None => None,
                };
                let stream = match d.reader.attr("stream") {
                    None => false,
                    Some("chunked") => true,
                    Some(other) => {
                        return Err(malformed(format!(
                            "<query> stream `{other}` is not a known streaming mode \
                             (only `chunked`)"
                        )))
                    }
                };
                Ok(ClientRequest::Query {
                    text: d.text()?,
                    deadline_ms,
                    stream,
                })
            }
            "explain" => Ok(ClientRequest::Explain { text: d.text()? }),
            "stats" => Ok(ClientRequest::Stats),
            "shutdown" => Ok(ClientRequest::Shutdown),
            other => {
                Err(WireError::UnknownVerb(format!("unknown client request <{other}>")).into())
            }
        })
    }
}

/// `<server-stats …>` and one `<source …/>` per wrapper connection.
fn write_stats(stats: &ServerStats, out: &mut impl Out) {
    let counters = [
        ("workers", stats.workers),
        ("queue-capacity", stats.queue_capacity),
        ("queue-depth", stats.queue_depth),
        ("in-flight", stats.in_flight),
        ("connections", stats.connections),
        ("admitted", stats.admitted),
        ("served", stats.served),
        ("shed", stats.shed),
        ("errors", stats.errors),
        ("protocol-errors", stats.protocol_errors),
        ("cut-writes", stats.cut_writes),
    ];
    let mut tag = Tag::new(out, "server-stats");
    for (name, n) in counters {
        tag = tag.attr(name, &n.to_string());
    }
    tag.attr("draining", &stats.draining.to_string())
        .attr("cache-hits", &stats.cache_hits.to_string())
        .attr("cache-misses", &stats.cache_misses.to_string())
        .body(stats.sources.is_empty(), |out| {
            for s in &stats.sources {
                let gauge = Tag::new(out, "source")
                    .attr("name", &s.name)
                    .attr("round-trips", &s.round_trips.to_string())
                    .attr("in-flight", &s.in_flight.to_string());
                // federation gauges ride along only for registered
                // members, so plain servers keep their old bytes
                match &s.group {
                    Some(group) => gauge
                        .attr("group", group)
                        .attr("ewma-latency-us", &s.ewma_latency_us.to_string())
                        .attr("errors", &s.errors.to_string())
                        .end(),
                    None => gauge.end(),
                }
            }
        });
}

impl ServerReply {
    /// Writes the reply's wire text.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            ServerReply::Answer { out: body } => {
                out.push_str("<answer>");
                write_answer_body(body, out);
                out.push_str("</answer>");
            }
            ServerReply::Explained { text } => {
                Tag::new(out, self.kind()).with(|out| push_text(out, text))
            }
            ServerReply::Stats(stats) => write_stats(stats, out),
            ServerReply::Overloaded { retry_after_ms } => Tag::new(out, self.kind())
                .attr("retry-after-ms", &retry_after_ms.to_string())
                .end(),
            ServerReply::Error { message } => {
                Tag::new(out, self.kind()).attr("message", message).end()
            }
            ServerReply::Bye { drained } => Tag::new(out, self.kind())
                .attr("drained", &drained.to_string())
                .end(),
        }
    }

    /// Reads a reply from its wire text.
    pub fn decode(text: &str) -> Result<ServerReply, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| match root {
            "answer" => Ok(ServerReply::Answer {
                out: d.answer_body(root)?,
            }),
            "explained" => Ok(ServerReply::Explained { text: d.text()? }),
            "server-stats" => Ok(ServerReply::Stats(d.stats(root)?)),
            "overloaded" => Ok(ServerReply::Overloaded {
                retry_after_ms: d.counter(root, "retry-after-ms")?,
            }),
            "error" => Ok(ServerReply::Error {
                message: d.attr_or_empty("message"),
            }),
            "bye" => Ok(ServerReply::Bye {
                drained: d.counter(root, "drained")?,
            }),
            other => Err(WireError::UnknownVerb(format!("unknown server reply <{other}>")).into()),
        })
    }
}

impl StreamFrame {
    /// Writes the frame's wire text. A chunk's body is exactly an
    /// `answer` body (`<result><tab…/></result>` or a tree), so the
    /// reassembled stream and the single-frame answer share one
    /// serialization.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            StreamFrame::Chunk { seq, payload } => {
                out.push_str("<answer-chunk");
                push_attribute(out, "seq", &seq.to_string());
                out.push_str(">");
                write_answer_body(payload, out);
                out.push_str("</answer-chunk>");
            }
            StreamFrame::End { chunks, rows } => Tag::new(out, self.kind())
                .attr("chunks", &chunks.to_string())
                .attr("rows", &rows.to_string())
                .end(),
            StreamFrame::Abort { message } => {
                Tag::new(out, self.kind()).attr("message", message).end()
            }
        }
    }

    /// Reads a stream frame from its wire text; a frame that is not a
    /// stream frame is [`WireError::UnknownVerb`] (the caller then reads
    /// it as a [`ServerReply`]).
    pub fn decode(text: &str) -> Result<StreamFrame, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| match root {
            "answer-chunk" => Ok(StreamFrame::Chunk {
                seq: d.counter(root, "seq")?,
                payload: d.answer_body(root)?,
            }),
            "answer-end" => Ok(StreamFrame::End {
                chunks: d.counter(root, "chunks")?,
                rows: d.counter(root, "rows")?,
            }),
            "stream-abort" => Ok(StreamFrame::Abort {
                message: d.attr_or_empty("message"),
            }),
            other => Err(WireError::UnknownVerb(format!("unknown stream frame <{other}>")).into()),
        })
    }
}

// ---------------------------------------------------------------- decode

/// One frame's tokenizer and symbol table.
pub(crate) struct Decoder<'a> {
    pub(crate) reader: Reader<'a>,
    symbols: Symbols<'a>,
}

impl<'a> Decoder<'a> {
    /// Reads up to the root start tag and returns its name.
    pub(crate) fn open(text: &'a str) -> Result<(Decoder<'a>, &'a str), ParseError> {
        let mut reader = Reader::new(text);
        let root = match reader.next()? {
            Event::Start(root) => root,
            _ => return Err(reader.error("expected a root element")),
        };
        let symbols = Symbols::default();
        Ok((Decoder { reader, symbols }, root))
    }

    /// Decodes the root element with `body`, then reads the rest of the
    /// text: a syntax error anywhere in it wins over the message's own
    /// complaint, just as it does when the whole text is parsed first.
    pub(crate) fn decode<T>(
        mut self,
        body: impl FnOnce(&mut Decoder<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let result = body(&mut self);
        if !matches!(result, Err(DecodeError::Syntax(_))) {
            self.reader.finish()?;
        }
        result
    }

    /// Consumes the rest of the element just started, through its end
    /// tag.
    pub(crate) fn skip(&mut self) -> Result<(), DecodeError> {
        Ok(self.reader.skip_element()?)
    }

    /// The attribute `name` of the element just started, as a string.
    pub(crate) fn attr_string(&self, name: &str) -> Option<String> {
        self.reader.attr(name).map(str::to_string)
    }

    /// The attribute `name`, or the empty string.
    pub(crate) fn attr_or_empty(&self, name: &str) -> String {
        self.reader.attr(name).unwrap_or_default().to_string()
    }

    /// The attribute `name` split at whitespace.
    pub(crate) fn words(&self, name: &str) -> Vec<String> {
        self.reader
            .attr(name)
            .unwrap_or("")
            .split_whitespace()
            .map(str::to_string)
            .collect()
    }

    /// The attribute `name` of the element just started, or `complaint`
    /// as a [`WireError::Malformed`].
    pub(crate) fn need(&self, name: &str, complaint: &str) -> Result<String, DecodeError> {
        self.attr_string(name).ok_or_else(|| malformed(complaint))
    }

    /// The attribute `name` of `element`, or [`WireError::Missing`].
    fn need_attr(&self, element: &str, name: &str) -> Result<String, DecodeError> {
        self.attr_string(name).ok_or_else(|| missing(element, name))
    }

    /// The attribute `name` of `element` as a count.
    fn counter(&self, element: &str, name: &str) -> Result<u64, DecodeError> {
        let raw = self
            .reader
            .attr(name)
            .ok_or_else(|| missing(element, name))?;
        raw.parse::<u64>().map_err(|_| {
            malformed(format!(
                "<{element}> {name} `{raw}` is not a non-negative integer"
            ))
        })
    }

    /// An optional count: absent is 0.
    fn optional_counter(&self, element: &str, name: &str) -> Result<u64, DecodeError> {
        match self.reader.attr(name) {
            Some(_) => self.counter(element, name),
            None => Ok(0),
        }
    }

    /// The typed atom of the `<element type=".." value=".."/>` just
    /// started: a string exactly as written, a number or boolean with
    /// surrounding whitespace allowed.
    pub(crate) fn typed_atom(&self, element: &str) -> Result<Atom, DecodeError> {
        let t = self
            .reader
            .attr("type")
            .and_then(AtomType::from_name)
            .ok_or_else(|| malformed(format!("<{element}> with unknown type")))?;
        let raw = self
            .reader
            .attr("value")
            .ok_or_else(|| malformed(format!("<{element}> missing value")))?;
        Atom::parse_typed(raw, t).ok_or_else(|| malformed(format!("`{raw}` is not a valid {t}")))
    }

    /// The character data inside the element just started, its
    /// descendants' and CDATA sections included, trimmed — through its
    /// end tag.
    fn text(&mut self) -> Result<String, DecodeError> {
        let mut text = String::new();
        let mut depth = 1usize;
        loop {
            match self.reader.next()? {
                Event::Text(t) => text.push_str(&t),
                Event::CData(t) => text.push_str(t),
                Event::Start(_) => depth += 1,
                Event::End(_) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(text.trim().to_string());
                    }
                }
                Event::Eof => {
                    return Err(self.reader.error("document ended inside an element").into())
                }
                Event::Comment(_) | Event::Pi { .. } => {}
            }
        }
    }

    /// Decodes the first child element of the element just started with
    /// `decode` and skips the rest of its content, through its end tag.
    /// `None` when it has no child element.
    pub(crate) fn first_child<T>(
        &mut self,
        decode: impl FnOnce(&mut Decoder<'a>, &'a str) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        let mut decode = Some(decode);
        let mut first = None;
        self.each_child(|d, name| match decode.take() {
            Some(decode) => {
                first = Some(decode(d, name)?);
                Ok(())
            }
            None => d.skip(),
        })?;
        Ok(first)
    }

    /// The first `N` child elements of the element just started, each
    /// decoded with `decode`; the rest are skipped. `None` when there are
    /// fewer.
    pub(crate) fn leading<T, const N: usize>(
        &mut self,
        mut decode: impl FnMut(&mut Decoder<'a>, &'a str) -> Result<T, DecodeError>,
    ) -> Result<Option<[T; N]>, DecodeError> {
        let mut items = Vec::with_capacity(N);
        self.each_child(|d, name| {
            if items.len() == N {
                return d.skip();
            }
            items.push(decode(d, name)?);
            Ok(())
        })?;
        Ok(items.try_into().ok())
    }

    /// Every child element of the element just started, decoded with
    /// `decode`.
    pub(crate) fn children<T>(
        &mut self,
        mut decode: impl FnMut(&mut Decoder<'a>, &'a str) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut items = Vec::new();
        self.each_child(|d, name| {
            items.push(decode(d, name)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Calls `on` for each child element of the element just started,
    /// through its end tag; `on` consumes the child through its own end
    /// tag. Character data, comments and PIs in between are ignored.
    pub(crate) fn each_child(
        &mut self,
        mut on: impl FnMut(&mut Decoder<'a>, &'a str) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        loop {
            match self.reader.next()? {
                Event::Start(name) => on(self, name)?,
                Event::End(_) => return Ok(()),
                Event::Eof => {
                    return Err(self.reader.error("document ended inside an element").into())
                }
                _ => {}
            }
        }
    }

    /// The body of an `<answer>` or `<answer-chunk>` just started.
    fn answer_body(&mut self, element: &str) -> Result<EvalOut, DecodeError> {
        self.first_child(|d, name| match name {
            "result" => Ok(EvalOut::Tab(d.result()?)),
            _ => Ok(EvalOut::Tree(d.tree(name)?)),
        })?
        .ok_or_else(|| missing(element, "a result or document body"))
    }

    /// The tree of the element `name` just started.
    fn tree(&mut self, name: &'a str) -> Result<Tree, DecodeError> {
        Ok(read_tree(&mut self.reader, name, &mut self.symbols)?)
    }

    /// The table of a `<result>` just started.
    fn result(&mut self) -> Result<Tab, DecodeError> {
        self.first_child(Decoder::tab)?
            .ok_or_else(|| missing("result", "a result table"))
    }

    /// The table of the `<tab>` element `name` just started.
    fn tab(&mut self, name: &'a str) -> Result<Tab, DecodeError> {
        if name != "tab" {
            return Err(malformed(format!("expected <tab>, found <{name}>")));
        }
        let mut tab = Tab::new(self.words("cols"));
        self.rows(&mut tab)?;
        Ok(tab)
    }

    /// The rows of a `<tab>` just started, through its end tag.
    fn rows(&mut self, tab: &mut Tab) -> Result<(), DecodeError> {
        self.each_child(|d, name| {
            if name != "row" {
                return d.skip();
            }
            tab.push(d.row(tab.columns().len())?);
            Ok(())
        })
    }

    /// The cells of a `<row>` just started, through its end tag; `width`
    /// is the table's column count.
    fn row(&mut self, width: usize) -> Result<Vec<Value>, DecodeError> {
        let mut values = Vec::with_capacity(width);
        self.each_child(|d, name| {
            if name != "cell" {
                return d.skip();
            }
            let value = d
                .first_child(Decoder::value)?
                .ok_or_else(|| malformed("<cell> is empty"))?;
            values.push(value);
            Ok(())
        })?;
        if values.len() != width {
            return Err(malformed(format!(
                "row arity {} does not match {width} columns",
                values.len(),
            )));
        }
        Ok(values)
    }

    /// Reads a `<result>` frame up to the start tag of its table, as
    /// [`Decoder::result`] does: the reader inside the `<tab>`, and its
    /// columns. `None` when the text does not get that far, or the frame
    /// is not a `<result>` whose first child is a `<tab>`.
    fn result_head(text: &str) -> Option<(Reader<'_>, Vec<String>)> {
        let (mut d, root) = Decoder::open(text).ok()?;
        if root != "result" {
            return None;
        }
        loop {
            match d.reader.next().ok()? {
                Event::Start("tab") => break,
                Event::Start(_) | Event::End(_) | Event::Eof => return None,
                _ => {}
            }
        }
        let columns = d.words("cols");
        Some((d.reader, columns))
    }

    /// The value of the cell element `name` just started.
    fn value(&mut self, name: &'a str) -> Result<Value, DecodeError> {
        let value = match name {
            "t" => {
                return self
                    .first_child(Decoder::tree)?
                    .map(Value::Tree)
                    .ok_or_else(|| malformed("<t> is empty"))
            }
            "c" => return Ok(Value::Coll(self.children(Decoder::value)?)),
            "a" => Value::Atom(self.typed_atom(name)?),
            "l" => Value::Label(self.need("name", "<l> missing name")?),
            "n" => Value::Null,
            other => return Err(malformed(format!("unknown value element <{other}>"))),
        };
        self.skip()?;
        Ok(value)
    }

    /// The table of the `<bindings>` element `name` just started,
    /// refusing rows of the wrong arity, non-atomic cells, and more than
    /// [`MAX_BATCH_BINDINGS`] rows.
    fn bindings(&mut self, name: &'a str) -> Result<Bindings, DecodeError> {
        if name != "bindings" {
            return Err(malformed(format!("expected <bindings>, found <{name}>")));
        }
        let vars = self.words("vars");
        let mut rows = Vec::new();
        self.each_child(|d, name| {
            if name != "b" {
                return d.skip();
            }
            if rows.len() == MAX_BATCH_BINDINGS {
                return Err(malformed(format!(
                    "<bindings> carries more than {MAX_BATCH_BINDINGS} rows"
                )));
            }
            let row = d.children(|d, name| match d.value(name)? {
                Value::Atom(a) => Ok(a),
                other => Err(malformed(format!(
                    "a binding must be atomic, found {other}"
                ))),
            })?;
            if row.len() != vars.len() {
                return Err(malformed(format!(
                    "binding arity {} does not match {} variables",
                    row.len(),
                    vars.len()
                )));
            }
            rows.push(row);
            Ok(())
        })?;
        Ok(Bindings { vars, rows })
    }

    /// The counters of the `<server-stats>` element `name` just started,
    /// and its `<source>` gauges.
    fn stats(&mut self, name: &str) -> Result<ServerStats, DecodeError> {
        let mut stats = ServerStats {
            workers: self.counter(name, "workers")?,
            queue_capacity: self.counter(name, "queue-capacity")?,
            queue_depth: self.counter(name, "queue-depth")?,
            in_flight: self.counter(name, "in-flight")?,
            connections: self.counter(name, "connections")?,
            admitted: self.counter(name, "admitted")?,
            served: self.counter(name, "served")?,
            shed: self.counter(name, "shed")?,
            errors: self.counter(name, "errors")?,
            protocol_errors: self.counter(name, "protocol-errors")?,
            cut_writes: self.counter(name, "cut-writes")?,
            draining: self.reader.attr("draining") == Some("true"),
            cache_hits: self.counter(name, "cache-hits")?,
            cache_misses: self.counter(name, "cache-misses")?,
            sources: Vec::new(),
        };
        self.each_child(|d, name| {
            if name != "source" {
                return d.skip();
            }
            stats.sources.push(SourceGauge {
                name: d.need_attr(name, "name")?,
                round_trips: d.counter(name, "round-trips")?,
                in_flight: d.counter(name, "in-flight")?,
                group: d.attr_string("group"),
                ewma_latency_us: d.optional_counter(name, "ewma-latency-us")?,
                errors: d.optional_counter(name, "errors")?,
            });
            d.skip()
        })?;
        Ok(stats)
    }
}
