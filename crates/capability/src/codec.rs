//! The DOM-free wire codec for the frames that carry data: `<document>`
//! and `<result><tab>` between mediator and wrappers, `<answer>` and
//! `<answer-chunk>` between server and clients.
//!
//! Encoding writes a `Tab`, a `Value` or a `Tree` straight onto an
//! [`Out`] — the frame's `String`, or a [`yat_xml::ByteCount`] when only
//! the length is wanted. Decoding pulls events from one
//! [`Reader`] over the frame text and builds the `Tab`/`Tree` as they
//! come, interning each distinct tag once per frame ([`Symbols`]). No
//! `Element` is built on either side.
//!
//! The `Element` path — [`tab_to_xml`](crate::tab_xml::tab_to_xml),
//! `Response::to_xml`/`from_xml` and friends — stays as the reference.
//! The codec writes exactly the bytes the reference writes and accepts or
//! rejects exactly the texts it does, with the same [`WireError`]
//! variant (`tests/prop_wire_codec.rs`). The small verbs (interfaces,
//! errors, stats, stream terminators) are encoded and decoded through
//! the reference itself: they carry no data volume.

use crate::protocol::{Response, ServerReply, StreamFrame};
use crate::xml::WireError;
use yat_algebra::{EvalOut, Tab, Value};
use yat_model::xml_convert::{read_tree, write_tree, Symbols};
use yat_model::{Atom, AtomType, Tree};
use yat_xml::{push_attribute, write_xml, Event, Out, ParseError, Reader};

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

fn malformed(msg: impl Into<String>) -> DecodeError {
    DecodeError::Wire(WireError::Malformed(msg.into()))
}

fn missing(element: &str, what: &str) -> DecodeError {
    DecodeError::Wire(WireError::Missing {
        element: element.into(),
        what: what.into(),
    })
}

// ---------------------------------------------------------------- encode

/// Writes `tab_to_xml(tab).to_xml()`.
pub fn write_tab(tab: &Tab, out: &mut impl Out) {
    out.push_str("<tab");
    push_attribute(out, "cols", &tab.columns().join(" "));
    if tab.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push_str(">");
    for row in tab.rows() {
        if row.is_empty() {
            out.push_str("<row/>");
            continue;
        }
        out.push_str("<row>");
        for v in row {
            out.push_str("<cell>");
            write_value(v, out);
            out.push_str("</cell>");
        }
        out.push_str("</row>");
    }
    out.push_str("</tab>");
}

/// Writes `value_to_xml(v).to_xml()`.
pub fn write_value(v: &Value, out: &mut impl Out) {
    match v {
        Value::Tree(t) => {
            out.push_str("<t>");
            write_tree(t, out);
            out.push_str("</t>");
        }
        Value::Atom(a) => {
            out.push_str("<a");
            push_attribute(out, "type", a.atom_type().name());
            push_attribute(out, "value", &a.text());
            out.push_str("/>");
        }
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

/// The body an `<answer>` or `<answer-chunk>` carries.
fn write_answer_body(body: &EvalOut, out: &mut impl Out) {
    match body {
        EvalOut::Tab(tab) => write_result(tab, out),
        EvalOut::Tree(tree) => write_tree(tree, out),
    }
}

impl Response {
    /// Writes the response's wire text: the bytes of
    /// `self.to_xml().to_xml()`.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            Response::Document { name, tree } => write_document(name, tree, out),
            Response::Result(tab) => write_result(tab, out),
            Response::Interface(_) | Response::Refused(_) | Response::Error(_) => {
                write_xml(&self.to_xml(), out)
            }
        }
    }

    /// Reads a response from its wire text — what
    /// `Response::from_xml(&parse_element(text)?)` reads.
    pub fn decode(text: &str) -> Result<Response, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        match root {
            "document" => d.decode(|d| {
                let name = d
                    .reader
                    .attr("name")
                    .ok_or_else(|| missing("document", "name"))?
                    .to_string();
                let tree = d
                    .first_child(Decoder::tree)?
                    .ok_or_else(|| missing("document", "a document tree"))?;
                Ok(Response::Document { name, tree })
            }),
            "result" => d.decode(|d| Ok(Response::Result(d.result()?))),
            _ => Ok(Response::from_xml(&yat_xml::parse_element(text)?)?),
        }
    }
}

impl ServerReply {
    /// Writes the reply's wire text: the bytes of
    /// `self.to_xml().to_xml()`.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            ServerReply::Answer { out: body } => {
                out.push_str("<answer>");
                write_answer_body(body, out);
                out.push_str("</answer>");
            }
            _ => write_xml(&self.to_xml(), out),
        }
    }

    /// Reads a reply from its wire text — what
    /// `ServerReply::from_xml(&parse_element(text)?)` reads.
    pub fn decode(text: &str) -> Result<ServerReply, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        if root != "answer" {
            return Ok(ServerReply::from_xml(&yat_xml::parse_element(text)?)?);
        }
        d.decode(|d| {
            Ok(ServerReply::Answer {
                out: d.answer_body("answer")?,
            })
        })
    }
}

impl StreamFrame {
    /// Writes the frame's wire text: the bytes of
    /// `self.to_xml().to_xml()`.
    pub fn encode(&self, out: &mut impl Out) {
        match self {
            StreamFrame::Chunk { seq, payload } => {
                out.push_str("<answer-chunk");
                push_attribute(out, "seq", &seq.to_string());
                out.push_str(">");
                write_answer_body(payload, out);
                out.push_str("</answer-chunk>");
            }
            _ => write_xml(&self.to_xml(), out),
        }
    }

    /// Reads a stream frame from its wire text — what
    /// `StreamFrame::from_xml(&parse_element(text)?)` reads, so a frame
    /// that is not a stream frame is [`WireError::UnknownVerb`].
    pub fn decode(text: &str) -> Result<StreamFrame, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        if root != "answer-chunk" {
            return Ok(StreamFrame::from_xml(&yat_xml::parse_element(text)?)?);
        }
        d.decode(|d| {
            let raw = d
                .reader
                .attr("seq")
                .ok_or_else(|| missing("answer-chunk", "seq"))?;
            let seq = raw.parse::<u64>().map_err(|_| {
                malformed(format!(
                    "<answer-chunk> seq `{raw}` is not a non-negative integer"
                ))
            })?;
            Ok(StreamFrame::Chunk {
                seq,
                payload: d.answer_body("answer-chunk")?,
            })
        })
    }
}

// ---------------------------------------------------------------- decode

/// One frame's tokenizer and symbol table.
struct Decoder<'a> {
    reader: Reader<'a>,
    symbols: Symbols<'a>,
}

impl<'a> Decoder<'a> {
    /// Reads up to the root start tag and returns its name.
    fn open(text: &'a str) -> Result<(Decoder<'a>, &'a str), ParseError> {
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
    fn decode<T>(
        mut self,
        body: impl FnOnce(&mut Decoder<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let result = body(&mut self);
        if !matches!(result, Err(DecodeError::Syntax(_))) {
            self.reader.finish()?;
        }
        result
    }

    /// Decodes the first child element of the element just started with
    /// `decode` and skips the rest of its content, through its end tag.
    /// `None` when it has no child element.
    fn first_child<T>(
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
            None => Ok(d.reader.skip_element()?),
        })?;
        Ok(first)
    }

    /// Calls `on` for each child element of the element just started,
    /// through its end tag; `on` consumes the child through its own end
    /// tag. Character data, comments and PIs in between are ignored.
    fn each_child(
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

    /// What `tab_from_xml` reads from the element `name` just started.
    fn tab(&mut self, name: &'a str) -> Result<Tab, DecodeError> {
        if name != "tab" {
            return Err(malformed(format!("expected <tab>, found <{name}>")));
        }
        let cols: Vec<String> = self
            .reader
            .attr("cols")
            .unwrap_or("")
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let mut tab = Tab::new(cols);
        self.each_child(|d, name| {
            if name != "row" {
                return Ok(d.reader.skip_element()?);
            }
            let mut values = Vec::with_capacity(tab.columns().len());
            d.each_child(|d, name| {
                if name != "cell" {
                    return Ok(d.reader.skip_element()?);
                }
                let value = d
                    .first_child(Decoder::value)?
                    .ok_or_else(|| malformed("<cell> is empty"))?;
                values.push(value);
                Ok(())
            })?;
            if values.len() != tab.columns().len() {
                return Err(malformed(format!(
                    "row arity {} does not match {} columns",
                    values.len(),
                    tab.columns().len()
                )));
            }
            tab.push(values);
            Ok(())
        })?;
        Ok(tab)
    }

    /// What `value_from_xml` reads from the element `name` just started.
    fn value(&mut self, name: &'a str) -> Result<Value, DecodeError> {
        let value = match name {
            "t" => {
                return self
                    .first_child(Decoder::tree)?
                    .map(Value::Tree)
                    .ok_or_else(|| malformed("<t> is empty"))
            }
            "c" => {
                let mut items = Vec::new();
                self.each_child(|d, name| {
                    items.push(d.value(name)?);
                    Ok(())
                })?;
                return Ok(Value::Coll(items));
            }
            "a" => {
                let r = &self.reader;
                let t = r
                    .attr("type")
                    .and_then(AtomType::from_name)
                    .ok_or_else(|| malformed("<a> with unknown type"))?;
                let raw = r
                    .attr("value")
                    .ok_or_else(|| malformed("<a> missing value"))?;
                Value::Atom(
                    Atom::parse_typed(raw, t)
                        .ok_or_else(|| malformed(format!("`{raw}` is not a valid {t}")))?,
                )
            }
            "l" => Value::Label(
                self.reader
                    .attr("name")
                    .ok_or_else(|| malformed("<l> missing name"))?
                    .to_string(),
            ),
            "n" => Value::Null,
            other => return Err(malformed(format!("unknown value element <{other}>"))),
        };
        self.reader.skip_element()?;
        Ok(value)
    }
}
