//! A byte-level pull tokenizer for the XML subset exchanged between YAT
//! wrappers and mediators — the one XML grammar of the workspace.
//!
//! [`Reader`] walks the input once and hands out [`Event`]s that borrow
//! from it: tag names, attribute values and character data are slices of
//! the input unless an entity reference or a line end forces a copy. The
//! DOM builder ([`crate::parse`]) and the wire codecs that decode straight
//! into YAT trees and tables are both consumers of this one tokenizer, so
//! they accept and reject exactly the same texts.
//!
//! The cursor is a byte offset. Line and column are computed from it only
//! when an error is raised, so well-formed input pays no bookkeeping.

use crate::escape::unescape;
use std::borrow::Cow;
use std::fmt;

/// A line/column position in the input, for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub column: u32,
}

impl Position {
    /// The position of byte `offset` in `input`: lines are counted at
    /// `\n`, columns in characters since the last one.
    pub fn at(input: &str, offset: usize) -> Position {
        let before = &input[..offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        Position {
            line: 1 + before.bytes().filter(|&b| b == b'\n').count() as u32,
            column: 1 + before[line_start..].chars().count() as u32,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A parse failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the failure was detected.
    pub position: Position,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One attribute of the current start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Attribute name.
    pub name: &'a str,
    /// Unescaped value.
    pub value: Cow<'a, str>,
}

/// One step of the document, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag. Its attributes are [`Reader::attrs`] until the next
    /// call to [`Reader::next`].
    Start(&'a str),
    /// An end tag — also emitted right after the `Start` of a
    /// self-closing tag, so every `Start` has exactly one `End`.
    End(&'a str),
    /// Character data up to the next markup: unescaped, with `\r\n` and
    /// lone `\r` normalized to `\n`. Never empty.
    Text(Cow<'a, str>),
    /// The body of a `<![CDATA[..]]>` section.
    CData(&'a str),
    /// The body of a `<!-- .. -->` comment inside the root element.
    Comment(&'a str),
    /// A `<?target data?>` processing instruction inside the root
    /// element.
    Pi {
        /// The PI target.
        target: &'a str,
        /// Everything after the target, leading whitespace trimmed.
        data: &'a str,
    },
    /// The root element closed and only whitespace, comments and PIs
    /// followed it. Repeats on further calls.
    Eof,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element closed.
    Epilog,
    /// `Eof` was returned.
    Done,
}

/// The pull tokenizer: [`Reader::next`] hands out the document's
/// [`Event`]s in order, borrowing from the input.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    state: State,
    /// Names of the open elements, innermost last.
    open: Vec<&'a str>,
    /// The current start tag's attributes.
    attrs: Vec<Attr<'a>>,
    /// The last `Start` was self-closing: its `End` comes next.
    pending_end: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            state: State::Prolog,
            open: Vec::new(),
            attrs: Vec::new(),
            pending_end: false,
        }
    }

    /// The attributes of the most recent [`Event::Start`], in document
    /// order (duplicates included).
    pub fn attrs(&self) -> &[Attr<'a>] {
        &self.attrs
    }

    /// The first attribute of the most recent start tag named `name`.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_ref())
    }

    /// A [`ParseError`] at the cursor — what the tokenizer raises, and
    /// what a consumer raises to reject a document on its own terms.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: Position::at(self.input, self.pos),
            message: message.into(),
        }
    }

    /// The next event.
    #[allow(clippy::should_implement_trait)] // fallible; not an Iterator
    pub fn next(&mut self) -> Result<Event<'a>, ParseError> {
        match self.state {
            State::Prolog => {
                self.skip_prolog()?;
                if !self.starts_with("<") {
                    return Err(self.error(format!("expected `<`, found `{:.12}`", self.rest())));
                }
                self.state = State::Content;
                self.start_tag()
            }
            State::Content => self.content(),
            State::Epilog => {
                self.skip_misc();
                if self.pos < self.input.len() {
                    return Err(self.error("content after document root element"));
                }
                self.state = State::Done;
                Ok(Event::Eof)
            }
            State::Done => Ok(Event::Eof),
        }
    }

    /// Consumes the rest of the element whose `Start` was just returned,
    /// through its matching `End`.
    pub fn skip_element(&mut self) -> Result<(), ParseError> {
        let depth = self.open.len();
        loop {
            if let Event::End(_) = self.next()? {
                if self.open.len() < depth {
                    return Ok(());
                }
            }
        }
    }

    /// Reads to `Eof`, checking the rest of the document is well formed.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        while self.next()? != Event::Eof {}
        Ok(())
    }

    fn content(&mut self) -> Result<Event<'a>, ParseError> {
        if self.pending_end {
            self.pending_end = false;
            return Ok(self.close());
        }
        let Some(&first) = self.input.as_bytes().get(self.pos) else {
            let inside = self.open.last().copied().unwrap_or_default();
            return Err(self.error(format!("unexpected end of input inside <{inside}>")));
        };
        if first != b'<' {
            return self.text();
        }
        if self.eat("</") {
            let name = self.name()?;
            let expected = self.open.last().copied().unwrap_or_default();
            if name != expected {
                return Err(self.error(format!(
                    "mismatched closing tag: expected `</{expected}>`, found `</{name}>`"
                )));
            }
            self.skip_ws();
            self.expect(">")?;
            Ok(self.close())
        } else if self.eat("<!--") {
            Ok(Event::Comment(self.until("-->", "comment")?))
        } else if self.eat("<![CDATA[") {
            Ok(Event::CData(self.until("]]>", "CDATA section")?))
        } else if self.eat("<?") {
            let body = self.until("?>", "processing instruction")?;
            let (target, data) = match body.find(char::is_whitespace) {
                Some(i) => (&body[..i], body[i..].trim_start()),
                None => (body, ""),
            };
            Ok(Event::Pi { target, data })
        } else if self.starts_with("<!") {
            Err(self.error("DTD declarations are not supported"))
        } else {
            self.start_tag()
        }
    }

    /// Pops the innermost open element.
    fn close(&mut self) -> Event<'a> {
        let name = self.open.pop().unwrap_or_default();
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
        Event::End(name)
    }

    /// Character data up to the next `<` (or the end of input).
    fn text(&mut self) -> Result<Event<'a>, ParseError> {
        let rest = &self.input.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| b == b'<').unwrap_or(rest.len());
        let raw = &self.input[self.pos..self.pos + len];
        self.pos += len;
        let text = unescape(raw).map_err(|m| self.error(m))?;
        if !raw.contains('\r') {
            return Ok(Event::Text(text));
        }
        // XML 1.0 end-of-line handling: `\r\n` and lone `\r` become `\n`
        Ok(Event::Text(Cow::Owned(
            text.replace("\r\n", "\n").replace('\r', "\n"),
        )))
    }

    /// A start tag at the cursor (which is on its `<`).
    fn start_tag(&mut self) -> Result<Event<'a>, ParseError> {
        self.pos += 1;
        let name = self.name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            if self.eat("/>") {
                self.pending_end = true;
                break;
            }
            if self.eat(">") {
                break;
            }
            self.attribute()?;
        }
        self.open.push(name);
        Ok(Event::Start(name))
    }

    fn attribute(&mut self) -> Result<(), ParseError> {
        let name = self.name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.input.as_bytes().get(self.pos) {
            Some(b'"') => "\"",
            Some(b'\'') => "'",
            _ => return Err(self.error("expected quoted attribute value")),
        };
        self.pos += 1;
        let raw = self.until(quote, "attribute value")?;
        let value = unescape(raw).map_err(|m| self.error(m))?;
        self.attrs.push(Attr { name, value });
        Ok(())
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => self.pos += c.len_utf8(),
            _ => return Err(self.error("expected a name")),
        }
        while let Some(c) = self.peek().filter(|&c| is_name_char(c)) {
            self.pos += c.len_utf8();
        }
        Ok(&self.input[start..self.pos])
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat("<?xml") {
            self.until("?>", "XML declaration")?;
        }
        self.skip_misc();
        Ok(())
    }

    /// Skips whitespace, comments and PIs around the root element. An
    /// unterminated one stops the skipping with the cursor after its
    /// opener, where the caller's next expectation then fails.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let closer = if self.eat("<!--") {
                "-->"
            } else if self.eat("<?") {
                "?>"
            } else {
                return;
            };
            if self.until(closer, "").is_err() {
                return;
            }
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Consumes everything up to and including `end`, returning what
    /// came before it.
    fn until(&mut self, end: &str, what: &str) -> Result<&'a str, ParseError> {
        match self.rest().find(end) {
            Some(i) => {
                let s = &self.rest()[..i];
                self.pos += i + end.len();
                Ok(s)
            }
            None => Err(self.error(format!("unterminated {what} (missing `{end}`)"))),
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found `{:.12}`", s, self.rest())))
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        let hit = self.starts_with(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        match *self.input.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.rest().chars().next(),
        }
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}
