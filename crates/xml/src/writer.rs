//! Serializers: compact (wire format, round-trips exactly) and pretty
//! (indented, for transcripts and EXPLAIN output), plus the escaping
//! primitives the DOM-free wire encoders write with.

use crate::escape::push_escaped;
use crate::node::{Content, Element};

/// Where compact XML goes: a `String`, or a [`ByteCount`] that only
/// measures.
pub trait Out {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
}

impl Out for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// An [`Out`] that counts the bytes it is given and stores none: the
/// serialized length of a message without the message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCount(pub u64);

impl Out for ByteCount {
    fn push_str(&mut self, s: &str) {
        self.0 += s.len() as u64;
    }
}

/// Appends character data, escaping `&`, `<` and `>` — the bytes
/// [`crate::escape_text`] would produce, without an intermediate string.
pub fn push_text(out: &mut impl Out, s: &str) {
    push_escaped(out, s, false);
}

/// Appends ` name="value"`, escaping the value like
/// [`crate::escape_attr`].
pub fn push_attribute(out: &mut impl Out, name: &str, value: &str) {
    out.push_str(" ");
    out.push_str(name);
    out.push_str("=\"");
    push_escaped(out, value, true);
    out.push_str("\"");
}

/// Writes `el` compactly onto `out`. No whitespace is introduced, so
/// `parse(write(el)) == el`.
pub fn write_xml(el: &Element, out: &mut impl Out) {
    out.push_str("<");
    out.push_str(&el.name);
    for a in &el.attributes {
        push_attribute(out, &a.name, &a.value);
    }
    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push_str(">");
    for c in &el.children {
        write_content(c, out);
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">");
}

fn write_content(c: &Content, out: &mut impl Out) {
    match c {
        Content::Element(e) => write_xml(e, out),
        Content::Text(t) => push_text(out, t),
        Content::CData(t) => {
            out.push_str("<![CDATA[");
            out.push_str(t);
            out.push_str("]]>");
        }
        Content::Comment(t) => {
            out.push_str("<!--");
            out.push_str(t);
            out.push_str("-->");
        }
        Content::ProcessingInstruction { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push_str(" ");
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

/// Writes `el` with two-space indentation.
///
/// Elements whose children are text-only are kept on one line
/// (`<title>Nympheas</title>`), matching the layout of the paper's figures.
/// Mixed content is emitted compactly to avoid changing its meaning.
pub fn write_pretty(el: &Element, out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    let has_el = el.children.iter().any(|c| matches!(c, Content::Element(_)));
    let has_text = el
        .children
        .iter()
        .any(|c| matches!(c, Content::Text(_) | Content::CData(_)) && !c.is_ws());
    if !has_el || has_text {
        // leaf-ish or mixed: one line
        write_xml(el, out);
        out.push('\n');
        return;
    }
    out.push('<');
    out.push_str(&el.name);
    for a in &el.attributes {
        push_attribute(out, &a.name, &a.value);
    }
    out.push_str(">\n");
    for c in &el.children {
        match c {
            Content::Element(e) => write_pretty(e, out, indent + 1),
            other if other.is_ws() => {}
            other => {
                for _ in 0..=indent {
                    out.push_str("  ");
                }
                write_content(other, out);
                out.push('\n');
            }
        }
    }
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">\n");
}
