//! The DOM builder: [`Element`] trees assembled from the events of the
//! one tokenizer ([`crate::Reader`]).

use crate::node::{Attribute, Content, Element};
use crate::reader::{Event, ParseError, Reader};

/// Parses a complete document: optional XML declaration, optional
/// comments/PIs, then exactly one root element.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut reader = Reader::new(input);
    let mut open: Vec<Element> = Vec::new();
    let mut root = None;
    loop {
        let content = match reader.next()? {
            Event::Start(name) => {
                let mut el = Element::new(name);
                el.attributes = reader
                    .attrs()
                    .iter()
                    .map(|a| Attribute::new(a.name, a.value.as_ref()))
                    .collect();
                open.push(el);
                continue;
            }
            Event::End(_) => {
                let el = open.pop().expect("the reader balances tags");
                if open.is_empty() {
                    root = Some(el);
                    continue;
                }
                Content::Element(el)
            }
            Event::Text(t) => Content::Text(t.into_owned()),
            Event::CData(t) => Content::CData(t.to_string()),
            Event::Comment(t) => Content::Comment(t.to_string()),
            Event::Pi { target, data } => Content::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            },
            Event::Eof => return Ok(root.expect("Eof follows the root element")),
        };
        open.last_mut()
            .expect("content lies inside the root element")
            .children
            .push(content);
    }
}

/// Parses a single element, ignoring any prolog. Convenience entry point
/// used throughout the workspace for message payloads.
pub fn parse_element(input: &str) -> Result<Element, ParseError> {
    parse(input)
}
