//! # yat-xml — XML substrate for the YAT integration system
//!
//! A self-contained implementation of the XML 1.0 subset used by the YAT
//! system of *"On Wrapping Query Languages and Efficient XML Integration"*
//! (SIGMOD 2000). Wrappers and mediators in the paper exchange **data,
//! structures and operations** as XML documents (Section 2), so this crate is
//! the wire format of the whole reproduction:
//!
//! * [`Element`] / [`Content`] — an ordered-tree document model with
//!   attributes, text, comments, CDATA and processing instructions;
//! * [`Reader`] — a byte-level pull tokenizer over borrowed input, the
//!   one XML grammar of the workspace, with line/column error reporting;
//! * [`parse`] / [`parse_element`] — a DOM builder over that tokenizer;
//! * [`Element::to_xml`] and [`Element::to_pretty_xml`] — serializers that
//!   round-trip with the parser, and the [`Out`]/[`push_text`]/
//!   [`push_attribute`] primitives that let wire encoders write the same
//!   bytes without building an `Element`;
//! * entity escaping/unescaping (the five predefined entities plus numeric
//!   character references).
//!
//! The subset deliberately excludes DTDs and namespaces: the paper predates
//! XML namespaces in practice and argues DTDs are insufficient for type
//! information (Section 1), replacing them with the YAT type system
//! implemented in `yat-model`.
//!
//! ```
//! use yat_xml::parse_element;
//!
//! let doc = parse_element(r#"<work><artist>Claude Monet</artist></work>"#).unwrap();
//! assert_eq!(doc.name, "work");
//! assert_eq!(doc.child("artist").unwrap().text(), "Claude Monet");
//! let again = parse_element(&doc.to_xml()).unwrap();
//! assert_eq!(doc, again);
//! ```

mod escape;
mod node;
mod parser;
mod reader;
mod writer;

pub use escape::{escape_attr, escape_text, unescape};
pub use node::{Attribute, Content, Element};
pub use parser::{parse, parse_element};
pub use reader::{Attr, Event, ParseError, Position, Reader};
pub use writer::{push_attribute, push_text, write_pretty, write_xml, ByteCount, Out};

#[cfg(test)]
mod tests;
