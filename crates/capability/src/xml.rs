//! The wire form of interfaces, Fpatterns and structural patterns —
//! the document of Fig. 6 — written onto an [`Out`] and read through the
//! codec's decoder. The structural patterns are also the filters a
//! pushed plan's `<bind>` carries.

use crate::codec::{malformed, DecodeError, Decoder, Tag};
use crate::flags::{BindFlag, InstFlag};
use crate::fpattern::{FEdge, FLabel, FOcc, FPattern, Fmodel};
use crate::interface::{Equivalence, ExportDecl, Interface, OpKind, OperationDecl, SigItem};
use std::fmt;
use yat_model::{AtomType, Edge, Model, Occ, PLabel, Pattern, StarBind};
use yat_xml::Out;

/// A failure anywhere on the wire: a payload that does not decode, a
/// frame that ends early, a verb no protocol knows, or the socket-level
/// faults a networked deployment adds on top.
///
/// Typed so callers can distinguish "the bytes are garbage" from "the
/// peer is slow" from "the peer crashed" — the serving layer maps these
/// onto different client-visible responses — while every variant still
/// renders a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Structurally invalid XML or an ill-formed payload inside it.
    Malformed(String),
    /// An element name that is not a verb of the protocol being parsed.
    UnknownVerb(String),
    /// A required attribute or child element is absent.
    Missing {
        /// The element that is incomplete (its wire tag).
        element: String,
        /// What was expected of it.
        what: String,
    },
    /// A length-prefixed frame ended before its declared length.
    Truncated {
        /// Bytes the frame header promised.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A frame header declared a length beyond the permitted maximum.
    FrameTooLarge {
        /// The declared payload length.
        declared: u64,
        /// The receiver's limit.
        max: u64,
    },
    /// A socket- or stream-level I/O failure.
    Io(String),
    /// The round trip exceeded its deadline.
    Timeout(String),
    /// The remote side failed while handling the request (its panic was
    /// contained and converted into this error).
    Remote(String),
    /// A chunked answer stream violated its protocol: an out-of-order
    /// chunk sequence number, a terminal frame whose counts disagree
    /// with what arrived, a connection closed mid-stream, or a typed
    /// `stream-abort` from the producer. Distinct from [`Self::Remote`]
    /// so a consumer can tell "the answer failed" from "part of the
    /// answer is missing" — a short stream must never read as a short
    /// answer.
    Stream(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "wire format error: {m}"),
            WireError::UnknownVerb(m) => write!(f, "wire format error: {m}"),
            WireError::Missing { element, what } => {
                write!(f, "wire format error: <{element}> missing {what}")
            }
            WireError::Truncated { expected, got } => write!(
                f,
                "wire frame truncated: expected {expected} bytes, got {got}"
            ),
            WireError::FrameTooLarge { declared, max } => write!(
                f,
                "wire frame too large: declared {declared} bytes, limit {max}"
            ),
            WireError::Io(m) => write!(f, "wire i/o error: {m}"),
            WireError::Timeout(m) => write!(f, "{m}"),
            WireError::Remote(m) => write!(f, "{m}"),
            WireError::Stream(m) => write!(f, "answer stream error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- interface

impl Interface {
    /// Writes the interface document (Fig. 6 shape).
    pub fn encode(&self, out: &mut impl Out) {
        let empty = self.models.is_empty()
            && self.fmodels.is_empty()
            && self.exports.is_empty()
            && self.operations.is_empty()
            && self.equivalences.is_empty();
        Tag::new(out, "interface")
            .attr("name", &self.name)
            .body(empty, |out| {
                for m in &self.models {
                    write_model(m, out);
                }
                for fm in &self.fmodels {
                    write_fmodel(fm, out);
                }
                for e in &self.exports {
                    Tag::new(out, "export")
                        .attr("name", &e.name)
                        .attr("model", &e.model)
                        .attr("pattern", &e.pattern)
                        .end();
                }
                for o in &self.operations {
                    write_operation(o, out);
                }
                for eq in &self.equivalences {
                    match eq {
                        Equivalence::EqImpliesContains { predicate } => {
                            Tag::new(out, "equivalence")
                                .attr("kind", "eq-implies-contains")
                                .attr("predicate", predicate)
                                .end()
                        }
                    }
                }
            });
    }

    /// Reads an interface document.
    pub fn decode(text: &str) -> Result<Interface, DecodeError> {
        let (d, root) = Decoder::open(text)?;
        d.decode(|d| d.interface(root))
    }
}

fn write_operation<O: Out>(o: &OperationDecl, out: &mut O) {
    let signature = |out: &mut O, tag: &'static str, items: &[SigItem]| {
        if !items.is_empty() {
            Tag::new(out, tag).with(|out: &mut O| {
                for s in items {
                    write_sig(s, out);
                }
            });
        }
    };
    Tag::new(out, "operation")
        .attr("name", &o.name)
        .attr("kind", o.kind.attr())
        .body(o.input.is_empty() && o.output.is_empty(), |out| {
            signature(out, "input", &o.input);
            signature(out, "output", &o.output);
        });
}

fn write_sig(s: &SigItem, out: &mut impl Out) {
    match s {
        SigItem::Value { model, pattern } => Tag::new(out, "value")
            .attr("model", model)
            .attr("pattern", pattern)
            .end(),
        SigItem::Filter { model, pattern } => Tag::new(out, "filter")
            .attr("model", model)
            .attr("pattern", pattern)
            .end(),
        SigItem::Leaf(t) => Tag::new(out, "leaf").attr("label", t.name()).end(),
    }
}

// ---------------------------------------------------------------- fpatterns

/// Writes an Fmodel (Fig. 6 lines 2–33).
fn write_fmodel<O: Out>(m: &Fmodel, out: &mut O) {
    Tag::new(out, "fmodel")
        .attr("name", &m.name)
        .body(m.patterns.is_empty(), |out: &mut O| {
            for (name, p) in &m.patterns {
                Tag::new(out, "fpattern")
                    .attr("name", name)
                    .with(|out| write_fpattern(p, out));
            }
        });
}

/// Writes one Fpattern node.
fn write_fpattern<O: Out>(p: &FPattern, out: &mut O) {
    match p {
        FPattern::Node {
            label,
            bind,
            inst,
            edges,
        } => {
            let label = match label {
                FLabel::Sym(s) => s,
                FLabel::AnySym => "Symbol",
            };
            Tag::new(out, "node")
                .attr("label", label)
                .opt("bind", bind.attr())
                .opt("inst", inst.attr())
                .body(edges.is_empty(), |out: &mut O| {
                    for e in edges {
                        match e.occ {
                            FOcc::One => write_fpattern(&e.child, out),
                            FOcc::Star => Tag::new(out, "star")
                                .opt("inst", e.inst.attr())
                                .with(|out| write_fpattern(&e.child, out)),
                        }
                    }
                })
        }
        FPattern::Union(branches) => {
            Tag::new(out, "union").body(branches.is_empty(), |out: &mut O| {
                for b in branches {
                    write_fpattern(b, out);
                }
            })
        }
        FPattern::Ref(name) => Tag::new(out, "ref").attr("pattern", name).end(),
        FPattern::Leaf(t) => Tag::new(out, "leaf").attr("label", t.name()).end(),
    }
}

// ----------------------------------------------------- structural patterns

/// Writes a structural model (Fig. 3 metadata).
fn write_model<O: Out>(m: &Model, out: &mut O) {
    Tag::new(out, "model")
        .attr("name", &m.name)
        .body(m.is_empty(), |out: &mut O| {
            for (name, p) in m.defs() {
                Tag::new(out, "pattern")
                    .attr("name", name)
                    .with(|out| write_pattern(p, out));
            }
        });
}

/// Writes a structural pattern or filter.
pub(crate) fn write_pattern<O: Out>(p: &Pattern, out: &mut O) {
    match p {
        Pattern::Node { label, edges } => {
            let tag = match label {
                PLabel::Sym(s) => Tag::new(out, "node").attr("label", s.as_str()),
                PLabel::Const(a) => Tag::new(out, "const")
                    .attr("type", a.atom_type().name())
                    .attr("value", &a.text()),
                PLabel::Atom(t) => Tag::new(out, "leaf").attr("label", t.name()),
                PLabel::AnySym => Tag::new(out, "anysym"),
                PLabel::Any => Tag::new(out, "anylabel"),
                PLabel::Var(v) => Tag::new(out, "labelvar").attr("name", v),
            };
            tag.body(edges.is_empty(), |out: &mut O| {
                for e in edges {
                    let child = |out: &mut O| write_pattern(&e.pattern, out);
                    match (e.occ, &e.star_var) {
                        (Occ::One, _) => child(out),
                        (Occ::Opt, _) => Tag::new(out, "opt").with(child),
                        (Occ::Star, None) => Tag::new(out, "star").with(child),
                        (Occ::Star, Some((v, mode))) => {
                            let mode = match mode {
                                StarBind::Iterate => "iterate",
                                StarBind::Collect => "collect",
                            };
                            Tag::new(out, "star")
                                .attr("var", v)
                                .attr("mode", mode)
                                .with(child)
                        }
                    }
                }
            })
        }
        Pattern::Union(branches) => {
            Tag::new(out, "union").body(branches.is_empty(), |out: &mut O| {
                for b in branches {
                    write_pattern(b, out);
                }
            })
        }
        Pattern::Ref(name) => Tag::new(out, "ref").attr("name", name).end(),
        Pattern::TreeVar(v) => Tag::new(out, "var").attr("name", v).end(),
        Pattern::Wildcard => Tag::new(out, "any").end(),
    }
}

// ------------------------------------------------------------------ readers

impl<'a> Decoder<'a> {
    /// The interface of the element `tag` just started.
    pub(crate) fn interface(&mut self, tag: &str) -> Result<Interface, DecodeError> {
        if tag != "interface" {
            return Err(malformed(format!("expected <interface>, found <{tag}>")));
        }
        let mut i = Interface::new(self.need("name", "<interface> missing name")?);
        self.each_child(|d, name| {
            match name {
                "model" => i.models.push(d.model()?),
                "fmodel" => i.fmodels.push(d.fmodel()?),
                "export" => {
                    i.exports.push(ExportDecl {
                        name: d.need("name", "<export> missing name")?,
                        model: d.attr_or_empty("model"),
                        pattern: d.attr_or_empty("pattern"),
                    });
                    d.skip()?;
                }
                "operation" => i.operations.push(d.operation()?),
                "equivalence" => {
                    match d.reader.attr("kind") {
                        Some("eq-implies-contains") => {
                            i.equivalences.push(Equivalence::EqImpliesContains {
                                predicate: d
                                    .need("predicate", "<equivalence> missing predicate")?,
                            })
                        }
                        other => {
                            return Err(malformed(format!("unknown equivalence kind {other:?}")))
                        }
                    }
                    d.skip()?;
                }
                other => return Err(malformed(format!("unexpected <{other}> in <interface>"))),
            }
            Ok(())
        })?;
        Ok(i)
    }

    /// The `<operation>` just started.
    fn operation(&mut self) -> Result<OperationDecl, DecodeError> {
        let name = self.need("name", "<operation> missing name")?;
        let kind = self
            .reader
            .attr("kind")
            .and_then(OpKind::from_attr)
            .ok_or_else(|| malformed(format!("operation `{name}` has a bad kind")))?;
        let (mut input, mut output) = (None, None);
        self.each_child(|d, tag| {
            let slot = match tag {
                "input" => &mut input,
                "output" => &mut output,
                _ => return d.skip(),
            };
            if slot.is_some() {
                return d.skip();
            }
            *slot = Some(d.children(Decoder::sig)?);
            Ok(())
        })?;
        Ok(OperationDecl {
            name,
            kind,
            input: input.unwrap_or_default(),
            output: output.unwrap_or_default(),
        })
    }

    /// The signature item of the element `tag` just started.
    fn sig(&mut self, tag: &'a str) -> Result<SigItem, DecodeError> {
        let item = match tag {
            "value" => SigItem::Value {
                model: self.attr_or_empty("model"),
                pattern: self
                    .reader
                    .attr("pattern")
                    .or(self.reader.attr("label"))
                    .unwrap_or_default()
                    .into(),
            },
            "filter" => SigItem::Filter {
                model: self.attr_or_empty("model"),
                pattern: self.attr_or_empty("pattern"),
            },
            "leaf" => SigItem::Leaf(self.leaf_label()?),
            other => return Err(malformed(format!("unexpected <{other}> in signature"))),
        };
        self.skip()?;
        Ok(item)
    }

    /// The atomic type named by the `label` of the `<leaf>` just started.
    fn leaf_label(&self) -> Result<AtomType, DecodeError> {
        self.reader
            .attr("label")
            .and_then(AtomType::from_name)
            .ok_or_else(|| malformed("<leaf> with unknown label"))
    }

    /// The `<fmodel>` just started.
    fn fmodel(&mut self) -> Result<Fmodel, DecodeError> {
        let mut m = Fmodel::new(self.need("name", "<fmodel> missing name")?);
        self.each_child(|d, tag| {
            if tag != "fpattern" {
                return d.skip();
            }
            let name = d.need("name", "<fpattern> missing name")?;
            let body = d
                .first_child(Decoder::fpattern)?
                .ok_or_else(|| malformed(format!("<fpattern name=\"{name}\"> is empty")))?;
            m.patterns.push((name, body));
            Ok(())
        })?;
        Ok(m)
    }

    /// The Fpattern of the element `tag` just started. Accepts the
    /// Fig. 6 synonyms: `<value pattern="X"/>` and `<value label="X"/>`
    /// as references.
    fn fpattern(&mut self, tag: &'a str) -> Result<FPattern, DecodeError> {
        let inst = |d: &Decoder<'a>| match d.reader.attr("inst") {
            None => Ok(InstFlag::Free),
            Some(i) => {
                InstFlag::from_attr(i).ok_or_else(|| malformed(format!("bad inst flag `{i}`")))
            }
        };
        let pattern = match tag {
            "node" => {
                let label = match self.reader.attr("label") {
                    Some("Symbol") => FLabel::AnySym,
                    Some(s) => FLabel::Sym(s.to_string()),
                    None => return Err(malformed("<node> missing label")),
                };
                let bind = match self.reader.attr("bind") {
                    None => BindFlag::Any,
                    Some(b) => BindFlag::from_attr(b)
                        .ok_or_else(|| malformed(format!("bad bind flag `{b}`")))?,
                };
                let inst_flag = inst(self)?;
                let edges = self.children(|d, tag| {
                    if tag != "star" {
                        return Ok(FEdge::one(d.fpattern(tag)?));
                    }
                    let inst = inst(d)?;
                    let child = d
                        .first_child(Decoder::fpattern)?
                        .ok_or_else(|| malformed("<star> must wrap a pattern"))?;
                    Ok(FEdge {
                        occ: FOcc::Star,
                        inst,
                        child,
                    })
                })?;
                return Ok(FPattern::Node {
                    label,
                    bind,
                    inst: inst_flag,
                    edges,
                });
            }
            "union" => return Ok(FPattern::Union(self.children(Decoder::fpattern)?)),
            "ref" | "value" => FPattern::Ref(
                self.reader
                    .attr("pattern")
                    .or(self.reader.attr("label"))
                    .ok_or_else(|| malformed(format!("<{tag}> missing pattern reference")))?
                    .to_string(),
            ),
            "leaf" => FPattern::Leaf(self.leaf_label()?),
            other => return Err(malformed(format!("unexpected <{other}> in fpattern"))),
        };
        self.skip()?;
        Ok(pattern)
    }

    /// The structural `<model>` just started.
    fn model(&mut self) -> Result<Model, DecodeError> {
        let mut m = Model::new(self.need("name", "<model> missing name")?);
        self.each_child(|d, tag| {
            if tag != "pattern" {
                return d.skip();
            }
            let name = d.need("name", "<pattern> missing name")?;
            let body = d
                .first_child(Decoder::pattern)?
                .ok_or_else(|| malformed(format!("<pattern name=\"{name}\"> is empty")))?;
            m.define(name, body);
            Ok(())
        })?;
        Ok(m)
    }

    /// The structural pattern or filter of the element `tag` just
    /// started.
    pub(crate) fn pattern(&mut self, tag: &'a str) -> Result<Pattern, DecodeError> {
        let label = match tag {
            "node" => PLabel::Sym(self.need("label", "<node> missing label")?.into()),
            "anysym" => PLabel::AnySym,
            "anylabel" => PLabel::Any,
            "labelvar" => PLabel::Var(self.need("name", "<labelvar> missing name")?),
            _ => {
                let pattern = match tag {
                    "leaf" => Pattern::atom(self.leaf_label()?),
                    "const" => Pattern::constant(self.typed_atom(tag)?),
                    "union" => return Ok(Pattern::Union(self.children(Decoder::pattern)?)),
                    "ref" => Pattern::Ref(self.need("name", "<ref> missing name")?),
                    "var" => Pattern::TreeVar(self.need("name", "<var> missing name")?),
                    "any" => Pattern::Wildcard,
                    other => return Err(malformed(format!("unexpected <{other}> in pattern"))),
                };
                self.skip()?;
                return Ok(pattern);
            }
        };
        let edges = self.children(|d, tag| match tag {
            "star" => {
                let star_var = match (d.reader.attr("var"), d.reader.attr("mode")) {
                    (Some(v), Some("collect")) => Some((v.to_string(), StarBind::Collect)),
                    (Some(v), _) => Some((v.to_string(), StarBind::Iterate)),
                    (None, _) => None,
                };
                let pattern = d
                    .first_child(Decoder::pattern)?
                    .unwrap_or(Pattern::Wildcard);
                Ok(Edge {
                    occ: Occ::Star,
                    star_var,
                    pattern,
                })
            }
            "opt" => Ok(Edge::opt(
                d.first_child(Decoder::pattern)?
                    .ok_or_else(|| malformed("<opt> must wrap a pattern"))?,
            )),
            _ => Ok(Edge::one(d.pattern(tag)?)),
        })?;
        Ok(Pattern::Node { label, edges })
    }
}
