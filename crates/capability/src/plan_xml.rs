//! The wire form of algebra plans: the operations half of the wrapper
//! protocol ("wrappers and mediators communicate data, structures and
//! operations in XML", Section 2).
//!
//! The mediator ships every pushed subplan inside an `<execute>` or
//! `<execute-batch>` request; the wrapper reads it back and evaluates
//! natively (O2 translates it to OQL text, Section 4.1). Plans,
//! predicates, operands and templates are written onto an [`Out`] and
//! read through the codec's decoder, like every other message.
//!
//! The reader takes an operator's argument — its `<filter>`, `<where>`,
//! `<on>`, `<expr>` or `<template>` — from the first such child wherever
//! it stands among the operator's children, and its input plans from its
//! plan children in order; any other child is skipped.

use crate::codec::{malformed, DecodeError, Decoder, Tag};
use crate::xml::write_pattern;
use std::sync::Arc;
use yat_algebra::{Alg, CmpOp, Operand, Pred, SortDir, Template};
use yat_xml::Out;

/// Writes a plan.
pub(crate) fn write_plan<O: Out>(plan: &Alg, out: &mut O) {
    match plan {
        Alg::Source { source, name } => Tag::new(out, "source")
            .attr("name", name)
            .opt("at", source.as_deref())
            .end(),
        Alg::Bind {
            input,
            filter,
            over,
        } => Tag::new(out, "bind")
            .opt("over", over.as_deref())
            .with(|out: &mut O| {
                Tag::new(out, "filter").with(|out| write_pattern(filter, out));
                write_plan(input, out);
            }),
        Alg::TreeOp { input, template } => Tag::new(out, "tree").with(|out: &mut O| {
            Tag::new(out, "template").with(|out| write_template(template, out));
            write_plan(input, out);
        }),
        Alg::Select { input, pred } => Tag::new(out, "select").with(|out: &mut O| {
            Tag::new(out, "where").with(|out| write_pred(pred, out));
            write_plan(input, out);
        }),
        Alg::Project { input, cols } => Tag::new(out, "project").with(|out: &mut O| {
            for (src, dst) in cols {
                Tag::new(out, "col").attr("src", src).attr("as", dst).end();
            }
            write_plan(input, out);
        }),
        Alg::Join { left, right, pred } => Tag::new(out, "join").with(|out: &mut O| {
            Tag::new(out, "on").with(|out| write_pred(pred, out));
            write_plan(left, out);
            write_plan(right, out);
        }),
        Alg::DJoin { left, right }
        | Alg::Union { left, right }
        | Alg::Intersect { left, right }
        | Alg::Diff { left, right } => {
            let tag = match plan {
                Alg::DJoin { .. } => "djoin",
                Alg::Union { .. } => "union",
                Alg::Intersect { .. } => "intersect",
                _ => "diff",
            };
            Tag::new(out, tag).with(|out: &mut O| {
                write_plan(left, out);
                write_plan(right, out);
            })
        }
        Alg::Group { input, keys } => Tag::new(out, "group")
            .attr("keys", &keys.join(" "))
            .with(|out: &mut O| write_plan(input, out)),
        Alg::Sort { input, keys } => Tag::new(out, "sort").with(|out: &mut O| {
            for (col, dir) in keys {
                let dir = match dir {
                    SortDir::Asc => "asc",
                    SortDir::Desc => "desc",
                };
                Tag::new(out, "key").attr("col", col).attr("dir", dir).end();
            }
            write_plan(input, out);
        }),
        Alg::Map { input, col, expr } => {
            Tag::new(out, "map").attr("col", col).with(|out: &mut O| {
                Tag::new(out, "expr").with(|out| write_operand(expr, out));
                write_plan(input, out);
            })
        }
        Alg::Push { source, plan } => Tag::new(out, "push")
            .attr("source", source)
            .with(|out: &mut O| write_plan(plan, out)),
    }
}

fn is_plan_tag(name: &str) -> bool {
    matches!(
        name,
        "source"
            | "bind"
            | "tree"
            | "select"
            | "project"
            | "join"
            | "djoin"
            | "union"
            | "intersect"
            | "diff"
            | "group"
            | "sort"
            | "map"
            | "push"
    )
}

fn write_pred<O: Out>(p: &Pred, out: &mut O) {
    match p {
        Pred::True => Tag::new(out, "true").end(),
        Pred::And(a, b) | Pred::Or(a, b) => {
            let tag = if matches!(p, Pred::And(..)) {
                "and"
            } else {
                "or"
            };
            Tag::new(out, tag).with(|out: &mut O| {
                write_pred(a, out);
                write_pred(b, out);
            })
        }
        Pred::Not(x) => Tag::new(out, "not").with(|out: &mut O| write_pred(x, out)),
        Pred::Cmp { op, left, right } => {
            let op = match op {
                CmpOp::Eq => "eq",
                CmpOp::Ne => "ne",
                CmpOp::Lt => "lt",
                CmpOp::Le => "le",
                CmpOp::Gt => "gt",
                CmpOp::Ge => "ge",
            };
            Tag::new(out, "cmp").attr("op", op).with(|out: &mut O| {
                write_operand(left, out);
                write_operand(right, out);
            })
        }
        Pred::Call { name, args } => {
            Tag::new(out, "predicate")
                .attr("name", name)
                .body(args.is_empty(), |out: &mut O| {
                    for a in args {
                        write_operand(a, out);
                    }
                })
        }
    }
}

fn write_operand<O: Out>(o: &Operand, out: &mut O) {
    match o {
        Operand::Var(v) => Tag::new(out, "var").attr("name", v).end(),
        Operand::Const(a) => Tag::new(out, "const")
            .attr("type", a.atom_type().name())
            .attr("value", &a.text())
            .end(),
        Operand::Call { name, args } => {
            Tag::new(out, "call")
                .attr("name", name)
                .body(args.is_empty(), |out: &mut O| {
                    for a in args {
                        write_operand(a, out);
                    }
                })
        }
    }
}

fn write_template<O: Out>(t: &Template, out: &mut O) {
    let children = |out: &mut O, children: &[Template]| {
        for c in children {
            write_template(c, out);
        }
    };
    match t {
        Template::Sym { name, children: c } => Tag::new(out, "tsym")
            .attr("name", name)
            .body(c.is_empty(), |out| children(out, c)),
        Template::Var(v) => Tag::new(out, "tvar").attr("name", v).end(),
        Template::LabelVar { var, children: c } => Tag::new(out, "tlabelvar")
            .attr("var", var)
            .body(c.is_empty(), |out| children(out, c)),
        Template::Group { key, skolem, body } => Tag::new(out, "tgroup")
            .attr("keys", &key.join(" "))
            .opt("skolem", skolem.as_deref())
            .with(|out: &mut O| write_template(body, out)),
        Template::Text(s) => Tag::new(out, "ttext").attr("value", s).end(),
    }
}

impl<'a> Decoder<'a> {
    /// The plan of the element `tag` just started.
    pub(crate) fn plan(&mut self, tag: &'a str) -> Result<Arc<Alg>, DecodeError> {
        let alg = match tag {
            "source" => {
                let name = self.need("name", "<source> missing name")?;
                let source = self.attr_string("at");
                self.skip()?;
                Alg::Source { source, name }
            }
            "bind" => {
                let over = self.attr_string("over");
                let mut filter = None;
                let [input] =
                    self.operator(tag, "filter", |d| d.once(&mut filter, Decoder::pattern))?;
                let filter = filter
                    .flatten()
                    .ok_or_else(|| malformed("<bind> missing <filter>"))?;
                Alg::Bind {
                    input,
                    filter,
                    over,
                }
            }
            "tree" => {
                let mut template = None;
                let [input] = self.operator(tag, "template", |d| {
                    d.once(&mut template, Decoder::template)
                })?;
                let template = template
                    .flatten()
                    .ok_or_else(|| malformed("<tree> missing <template>"))?;
                Alg::TreeOp { input, template }
            }
            "select" => {
                let mut pred = None;
                let [input] = self.operator(tag, "where", |d| d.once(&mut pred, Decoder::pred))?;
                let pred = pred
                    .flatten()
                    .ok_or_else(|| malformed("<select> missing <where>"))?;
                Alg::Select { input, pred }
            }
            "project" => {
                let mut cols = Vec::new();
                let [input] = self.operator(tag, "col", |d| {
                    let src = d.need("src", "<col> missing src")?;
                    let dst = d.attr_string("as").unwrap_or_else(|| src.clone());
                    cols.push((src, dst));
                    d.skip()
                })?;
                Alg::Project { input, cols }
            }
            "join" => {
                let mut pred = None;
                let [left, right] =
                    self.operator(tag, "on", |d| d.once(&mut pred, Decoder::pred))?;
                let pred = pred
                    .flatten()
                    .ok_or_else(|| malformed("<join> missing <on>"))?;
                Alg::Join { left, right, pred }
            }
            "djoin" | "union" | "intersect" | "diff" => {
                let [left, right] = self.operator(tag, "", Decoder::skip)?;
                match tag {
                    "djoin" => Alg::DJoin { left, right },
                    "union" => Alg::Union { left, right },
                    "intersect" => Alg::Intersect { left, right },
                    _ => Alg::Diff { left, right },
                }
            }
            "group" => {
                let keys = self.words("keys");
                let [input] = self.operator(tag, "", Decoder::skip)?;
                Alg::Group { input, keys }
            }
            "sort" => {
                let mut keys = Vec::new();
                let [input] = self.operator(tag, "key", |d| {
                    let col = d.need("col", "<key> missing col")?;
                    let dir = match d.reader.attr("dir") {
                        Some("desc") => SortDir::Desc,
                        _ => SortDir::Asc,
                    };
                    keys.push((col, dir));
                    d.skip()
                })?;
                Alg::Sort { input, keys }
            }
            "map" => {
                let col = self.need("col", "<map> missing col")?;
                let mut expr = None;
                let [input] =
                    self.operator(tag, "expr", |d| d.once(&mut expr, Decoder::operand))?;
                let expr = expr
                    .flatten()
                    .ok_or_else(|| malformed("<map> missing <expr>"))?;
                Alg::Map { input, col, expr }
            }
            "push" => {
                let source = self.need("source", "<push> missing source")?;
                let [plan] = self.operator(tag, "", Decoder::skip)?;
                Alg::Push { source, plan }
            }
            other => return Err(malformed(format!("unknown plan element <{other}>"))),
        };
        Ok(Arc::new(alg))
    }

    /// The children of the plan element `tag` just started: its first
    /// `N` plan children, read in order, are its inputs; `on_arg` reads
    /// each child named `arg`; any other child is skipped.
    fn operator<const N: usize>(
        &mut self,
        tag: &str,
        arg: &str,
        mut on_arg: impl FnMut(&mut Decoder<'a>) -> Result<(), DecodeError>,
    ) -> Result<[Arc<Alg>; N], DecodeError> {
        let mut inputs = Vec::with_capacity(N);
        self.each_child(|d, name| {
            if name == arg {
                on_arg(d)
            } else if inputs.len() < N && is_plan_tag(name) {
                inputs.push(d.plan(name)?);
                Ok(())
            } else {
                d.skip()
            }
        })?;
        inputs
            .try_into()
            .map_err(|_| malformed(format!("<{tag}> missing input plan")))
    }

    /// Reads the first element inside the child just started into
    /// `slot` with `read` — `Some(None)` when it holds none — unless an
    /// earlier child already filled the slot: the first one wins and
    /// later ones are skipped.
    pub(crate) fn once<T>(
        &mut self,
        slot: &mut Option<Option<T>>,
        read: impl FnOnce(&mut Decoder<'a>, &'a str) -> Result<T, DecodeError>,
    ) -> Result<(), DecodeError> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(self.first_child(read)?);
        Ok(())
    }

    /// The predicate of the element `tag` just started.
    fn pred(&mut self, tag: &'a str) -> Result<Pred, DecodeError> {
        match tag {
            "true" => {
                self.skip()?;
                Ok(Pred::True)
            }
            "and" | "or" => {
                let [a, b] = self
                    .leading(Decoder::pred)?
                    .ok_or_else(|| malformed(format!("<{tag}> needs 2 operands")))?;
                let (a, b) = (Box::new(a), Box::new(b));
                Ok(if tag == "and" {
                    Pred::And(a, b)
                } else {
                    Pred::Or(a, b)
                })
            }
            "not" => {
                let x = self
                    .first_child(Decoder::pred)?
                    .ok_or_else(|| malformed("<not> needs an operand"))?;
                Ok(Pred::Not(Box::new(x)))
            }
            "cmp" => {
                let op = match self.reader.attr("op") {
                    Some("eq") => CmpOp::Eq,
                    Some("ne") => CmpOp::Ne,
                    Some("lt") => CmpOp::Lt,
                    Some("le") => CmpOp::Le,
                    Some("gt") => CmpOp::Gt,
                    Some("ge") => CmpOp::Ge,
                    other => return Err(malformed(format!("bad cmp op {other:?}"))),
                };
                let [left, right] = self
                    .leading(Decoder::operand)?
                    .ok_or_else(|| malformed("<cmp> needs 2 operands"))?;
                Ok(Pred::Cmp { op, left, right })
            }
            "predicate" => {
                let name = self.need("name", "<predicate> missing name")?;
                let args = self.children(Decoder::operand)?;
                Ok(Pred::Call { name, args })
            }
            other => Err(malformed(format!("unknown predicate element <{other}>"))),
        }
    }

    /// The operand of the element `tag` just started.
    fn operand(&mut self, tag: &'a str) -> Result<Operand, DecodeError> {
        let operand = match tag {
            "var" => Operand::Var(self.need("name", "<var> missing name")?),
            "const" => Operand::Const(self.typed_atom(tag)?),
            "call" => {
                let name = self.need("name", "<call> missing name")?;
                let args = self.children(Decoder::operand)?;
                return Ok(Operand::Call { name, args });
            }
            other => return Err(malformed(format!("unknown operand element <{other}>"))),
        };
        self.skip()?;
        Ok(operand)
    }

    /// The construction template of the element `tag` just started.
    fn template(&mut self, tag: &'a str) -> Result<Template, DecodeError> {
        let template = match tag {
            "tsym" => {
                let name = self.need("name", "<tsym> missing name")?;
                let children = self.children(Decoder::template)?;
                return Ok(Template::Sym { name, children });
            }
            "tvar" => Template::Var(self.need("name", "<tvar> missing name")?),
            "tlabelvar" => {
                let var = self.need("var", "<tlabelvar> missing var")?;
                let children = self.children(Decoder::template)?;
                return Ok(Template::LabelVar { var, children });
            }
            "tgroup" => {
                let key = self.words("keys");
                let skolem = self.attr_string("skolem");
                let body = self
                    .first_child(Decoder::template)?
                    .ok_or_else(|| malformed("<tgroup> missing body"))?;
                return Ok(Template::Group {
                    key,
                    skolem,
                    body: Box::new(body),
                });
            }
            "ttext" => Template::Text(self.need("value", "<ttext> missing value")?),
            other => return Err(malformed(format!("unknown template element <{other}>"))),
        };
        self.skip()?;
        Ok(template)
    }
}
