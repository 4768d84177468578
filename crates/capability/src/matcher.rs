//! The capability matcher: decides whether a filter conforms to a
//! source's Fpatterns and whether a plan fragment can be pushed to a
//! source.
//!
//! This is the machinery behind "the optimizer tries to match the Bind
//! operation with the Wais capabilities that have been declared"
//! (Section 5.3). Because the description is *typed* (unlike Disco) and
//! describes a *language* (unlike TSIMMIS templates), matching is a
//! static walk — no round-trip to the wrapper is needed.

use crate::flags::InstFlag;
use crate::fpattern::{FEdge, FLabel, FOcc, FPattern, Fmodel};
use crate::interface::{Interface, OpKind};
use std::fmt;
use yat_algebra::funcs::ELEMENTS;
use yat_algebra::{Alg, Operand, Pred};
use yat_model::{Occ, PLabel, Pattern};

/// Why a filter or plan cannot be handled by a source.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Human-readable reason, mentioning the offending construct.
    pub reason: String,
}

impl Rejection {
    fn new(reason: impl Into<String>) -> Self {
        Rejection {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for Rejection {}

/// Checks that `filter` is a valid filter for a source exporting
/// `fpattern` (resolving references in `fmodel`).
pub fn accepts_filter(
    fmodel: &Fmodel,
    fpattern: &FPattern,
    filter: &Pattern,
) -> Result<(), Rejection> {
    let mut m = FMatcher {
        fmodel,
        fuel: 100_000,
    };
    m.check(fpattern, filter)
}

struct FMatcher<'a> {
    fmodel: &'a Fmodel,
    fuel: u32,
}

impl<'a> FMatcher<'a> {
    fn check(&mut self, fp: &FPattern, filter: &Pattern) -> Result<(), Rejection> {
        if self.fuel == 0 {
            return Err(Rejection::new("capability check exceeded its work budget"));
        }
        self.fuel -= 1;
        match (fp, filter) {
            // wildcards impose nothing on the source
            (_, Pattern::Wildcard) => Ok(()),
            (_, Pattern::Union(branches)) => {
                // every branch the query may take must be supported
                for b in branches {
                    self.check(fp, b)?;
                }
                Ok(())
            }
            (FPattern::Ref(name), _) => {
                let resolved = self.fmodel.get(name).ok_or_else(|| {
                    Rejection::new(format!(
                        "unknown Fpattern `{name}` in fmodel `{}`",
                        self.fmodel.name
                    ))
                })?;
                // clone breaks the borrow on self.fmodel for recursion
                let resolved = resolved.clone();
                self.check(&resolved, filter)
            }
            (FPattern::Union(branches), f) => {
                let mut reasons = Vec::new();
                for b in branches {
                    match self.check(b, f) {
                        Ok(()) => return Ok(()),
                        Err(r) => reasons.push(r.reason),
                    }
                }
                Err(Rejection::new(format!(
                    "filter `{f}` fits no alternative: {}",
                    reasons.join(" / ")
                )))
            }
            (FPattern::Leaf(t), f) => match f {
                Pattern::TreeVar(_) => Ok(()),
                Pattern::Node {
                    label: PLabel::Atom(ft),
                    edges,
                } if edges.is_empty() => {
                    if ft == t {
                        Ok(())
                    } else {
                        Err(Rejection::new(format!("type mismatch: {ft} vs {t}")))
                    }
                }
                Pattern::Node {
                    label: PLabel::Const(a),
                    edges,
                } if edges.is_empty() && a.atom_type() == *t => Ok(()),
                other => Err(Rejection::new(format!(
                    "`{other}` cannot stand for an atomic {t} value"
                ))),
            },
            (FPattern::Node { bind, .. }, Pattern::TreeVar(v)) => {
                if bind.allows_tree() {
                    Ok(())
                } else {
                    Err(Rejection::new(format!(
                        "variable ${v} not allowed here (bind={bind})"
                    )))
                }
            }
            (FPattern::Node { .. }, Pattern::Ref(r)) => Err(Rejection::new(format!(
                "filter references mediator pattern `&{r}`, opaque to the source"
            ))),
            (
                FPattern::Node {
                    label: flabel,
                    bind,
                    inst,
                    edges: fedges,
                },
                Pattern::Node { label, edges },
            ) => {
                // label conformance
                match (label, flabel) {
                    (PLabel::Sym(s), FLabel::Sym(t)) if s == t => {}
                    (PLabel::Sym(s), FLabel::Sym(t)) => {
                        return Err(Rejection::new(format!(
                            "label `{s}` where source expects `{t}`"
                        )))
                    }
                    (PLabel::Sym(_), FLabel::AnySym) => {}
                    (PLabel::Const(_) | PLabel::Atom(_), fl) => {
                        return Err(Rejection::new(format!(
                            "atomic label `{label}` where source expects a `{fl}` node"
                        )))
                    }
                    (PLabel::Var(v), FLabel::AnySym) => {
                        if !bind.allows_label() {
                            return Err(Rejection::new(format!(
                                "label variable ~${v} not allowed (bind={bind})"
                            )));
                        }
                        if *inst == InstFlag::Ground {
                            return Err(Rejection::new(format!(
                                "label must be ground here, cannot use ~${v}"
                            )));
                        }
                    }
                    (PLabel::AnySym | PLabel::Any, FLabel::AnySym) => {
                        if *inst == InstFlag::Ground {
                            return Err(Rejection::new(
                                "label must be ground here, cannot match any symbol",
                            ));
                        }
                    }
                    (PLabel::Var(v), FLabel::Sym(t)) => {
                        return Err(Rejection::new(format!(
                            "label variable ~${v} where source fixes label `{t}`"
                        )))
                    }
                    (PLabel::AnySym | PLabel::Any, FLabel::Sym(t)) => {
                        return Err(Rejection::new(format!(
                            "wildcard label where source fixes label `{t}`"
                        )))
                    }
                }
                // edge conformance: each filter edge must find a host fedge
                for e in edges {
                    self.check_edge(e, fedges)?;
                }
                Ok(())
            }
        }
    }

    fn check_edge(&mut self, e: &yat_model::Edge, fedges: &[FEdge]) -> Result<(), Rejection> {
        let mut reasons = Vec::new();
        for fe in fedges {
            match self.try_edge(e, fe) {
                Ok(()) => return Ok(()),
                Err(r) => reasons.push(r.reason),
            }
        }
        Err(Rejection::new(format!(
            "filter edge `{}` not supported: {}",
            e.pattern,
            if reasons.is_empty() {
                "no edges declared here".to_string()
            } else {
                reasons.join(" / ")
            }
        )))
    }

    fn try_edge(&mut self, e: &yat_model::Edge, fe: &FEdge) -> Result<(), Rejection> {
        match (e.occ, fe.occ) {
            // a star filter edge needs a star fedge
            (Occ::Star, FOcc::One) => {
                return Err(Rejection::new("star navigation over a single-valued edge"))
            }
            (Occ::One | Occ::Opt, FOcc::Star) if fe.inst == InstFlag::Ground => {
                // ground star edges (tuples) require named access: fine,
                // One edges are exactly named access
            }
            (Occ::One | Occ::Opt, FOcc::Star) if fe.inst == InstFlag::None => {
                return Err(Rejection::new(
                    "positional/named access into a collection the source only iterates",
                ));
            }
            _ => {}
        }
        if fe.occ == FOcc::Star && fe.inst == InstFlag::Ground && e.occ == Occ::Star {
            return Err(Rejection::new(
                "star navigation where the source requires fully instantiated edges",
            ));
        }
        self.check(&fe.child, &e.pattern)
    }
}

/// Checks whether a whole plan fragment can be evaluated by the source
/// described by `iface`. On success the mediator may wrap the fragment in
/// [`Alg::Push`].
///
/// An element-set projection ([`Alg::element_set`]) is one operation, not
/// a `project` over a `map`: it is accepted exactly where the source
/// declares the external `elements` operation.
pub fn pushable(iface: &Interface, plan: &Alg) -> Result<(), Rejection> {
    if let Some(set) = plan.element_set() {
        require_op(iface, ELEMENTS, OpKind::External)?;
        return pushable(iface, set.input);
    }
    match plan {
        Alg::Source { name, .. } => {
            if iface.export(name).is_some() {
                Ok(())
            } else {
                Err(Rejection::new(format!(
                    "`{name}` is not exported by `{}`",
                    iface.name
                )))
            }
        }
        Alg::Bind { input, filter, .. } => {
            require_op(iface, "bind", OpKind::Algebra)?;
            if let Some((fm, fp)) = iface.bind_fpattern() {
                accepts_filter(fm, fp, filter).map_err(|r| {
                    Rejection::new(format!("bind filter rejected by `{}`: {}", iface.name, r))
                })?;
            }
            pushable(iface, input)
        }
        Alg::Select { input, pred } => {
            require_op(iface, "select", OpKind::Algebra)?;
            pred_pushable(iface, pred)?;
            pushable(iface, input)
        }
        Alg::Project { input, .. } => {
            require_op(iface, "project", OpKind::Algebra)?;
            pushable(iface, input)
        }
        Alg::Map { input, expr, .. } => {
            require_op(iface, "map", OpKind::Algebra)?;
            operand_pushable(iface, expr)?;
            pushable(iface, input)
        }
        Alg::Join { left, right, pred } => {
            require_op(iface, "join", OpKind::Algebra)?;
            pred_pushable(iface, pred)?;
            pushable(iface, left)?;
            pushable(iface, right)
        }
        Alg::DJoin { left, right } => {
            require_op(iface, "djoin", OpKind::Algebra)?;
            pushable(iface, left)?;
            pushable(iface, right)
        }
        Alg::Union { left, right } | Alg::Intersect { left, right } | Alg::Diff { left, right } => {
            let name = match plan {
                Alg::Union { .. } => "union",
                Alg::Intersect { .. } => "intersect",
                _ => "diff",
            };
            require_op(iface, name, OpKind::Algebra)?;
            pushable(iface, left)?;
            pushable(iface, right)
        }
        Alg::Sort { input, .. } => {
            require_op(iface, "sort", OpKind::Algebra)?;
            pushable(iface, input)
        }
        Alg::Group { input, .. } => {
            require_op(iface, "group", OpKind::Algebra)?;
            pushable(iface, input)
        }
        Alg::TreeOp { .. } => Err(Rejection::new(
            "Tree construction always runs at the mediator",
        )),
        Alg::Push { source, .. } => Err(Rejection::new(format!("already delegated to `{source}`"))),
    }
}

fn require_op(iface: &Interface, name: &str, kind: OpKind) -> Result<(), Rejection> {
    match iface.operation(name) {
        Some(op) if op.kind == kind => Ok(()),
        Some(op) => Err(Rejection::new(format!(
            "`{name}` declared with kind `{}`, expected `{}`",
            op.kind.attr(),
            kind.attr()
        ))),
        None => Err(Rejection::new(format!(
            "source `{}` does not declare operation `{name}`",
            iface.name
        ))),
    }
}

fn pred_pushable(iface: &Interface, pred: &Pred) -> Result<(), Rejection> {
    match pred {
        Pred::True => Ok(()),
        Pred::And(a, b) | Pred::Or(a, b) => {
            pred_pushable(iface, a)?;
            pred_pushable(iface, b)
        }
        Pred::Not(p) => pred_pushable(iface, p),
        Pred::Cmp { left, right, .. } => {
            if !iface.supports_comparisons() {
                return Err(Rejection::new(format!(
                    "source `{}` declares no comparison predicates",
                    iface.name
                )));
            }
            operand_pushable(iface, left)?;
            operand_pushable(iface, right)
        }
        Pred::Call { name, args } => {
            let op = iface.operation(name).ok_or_else(|| {
                Rejection::new(format!(
                    "predicate `{name}` is not an operation of `{}`",
                    iface.name
                ))
            })?;
            if !matches!(op.kind, OpKind::External | OpKind::Boolean) {
                return Err(Rejection::new(format!(
                    "`{name}` is not a predicate (kind `{}`)",
                    op.kind.attr()
                )));
            }
            for a in args {
                operand_pushable(iface, a)?;
            }
            Ok(())
        }
    }
}

fn operand_pushable(iface: &Interface, op: &Operand) -> Result<(), Rejection> {
    match op {
        Operand::Var(_) | Operand::Const(_) => Ok(()),
        Operand::Call { name, args } => {
            let decl = iface.operation(name).ok_or_else(|| {
                Rejection::new(format!(
                    "function `{name}` is not an operation of `{}`",
                    iface.name
                ))
            })?;
            if decl.kind != OpKind::External {
                return Err(Rejection::new(format!(
                    "`{name}` is not an external function (kind `{}`)",
                    decl.kind.attr()
                )));
            }
            for a in args {
                operand_pushable(iface, a)?;
            }
            Ok(())
        }
    }
}
