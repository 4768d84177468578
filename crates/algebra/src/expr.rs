//! The algebra plan AST and its EXPLAIN-style display.

use crate::template::Template;
use std::fmt;
use std::sync::Arc;
use yat_model::{Atom, Filter};

/// Comparison operators of the core algebra (the predicates O2/SQL
/// understand, Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A scalar operand inside predicates and `Map` expressions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Operand {
    /// A column/variable reference (`$y`).
    Var(String),
    /// A constant (`1800`, `"Giverny"`).
    Const(Atom),
    /// An external function/method call over operands
    /// (`current_price($x)` — the wrapped O2 method of Section 4).
    Call {
        /// Function name, resolved in the [`crate::FnRegistry`].
        name: String,
        /// Argument operands.
        args: Vec<Operand>,
    },
}

impl Operand {
    /// Convenience constructor for a variable reference.
    pub fn var(v: impl Into<String>) -> Operand {
        Operand::Var(v.into())
    }

    /// Convenience constructor for a constant.
    pub fn cst(a: impl Into<Atom>) -> Operand {
        Operand::Const(a.into())
    }

    /// Variables referenced by this operand.
    pub fn vars(&self) -> Vec<&str> {
        match self {
            Operand::Var(v) => vec![v],
            Operand::Const(_) => vec![],
            Operand::Call { args, .. } => args.iter().flat_map(|a| a.vars()).collect(),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "${v}"),
            Operand::Const(Atom::Str(s)) => write!(f, "{s:?}"),
            Operand::Const(a) => write!(f, "{a}"),
            Operand::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A selection/join predicate.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Pred {
    /// Comparison between two operands.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Operand,
        /// Right operand.
        right: Operand,
    },
    /// An external boolean operation (`contains($w, "Impressionist")`,
    /// Section 4.2). Whether it can be *evaluated* depends on the
    /// function registry / the source it is pushed to.
    Call {
        /// Predicate name.
        name: String,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Always true (identity for conjunction building).
    True,
}

impl Pred {
    /// `left op right`.
    pub fn cmp(op: CmpOp, left: Operand, right: Operand) -> Pred {
        Pred::Cmp { op, left, right }
    }

    /// `$a = $b` between two variables.
    pub fn var_eq(a: impl Into<String>, b: impl Into<String>) -> Pred {
        Pred::cmp(CmpOp::Eq, Operand::var(a), Operand::var(b))
    }

    /// `$v = const`.
    pub fn eq_const(v: impl Into<String>, a: impl Into<Atom>) -> Pred {
        Pred::cmp(CmpOp::Eq, Operand::var(v), Operand::cst(a))
    }

    /// Conjunction that collapses `True` operands.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// Splits a conjunction into its leaves.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            Pred::True => vec![],
            p => vec![p],
        }
    }

    /// Rebuilds a conjunction from leaves.
    pub fn from_conjuncts(preds: Vec<Pred>) -> Pred {
        preds.into_iter().fold(Pred::True, Pred::and)
    }

    /// Variables referenced by this predicate.
    pub fn vars(&self) -> Vec<&str> {
        match self {
            Pred::Cmp { left, right, .. } => {
                let mut v = left.vars();
                v.extend(right.vars());
                v
            }
            Pred::Call { args, .. } => args.iter().flat_map(|a| a.vars()).collect(),
            Pred::And(a, b) | Pred::Or(a, b) => {
                let mut v = a.vars();
                v.extend(b.vars());
                v
            }
            Pred::Not(p) => p.vars(),
            Pred::True => vec![],
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp { op, left, right } => write!(f, "{left} {} {right}", op.symbol()),
            Pred::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Pred::And(a, b) => write!(f, "{a} ∧ {b}"),
            Pred::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Pred::Not(p) => write!(f, "¬({p})"),
            Pred::True => write!(f, "true"),
        }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// An algebraic plan node. Plans are immutable `Arc`-shared DAGs; the
/// optimizer rewrites them functionally (a rewritten plan shares unchanged
/// subtrees with the original).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Alg {
    /// A named input document/extent ("named documents are the input
    /// operations of the algebraic expression", Section 3.2). `source`
    /// identifies the wrapper exporting it (`None` = mediator-local).
    Source {
        /// Wrapper/source identifier.
        source: Option<String>,
        /// Document or extent name (`artifacts`, `artworks`).
        name: String,
    },
    /// The Bind frontier operator (Fig. 4): matches `filter` against the
    /// input and produces a `Tab` of bindings. With `over: Some(v)` the
    /// input must be a `Tab` and the filter applies to each row's `$v`
    /// value, extending rows — the "linear sequence of elementary Binds,
    /// each navigating down the result of the previous one" (Section 5.1).
    Bind {
        /// Input plan (tree-producing, or Tab-producing with `over`).
        input: Arc<Alg>,
        /// The filter to match.
        filter: Filter,
        /// Column to navigate from, when the input is a `Tab`.
        over: Option<String>,
    },
    /// The Tree frontier operator (Fig. 4): constructs new XML structure
    /// from the input `Tab` by template instantiation with grouping and
    /// Skolem identifiers.
    TreeOp {
        /// Input plan (Tab-producing).
        input: Arc<Alg>,
        /// The construction template.
        template: Template,
    },
    /// Relational selection.
    Select {
        /// Input plan (Tab-producing).
        input: Arc<Alg>,
        /// Filter predicate.
        pred: Pred,
    },
    /// Projection with renaming: keeps `(src, dst)` columns.
    Project {
        /// Input plan (Tab-producing).
        input: Arc<Alg>,
        /// `(source column, output name)` pairs.
        cols: Vec<(String, String)>,
    },
    /// Relational join. Equality conjuncts are executed as a hash join;
    /// anything else falls back to nested loops.
    Join {
        /// Left input.
        left: Arc<Alg>,
        /// Right input.
        right: Arc<Alg>,
        /// Join predicate (over columns of both sides; right-side
        /// duplicates are primed, e.g. `$t'`).
        pred: Pred,
    },
    /// Dependency join (Section 3.1, from Cluet–Moerkotte): evaluates
    /// `right` once per left row, with the left row's bindings in scope —
    /// "a nested loop evaluation with values of variables passed from the
    /// left-hand side to the right-hand side" (Section 5.3).
    DJoin {
        /// Left input.
        left: Arc<Alg>,
        /// Dependent right input.
        right: Arc<Alg>,
    },
    /// Set union of union-compatible `Tab`s.
    Union {
        /// Left input.
        left: Arc<Alg>,
        /// Right input.
        right: Arc<Alg>,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Arc<Alg>,
        /// Right input.
        right: Arc<Alg>,
    },
    /// Set difference.
    Diff {
        /// Left input.
        left: Arc<Alg>,
        /// Right input.
        right: Arc<Alg>,
    },
    /// Grouping: rows sharing `keys` collapse into one row; the remaining
    /// columns are nested as collections under their own names.
    Group {
        /// Input plan.
        input: Arc<Alg>,
        /// Grouping key columns.
        keys: Vec<String>,
    },
    /// Sorting by key columns.
    Sort {
        /// Input plan.
        input: Arc<Alg>,
        /// `(column, direction)` sort spec.
        keys: Vec<(String, SortDir)>,
    },
    /// Map: appends a computed column.
    Map {
        /// Input plan.
        input: Arc<Alg>,
        /// New column name.
        col: String,
        /// Expression computing it.
        expr: Operand,
    },
    /// A subplan delegated to an external source — the output of
    /// capability-based rewriting (Section 5.3). The reference evaluator
    /// executes the subplan locally (same semantics); the mediator
    /// executor ships it to the wrapper.
    Push {
        /// Source the plan is pushed to.
        source: String,
        /// The delegated plan.
        plan: Arc<Alg>,
    },
}

impl Alg {
    /// A mediator-local named document.
    pub fn source(name: impl Into<String>) -> Arc<Alg> {
        Arc::new(Alg::Source {
            source: None,
            name: name.into(),
        })
    }

    /// A named document at a wrapper.
    pub fn source_at(source: impl Into<String>, name: impl Into<String>) -> Arc<Alg> {
        Arc::new(Alg::Source {
            source: Some(source.into()),
            name: name.into(),
        })
    }

    /// Bind over a tree-producing input.
    pub fn bind(input: Arc<Alg>, filter: Filter) -> Arc<Alg> {
        Arc::new(Alg::Bind {
            input,
            filter,
            over: None,
        })
    }

    /// Bind navigating down column `over` of a Tab-producing input.
    pub fn bind_over(input: Arc<Alg>, over: impl Into<String>, filter: Filter) -> Arc<Alg> {
        Arc::new(Alg::Bind {
            input,
            filter,
            over: Some(over.into()),
        })
    }

    /// Tree construction.
    pub fn tree(input: Arc<Alg>, template: Template) -> Arc<Alg> {
        Arc::new(Alg::TreeOp { input, template })
    }

    /// Selection.
    pub fn select(input: Arc<Alg>, pred: Pred) -> Arc<Alg> {
        Arc::new(Alg::Select { input, pred })
    }

    /// Projection keeping columns under their own names.
    pub fn project_keep(input: Arc<Alg>, cols: &[&str]) -> Arc<Alg> {
        Arc::new(Alg::Project {
            input,
            cols: cols
                .iter()
                .map(|c| (c.to_string(), c.to_string()))
                .collect(),
        })
    }

    /// Projection with renaming.
    pub fn project(input: Arc<Alg>, cols: Vec<(String, String)>) -> Arc<Alg> {
        Arc::new(Alg::Project { input, cols })
    }

    /// Join.
    pub fn join(left: Arc<Alg>, right: Arc<Alg>, pred: Pred) -> Arc<Alg> {
        Arc::new(Alg::Join { left, right, pred })
    }

    /// Dependency join.
    pub fn djoin(left: Arc<Alg>, right: Arc<Alg>) -> Arc<Alg> {
        Arc::new(Alg::DJoin { left, right })
    }

    /// Push to a source.
    pub fn push(source: impl Into<String>, plan: Arc<Alg>) -> Arc<Alg> {
        Arc::new(Alg::Push {
            source: source.into(),
            plan,
        })
    }

    /// The child plans of this node.
    pub fn children(&self) -> Vec<&Arc<Alg>> {
        match self {
            Alg::Source { .. } => vec![],
            Alg::Bind { input, .. }
            | Alg::TreeOp { input, .. }
            | Alg::Select { input, .. }
            | Alg::Project { input, .. }
            | Alg::Group { input, .. }
            | Alg::Sort { input, .. }
            | Alg::Map { input, .. } => vec![input],
            Alg::Join { left, right, .. }
            | Alg::DJoin { left, right }
            | Alg::Union { left, right }
            | Alg::Intersect { left, right }
            | Alg::Diff { left, right } => vec![left, right],
            Alg::Push { plan, .. } => vec![plan],
        }
    }

    /// Rebuilds this node with new children (same order/arity as
    /// [`Alg::children`]). The rewrite driver uses this for bottom-up
    /// reconstruction.
    pub fn with_children(&self, mut kids: Vec<Arc<Alg>>) -> Alg {
        let mut next = || kids.remove(0);
        match self {
            Alg::Source { .. } => self.clone(),
            Alg::Bind { filter, over, .. } => Alg::Bind {
                input: next(),
                filter: filter.clone(),
                over: over.clone(),
            },
            Alg::TreeOp { template, .. } => Alg::TreeOp {
                input: next(),
                template: template.clone(),
            },
            Alg::Select { pred, .. } => Alg::Select {
                input: next(),
                pred: pred.clone(),
            },
            Alg::Project { cols, .. } => Alg::Project {
                input: next(),
                cols: cols.clone(),
            },
            Alg::Group { keys, .. } => Alg::Group {
                input: next(),
                keys: keys.clone(),
            },
            Alg::Sort { keys, .. } => Alg::Sort {
                input: next(),
                keys: keys.clone(),
            },
            Alg::Map { col, expr, .. } => Alg::Map {
                input: next(),
                col: col.clone(),
                expr: expr.clone(),
            },
            Alg::Join { pred, .. } => Alg::Join {
                left: next(),
                right: next(),
                pred: pred.clone(),
            },
            Alg::DJoin { .. } => Alg::DJoin {
                left: next(),
                right: next(),
            },
            Alg::Union { .. } => Alg::Union {
                left: next(),
                right: next(),
            },
            Alg::Intersect { .. } => Alg::Intersect {
                left: next(),
                right: next(),
            },
            Alg::Diff { .. } => Alg::Diff {
                left: next(),
                right: next(),
            },
            Alg::Push { source, .. } => Alg::Push {
                source: source.clone(),
                plan: next(),
            },
        }
    }

    /// The output columns of this plan, when it produces a `Tab`
    /// (`None` for tree-producing plans: `Source`, `TreeOp`).
    ///
    /// The optimizer's projection pushdown and capability matching reason
    /// about these statically.
    pub fn out_vars(&self) -> Option<Vec<String>> {
        match self {
            Alg::Source { .. } | Alg::TreeOp { .. } => None,
            Alg::Bind {
                input,
                filter,
                over,
            } => {
                let mut base = match over {
                    Some(_) => input.out_vars().unwrap_or_default(),
                    None => vec![],
                };
                for v in filter.variables() {
                    if !base.contains(&v) {
                        base.push(v);
                    }
                }
                Some(base)
            }
            Alg::Select { input, .. } | Alg::Sort { input, .. } => input.out_vars(),
            Alg::Project { cols, .. } => Some(cols.iter().map(|(_, d)| d.clone()).collect()),
            Alg::Join { left, right, .. } => {
                let l = left.out_vars().unwrap_or_default();
                let r = right.out_vars().unwrap_or_default();
                let mut cols = l.clone();
                for c in r {
                    if cols.contains(&c) {
                        cols.push(format!("{c}'"));
                    } else {
                        cols.push(c);
                    }
                }
                Some(cols)
            }
            Alg::DJoin { left, right } => {
                let mut l = left.out_vars().unwrap_or_default();
                for c in right.out_vars().unwrap_or_default() {
                    if !l.contains(&c) {
                        l.push(c);
                    }
                }
                Some(l)
            }
            Alg::Union { left, .. } | Alg::Intersect { left, .. } | Alg::Diff { left, .. } => {
                left.out_vars()
            }
            Alg::Group { input, .. } => input.out_vars(),
            Alg::Map { input, col, .. } => {
                let mut v = input.out_vars().unwrap_or_default();
                v.push(col.clone());
                Some(v)
            }
            Alg::Push { plan, .. } => plan.out_vars(),
        }
    }

    /// Counts plan nodes (used in tests and the EXPLAIN header).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// The operator's bare name, independent of its arguments — the
    /// coarse grouping key used by observability ("how much time went
    /// into Bind overall?").
    pub fn kind(&self) -> &'static str {
        match self {
            Alg::Source { .. } => "Source",
            Alg::Bind { .. } => "Bind",
            Alg::TreeOp { .. } => "Tree",
            Alg::Select { .. } => "Select",
            Alg::Project { .. } => "Project",
            Alg::Join { .. } => "Join",
            Alg::DJoin { .. } => "DJoin",
            Alg::Union { .. } => "Union",
            Alg::Intersect { .. } => "Intersect",
            Alg::Diff { .. } => "Diff",
            Alg::Group { .. } => "Group",
            Alg::Sort { .. } => "Sort",
            Alg::Map { .. } => "Map",
            Alg::Push { .. } => "Push",
        }
    }

    /// One-line operator description (the label shown per EXPLAIN row).
    pub fn describe(&self) -> String {
        match self {
            Alg::Source {
                source: Some(s),
                name,
            } => format!("Source {name}@{s}"),
            Alg::Source { source: None, name } => format!("Source {name}"),
            Alg::Bind {
                filter,
                over: Some(v),
                ..
            } => format!("Bind[${v}] {filter}"),
            Alg::Bind { filter, .. } => format!("Bind {filter}"),
            Alg::TreeOp { template, .. } => format!("Tree {template}"),
            Alg::Select { pred, .. } => format!("Select {pred}"),
            Alg::Project { cols, .. } => {
                let parts: Vec<String> = cols
                    .iter()
                    .map(|(s, d)| {
                        if s == d {
                            format!("${s}")
                        } else {
                            format!("${s}→${d}")
                        }
                    })
                    .collect();
                format!("Project {}", parts.join(", "))
            }
            Alg::Join { pred, .. } => format!("Join {pred}"),
            Alg::DJoin { .. } => "DJoin".to_string(),
            Alg::Union { .. } => "Union".to_string(),
            Alg::Intersect { .. } => "Intersect".to_string(),
            Alg::Diff { .. } => "Diff".to_string(),
            Alg::Group { keys, .. } => {
                format!(
                    "Group by {}",
                    keys.iter()
                        .map(|k| format!("${k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            Alg::Sort { keys, .. } => format!(
                "Sort {}",
                keys.iter()
                    .map(|(k, d)| format!("${k}{}", if *d == SortDir::Desc { "↓" } else { "↑" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Alg::Map { col, expr, .. } => format!("Map ${col} := {expr}"),
            Alg::Push { source, .. } => format!("Push → {source}"),
        }
    }

    /// Multi-line indented plan rendering, like the figures' algebraic
    /// expressions.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.describe());
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for Alg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// An element-set projection: `input` with its document column `$var`
/// replaced by the document stripped to the top-level children named in
/// `fields` — the Z39.50 element set a request names. The plan shape is
/// `Project[$var'→$var](Map[$var' := elements($var, "f"…)](input))`, so
/// it is ordinary algebra the reference evaluator runs with the
/// [`crate::funcs::ELEMENTS`] builtin; a source that declares
/// `elements` evaluates it by shipping fewer fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSet<'a> {
    /// The document column.
    pub var: &'a str,
    /// The requested top-level field names, as the plan lists them
    /// ([`Alg::project_elements`] sorts them and drops repeats).
    pub fields: Vec<&'a str>,
    /// The plan whose document column is projected.
    pub input: &'a Arc<Alg>,
}

impl Alg {
    /// Projects the document column `var` of `input` to the top-level
    /// children named in `fields` (see [`ElementSet`]).
    pub fn project_elements<'f>(
        input: Arc<Alg>,
        var: &str,
        fields: impl IntoIterator<Item = &'f str>,
    ) -> Arc<Alg> {
        let fields: std::collections::BTreeSet<&str> = fields.into_iter().collect();
        let primed = format!("{var}'");
        let mut args = vec![Operand::var(var)];
        args.extend(fields.into_iter().map(Operand::cst));
        let map = Arc::new(Alg::Map {
            input,
            col: primed.clone(),
            expr: Operand::Call {
                name: crate::funcs::ELEMENTS.to_string(),
                args,
            },
        });
        Alg::project(map, vec![(primed, var.to_string())])
    }

    /// The element-set projection at the root of this plan, if it has
    /// exactly the shape [`Alg::project_elements`] builds.
    pub fn element_set(&self) -> Option<ElementSet<'_>> {
        let Alg::Project { input: map, cols } = self else {
            return None;
        };
        let Alg::Map { input, col, expr } = map.as_ref() else {
            return None;
        };
        let [(src, var)] = cols.as_slice() else {
            return None;
        };
        let Operand::Call { name, args } = expr else {
            return None;
        };
        let [Operand::Var(doc), rest @ ..] = args.as_slice() else {
            return None;
        };
        if name != crate::funcs::ELEMENTS || src != col || doc != var || *col != format!("{var}'") {
            return None;
        }
        let fields = rest
            .iter()
            .map(|a| match a {
                Operand::Const(Atom::Str(f)) => Some(f.as_str()),
                _ => None,
            })
            .collect::<Option<Vec<&str>>>()?;
        Some(ElementSet { var, fields, input })
    }
}

/// `elements={artist,style,title}` — the annotation EXPLAIN shows on a
/// pushed fragment's round trip.
impl fmt::Display for ElementSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elements={{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Pattern;

    fn sample_plan() -> Arc<Alg> {
        let bind = Alg::bind(
            Alg::source_at("o2", "artifacts"),
            Pattern::sym("set", vec![]),
        );
        let sel = Alg::select(
            bind,
            Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
        );
        Alg::project_keep(sel, &["t", "y"])
    }

    #[test]
    fn explain_renders_tree() {
        let p = sample_plan();
        let e = p.explain();
        let lines: Vec<&str> = e.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].trim_start().starts_with("Select"));
        assert!(lines[2].trim_start().starts_with("Bind"));
        assert!(lines[3].trim_start().starts_with("Source artifacts@o2"));
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn with_children_rebuilds() {
        let p = sample_plan();
        let kids: Vec<Arc<Alg>> = p.children().into_iter().cloned().collect();
        let rebuilt = p.with_children(kids);
        assert_eq!(*p, rebuilt);
    }

    #[test]
    fn pred_conjunct_roundtrip() {
        let p = Pred::var_eq("a", "b")
            .and(Pred::eq_const("c", 1))
            .and(Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w")],
            });
        let leaves = p.conjuncts();
        assert_eq!(leaves.len(), 3);
        let rebuilt = Pred::from_conjuncts(leaves.into_iter().cloned().collect());
        assert_eq!(p, rebuilt);
        assert_eq!(Pred::True.conjuncts().len(), 0);
    }

    #[test]
    fn pred_vars() {
        let p = Pred::var_eq("a", "b").and(Pred::Not(Box::new(Pred::eq_const("c", 5))));
        let mut vars = p.vars();
        vars.sort();
        assert_eq!(vars, vec!["a", "b", "c"]);
    }

    #[test]
    fn out_vars_projection_and_join() {
        let l = Alg::bind(Alg::source("d1"), Pattern::elem_var("x", "t"));
        let r = Alg::bind(Alg::source("d2"), Pattern::elem_var("y", "t"));
        let j = Alg::join(l, r, Pred::var_eq("t", "t'"));
        assert_eq!(
            j.out_vars().unwrap(),
            vec!["t".to_string(), "t'".to_string()]
        );
    }

    #[test]
    fn out_vars_bind_over_extends() {
        let b1 = Alg::bind(Alg::source("d"), Pattern::elem_var("w", "w"));
        let b2 = Alg::bind_over(b1, "w", Pattern::elem_var("t", "t"));
        assert_eq!(
            b2.out_vars().unwrap(),
            vec!["w".to_string(), "t".to_string()]
        );
    }

    #[test]
    fn element_sets_round_trip_through_their_plan_shape() {
        let frag = Alg::bind(Alg::source("works"), Pattern::elem_var("works", "w"));
        let plan = Alg::project_elements(frag.clone(), "w", ["title", "artist", "title"]);
        let set = plan.element_set().expect("the shape it builds");
        assert_eq!(set.var, "w");
        assert_eq!(set.fields, ["artist", "title"], "sorted and distinct");
        assert!(Arc::ptr_eq(set.input, &frag));
        assert_eq!(set.to_string(), "elements={artist,title}");
        assert_eq!(plan.out_vars().unwrap(), ["w"], "the column keeps its name");
        assert_eq!(
            plan.explain(),
            "Project $w'→$w\n  Map $w' := elements($w, \"artist\", \"title\")\n    \
             Bind works[$w]\n      Source works\n"
        );
        // any other projection is not an element set
        assert!(frag.element_set().is_none());
        let Alg::Project { input: map, .. } = plan.as_ref() else {
            unreachable!()
        };
        assert!(Alg::project(map.clone(), vec![("w'".into(), "x".into())])
            .element_set()
            .is_none());
    }

    #[test]
    fn display_pred_and_operand() {
        let p = Pred::cmp(CmpOp::Le, Operand::var("p"), Operand::cst(200000.0));
        assert_eq!(p.to_string(), "$p <= 200000.0");
        let c = Operand::Call {
            name: "current_price".into(),
            args: vec![Operand::var("x")],
        };
        assert_eq!(c.to_string(), "current_price($x)");
    }
}
