//! Patterns — the YAT type system — and filters (patterns with variables).
//!
//! A pattern is a tree whose nodes are labels, atomic types, variables or
//! structural combinators (`*` for multiple occurrence, `∨` for
//! alternatives, `&Name` for references to named patterns). Fig. 3 of the
//! paper shows patterns at three genericity levels (YAT metamodel, ODMG
//! model, `art` schema / `Artworks` structure), all expressed in this one
//! formalism and related by instantiation (see [`crate::instantiate`]).

use crate::atom::{Atom, AtomType};
use crate::symbol::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// The label part of a pattern node.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PLabel {
    /// A literal symbol: matches exactly that symbol (`title`). Interned,
    /// so matching it against a node's `Label::Sym` is a pointer
    /// comparison.
    Sym(Symbol),
    /// A literal atomic constant: matches a value-equal atom (`1897`,
    /// `"Giverny"` — used when a query inlines a constant in a filter).
    Const(Atom),
    /// An atomic type: matches any atom of that type (`Int`, `String`).
    Atom(AtomType),
    /// The metamodel `Symbol` label: matches any symbol. Combined with
    /// `bind="none"` flags in capability descriptions (Fig. 6 line 5).
    AnySym,
    /// Matches anything (symbol, atom, oid): the YAT metamodel top.
    Any,
    /// A label variable: matches any symbol and binds it. Supports the
    /// paper's "semistructured queries over structured data" (Section 5.1,
    /// retrieving attribute *names* of `person` objects).
    Var(String),
}

impl PLabel {
    /// Variable name, if this is a label variable.
    pub fn var(&self) -> Option<&str> {
        match self {
            PLabel::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for PLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PLabel::Sym(s) => write!(f, "{s}"),
            PLabel::Const(Atom::Str(s)) => write!(f, "{s:?}"),
            PLabel::Const(a) => write!(f, "{a}"),
            PLabel::Atom(t) => write!(f, "{t}"),
            PLabel::AnySym => write!(f, "Symbol"),
            PLabel::Any => write!(f, "Any"),
            PLabel::Var(v) => write!(f, "~${v}"),
        }
    }
}

/// Edge occurrence: one child or multiple (`*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occ {
    /// Exactly one occurrence.
    One,
    /// Zero or more occurrences (the `*` edge of Fig. 3).
    Star,
    /// Zero or one occurrence (used for optional elements such as
    /// `price` in partially structured works).
    Opt,
}

/// How a star edge binds in a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StarBind {
    /// Iterate: one binding row per matching child
    /// (`owners *$o` — each owner yields a row).
    Iterate,
    /// Collect: one row, with the variable bound to the *collection* of
    /// matching children (`*($fields)` in Fig. 4 — "being on the edge,
    /// variable `$fields` will contain the collection of such elements").
    Collect,
}

/// An edge from a pattern node to a child pattern.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Edge {
    /// Occurrence of the child.
    pub occ: Occ,
    /// Variable bound on the edge itself, with its collect/iterate mode.
    /// Only meaningful on `Star` edges.
    pub star_var: Option<(String, StarBind)>,
    /// The child pattern.
    pub pattern: Pattern,
}

impl Edge {
    /// A plain single-occurrence edge.
    pub fn one(pattern: Pattern) -> Self {
        Edge {
            occ: Occ::One,
            star_var: None,
            pattern,
        }
    }

    /// An optional edge.
    pub fn opt(pattern: Pattern) -> Self {
        Edge {
            occ: Occ::Opt,
            star_var: None,
            pattern,
        }
    }

    /// A star edge that iterates matches.
    pub fn star(pattern: Pattern) -> Self {
        Edge {
            occ: Occ::Star,
            star_var: None,
            pattern,
        }
    }

    /// A star edge binding each match to `var` (one row per match).
    pub fn star_iter(var: impl Into<String>, pattern: Pattern) -> Self {
        Edge {
            occ: Occ::Star,
            star_var: Some((var.into(), StarBind::Iterate)),
            pattern,
        }
    }

    /// A star edge binding the whole collection of matches to `var`.
    pub fn star_collect(var: impl Into<String>, pattern: Pattern) -> Self {
        Edge {
            occ: Occ::Star,
            star_var: Some((var.into(), StarBind::Collect)),
            pattern,
        }
    }
}

/// A pattern (type) or filter (pattern with variables).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Pattern {
    /// An interior node: label plus child edges.
    Node {
        /// The node's label pattern.
        label: PLabel,
        /// Edges to child patterns, in order.
        edges: Vec<Edge>,
    },
    /// Alternatives (`∨` in Fig. 3, `<union>` in Fig. 6): matches if any
    /// branch matches. Kept deterministic by first-match-wins binding.
    Union(Vec<Pattern>),
    /// A reference to a named pattern (`&Class` in Fig. 3, `<ref
    /// pattern="Fclass"/>` in Fig. 6). Resolved against a [`Model`].
    Ref(String),
    /// A tree variable: matches any subtree and binds it (`$t`).
    TreeVar(String),
    /// Matches any subtree without binding.
    Wildcard,
}

impl Pattern {
    /// A node with a literal symbol label.
    pub fn sym(name: impl Into<Symbol>, edges: Vec<Edge>) -> Pattern {
        Pattern::Node {
            label: PLabel::Sym(name.into()),
            edges,
        }
    }

    /// `name[$var]` — the ubiquitous "element whose content binds to a
    /// variable" filter (`title: $t`).
    pub fn elem_var(name: impl Into<Symbol>, var: impl Into<String>) -> Pattern {
        Pattern::sym(name, vec![Edge::one(Pattern::TreeVar(var.into()))])
    }

    /// `name[c]` — element containing a constant (`cplace["Giverny"]`).
    pub fn elem_const(name: impl Into<Symbol>, value: impl Into<Atom>) -> Pattern {
        Pattern::sym(
            name,
            vec![Edge::one(Pattern::Node {
                label: PLabel::Const(value.into()),
                edges: vec![],
            })],
        )
    }

    /// `name[T]` — element containing an atom of type `T` (`year[Int]`).
    pub fn elem_typed(name: impl Into<Symbol>, ty: AtomType) -> Pattern {
        Pattern::sym(
            name,
            vec![Edge::one(Pattern::Node {
                label: PLabel::Atom(ty),
                edges: vec![],
            })],
        )
    }

    /// An atomic-type leaf.
    pub fn atom(ty: AtomType) -> Pattern {
        Pattern::Node {
            label: PLabel::Atom(ty),
            edges: vec![],
        }
    }

    /// A constant leaf.
    pub fn constant(a: impl Into<Atom>) -> Pattern {
        Pattern::Node {
            label: PLabel::Const(a.into()),
            edges: vec![],
        }
    }

    /// Collects the variables of this filter, in left-to-right order
    /// of first occurrence (the column order of the `Tab` a `Bind`
    /// produces, Fig. 4).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        fn push(out: &mut Vec<String>, v: &str) {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        }
        match self {
            Pattern::Node { label, edges } => {
                if let PLabel::Var(v) = label {
                    push(out, v);
                }
                for e in edges {
                    if let Some((v, _)) = &e.star_var {
                        push(out, v);
                    }
                    e.pattern.collect_vars(out);
                }
            }
            Pattern::Union(branches) => {
                for b in branches {
                    b.collect_vars(out);
                }
            }
            Pattern::TreeVar(v) => push(out, v),
            Pattern::Ref(_) | Pattern::Wildcard => {}
        }
    }

    /// True if the pattern contains no variables (a pure type).
    pub fn is_ground(&self) -> bool {
        match self {
            Pattern::Node { label, edges } => {
                !matches!(label, PLabel::Var(_))
                    && edges
                        .iter()
                        .all(|e| e.star_var.is_none() && e.pattern.is_ground())
            }
            Pattern::Union(branches) => branches.iter().all(Pattern::is_ground),
            Pattern::TreeVar(_) => false,
            Pattern::Ref(_) | Pattern::Wildcard => true,
        }
    }

    /// Depth of the pattern tree. Elementary filters (depth ≤ 2:
    /// a node and its immediate children) are what Bind-splitting
    /// produces (Section 5.1).
    pub fn depth(&self) -> usize {
        match self {
            Pattern::Node { edges, .. } => {
                1 + edges.iter().map(|e| e.pattern.depth()).max().unwrap_or(0)
            }
            Pattern::Union(bs) => bs.iter().map(|b| b.depth()).max().unwrap_or(1),
            _ => 1,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Node { label, edges } => {
                write!(f, "{label}")?;
                if !edges.is_empty() {
                    write!(f, "[")?;
                    for (i, e) in edges.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        match e.occ {
                            Occ::Star => write!(f, "*")?,
                            Occ::Opt => write!(f, "?")?,
                            Occ::One => {}
                        }
                        match &e.star_var {
                            Some((v, StarBind::Iterate)) => {
                                write!(f, "${v}:{}", e.pattern)?;
                            }
                            Some((v, StarBind::Collect)) => {
                                write!(f, "(${v})")?;
                                if e.pattern != Pattern::Wildcard {
                                    write!(f, ":{}", e.pattern)?;
                                }
                            }
                            None => write!(f, "{}", e.pattern)?,
                        }
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Pattern::Union(bs) => {
                write!(f, "(")?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            Pattern::Ref(name) => write!(f, "&{name}"),
            Pattern::TreeVar(v) => write!(f, "${v}"),
            Pattern::Wildcard => write!(f, "_"),
        }
    }
}

/// A filter is a pattern with (distinct) variables; the alias documents
/// call-site intent (Bind filters vs pure types).
pub type Filter = Pattern;

/// A named pattern definition within a model.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternDef {
    /// The pattern's name (`Artifact`, `Fclass`).
    pub name: String,
    /// Its body.
    pub pattern: Pattern,
}

/// A set of named patterns — the structural metadata a wrapper exports
/// (Fig. 3), or an `Fmodel` in a capability description (Fig. 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Model name (`o2model`, `Artworks_Structure`, `yat`).
    pub name: String,
    defs: BTreeMap<String, Pattern>,
    /// Definition order, for display and serialization fidelity.
    order: Vec<String>,
}

impl Model {
    /// An empty model with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            defs: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// Adds (or replaces) a named pattern.
    pub fn define(&mut self, name: impl Into<String>, pattern: Pattern) {
        let name = name.into();
        if !self.defs.contains_key(&name) {
            self.order.push(name.clone());
        }
        self.defs.insert(name, pattern);
    }

    /// Builder-style [`Model::define`].
    pub fn with(mut self, name: impl Into<String>, pattern: Pattern) -> Self {
        self.define(name, pattern);
        self
    }

    /// Looks up a pattern by name.
    pub fn get(&self, name: &str) -> Option<&Pattern> {
        self.defs.get(name)
    }

    /// Iterates definitions in insertion order.
    pub fn defs(&self) -> impl Iterator<Item = (&str, &Pattern)> {
        self.order.iter().map(|n| (n.as_str(), &self.defs[n]))
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Resolves one level of [`Pattern::Ref`] against this model.
    /// Unknown names resolve to `None`; callers decide whether that is an
    /// error (strict wrapping) or a wildcard (flexible matching).
    pub fn resolve<'a>(&'a self, p: &'a Pattern) -> Option<&'a Pattern> {
        match p {
            Pattern::Ref(name) => self.get(name),
            _ => Some(p),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {} {{", self.name)?;
        for (n, p) in self.defs() {
            writeln!(f, "  {n} := {p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Artifact` class pattern of Fig. 3 (left), transcribed.
    pub(crate) fn artifact_pattern() -> Pattern {
        Pattern::sym(
            "class",
            vec![Edge::one(Pattern::sym(
                "artifact",
                vec![Edge::one(Pattern::sym(
                    "tuple",
                    vec![
                        Edge::one(Pattern::elem_typed("title", AtomType::Str)),
                        Edge::one(Pattern::elem_typed("year", AtomType::Int)),
                        Edge::one(Pattern::elem_typed("creator", AtomType::Str)),
                        Edge::one(Pattern::elem_typed("price", AtomType::Float)),
                        Edge::one(Pattern::sym(
                            "owners",
                            vec![Edge::star(Pattern::Ref("Person".into()))],
                        )),
                    ],
                ))],
            ))],
        )
    }

    #[test]
    fn variables_in_order_of_occurrence() {
        let f = Pattern::sym(
            "work",
            vec![
                Edge::one(Pattern::elem_var("title", "t")),
                Edge::one(Pattern::elem_var("artist", "a")),
                Edge::star_collect("fields", Pattern::Wildcard),
            ],
        );
        assert_eq!(f.variables(), vec!["t", "a", "fields"]);
        assert!(!f.is_ground());
        assert!(artifact_pattern().is_ground());
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(Pattern::atom(AtomType::Int).depth(), 1);
        assert_eq!(Pattern::elem_var("t", "x").depth(), 2);
        assert_eq!(artifact_pattern().depth(), 5);
    }

    #[test]
    fn display_round_readable() {
        let f = Pattern::sym(
            "doc",
            vec![Edge::star_iter("w", Pattern::sym("work", vec![]))],
        );
        assert_eq!(f.to_string(), "doc[*$w:work]");
        let u = Pattern::Union(vec![
            Pattern::atom(AtomType::Int),
            Pattern::Ref("Fclass".into()),
        ]);
        assert_eq!(u.to_string(), "(Int ∨ &Fclass)");
    }

    #[test]
    fn model_define_lookup_order() {
        let m = Model::new("o2model")
            .with("Person", Pattern::sym("class", vec![]))
            .with("Artifact", artifact_pattern());
        assert_eq!(m.len(), 2);
        assert!(m.get("Person").is_some());
        assert!(m.get("Nope").is_none());
        let names: Vec<_> = m.defs().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Person", "Artifact"]);
        // resolve Ref
        let r = Pattern::Ref("Person".into());
        assert_eq!(m.resolve(&r), m.get("Person"));
        assert!(m.resolve(&Pattern::Ref("Nope".into())).is_none());
        let w = Pattern::Wildcard;
        assert_eq!(m.resolve(&w), Some(&w));
    }

    #[test]
    fn redefine_replaces_in_place() {
        let mut m = Model::new("m");
        m.define("X", Pattern::Wildcard);
        m.define("X", Pattern::atom(AtomType::Int));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("X"), Some(&Pattern::atom(AtomType::Int)));
    }
}
