//! Filter matching: the pattern-matching semantics behind YATL's `MATCH`
//! clause and the algebra's `Bind` operator.
//!
//! "YATL's filtering mechanism relies on instantiation: if a tree is
//! instance of a filter, then one can deduce a mapping between node values
//! and variables" (Section 2). [`match_filter`] implements that mapping:
//! given a tree and a filter it produces zero or more [`BindingRow`]s —
//! zero when the tree is not an instance, several when star edges iterate
//! (one row per matched element, Fig. 4).

use crate::forest::Forest;
use crate::hash::Fnv64;
use crate::index::{path_atom, path_sym, TreeIndex};
use crate::pattern::{Edge, Filter, Model, Occ, PLabel, Pattern, StarBind};
use crate::tree::{Label, Node, Tree};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

/// A value bound to a variable by matching.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// A subtree (`$t` in `title: $t`).
    Tree(Tree),
    /// A label — tag variables over symbols (Section 5.1's
    /// "semistructured queries over structured data").
    Label(String),
    /// A collection of subtrees — star-edge collect variables
    /// (`$fields` in Fig. 4 "will contain the *collection* of such
    /// elements").
    Coll(Vec<Tree>),
}

impl Binding {
    /// The bound subtree, if any.
    pub fn as_tree(&self) -> Option<&Tree> {
        match self {
            Binding::Tree(t) => Some(t),
            _ => None,
        }
    }
}

/// One result row: variable name → bound value.
pub type BindingRow = BTreeMap<String, Binding>;

/// Matching context.
#[derive(Clone, Copy, Default)]
pub struct MatchOptions<'a> {
    /// Resolves [`Pattern::Ref`] names. A `Ref` to an unknown name matches
    /// nothing (strictness catches schema drift, which the paper notes the
    /// mediator should "notify the integration administrator" about).
    pub model: Option<&'a Model>,
    /// When set, reference leaves (`&p3`) are followed through the forest
    /// before matching — how filters navigate O2 object references.
    pub forest: Option<&'a Forest>,
    /// Closed matching requires every child of every matched node to be
    /// claimed by some edge (type-instantiation semantics). Open matching
    /// ignores extra children (XML filter semantics). Default: open.
    pub closed: bool,
}

/// Matches `filter` against `tree`, returning one row per way the filter's
/// iterating star edges embed into the tree; empty when `tree` is not an
/// instance of the filter.
pub fn match_filter(tree: &Tree, filter: &Filter, opts: MatchOptions<'_>) -> Vec<BindingRow> {
    let mut m = Matcher {
        opts,
        fuel: FUEL_LIMIT,
    };
    m.node(tree, filter).unwrap_or_default()
}

/// Convenience: does `filter` match at all?
pub fn matches(tree: &Tree, filter: &Filter, opts: MatchOptions<'_>) -> bool {
    !match_filter(tree, filter, opts).is_empty()
}

/// What one indexed matching call did — the candidate accounting behind
/// `EXPLAIN ANALYZE`'s index section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Whether the index covered the filter. `false` means the call fell
    /// back to the full walker ([`match_filter`]).
    pub covered: bool,
    /// Candidate children the index seeded (collection size on fallback).
    pub candidates: u64,
    /// Top-level children of the matched tree.
    pub collection: u64,
    /// Binding rows produced.
    pub rows: u64,
}

/// Index-aware matching: identical output to [`match_filter`], but for
/// covered filters the top-level star edge runs only over candidate
/// children seeded from a path-hash lookup in `index` (which must have
/// been built over this `tree`).
///
/// Coverage requires open matching, a reference-free tree (a `Forest`
/// in scope is harmless then: dereferencing is the identity on every
/// node the match can reach), and the collection shape `root[* sub[...]]`
/// with symbol-labeled root and subpattern. Everything else — `*`
/// labels, unions (`∨`), pattern refs, closed matching, trees holding
/// `&oid` leaves — falls back to the full walker, which keeps full
/// generality as the oracle.
pub fn match_filter_indexed(
    tree: &Tree,
    filter: &Filter,
    opts: MatchOptions<'_>,
    index: &TreeIndex,
) -> (Vec<BindingRow>, IndexStats) {
    let collection = tree.children.len() as u64;
    let fallback = |tree, filter, opts| {
        let rows = match_filter(tree, filter, opts);
        let stats = IndexStats {
            covered: false,
            candidates: collection,
            collection,
            rows: rows.len() as u64,
        };
        (rows, stats)
    };
    if opts.closed || index.has_refs() {
        return fallback(tree, filter, opts);
    }
    // the collection shape: `root[* sub[...]]` with symbol labels
    let Pattern::Node { label, edges } = filter else {
        return fallback(tree, filter, opts);
    };
    let PLabel::Sym(root) = label else {
        return fallback(tree, filter, opts);
    };
    let [edge] = edges.as_slice() else {
        return fallback(tree, filter, opts);
    };
    if edge.occ != Occ::Star || tree.label.as_sym() != Some(root.as_str()) {
        return fallback(tree, filter, opts);
    }
    let Pattern::Node {
        label: PLabel::Sym(sub),
        ..
    } = &edge.pattern
    else {
        return fallback(tree, filter, opts);
    };

    // hash the filter's required spine: root / sub / (deepest chain of
    // required One-edges through symbol nodes, ending at a constant
    // leaf when one is reachable — the selective case)
    let mut h = Fnv64::new();
    path_sym(&mut h, root);
    path_sym(&mut h, sub);
    let (h, _, _) = spine_extend(&edge.pattern, h);
    let cands = index.postings(h.finish());

    let mut m = Matcher {
        opts,
        fuel: FUEL_LIMIT,
    };
    let collect_var = match &edge.star_var {
        Some((v, StarBind::Collect)) => Some(v.clone()),
        _ => None,
    };
    let iter_var = match &edge.star_var {
        Some((v, StarBind::Iterate)) => Some(v.clone()),
        _ => None,
    };
    let inner_vars = !edge.pattern.variables().is_empty();

    // reproduce `single_star` (open matching) over the candidates only:
    // a child matching the subpattern must contain the required spine,
    // so the candidate set is a superset of the matching children, and
    // candidates arrive in ascending child order — row order, dedup and
    // collection order are preserved exactly.
    let rows = if let Some(v) = collect_var {
        let mut coll = Vec::new();
        for &i in cands {
            let kid = &tree.children[i as usize];
            if m.node(kid, &edge.pattern).is_some() {
                coll.push(kid.clone());
            }
        }
        let mut row = BindingRow::new();
        row.insert(v, Binding::Coll(coll));
        vec![row]
    } else if iter_var.is_some() || inner_vars {
        let mut rows = Vec::new();
        for &i in cands {
            let kid = &tree.children[i as usize];
            if let Some(subrows) = m.node(kid, &edge.pattern) {
                for mut sub in subrows {
                    if let Some(v) = &iter_var {
                        sub.insert(v.clone(), Binding::Tree(kid.clone()));
                    }
                    rows.push(sub);
                }
            }
        }
        dedup_rows(rows)
    } else {
        // structural star: open matching always yields one empty row
        vec![BindingRow::new()]
    };
    let stats = IndexStats {
        covered: true,
        candidates: cands.len() as u64,
        collection,
        rows: rows.len() as u64,
    };
    (rows, stats)
}

/// Extends a running spine hash through the deepest chain of required
/// (`Occ::One`) edges below `pat` (already hashed), preferring chains
/// that end at a constant leaf — the value-level lookup. Returns the
/// extended hasher, the extension depth, and whether it ended at a
/// constant.
fn spine_extend(pat: &Pattern, h: Fnv64) -> (Fnv64, usize, bool) {
    let Pattern::Node { edges, .. } = pat else {
        return (h, 0, false);
    };
    let mut best = (h, 0usize, false);
    for e in edges {
        if e.occ != Occ::One {
            continue;
        }
        let cand = match &e.pattern {
            // `cplace["Giverny"]`: the constant atom is itself a path
            // component (a constant with inner edges can never match an
            // atomic leaf, so only the leaf form extends)
            Pattern::Node {
                label: PLabel::Const(a),
                edges: inner,
            } if inner.is_empty() => {
                let mut h2 = h;
                path_atom(&mut h2, a);
                (h2, 1, true)
            }
            Pattern::Node {
                label: PLabel::Sym(s),
                ..
            } => {
                let mut h2 = h;
                path_sym(&mut h2, s);
                let (h3, d, c) = spine_extend(&e.pattern, h2);
                (h3, d + 1, c)
            }
            _ => continue,
        };
        if (cand.2, cand.1) > (best.2, best.1) {
            best = cand;
        }
    }
    best
}

/// A guard against pathological state explosion in ambiguous filters. The
/// paper restricts filters to unambiguous regular expressions (matching is
/// then polynomial, citing Beeri–Milo); we keep the general algorithm but
/// bound the work.
const FUEL_LIMIT: u64 = 10_000_000;

/// Cap on concurrent partial match states (see [`FUEL_LIMIT`]). Filters
/// exceeding it are treated as non-matching rather than allowed to allocate
/// unboundedly.
const MAX_STATES: usize = 65_536;

struct Matcher<'a> {
    opts: MatchOptions<'a>,
    fuel: u64,
}

impl<'a> Matcher<'a> {
    fn spend(&mut self, amount: u64) -> Option<()> {
        self.fuel = self.fuel.checked_sub(amount)?;
        Some(())
    }

    /// Follows a reference leaf through the forest, if configured.
    fn resolve<'t>(&self, tree: &'t Tree) -> &'t Tree
    where
        'a: 't,
    {
        match (&tree.label, self.opts.forest) {
            (Label::Ref(oid), Some(f)) => f.deref_oid(oid).unwrap_or(tree),
            _ => tree,
        }
    }

    /// `None` = not an instance. `Some(rows)` = instance, with `rows`
    /// non-empty.
    fn node(&mut self, tree: &Tree, pat: &Pattern) -> Option<Vec<BindingRow>> {
        self.spend(1)?;
        // Follow references transparently.
        let tree: &Tree = match (&tree.label, self.opts.forest) {
            (Label::Ref(oid), Some(f)) => f.deref_oid(oid).unwrap_or(tree),
            _ => tree,
        };
        match pat {
            Pattern::Wildcard => Some(vec![BindingRow::new()]),
            Pattern::TreeVar(v) => {
                let mut row = BindingRow::new();
                row.insert(v.clone(), Binding::Tree(tree.clone()));
                Some(vec![row])
            }
            Pattern::Ref(name) => {
                let resolved = self.opts.model.and_then(|m| m.get(name))?;
                self.node(tree, resolved)
            }
            Pattern::Union(branches) => {
                // First matching branch wins: deterministic semantics for
                // the unambiguous unions the paper allows.
                branches.iter().find_map(|b| self.node(tree, b))
            }
            Pattern::Node { label, edges } => {
                // Identified nodes are transparent: `a1[class[...]]`
                // matches the filter `class[...]`, so object identity
                // never blocks structural filters.
                // (pattern labels never denote concrete identifiers, so a
                // non-Any label can only match after descending)
                if !matches!(label, PLabel::Any) {
                    if let (Label::Oid(_), [only]) = (&tree.label, tree.children.as_slice()) {
                        let only = only.clone();
                        return self.node(&only, pat);
                    }
                }
                let label_binding = self.match_label(&tree.label, label)?;
                let mut rows = self.edges(tree, edges)?;
                if let Some((v, sym)) = label_binding {
                    for row in &mut rows {
                        row.insert(v.clone(), Binding::Label(sym.clone()));
                    }
                }
                Some(rows)
            }
        }
    }

    /// Matches a node label against a label pattern. On success returns an
    /// optional `(var, symbol)` binding for label variables.
    fn match_label(&mut self, label: &Label, pat: &PLabel) -> Option<Option<(String, String)>> {
        match (pat, label) {
            (PLabel::Any, _) => Some(None),
            (PLabel::Sym(p), Label::Sym(s)) if p == s => Some(None),
            (PLabel::AnySym, Label::Sym(_)) => Some(None),
            (PLabel::Var(v), Label::Sym(s)) => Some(Some((v.clone(), s.to_string()))),
            (PLabel::Const(c), Label::Atom(a)) if c.value_eq(a) => Some(None),
            (PLabel::Atom(t), Label::Atom(a)) if *t == a.atom_type() => Some(None),
            _ => None,
        }
    }

    /// Matches the edge list against the node's children.
    ///
    /// Edges are processed left to right over a set of partial states
    /// (claimed-children bitmap + bindings). Single-occurrence edges have
    /// existential semantics and iterate over every matching child;
    /// star edges either iterate (inner variables / `*$v:`), collect
    /// (`*($v)`), or structurally claim matches.
    fn edges(&mut self, tree: &Tree, edges: &[Edge]) -> Option<Vec<BindingRow>> {
        let kids = &tree.children;
        // Fast path: a single star edge over many children — the common
        // document-collection shape (`works[*work[...]]`). The general
        // algorithm clones a claimed-children bitmap per partial state,
        // which is quadratic in the collection size; here a single linear
        // scan suffices and the semantics below are reproduced exactly.
        if let [edge] = edges {
            if edge.occ == Occ::Star {
                return self.single_star(kids, edge);
            }
        }
        let mut states: Vec<(Vec<bool>, BindingRow)> =
            vec![(vec![false; kids.len()], BindingRow::new())];
        for edge in edges {
            self.spend(states.len() as u64)?;
            let mut next: Vec<(Vec<bool>, BindingRow)> = Vec::new();
            match edge.occ {
                Occ::One | Occ::Opt => {
                    for (claimed, row) in &states {
                        let mut found = false;
                        for (i, kid) in kids.iter().enumerate() {
                            if claimed[i] {
                                continue;
                            }
                            if let Some(subrows) = self.node(kid, &edge.pattern) {
                                found = true;
                                for sub in subrows {
                                    if let Some(merged) = merge(row, &sub) {
                                        let mut c = claimed.clone();
                                        c[i] = true;
                                        next.push((c, merged));
                                    }
                                }
                            }
                        }
                        if !found && edge.occ == Occ::Opt {
                            next.push((claimed.clone(), row.clone()));
                        }
                    }
                }
                Occ::Star => {
                    let collect_var = match &edge.star_var {
                        Some((v, StarBind::Collect)) => Some(v.clone()),
                        _ => None,
                    };
                    let iter_var = match &edge.star_var {
                        Some((v, StarBind::Iterate)) => Some(v.clone()),
                        _ => None,
                    };
                    let inner_vars = !edge.pattern.variables().is_empty();
                    if let Some(v) = collect_var {
                        // Collect: claim every matching unclaimed child,
                        // bind the collection. Inner bindings are not
                        // exported (the variable denotes the collection).
                        for (claimed, row) in &states {
                            let mut c = claimed.clone();
                            let mut coll = Vec::new();
                            for (i, kid) in kids.iter().enumerate() {
                                if c[i] {
                                    continue;
                                }
                                if self.node(kid, &edge.pattern).is_some() {
                                    c[i] = true;
                                    coll.push(self.resolve(kid).clone());
                                }
                            }
                            let mut row = row.clone();
                            row.insert(v.clone(), Binding::Coll(coll));
                            next.push((c, row));
                        }
                    } else if iter_var.is_some() || inner_vars {
                        // Iterate: one successor state per matching child.
                        for (claimed, row) in &states {
                            for (i, kid) in kids.iter().enumerate() {
                                if claimed[i] {
                                    continue;
                                }
                                if let Some(subrows) = self.node(kid, &edge.pattern) {
                                    for sub in subrows {
                                        let mut merged = match merge(row, &sub) {
                                            Some(m) => m,
                                            None => continue,
                                        };
                                        if let Some(v) = &iter_var {
                                            // the variable sees through
                                            // references, like the match
                                            merged.insert(
                                                v.clone(),
                                                Binding::Tree(self.resolve(kid).clone()),
                                            );
                                        }
                                        let mut c = claimed.clone();
                                        c[i] = true;
                                        next.push((c, merged));
                                    }
                                }
                            }
                        }
                    } else {
                        // Structural star: claim all matching children;
                        // always succeeds (zero matches allowed).
                        for (claimed, row) in &states {
                            let mut c = claimed.clone();
                            for (i, kid) in kids.iter().enumerate() {
                                if !c[i] && self.node(kid, &edge.pattern).is_some() {
                                    c[i] = true;
                                }
                            }
                            next.push((c, row.clone()));
                        }
                    }
                }
            }
            states = next;
            if states.is_empty() {
                return None;
            }
            // Reject over-ambiguous filters before they exhaust memory:
            // each subsequent edge can multiply the state count, so the cap
            // bounds peak allocation to MAX_STATES × max fan-out.
            if states.len() > MAX_STATES {
                return None;
            }
            self.spend(states.len() as u64)?;
        }
        if self.opts.closed {
            states.retain(|(claimed, _)| claimed.iter().all(|&c| c));
        }
        let rows: Vec<BindingRow> = states.into_iter().map(|(_, r)| r).collect();
        if rows.is_empty() {
            None
        } else {
            Some(dedup_rows(rows))
        }
    }

    /// Linear-time handling of a node whose filter is exactly one star
    /// edge. Mirrors the general algorithm's semantics, including closed
    /// matching (every child must be claimed).
    fn single_star(&mut self, kids: &[Tree], edge: &Edge) -> Option<Vec<BindingRow>> {
        self.spend(kids.len() as u64)?;
        let collect_var = match &edge.star_var {
            Some((v, StarBind::Collect)) => Some(v.clone()),
            _ => None,
        };
        let iter_var = match &edge.star_var {
            Some((v, StarBind::Iterate)) => Some(v.clone()),
            _ => None,
        };
        let inner_vars = !edge.pattern.variables().is_empty();
        if let Some(v) = collect_var {
            let mut coll = Vec::new();
            let mut matched = 0usize;
            for kid in kids {
                if self.node(kid, &edge.pattern).is_some() {
                    matched += 1;
                    coll.push(self.resolve(kid).clone());
                }
            }
            if self.opts.closed && matched != kids.len() {
                return None;
            }
            let mut row = BindingRow::new();
            row.insert(v, Binding::Coll(coll));
            Some(vec![row])
        } else if iter_var.is_some() || inner_vars {
            // iterate: one row per matching child; under closed matching a
            // state claims only its own child, so rows survive only when
            // there is nothing else to claim
            if self.opts.closed && kids.len() > 1 {
                return None;
            }
            let mut rows = Vec::new();
            for kid in kids {
                if let Some(subrows) = self.node(kid, &edge.pattern) {
                    for mut sub in subrows {
                        if let Some(v) = &iter_var {
                            sub.insert(v.clone(), Binding::Tree(self.resolve(kid).clone()));
                        }
                        rows.push(sub);
                    }
                }
            }
            if rows.is_empty() {
                None
            } else {
                Some(dedup_rows(rows))
            }
        } else {
            // structural: always succeeds open; closed requires all
            // children to match
            if self.opts.closed {
                for kid in kids {
                    self.node(kid, &edge.pattern)?;
                }
            }
            Some(vec![BindingRow::new()])
        }
    }
}

/// Merges two rows; `None` when a shared variable is bound to different
/// values (can only happen with variables repeated across union branches).
fn merge(a: &BindingRow, b: &BindingRow) -> Option<BindingRow> {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(existing) if existing != v => return None,
            _ => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    Some(out)
}

fn dedup_rows(rows: Vec<BindingRow>) -> Vec<BindingRow> {
    // distinct embeddings may produce identical rows (e.g. wildcard
    // edges); keep first occurrences, preserving order. Keyed by a
    // 64-bit structural hash (cached per tree node) so dedup stays
    // near-linear in the row count; a hash hit is confirmed structurally
    // before a row is dropped, so collisions can't lose rows.
    if rows.len() < 2 {
        return rows;
    }
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(rows.len());
    let mut out: Vec<BindingRow> = Vec::with_capacity(rows.len());
    for row in rows {
        let h = row_hash(&row);
        let bucket = seen.entry(h).or_default();
        if bucket.iter().any(|&i| row_key_eq(&out[i], &row)) {
            continue;
        }
        bucket.push(out.len());
        out.push(row);
    }
    out
}

/// Structural hash of a binding row under grouping-key semantics. Every
/// variable-length field is length-prefixed, so distinct rows cannot
/// collide by re-splitting concatenated text.
fn row_hash(row: &BindingRow) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(row.len() as u64);
    for (k, v) in row {
        crate::hash::write_len_str(&mut h, k);
        binding_hash(v, &mut h);
    }
    h.finish()
}

fn binding_hash(b: &Binding, h: &mut Fnv64) {
    match b {
        Binding::Tree(t) => {
            h.write_u8(b'T');
            h.write_u64(t.key_hash());
        }
        Binding::Label(l) => {
            h.write_u8(b'L');
            crate::hash::write_len_str(h, l);
        }
        Binding::Coll(c) => {
            h.write_u8(b'C');
            h.write_u64(c.len() as u64);
            for t in c {
                h.write_u64(t.key_hash());
            }
        }
    }
}

fn row_key_eq(a: &BindingRow, b: &BindingRow) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && binding_key_eq(va, vb))
}

fn binding_key_eq(a: &Binding, b: &Binding) -> bool {
    match (a, b) {
        (Binding::Tree(x), Binding::Tree(y)) => Node::key_eq(x, y),
        (Binding::Label(x), Binding::Label(y)) => x == y,
        (Binding::Coll(x), Binding::Coll(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(t, u)| Node::key_eq(t, u))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, AtomType};
    use crate::oid::Oid;
    use crate::pattern::Edge;
    use crate::tree::Node;

    fn work(artist: &str, title: &str, extra: Vec<Tree>) -> Tree {
        let mut children = vec![
            Node::elem("artist", artist),
            Node::elem("title", title),
            Node::elem("style", "Impressionist"),
            Node::elem("size", "21 x 61"),
        ];
        children.extend(extra);
        Node::sym("work", children)
    }

    fn works() -> Tree {
        Node::sym(
            "works",
            vec![
                work(
                    "Claude Monet",
                    "Nympheas",
                    vec![Node::elem("cplace", "Giverny")],
                ),
                work(
                    "Claude Monet",
                    "Waterloo Bridge",
                    vec![Node::sym(
                        "history",
                        vec![
                            Node::atom("Painted with"),
                            Node::elem("technique", "Oil on canvas"),
                        ],
                    )],
                ),
            ],
        )
    }

    /// The Fig. 4 filter: binds title, artist, style, size and the
    /// collection of optional fields of every work.
    fn fig4_filter() -> Filter {
        Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![
                    Edge::one(Pattern::elem_var("title", "t")),
                    Edge::one(Pattern::elem_var("artist", "a")),
                    Edge::one(Pattern::elem_var("style", "s")),
                    Edge::one(Pattern::elem_var("size", "si")),
                    Edge::star_collect("fields", Pattern::Wildcard),
                ],
            ))],
        )
    }

    fn tree_of(row: &BindingRow, var: &str) -> Tree {
        match &row[var] {
            Binding::Tree(t) => t.clone(),
            other => panic!("expected tree binding for {var}, got {other:?}"),
        }
    }

    #[test]
    fn fig4_bind_semantics() {
        let rows = match_filter(&works(), &fig4_filter(), MatchOptions::default());
        assert_eq!(rows.len(), 2, "one row per work");
        let titles: Vec<String> = rows
            .iter()
            .map(|r| tree_of(r, "t").value_atom().unwrap().to_string())
            .collect();
        assert_eq!(titles, vec!["Nympheas", "Waterloo Bridge"]);
        // $fields holds the *collection* of optional elements
        match &rows[0]["fields"] {
            Binding::Coll(c) => {
                assert_eq!(c.len(), 1);
                assert_eq!(c[0].label.as_sym(), Some("cplace"));
            }
            other => panic!("expected collection, got {other:?}"),
        }
        match &rows[1]["fields"] {
            Binding::Coll(c) => assert_eq!(c[0].label.as_sym(), Some("history")),
            other => panic!("expected collection, got {other:?}"),
        }
    }

    #[test]
    fn non_instance_yields_no_rows() {
        let f = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![Edge::one(Pattern::elem_var("price", "p"))],
            ))],
        );
        // no work has a price: star edge with inner vars iterates matches;
        // zero matches means... zero rows, but the works node itself matches
        let rows = match_filter(&works(), &f, MatchOptions::default());
        assert!(rows.is_empty());

        // wrong root label
        let f2 = Pattern::sym("artifacts", vec![]);
        assert!(match_filter(&works(), &f2, MatchOptions::default()).is_empty());
    }

    #[test]
    fn one_edge_is_existential_and_iterating() {
        // Q1-style: navigate to works that have a cplace
        let f = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![
                    Edge::one(Pattern::elem_var("title", "t")),
                    Edge::one(Pattern::elem_var("cplace", "cl")),
                ],
            ))],
        );
        let rows = match_filter(&works(), &f, MatchOptions::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(
            tree_of(&rows[0], "cl").value_atom().unwrap().to_string(),
            "Giverny"
        );
    }

    #[test]
    fn constant_filters_select() {
        let f = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![
                    Edge::one(Pattern::elem_var("title", "t")),
                    Edge::one(Pattern::elem_const("cplace", "Giverny")),
                ],
            ))],
        );
        assert_eq!(match_filter(&works(), &f, MatchOptions::default()).len(), 1);
        // with a variable present the star edge iterates, so a constant
        // that matches nothing yields no rows
        let f2 = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![
                    Edge::one(Pattern::elem_var("title", "t")),
                    Edge::one(Pattern::elem_const("cplace", "Paris")),
                ],
            ))],
        );
        assert!(match_filter(&works(), &f2, MatchOptions::default()).is_empty());
        // a fully variable-free star edge is structural: it never fails,
        // it just claims matching children (zero here)
        let f3 = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![Edge::one(Pattern::elem_const("cplace", "Paris"))],
            ))],
        );
        assert_eq!(
            match_filter(&works(), &f3, MatchOptions::default()).len(),
            1
        );
    }

    #[test]
    fn label_variables_bind_tags() {
        // retrieve the attribute names of a person tuple (Section 5.1)
        let person = Node::sym(
            "tuple",
            vec![
                Node::elem("name", "Doctor X"),
                Node::elem("auction", 1_500_000.0),
            ],
        );
        let f = Pattern::sym(
            "tuple",
            vec![Edge::star_iter(
                "field",
                Pattern::Node {
                    label: PLabel::Var("n".into()),
                    edges: vec![Edge::one(Pattern::Wildcard)],
                },
            )],
        );
        let rows = match_filter(&person, &f, MatchOptions::default());
        assert_eq!(rows.len(), 2);
        let names: Vec<&str> = rows
            .iter()
            .map(|r| match &r["n"] {
                Binding::Label(s) => s.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["name", "auction"]);
    }

    #[test]
    fn typed_and_any_labels() {
        let t = Node::elem("year", 1897);
        assert!(matches(
            &t,
            &Pattern::elem_typed("year", AtomType::Int),
            MatchOptions::default()
        ));
        assert!(!matches(
            &t,
            &Pattern::elem_typed("year", AtomType::Str),
            MatchOptions::default()
        ));
        assert!(matches(&t, &Pattern::Wildcard, MatchOptions::default()));
        let anysym = Pattern::Node {
            label: PLabel::AnySym,
            edges: vec![],
        };
        assert!(!matches(&Node::atom(5), &anysym, MatchOptions::default()));
        assert!(matches(
            &Node::sym("x", vec![]),
            &anysym,
            MatchOptions::default()
        ));
    }

    #[test]
    fn union_first_match_wins() {
        let f = Pattern::Union(vec![
            Pattern::elem_var("year", "y"),
            Pattern::TreeVar("other".into()),
        ]);
        let rows = match_filter(&Node::elem("year", 1897), &f, MatchOptions::default());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains_key("y"));
        assert!(!rows[0].contains_key("other"));

        let rows = match_filter(
            &Node::elem("style", "Impressionist"),
            &f,
            MatchOptions::default(),
        );
        assert!(rows[0].contains_key("other"));
    }

    #[test]
    fn refs_resolve_through_model() {
        let model = Model::new("m").with("V", Pattern::elem_var("year", "y"));
        let f = Pattern::Ref("V".into());
        let rows = match_filter(
            &Node::elem("year", 1897),
            &f,
            MatchOptions {
                model: Some(&model),
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 1);
        // unknown ref matches nothing
        let f2 = Pattern::Ref("Missing".into());
        assert!(match_filter(
            &Node::elem("year", 1897),
            &f2,
            MatchOptions {
                model: Some(&model),
                ..Default::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn reference_following_through_forest() {
        let mut forest = Forest::new();
        forest.insert(
            "persons",
            crate::forest::identified_person("p1", "Doctor X", 10.0),
        );
        let owners = Node::sym("owners", vec![Node::reference(Oid::new("p1"))]);
        let f = Pattern::sym(
            "owners",
            vec![Edge::star(Pattern::sym(
                "person",
                vec![Edge::one(Pattern::sym(
                    "tuple",
                    vec![
                        Edge::one(Pattern::elem_var("name", "o")),
                        Edge::one(Pattern::elem_var("auction", "au")),
                    ],
                ))],
            ))],
        );
        // without forest: reference leaf does not match
        assert!(match_filter(&owners, &f, MatchOptions::default()).is_empty());
        // with forest: dereference, skip oid wrapper, match
        let rows = match_filter(
            &owners,
            &f,
            MatchOptions {
                forest: Some(&forest),
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(
            tree_of(&rows[0], "o").value_atom().unwrap().to_string(),
            "Doctor X"
        );
    }

    #[test]
    fn oid_wrapper_is_transparent() {
        let obj = Node::oid(
            Oid::new("a1"),
            vec![Node::sym("class", vec![Node::elem("title", "Nympheas")])],
        );
        let f = Pattern::sym("class", vec![Edge::one(Pattern::elem_var("title", "t"))]);
        let rows = match_filter(&obj, &f, MatchOptions::default());
        assert_eq!(rows.len(), 1);
        // but a TreeVar binds the identified node itself
        let f2 = Pattern::TreeVar("x".into());
        let rows = match_filter(&obj, &f2, MatchOptions::default());
        assert!(matches!(&rows[0]["x"], Binding::Tree(t) if matches!(t.label, Label::Oid(_))));
    }

    #[test]
    fn closed_matching_requires_exhaustive_claims() {
        let w = work("Monet", "Nympheas", vec![]);
        let partial = Pattern::sym("work", vec![Edge::one(Pattern::elem_var("title", "t"))]);
        assert!(matches(&w, &partial, MatchOptions::default()));
        assert!(!matches(
            &w,
            &partial,
            MatchOptions {
                closed: true,
                ..Default::default()
            }
        ));
        let full = Pattern::sym(
            "work",
            vec![
                Edge::one(Pattern::elem_var("title", "t")),
                Edge::star_collect("rest", Pattern::Wildcard),
            ],
        );
        assert!(matches(
            &w,
            &full,
            MatchOptions {
                closed: true,
                ..Default::default()
            }
        ));
    }

    #[test]
    fn opt_edges() {
        let f = Pattern::sym(
            "work",
            vec![
                Edge::one(Pattern::elem_var("title", "t")),
                Edge::opt(Pattern::elem_var("cplace", "cl")),
            ],
        );
        let with = work("Monet", "Nympheas", vec![Node::elem("cplace", "Giverny")]);
        let without = work("Monet", "Bridge", vec![]);
        let r1 = match_filter(&with, &f, MatchOptions::default());
        assert_eq!(r1.len(), 1);
        assert!(r1[0].contains_key("cl"));
        let r2 = match_filter(&without, &f, MatchOptions::default());
        assert_eq!(r2.len(), 1);
        assert!(!r2[0].contains_key("cl"));
    }

    #[test]
    fn multiple_star_iteration_is_cartesian() {
        let t = Node::sym(
            "pairs",
            vec![Node::elem("a", 1), Node::elem("a", 2), Node::elem("b", 10)],
        );
        let f = Pattern::sym(
            "pairs",
            vec![
                Edge::star_iter(
                    "x",
                    Pattern::sym("a", vec![Edge::one(Pattern::TreeVar("xv".into()))]),
                ),
                Edge::star_iter(
                    "y",
                    Pattern::sym("b", vec![Edge::one(Pattern::TreeVar("yv".into()))]),
                ),
            ],
        );
        let rows = match_filter(&t, &f, MatchOptions::default());
        assert_eq!(rows.len(), 2); // (a1,b10), (a2,b10)
    }

    #[test]
    fn duplicate_rows_are_deduped() {
        let t = Node::sym("d", vec![Node::atom(1), Node::atom(1)]);
        let f = Pattern::sym("d", vec![Edge::one(Pattern::constant(1))]);
        // two embeddings, identical (empty) rows -> one row
        let rows = match_filter(&t, &f, MatchOptions::default());
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn fuel_guard_stops_explosion() {
        // A node with many identical children and many wildcard-var edges:
        // (50 choose 8) embeddings — must terminate via fuel, not hang.
        let kids: Vec<Tree> = (0..50).map(|_| Node::atom(1)).collect();
        let t = Node::sym("blow", kids);
        let edges: Vec<Edge> = (0..8)
            .map(|i| Edge::one(Pattern::TreeVar(format!("v{i}"))))
            .collect();
        let f = Pattern::sym("blow", edges);
        let _ = match_filter(&t, &f, MatchOptions::default()); // must return
    }

    #[test]
    fn indexed_matching_equals_walker() {
        use crate::index::TreeIndex;
        let t = works();
        let idx = TreeIndex::build(&t);
        let filters = vec![
            fig4_filter(),
            // Q1 shape: required cplace navigation
            Pattern::sym(
                "works",
                vec![Edge::star(Pattern::sym(
                    "work",
                    vec![
                        Edge::one(Pattern::elem_var("title", "t")),
                        Edge::one(Pattern::elem_var("cplace", "cl")),
                    ],
                ))],
            ),
            // selective constant leaf
            Pattern::sym(
                "works",
                vec![Edge::star(Pattern::sym(
                    "work",
                    vec![
                        Edge::one(Pattern::elem_var("title", "t")),
                        Edge::one(Pattern::elem_const("cplace", "Giverny")),
                    ],
                ))],
            ),
            // constant that matches nothing
            Pattern::sym(
                "works",
                vec![Edge::star(Pattern::sym(
                    "work",
                    vec![Edge::one(Pattern::elem_const("cplace", "Paris"))],
                ))],
            ),
            // iterate star binding whole docs
            Pattern::sym("works", vec![Edge::star_iter("w", Pattern::Wildcard)]),
            // collect star
            Pattern::sym(
                "works",
                vec![Edge::star_collect("all", Pattern::sym("work", vec![]))],
            ),
            // missing element: no rows either way
            Pattern::sym(
                "works",
                vec![Edge::star(Pattern::sym(
                    "work",
                    vec![Edge::one(Pattern::elem_var("price", "p"))],
                ))],
            ),
            // wrong root
            Pattern::sym("artifacts", vec![Edge::star(Pattern::Wildcard)]),
            // union at the top: must fall back
            Pattern::Union(vec![fig4_filter(), Pattern::Wildcard]),
        ];
        for f in &filters {
            let plain = match_filter(&t, f, MatchOptions::default());
            let (indexed, stats) = match_filter_indexed(&t, f, MatchOptions::default(), &idx);
            assert_eq!(plain, indexed, "filter {f:?} diverges");
            assert_eq!(stats.rows as usize, indexed.len());
        }
    }

    #[test]
    fn indexed_matching_seeds_selective_candidates() {
        use crate::index::TreeIndex;
        let t = works();
        let idx = TreeIndex::build(&t);
        // only the Nympheas work has a cplace["Giverny"]
        let f = Pattern::sym(
            "works",
            vec![Edge::star(Pattern::sym(
                "work",
                vec![
                    Edge::one(Pattern::elem_var("title", "t")),
                    Edge::one(Pattern::elem_const("cplace", "Giverny")),
                ],
            ))],
        );
        let (rows, stats) = match_filter_indexed(&t, &f, MatchOptions::default(), &idx);
        assert_eq!(rows.len(), 1);
        assert!(stats.covered);
        assert_eq!(stats.candidates, 1, "value-level lookup seeds one child");
        assert_eq!(stats.collection, 2);
    }

    #[test]
    fn indexed_matching_falls_back_when_uncovered() {
        use crate::index::TreeIndex;
        let t = works();
        let idx = TreeIndex::build(&t);
        let f = fig4_filter();
        // closed matching: not covered
        let closed = MatchOptions {
            closed: true,
            ..Default::default()
        };
        let (rows, stats) = match_filter_indexed(&t, &f, closed, &idx);
        assert!(!stats.covered);
        assert_eq!(rows, match_filter(&t, &f, closed));
        // a forest in scope is fine for a ref-free tree…
        let forest = Forest::new();
        let with_forest = MatchOptions {
            forest: Some(&forest),
            ..Default::default()
        };
        let (rows, stats) = match_filter_indexed(&t, &f, with_forest, &idx);
        assert!(stats.covered);
        assert_eq!(rows, match_filter(&t, &f, with_forest));
        // …but reference leaves poison coverage: following them can
        // reach structure the index never saw
        let reffy = Node::sym(
            "works",
            vec![Node::sym(
                "work",
                vec![Node::reference(crate::oid::Oid::new("p1"))],
            )],
        );
        let ref_idx = TreeIndex::build(&reffy);
        let (rows, stats) = match_filter_indexed(&reffy, &f, with_forest, &ref_idx);
        assert!(!stats.covered);
        assert_eq!(rows, match_filter(&reffy, &f, with_forest));
    }

    #[test]
    fn atom_coercion_in_const_match() {
        let t = Node::elem("year", 1897.0);
        assert!(matches(
            &t,
            &Pattern::elem_const("year", 1897),
            MatchOptions::default()
        ));
        assert!(matches(
            &t,
            &Pattern::elem_typed("year", AtomType::Float),
            MatchOptions::default()
        ));
        assert_eq!(Atom::Int(1897), Atom::Float(1897.0));
    }
}
