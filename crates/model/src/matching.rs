//! Filter matching: the pattern-matching semantics behind YATL's `MATCH`
//! clause and the algebra's `Bind` operator.
//!
//! "YATL's filtering mechanism relies on instantiation: if a tree is
//! instance of a filter, then one can deduce a mapping between node values
//! and variables" (Section 2). A [`Binder`] implements that mapping:
//! given a tree and a filter it produces zero or more binding rows — zero
//! when the tree is not an instance, several when star edges iterate (one
//! row per matched element, Fig. 4).
//!
//! Rows are *slot rows*: one `Option<Binding>` per variable, in
//! the binder's slot order ([`Filter::variables`] first), stored flat in a
//! [`SlotRows`] buffer. Partial match states carry their claimed children
//! as bit words and their bindings as slots, in buffers the binder reuses
//! from call to call, so matching allocates only what it binds.
//! [`match_filter`] returns the same rows as name-keyed [`BindingRow`]
//! maps for callers outside the algebra.

use crate::forest::Forest;
use crate::hash::{Fnv64, Partition};
use crate::pattern::{Edge, Filter, Model, Occ, PLabel, Pattern, StarBind};
use crate::tree::{Label, Node, Tree};
use std::collections::BTreeMap;
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

/// One result row keyed by variable name — the adapter form of a slot
/// row, for callers outside the algebra.
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

/// Binding rows in slot form: `len` rows of `width` cells each, stored
/// row-major in one buffer. A `None` cell is a variable the row leaves
/// unbound (a union branch that did not bind it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotRows {
    width: usize,
    len: usize,
    cells: Vec<Option<Binding>>,
}

impl SlotRows {
    fn new(width: usize) -> Self {
        SlotRows {
            width,
            len: 0,
            cells: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per row: the binder's variable count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`, one cell per variable.
    fn row(&self, i: usize) -> &[Option<Binding>] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Moves every cell out, row after row, leaving the buffer empty
    /// (its capacity stays for the next match).
    pub fn drain(&mut self) -> std::vec::Drain<'_, Option<Binding>> {
        self.len = 0;
        self.cells.drain(..)
    }

    fn row_mut(&mut self, i: usize) -> &mut [Option<Binding>] {
        &mut self.cells[i * self.width..(i + 1) * self.width]
    }

    fn last_mut(&mut self) -> &mut [Option<Binding>] {
        self.row_mut(self.len - 1)
    }

    fn push_empty(&mut self) {
        self.cells.resize(self.cells.len() + self.width, None);
        self.len += 1;
    }

    fn push_row(&mut self, row: &[Option<Binding>]) {
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Pushes `base` with `sub`'s bindings merged in; refuses (pushing
    /// nothing) when a variable is bound to different values on the two
    /// sides — possible only for variables repeated across a filter.
    fn push_merged(&mut self, base: &[Option<Binding>], sub: &[Option<Binding>]) -> bool {
        let at = self.cells.len();
        self.cells.extend_from_slice(base);
        for (cell, b) in self.cells[at..].iter_mut().zip(sub) {
            let Some(b) = b else { continue };
            match cell {
                Some(existing) if existing != b => {
                    self.cells.truncate(at);
                    return false;
                }
                _ => *cell = Some(b.clone()),
            }
        }
        self.len += 1;
        true
    }

    /// Moves every row of `other` to the end of this buffer.
    fn append(&mut self, other: &mut SlotRows) {
        self.cells.append(&mut other.cells);
        self.len += std::mem::take(&mut other.len);
    }

    fn truncate(&mut self, len: usize) {
        self.cells.truncate(len * self.width);
        self.len = len;
    }

    fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drops rows from `start` on that repeat an earlier row of that
    /// range, keeping first occurrences in order: distinct embeddings may
    /// bind identical rows (e.g. wildcard edges). Rows are keyed by a
    /// 64-bit structural hash (cached per tree node); a hash hit is
    /// confirmed structurally before a row is dropped, so collisions
    /// cannot lose rows.
    fn dedup_from(&mut self, start: usize) {
        let n = self.len - start;
        if n < 2 {
            return;
        }
        let distinct = Partition::by_key(
            n,
            |k| row_hash(self.row(start + k)),
            |a, b| row_key_eq(self.row(start + a), self.row(start + b)),
        );
        // move each group's first row down to its place, in order
        let w = self.width;
        for (kept, group) in distinct.groups().enumerate() {
            let (from, to) = (start + group[0], start + kept);
            if from != to {
                for j in 0..w {
                    self.cells.swap(to * w + j, from * w + j);
                }
            }
        }
        self.truncate(start + distinct.len());
    }
}

/// A filter prepared for matching: its slot layout, and the buffers
/// matching reuses across calls (one binder serves every tree a `Bind`
/// evaluation visits).
pub struct Binder<'a> {
    filter: &'a Filter,
    m: Matcher<'a>,
    rows: SlotRows,
}

impl<'a> Binder<'a> {
    /// Prepares `filter`. The slot layout is [`Filter::variables`]
    /// followed by any further variables bound inside named patterns the
    /// filter references through `opts.model`.
    pub fn new(filter: &'a Filter, opts: MatchOptions<'a>) -> Self {
        let mut vars = filter.variables();
        if let Some(model) = opts.model {
            ref_vars(filter, model, &mut Vec::new(), &mut vars);
        }
        let width = vars.len();
        Binder {
            filter,
            m: Matcher {
                opts,
                fuel: FUEL_LIMIT,
                vars,
                spare: Vec::new(),
            },
            rows: SlotRows::new(width),
        }
    }

    /// Matches the filter against `tree`: one row per way its iterating
    /// star edges embed into the tree, none when `tree` is not an
    /// instance. The rows replace the previous call's.
    pub fn bind(&mut self, tree: &Tree) -> &mut SlotRows {
        self.rows.clear();
        self.m.fuel = FUEL_LIMIT;
        // a non-instance leaves the buffer empty
        let _ = self.m.node(tree, self.filter, &mut self.rows);
        &mut self.rows
    }

    /// The last call's rows as name-keyed maps (unbound slots omitted).
    fn binding_rows(&self) -> Vec<BindingRow> {
        (0..self.rows.len())
            .map(|i| {
                self.m
                    .vars
                    .iter()
                    .zip(self.rows.row(i))
                    .filter_map(|(v, b)| Some((v.clone(), b.clone()?)))
                    .collect()
            })
            .collect()
    }
}

/// Appends to `vars` the variables bound inside the named patterns
/// `pat` references (transitively; each name visited once).
fn ref_vars(pat: &Pattern, model: &Model, seen: &mut Vec<String>, vars: &mut Vec<String>) {
    match pat {
        Pattern::Ref(name) => {
            if seen.contains(name) {
                return;
            }
            seen.push(name.clone());
            if let Some(def) = model.get(name) {
                for v in def.variables() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                ref_vars(def, model, seen, vars);
            }
        }
        Pattern::Node { edges, .. } => {
            for e in edges {
                ref_vars(&e.pattern, model, seen, vars);
            }
        }
        Pattern::Union(branches) => {
            for b in branches {
                ref_vars(b, model, seen, vars);
            }
        }
        Pattern::TreeVar(_) | Pattern::Wildcard => {}
    }
}

/// Matches `filter` against `tree`, returning one row per way the filter's
/// iterating star edges embed into the tree; empty when `tree` is not an
/// instance of the filter. The adapter over [`Binder::bind`].
pub fn match_filter(tree: &Tree, filter: &Filter, opts: MatchOptions<'_>) -> Vec<BindingRow> {
    let mut binder = Binder::new(filter, opts);
    binder.bind(tree);
    binder.binding_rows()
}

/// Convenience: does `filter` match at all?
pub fn matches(tree: &Tree, filter: &Filter, opts: MatchOptions<'_>) -> bool {
    !Binder::new(filter, opts).bind(tree).is_empty()
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

/// The partial states of one edge list: each state's claimed children
/// (`words` bit words per state) and bindings (one slot row per state).
struct States {
    claims: Vec<u64>,
    rows: SlotRows,
}

/// The buffers one walk over a node's children needs; pooled in the
/// matcher.
struct Scratch {
    states: States,
    next: States,
    /// A child's own rows, before they merge into the states.
    sub: SlotRows,
}

fn claimed(claims: &[u64], words: usize, state: usize, child: usize) -> bool {
    claims[state * words + child / 64] & (1 << (child % 64)) != 0
}

struct Matcher<'a> {
    opts: MatchOptions<'a>,
    fuel: u64,
    /// The variable of each slot.
    vars: Vec<String>,
    /// Spare scratch, reused by later walks.
    spare: Vec<Scratch>,
}

impl<'a> Matcher<'a> {
    fn spend(&mut self, amount: u64) -> Option<()> {
        self.fuel = self.fuel.checked_sub(amount)?;
        Some(())
    }

    fn slot(&self, var: &str) -> usize {
        self.vars
            .iter()
            .position(|v| v == var)
            .expect("the slot layout holds every variable the filter binds")
    }

    fn scratch(&mut self) -> Scratch {
        self.spare.pop().unwrap_or_else(|| {
            let rows = || SlotRows::new(self.vars.len());
            Scratch {
                states: States {
                    claims: Vec::new(),
                    rows: rows(),
                },
                next: States {
                    claims: Vec::new(),
                    rows: rows(),
                },
                sub: rows(),
            }
        })
    }

    fn keep(&mut self, mut s: Scratch) {
        for st in [&mut s.states, &mut s.next] {
            st.claims.clear();
            st.rows.clear();
        }
        s.sub.clear();
        self.spare.push(s);
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

    /// Appends the rows of matching `pat` against `tree` to `out` and
    /// returns `Some`; returns `None` and leaves `out` as it was when
    /// `tree` is not an instance. An instance always adds a row.
    fn node(&mut self, tree: &Tree, pat: &Pattern, out: &mut SlotRows) -> Option<()> {
        self.spend(1)?;
        // Follow references transparently.
        let tree = self.resolve(tree);
        match pat {
            Pattern::Wildcard => {
                out.push_empty();
                Some(())
            }
            Pattern::TreeVar(v) => {
                let slot = self.slot(v);
                out.push_empty();
                out.last_mut()[slot] = Some(Binding::Tree(tree.clone()));
                Some(())
            }
            Pattern::Ref(name) => {
                let resolved = self.opts.model.and_then(|m| m.get(name))?;
                self.node(tree, resolved, out)
            }
            Pattern::Union(branches) => {
                // First matching branch wins: deterministic semantics for
                // the unambiguous unions the paper allows.
                branches.iter().find_map(|b| self.node(tree, b, out))
            }
            Pattern::Node { label, edges } => {
                // Identified nodes are transparent: `a1[class[...]]`
                // matches the filter `class[...]`, so object identity
                // never blocks structural filters.
                // (pattern labels never denote concrete identifiers, so a
                // non-Any label can only match after descending)
                if !matches!(label, PLabel::Any) {
                    if let (Label::Oid(_), [only]) = (&tree.label, &*tree.children) {
                        return self.node(only, pat, out);
                    }
                }
                let label_binding = self.match_label(&tree.label, label)?;
                let start = out.len();
                self.edges(tree, edges, out)?;
                if let Some((slot, sym)) = label_binding {
                    for r in start..out.len() {
                        out.row_mut(r)[slot] = Some(Binding::Label(sym.to_string()));
                    }
                }
                Some(())
            }
        }
    }

    /// Matches a node label against a label pattern. On success returns an
    /// optional `(slot, symbol)` binding for label variables.
    fn match_label<'l>(&self, label: &'l Label, pat: &PLabel) -> Option<Option<(usize, &'l str)>> {
        match (pat, label) {
            (PLabel::Any, _) => Some(None),
            (PLabel::Sym(p), Label::Sym(s)) if p == s => Some(None),
            (PLabel::AnySym, Label::Sym(_)) => Some(None),
            (PLabel::Var(v), Label::Sym(s)) => Some(Some((self.slot(v), s.as_str()))),
            (PLabel::Const(c), Label::Atom(a)) if c.value_eq(a) => Some(None),
            (PLabel::Atom(t), Label::Atom(a)) if *t == a.atom_type() => Some(None),
            _ => None,
        }
    }

    /// Matches the edge list against the node's children.
    ///
    /// Edges are processed left to right over a set of partial states
    /// (claimed-children bits + binding slots). Single-occurrence edges
    /// have existential semantics and iterate over every matching child;
    /// star edges either iterate (inner variables / `*$v:`), collect
    /// (`*($v)`), or structurally claim matches.
    fn edges(&mut self, tree: &Tree, edges: &[Edge], out: &mut SlotRows) -> Option<()> {
        let kids = &tree.children;
        // Fast path: a single star edge over many children — the common
        // document-collection shape (`works[*work[...]]`). The general
        // walk keeps claimed-children bits per partial state, which is
        // quadratic in the collection size; here a single linear scan
        // suffices and the semantics below are reproduced exactly.
        if let [edge] = edges {
            if edge.occ == Occ::Star {
                return self.single_star(kids, edge, out);
            }
        }
        let mut s = self.scratch();
        let found = self.walk(kids, edges, &mut s);
        if found.is_some() {
            let start = out.len();
            out.append(&mut s.states.rows);
            out.dedup_from(start);
        }
        self.keep(s);
        found
    }

    /// The general edge-list walk of [`Matcher::edges`]; leaves the
    /// surviving states in `s.states` (`None`: no state survived).
    fn walk(&mut self, kids: &[Tree], edges: &[Edge], s: &mut Scratch) -> Option<()> {
        let words = kids.len().div_ceil(64).max(1);
        s.states.claims.resize(words, 0);
        s.states.rows.push_empty();
        for edge in edges {
            self.spend(s.states.rows.len() as u64)?;
            let (states, next, sub) = (&s.states, &mut s.next, &mut s.sub);
            let claims = |st: usize| &states.claims[st * words..(st + 1) * words];
            match edge.occ {
                Occ::One | Occ::Opt => {
                    for st in 0..states.rows.len() {
                        let mut found = false;
                        for (i, kid) in kids.iter().enumerate() {
                            if claimed(&states.claims, words, st, i) {
                                continue;
                            }
                            sub.clear();
                            if self.node(kid, &edge.pattern, sub).is_some() {
                                found = true;
                                for r in 0..sub.len() {
                                    if next.rows.push_merged(states.rows.row(st), sub.row(r)) {
                                        next.claims.extend_from_slice(claims(st));
                                        let at = next.claims.len() - words + i / 64;
                                        next.claims[at] |= 1 << (i % 64);
                                    }
                                }
                            }
                        }
                        if !found && edge.occ == Occ::Opt {
                            next.rows.push_row(states.rows.row(st));
                            next.claims.extend_from_slice(claims(st));
                        }
                    }
                }
                Occ::Star => match &edge.star_var {
                    Some((v, StarBind::Collect)) => {
                        // Collect: claim every matching unclaimed child,
                        // bind the collection. Inner bindings are not
                        // exported (the variable denotes the collection).
                        let slot = self.slot(v);
                        for st in 0..states.rows.len() {
                            next.claims.extend_from_slice(claims(st));
                            let base = next.claims.len() - words;
                            let mut coll = Vec::new();
                            for (i, kid) in kids.iter().enumerate() {
                                if claimed(&next.claims[base..], words, 0, i) {
                                    continue;
                                }
                                sub.clear();
                                if self.node(kid, &edge.pattern, sub).is_some() {
                                    next.claims[base + i / 64] |= 1 << (i % 64);
                                    coll.push(self.resolve(kid).clone());
                                }
                            }
                            next.rows.push_row(states.rows.row(st));
                            next.rows.last_mut()[slot] = Some(Binding::Coll(coll));
                        }
                    }
                    star_var if star_var.is_some() || !edge.pattern.is_ground() => {
                        // Iterate: one successor state per matching child.
                        let slot = star_var.as_ref().map(|(v, _)| self.slot(v));
                        for st in 0..states.rows.len() {
                            for (i, kid) in kids.iter().enumerate() {
                                if claimed(&states.claims, words, st, i) {
                                    continue;
                                }
                                sub.clear();
                                if self.node(kid, &edge.pattern, sub).is_none() {
                                    continue;
                                }
                                for r in 0..sub.len() {
                                    if !next.rows.push_merged(states.rows.row(st), sub.row(r)) {
                                        continue;
                                    }
                                    if let Some(slot) = slot {
                                        // the variable sees through
                                        // references, like the match
                                        next.rows.last_mut()[slot] =
                                            Some(Binding::Tree(self.resolve(kid).clone()));
                                    }
                                    next.claims.extend_from_slice(claims(st));
                                    let at = next.claims.len() - words + i / 64;
                                    next.claims[at] |= 1 << (i % 64);
                                }
                            }
                        }
                    }
                    _ => {
                        // Structural star: claim all matching children;
                        // always succeeds (zero matches allowed).
                        for st in 0..states.rows.len() {
                            next.claims.extend_from_slice(claims(st));
                            let base = next.claims.len() - words;
                            for (i, kid) in kids.iter().enumerate() {
                                if claimed(&next.claims[base..], words, 0, i) {
                                    continue;
                                }
                                sub.clear();
                                if self.node(kid, &edge.pattern, sub).is_some() {
                                    next.claims[base + i / 64] |= 1 << (i % 64);
                                }
                            }
                            next.rows.push_row(states.rows.row(st));
                        }
                    }
                },
            }
            std::mem::swap(&mut s.states, &mut s.next);
            s.next.claims.clear();
            s.next.rows.clear();
            let n = s.states.rows.len();
            if n == 0 {
                return None;
            }
            // Reject over-ambiguous filters before they exhaust memory:
            // each subsequent edge can multiply the state count, so the cap
            // bounds peak allocation to MAX_STATES × max fan-out.
            if n > MAX_STATES {
                return None;
            }
            self.spend(n as u64)?;
        }
        if self.opts.closed {
            // keep the states that claimed every child
            let mut kept = 0;
            for st in 0..s.states.rows.len() {
                if (0..kids.len()).all(|i| claimed(&s.states.claims, words, st, i)) {
                    let (w, rows) = (s.states.rows.width, &mut s.states.rows);
                    for j in 0..w {
                        rows.cells.swap(kept * w + j, st * w + j);
                    }
                    kept += 1;
                }
            }
            s.states.rows.truncate(kept);
            if kept == 0 {
                return None;
            }
        }
        Some(())
    }

    /// Linear-time handling of a node whose filter is exactly one star
    /// edge over the node's children `kids`. Mirrors the general walk's semantics,
    /// including closed matching (every child must be claimed).
    fn single_star(&mut self, kids: &[Tree], edge: &Edge, out: &mut SlotRows) -> Option<()> {
        let total = kids.len();
        self.spend(total as u64)?;
        match &edge.star_var {
            Some((v, StarBind::Collect)) => {
                let slot = self.slot(v);
                let mut s = self.scratch();
                let mut coll = Vec::new();
                for kid in kids {
                    if self.node(kid, &edge.pattern, &mut s.sub).is_some() {
                        coll.push(self.resolve(kid).clone());
                    }
                    s.sub.clear();
                }
                self.keep(s);
                if self.opts.closed && coll.len() != total {
                    return None;
                }
                out.push_empty();
                out.last_mut()[slot] = Some(Binding::Coll(coll));
                Some(())
            }
            star_var if star_var.is_some() || !edge.pattern.is_ground() => {
                // iterate: one row per matching child; under closed
                // matching a state claims only its own child, so rows
                // survive only when there is nothing else to claim
                if self.opts.closed && total > 1 {
                    return None;
                }
                let slot = star_var.as_ref().map(|(v, _)| self.slot(v));
                let start = out.len();
                for kid in kids {
                    let before = out.len();
                    if self.node(kid, &edge.pattern, out).is_none() {
                        continue;
                    }
                    if let Some(slot) = slot {
                        for r in before..out.len() {
                            out.row_mut(r)[slot] = Some(Binding::Tree(self.resolve(kid).clone()));
                        }
                    }
                }
                if out.len() == start {
                    return None;
                }
                out.dedup_from(start);
                Some(())
            }
            _ => {
                // structural: always succeeds open; closed requires all
                // children to match
                if self.opts.closed {
                    let mut s = self.scratch();
                    let mut all = true;
                    for kid in kids {
                        all = self.node(kid, &edge.pattern, &mut s.sub).is_some();
                        s.sub.clear();
                        if !all {
                            break;
                        }
                    }
                    self.keep(s);
                    if !all {
                        return None;
                    }
                }
                out.push_empty();
                Some(())
            }
        }
    }
}

/// Structural hash of a slot row under grouping-key semantics.
fn row_hash(row: &[Option<Binding>]) -> u64 {
    let mut h = Fnv64::new();
    for cell in row {
        match cell {
            None => h.write_u8(0),
            Some(b) => {
                h.write_u8(1);
                binding_hash(b, &mut h);
            }
        }
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

fn row_key_eq(a: &[Option<Binding>], b: &[Option<Binding>]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => binding_key_eq(x, y),
        _ => false,
    })
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
