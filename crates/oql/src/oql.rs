//! A `select`–`from`–`where` OQL subset: parser and evaluator.
//!
//! Covers what the paper's wrapper emits (Section 4.1):
//!
//! ```text
//! select t: A.title, y: A.year, c: A.creator, p: A.price,
//!        o: O.name, au: O.auction
//! from A in artifacts, O in A.owners
//! where A.year > 1800
//! ```
//!
//! Dependent ranges (`O in A.owners`), path navigation through references
//! and method calls (`A.current_price`) are supported, and so are ODMG
//! query parameters (`$1`, `$2`, …): a query is parsed once and evaluated
//! under many parameter rows. Keywords are case-insensitive, as in OQL.

use crate::findex::FieldIndex;
use crate::store::{Object, OqlError, Store};
use crate::value::OVal;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use yat_model::postings::{conjoin, intersect};
use yat_model::{Atom, Oid};

/// A path expression: `A.owners.name`.
#[derive(Debug, Clone, PartialEq)]
pub struct Path(pub Vec<String>);

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join("."))
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A path from a range variable or extent.
    Path(Path),
    /// A literal.
    Const(Atom),
    /// A query parameter (`$1` is `Param(0)`), bound at evaluation time.
    Param(usize),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Const(a) => f.write_str(&literal(a)),
            Expr::Param(i) => write!(f, "${}", i + 1),
        }
    }
}

/// The OQL text of a literal — the one escape writer and lexer agree on:
/// strings are double-quoted with `\"` and `\\` backslash-escaped and
/// every other character (non-ASCII and control characters included)
/// verbatim.
pub(crate) fn literal(a: &Atom) -> String {
    match a {
        Atom::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                if c == '"' || c == '\\' {
                    out.push('\\');
                }
                out.push(c);
            }
            out.push('"');
            out
        }
        other => other.to_string(),
    }
}

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=` / `<>`
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

impl Op {
    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
}

/// A predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Comparison.
    Cmp(Op, Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
            Cond::And(a, b) => write!(f, "{a} and {b}"),
            Cond::Or(a, b) => write!(f, "({a} or {b})"),
            Cond::Not(c) => write!(f, "not ({c})"),
        }
    }
}

/// A parsed OQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `(output name, expression)` pairs of the select clause.
    pub projections: Vec<(String, Expr)>,
    /// `(variable, source path)` pairs of the from clause, in order;
    /// later ranges may depend on earlier variables.
    pub ranges: Vec<(String, Path)>,
    /// The where clause.
    pub cond: Option<Cond>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, (n, e)) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {e}")?;
        }
        write!(f, " from ")?;
        for (i, (v, p)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} in {p}")?;
        }
        if let Some(c) = &self.cond {
            write!(f, " where {c}")?;
        }
        Ok(())
    }
}

// --------------------------------------------------------------- parsing

/// Parses an OQL query.
pub fn parse(src: &str) -> Result<Query, OqlError> {
    let toks = lex(src)?;
    let mut p = P { toks, pos: 0 };
    let q = p.query()?;
    if p.pos < p.toks.len() {
        return Err(OqlError(format!("trailing input near `{}`", p.toks[p.pos])));
    }
    Ok(q)
}

fn lex(src: &str) -> Result<Vec<String>, OqlError> {
    let mut out = Vec::new();
    let mut cs = src.chars().peekable();
    while let Some(&c) = cs.peek() {
        if c.is_whitespace() {
            cs.next();
        } else if c.is_alphabetic() || c == '_' {
            let mut s = String::new();
            while matches!(cs.peek(), Some(c) if c.is_alphanumeric() || *c == '_') {
                s.push(cs.next().expect("peeked"));
            }
            out.push(s);
        } else if c.is_ascii_digit() {
            let mut s = String::new();
            while matches!(cs.peek(), Some(c) if c.is_ascii_digit() || *c == '.') {
                s.push(cs.next().expect("peeked"));
            }
            out.push(s);
        } else if c == '$' {
            let mut s = String::from(cs.next().expect("peeked"));
            while matches!(cs.peek(), Some(c) if c.is_ascii_digit()) {
                s.push(cs.next().expect("peeked"));
            }
            out.push(s);
        } else if c == '"' || c == '\'' {
            cs.next();
            let mut s = String::from("\u{2}"); // string marker
            let unterminated = || OqlError("unterminated string".into());
            loop {
                match cs.next() {
                    Some(q) if q == c => break,
                    // a backslash takes the next character literally
                    Some('\\') => s.push(cs.next().ok_or_else(unterminated)?),
                    Some(x) => s.push(x),
                    None => return Err(unterminated()),
                }
            }
            out.push(s);
        } else {
            cs.next();
            match c {
                ',' | '.' | ':' | '(' | ')' | '=' => out.push(c.to_string()),
                '<' | '>' | '!' => {
                    if cs.peek() == Some(&'=') {
                        cs.next();
                        out.push(format!("{c}="));
                    } else if c == '<' && cs.peek() == Some(&'>') {
                        cs.next();
                        out.push("!=".into());
                    } else if c == '!' {
                        return Err(OqlError("`!` must be followed by `=`".into()));
                    } else {
                        out.push(c.to_string());
                    }
                }
                other => return Err(OqlError(format!("unexpected character `{other}`"))),
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<String>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn kw(&mut self, k: &str) -> bool {
        if self.peek().map(|t| t.eq_ignore_ascii_case(k)) == Some(true) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, k: &str) -> Result<(), OqlError> {
        if self.kw(k) {
            Ok(())
        } else {
            Err(OqlError(format!(
                "expected `{k}`, found `{}`",
                self.peek().unwrap_or("end of input")
            )))
        }
    }

    fn tok(&mut self, t: &str) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, OqlError> {
        match self.peek() {
            Some(t)
                if t.chars().next().map(|c| c.is_alphabetic() || c == '_') == Some(true)
                    && !is_kw(t) =>
            {
                let s = t.to_string();
                self.pos += 1;
                Ok(s)
            }
            other => Err(OqlError(format!(
                "expected identifier, found `{}`",
                other.unwrap_or("end of input")
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, OqlError> {
        self.expect_kw("select")?;
        let mut projections = vec![self.projection(0)?];
        while self.tok(",") {
            // ranges start after `from`; commas here are projections
            projections.push(self.projection(projections.len())?);
        }
        self.expect_kw("from")?;
        let mut ranges = vec![self.range()?];
        while self.tok(",") {
            ranges.push(self.range()?);
        }
        let cond = if self.kw("where") {
            Some(self.cond()?)
        } else {
            None
        };
        Ok(Query {
            projections,
            ranges,
            cond,
        })
    }

    fn projection(&mut self, idx: usize) -> Result<(String, Expr), OqlError> {
        // `name: expr` or bare expr
        if let Some(t) = self.peek() {
            if !is_kw(t)
                && t.chars().next().map(|c| c.is_alphabetic()) == Some(true)
                && self.toks.get(self.pos + 1).map(String::as_str) == Some(":")
            {
                let name = self.ident()?;
                self.pos += 1; // ':'
                let e = self.expr()?;
                return Ok((name, e));
            }
        }
        Ok((format!("c{idx}"), self.expr()?))
    }

    fn range(&mut self) -> Result<(String, Path), OqlError> {
        let var = self.ident()?;
        self.expect_kw("in")?;
        let p = self.path()?;
        Ok((var, p))
    }

    fn path(&mut self) -> Result<Path, OqlError> {
        let mut parts = vec![self.ident()?];
        while self.tok(".") {
            parts.push(self.ident()?);
        }
        Ok(Path(parts))
    }

    fn expr(&mut self) -> Result<Expr, OqlError> {
        match self.peek() {
            Some(t) if t.starts_with('\u{2}') => {
                let s = t[1..].to_string();
                self.pos += 1;
                Ok(Expr::Const(Atom::Str(s)))
            }
            Some(t) if t.chars().next().map(|c| c.is_ascii_digit()) == Some(true) => {
                let a = if t.contains('.') {
                    Atom::Float(
                        t.parse()
                            .map_err(|_| OqlError(format!("bad number `{t}`")))?,
                    )
                } else {
                    Atom::Int(
                        t.parse()
                            .map_err(|_| OqlError(format!("bad number `{t}`")))?,
                    )
                };
                self.pos += 1;
                Ok(Expr::Const(a))
            }
            Some(t) if t.starts_with('$') => {
                let n: usize = t[1..]
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| OqlError(format!("bad parameter `{t}`")))?;
                self.pos += 1;
                Ok(Expr::Param(n - 1))
            }
            Some("true") => {
                self.pos += 1;
                Ok(Expr::Const(Atom::Bool(true)))
            }
            Some("false") => {
                self.pos += 1;
                Ok(Expr::Const(Atom::Bool(false)))
            }
            _ => Ok(Expr::Path(self.path()?)),
        }
    }

    fn cond(&mut self) -> Result<Cond, OqlError> {
        let mut left = self.cond_and()?;
        while self.kw("or") {
            let right = self.cond_and()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_and(&mut self) -> Result<Cond, OqlError> {
        let mut left = self.cond_atom()?;
        while self.kw("and") {
            let right = self.cond_atom()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_atom(&mut self) -> Result<Cond, OqlError> {
        if self.kw("not") {
            return Ok(Cond::Not(Box::new(self.cond_atom()?)));
        }
        if self.tok("(") {
            let c = self.cond()?;
            if !self.tok(")") {
                return Err(OqlError("expected `)`".into()));
            }
            return Ok(c);
        }
        let l = self.expr()?;
        let op = match self.peek() {
            Some("=") => Op::Eq,
            Some("!=") => Op::Ne,
            Some("<") => Op::Lt,
            Some("<=") => Op::Le,
            Some(">") => Op::Gt,
            Some(">=") => Op::Ge,
            other => {
                return Err(OqlError(format!(
                    "expected comparison, found `{}`",
                    other.unwrap_or("end of input")
                )))
            }
        };
        self.pos += 1;
        let r = self.expr()?;
        Ok(Cond::Cmp(op, l, r))
    }
}

fn is_kw(t: &str) -> bool {
    ["select", "from", "where", "in", "and", "or", "not"]
        .iter()
        .any(|k| t.eq_ignore_ascii_case(k))
}

// ------------------------------------------------------------- evaluation

/// A result row: projection name → value.
pub type Row = BTreeMap<String, OVal>;

/// Index accounting for one query evaluation — observational only,
/// never part of the answer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Whether any extent range was pruned through a field index.
    pub indexed: bool,
    /// Field-index probes issued.
    pub probes: u64,
    /// Candidates the probes returned (before the full condition is
    /// re-checked on each).
    pub candidates: u64,
    /// Objects iterated over extent ranges: candidates when pruned,
    /// the whole extent when scanned.
    pub scanned: u64,
}

/// Evaluates a parameterless query against a store, returning a bag of
/// rows.
pub fn eval(q: &Query, store: &Store) -> Result<Vec<Row>, OqlError> {
    Ok(eval_stats(q, store)?.0)
}

/// Like [`eval`], also returning the index accounting.
pub fn eval_stats(q: &Query, store: &Store) -> Result<(Vec<Row>, QueryStats), OqlError> {
    Prepared::new(q, store).eval(&[])
}

/// A parsed query readied for evaluation under many parameter rows
/// against one store. What does not depend on the parameters is worked
/// out once and shared by every [`Prepared::eval`]: the candidates the
/// *literal* conjuncts of the condition probe out of each extent.
pub struct Prepared<'a> {
    q: &'a Query,
    store: &'a Store,
    /// Per extent range variable: the intersection of its
    /// parameter-free probes (`None` when no such conjunct is
    /// probeable), filled on first use.
    fixed: RefCell<BTreeMap<String, Option<Vec<u32>>>>,
}

impl<'a> Prepared<'a> {
    /// Readies `q` for evaluation against `store`.
    pub fn new(q: &'a Query, store: &'a Store) -> Self {
        Prepared {
            q,
            store,
            fixed: RefCell::new(BTreeMap::new()),
        }
    }

    /// Evaluates the query under the parameter row `params` (`$1` is
    /// `params[0]`), returning a bag of rows and the index accounting of
    /// this evaluation. Probes shared across evaluations are accounted
    /// to the one that issued them.
    pub fn eval(&self, params: &[Atom]) -> Result<(Vec<Row>, QueryStats), OqlError> {
        let mut rows = Vec::new();
        let mut env: BTreeMap<String, OVal> = BTreeMap::new();
        let mut stats = QueryStats::default();
        let run = Run {
            prepared: self,
            params,
        };
        eval_ranges(&run, 0, &mut env, &mut rows, &mut stats)?;
        Ok((rows, stats))
    }
}

/// One evaluation: a prepared query and the parameter row it runs under.
struct Run<'a> {
    prepared: &'a Prepared<'a>,
    params: &'a [Atom],
}

fn eval_ranges(
    b: &Run<'_>,
    depth: usize,
    env: &mut BTreeMap<String, OVal>,
    rows: &mut Vec<Row>,
    stats: &mut QueryStats,
) -> Result<(), OqlError> {
    let (q, store) = (b.prepared.q, b.prepared.store);
    if depth == q.ranges.len() {
        if let Some(c) = &q.cond {
            if !eval_cond(c, b, env)? {
                return Ok(());
            }
        }
        let mut row = Row::new();
        for (name, e) in &q.projections {
            row.insert(name.clone(), eval_expr(e, b, env)?);
        }
        rows.push(row);
        return Ok(());
    }
    let (var, path) = &q.ranges[depth];
    // An extent range may be pruned through the store's field indexes:
    // probe the conjuncts on `var`, then iterate only the candidates
    // (already in extent order, so rows come out exactly as a scan
    // produces them). The full condition is still checked on every
    // combination, so a candidate superset never widens the answer.
    if path.0.len() == 1 && !env.contains_key(&path.0[0]) {
        if let Some(members) = store.extent(&path.0[0]) {
            let elements: Vec<OVal> = match extent_candidates(b, var, &path.0[0], stats) {
                Some(cands) => cands.into_iter().map(OVal::Ref).collect(),
                None => members.iter().map(|o| OVal::Ref(o.clone())).collect(),
            };
            stats.scanned += elements.len() as u64;
            for e in elements {
                env.insert(var.clone(), e);
                eval_ranges(b, depth + 1, env, rows, stats)?;
            }
            env.remove(var);
            return Ok(());
        }
    }
    let source = eval_range_source(path, store, env)?;
    let elements = match &source {
        OVal::Coll(_, es) => es.clone(),
        other => {
            return Err(OqlError(format!(
                "range `{var} in {path}` is not a collection (got {other})"
            )))
        }
    };
    for e in elements {
        env.insert(var.clone(), e);
        eval_ranges(b, depth + 1, env, rows, stats)?;
    }
    env.remove(var);
    Ok(())
}

/// Candidates for `var in extent` under the pushed condition, or `None`
/// when no conjunct can be probed (policy off, no usable `var.field op
/// value` conjunct, or an index that cannot prove it saw every member).
///
/// A probe is sound only when (a) the `(extent, field)` index holds one
/// posting per extent member — so no member hides the field, stores a
/// non-atomic value there, or would make the scan error out — and (b)
/// the field name cannot resolve to a method, which navigation prefers
/// over stored state.
///
/// Conjuncts comparing against a literal probe once per [`Prepared`]
/// query; only those comparing against a parameter probe per evaluation,
/// and their (typically short) postings are then cut by the shared set.
fn extent_candidates(
    b: &Run<'_>,
    var: &str,
    extent: &str,
    stats: &mut QueryStats,
) -> Option<Vec<Oid>> {
    let store = b.prepared.store;
    if !store.index_policy().is_on() {
        return None;
    }
    let members = store.extent(extent)?;
    let mut conjuncts = Vec::new();
    collect_conjuncts(b.prepared.q.cond.as_ref()?, &mut conjuncts);
    // the probeable conjuncts, as `(op, index, value expression)`
    let probes: Vec<(Op, &FieldIndex, &Expr)> = conjuncts
        .into_iter()
        .filter_map(|c| {
            let Cond::Cmp(op, l, r) = c else { return None };
            let (op, path, value) = match (l, r) {
                (Expr::Path(p), value @ (Expr::Const(_) | Expr::Param(_))) => (*op, p, value),
                (value @ (Expr::Const(_) | Expr::Param(_)), Expr::Path(p)) => (flip(*op), p, value),
                _ => return None,
            };
            let field = match path.0.as_slice() {
                [v, f] if v == var => f,
                _ => return None,
            };
            if op == Op::Ne || store.has_method(field) {
                return None;
            }
            let ix = store.field_index(extent, field)?;
            (ix.entries() == members.len()).then_some((op, ix, value))
        })
        .collect();
    let mut probe = |op: Op, ix: &FieldIndex, value: &Atom| {
        stats.probes += 1;
        match op {
            Op::Eq => ix.eq_candidates(value),
            Op::Lt => ix.range_candidates(Bound::Unbounded, Bound::Excluded(value)),
            Op::Le => ix.range_candidates(Bound::Unbounded, Bound::Included(value)),
            Op::Gt => ix.range_candidates(Bound::Excluded(value), Bound::Unbounded),
            Op::Ge => ix.range_candidates(Bound::Included(value), Bound::Unbounded),
            Op::Ne => unreachable!("filtered above"),
        }
    };
    // probes run in order, and none after the intersection is empty
    let passed = conjoin(probes.iter().filter_map(|(op, ix, value)| match value {
        Expr::Param(i) => Some(probe(*op, ix, b.params.get(*i)?)),
        _ => None,
    }));
    let mut fixed = b.prepared.fixed.borrow_mut();
    let fixed = fixed.entry(var.to_string()).or_insert_with(|| {
        conjoin(probes.iter().filter_map(|(op, ix, value)| match value {
            Expr::Const(a) => Some(probe(*op, ix, a)),
            _ => None,
        }))
    });
    let result = match (passed, fixed.as_ref()) {
        (Some(passed), Some(fixed)) => intersect(&passed, fixed),
        (Some(only), None) => only,
        (None, Some(only)) => only.clone(),
        (None, None) => return None,
    };
    stats.indexed = true;
    stats.candidates += result.len() as u64;
    Some(store.extent_members(extent, &result))
}

/// Flattens nested `and`s; `or`/`not` subtrees stay opaque (only
/// top-level conjuncts may prune).
fn collect_conjuncts<'a>(c: &'a Cond, out: &mut Vec<&'a Cond>) {
    match c {
        Cond::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// Mirrors a comparison around `=`: `c op x` becomes `x (flip op) c`.
fn flip(op: Op) -> Op {
    match op {
        Op::Lt => Op::Gt,
        Op::Le => Op::Ge,
        Op::Gt => Op::Lt,
        Op::Ge => Op::Le,
        other => other,
    }
}

/// The head of a range path is an extent name or a bound variable.
fn eval_range_source(
    path: &Path,
    store: &Store,
    env: &BTreeMap<String, OVal>,
) -> Result<OVal, OqlError> {
    let head = &path.0[0];
    let start = if let Some(v) = env.get(head) {
        v.clone()
    } else if let Some(oids) = store.extent(head) {
        OVal::Coll(
            crate::types::CollKind::Set,
            oids.iter().map(|o| OVal::Ref(o.clone())).collect(),
        )
    } else {
        return Err(OqlError(format!("unknown extent or variable `{head}`")));
    };
    navigate(start, &path.0[1..], store)
}

fn eval_expr(e: &Expr, b: &Run<'_>, env: &BTreeMap<String, OVal>) -> Result<OVal, OqlError> {
    match e {
        Expr::Const(a) => Ok(OVal::Atom(a.clone())),
        Expr::Param(i) => b
            .params
            .get(*i)
            .map(|a| OVal::Atom(a.clone()))
            .ok_or_else(|| OqlError(format!("parameter ${} is not bound", i + 1))),
        Expr::Path(p) => {
            let head = &p.0[0];
            let start = env
                .get(head)
                .cloned()
                .ok_or_else(|| OqlError(format!("unknown variable `{head}`")))?;
            navigate(start, &p.0[1..], b.prepared.store)
        }
    }
}

/// Follows a field/method path through tuples and references.
fn navigate(mut v: OVal, steps: &[String], store: &Store) -> Result<OVal, OqlError> {
    for step in steps {
        // dereference before field access
        if let OVal::Ref(oid) = &v {
            let obj = store
                .object(oid)
                .ok_or_else(|| OqlError(format!("dangling reference {oid}")))?;
            // method call?
            if obj_has_method(store, &obj, step) {
                v = store.call_method(step, &obj)?;
                continue;
            }
            v = obj.value;
        }
        v = match v.field(step) {
            Some(x) => x.clone(),
            None => {
                return Err(OqlError(format!("no attribute `{step}` on {v}")));
            }
        };
    }
    // final deref is NOT performed: a path may denote an object
    Ok(v)
}

fn obj_has_method(store: &Store, obj: &Object, name: &str) -> bool {
    store
        .schema
        .class(&obj.class)
        .map(|c| c.methods.iter().any(|m| m.name == name))
        .unwrap_or(false)
        && store.has_method(name)
}

fn eval_cond(c: &Cond, b: &Run<'_>, env: &BTreeMap<String, OVal>) -> Result<bool, OqlError> {
    match c {
        Cond::And(l, r) => Ok(eval_cond(l, b, env)? && eval_cond(r, b, env)?),
        Cond::Or(l, r) => Ok(eval_cond(l, b, env)? || eval_cond(r, b, env)?),
        Cond::Not(x) => Ok(!eval_cond(x, b, env)?),
        Cond::Cmp(op, l, r) => {
            let lv = eval_expr(l, b, env)?;
            let rv = eval_expr(r, b, env)?;
            let (Some(la), Some(ra)) = (lv.atom(), rv.atom()) else {
                // object equality by identity
                return match op {
                    Op::Eq => Ok(lv == rv),
                    Op::Ne => Ok(lv != rv),
                    _ => Err(OqlError(format!("cannot order {lv} and {rv}"))),
                };
            };
            let ord = la.total_cmp(ra);
            Ok(match op {
                Op::Eq => la.value_eq(ra),
                Op::Ne => !la.value_eq(ra),
                Op::Lt => ord.is_lt(),
                Op::Le => ord.is_le(),
                Op::Gt => ord.is_gt(),
                Op::Ge => ord.is_ge(),
            })
        }
    }
}

/// Convenience: parse then evaluate.
pub fn run(src: &str, store: &Store) -> Result<Vec<Row>, OqlError> {
    eval(&parse(src)?, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::{art_store, ArtSpec};
    use yat_capability::IndexPolicy;

    #[test]
    fn string_literals_round_trip_through_writer_and_lexer() {
        for text in [
            "plain",
            "say \"cheese\"",
            "it's",
            "back\\slash",
            "trailing\\",
            "\\\"",
            "Nymphéas — 睡蓮",
            "tab\tnewline\nbell\u{7}",
            "",
        ] {
            let atom = Atom::Str(text.to_string());
            let src = format!(
                "select t: A.title from A in artifacts where A.title = {}",
                literal(&atom)
            );
            let query = parse(&src).unwrap_or_else(|e| panic!("{src:?}: {e:?}"));
            let Some(Cond::Cmp(Op::Eq, _, Expr::Const(got))) = &query.cond else {
                panic!("{src:?} parsed to {query:?}");
            };
            assert_eq!(got, &atom, "{src:?}");
            // the AST prints with the same writer, so it re-parses to itself
            assert_eq!(parse(&query.to_string()).unwrap(), query, "{src:?}");
        }
        assert!(parse("select t: A.title from A in artifacts where A.title = \"open\\").is_err());
    }

    // eq probes, range probes, conjunctions, flipped comparisons,
    // dependent ranges, un-probeable shapes (`!=`, `or`, methods)
    const QUERIES: &[&str] = &[
        "select t: A.title from A in artifacts where A.year > 1800",
        "select t: A.title, y: A.year from A in artifacts \
         where A.year > 1800 and A.creator = 'Claude Monet'",
        "select t: A.title from A in artifacts where A.title = 'Composition No. 7'",
        "select t: A.title from A in artifacts where 1850 <= A.year and A.price < 100000.0",
        "select n: O.name from A in artifacts, O in A.owners \
         where A.year > 1800 and O.auction >= 500000.0",
        "select t: A.title from A in artifacts where A.year != 1850",
        "select t: A.title from A in artifacts where (A.year > 1800 or A.price < 60000.0)",
        "select p: A.current_price from A in artifacts where A.year >= 1900",
        "select t: A.title from A in artifacts where A.year = 1999",
    ];

    #[test]
    fn indexed_evaluation_equals_scan() {
        let indexed = art_store(&ArtSpec::default());
        let scan = art_store(&ArtSpec::default()).with_index_policy(IndexPolicy::Off);
        for src in QUERIES {
            let q = parse(src).unwrap();
            let (a, _) = eval_stats(&q, &indexed).unwrap();
            let (b, sb) = eval_stats(&q, &scan).unwrap();
            assert_eq!(a, b, "indexed and scan answers diverge on `{src}`");
            assert!(!sb.indexed, "policy Off must never probe (`{src}`)");
            assert_eq!(sb.probes, 0);
        }
    }

    #[test]
    fn selective_probe_touches_only_candidates() {
        let store = art_store(&ArtSpec::default());
        let q = parse("select t: A.title from A in artifacts where A.title = 'Composition No. 7'")
            .unwrap();
        let (rows, stats) = eval_stats(&q, &store).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(stats.indexed);
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.candidates, 1, "the title is unique");
        assert_eq!(stats.scanned, 1, "only the candidate was iterated");

        let scan = art_store(&ArtSpec::default()).with_index_policy(IndexPolicy::Off);
        let (rows2, s2) = eval_stats(&q, &scan).unwrap();
        assert_eq!(rows, rows2);
        assert_eq!(s2.scanned, 50, "the scan iterated the whole extent");
    }

    #[test]
    fn conjunctions_intersect_postings() {
        let store = art_store(&ArtSpec::default());
        let q = parse(
            "select t: A.title from A in artifacts \
             where A.creator = 'Claude Monet' and A.year >= 1850",
        )
        .unwrap();
        let (rows, stats) = eval_stats(&q, &store).unwrap();
        assert!(stats.indexed);
        assert_eq!(stats.probes, 2, "both conjuncts probed");
        assert!(stats.candidates < 50, "intersection pruned the extent");
        assert_eq!(rows.len() as u64, stats.candidates, "exact candidates");
    }

    #[test]
    fn parameters_evaluate_like_the_literals_they_stand_for() {
        let store = art_store(&ArtSpec::default()).with_index_policy(IndexPolicy::On);
        let literal = parse(
            "select t: A.title from A in artifacts \
             where A.creator = 'Claude Monet' and A.year >= 1850",
        )
        .unwrap();
        let q =
            parse("select t: A.title from A in artifacts where A.creator = $1 and A.year >= $2")
                .unwrap();
        assert_eq!(
            q.to_string(),
            "select t: A.title from A in artifacts where A.creator = $1 and A.year >= $2"
        );
        let params = [Atom::Str("Claude Monet".into()), Atom::Int(1850)];
        let prepared = Prepared::new(&q, &store);
        let (rows, stats) = prepared.eval(&params).unwrap();
        let (want, want_stats) = eval_stats(&literal, &store).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows, want);
        assert_eq!(stats, want_stats, "parameters probe the field indexes too");
        // a row that binds too few parameters is an error, not a guess
        let err = prepared.eval(&params[..1]).unwrap_err();
        assert!(err.to_string().contains("$2"), "{err}");
        assert!(parse("select t: A.title from A in artifacts where A.year = $0").is_err());
    }

    #[test]
    fn literal_conjuncts_probe_once_per_prepared_query() {
        let store = art_store(&ArtSpec::default()).with_index_policy(IndexPolicy::On);
        let q =
            parse("select t: A.title from A in artifacts where A.creator = $1 and A.year >= 1850")
                .unwrap();
        let prepared = Prepared::new(&q, &store);
        let monet = [Atom::Str("Claude Monet".into())];
        let (first, s1) = prepared.eval(&monet).unwrap();
        let (again, s2) = prepared.eval(&monet).unwrap();
        assert_eq!(first, again);
        assert_eq!(s1.probes, 2, "the creator and, once, the year range");
        assert_eq!(s2.probes, 1, "the year candidates are shared");
        assert_eq!(s1.candidates, s2.candidates);
        assert!(s2.indexed);
        // and the shared set never leaks into another parameter row
        let (nobody, _) = prepared.eval(&[Atom::Str("nobody".into())]).unwrap();
        assert!(nobody.is_empty());
    }

    #[test]
    fn unsafe_shapes_fall_back_to_the_scan() {
        let store = art_store(&ArtSpec::default());
        // `!=` keeps nearly everything: never probed
        let q = parse("select t: A.title from A in artifacts where A.year != 1850").unwrap();
        let (_, s) = eval_stats(&q, &store).unwrap();
        assert!(!s.indexed);
        assert_eq!(s.scanned, 50);
        // `current_price` is a method — navigation would shadow a field
        // of the same name, so it must not be probed
        let q = parse("select t: A.title from A in artifacts where A.current_price > 100000.0")
            .unwrap();
        let (_, s) = eval_stats(&q, &store).unwrap();
        assert!(!s.indexed);
        // a disjunction is opaque
        let q = parse(
            "select t: A.title from A in artifacts \
             where (A.year > 1800 or A.price < 60000.0)",
        )
        .unwrap();
        let (_, s) = eval_stats(&q, &store).unwrap();
        assert!(!s.indexed);
    }
}
