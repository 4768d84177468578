//! The reference evaluator: executes algebra plans against local forests.
//!
//! "The YAT algebra is independent of any underlying physical access
//! structure" (Section 3.1) — this evaluator gives the algebra its
//! *semantics*. The mediator executor in `yat-mediator` produces identical
//! results while shipping `Push` subplans to remote wrappers; equivalence
//! of the two is asserted by integration tests, and every optimizer rule is
//! validated by comparing `eval(rewritten)` with `eval(original)` here.

use crate::error::EvalError;
use crate::expr::{Alg, CmpOp, Operand, Pred};
use crate::funcs::{FnRegistry, SkolemRegistry};
use crate::keys::Partition;
use crate::passing::{BatchAnswer, PassedBindings};
use crate::tab::Tab;
use crate::template::Template;
use crate::value::{AtomView, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;
use yat_model::hash::{FirstSeen, Fnv64};
use yat_model::{Atom, Binder, Forest, Label, MatchOptions, Model, Node, Symbol, Tree};
use yat_obs::Collector;

/// Resolves the named documents plans read from (`Source` nodes) and the
/// forest used for reference traversal.
pub trait SourceCatalog {
    /// The tree registered under `name` at `source` (`None` = local).
    fn document(&self, source: Option<&str>, name: &str) -> Option<Tree>;

    /// The forest used to dereference `&oid` leaves during `Bind`.
    fn deref_forest(&self) -> Option<&Forest> {
        None
    }
}

impl SourceCatalog for Forest {
    fn document(&self, _source: Option<&str>, name: &str) -> Option<Tree> {
        self.get(name).cloned()
    }

    fn deref_forest(&self) -> Option<&Forest> {
        Some(self)
    }
}

/// Delegates `Push` subplans to an external executor (the mediator ships
/// them to wrappers). Without a handler, `Push` is evaluated in place —
/// the reference semantics.
pub trait PushHandler {
    /// Executes `plan` at `source` under the outer bindings `env`.
    fn execute_push(&self, source: &str, plan: &Arc<Alg>, env: &Env) -> Result<Tab, EvalError>;

    /// Executes `plan` at `source` once per binding of `bindings` — what
    /// a `DJoin` whose dependent side is a `Push` asks for, instead of
    /// calling [`PushHandler::execute_push`] per left row. This default
    /// *is* that per-row loop, kept as the reference semantics; a handler
    /// that talks to remote sources overrides it to ship the bindings
    /// together.
    fn execute_push_batch(
        &self,
        source: &str,
        plan: &Arc<Alg>,
        bindings: &PassedBindings,
    ) -> Result<BatchAnswer, EvalError> {
        let tabs = (0..bindings.rows.len())
            .map(|ordinal| self.execute_push(source, plan, &bindings.env(ordinal)))
            .collect::<Result<Vec<Tab>, EvalError>>()?;
        Ok(BatchAnswer {
            batches: tabs.len() as u64,
            tabs,
        })
    }

    /// Executes `plan` at `source` under `env`, as
    /// [`PushHandler::execute_push`] does, and hands the answer to `each`
    /// in pieces of about `rows` rows, in order: at least one piece, each
    /// with the answer's columns. A streamed answer
    /// ([`crate::stream::pipeline`]) pulls its source this way, so its
    /// first batch runs before the whole answer has arrived. An error
    /// from `each` stops the answer and is returned. This default hands
    /// the whole answer over as one piece.
    fn execute_push_pieces(
        &self,
        source: &str,
        plan: &Arc<Alg>,
        env: &Env,
        rows: usize,
        each: &mut dyn FnMut(Tab) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let _ = rows;
        each(self.execute_push(source, plan, env)?)
    }
}

/// Everything evaluation needs besides the plan.
pub struct EvalCtx<'a> {
    /// Document resolution.
    pub catalog: &'a dyn SourceCatalog,
    /// Optional model for resolving named patterns in filters.
    pub model: Option<&'a Model>,
    /// External functions (`contains`, wrapped methods).
    pub funcs: &'a FnRegistry,
    /// Skolem identifier registry.
    pub skolems: &'a SkolemRegistry,
    /// Remote execution of `Push` nodes (`None` = evaluate in place).
    pub push: Option<&'a dyn PushHandler>,
    /// Span collector; when set, every operator evaluation records an
    /// `operator` span (label, output cardinality, wall time).
    pub obs: Option<&'a Collector>,
}

impl<'a> EvalCtx<'a> {
    /// A context over a single local forest with the built-in functions.
    pub fn local(forest: &'a Forest, funcs: &'a FnRegistry, skolems: &'a SkolemRegistry) -> Self {
        EvalCtx {
            catalog: forest,
            model: None,
            funcs,
            skolems,
            push: None,
            obs: None,
        }
    }
}

/// The result of evaluating a plan: frontier operators move between the
/// two shapes (`Bind`: tree → tab; `Tree`: tab → tree).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOut {
    /// A binding table.
    Tab(Tab),
    /// A constructed or source tree.
    Tree(Tree),
}

impl EvalOut {
    /// The table, or a kind error mentioning `op`.
    pub fn tab(self, op: &Alg) -> Result<Tab, EvalError> {
        match self {
            EvalOut::Tab(t) => Ok(t),
            EvalOut::Tree(_) => Err(EvalError::Kind {
                op: op.describe(),
                expected: "Tab",
            }),
        }
    }

    /// The tree, or a kind error mentioning `op`.
    pub fn tree(self, op: &Alg) -> Result<Tree, EvalError> {
        match self {
            EvalOut::Tree(t) => Ok(t),
            EvalOut::Tab(_) => Err(EvalError::Kind {
                op: op.describe(),
                expected: "tree",
            }),
        }
    }

    /// Reference to the table, if this is one.
    pub fn as_tab(&self) -> Option<&Tab> {
        match self {
            EvalOut::Tab(t) => Some(t),
            _ => None,
        }
    }
}

/// Outer bindings in scope (the `DJoin` information-passing environment).
pub type Env = BTreeMap<String, Value>;

/// Evaluates `plan` with an empty environment.
pub fn eval(plan: &Alg, ctx: &EvalCtx<'_>) -> Result<EvalOut, EvalError> {
    eval_env(plan, ctx, &Env::new())
}

/// Evaluates `plan` under outer bindings `env` (variables bound by an
/// enclosing `DJoin`'s left side).
///
/// When the context carries a [`Collector`], each operator evaluation is
/// wrapped in an `operator` span labeled [`Alg::describe`], recording the
/// output cardinality (`Tab` rows; `1` for a tree) and wall time. Spans
/// nest with the recursion, so the collector ends up holding the dynamic
/// operator tree — one span per *execution*, e.g. one per outer row for
/// the right side of a `DJoin`.
pub fn eval_env(plan: &Alg, ctx: &EvalCtx<'_>, env: &Env) -> Result<EvalOut, EvalError> {
    let Some(obs) = ctx.obs else {
        return eval_node(plan, ctx, env);
    };
    let mut span = obs.span(yat_obs::kind::OPERATOR, plan.describe());
    match eval_node(plan, ctx, env) {
        Ok(out) => {
            let rows = match &out {
                EvalOut::Tab(t) => t.len() as u64,
                EvalOut::Tree(_) => 1,
            };
            span.record_u64(yat_obs::attr::ROWS_OUT, rows);
            Ok(out)
        }
        Err(e) => {
            span.record_str(yat_obs::attr::ERROR, e.to_string());
            Err(e)
        }
    }
}

/// One operator step of [`eval_env`], without span bookkeeping.
fn eval_node(plan: &Alg, ctx: &EvalCtx<'_>, env: &Env) -> Result<EvalOut, EvalError> {
    match plan {
        Alg::Source { source, name } => ctx
            .catalog
            .document(source.as_deref(), name)
            .map(EvalOut::Tree)
            .ok_or_else(|| EvalError::UnknownSource {
                source: source.clone(),
                name: name.clone(),
            }),

        Alg::Bind {
            input,
            filter,
            over: None,
        } => {
            let tree = eval_env(input, ctx, env)?.tree(plan)?;
            Ok(EvalOut::Tab(bind_tree(&tree, filter, env, ctx)))
        }

        // the row-local operators: one batch holding every input row
        Alg::Bind { input, .. }
        | Alg::Select { input, .. }
        | Alg::Map { input, .. }
        | Alg::Project { input, .. } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(one_batch(plan, tab, env, ctx)?))
        }

        Alg::TreeOp { input, template } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tree(construct_tree(&tab, template, ctx)))
        }

        Alg::Join { left, right, pred } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(join(&lt, &rt, pred, env, ctx)?))
        }

        Alg::DJoin { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(eval_dependent(plan, &lt, right, ctx, env)?))
        }

        Alg::Union { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(union_tabs(lt, &rt, plan)?))
        }

        Alg::Intersect { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(intersect_tabs(&lt, &rt, plan)?))
        }

        Alg::Diff { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(diff_tabs(&lt, &rt, plan)?))
        }

        Alg::Group { input, keys } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(group_tab(&tab, keys)?))
        }

        Alg::Sort { input, keys } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(sort_tab(tab, keys)?))
        }

        // Reference semantics of Push: evaluate in place. The mediator's
        // executor overrides this by shipping the subplan to the wrapper.
        Alg::Push { source, plan: sub } => match ctx.push {
            Some(handler) => Ok(EvalOut::Tab(handler.execute_push(source, sub, env)?)),
            None => eval_env(sub, ctx, env),
        },
    }
}

/// The dependent side of a `DJoin` over the evaluated left table `lt`.
/// Its own function so the recursive [`eval_node`] frame stays small.
fn eval_dependent(
    djoin: &Alg,
    lt: &Tab,
    right: &Alg,
    ctx: &EvalCtx<'_>,
    env: &Env,
) -> Result<Tab, EvalError> {
    if let (Alg::Push { source, plan: frag }, Some(handler)) = (right, ctx.push) {
        return djoin_push(lt, env, right, source, frag, handler, ctx.obs);
    }
    // for each left row, evaluate the right side under the extended
    // environment and splice its new columns onto the left row
    let mut out: Option<Tab> = None;
    for row in lt.rows() {
        let mut inner_env = env.clone();
        for (i, c) in lt.columns().iter().enumerate() {
            inner_env.insert(c.clone(), row[i].clone());
        }
        let rt = eval_env(right, ctx, &inner_env)?.tab(djoin)?;
        splice_right(&mut out, lt, row, &rt);
    }
    // no left rows: columns are the left's alone (right was never
    // evaluated; its columns are unknowable without evaluation)
    Ok(out.unwrap_or_else(|| Tab::new(lt.columns().to_vec())))
}

// ---------------------------------------------------------------------
// Operator kernels: the data-plane half of each operator (row order,
// dedup discipline, environment constraining), kept out of `eval_node`
// so its recursive frame stays small.
// ---------------------------------------------------------------------

/// A row-local operator over the whole of its input: the materialized
/// case of the kernel a streamed pipeline runs once per batch.
fn one_batch(op: &Alg, tab: Tab, env: &Env, ctx: &EvalCtx<'_>) -> Result<Tab, EvalError> {
    RowOp::new(op, tab.columns(), ctx)?.run(tab, env, ctx)
}

/// The input of a row-local operator — `Select`, `Map`, `Project` or
/// `Bind … over` — whose output rows each depend on one input row
/// alone, so it can run over its input in batches; `None` for every
/// other operator.
pub(crate) fn row_local_input(op: &Alg) -> Option<&Alg> {
    match op {
        Alg::Bind {
            input,
            over: Some(_),
            ..
        }
        | Alg::Select { input, .. }
        | Alg::Map { input, .. }
        | Alg::Project { input, .. } => Some(input),
        _ => None,
    }
}

/// A row-local operator's kernel, prepared once per execution for its
/// input's column layout and then run over one batch of rows at a time:
/// the whole input when materialized, `batch_rows` rows when a streamed
/// answer pipelines it. A `Bind` keeps one binder across every batch.
pub(crate) enum RowOp<'a> {
    /// `Bind … over col`.
    Bind(Box<BindOver<'a>>),
    /// `Select`: keeps the rows `pred` holds on, in order, moving them.
    Select(&'a Pred),
    /// `Map`: appends `expr`'s value to every row as column `col`.
    Map(&'a str, &'a Operand),
    /// `Project`: moves the projected cells into narrower rows.
    Project(&'a [(String, String)]),
}

impl<'a> RowOp<'a> {
    /// The kernel of `op` (see [`row_local_input`]) over input columns
    /// `cols`; panics on any other operator.
    pub(crate) fn new(op: &'a Alg, cols: &[String], ctx: &EvalCtx<'a>) -> Result<Self, EvalError> {
        Ok(match op {
            Alg::Bind {
                filter,
                over: Some(col),
                ..
            } => RowOp::Bind(Box::new(BindOver::new(cols, col, filter, ctx)?)),
            Alg::Select { pred, .. } => RowOp::Select(pred),
            Alg::Map { col, expr, .. } => RowOp::Map(col, expr),
            Alg::Project { cols, .. } => RowOp::Project(cols),
            other => unreachable!("{} is not row-local", other.describe()),
        })
    }

    /// Runs the operator over one batch of rows.
    pub(crate) fn run(&mut self, tab: Tab, env: &Env, ctx: &EvalCtx<'_>) -> Result<Tab, EvalError> {
        match self {
            RowOp::Bind(bind) => Ok(bind.run(&tab, env)),
            RowOp::Select(pred) => {
                let mut tab = tab;
                tab.try_retain(|cols, row| eval_pred(pred, cols, row, env, ctx))?;
                Ok(tab)
            }
            RowOp::Map(col, expr) => {
                let (mut cols, mut rows) = tab.into_parts();
                for row in &mut rows {
                    let v = eval_operand(expr, &cols, row, env, ctx)?;
                    row.push(v);
                }
                cols.push(col.to_string());
                Ok(Tab::from_rows(cols, rows))
            }
            RowOp::Project(cols) => Ok(tab.project(cols)),
        }
    }
}

/// `MATCH` options induced by an evaluation context.
fn match_opts<'a>(ctx: &EvalCtx<'a>) -> MatchOptions<'a> {
    MatchOptions {
        model: ctx.model,
        forest: ctx.catalog.deref_forest(),
        closed: false,
    }
}

/// `Bind` over a tree: match the filter, constrain by outer bindings.
fn bind_tree(tree: &Tree, filter: &yat_model::Filter, env: &Env, ctx: &EvalCtx<'_>) -> Tab {
    let mut binder = Binder::new(filter, match_opts(ctx));
    let mut tab = Tab::from_slot_rows(filter.variables(), binder.bind(tree));
    constrain_env(&mut tab, env);
    tab
}

/// `Bind … over col`: re-match the filter against the trees held in one
/// column of an existing table, appending the newly bound variables.
/// Variables shared with existing columns act as equality constraints.
/// One binder serves every row of every batch, and each match's slots
/// move straight into the output row.
pub(crate) struct BindOver<'a> {
    binder: Binder<'a>,
    /// The column holding the trees.
    ci: usize,
    /// Output columns: the input's, then the filter's new variables.
    cols: Vec<String>,
    /// Binder slots that become new columns.
    new_slots: Vec<usize>,
    /// (binder slot, input column) pairs of shared variables.
    shared: Vec<(usize, usize)>,
    /// One match's cells, reused across matches.
    vals: Vec<Value>,
}

impl<'a> BindOver<'a> {
    fn new(
        cols: &[String],
        col: &str,
        filter: &'a yat_model::Filter,
        ctx: &EvalCtx<'a>,
    ) -> Result<Self, EvalError> {
        let ci = col_of(cols, col).ok_or_else(|| EvalError::UnknownColumn(col.to_string()))?;
        // the filter's own variables lead the binder's slots
        let mut out = cols.to_vec();
        let mut new_slots = Vec::new();
        let mut shared = Vec::new();
        for (slot, v) in filter.variables().into_iter().enumerate() {
            match col_of(cols, &v) {
                Some(i) => shared.push((slot, i)),
                None => {
                    new_slots.push(slot);
                    out.push(v);
                }
            }
        }
        Ok(BindOver {
            binder: Binder::new(filter, match_opts(ctx)),
            ci,
            cols: out,
            new_slots,
            shared,
            vals: Vec::new(),
        })
    }

    fn run(&mut self, tab: &Tab, env: &Env) -> Tab {
        let mut out = Tab::new(self.cols.clone());
        for row in tab.rows() {
            let targets = match &row[self.ci] {
                Value::Coll(c) => c.as_slice(),
                cell => std::slice::from_ref(cell),
            };
            for target in targets.iter().filter_map(Value::as_tree) {
                let rows = self.binder.bind(target);
                let (len, width) = (rows.len(), rows.width());
                let mut cells = rows.drain();
                for _ in 0..len {
                    let vals = &mut self.vals;
                    vals.clear();
                    vals.extend(
                        cells
                            .by_ref()
                            .take(width)
                            .map(|c| c.map_or(Value::Null, Value::from_binding)),
                    );
                    // shared variables act as equality constraints (an
                    // unbound one constrains nothing)
                    if !self
                        .shared
                        .iter()
                        .all(|&(slot, i)| vals[slot].is_null() || vals[slot].query_eq(&row[i]))
                    {
                        continue;
                    }
                    let mut newrow = Vec::with_capacity(row.len() + self.new_slots.len());
                    newrow.extend_from_slice(row);
                    newrow.extend(
                        self.new_slots
                            .iter()
                            .map(|&slot| std::mem::replace(&mut vals[slot], Value::Null)),
                    );
                    out.push(newrow);
                }
            }
        }
        constrain_env(&mut out, env);
        out
    }
}

/// `Tree` construction: instantiate a template over all rows. A template
/// instantiation at the root yields exactly one tree for Sym roots;
/// grouped roots may yield several, which are wrapped under a
/// `collection` node to keep the output a single tree. A row-keyed
/// template runs its batch kernel over the table as one batch.
fn construct_tree(tab: &Tab, template: &Template, ctx: &EvalCtx<'_>) -> Tree {
    let mut trees = Vec::new();
    if let Some(mut keyed) = KeyedTree::of(template) {
        keyed.run(tab, ctx.skolems, &mut trees);
        return Node::from_stack(keyed.root(), &mut trees, 0);
    }
    let all: Vec<usize> = (0..tab.len()).collect();
    Builder {
        tab,
        skolems: ctx.skolems,
        syms: Vec::new(),
    }
    .instantiate(template, &all, &mut trees);
    match trees.len() {
        1 => trees.pop().expect("len checked"),
        _ => Node::sym("collection", trees),
    }
}

/// A `Tree` template whose answer a stream can emit row by row: a `Sym`
/// root whose single child is a `Group` keyed on every variable its body
/// reads (`MAKE out *($t) := r [ $t ]`, the full-scan shape). Every row of
/// a group then builds the same subtree — [`Template::Var`] splices the
/// group's first value, nested groups see one key — so each group's
/// subtree is complete the moment its first row arrives. The kernel
/// numbers keys by first occurrence across every batch it is run on and
/// instantiates the body once, over a group's first row.
///
/// A body with a label variable is excluded: key-equal values may print
/// different labels (`Int(1)` and `Float(1.0)` group together but label
/// nodes `1` and `1.0`), so a group's later rows could add nodes.
pub(crate) struct KeyedTree<'t> {
    root: &'t str,
    key: &'t [String],
    skolem: Option<&'t String>,
    body: &'t Template,
    seen: FirstSeen,
    /// The key of every group so far, flat: group `g` holds
    /// `keys[g * key.len()..][..key.len()]`.
    keys: Vec<Value>,
}

impl<'t> KeyedTree<'t> {
    /// The kernel of `template`, when it has the row-keyed shape.
    pub(crate) fn of(template: &'t Template) -> Option<Self> {
        let Template::Sym { name, children } = template else {
            return None;
        };
        let [Template::Group { key, skolem, body }] = children.as_slice() else {
            return None;
        };
        let keyed = body.variables().iter().all(|v| key.contains(v)) && !has_label_var(body);
        keyed.then(|| KeyedTree {
            root: name,
            key,
            skolem: skolem.as_ref(),
            body,
            seen: FirstSeen::default(),
            keys: Vec::new(),
        })
    }

    /// The label of the answer's root.
    pub(crate) fn root(&self) -> Label {
        Label::Sym(Symbol::intern(self.root))
    }

    /// Appends to `out` the subtrees of the groups whose first row is in
    /// `tab`, in row order.
    pub(crate) fn run(&mut self, tab: &Tab, skolems: &SkolemRegistry, out: &mut Vec<Tree>) {
        let kidx: Vec<Option<usize>> = self.key.iter().map(|k| tab.col(k)).collect();
        let width = kidx.len();
        // every row of the batch may open a group
        self.seen.reserve(tab.len());
        self.keys.reserve(tab.len() * width);
        let mut builder = Builder {
            tab,
            skolems,
            syms: Vec::new(),
        };
        for ri in 0..tab.len() {
            let key = || key_cells(tab, &kidx, ri);
            let mut h = Fnv64::new();
            key().for_each(|v| v.key_hash_into(&mut h));
            let keys = &self.keys;
            let (_, new) = self.seen.group(h.finish(), |g| {
                keys[g * width..][..width]
                    .iter()
                    .zip(key())
                    .all(|(x, y)| x.key_eq(y))
            });
            if new {
                self.keys.extend(key().cloned());
                builder.group(&kidx, self.skolem, self.body, &[ri], out);
            }
        }
    }
}

/// Whether a template builds a node labeled by a variable.
fn has_label_var(template: &Template) -> bool {
    match template {
        Template::LabelVar { .. } => true,
        Template::Sym { children, .. } => children.iter().any(has_label_var),
        Template::Group { body, .. } => has_label_var(body),
        Template::Var(_) | Template::Text(_) => false,
    }
}

/// Row `ri`'s cells in the grouping columns `kidx`; a column missing
/// from the table contributes [`MISSING`].
fn key_cells<'r>(
    tab: &'r Tab,
    kidx: &'r [Option<usize>],
    ri: usize,
) -> impl Iterator<Item = &'r Value> + 'r {
    kidx.iter()
        .map(move |i| i.map_or(&MISSING, |i| &tab.row(ri)[i]))
}

/// Appends `row × rt` to a `DJoin` output: the left row followed by the
/// right table's new columns. The first right table fixes the output
/// columns; later ones are matched to them by name.
fn splice_right(out: &mut Option<Tab>, lt: &Tab, row: &[Value], rt: &Tab) {
    let out = out.get_or_insert_with(|| {
        let mut cols = lt.columns().to_vec();
        for c in rt.columns() {
            if !cols.contains(c) {
                cols.push(c.clone());
            }
        }
        Tab::new(cols)
    });
    let new_cols: Vec<(usize, usize)> = out
        .columns()
        .iter()
        .enumerate()
        .skip(lt.columns().len())
        .filter_map(|(oi, c)| rt.col(c).map(|ri| (oi, ri)))
        .collect();
    let width = out.columns().len();
    for rrow in rt.rows() {
        let mut newrow = vec![Value::Null; width];
        newrow[..row.len()].clone_from_slice(row);
        for (oi, ri) in &new_cols {
            newrow[*oi] = rrow[*ri].clone();
        }
        out.push(newrow);
    }
}

/// `DJoin` into a `Push` with a handler installed: set-oriented
/// information passing. The left table is reduced to its distinct
/// binding tuples, the handler answers them together, and the answers
/// are spliced per left row — the same rows in the same order as
/// [`eval_dependent`]'s per-row loop shipping the fragment once per row.
///
/// The whole exchange records one `operator` span for the `push` node,
/// carrying the left cardinality, the distinct bindings and the requests
/// the handler shipped.
fn djoin_push(
    lt: &Tab,
    env: &Env,
    push: &Alg,
    source: &str,
    frag: &Arc<Alg>,
    handler: &dyn PushHandler,
    obs: Option<&Collector>,
) -> Result<Tab, EvalError> {
    if lt.is_empty() {
        return Ok(Tab::new(lt.columns().to_vec()));
    }
    let mut span = obs.map(|o| o.span(yat_obs::kind::OPERATOR, push.describe()));
    let (bindings, ordinals) = PassedBindings::collect(lt, env, frag);
    let answer = match handler.execute_push_batch(source, frag, &bindings) {
        Ok(answer) if answer.tabs.len() == bindings.rows.len() => Ok(answer),
        Ok(answer) => Err(EvalError::Source {
            source: source.to_string(),
            message: format!(
                "push handler answered {} of {} bindings",
                answer.tabs.len(),
                bindings.rows.len()
            ),
        }),
        Err(e) => Err(e),
    };
    let answer = match answer {
        Ok(answer) => answer,
        Err(e) => {
            if let Some(span) = span.as_mut() {
                span.record_str(yat_obs::attr::ERROR, e.to_string());
            }
            return Err(e);
        }
    };
    let mut out: Option<Tab> = None;
    for (row, &ordinal) in lt.rows().zip(&ordinals) {
        splice_right(&mut out, lt, row, &answer.tabs[ordinal]);
    }
    let out = out.expect("the left table has rows");
    if let Some(span) = span.as_mut() {
        // every right row became exactly one output row
        span.record_u64(yat_obs::attr::ROWS_OUT, out.len() as u64);
        span.record_u64(yat_obs::attr::BINDINGS, lt.len() as u64);
        span.record_u64(yat_obs::attr::DISTINCT, bindings.rows.len() as u64);
        span.record_u64(yat_obs::attr::BATCHES, answer.batches);
    }
    Ok(out)
}

/// Set union: compatible columns, concatenation, dedup.
fn union_tabs(lt: Tab, rt: &Tab, op: &Alg) -> Result<Tab, EvalError> {
    check_compat(&lt, rt, op)?;
    let mut out = lt;
    for row in rt.rows() {
        out.push(row.to_vec());
    }
    out.dedup();
    Ok(out)
}

/// Set intersection via hashed membership, preserving left order.
fn intersect_tabs(lt: &Tab, rt: &Tab, op: &Alg) -> Result<Tab, EvalError> {
    check_compat(lt, rt, op)?;
    let member = row_set(rt);
    let mut out = Tab::new(lt.columns().to_vec());
    for row in lt.rows() {
        if member(row) {
            out.push(row.to_vec());
        }
    }
    out.dedup();
    Ok(out)
}

/// Set difference via hashed membership, preserving left order.
fn diff_tabs(lt: &Tab, rt: &Tab, op: &Alg) -> Result<Tab, EvalError> {
    check_compat(lt, rt, op)?;
    let member = row_set(rt);
    let mut out = Tab::new(lt.columns().to_vec());
    for row in lt.rows() {
        if !member(row) {
            out.push(row.to_vec());
        }
    }
    out.dedup();
    Ok(out)
}

/// `Group`: key columns first, remaining columns become collections,
/// groups in first-occurrence order (see `crate::keys` for the
/// confirm-on-hash-hit discipline).
fn group_tab(tab: &Tab, keys: &[String]) -> Result<Tab, EvalError> {
    let kidx: Vec<usize> = keys
        .iter()
        .map(|k| {
            tab.col(k)
                .ok_or_else(|| EvalError::UnknownColumn(k.clone()))
        })
        .collect::<Result<_, _>>()?;
    let rest: Vec<usize> = (0..tab.columns().len())
        .filter(|i| !kidx.contains(i))
        .collect();
    let mut cols: Vec<String> = keys.to_vec();
    cols.extend(rest.iter().map(|&i| tab.columns()[i].clone()));
    let groups = crate::keys::group_indices(tab.raw_rows(), &kidx);
    let mut out = Tab::new(cols);
    for members in &groups {
        let first = tab.row(members[0]);
        let mut row: Vec<Value> = kidx.iter().map(|&i| first[i].clone()).collect();
        for &ci in &rest {
            row.push(Value::Coll(
                members.iter().map(|&ri| tab.row(ri)[ci].clone()).collect(),
            ));
        }
        out.push(row);
    }
    Ok(out)
}

/// `Sort`: stable multi-key sort with [`Atom::total_cmp`] semantics.
fn sort_tab(tab: Tab, keys: &[(String, crate::expr::SortDir)]) -> Result<Tab, EvalError> {
    let kidx: Vec<(usize, crate::expr::SortDir)> = keys
        .iter()
        .map(|(k, d)| {
            tab.col(k)
                .map(|i| (i, *d))
                .ok_or_else(|| EvalError::UnknownColumn(k.clone()))
        })
        .collect::<Result<_, _>>()?;
    let cols = tab.columns().to_vec();
    let mut rows = tab.into_rows();
    rows.sort_by(|a, b| {
        for (i, d) in &kidx {
            let ord = a[*i].total_cmp(&b[*i]);
            let ord = match d {
                crate::expr::SortDir::Asc => ord,
                crate::expr::SortDir::Desc => ord.reverse(),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = Tab::new(cols);
    for r in rows {
        out.push(r);
    }
    Ok(out)
}

/// Keeps only rows consistent with outer bindings: a column that is also
/// bound in `env` must hold a query-equal value.
fn constrain_env(tab: &mut Tab, env: &Env) {
    if env.is_empty() {
        return;
    }
    let constrained: Vec<(usize, &Value)> = tab
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, c)| env.get(c).map(|v| (i, v)))
        .collect();
    if constrained.is_empty() {
        return;
    }
    let cols = tab.columns().to_vec();
    let rows = std::mem::take(tab).into_rows();
    let mut out = Tab::new(cols);
    for row in rows {
        if constrained.iter().all(|(i, v)| row[*i].query_eq(v)) {
            out.push(row);
        }
    }
    *tab = out;
}

/// Builds a hashed membership test over a table's rows (Intersect/Diff).
/// Hash hits are confirmed with [`crate::keys::row_key_eq`], so collisions
/// cannot claim spurious membership.
fn row_set(tab: &Tab) -> impl Fn(&[Value]) -> bool + '_ {
    let mut buckets: std::collections::HashMap<u64, Vec<usize>> =
        std::collections::HashMap::with_capacity(tab.len());
    for (i, row) in tab.rows().enumerate() {
        buckets
            .entry(crate::keys::row_hash(row))
            .or_default()
            .push(i);
    }
    move |row: &[Value]| {
        buckets
            .get(&crate::keys::row_hash(row))
            .is_some_and(|b| b.iter().any(|&i| crate::keys::row_key_eq(tab.row(i), row)))
    }
}

fn check_compat(l: &Tab, r: &Tab, op: &Alg) -> Result<(), EvalError> {
    if l.columns() != r.columns() {
        return Err(EvalError::Incompatible {
            op: op.describe(),
            message: format!("column mismatch: {:?} vs {:?}", l.columns(), r.columns()),
        });
    }
    Ok(())
}

/// The index of column `name` in `cols`.
fn col_of(cols: &[String], name: &str) -> Option<usize> {
    cols.iter().position(|c| c == name)
}

/// Evaluates an operand against a row (+outer env); `cols` names the
/// row's cells.
pub fn eval_operand(
    op: &Operand,
    cols: &[String],
    row: &[Value],
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<Value, EvalError> {
    match arg(op, cols, row, env, ctx)? {
        Arg::Value(v) => Ok(v.clone()),
        Arg::Const(a) => Ok(Value::Atom(a.clone())),
        Arg::Owned(v) => Ok(v),
    }
}

/// An operand's value for one row: borrowed from the row, the outer
/// environment or the plan's constants, owned only when a function
/// computed it.
enum Arg<'a> {
    Value(&'a Value),
    Const(&'a Atom),
    Owned(Value),
}

impl Arg<'_> {
    /// The atomic content the value coerces to ([`Value::atom`]).
    fn view(&self) -> Option<AtomView<'_>> {
        match self {
            Arg::Value(v) => v.atom_view(),
            Arg::Const(a) => Some(AtomView::Atom(a)),
            Arg::Owned(v) => v.atom_view(),
        }
    }

    fn value(&self) -> Option<&Value> {
        match self {
            Arg::Value(v) => Some(v),
            Arg::Owned(v) => Some(v),
            Arg::Const(_) => None,
        }
    }

    /// [`Value::query_eq`], without boxing a constant into a `Value`.
    fn query_eq(&self, other: &Arg<'_>) -> bool {
        match (self.value(), other.value()) {
            (Some(a), Some(b)) => a.query_eq(b),
            // a constant equals only values coercing to an equal atom
            _ => match (self.view(), other.view()) {
                (Some(a), Some(b)) => a.value_eq(&b),
                _ => false,
            },
        }
    }
}

fn arg<'a>(
    op: &'a Operand,
    cols: &[String],
    row: &'a [Value],
    env: &'a Env,
    ctx: &EvalCtx<'_>,
) -> Result<Arg<'a>, EvalError> {
    match op {
        Operand::Var(v) => match col_of(cols, v) {
            Some(i) => Ok(Arg::Value(&row[i])),
            None => env
                .get(v)
                .map(Arg::Value)
                .ok_or_else(|| EvalError::UnknownColumn(v.clone())),
        },
        Operand::Const(a) => Ok(Arg::Const(a)),
        Operand::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_operand(a, cols, row, env, ctx))
                .collect::<Result<_, _>>()?;
            Ok(Arg::Owned(ctx.funcs.call(name, &vals)?))
        }
    }
}

/// Evaluates a predicate against a row (+outer env); `cols` names the
/// row's cells.
///
/// Comparison follows the query semantics of [`Value::query_eq`]; ordered
/// comparisons between values lacking a numeric/string interpretation are
/// `false` (three-valued logic collapsed to false, as in SQL). Operands
/// are compared where they live — nothing is cloned per row.
pub fn eval_pred(
    pred: &Pred,
    cols: &[String],
    row: &[Value],
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<bool, EvalError> {
    match pred {
        Pred::True => Ok(true),
        Pred::And(a, b) => {
            Ok(eval_pred(a, cols, row, env, ctx)? && eval_pred(b, cols, row, env, ctx)?)
        }
        Pred::Or(a, b) => {
            Ok(eval_pred(a, cols, row, env, ctx)? || eval_pred(b, cols, row, env, ctx)?)
        }
        Pred::Not(p) => Ok(!eval_pred(p, cols, row, env, ctx)?),
        Pred::Cmp { op, left, right } => {
            let l = arg(left, cols, row, env, ctx)?;
            let r = arg(right, cols, row, env, ctx)?;
            Ok(cmp_args(*op, &l, &r))
        }
        Pred::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_operand(a, cols, row, env, ctx))
                .collect::<Result<_, _>>()?;
            match ctx.funcs.call(name, &vals)? {
                Value::Atom(Atom::Bool(b)) => Ok(b),
                other => Err(EvalError::Function {
                    name: name.clone(),
                    message: format!("predicate returned non-boolean {other}"),
                }),
            }
        }
    }
}

/// The comparison kernel: query equality for `=`/`!=`
/// ([`Value::query_eq`]); ordered comparisons through the atom total
/// order, with values lacking a numeric/string interpretation comparing
/// `false` (three-valued logic collapsed to false, as in SQL).
fn cmp_args(op: CmpOp, l: &Arg<'_>, r: &Arg<'_>) -> bool {
    match op {
        CmpOp::Eq => l.query_eq(r),
        CmpOp::Ne => !l.query_eq(r),
        _ => match (l.view(), r.view()) {
            (Some(a), Some(b)) => {
                let ord = a.total_cmp(&b);
                match op {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    CmpOp::Eq | CmpOp::Ne => unreachable!(),
                }
            }
            _ => false,
        },
    }
}

/// Hash join on equality conjuncts when possible, nested loops otherwise.
fn join(lt: &Tab, rt: &Tab, pred: &Pred, env: &Env, ctx: &EvalCtx<'_>) -> Result<Tab, EvalError> {
    let cols = Tab::joined_columns(lt, rt);
    let mut out = Tab::new(cols.clone());

    // Extract equi-join keys: conjuncts `$l = $r` with $l from the left
    // columns and $r from the right (possibly primed) columns.
    let mut lkeys: Vec<usize> = Vec::new();
    let mut rkeys: Vec<usize> = Vec::new();
    let mut residual: Vec<Pred> = Vec::new();
    for c in pred.conjuncts() {
        if let Pred::Cmp {
            op: CmpOp::Eq,
            left: Operand::Var(a),
            right: Operand::Var(b),
        } = c
        {
            let (la, rb) = (lt.col(a), right_col(rt, lt, b));
            if let (Some(li), Some(ri)) = (la, rb) {
                lkeys.push(li);
                rkeys.push(ri);
                continue;
            }
            let (lb, ra) = (lt.col(b), right_col(rt, lt, a));
            if let (Some(li), Some(ri)) = (lb, ra) {
                lkeys.push(li);
                rkeys.push(ri);
                continue;
            }
        }
        residual.push(c.clone());
    }
    let residual = Pred::from_conjuncts(residual);

    let emit = |out: &mut Tab, lrow: &[Value], rrow: &[Value]| {
        let mut row = lrow.to_vec();
        row.extend(rrow.iter().cloned());
        out.push(row);
    };

    if lkeys.is_empty() {
        // nested loops
        for lrow in lt.rows() {
            for rrow in rt.rows() {
                let mut row = lrow.to_vec();
                row.extend(rrow.iter().cloned());
                if eval_pred(pred, &cols, &row, env, ctx)? {
                    out.push(row);
                }
            }
        }
        return Ok(out);
    }

    // Hash join: key columns were resolved once above (outside the row
    // loops); the kernel builds on the right and probes with 64-bit
    // structural hashes — no per-row key strings on either side.
    for (li, ri) in crate::keys::join_pairs(lt.raw_rows(), rt.raw_rows(), &lkeys, &rkeys) {
        let (lrow, rrow) = (lt.row(li), rt.row(ri));
        if residual == Pred::True {
            emit(&mut out, lrow, rrow);
        } else {
            let mut row = lrow.to_vec();
            row.extend(rrow.iter().cloned());
            if eval_pred(&residual, &cols, &row, env, ctx)? {
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Resolves a possibly-primed variable (`t'`) to a right-side column index,
/// refusing names that are (unprimed) left columns.
fn right_col(rt: &Tab, lt: &Tab, name: &str) -> Option<usize> {
    if let Some(stripped) = name.strip_suffix('\'') {
        return rt.col(stripped);
    }
    if lt.col(name).is_some() {
        return None;
    }
    rt.col(name)
}

/// The `Tree` operator's construction over one table: instantiates
/// templates into caller-supplied forests, interning each template
/// symbol once per evaluation.
struct Builder<'t> {
    tab: &'t Tab,
    skolems: &'t SkolemRegistry,
    /// Template symbols seen so far, by the address of their name.
    syms: Vec<(&'t str, Symbol)>,
}

/// The key a grouping column missing from the table contributes.
static MISSING: Value = Value::Null;

impl<'t> Builder<'t> {
    fn sym(&mut self, name: &'t str) -> Symbol {
        if let Some((_, sym)) = self.syms.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
            return sym.clone();
        }
        let sym = Symbol::intern(name);
        self.syms.push((name, sym.clone()));
        sym
    }

    /// Instantiates `tmpl` over the rows `rows` (indices into the
    /// table), appending the constructed forest to `out` in order. A
    /// constructed node's children are built on top of `out` and taken
    /// off it ([`Node::from_stack`]), so one stack serves every level and
    /// each child slice is allocated once, at its exact length.
    fn instantiate(&mut self, tmpl: &'t Template, rows: &[usize], out: &mut Vec<Tree>) {
        let tab = self.tab;
        match tmpl {
            Template::Text(t) => out.push(Node::atom(Atom::Str(t.clone()))),
            Template::Sym { name, children } => {
                let sym = self.sym(name);
                let mark = out.len();
                for c in children {
                    self.instantiate(c, rows, out);
                }
                let node = Node::from_stack(Label::Sym(sym), out, mark);
                out.push(node);
            }
            Template::Var(v) => {
                let Some(ci) = tab.col(v) else {
                    return;
                };
                if let [ri] = rows {
                    tab.row(*ri)[ci].splice_into(out);
                    return;
                }
                // distinct values among the in-scope rows, first-occurrence
                // order; keyed by structural hash, confirmed by key_eq
                let cell = |k: usize| &tab.row(rows[k])[ci];
                let distinct = Partition::by_key(
                    rows.len(),
                    |k| cell(k).key_hash(),
                    |a, b| cell(a).key_eq(cell(b)),
                );
                for group in distinct.groups() {
                    cell(group[0]).splice_into(out);
                }
            }
            Template::LabelVar { var, children } => {
                let Some(ci) = tab.col(var) else {
                    return;
                };
                // one pass: each row's label text, then rows grouped by
                // it in first-occurrence order (`Label("3")` and `Int(3)`
                // share the label `3`); rows without a label are skipped
                let mut labeled: Vec<(usize, Cow<'t, str>)> = Vec::new();
                for &ri in rows {
                    let label = match &tab.row(ri)[ci] {
                        Value::Label(l) => Cow::Borrowed(l.as_str()),
                        other => match other.atom() {
                            Some(a) => Cow::Owned(a.to_string()),
                            None => continue,
                        },
                    };
                    labeled.push((ri, label));
                }
                let by_label = Partition::by_key(
                    labeled.len(),
                    |k| {
                        let mut h = Fnv64::new();
                        h.write(labeled[k].1.as_bytes());
                        h.finish()
                    },
                    |a, b| labeled[a].1 == labeled[b].1,
                );
                let mut group = Vec::new();
                for members in by_label.groups() {
                    group.clear();
                    group.extend(members.iter().map(|&k| labeled[k].0));
                    let mark = out.len();
                    for c in children {
                        self.instantiate(c, &group, out);
                    }
                    let label = Label::Sym(labeled[members[0]].1.as_ref().into());
                    let node = Node::from_stack(label, out, mark);
                    out.push(node);
                }
            }
            Template::Group { key, skolem, body } => {
                let kidx: Vec<Option<usize>> = key.iter().map(|k| tab.col(k)).collect();
                // hashed grouping over the (possibly missing) key columns;
                // first-occurrence order, hash hits confirmed against the
                // group's first member
                let groups = Partition::by_key(
                    rows.len(),
                    |k| {
                        let mut h = Fnv64::new();
                        key_cells(tab, &kidx, rows[k]).for_each(|v| v.key_hash_into(&mut h));
                        h.finish()
                    },
                    |a, b| {
                        key_cells(tab, &kidx, rows[a])
                            .zip(key_cells(tab, &kidx, rows[b]))
                            .all(|(x, y)| x.key_eq(y))
                    },
                );
                let mut members = Vec::new();
                for group in groups.groups() {
                    members.clear();
                    members.extend(group.iter().map(|&k| rows[k]));
                    self.group(&kidx, skolem.as_ref(), body, &members, out);
                }
            }
        }
    }

    /// Instantiates one group's `body` over its `members` (indices into
    /// the table), under a Skolem identifier of the first member's key
    /// cells `kidx` when the group names a function.
    fn group(
        &mut self,
        kidx: &[Option<usize>],
        skolem: Option<&String>,
        body: &'t Template,
        members: &[usize],
        out: &mut Vec<Tree>,
    ) {
        match skolem {
            Some(name) => {
                let mark = out.len();
                self.instantiate(body, members, out);
                let oid = self
                    .skolems
                    .apply(name, key_cells(self.tab, kidx, members[0]));
                let node = Node::from_stack(Label::Oid(oid), out, mark);
                out.push(node);
            }
            None => self.instantiate(body, members, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_prng::Rng;

    /// Cells that are often key-equal without being identical: `Int`
    /// and `Float` of one number, an atom and the element holding it.
    fn cell(rng: &mut Rng) -> Value {
        match rng.gen_range(0..7usize) {
            0 => Value::Atom(Atom::Int(1900)),
            1 => Value::Atom(Atom::Float(1900.0)),
            2 => Value::Atom(Atom::Str("x".into())),
            3 => Value::Tree(Node::elem("title", "x")),
            4 => Value::Tree(Node::elem("title", "y")),
            5 => Value::Null,
            _ => Value::Coll(vec![
                Value::Atom(Atom::Str("y".into())),
                Value::Tree(Node::elem("title", "x")),
            ]),
        }
    }

    fn columns() -> Vec<String> {
        ["t", "a", "y"].map(String::from).to_vec()
    }

    fn table(rng: &mut Rng) -> Tab {
        let rows = rng.gen_range(0..40usize);
        let rows = (0..rows)
            .map(|_| (0..3).map(|_| cell(rng)).collect())
            .collect();
        Tab::from_rows(columns(), rows)
    }

    /// Row-keyed templates: a `Sym` root over one group keyed on every
    /// variable its body reads, with and without Skolem functions,
    /// nested groups, constants and a key column the table lacks.
    fn keyed_templates() -> Vec<Template> {
        let out = |group| Template::sym("out", vec![group]);
        vec![
            out(Template::group(&["t"], Template::elem_var("r", "t"))),
            out(Template::skolem_group(
                "f",
                &["t", "a"],
                Template::sym(
                    "row",
                    vec![
                        Template::elem_var("title", "t"),
                        Template::elem_var("artist", "a"),
                    ],
                ),
            )),
            out(Template::group(
                &["t", "y"],
                Template::sym(
                    "r",
                    vec![
                        Template::Var("t".into()),
                        Template::skolem_group("g", &["y"], Template::elem_var("yr", "y")),
                        Template::Text("k".into()),
                    ],
                ),
            )),
            out(Template::group(
                &["a", "missing"],
                Template::Var("a".into()),
            )),
        ]
    }

    #[test]
    fn keyed_templates_build_what_grouping_every_row_builds() {
        let skolems = SkolemRegistry::new();
        let mut rng = Rng::seed_from_u64(0x5EED_2026);
        for case in 0..200 {
            let tab = table(&mut rng);
            for template in keyed_templates() {
                let all: Vec<usize> = (0..tab.len()).collect();
                let mut grouped = Vec::new();
                Builder {
                    tab: &tab,
                    skolems: &skolems,
                    syms: Vec::new(),
                }
                .instantiate(&template, &all, &mut grouped);
                // the keyed kernel, fed the same rows in random batches
                let mut keyed = KeyedTree::of(&template).expect("a row-keyed template");
                let mut subtrees = Vec::new();
                let mut rows = tab.raw_rows().iter().cloned();
                loop {
                    let n = rng.gen_range(1..8usize);
                    let batch = Tab::from_rows(columns(), rows.by_ref().take(n).collect());
                    keyed.run(&batch, &skolems, &mut subtrees);
                    if rows.len() == 0 {
                        break;
                    }
                }
                let streamed = Node::labeled(keyed.root(), subtrees);
                assert_eq!(
                    format!("{streamed:?}"),
                    format!("{:?}", grouped[0]),
                    "case {case}, template {template}"
                );
            }
        }
    }

    #[test]
    fn templates_whose_groups_grow_with_later_rows_are_not_row_keyed() {
        let label = Template::sym(
            "out",
            vec![Template::group(
                &["y"],
                Template::LabelVar {
                    var: "y".into(),
                    children: Vec::new(),
                },
            )],
        );
        let unkeyed = Template::sym(
            "out",
            vec![Template::group(&["a"], Template::elem_var("r", "t"))],
        );
        let two = Template::sym(
            "out",
            vec![
                Template::group(&["t"], Template::Var("t".into())),
                Template::Text("k".into()),
            ],
        );
        for template in [&label, &unkeyed, &two] {
            assert!(KeyedTree::of(template).is_none(), "{template}");
        }
        // why labels are excluded: Int(1) and Float(1.0) share one group,
        // whose second row adds a second label
        let tab = Tab::from_rows(
            vec!["y".into()],
            vec![
                vec![Value::Atom(Atom::Int(1))],
                vec![Value::Atom(Atom::Float(1.0))],
            ],
        );
        let skolems = SkolemRegistry::new();
        let funcs = FnRegistry::new();
        let forest = Forest::new();
        let tree = construct_tree(&tab, &label, &EvalCtx::local(&forest, &funcs, &skolems));
        assert_eq!(tree.children.len(), 2, "{tree:?}");
    }
}
