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
use crate::passing::{BatchAnswer, PassedBindings};
use crate::tab::Tab;
use crate::template::Template;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use yat_model::{Atom, Forest, MatchOptions, Model, Node, Tree};
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
    /// Structural-index cache for local `Bind` operators; when set,
    /// `Bind` over a wide collection tree seeds candidates from a
    /// [`yat_model::TreeIndex`] instead of walking every subtree
    /// (`None` = always walk — the scan oracle).
    pub bind_index: Option<&'a crate::bindex::BindIndexCache>,
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
            bind_index: None,
        }
    }

    /// The same context with a span collector attached.
    pub fn with_obs(mut self, obs: &'a Collector) -> Self {
        self.obs = Some(obs);
        self
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
        self.tab_named(|| op.describe())
    }

    /// The tree, or a kind error mentioning `op`.
    pub fn tree(self, op: &Alg) -> Result<Tree, EvalError> {
        self.tree_named(|| op.describe())
    }

    /// Like [`EvalOut::tab`] but with a lazily-built operator description
    /// (the VM carries pre-rendered labels instead of `Alg` nodes).
    pub(crate) fn tab_named(self, op_desc: impl FnOnce() -> String) -> Result<Tab, EvalError> {
        match self {
            EvalOut::Tab(t) => Ok(t),
            EvalOut::Tree(_) => Err(EvalError::Kind {
                op: op_desc(),
                expected: "Tab",
            }),
        }
    }

    /// Like [`EvalOut::tree`] but with a lazily-built operator description.
    pub(crate) fn tree_named(self, op_desc: impl FnOnce() -> String) -> Result<Tree, EvalError> {
        match self {
            EvalOut::Tree(t) => Ok(t),
            EvalOut::Tab(_) => Err(EvalError::Kind {
                op: op_desc(),
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
            over,
        } => match over {
            None => {
                let tree = eval_env(input, ctx, env)?.tree(plan)?;
                Ok(EvalOut::Tab(bind_tree(&tree, filter, env, ctx)))
            }
            Some(col) => {
                let tab = eval_env(input, ctx, env)?.tab(plan)?;
                Ok(EvalOut::Tab(bind_over(&tab, col, filter, env, ctx)?))
            }
        },

        Alg::TreeOp { input, template } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tree(construct_tree(&tab, template, ctx)))
        }

        Alg::Select { input, pred } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            let mut out = Tab::new(tab.columns().to_vec());
            for row in tab.rows() {
                if eval_pred(pred, &tab, row, env, ctx)? {
                    out.push(row.to_vec());
                }
            }
            Ok(EvalOut::Tab(out))
        }

        Alg::Project { input, cols } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(tab.project(cols)))
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
            Ok(EvalOut::Tab(union_tabs(lt, &rt, || plan.describe())?))
        }

        Alg::Intersect { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(intersect_tabs(&lt, &rt, || plan.describe())?))
        }

        Alg::Diff { left, right } => {
            let lt = eval_env(left, ctx, env)?.tab(plan)?;
            let rt = eval_env(right, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(diff_tabs(&lt, &rt, || plan.describe())?))
        }

        Alg::Group { input, keys } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(group_tab(&tab, keys)?))
        }

        Alg::Sort { input, keys } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            Ok(EvalOut::Tab(sort_tab(tab, keys)?))
        }

        Alg::Map { input, col, expr } => {
            let tab = eval_env(input, ctx, env)?.tab(plan)?;
            let mut cols = tab.columns().to_vec();
            cols.push(col.clone());
            let mut out = Tab::new(cols);
            for row in tab.rows() {
                let v = eval_operand(expr, &tab, row, env, ctx)?;
                let mut newrow = row.to_vec();
                newrow.push(v);
                out.push(newrow);
            }
            Ok(EvalOut::Tab(out))
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
    match (right, ctx.push) {
        (Alg::Push { source, plan: frag }, Some(handler)) => {
            let label = || right.describe();
            djoin_push(lt, env, source, frag, label, handler, ctx.obs)
        }
        _ => djoin_loop(lt, env, |inner_env| {
            eval_env(right, ctx, inner_env)?.tab(djoin)
        }),
    }
}

// ---------------------------------------------------------------------
// Shared operator kernels.
//
// Both engines — the recursive interpreter above and the bytecode VM in
// `crate::vm` — execute operators through the helpers below, so they
// cannot drift apart on data-plane semantics (row order, dedup
// discipline, environment constraining). What the VM compiles away is
// the *control* plane: AST dispatch, per-row column resolution, and
// predicate/operand recursion.
// ---------------------------------------------------------------------

/// `MATCH` options induced by an evaluation context.
pub(crate) fn match_opts<'a>(ctx: &EvalCtx<'a>) -> MatchOptions<'a> {
    MatchOptions {
        model: ctx.model,
        forest: ctx.catalog.deref_forest(),
        closed: false,
    }
}

/// `Bind` over a tree: match the filter, constrain by outer bindings.
/// With an index cache in the context, wide collection trees are matched
/// through a structural index (identical rows, fewer subtrees walked);
/// each indexed evaluation leaves an `index` event for `EXPLAIN ANALYZE`.
pub(crate) fn bind_tree(
    tree: &Tree,
    filter: &yat_model::Filter,
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Tab {
    let opts = match_opts(ctx);
    let rows = match ctx.bind_index.and_then(|cache| cache.get_or_build(tree)) {
        Some(index) => {
            let (rows, stats) = yat_model::match_filter_indexed(tree, filter, opts, &index);
            if let Some(obs) = ctx.obs {
                let root = tree.label.as_sym().unwrap_or("?");
                obs.event(
                    yat_obs::kind::INDEX,
                    format!("bind {root} @local"),
                    vec![
                        (
                            yat_obs::attr::PROBES,
                            yat_obs::AttrValue::Uint(stats.covered as u64),
                        ),
                        (
                            yat_obs::attr::CANDIDATES,
                            yat_obs::AttrValue::Uint(stats.candidates),
                        ),
                        (
                            yat_obs::attr::SCANNED,
                            yat_obs::AttrValue::Uint(if stats.covered {
                                stats.candidates
                            } else {
                                stats.collection
                            }),
                        ),
                        (
                            yat_obs::attr::COLLECTION_SIZE,
                            yat_obs::AttrValue::Uint(stats.collection),
                        ),
                        (
                            yat_obs::attr::ROWS_OUT,
                            yat_obs::AttrValue::Uint(stats.rows),
                        ),
                    ],
                );
            }
            rows
        }
        None => yat_model::match_filter(tree, filter, opts),
    };
    let mut tab = Tab::from_binding_rows(filter.variables(), rows);
    constrain_env(&mut tab, env);
    tab
}

/// `Bind … over col`: re-match the filter against the trees held in one
/// column of an existing table, appending the newly bound variables.
/// Variables shared with existing columns act as equality constraints.
pub(crate) fn bind_over(
    tab: &Tab,
    col: &str,
    filter: &yat_model::Filter,
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<Tab, EvalError> {
    let opts = match_opts(ctx);
    let fvars = filter.variables();
    let ci = tab
        .col(col)
        .ok_or_else(|| EvalError::UnknownColumn(col.to_string()))?;
    // output columns: input columns + new filter vars
    let mut cols: Vec<String> = tab.columns().to_vec();
    let new_vars: Vec<String> = fvars
        .iter()
        .filter(|v| !cols.contains(v))
        .cloned()
        .collect();
    let shared: Vec<String> = fvars.iter().filter(|v| cols.contains(v)).cloned().collect();
    cols.extend(new_vars.iter().cloned());
    let mut out = Tab::new(cols);
    for row in tab.rows() {
        let targets: Vec<Tree> = match &row[ci] {
            Value::Tree(t) => vec![t.clone()],
            Value::Coll(c) => c.iter().filter_map(|v| v.as_tree().cloned()).collect(),
            _ => vec![],
        };
        for target in targets {
            for brow in yat_model::match_filter(&target, filter, opts) {
                let mut vals: BTreeMap<String, Value> = brow
                    .into_iter()
                    .map(|(k, v)| (k, Value::from_binding(v)))
                    .collect();
                // shared variables act as equality constraints
                let consistent = shared.iter().all(|v| match (vals.get(v), tab.col(v)) {
                    (Some(nv), Some(i)) => nv.query_eq(&row[i]),
                    _ => true,
                });
                if !consistent {
                    continue;
                }
                let mut newrow: Vec<Value> = row.to_vec();
                for v in &new_vars {
                    newrow.push(vals.remove(v).unwrap_or(Value::Null));
                }
                out.push(newrow);
            }
        }
    }
    constrain_env(&mut out, env);
    Ok(out)
}

/// `Tree` construction: instantiate a template over all rows. A template
/// instantiation at the root yields exactly one tree for Sym roots;
/// grouped roots may yield several, which are wrapped under a
/// `collection` node to keep the output a single tree.
pub(crate) fn construct_tree(tab: &Tab, template: &Template, ctx: &EvalCtx<'_>) -> Tree {
    let all: Vec<usize> = (0..tab.len()).collect();
    let trees = instantiate(template, &all, tab, ctx);
    match trees.len() {
        1 => trees.into_iter().next().expect("len checked"),
        _ => Node::sym("collection", trees),
    }
}

/// The `DJoin` outer loop: for each left row, evaluate the right side
/// under the extended environment (via `eval_right` — the interpreter
/// recurses, the VM runs a compiled sub-program) and splice its new
/// columns onto the left row.
pub(crate) fn djoin_loop(
    lt: &Tab,
    env: &Env,
    mut eval_right: impl FnMut(&Env) -> Result<Tab, EvalError>,
) -> Result<Tab, EvalError> {
    let mut out: Option<Tab> = None;
    for row in lt.rows() {
        let mut inner_env = env.clone();
        for (i, c) in lt.columns().iter().enumerate() {
            inner_env.insert(c.clone(), row[i].clone());
        }
        let rt = eval_right(&inner_env)?;
        splice_right(&mut out, lt, row, &rt);
    }
    // no left rows: columns are the left's alone (right was never
    // evaluated; its columns are unknowable without evaluation)
    Ok(out.unwrap_or_else(|| Tab::new(lt.columns().to_vec())))
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
/// [`djoin_loop`] shipping the fragment once per row.
///
/// The whole exchange records one `operator` span for the `Push` node
/// (`label` is its `describe()`), carrying the left cardinality, the
/// distinct bindings and the requests the handler shipped.
pub(crate) fn djoin_push(
    lt: &Tab,
    env: &Env,
    source: &str,
    frag: &Arc<Alg>,
    label: impl FnOnce() -> String,
    handler: &dyn PushHandler,
    obs: Option<&Collector>,
) -> Result<Tab, EvalError> {
    if lt.is_empty() {
        return Ok(Tab::new(lt.columns().to_vec()));
    }
    let mut span = obs.map(|o| o.span(yat_obs::kind::OPERATOR, label()));
    let (bindings, ordinals) = PassedBindings::collect(lt, env, frag);
    let answer = match handler.execute_push_batch(source, frag, &bindings) {
        Ok(answer) if answer.tabs.len() == bindings.rows.len() => Ok(answer),
        Ok(answer) => Err(EvalError::Function {
            name: source.to_string(),
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
pub(crate) fn union_tabs(
    lt: Tab,
    rt: &Tab,
    op_desc: impl FnOnce() -> String,
) -> Result<Tab, EvalError> {
    check_compat(&lt, rt, op_desc)?;
    let mut out = lt;
    for row in rt.rows() {
        out.push(row.to_vec());
    }
    out.dedup();
    Ok(out)
}

/// Set intersection via hashed membership, preserving left order.
pub(crate) fn intersect_tabs(
    lt: &Tab,
    rt: &Tab,
    op_desc: impl FnOnce() -> String,
) -> Result<Tab, EvalError> {
    check_compat(lt, rt, op_desc)?;
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
pub(crate) fn diff_tabs(
    lt: &Tab,
    rt: &Tab,
    op_desc: impl FnOnce() -> String,
) -> Result<Tab, EvalError> {
    check_compat(lt, rt, op_desc)?;
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
pub(crate) fn group_tab(tab: &Tab, keys: &[String]) -> Result<Tab, EvalError> {
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
pub(crate) fn sort_tab(
    tab: Tab,
    keys: &[(String, crate::expr::SortDir)],
) -> Result<Tab, EvalError> {
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

fn check_compat(l: &Tab, r: &Tab, op_desc: impl FnOnce() -> String) -> Result<(), EvalError> {
    if l.columns() != r.columns() {
        return Err(EvalError::Incompatible {
            op: op_desc(),
            message: format!("column mismatch: {:?} vs {:?}", l.columns(), r.columns()),
        });
    }
    Ok(())
}

/// Evaluates an operand against a row (+outer env).
pub fn eval_operand(
    op: &Operand,
    tab: &Tab,
    row: &[Value],
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<Value, EvalError> {
    match op {
        Operand::Var(v) => match tab.col(v) {
            Some(i) => Ok(row[i].clone()),
            None => env
                .get(v)
                .cloned()
                .ok_or_else(|| EvalError::UnknownColumn(v.clone())),
        },
        Operand::Const(a) => Ok(Value::Atom(a.clone())),
        Operand::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_operand(a, tab, row, env, ctx))
                .collect::<Result<_, _>>()?;
            ctx.funcs.call(name, &vals)
        }
    }
}

/// Evaluates a predicate against a row (+outer env).
///
/// Comparison follows the query semantics of [`Value::query_eq`]; ordered
/// comparisons between values lacking a numeric/string interpretation are
/// `false` (three-valued logic collapsed to false, as in SQL).
pub fn eval_pred(
    pred: &Pred,
    tab: &Tab,
    row: &[Value],
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<bool, EvalError> {
    match pred {
        Pred::True => Ok(true),
        Pred::And(a, b) => {
            Ok(eval_pred(a, tab, row, env, ctx)? && eval_pred(b, tab, row, env, ctx)?)
        }
        Pred::Or(a, b) => {
            Ok(eval_pred(a, tab, row, env, ctx)? || eval_pred(b, tab, row, env, ctx)?)
        }
        Pred::Not(p) => Ok(!eval_pred(p, tab, row, env, ctx)?),
        Pred::Cmp { op, left, right } => {
            let l = eval_operand(left, tab, row, env, ctx)?;
            let r = eval_operand(right, tab, row, env, ctx)?;
            Ok(cmp_values(*op, &l, &r))
        }
        Pred::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_operand(a, tab, row, env, ctx))
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

/// The comparison kernel both engines share: query equality for `=`/`!=`
/// ([`Value::query_eq`]); ordered comparisons through the atom total
/// order, with values lacking a numeric/string interpretation comparing
/// `false` (three-valued logic collapsed to false, as in SQL). Borrows
/// both operands — the VM's fused compare relies on that to skip operand
/// materialization entirely.
pub(crate) fn cmp_values(op: CmpOp, l: &Value, r: &Value) -> bool {
    match op {
        CmpOp::Eq => l.query_eq(r),
        CmpOp::Ne => !l.query_eq(r),
        _ => match (l.atom(), r.atom()) {
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
pub(crate) fn join(
    lt: &Tab,
    rt: &Tab,
    pred: &Pred,
    env: &Env,
    ctx: &EvalCtx<'_>,
) -> Result<Tab, EvalError> {
    let cols = Tab::joined_columns(lt, rt);
    let joined_tab_for_pred = Tab::new(cols.clone());
    let mut out = Tab::new(cols);

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
                if eval_pred(pred, &joined_tab_for_pred, &row, env, ctx)? {
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
            if eval_pred(&residual, &joined_tab_for_pred, &row, env, ctx)? {
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

/// Instantiates a template over the rows `rows` (indices into `tab`),
/// producing the constructed forest in order.
pub fn instantiate(tmpl: &Template, rows: &[usize], tab: &Tab, ctx: &EvalCtx<'_>) -> Vec<Tree> {
    match tmpl {
        Template::Text(t) => vec![Node::atom(Atom::Str(t.clone()))],
        Template::Sym { name, children } => {
            let kids: Vec<Tree> = children
                .iter()
                .flat_map(|c| instantiate(c, rows, tab, ctx))
                .collect();
            vec![Node::sym(name.clone(), kids)]
        }
        Template::Var(v) => {
            let Some(ci) = tab.col(v) else {
                return vec![];
            };
            // distinct values among the in-scope rows, first-occurrence
            // order; keyed by structural hash, confirmed by key_eq
            let mut seen: std::collections::HashMap<u64, Vec<usize>> =
                std::collections::HashMap::new();
            let mut out = Vec::new();
            for &ri in rows {
                let val = &tab.row(ri)[ci];
                let bucket = seen.entry(val.key_hash()).or_default();
                if bucket.iter().any(|&k| tab.row(k)[ci].key_eq(val)) {
                    continue;
                }
                bucket.push(ri);
                out.extend(val.splice());
            }
            out
        }
        Template::LabelVar { var, children } => {
            let Some(ci) = tab.col(var) else {
                return vec![];
            };
            let mut seen = std::collections::BTreeSet::new();
            let mut out = Vec::new();
            for &ri in rows {
                let val = &tab.row(ri)[ci];
                let label = match val {
                    Value::Label(l) => l.clone(),
                    other => match other.atom() {
                        Some(a) => a.to_string(),
                        None => continue,
                    },
                };
                if seen.insert(label.clone()) {
                    let group: Vec<usize> = rows
                        .iter()
                        .copied()
                        .filter(|&r| match &tab.row(r)[ci] {
                            Value::Label(l) => *l == label,
                            other => other
                                .atom()
                                .map(|a| a.to_string() == label)
                                .unwrap_or(false),
                        })
                        .collect();
                    let kids: Vec<Tree> = children
                        .iter()
                        .flat_map(|c| instantiate(c, &group, tab, ctx))
                        .collect();
                    out.push(Node::sym(label, kids));
                }
            }
            out
        }
        Template::Group { key, skolem, body } => {
            let kidx: Vec<Option<usize>> = key.iter().map(|k| tab.col(k)).collect();
            // hashed grouping over the (possibly missing) key columns;
            // first-occurrence order, hash hits confirmed against the
            // group's first member
            let gk_hash = |ri: usize| {
                use std::hash::Hasher;
                let mut h = yat_model::hash::Fnv64::new();
                h.write_u64(kidx.len() as u64);
                for i in &kidx {
                    match i {
                        Some(i) => {
                            h.write_u8(1);
                            tab.row(ri)[*i].key_hash_into(&mut h);
                        }
                        None => h.write_u8(0),
                    }
                }
                h.finish()
            };
            let gk_eq = |a: usize, b: usize| {
                kidx.iter().all(|i| match i {
                    Some(i) => tab.row(a)[*i].key_eq(&tab.row(b)[*i]),
                    None => true,
                })
            };
            let mut buckets: std::collections::HashMap<u64, Vec<usize>> =
                std::collections::HashMap::with_capacity(rows.len());
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for &ri in rows {
                let bucket = buckets.entry(gk_hash(ri)).or_default();
                match bucket.iter().copied().find(|&g| gk_eq(groups[g][0], ri)) {
                    Some(g) => groups[g].push(ri),
                    None => {
                        bucket.push(groups.len());
                        groups.push(vec![ri]);
                    }
                }
            }
            let mut out = Vec::new();
            for members in &groups {
                let built = instantiate(body, members, tab, ctx);
                match skolem {
                    Some(name) => {
                        let first = members[0];
                        let args: Vec<Value> = kidx
                            .iter()
                            .map(|i| match i {
                                Some(i) => tab.row(first)[*i].clone(),
                                None => Value::Null,
                            })
                            .collect();
                        let oid = ctx.skolems.apply(name, &args);
                        out.push(Node::oid(oid, built));
                    }
                    None => out.extend(built),
                }
            }
            out
        }
    }
}
