//! Information passing (Section 5.3, Fig. 9): "values of variables
//! passed from the left-hand side to the right-hand side" of a `DJoin`.
//!
//! Passing is by *substitution*: an outer binding the dependent fragment
//! references becomes an inline constant before the fragment ships
//! ([`substitute_env`]). Only atom-valued bindings inline; a tree-valued
//! or `Null` binding leaves its variable symbolic.
//!
//! Passing is also *set-oriented*: a `DJoin` whose dependent side is a
//! `Push` does not ship once per left row. [`PassedBindings::collect`]
//! reduces the left table to its distinct binding tuples over the
//! variables the fragment actually references ([`passed_vars`]), the
//! [`crate::PushHandler`] answers all of them at once, and the join
//! splices the per-binding tables back in left-row order.

use crate::eval::Env;
use crate::expr::{Alg, Operand, Pred};
use crate::tab::Tab;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::Arc;
use yat_model::{Atom, Edge, Pattern};

/// Inlines the atom-valued bindings of `env` that `plan` references as
/// constants. Variables the plan itself produces are never touched, and
/// an empty environment returns the very same `Arc`.
pub fn substitute_env(plan: &Arc<Alg>, env: &Env) -> Arc<Alg> {
    if env.is_empty() {
        return plan.clone();
    }
    match plan.as_ref() {
        Alg::Select { input, pred } => {
            let produced = input.out_vars().unwrap_or_default();
            let pred = subst_pred(pred, env, &produced);
            Alg::select(substitute_env(input, env), pred)
        }
        Alg::Join { left, right, pred } => {
            let mut produced = left.out_vars().unwrap_or_default();
            produced.extend(right.out_vars().unwrap_or_default());
            let pred = subst_pred(pred, env, &produced);
            Alg::join(substitute_env(left, env), substitute_env(right, env), pred)
        }
        Alg::Bind {
            input,
            filter,
            over,
        } => {
            // a filter variable bound in the environment becomes an
            // inline constant — the O2 wrapper then emits `where title =
            // "…"` (Fig. 9's nested-loop information passing)
            let filter = subst_filter(filter, env);
            let input = substitute_env(input, env);
            match over {
                Some(col) => Alg::bind_over(input, col.clone(), filter),
                None => Alg::bind(input, filter),
            }
        }
        Alg::Map { input, col, expr } => {
            let produced = input.out_vars().unwrap_or_default();
            Arc::new(Alg::Map {
                input: substitute_env(input, env),
                col: col.clone(),
                expr: subst_operand(expr, env, &produced),
            })
        }
        _ => {
            let kids = plan
                .children()
                .into_iter()
                .map(|c| substitute_env(c, env))
                .collect();
            Arc::new(plan.with_children(kids))
        }
    }
}

fn subst_pred(pred: &Pred, env: &Env, produced: &[String]) -> Pred {
    match pred {
        Pred::True => Pred::True,
        Pred::And(a, b) => Pred::And(
            Box::new(subst_pred(a, env, produced)),
            Box::new(subst_pred(b, env, produced)),
        ),
        Pred::Or(a, b) => Pred::Or(
            Box::new(subst_pred(a, env, produced)),
            Box::new(subst_pred(b, env, produced)),
        ),
        Pred::Not(p) => Pred::Not(Box::new(subst_pred(p, env, produced))),
        Pred::Cmp { op, left, right } => Pred::Cmp {
            op: *op,
            left: subst_operand(left, env, produced),
            right: subst_operand(right, env, produced),
        },
        Pred::Call { name, args } => Pred::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| subst_operand(a, env, produced))
                .collect(),
        },
    }
}

fn subst_operand(o: &Operand, env: &Env, produced: &[String]) -> Operand {
    match o {
        Operand::Var(v) if !produced.contains(v) => match env.get(v).and_then(Value::atom) {
            Some(a) => Operand::Const(a),
            None => o.clone(),
        },
        Operand::Call { name, args } => Operand::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| subst_operand(a, env, produced))
                .collect(),
        },
        _ => o.clone(),
    }
}

fn subst_filter(filter: &Pattern, env: &Env) -> Pattern {
    match filter {
        Pattern::TreeVar(v) => match env.get(v).and_then(Value::atom) {
            Some(a) => Pattern::constant(a),
            None => filter.clone(),
        },
        Pattern::Node { label, edges } => Pattern::Node {
            label: label.clone(),
            edges: edges
                .iter()
                .map(|e| Edge {
                    occ: e.occ,
                    star_var: e.star_var.clone(),
                    pattern: subst_filter(&e.pattern, env),
                })
                .collect(),
        },
        Pattern::Union(bs) => Pattern::Union(bs.iter().map(|b| subst_filter(b, env)).collect()),
        other => other.clone(),
    }
}

/// The variables of `plan` that [`substitute_env`] inlines when the
/// environment binds them: operand variables no input produces, and the
/// tree variables of `Bind` filters. Bindings of any other variable
/// cannot change what the plan ships, so they are not part of a
/// [`PassedBindings`] tuple.
pub fn passed_vars(plan: &Alg) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_passed(plan, &mut out);
    out
}

fn collect_passed(plan: &Alg, out: &mut BTreeSet<String>) {
    fn free(vars: Vec<&str>, produced: &[String], out: &mut BTreeSet<String>) {
        for v in vars {
            if !produced.iter().any(|p| p == v) {
                out.insert(v.to_string());
            }
        }
    }
    match plan {
        Alg::Select { input, pred } => {
            free(pred.vars(), &input.out_vars().unwrap_or_default(), out);
        }
        Alg::Join { left, right, pred } => {
            let mut produced = left.out_vars().unwrap_or_default();
            produced.extend(right.out_vars().unwrap_or_default());
            free(pred.vars(), &produced, out);
        }
        Alg::Map { input, expr, .. } => {
            free(expr.vars(), &input.out_vars().unwrap_or_default(), out);
        }
        Alg::Bind { filter, .. } => filter_tree_vars(filter, out),
        _ => {}
    }
    for child in plan.children() {
        collect_passed(child, out);
    }
}

fn filter_tree_vars(filter: &Pattern, out: &mut BTreeSet<String>) {
    match filter {
        Pattern::TreeVar(v) => {
            out.insert(v.clone());
        }
        Pattern::Node { edges, .. } => {
            for e in edges {
                filter_tree_vars(&e.pattern, out);
            }
        }
        Pattern::Union(bs) => {
            for b in bs {
                filter_tree_vars(b, out);
            }
        }
        Pattern::Ref(_) | Pattern::Wildcard => {}
    }
}

/// The distinct information-passing bindings of one dependent fragment:
/// a table over the variables the fragment references, one row per
/// distinct tuple, in first-occurrence order. A `None` cell is a binding
/// that stays symbolic (tree-valued or `Null`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassedBindings {
    /// The referenced variables that are in scope, in name order.
    pub vars: Vec<String>,
    /// The distinct tuples, aligned with `vars`.
    pub rows: Vec<Vec<Option<Atom>>>,
}

impl PassedBindings {
    /// The bindings a `DJoin` passes to `frag`: for every row of the
    /// left table `lt` (its columns shadow the outer `env`) the tuple of
    /// referenced values, reduced to the distinct tuples. Also returns,
    /// per left row, the ordinal of its tuple in [`PassedBindings::rows`].
    pub fn collect(lt: &Tab, env: &Env, frag: &Alg) -> (PassedBindings, Vec<usize>) {
        enum Slot<'a> {
            Col(usize),
            Outer(&'a Value),
        }
        let mut vars = Vec::new();
        let mut slots = Vec::new();
        for v in passed_vars(frag) {
            let slot = match (lt.col(&v), env.get(&v)) {
                (Some(i), _) => Slot::Col(i),
                (None, Some(value)) => Slot::Outer(value),
                (None, None) => continue,
            };
            vars.push(v);
            slots.push(slot);
        }
        let mut rows: Vec<Vec<Option<Atom>>> = Vec::new();
        let mut ordinals = Vec::with_capacity(lt.len());
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        for row in lt.rows() {
            let tuple: Vec<Option<Atom>> = slots
                .iter()
                .map(|s| match s {
                    Slot::Col(i) => row[*i].atom(),
                    Slot::Outer(value) => value.atom(),
                })
                .collect();
            let bucket = seen.entry(tuple_hash(&tuple)).or_default();
            let ordinal = match bucket.iter().find(|&&o| same_tuple(&rows[o], &tuple)) {
                Some(&o) => o,
                None => {
                    bucket.push(rows.len());
                    rows.push(tuple);
                    rows.len() - 1
                }
            };
            ordinals.push(ordinal);
        }
        (PassedBindings { vars, rows }, ordinals)
    }

    /// The one binding of no variables: a fragment that is passed
    /// nothing (an independent `Push`).
    pub fn unit() -> PassedBindings {
        PassedBindings {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    /// The single binding `env` passes to `frag` outside a `DJoin` into
    /// a `Push` (the environment is then usually empty).
    pub fn single(frag: &Alg, env: &Env) -> PassedBindings {
        let mut single = PassedBindings::unit();
        if !env.is_empty() {
            for v in passed_vars(frag) {
                if let Some(value) = env.get(&v) {
                    single.vars.push(v);
                    single.rows[0].push(value.atom());
                }
            }
        }
        single
    }

    /// The environment binding `ordinal` substitutes: its atom-valued
    /// cells (symbolic cells substitute nothing, so they are left out).
    pub fn env(&self, ordinal: usize) -> Env {
        self.vars
            .iter()
            .zip(&self.rows[ordinal])
            .filter_map(|(v, cell)| Some((v.clone(), Value::Atom(cell.clone()?))))
            .collect()
    }
}

/// What a [`crate::PushHandler`] answers a batch with.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// One table per binding, in [`PassedBindings::rows`] order.
    pub tabs: Vec<Tab>,
    /// Requests shipped to sources for the batch (for `EXPLAIN ANALYZE`).
    pub batches: u64,
}

/// Identity stricter than [`Atom`]'s value equality: `1` and `1.0`
/// substitute different constants, so they are different bindings.
fn same_atom(a: &Atom, b: &Atom) -> bool {
    match (a, b) {
        (Atom::Int(x), Atom::Int(y)) => x == y,
        (Atom::Float(x), Atom::Float(y)) => x.to_bits() == y.to_bits(),
        (Atom::Bool(x), Atom::Bool(y)) => x == y,
        (Atom::Str(x), Atom::Str(y)) => x == y,
        _ => false,
    }
}

fn same_tuple(a: &[Option<Atom>], b: &[Option<Atom>]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Some(x), Some(y)) => same_atom(x, y),
        (None, None) => true,
        _ => false,
    })
}

fn tuple_hash(tuple: &[Option<Atom>]) -> u64 {
    let mut h = yat_model::hash::Fnv64::new();
    for cell in tuple {
        match cell {
            Some(a) => a.key_hash_into(&mut h),
            None => h.write_u8(0),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use yat_model::Node;

    /// `<root> *class: artifact: tuple [ title: $<var> ]`, hand-built
    /// (the YATL parser lives above this crate).
    fn title_filter(root: &str, var: &str) -> Pattern {
        Pattern::sym(
            root,
            vec![Edge::star(Pattern::sym(
                "tuple",
                vec![Edge::one(Pattern::elem_var("title", var))],
            ))],
        )
    }

    fn env(pairs: &[(&str, Atom)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Atom(v.clone())))
            .collect()
    }

    fn artifacts_by_title() -> Arc<Alg> {
        Alg::select(
            Alg::bind(Alg::source("artifacts"), title_filter("set", "t2")),
            Pred::cmp(CmpOp::Eq, Operand::var("t2"), Operand::var("t")),
        )
    }

    #[test]
    fn predicates_substitute_free_vars_only() {
        let out = substitute_env(
            &artifacts_by_title(),
            &env(&[("t", Atom::Str("Nympheas".into()))]),
        );
        let Alg::Select { pred, .. } = out.as_ref() else {
            panic!()
        };
        // $t2 is produced inside, $t came from the environment
        assert_eq!(pred.to_string(), "$t2 = \"Nympheas\"");
    }

    #[test]
    fn filters_substitute_shared_vars() {
        let plan = Alg::bind(Alg::source("artifacts"), title_filter("set", "t"));
        let out = substitute_env(&plan, &env(&[("t", Atom::Str("X".into()))]));
        let Alg::Bind { filter, .. } = out.as_ref() else {
            panic!()
        };
        assert!(filter.to_string().contains("title[\"X\"]"), "{filter}");
    }

    #[test]
    fn tree_valued_bindings_stay_symbolic() {
        let plan = Alg::select(
            Alg::bind(
                Alg::source("d"),
                Pattern::sym("d", vec![Edge::star_iter("x", Pattern::Wildcard)]),
            ),
            Pred::var_eq("x", "w"),
        );
        let mut e = Env::new();
        e.insert("w".to_string(), Value::Tree(Node::sym("work", vec![])));
        let out = substitute_env(&plan, &e);
        let Alg::Select { pred, .. } = out.as_ref() else {
            panic!()
        };
        assert_eq!(pred.to_string(), "$x = $w", "tree values cannot inline");
    }

    #[test]
    fn empty_env_is_identity() {
        let plan = Alg::select(
            Alg::bind(
                Alg::source("d"),
                Pattern::sym("d", vec![Edge::star_iter("x", Pattern::Wildcard)]),
            ),
            Pred::eq_const("x", 1),
        );
        let out = substitute_env(&plan, &Env::new());
        assert!(Arc::ptr_eq(&plan, &out));
    }

    #[test]
    fn passed_vars_are_what_substitution_can_touch() {
        // the free predicate variable and the filter's tree variable,
        // never the star variable the filter itself iterates
        let plan = Alg::select(
            Alg::bind(
                Alg::source("works"),
                Pattern::sym(
                    "works",
                    vec![Edge::star_iter(
                        "w",
                        Pattern::sym("work", vec![Edge::one(Pattern::elem_var("title", "t2"))]),
                    )],
                ),
            ),
            Pred::var_eq("t2", "t"),
        );
        let vars: Vec<String> = passed_vars(&plan).into_iter().collect();
        assert_eq!(vars, ["t", "t2"]);
    }

    #[test]
    fn collect_keeps_distinct_tuples_in_first_occurrence_order() {
        let mut lt = Tab::new(vec!["t".into(), "noise".into()]);
        let title = |s: &str| Value::Tree(Node::elem("title", s));
        for (t, n) in [("a", 1), ("b", 2), ("a", 3)] {
            lt.push(vec![title(t), Value::Atom(Atom::Int(n))]);
        }
        lt.push(vec![Value::Null, Value::Atom(Atom::Int(4))]);
        lt.push(vec![
            Value::Tree(Node::sym("work", vec![])),
            Value::Atom(Atom::Int(5)),
        ]);
        let (b, ordinals) = PassedBindings::collect(&lt, &Env::new(), &artifacts_by_title());
        // `noise` is not referenced; Null and the atomless tree are the
        // same symbolic binding
        assert_eq!(b.vars, ["t"]);
        assert_eq!(
            b.rows,
            vec![
                vec![Some(Atom::Str("a".into()))],
                vec![Some(Atom::Str("b".into()))],
                vec![None]
            ]
        );
        assert_eq!(ordinals, [0, 1, 0, 2, 2]);
        assert_eq!(b.env(0), env(&[("t", Atom::Str("a".into()))]));
        assert!(b.env(2).is_empty());
    }

    #[test]
    fn value_equal_atoms_of_different_types_are_different_bindings() {
        let mut lt = Tab::new(vec!["t".into()]);
        lt.push(vec![Value::Atom(Atom::Int(1))]);
        lt.push(vec![Value::Atom(Atom::Float(1.0))]);
        let (b, ordinals) = PassedBindings::collect(&lt, &Env::new(), &artifacts_by_title());
        assert_eq!(b.rows.len(), 2, "`1` and `1.0` ship different constants");
        assert_eq!(ordinals, [0, 1]);
    }

    #[test]
    fn left_columns_shadow_the_outer_environment() {
        let mut lt = Tab::new(vec!["t".into()]);
        lt.push(vec![Value::Atom(Atom::Str("inner".into()))]);
        let outer = env(&[("t", Atom::Str("outer".into()))]);
        let (b, _) = PassedBindings::collect(&lt, &outer, &artifacts_by_title());
        assert_eq!(b.rows, vec![vec![Some(Atom::Str("inner".into()))]]);
        // without the column, the outer binding passes through
        let mut other = Tab::new(vec!["x".into()]);
        other.push(vec![Value::Null]);
        let (b, _) = PassedBindings::collect(&other, &outer, &artifacts_by_title());
        assert_eq!(b.rows, vec![vec![Some(Atom::Str("outer".into()))]]);
    }
}
