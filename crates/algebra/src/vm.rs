//! The batched bytecode VM: executes compiled [`Program`]s.
//!
//! [`run`] drives a compiled plan over a stack of intermediate results —
//! one push/pop per *operator*, not per row — and evaluates `Select`/
//! `Map` expression bytecode over row batches of [`BATCH_ROWS`] rows.
//! Column names are resolved against the input table **once per
//! instruction execution** (the interpreter re-resolves on every row,
//! a linear scan per access); literals come from the program's constant
//! pool; fused compares ([`mod@crate::compile`]'s `CmpRef`) read both
//! operands by reference, where the interpreter clones them on every
//! row; short-circuit `AND`/`OR` are conditional jumps, so a
//! short-circuited operand is never evaluated — exactly matching the
//! interpreter's error semantics.
//!
//! The VM owns no data-plane code: every instruction body calls the same
//! kernels in `crate::eval` the interpreter uses, which is what makes
//! the interpreter a meaningful semantics oracle (`tests/differential.rs`
//! holds the engines to identical answers *and* identical per-source
//! traffic over hundreds of seeded plans).
//!
//! When the evaluation context carries a span collector, each
//! instruction execution records an `operator` span (like the
//! interpreter), and a successful run flushes one `vm` event per
//! instruction carrying its total batch and output-row counters — the
//! raw material of the `EXPLAIN ANALYZE` "compiled program" section.
//!
//! # Example
//!
//! ```
//! use yat_algebra::{compile, vm, Alg, EvalCtx, FnRegistry, SkolemRegistry};
//! use yat_model::{Edge, Forest, Node, Pattern};
//!
//! let mut forest = Forest::new();
//! forest.insert("doc", Node::sym("doc", vec![Node::sym("x", vec![Node::atom("hi")])]));
//! let plan = Alg::bind(
//!     Alg::source("doc"),
//!     Pattern::sym("doc", vec![Edge::star(Pattern::elem_var("x", "x"))]),
//! );
//!
//! let program = compile(&plan); // compile once …
//! let funcs = FnRegistry::with_builtins();
//! let skolems = SkolemRegistry::new();
//! let ctx = EvalCtx::local(&forest, &funcs, &skolems);
//! for _ in 0..3 {
//!     // … execute many times (also safe concurrently: `Program` is
//!     // `Send + Sync` and `run` keeps all mutable state local).
//!     let out = vm::run(&program, &ctx, &Default::default()).unwrap();
//!     assert_eq!(out.as_tab().unwrap().len(), 1);
//! }
//! ```

pub use crate::compile::BATCH_ROWS;
use crate::compile::{EOp, ExprProg, ORef, OpKind, Program, Step};
use crate::error::EvalError;
use crate::eval::{self, Env, EvalCtx, EvalOut};
use crate::tab::Tab;
use crate::value::Value;
use yat_model::Atom;
use yat_obs::{attr, kind, AttrValue};

/// Executes a compiled program under outer bindings `env`, returning the
/// same [`EvalOut`] the interpreter would for the source plan.
pub fn run(program: &Program, ctx: &EvalCtx<'_>, env: &Env) -> Result<EvalOut, EvalError> {
    // (batches, rows) per global instruction id, across sub-programs
    let mut counters = vec![(0u64, 0u64); program.op_count()];
    let out = run_program(program, ctx, env, &mut counters);
    if out.is_ok() {
        if let Some(obs) = ctx.obs {
            flush_counters(program, &counters, obs);
        }
    }
    out
}

fn run_program(
    program: &Program,
    ctx: &EvalCtx<'_>,
    env: &Env,
    counters: &mut [(u64, u64)],
) -> Result<EvalOut, EvalError> {
    let mut stack: Vec<EvalOut> = Vec::new();
    for step in &program.steps {
        let out = exec_step(program, step, &mut stack, ctx, env, counters)?;
        stack.push(out);
    }
    Ok(stack
        .pop()
        .expect("a program emits at least one instruction"))
}

/// Executes one instruction with the same span bookkeeping as
/// [`eval::eval_env`]: an `operator` span labeled with the source
/// operator's description, recording output cardinality or the error.
fn exec_step(
    program: &Program,
    step: &Step,
    stack: &mut Vec<EvalOut>,
    ctx: &EvalCtx<'_>,
    env: &Env,
    counters: &mut [(u64, u64)],
) -> Result<EvalOut, EvalError> {
    let Some(obs) = ctx.obs else {
        return exec_kind(program, step, stack, ctx, env, counters);
    };
    let mut span = obs.span(kind::OPERATOR, step.label.clone());
    match exec_kind(program, step, stack, ctx, env, counters) {
        Ok(out) => {
            let rows = match &out {
                EvalOut::Tab(t) => t.len() as u64,
                EvalOut::Tree(_) => 1,
            };
            span.record_u64(attr::ROWS_OUT, rows);
            Ok(out)
        }
        Err(e) => {
            span.record_str(attr::ERROR, e.to_string());
            Err(e)
        }
    }
}

fn exec_kind(
    program: &Program,
    step: &Step,
    stack: &mut Vec<EvalOut>,
    ctx: &EvalCtx<'_>,
    env: &Env,
    counters: &mut [(u64, u64)],
) -> Result<EvalOut, EvalError> {
    let pop = |stack: &mut Vec<EvalOut>| stack.pop().expect("compiler emitted operand");
    let pop_tab = |stack: &mut Vec<EvalOut>| pop(stack).tab_named(|| step.label.clone());
    let mut batches = 1u64; // non-batched instructions count one batch per execution
    let out = match &step.kind {
        OpKind::Source { source, name } => ctx
            .catalog
            .document(source.as_deref(), name)
            .map(EvalOut::Tree)
            .ok_or_else(|| EvalError::UnknownSource {
                source: source.clone(),
                name: name.clone(),
            })?,
        OpKind::Bind { filter } => {
            let tree = pop(stack).tree_named(|| step.label.clone())?;
            EvalOut::Tab(eval::bind_tree(&tree, filter, env, ctx))
        }
        OpKind::BindOver { col, filter } => {
            let tab = pop_tab(stack)?;
            EvalOut::Tab(eval::bind_over(&tab, col, filter, env, ctx)?)
        }
        OpKind::MakeTree { template } => {
            let tab = pop_tab(stack)?;
            EvalOut::Tree(eval::construct_tree(&tab, template, ctx))
        }
        OpKind::Select { pred } => {
            let tab = pop_tab(stack)?;
            let (out, nbatches) = exec_select(program, pred, &tab, ctx, env)?;
            batches = nbatches;
            EvalOut::Tab(out)
        }
        OpKind::Project { cols } => {
            let tab = pop_tab(stack)?;
            EvalOut::Tab(tab.project(cols))
        }
        OpKind::Join { pred } => {
            let rt = pop_tab(stack)?;
            let lt = pop_tab(stack)?;
            EvalOut::Tab(eval::join(&lt, &rt, pred, env, ctx)?)
        }
        OpKind::DJoin { sub } => {
            let lt = pop_tab(stack)?;
            // a sub-program that is nothing but a PUSH passes its
            // bindings set-oriented, exactly as the interpreter does
            let out = match (sub.steps.as_slice(), ctx.push) {
                (
                    [push @ Step {
                        kind: OpKind::Push { source, plan },
                        ..
                    }],
                    Some(handler),
                ) => {
                    let label = || push.label.clone();
                    let out = eval::djoin_push(&lt, env, source, plan, label, handler, ctx.obs)?;
                    if !lt.is_empty() {
                        counters[push.id].0 += 1;
                        counters[push.id].1 += out.len() as u64;
                    }
                    out
                }
                _ => eval::djoin_loop(&lt, env, |inner_env| {
                    run_program(sub, ctx, inner_env, counters)?.tab_named(|| step.label.clone())
                })?,
            };
            EvalOut::Tab(out)
        }
        OpKind::Union => {
            let rt = pop_tab(stack)?;
            let lt = pop_tab(stack)?;
            EvalOut::Tab(eval::union_tabs(lt, &rt, || step.label.clone())?)
        }
        OpKind::Intersect => {
            let rt = pop_tab(stack)?;
            let lt = pop_tab(stack)?;
            EvalOut::Tab(eval::intersect_tabs(&lt, &rt, || step.label.clone())?)
        }
        OpKind::Diff => {
            let rt = pop_tab(stack)?;
            let lt = pop_tab(stack)?;
            EvalOut::Tab(eval::diff_tabs(&lt, &rt, || step.label.clone())?)
        }
        OpKind::Group { keys } => {
            let tab = pop_tab(stack)?;
            EvalOut::Tab(eval::group_tab(&tab, keys)?)
        }
        OpKind::Sort { keys } => {
            let tab = pop_tab(stack)?;
            EvalOut::Tab(eval::sort_tab(tab, keys)?)
        }
        OpKind::Map { col, expr } => {
            let tab = pop_tab(stack)?;
            let (out, nbatches) = exec_map(program, expr, &tab, col, ctx, env)?;
            batches = nbatches;
            EvalOut::Tab(out)
        }
        // the fragment stays an uncompiled `Alg`: the handler's
        // environment substitution, cache signatures and wire bytes must
        // be identical to the interpreter's
        OpKind::Push { source, plan } => match ctx.push {
            Some(handler) => EvalOut::Tab(handler.execute_push(source, plan, env)?),
            None => eval::eval_env(plan, ctx, env)?,
        },
    };
    let rows = match &out {
        EvalOut::Tab(t) => t.len() as u64,
        EvalOut::Tree(_) => 1,
    };
    counters[step.id].0 += batches;
    counters[step.id].1 += rows;
    Ok(out)
}

/// How a `Load` resolves for the current instruction execution: computed
/// once per (program, table, environment), not once per row.
#[derive(Clone)]
enum Slot {
    /// The name is a column of the input table.
    Col(usize),
    /// The name is an outer binding (`DJoin` environment).
    Bound(Value),
    /// Unresolved: executing the `Load` raises `UnknownColumn` — but
    /// only if it executes, so a short-circuited operand may reference a
    /// missing column without failing, as under the interpreter.
    Missing,
}

/// Resolves the names an expression actually loads, mirroring
/// [`eval::eval_operand`]'s order: table column first, then environment.
fn resolve(expr: &ExprProg, program: &Program, tab: &Tab, env: &Env) -> Vec<Slot> {
    let mut slots = vec![Slot::Missing; program.names.len()];
    for &ni in &expr.used_names {
        let name = program.names[ni].as_str();
        slots[ni] = match tab.col(name) {
            Some(i) => Slot::Col(i),
            None => match env.get(name) {
                Some(v) => Slot::Bound(v.clone()),
                None => Slot::Missing,
            },
        };
    }
    slots
}

/// Materializes the constant pool as values, once per instruction
/// execution: `Const` pushes clone from here, and fused compares borrow
/// from here without cloning at all.
fn const_values(program: &Program) -> Vec<Value> {
    program
        .consts
        .iter()
        .map(|a| Value::Atom(a.clone()))
        .collect()
}

fn exec_select(
    program: &Program,
    pred: &ExprProg,
    tab: &Tab,
    ctx: &EvalCtx<'_>,
    env: &Env,
) -> Result<(Tab, u64), EvalError> {
    let slots = resolve(pred, program, tab, env);
    let consts = const_values(program);
    let mut stack: Vec<Value> = Vec::with_capacity(pred.max_stack);
    let mut out = Tab::new(tab.columns().to_vec());
    let mut batches = 0u64;
    let mut start = 0;
    while start < tab.len() {
        let end = (start + BATCH_ROWS).min(tab.len());
        batches += 1;
        for ri in start..end {
            let row = tab.row(ri);
            if is_true(&eval_expr(
                pred, program, &slots, &consts, row, &mut stack, ctx,
            )?) {
                out.push(row.to_vec());
            }
        }
        start = end;
    }
    Ok((out, batches))
}

fn exec_map(
    program: &Program,
    expr: &ExprProg,
    tab: &Tab,
    col: &str,
    ctx: &EvalCtx<'_>,
    env: &Env,
) -> Result<(Tab, u64), EvalError> {
    let slots = resolve(expr, program, tab, env);
    let consts = const_values(program);
    let mut stack: Vec<Value> = Vec::with_capacity(expr.max_stack);
    let mut cols = tab.columns().to_vec();
    cols.push(col.to_string());
    let mut out = Tab::new(cols);
    let mut batches = 0u64;
    let mut start = 0;
    while start < tab.len() {
        let end = (start + BATCH_ROWS).min(tab.len());
        batches += 1;
        for ri in start..end {
            let row = tab.row(ri);
            let v = eval_expr(expr, program, &slots, &consts, row, &mut stack, ctx)?;
            let mut newrow = row.to_vec();
            newrow.push(v);
            out.push(newrow);
        }
        start = end;
    }
    Ok((out, batches))
}

/// Predicate bytecode always leaves a boolean (by construction of the
/// compiler); anything else is treated as false, matching the
/// interpreter's collapsed three-valued logic.
fn is_true(v: &Value) -> bool {
    matches!(v, Value::Atom(Atom::Bool(true)))
}

/// Resolves a fused-compare operand to a borrowed value; the fused path
/// never clones operands, which is its point.
fn ref_value<'v>(
    r: &ORef,
    slots: &'v [Slot],
    consts: &'v [Value],
    row: &'v [Value],
    program: &Program,
) -> Result<&'v Value, EvalError> {
    match r {
        ORef::Const(i) => Ok(&consts[*i]),
        ORef::Slot(i) => match &slots[*i] {
            Slot::Col(c) => Ok(&row[*c]),
            Slot::Bound(v) => Ok(v),
            Slot::Missing => Err(EvalError::UnknownColumn(program.names[*i].to_string())),
        },
    }
}

/// Runs expression bytecode for one row on a reusable value stack.
fn eval_expr(
    expr: &ExprProg,
    program: &Program,
    slots: &[Slot],
    consts: &[Value],
    row: &[Value],
    stack: &mut Vec<Value>,
    ctx: &EvalCtx<'_>,
) -> Result<Value, EvalError> {
    stack.clear();
    let mut pc = 0;
    while pc < expr.code.len() {
        match &expr.code[pc] {
            EOp::Const(i) => stack.push(consts[*i].clone()),
            EOp::Load(i) => match &slots[*i] {
                Slot::Col(c) => stack.push(row[*c].clone()),
                Slot::Bound(v) => stack.push(v.clone()),
                Slot::Missing => {
                    return Err(EvalError::UnknownColumn(program.names[*i].to_string()))
                }
            },
            EOp::CallFn { name, argc } => {
                let start = stack.len() - argc;
                let args: Vec<Value> = stack.drain(start..).collect();
                let v = ctx.funcs.call(program.names[*name].as_str(), &args)?;
                stack.push(v);
            }
            EOp::CallPred { name, argc } => {
                let start = stack.len() - argc;
                let args: Vec<Value> = stack.drain(start..).collect();
                match ctx.funcs.call(program.names[*name].as_str(), &args)? {
                    Value::Atom(Atom::Bool(b)) => stack.push(Value::Atom(Atom::Bool(b))),
                    other => {
                        return Err(EvalError::Function {
                            name: program.names[*name].to_string(),
                            message: format!("predicate returned non-boolean {other}"),
                        })
                    }
                }
            }
            EOp::Cmp(op) => {
                let r = stack.pop().expect("Cmp right operand");
                let l = stack.pop().expect("Cmp left operand");
                stack.push(Value::Atom(Atom::Bool(eval::cmp_values(*op, &l, &r))));
            }
            EOp::CmpRef { op, left, right } => {
                let l = ref_value(left, slots, consts, row, program)?;
                let r = ref_value(right, slots, consts, row, program)?;
                stack.push(Value::Atom(Atom::Bool(eval::cmp_values(*op, l, r))));
            }
            EOp::Not => {
                let v = stack.pop().expect("Not operand");
                stack.push(Value::Atom(Atom::Bool(!is_true(&v))));
            }
            EOp::JumpIfFalse(target) => {
                if is_true(stack.last().expect("JumpIfFalse operand")) {
                    stack.pop();
                } else {
                    pc = *target;
                    continue;
                }
            }
            EOp::JumpIfTrue(target) => {
                if is_true(stack.last().expect("JumpIfTrue operand")) {
                    pc = *target;
                    continue;
                } else {
                    stack.pop();
                }
            }
        }
        pc += 1;
    }
    Ok(stack.pop().expect("expression leaves one value"))
}

/// Emits one `vm` event per instruction with its run totals, in listing
/// order; instructions that never executed report zero batches (e.g. a
/// `DJOIN` body whose left side was empty).
fn flush_counters(program: &Program, counters: &[(u64, u64)], obs: &yat_obs::Collector) {
    for instr in program.instructions() {
        let (batches, rows) = counters[instr.id];
        obs.event(
            kind::VM,
            format!(
                "#{:02} {}{} {}",
                instr.id,
                "  ".repeat(instr.depth),
                instr.opcode,
                instr.label
            ),
            vec![
                (attr::BATCHES, AttrValue::Uint(batches)),
                (attr::ROWS_OUT, AttrValue::Uint(rows)),
            ],
        );
    }
}
