//! # yat-algebra — the YAT XML algebra (Section 3)
//!
//! The operational model of *"On Wrapping Query Languages and Efficient XML
//! Integration"* (SIGMOD 2000): a functional algebra over XML trees and
//! ¬1NF [`Tab`] structures.
//!
//! Two operators are XML-specific "frontier" operations (Section 3.1):
//!
//! * **Bind** extracts data from a tree according to a filter, producing a
//!   `Tab` of variable bindings (Fig. 4, left);
//! * **Tree** is its inverse: it builds new XML structure from a `Tab`
//!   according to a [`Template`], with grouping primitives and **Skolem
//!   functions** for identifier creation (Fig. 4, right).
//!
//! Between those frontiers the algebra is the classical object algebra of
//! Cluet–Moerkotte (DBPL'93): `Select`, `Project`, `Join`, `DJoin`
//! (dependency join for nested collections), `Union`, `Intersect`, `Diff`,
//! `Group`, `Sort`, `Map` — all over `Tab` structures, so their well-known
//! rewriting properties carry over.
//!
//! The crate provides:
//!
//! * [`Alg`] — the plan AST, an immutable `Arc`-shared DAG with an
//!   `explain`-style display used throughout the figure reproductions;
//! * [`eval()`] — a reference evaluator, parameterized by a
//!   [`SourceCatalog`] (where named documents live), an [`FnRegistry`]
//!   (external operations such as Wais `contains` or the O2
//!   `current_price` method) and a [`SkolemRegistry`];
//! * [`Tab`]/[`Value`] — the ¬1NF table structures.
//!
//! The algebra is "independent of any underlying physical access structure"
//! (Section 3.1): this evaluator runs plans against local forests, while
//! `yat-mediator` executes the same plans against remote wrappers by
//! intercepting `Push` nodes.

pub mod bindex;
pub mod compile;
pub mod error;
pub mod eval;
pub mod expr;
pub mod funcs;
pub mod keys;
pub mod passing;
pub mod stream;
pub mod tab;
pub mod template;
pub mod value;
pub mod vm;

pub use bindex::BindIndexCache;
pub use compile::{compile, Instr, Program};
pub use error::EvalError;
pub use eval::{eval, eval_env, Env, EvalCtx, EvalOut, PushHandler, SourceCatalog};
pub use expr::{Alg, CmpOp, Operand, Pred, SortDir};
pub use funcs::{FnRegistry, SkolemRegistry};
pub use passing::{passed_vars, substitute_env, BatchAnswer, PassedBindings};
pub use stream::{BatchSink, CollectSink, Stage};
pub use tab::Tab;
pub use template::Template;
pub use value::Value;

#[cfg(test)]
mod tests;
