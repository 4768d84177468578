//! Incremental answer delivery: row batches instead of whole `Tab`s.
//!
//! The materializing pipeline evaluates a plan to one [`EvalOut`] and
//! hands the complete answer downstream, costing peak memory
//! proportional to the answer at every hop. This module converts the
//! *answer boundary* to a pull-batch calling convention: the plan is
//! [`split`] into a prefix (everything up to and including the last
//! operator that genuinely needs its whole input — joins, grouping,
//! sorting, set operations, frontier construction) and a suffix chain of
//! *streamable stages* (`Select`, `Map`, `Project` — stateless per-row
//! operators). The prefix is evaluated by the interpreter; its rows are
//! then cut into batches of `batch_rows`, each batch run through the
//! stage chain with the same operator kernels the interpreter uses
//! (`Select`, `Map`, [`Tab::project`]), and delivered to a [`BatchSink`]
//! as soon as it exists — no stage ever sees more than one batch at a
//! time.
//!
//! The materializing path stays untouched as the semantics oracle:
//! concatenating every delivered batch must reproduce the materialized
//! answer byte-for-byte, which `tests/differential.rs` enforces over
//! hundreds of seeded plans in both exec modes.

use crate::error::EvalError;
use crate::eval::{self, Env, EvalCtx, EvalOut};
use crate::expr::{Alg, Operand, Pred};
use crate::tab::Tab;
use std::sync::Arc;
use yat_model::Tree;

/// The default number of rows per delivered batch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A consumer of incrementally delivered answers. Implementations
/// include the wire serializer in `yat-server` (each batch becomes an
/// `answer-chunk` frame) and the in-process `CollectSink` oracle
/// (reassembles the batches so the differential harness can compare them
/// with the materialized answer).
///
/// Any method may refuse by returning an error — typically
/// [`EvalError::Sink`] — which aborts delivery; the producer stops
/// evaluating remaining batches (backpressure all the way up).
pub trait BatchSink {
    /// Announces the answer's column layout before the first batch.
    /// Called exactly once for table-shaped answers, never for trees.
    fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError>;

    /// Delivers one batch of at most `batch_rows` rows. A batch may be
    /// empty only when the whole answer is empty (one empty batch is
    /// delivered so the consumer still learns the layout end-to-end).
    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError>;

    /// Delivers one chunk of a tree-shaped answer: a copy of the
    /// answer's root holding at most `batch_rows` of its top-level
    /// subtrees. Called once per chunk, in order; the full answer is the
    /// root with every delivered chunk's children concatenated. (The
    /// `Tree` template still groups over its whole input to *construct*
    /// the answer — chunking happens at the delivery boundary, which is
    /// where the serialization and wire costs live.)
    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError>;
}

/// One streamable stage peeled off the top of a plan: a stateless
/// per-row operator that can run batch-at-a-time without seeing the rest
/// of its input.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A `Select` filter.
    Select(Pred),
    /// A `Map` appending a computed column.
    Map {
        /// New column name.
        col: String,
        /// Expression computing it.
        expr: Operand,
    },
    /// A `Project` with renaming.
    Project(Vec<(String, String)>),
}

impl Stage {
    /// Applies this stage to one batch, moving its rows, through the
    /// interpreter's own operator kernels — stage application cannot
    /// drift from the materialized oracle.
    pub fn apply(&self, batch: Tab, env: &Env, ctx: &EvalCtx<'_>) -> Result<Tab, EvalError> {
        match self {
            Stage::Select(pred) => eval::select(batch, pred, env, ctx),
            Stage::Map { col, expr } => eval::map(batch, col, expr, env, ctx),
            Stage::Project(cols) => Ok(batch.project(cols)),
        }
    }
}

/// Splits `plan` into a prefix and the maximal chain of streamable
/// stages above it. The stages are returned in *application order*
/// (innermost first): `Select(Project(Map(X)))` yields prefix `X` and
/// stages `[Map, Project, Select]`.
///
/// Every other operator — joins need both inputs, `Group`/`Sort`/dedup
/// set operations need all rows, `Tree` templates group over the whole
/// input, `Bind`'s tree navigation is a frontier crossing — terminates
/// the chain and stays in the prefix.
pub fn split(plan: &Arc<Alg>) -> (Arc<Alg>, Vec<Stage>) {
    let mut stages = Vec::new();
    let mut cursor = plan;
    loop {
        match cursor.as_ref() {
            Alg::Select { input, pred } => {
                stages.push(Stage::Select(pred.clone()));
                cursor = input;
            }
            Alg::Map { input, col, expr } => {
                stages.push(Stage::Map {
                    col: col.clone(),
                    expr: expr.clone(),
                });
                cursor = input;
            }
            Alg::Project { input, cols } => {
                stages.push(Stage::Project(cols.clone()));
                cursor = input;
            }
            _ => break,
        }
    }
    stages.reverse();
    (cursor.clone(), stages)
}

/// What [`deliver`] observed, for gauges and `EXPLAIN`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Batches handed to the sink.
    pub chunks: u64,
    /// Total rows across all batches (top-level subtrees for a tree).
    pub rows: u64,
}

/// Drives batch delivery: cuts the prefix result into `batch_rows`-row
/// batches, runs each through `stages`, and hands it to `sink` as soon
/// as it is ready. An empty table-shaped answer still delivers one empty
/// batch so the consumer learns the column layout.
///
/// A sink refusal (or a stage evaluation error) stops delivery at that
/// batch — batches already delivered are *not* recalled, which is why
/// the wire protocol has a typed abort frame.
pub fn deliver(
    prefix_out: EvalOut,
    stages: &[Stage],
    batch_rows: usize,
    ctx: &EvalCtx<'_>,
    env: &Env,
    sink: &mut dyn BatchSink,
) -> Result<DeliveryStats, EvalError> {
    let batch_rows = batch_rows.max(1);
    let tab = match prefix_out {
        EvalOut::Tree(tree) => {
            if let Some(stage) = stages.first() {
                return Err(EvalError::Kind {
                    op: format!("{stage:?}"),
                    expected: "Tab",
                });
            }
            // a tree answer chunks by top-level subtrees: every YATL
            // query ends in a `Tree` template, so this is the chunking
            // real answers get. Children are `Arc`-shared — a chunk
            // aliases, never copies, the constructed subtrees.
            let mut stats = DeliveryStats::default();
            let total = tree.children.len();
            let mut start = 0;
            loop {
                let end = (start + batch_rows).min(total);
                let chunk = yat_model::Node::labeled(
                    tree.label.clone(),
                    tree.children[start..end].to_vec(),
                );
                sink.on_tree(&chunk)?;
                stats.chunks += 1;
                stats.rows += (end - start) as u64;
                start = end;
                if start >= total {
                    break;
                }
            }
            return Ok(stats);
        }
        EvalOut::Tab(tab) => tab,
    };
    // the output layout is the stage chain applied to zero rows — cheap,
    // and exactly what the materialized path's column list would be
    let mut probe = Tab::new(tab.columns().to_vec());
    for stage in stages {
        probe = stage.apply(probe, env, ctx)?;
    }
    sink.on_columns(probe.columns())?;

    let columns = tab.columns().to_vec();
    let mut stats = DeliveryStats::default();
    let mut rows = tab.into_rows().into_iter().peekable();
    loop {
        let mut batch = Tab::new(columns.clone());
        while batch.len() < batch_rows {
            match rows.next() {
                Some(row) => batch.push(row),
                None => break,
            }
        }
        // deliver the first batch even when empty; afterwards an empty
        // tail batch carries no information
        if batch.is_empty() && stats.chunks > 0 {
            break;
        }
        let mut out = batch;
        for stage in stages {
            out = stage.apply(out, env, ctx)?;
        }
        stats.chunks += 1;
        stats.rows += out.len() as u64;
        sink.on_batch(out)?;
        if rows.peek().is_none() {
            break;
        }
    }
    Ok(stats)
}

/// Reassembles a streamed answer in process — the oracle-side consumer:
/// concatenating what it saw must equal the materialized answer.
#[derive(Debug, Default)]
pub struct CollectSink {
    answer: Option<EvalOut>,
    /// Batches received (`1` for a tree).
    pub chunks: u64,
}

impl CollectSink {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The reassembled answer; `None` when nothing was delivered.
    pub fn into_answer(self) -> Option<EvalOut> {
        self.answer
    }
}

impl BatchSink for CollectSink {
    fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError> {
        self.answer = Some(EvalOut::Tab(Tab::new(columns.to_vec())));
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        let Some(EvalOut::Tab(acc)) = self.answer.as_mut() else {
            return Err(EvalError::Sink(
                "batch delivered before the column layout".into(),
            ));
        };
        if acc.columns() != batch.columns() {
            return Err(EvalError::Sink(format!(
                "batch columns {:?} do not match the announced layout {:?}",
                batch.columns(),
                acc.columns()
            )));
        }
        for row in batch.into_rows() {
            acc.push(row);
        }
        self.chunks += 1;
        Ok(())
    }

    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
        match self.answer.as_mut() {
            None => self.answer = Some(EvalOut::Tree(tree.clone())),
            Some(EvalOut::Tree(acc)) => {
                if acc.label != tree.label {
                    return Err(EvalError::Sink(format!(
                        "tree chunk root `{}` differs from the stream's root `{}`",
                        tree.label, acc.label
                    )));
                }
                yat_model::Node::extend_children(acc, tree.children.iter().cloned());
            }
            Some(EvalOut::Tab(_)) => {
                return Err(EvalError::Sink(
                    "tree chunk arrived on a table-shaped stream".into(),
                ))
            }
        }
        self.chunks += 1;
        Ok(())
    }
}
