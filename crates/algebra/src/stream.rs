//! Streamed answers: the row-local top of a plan runs batch by batch
//! into a [`BatchSink`].
//!
//! [`pipeline`] evaluates a plan's *pipeline source* — the topmost
//! operator that is not row-local — as a materialized execution would,
//! then runs the row-local operators above it (`Select`, `Map`,
//! `Project`, `Bind … over`) over `batch_rows` of the source's rows at
//! a time, through the same kernels [`mod@crate::eval`] runs over a whole
//! table. A `Push` source under a push handler is pulled piece by piece
//! instead ([`crate::PushHandler::execute_push_pieces`]): each piece of
//! the pushed answer runs through the operators above it as it arrives.
//! A row-keyed `Tree` template on top (a `Sym` root over one
//! `Group` keyed on every variable its body reads — the full-scan shape)
//! emits each group's subtree the first time its key is seen. Chunk 0
//! therefore leaves once the first batch has been bound, filtered and
//! built, not once the whole answer has.
//!
//! Every other operator breaks the pipeline: `Push`, `Source`, `Bind` on
//! a tree, the joins, the set operators, `Group`, `Sort` and any other
//! `Tree` template evaluate whole. When the top of the plan is such a
//! breaker, [`deliver`] cuts its evaluated answer into chunks.
//!
//! Either way the answer leaves in chunks of exactly `batch_rows` rows
//! (a table) or top-level subtrees (a tree), the last one possibly
//! shorter: the same chunks, byte for byte, as cutting the materialized
//! answer. The wire serializer in `yat-server` turns each into an
//! `answer-chunk` frame. [`CollectSink`] is the other end: it
//! reassembles the chunks, so a streamed answer can be held to the
//! materialized one byte for byte (`tests/differential.rs`,
//! `tests/prop_stream_chunks.rs`, and the wire client's own reassembly).

use crate::error::EvalError;
use crate::eval::{eval_env, row_local_input, Env, EvalCtx, EvalOut, KeyedTree, RowOp};
use crate::expr::Alg;
use crate::tab::Tab;
use crate::value::Value;
use yat_model::{Label, Node, Tree};

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
    /// root with every delivered chunk's children concatenated. Under a
    /// row-keyed `Tree` template the chunk is built as its rows arrive
    /// and the whole answer tree never exists; behind a pipeline breaker
    /// it aliases the evaluated answer's subtrees.
    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError>;
}

/// What a streamed delivery observed, for gauges and `EXPLAIN`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Batches handed to the sink.
    pub chunks: u64,
    /// Total rows across all batches (top-level subtrees for a tree).
    pub rows: u64,
}

/// Runs `plan` with a streamed answer boundary: the pipeline source
/// evaluates whole (a pushed one arrives in pieces of `batch_rows`
/// rows), the row-local operators above it run over
/// `batch_rows` of its rows at a time, and every `batch_rows` answer
/// rows or subtrees leave for `sink` as soon as they exist (see the
/// module docs). Delivers the same chunks as [`deliver`] on the
/// materialized answer.
///
/// With a span collector in the context, every pipelined operator
/// records one `operator` span, nested as a materialized execution
/// nests them, whose row count is its output over all batches — the
/// rows it produced before a failure when the run stops early.
pub fn pipeline(
    plan: &Alg,
    ctx: &EvalCtx<'_>,
    batch_rows: usize,
    sink: &mut dyn BatchSink,
) -> Result<DeliveryStats, EvalError> {
    let env = Env::new();
    let (keyed, below) = match plan {
        Alg::TreeOp { input, template } => match KeyedTree::of(template) {
            Some(keyed) => (Some(keyed), &**input),
            None => (None, plan),
        },
        _ => (None, plan),
    };
    // the row-local operators under the head, outermost first
    let mut spine = Vec::new();
    let mut source = below;
    while let Some(input) = row_local_input(source) {
        spine.push(source);
        source = input;
    }
    if keyed.is_none() && spine.is_empty() {
        return deliver(eval_env(plan, ctx, &env)?, batch_rows, sink);
    }
    // one span per pipelined operator, opened outermost first so they
    // nest as eval_env's recursion nests them
    let span = |op: &Alg| {
        ctx.obs
            .map(|obs| obs.span(yat_obs::kind::OPERATOR, op.describe()))
    };
    let mut head_span = keyed.as_ref().and_then(|_| span(plan));
    let mut spine_spans: Vec<_> = spine.iter().map(|op| span(op)).collect();
    let mut rows_out = vec![0u64; spine.len()];
    let consumer = spine.last().copied().unwrap_or(plan);
    let root = keyed.as_ref().map(KeyedTree::root);
    let mut run = Run {
        ctx,
        env: &env,
        spine: &spine,
        kernels: spine.iter().map(|_| None).collect(),
        rows_out: &mut rows_out,
        keyed,
        chunker: Chunker::new(sink, batch_rows, root),
        fed: false,
    };
    let result = match (source, ctx.push) {
        (Alg::Push { source: at, plan }, Some(handler)) => {
            let mut span = span(source);
            let mut pulled = 0u64;
            let pieces = handler.execute_push_pieces(at, plan, &env, batch_rows, &mut |piece| {
                pulled += piece.len() as u64;
                run.feed(piece)
            });
            if let Some(span) = span.as_mut() {
                match &pieces {
                    Ok(()) => span.record_u64(yat_obs::attr::ROWS_OUT, pulled),
                    Err(e) => span.record_str(yat_obs::attr::ERROR, e.to_string()),
                }
            }
            pieces
        }
        _ => eval_env(source, ctx, &env)
            .and_then(|out| out.tab(consumer))
            .and_then(|input| run.feed(input)),
    }
    .and_then(|()| run.chunker.finish());
    // close innermost first, each with the rows it produced
    let error = result.as_ref().err().map(EvalError::to_string);
    while let Some(span) = spine_spans.pop() {
        if let Some(mut span) = span {
            span.record_u64(yat_obs::attr::ROWS_OUT, rows_out[spine_spans.len()]);
            if let Some(e) = &error {
                span.record_str(yat_obs::attr::ERROR, e.clone());
            }
        }
    }
    if let Some(span) = head_span.as_mut() {
        match &error {
            None => span.record_u64(yat_obs::attr::ROWS_OUT, 1),
            Some(e) => span.record_str(yat_obs::attr::ERROR, e.clone()),
        }
    }
    drop(head_span);
    result
}

/// One pipelined execution: the row-local kernels, prepared on the first
/// batch that reaches them, the head that builds the answer, and the
/// chunker that hands it on.
struct Run<'r, 'a, 's> {
    ctx: &'r EvalCtx<'a>,
    env: &'r Env,
    /// Outermost first; batches run through it innermost first.
    spine: &'r [&'a Alg],
    kernels: Vec<Option<RowOp<'a>>>,
    rows_out: &'r mut [u64],
    keyed: Option<KeyedTree<'a>>,
    chunker: Chunker<'s>,
    /// Whether a batch has run yet.
    fed: bool,
}

impl<'a> Run<'_, 'a, '_> {
    /// Feeds `input` — the source's answer, or the next piece of it —
    /// through the spine in batches of `batch_rows` rows. The first
    /// input runs even when empty, so an empty answer still reaches the
    /// head and every kernel reports its errors as a whole-table run
    /// would.
    fn feed(&mut self, input: Tab) -> Result<(), EvalError> {
        if input.is_empty() && self.fed {
            return Ok(());
        }
        let (columns, rows) = input.into_parts();
        let mut rows = rows.into_iter();
        loop {
            let batch = Tab::from_rows(
                columns.clone(),
                rows.by_ref().take(self.chunker.batch_rows).collect(),
            );
            let out = self.spine_batch(batch)?;
            match &mut self.keyed {
                Some(keyed) => keyed.run(&out, self.ctx.skolems, self.chunker.trees()),
                None => self.chunker.rows(out)?,
            }
            self.chunker.flush_full()?;
            self.fed = true;
            if rows.len() == 0 {
                return Ok(());
            }
        }
    }

    /// One batch through every row-local operator, innermost first.
    fn spine_batch(&mut self, mut tab: Tab) -> Result<Tab, EvalError> {
        for i in (0..self.spine.len()).rev() {
            let kernel = match &mut self.kernels[i] {
                Some(kernel) => kernel,
                slot => slot.insert(RowOp::new(self.spine[i], tab.columns(), self.ctx)?),
            };
            tab = kernel.run(tab, self.env, self.ctx)?;
            self.rows_out[i] += tab.len() as u64;
        }
        Ok(tab)
    }
}

/// The answer boundary: collects top-level subtrees or rows and hands
/// them to the sink in chunks of exactly `batch_rows` as they fill; the
/// remainder leaves on [`Chunker::finish`] (one empty chunk when the
/// whole answer is empty).
struct Chunker<'s> {
    sink: &'s mut dyn BatchSink,
    batch_rows: usize,
    pending: Pending,
    stats: DeliveryStats,
}

/// What a [`Chunker`] holds back until a chunk fills.
enum Pending {
    /// Nothing yet: the answer's shape is not known.
    Unknown,
    /// Subtrees of a tree answer with root label `root`.
    Trees { root: Label, trees: Vec<Tree> },
    /// Rows of a table answer, whose layout went out already.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
}

impl<'s> Chunker<'s> {
    /// A chunker for a tree answer rooted at `root`, or (`None`) for a
    /// table answer whose layout its first rows bring.
    fn new(sink: &'s mut dyn BatchSink, batch_rows: usize, root: Option<Label>) -> Self {
        let pending = match root {
            Some(root) => Pending::Trees {
                root,
                trees: Vec::new(),
            },
            None => Pending::Unknown,
        };
        Chunker {
            sink,
            batch_rows: batch_rows.max(1),
            pending,
            stats: DeliveryStats::default(),
        }
    }

    /// The pending subtrees of a tree answer.
    fn trees(&mut self) -> &mut Vec<Tree> {
        match &mut self.pending {
            Pending::Trees { trees, .. } => trees,
            _ => unreachable!("a tree answer's chunker is made with its root"),
        }
    }

    /// Appends `tab`'s rows; the first table announces the layout.
    fn rows(&mut self, tab: Tab) -> Result<(), EvalError> {
        if let Pending::Unknown = self.pending {
            self.sink.on_columns(tab.columns())?;
            self.pending = Pending::Rows {
                columns: tab.columns().to_vec(),
                rows: Vec::new(),
            };
        }
        match &mut self.pending {
            Pending::Rows { rows, .. } => rows.extend(tab.into_rows()),
            _ => unreachable!("one answer has one shape"),
        }
        Ok(())
    }

    /// Hands every full chunk to the sink.
    fn flush_full(&mut self) -> Result<(), EvalError> {
        self.flush(false)
    }

    /// Hands the rest to the sink — one empty chunk when nothing went
    /// out — and reports what was delivered.
    fn finish(mut self) -> Result<DeliveryStats, EvalError> {
        self.flush(true)?;
        Ok(self.stats)
    }

    /// Delivers the pending items in chunks of `batch_rows`: only full
    /// chunks, or (`last`) the remainder too.
    fn flush(&mut self, last: bool) -> Result<(), EvalError> {
        let n = self.batch_rows;
        let stats = &mut self.stats;
        let len = match &self.pending {
            Pending::Trees { trees, .. } => trees.len(),
            Pending::Rows { rows, .. } => rows.len(),
            Pending::Unknown => 0,
        };
        let mut take = if last { len } else { len - len % n };
        // an empty answer still delivers one (empty) chunk
        let mut empty = last && take == 0 && stats.chunks == 0;
        match &mut self.pending {
            Pending::Trees { root, trees } => {
                let mut out = trees.drain(..take);
                while take > 0 || std::mem::take(&mut empty) {
                    let k = take.min(n);
                    take -= k;
                    let chunk = Node::labeled(root.clone(), out.by_ref().take(k).collect());
                    self.sink.on_tree(&chunk)?;
                    stats.chunks += 1;
                    stats.rows += k as u64;
                }
            }
            Pending::Rows { columns, rows } => {
                let mut out = rows.drain(..take);
                while take > 0 || std::mem::take(&mut empty) {
                    let k = take.min(n);
                    take -= k;
                    let batch = Tab::from_rows(columns.clone(), out.by_ref().take(k).collect());
                    stats.chunks += 1;
                    stats.rows += k as u64;
                    self.sink.on_batch(batch)?;
                }
            }
            Pending::Unknown => {}
        }
        Ok(())
    }
}

/// Cuts an evaluated answer into chunks of at most `batch_rows` rows and
/// hands each to `sink` in order — the chunk flusher behind a pipeline
/// breaker. A table announces its columns first; an empty table still
/// delivers one empty batch so the consumer learns the layout
/// end-to-end. A tree delivers copies of its root, each holding the next
/// `batch_rows` top-level subtrees (one chunk for a childless root).
///
/// A sink refusal stops delivery at that chunk — chunks already
/// delivered are *not* recalled, which is why the wire protocol has a
/// typed abort frame.
pub fn deliver(
    out: EvalOut,
    batch_rows: usize,
    sink: &mut dyn BatchSink,
) -> Result<DeliveryStats, EvalError> {
    match out {
        // children are `Arc`-shared: a chunk aliases, never copies, the
        // constructed subtrees
        EvalOut::Tree(tree) => {
            let mut chunker = Chunker::new(sink, batch_rows, Some(tree.label.clone()));
            chunker.trees().extend(tree.children.iter().cloned());
            chunker.finish()
        }
        EvalOut::Tab(tab) => {
            let mut chunker = Chunker::new(sink, batch_rows, None);
            chunker.rows(tab)?;
            chunker.finish()
        }
    }
}

/// Reassembles a streamed answer in process — the oracle-side consumer:
/// concatenating what it saw must equal the materialized answer.
#[derive(Debug, Default)]
pub struct CollectSink {
    answer: Option<EvalOut>,
    /// The top-level subtrees of every tree chunk after the first, appended
    /// to the first chunk's root once, in [`CollectSink::into_answer`].
    more: Vec<Tree>,
    /// Chunks received: table batches or tree chunks.
    pub chunks: u64,
}

impl CollectSink {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The reassembled answer; `None` when nothing was delivered.
    pub fn into_answer(self) -> Option<EvalOut> {
        match self.answer {
            Some(EvalOut::Tree(root)) => Some(EvalOut::Tree(Node::appended(&root, self.more))),
            answer => answer,
        }
    }
}

impl BatchSink for CollectSink {
    fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError> {
        self.answer = Some(EvalOut::Tab(Tab::new(columns.to_vec())));
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        let acc = match self.answer.as_mut() {
            Some(EvalOut::Tab(acc)) => acc,
            Some(EvalOut::Tree(_)) => return Err(mixed()),
            None => {
                return Err(EvalError::Sink(
                    "batch delivered before the column layout".into(),
                ))
            }
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
                self.more.extend(tree.children.iter().cloned());
            }
            Some(EvalOut::Tab(_)) => return Err(mixed()),
        }
        self.chunks += 1;
        Ok(())
    }
}

/// A table batch after a tree chunk, or a tree chunk after table batches.
fn mixed() -> EvalError {
    EvalError::Sink("stream mixes tree and table chunks".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// What a sink saw, in call order.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Columns(Vec<String>),
        Batch(usize),
        Tree(usize),
    }

    /// Records every call, reassembles through a [`CollectSink`], and
    /// refuses the `refuse_at`-th chunk (0-based) when set.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        collect: CollectSink,
        refuse_at: Option<usize>,
    }

    impl Recorder {
        fn chunk(&mut self, call: Call) -> Result<(), EvalError> {
            let index = self
                .calls
                .iter()
                .filter(|c| !matches!(c, Call::Columns(_)))
                .count();
            self.calls.push(call);
            if self.refuse_at == Some(index) {
                return Err(EvalError::Sink(format!("refused chunk {index}")));
            }
            Ok(())
        }
    }

    impl BatchSink for Recorder {
        fn on_columns(&mut self, columns: &[String]) -> Result<(), EvalError> {
            self.calls.push(Call::Columns(columns.to_vec()));
            self.collect.on_columns(columns)
        }

        fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
            self.chunk(Call::Batch(batch.len()))?;
            self.collect.on_batch(batch)
        }

        fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
            self.chunk(Call::Tree(tree.children.len()))?;
            self.collect.on_tree(tree)
        }
    }

    fn columns() -> Vec<String> {
        vec!["a".to_string(), "b".to_string()]
    }

    fn tab(rows: usize) -> EvalOut {
        let mut tab = Tab::new(columns());
        for i in 0..rows as i64 {
            tab.push(vec![Value::Atom(i.into()), Value::Atom((-i).into())]);
        }
        EvalOut::Tab(tab)
    }

    fn tree(children: usize) -> EvalOut {
        let kids = (0..children as i64).map(|i| Node::elem("r", i)).collect();
        EvalOut::Tree(Node::sym("out", kids))
    }

    /// (answer, batch_rows, the chunk calls `deliver` must make)
    fn cases() -> Vec<(&'static str, EvalOut, usize, Vec<Call>)> {
        let batches = |sizes: &[usize]| -> Vec<Call> {
            let mut calls = vec![Call::Columns(columns())];
            calls.extend(sizes.iter().map(|&n| Call::Batch(n)));
            calls
        };
        let trees = |sizes: &[usize]| sizes.iter().map(|&n| Call::Tree(n)).collect();
        vec![
            ("empty tab: one empty batch", tab(0), 4, batches(&[0])),
            ("tab under one batch", tab(3), 4, batches(&[3])),
            ("tab of exactly one batch", tab(4), 4, batches(&[4])),
            ("tab of an exact multiple", tab(8), 4, batches(&[4, 4])),
            ("tab with a remainder", tab(10), 4, batches(&[4, 4, 2])),
            ("zero batch size reads as 1", tab(2), 0, batches(&[1, 1])),
            ("childless tree: one chunk", tree(0), 4, trees(&[0])),
            ("tree under one chunk", tree(3), 4, trees(&[3])),
            ("tree of an exact multiple", tree(8), 4, trees(&[4, 4])),
            ("tree with a remainder", tree(10), 4, trees(&[4, 4, 2])),
        ]
    }

    #[test]
    fn deliver_cuts_at_batch_rows_and_collect_sink_reassembles_the_answer() {
        for (name, out, batch_rows, expected) in cases() {
            let mut sink = Recorder::default();
            let stats = deliver(out.clone(), batch_rows, &mut sink).expect(name);
            let chunks = expected.iter().filter(|c| !matches!(c, Call::Columns(_)));
            let rows: usize = chunks
                .clone()
                .map(|c| match c {
                    Call::Batch(n) | Call::Tree(n) => *n,
                    Call::Columns(_) => 0,
                })
                .sum();
            assert_eq!(sink.calls, expected, "{name}");
            assert_eq!(
                stats,
                DeliveryStats {
                    chunks: chunks.count() as u64,
                    rows: rows as u64,
                },
                "{name}"
            );
            assert_eq!(sink.collect.chunks, stats.chunks, "{name}");
            assert_eq!(sink.collect.into_answer(), Some(out), "{name}");
        }
    }

    #[test]
    fn a_refusing_sink_stops_delivery_at_that_chunk() {
        for (name, out, batch_rows, expected) in cases() {
            let chunk_calls = expected.iter().filter(|c| !matches!(c, Call::Columns(_)));
            for k in 0..chunk_calls.count() {
                let mut sink = Recorder {
                    refuse_at: Some(k),
                    ..Recorder::default()
                };
                let err = deliver(out.clone(), batch_rows, &mut sink).expect_err(name);
                assert_eq!(err, EvalError::Sink(format!("refused chunk {k}")), "{name}");
                // the calls up to and including the refused chunk, none after
                let columns = usize::from(matches!(expected[0], Call::Columns(_)));
                assert_eq!(sink.calls, expected[..columns + k + 1], "{name} @ {k}");
            }
        }
    }

    #[test]
    fn collect_sink_refuses_a_stream_that_mixes_shapes_or_layouts() {
        let mixed = EvalError::Sink("stream mixes tree and table chunks".into());
        let EvalOut::Tab(rows) = tab(2) else {
            unreachable!()
        };
        let EvalOut::Tree(root) = tree(2) else {
            unreachable!()
        };

        let mut sink = CollectSink::new();
        sink.on_tree(&root).unwrap();
        assert_eq!(sink.on_batch(rows.clone()), Err(mixed.clone()));

        let mut sink = CollectSink::new();
        sink.on_columns(rows.columns()).unwrap();
        sink.on_batch(rows.clone()).unwrap();
        assert_eq!(sink.on_tree(&root), Err(mixed));
        let other = Tab::new(vec!["z".to_string()]);
        let err = sink.on_batch(other).unwrap_err().to_string();
        assert!(err.contains("columns"), "{err}");

        let mut sink = CollectSink::new();
        sink.on_tree(&root).unwrap();
        let err = sink.on_tree(&Node::sym("elsewhere", vec![])).unwrap_err();
        assert!(err.to_string().contains("root"), "{err}");

        let err = CollectSink::new().on_batch(rows).unwrap_err();
        assert!(err.to_string().contains("column layout"), "{err}");
    }
}
