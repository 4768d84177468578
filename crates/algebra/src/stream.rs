//! Incremental answer delivery: an evaluated answer cut into chunks at
//! the delivery boundary.
//!
//! The mediator evaluates a plan one way — to one [`EvalOut`] — whether
//! the caller asked for a streamed answer or not. [`deliver`] then cuts
//! that answer into chunks of at most `batch_rows` rows (a table) or
//! top-level subtrees (a tree) and hands each to a [`BatchSink`] in
//! order: the wire serializer in `yat-server` turns each into an
//! `answer-chunk` frame, so the serialization and wire costs — and the
//! client's time-to-first-row — are paid per chunk rather than per
//! answer.
//!
//! [`CollectSink`] is the other end: it reassembles the chunks, so a
//! streamed answer can be held to the materialized one byte for byte
//! (`tests/differential.rs`, and the wire client's own reassembly).

use crate::error::EvalError;
use crate::eval::EvalOut;
use crate::tab::Tab;
use yat_model::{Node, Tree};

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

/// What [`deliver`] observed, for gauges and `EXPLAIN`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Batches handed to the sink.
    pub chunks: u64,
    /// Total rows across all batches (top-level subtrees for a tree).
    pub rows: u64,
}

/// Cuts `out` into chunks of at most `batch_rows` rows and hands each to
/// `sink` in order. A table announces its columns first; an empty table
/// still delivers one empty batch so the consumer learns the layout
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
    let batch_rows = batch_rows.max(1);
    let mut stats = DeliveryStats::default();
    match out {
        EvalOut::Tree(tree) => {
            // every YATL query ends in a `Tree` template, so this is the
            // chunking real answers get. Children are `Arc`-shared — a
            // chunk aliases, never copies, the constructed subtrees.
            let total = tree.children.len();
            let mut start = 0;
            loop {
                let end = (start + batch_rows).min(total);
                let chunk = Node::labeled(tree.label.clone(), tree.children[start..end].to_vec());
                sink.on_tree(&chunk)?;
                stats.chunks += 1;
                stats.rows += (end - start) as u64;
                start = end;
                if start >= total {
                    break;
                }
            }
        }
        EvalOut::Tab(tab) => {
            sink.on_columns(tab.columns())?;
            let (columns, rows) = tab.into_parts();
            let mut rows = rows.into_iter().peekable();
            loop {
                let batch =
                    Tab::from_rows(columns.clone(), rows.by_ref().take(batch_rows).collect());
                stats.chunks += 1;
                stats.rows += batch.len() as u64;
                sink.on_batch(batch)?;
                if rows.peek().is_none() {
                    break;
                }
            }
        }
    }
    Ok(stats)
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
