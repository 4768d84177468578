//! Aggregation of raw span trees into `EXPLAIN ANALYZE` profiles.
//!
//! The collector records one span per *execution* of an operator; a
//! dependent join that evaluates its right side 50 times yields 50
//! sibling subtrees. A profile folds those back onto the *plan* shape:
//! sibling spans with equal `(kind, label)` merge into one
//! [`ProfileNode`] whose `calls` counts the executions and whose
//! counters sum over them — the same convention relational
//! `EXPLAIN ANALYZE` uses (`loops`, total rows).
//!
//! Transport counters (`bytes_sent`, `bytes_received`, `documents`,
//! `round_trips`) are *inclusive*: every node carries the totals of its
//! whole subtree, so the row for a `Push` operator directly shows what
//! its wrapper-side fragment cost on the wire. Wall time is inclusive by
//! construction (a span's clock runs while its children run).

use crate::{attr, kind, AttrValue, SpanData};
use std::time::Duration;

/// One row of an aggregated profile: a plan position (all executions of
/// one operator / round-trip site under the same parent) with summed
/// measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileNode {
    /// Span kind (see [`crate::kind`]).
    pub kind: String,
    /// Span label; equal `(kind, label)` siblings merged into this node.
    pub label: String,
    /// How many spans merged here (executions of this plan position).
    pub calls: u64,
    /// Total output rows across all calls, when the spans recorded
    /// cardinality ([`attr::ROWS_OUT`]).
    pub rows: Option<u64>,
    /// Set-oriented information passing totals, when the spans recorded
    /// them — the `Push` on the dependent side of a `DJoin`.
    pub passing: Option<Passing>,
    /// Total wall time across all calls (inclusive of children).
    pub elapsed: Duration,
    /// Request bytes sent by this subtree (inclusive).
    pub bytes_sent: u64,
    /// Response bytes received by this subtree (inclusive).
    pub bytes_received: u64,
    /// Documents / result rows received by this subtree (inclusive).
    pub documents: u64,
    /// Protocol round trips performed by this subtree (inclusive).
    pub round_trips: u64,
    /// Spans in this subtree that recorded an [`attr::ERROR`] (inclusive).
    pub errors: u64,
    /// Aggregated children, in first-execution order.
    pub children: Vec<ProfileNode>,
}

/// What a dependent `Push` was passed, summed over its calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Passing {
    /// Left rows bindings were passed for ([`attr::BINDINGS`]).
    pub bindings: u64,
    /// Distinct binding tuples among them ([`attr::DISTINCT`]).
    pub distinct: u64,
    /// Requests shipped to sources for them ([`attr::BATCHES`]).
    pub batches: u64,
}

impl ProfileNode {
    fn leaf(kind: &'static str, label: &str) -> ProfileNode {
        ProfileNode {
            kind: kind.to_string(),
            label: label.to_string(),
            ..ProfileNode::default()
        }
    }

    /// Depth-first search for the first node (self included) whose label
    /// contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&ProfileNode> {
        if self.label.contains(needle) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(needle))
    }

    /// Renders this node and its subtree as indented text lines.
    pub fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.label);
        out.push_str("  [");
        out.push_str(&format!("calls={}", self.calls));
        if let Some(rows) = self.rows {
            out.push_str(&format!(" rows={rows}"));
        }
        if let Some(p) = self.passing {
            out.push_str(&format!(
                " bindings={} distinct={} batches={}",
                p.bindings, p.distinct, p.batches
            ));
        }
        out.push_str(&format!(" time={}", fmt_duration(self.elapsed)));
        if self.round_trips > 0 {
            out.push_str(&format!(
                " | rpc={} sent={}B recv={}B docs={}",
                self.round_trips, self.bytes_sent, self.bytes_received, self.documents
            ));
        }
        if self.errors > 0 {
            out.push_str(&format!(" errors={}", self.errors));
        }
        out.push_str("]\n");
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// Folds a recorded span list (creation order, as returned by
/// [`crate::Collector::spans`]) into a forest of profile nodes.
pub fn build(spans: &[SpanData]) -> Vec<ProfileNode> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for span in spans {
        // cache and VM-instruction events are bookkeeping, not plan work:
        // EXPLAIN reports them in dedicated sections instead of as
        // profile rows
        if span.kind == kind::CACHE
            || span.kind == kind::VM
            || span.kind == kind::STREAM
            || span.kind == kind::INDEX
        {
            continue;
        }
        match span.parent {
            Some(p) => children[p].push(span.id),
            None => roots.push(span.id),
        }
    }
    aggregate(spans, &children, &roots)
}

/// Renders a profile forest as indented text.
pub fn render(nodes: &[ProfileNode]) -> String {
    let mut out = String::new();
    for node in nodes {
        node.render_into(0, &mut out);
    }
    out
}

fn aggregate(spans: &[SpanData], children: &[Vec<usize>], ids: &[usize]) -> Vec<ProfileNode> {
    // Group siblings by (kind, label) in first-seen order. Sibling group
    // counts are small (operator fan-out), so a linear scan is fine.
    let mut groups: Vec<(ProfileNode, Vec<usize>)> = Vec::new();
    for &id in ids {
        let span = &spans[id];
        let slot = groups
            .iter()
            .position(|(n, _)| n.kind == span.kind && n.label == span.label);
        match slot {
            Some(i) => groups[i].1.push(id),
            None => groups.push((ProfileNode::leaf(span.kind, &span.label), vec![id])),
        }
    }
    groups
        .into_iter()
        .map(|(mut node, members)| {
            let mut child_ids: Vec<usize> = Vec::new();
            for &id in &members {
                let span = &spans[id];
                node.calls += 1;
                node.elapsed += span.elapsed;
                if let Some(rows) = span.attr(attr::ROWS_OUT).and_then(AttrValue::as_u64) {
                    node.rows = Some(node.rows.unwrap_or(0) + rows);
                }
                if span.attr(attr::BINDINGS).is_some() {
                    let p = node.passing.get_or_insert_with(Passing::default);
                    p.bindings += counter(span, attr::BINDINGS);
                    p.distinct += counter(span, attr::DISTINCT);
                    p.batches += counter(span, attr::BATCHES);
                }
                node.bytes_sent += counter(span, attr::BYTES_SENT);
                node.bytes_received += counter(span, attr::BYTES_RECEIVED);
                node.documents += counter(span, attr::DOCUMENTS);
                if span.kind == kind::RPC {
                    node.round_trips += 1;
                }
                if span.attr(attr::ERROR).is_some() {
                    node.errors += 1;
                }
                child_ids.extend(children[id].iter().copied());
            }
            node.children = aggregate(spans, children, &child_ids);
            for child in &node.children {
                node.bytes_sent += child.bytes_sent;
                node.bytes_received += child.bytes_received;
                node.documents += child.documents;
                node.round_trips += child.round_trips;
                node.errors += child.errors;
            }
            node
        })
        .collect()
}

fn counter(span: &SpanData, name: &str) -> u64 {
    span.attr(name).and_then(AttrValue::as_u64).unwrap_or(0)
}

/// Formats a duration compactly (`842ns`, `13.4µs`, `2.1ms`, `1.50s`).
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    fn sample() -> Collector {
        let c = Collector::new();
        {
            let mut root = c.span(kind::OPERATOR, "DJoin");
            // two executions of the same right-side operator
            for rows in [2u64, 3] {
                let mut op = c.span(kind::OPERATOR, "Push -> wais");
                {
                    let mut rpc = c.span(kind::RPC, "execute @wais");
                    rpc.record_u64(attr::BYTES_SENT, 100);
                    rpc.record_u64(attr::BYTES_RECEIVED, 200);
                    rpc.record_u64(attr::DOCUMENTS, rows);
                }
                op.record_u64(attr::ROWS_OUT, rows);
            }
            root.record_u64(attr::ROWS_OUT, 5);
        }
        c
    }

    #[test]
    fn siblings_merge_and_counters_sum() {
        let profile = build(&sample().spans());
        assert_eq!(profile.len(), 1);
        let root = &profile[0];
        assert_eq!(root.label, "DJoin");
        assert_eq!(root.calls, 1);
        assert_eq!(root.rows, Some(5));
        assert_eq!(root.children.len(), 1);
        let push = &root.children[0];
        assert_eq!(push.calls, 2);
        assert_eq!(push.rows, Some(5));
        assert_eq!(push.round_trips, 2);
        assert_eq!(push.bytes_sent, 200);
        assert_eq!(push.bytes_received, 400);
        assert_eq!(push.documents, 5);
        // transport totals roll up to the root, inclusively
        assert_eq!(root.round_trips, 2);
        assert_eq!(root.bytes_sent, 200);
    }

    #[test]
    fn render_shows_counters() {
        let text = render(&build(&sample().spans()));
        assert!(text.contains("DJoin"), "{text}");
        assert!(text.contains("rows=5"), "{text}");
        assert!(text.contains("rpc=2 sent=200B recv=400B docs=5"), "{text}");
        // indentation reflects tree depth
        assert!(text.contains("\n  Push -> wais"), "{text}");
    }

    #[test]
    fn passing_totals_render_on_the_push_row() {
        let c = Collector::new();
        {
            let _root = c.span(kind::OPERATOR, "DJoin");
            let mut push = c.span(kind::OPERATOR, "Push -> o2");
            push.record_u64(attr::ROWS_OUT, 7);
            push.record_u64(attr::BINDINGS, 180);
            push.record_u64(attr::DISTINCT, 42);
            push.record_u64(attr::BATCHES, 1);
        }
        let profile = build(&c.spans());
        assert_eq!(profile[0].passing, None, "only the Push recorded passing");
        assert_eq!(
            profile[0].children[0].passing,
            Some(Passing {
                bindings: 180,
                distinct: 42,
                batches: 1
            })
        );
        let text = render(&profile);
        assert!(
            text.contains("rows=7 bindings=180 distinct=42 batches=1 time="),
            "{text}"
        );
    }

    #[test]
    fn find_walks_the_tree() {
        let profile = build(&sample().spans());
        assert!(profile[0].find("execute @wais").is_some());
        assert!(profile[0].find("absent").is_none());
    }

    #[test]
    fn cache_events_stay_out_of_the_profile() {
        let c = Collector::new();
        {
            let _op = c.span(kind::OPERATOR, "Push -> wais");
            c.event(
                kind::CACHE,
                "hit @wais",
                vec![(attr::BYTES_SAVED, AttrValue::Uint(209))],
            );
        }
        c.event(kind::CACHE, "miss @o2", vec![]);
        let profile = build(&c.spans());
        assert_eq!(profile.len(), 1, "the root-level miss event is excluded");
        assert_eq!(profile[0].label, "Push -> wais");
        assert!(profile[0].children.is_empty(), "the hit event is excluded");
    }

    #[test]
    fn errors_are_counted() {
        let c = Collector::new();
        {
            let mut s = c.span(kind::RPC, "execute @down");
            s.record_str(attr::ERROR, "connection reset");
        }
        let profile = build(&c.spans());
        assert_eq!(profile[0].errors, 1);
        assert!(render(&profile).contains("errors=1"));
    }
}
