//! The staged replay of the traced pass: the first requests of client
//! 0's stream go through the public staged API — `parse_rule` →
//! `plan_rule` → `optimize` → `explain` — one at a time, with a span
//! around each stage, the decorator's `handle()` spans nested under
//! `mediator.execute`, and the public counters read beside them.

use crate::fixtures::{answer_bytes, Fixture};
use crate::stats::{mean, median};
use crate::streams::ClientStream;
use crate::trace::{self_ms, Recorder};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use yat_capability::protocol::ServerReply;
use yat_mediator::OptimizerOptions;
use yat_obs::profile::ProfileNode;

/// Which wrapper layer a connected source belongs to: the O2 database
/// and its replicas are `oql`, the Wais collection and its shards
/// `wais`.
fn is_oql(source: &str) -> bool {
    source == "o2artifact" || source.starts_with("art-")
}

/// Total wall time of the `rpc` rows of a profile. Round trips never
/// nest, so inclusive times add up without double counting.
fn rpc_ms(nodes: &[ProfileNode]) -> f64 {
    nodes
        .iter()
        .map(|n| {
            let own = if n.kind == yat_obs::kind::RPC {
                n.elapsed.as_secs_f64() * 1e3
            } else {
                0.0
            };
            own + rpc_ms(&n.children)
        })
        .sum()
}

/// Per-wrapper-layer numbers of the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct WrapperLayer {
    /// Mean time inside `handle()` per query.
    pub handle_ms: f64,
    /// Mean `handle()` calls per query.
    pub calls_per_query: f64,
    /// Documents/objects examined per row the layer returned.
    pub examined_per_row: f64,
    /// Pushed evaluations that fell back to a scan.
    pub scans: f64,
}

/// What the staged replay measured. Times and counts are means per
/// replayed query unless a field says otherwise.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed.
    pub queries: usize,
    /// Replayed answers whose bytes differ from the oracle's.
    pub mismatches: u64,
    /// Median in-process time of parse + compose + optimize + execute —
    /// what `server.overhead_ms` subtracts from the client's p50.
    pub in_process_p50_ms: f64,
    /// `yat_yatl::parse_rule`.
    pub parse_us: f64,
    /// `Mediator::plan_rule`: translate, compose views, qualify.
    pub compose_us: f64,
    /// `Mediator::optimize`.
    pub optimize_us: f64,
    /// Optimizer rule firings.
    pub rule_firings: f64,
    /// `Mediator::explain` (execution with the span collector attached).
    pub execute_ms: f64,
    /// Round trips to sources.
    pub round_trips: f64,
    /// Bytes both ways on the capability wire.
    pub wire_bytes: f64,
    /// Documents received from sources.
    pub docs: f64,
    /// Σ rpc − Σ `handle()`: request/response XML encode + decode (and,
    /// on `fed_tail`, the simulated member round trip).
    pub wire_ms: f64,
    /// `mediator.execute` self time: the span minus what its `handle()`
    /// children cover, minus the wire — mediator-side evaluation.
    pub eval_ms: f64,
    /// Rows produced by all VM instructions.
    pub program_rows: f64,
    /// Serializing the answer frame.
    pub serialize_ms: f64,
    /// Parsing it back, as the client does.
    pub parse_answer_ms: f64,
    /// Bytes of the answer frame.
    pub answer_bytes: f64,
    /// The O2 layer.
    pub oql: WrapperLayer,
    /// The Wais layer.
    pub wais: WrapperLayer,
    /// Store segment loads (from `Explain::storage_totals`).
    pub segment_loads: f64,
    /// Store bytes read.
    pub store_bytes_read: f64,
    /// Distinct federation members contacted.
    pub members_contacted: f64,
    /// `Explain::critical_path`.
    pub scatter_critical_ms: f64,
    /// `Explain::scatter_busy`.
    pub scatter_busy_ms: f64,
}

/// Replays up to `max_queries` requests of client 0's stream (or until
/// `budget` runs out) through the staged API of the served mediator.
///
/// No mutator runs beside the replay, so a cached workload would hit on
/// every repeat and its wrapper layers would read zero. The replay
/// therefore declares `invalidations_per_query` source changes per
/// request (`Mediator::bump_source_epoch`, alternating sources like the
/// mutation log) — the rate the served window just observed — and so
/// breaks down a read in the regime the readers were actually in.
pub fn staged_replay(
    fixture: &Fixture,
    rec: &Recorder,
    seed: u64,
    max_queries: usize,
    budget: Duration,
    invalidations_per_query: f64,
) -> Result<Replay, String> {
    let m = fixture.server.mediator();
    let mut stream = ClientStream::new(seed, 0, fixture.sampler.clone());
    let started = Instant::now();
    let first_span = rec.len();
    let traffic_before = m.traffic();
    let by_source_before: Vec<(String, u64)> = source_docs(fixture);

    let mut r = Replay::default();
    let mut in_process = Vec::new();
    let (mut parse, mut compose, mut optimize, mut execute) = (vec![], vec![], vec![], vec![]);
    let (mut firings, mut eval, mut program_rows) = (vec![], vec![], vec![]);
    let mut rpc_sum = 0.0;
    let (mut serialize, mut parse_answer, mut bytes) = (vec![], vec![], vec![]);
    let (mut contacted, mut critical, mut busy) = (vec![], vec![], vec![]);
    let (mut loads, mut bytes_read) = (0u64, 0u64);
    let mut examined = [0u64; 2];
    let mut scans = [0u64; 2];

    let (mut credit, mut bumps) = (0.0, 0usize);
    while r.queries < max_queries && started.elapsed() < budget {
        credit += invalidations_per_query;
        while credit >= 1.0 {
            credit -= 1.0;
            m.bump_source_epoch(["xmlartwork", "o2artifact"][bumps % 2]);
            bumps += 1;
        }
        let idx = stream.next_index();
        let text = &fixture.texts[idx].text;
        r.queries += 1;
        rec.begin_query(r.queries as u64);
        let root = rec.open("query", None);

        let (s_parse, rule) = rec.span("yatl.parse", Some(root), || yat_yatl::parse_rule(text));
        let rule = rule.map_err(|e| format!("replay: `{text}` does not parse: {e}"))?;
        let (s_compose, plan) = rec.span("mediator.compose", Some(root), || m.plan_rule(&rule));
        let (s_optimize, (optimized, trace)) = rec.span("mediator.optimize", Some(root), || {
            m.optimize(&plan, OptimizerOptions::default())
        });
        let s_execute = rec.open("mediator.execute", Some(root));
        rec.adopt_under(Some(s_execute));
        let explained = m.explain(&optimized);
        rec.adopt_under(None);
        rec.close(s_execute);
        let ex = explained.map_err(|e| format!("replay: `{text}` failed: {e}"))?;

        let (s_ser, frame) = rec.span("xml.serialize", Some(root), || {
            answer_bytes(ex.output.clone())
        });
        let (s_par, parsed) = rec.span("xml.parse", Some(root), || {
            yat_xml::parse_element(&frame)
                .map_err(|e| e.to_string())
                .and_then(|el| ServerReply::from_xml(&el).map_err(|e| e.to_string()))
        });
        rec.close(root);
        parsed.map_err(|e| format!("replay: answer of `{text}` does not parse back: {e}"))?;
        if frame != fixture.expected[idx] {
            r.mismatches += 1;
        }

        let (stage_ms, handle_total, execute_self) = rec.with_spans(|spans| {
            let stage_ms =
                [s_parse, s_compose, s_optimize, s_execute, s_ser, s_par].map(|id| spans[id].ms());
            // only this query's spans can be children of its execute span
            let tail = &spans[s_execute..];
            let handle_total: f64 = tail
                .iter()
                .filter(|s| s.parent == Some(s_execute))
                .map(|s| s.ms())
                .sum();
            (stage_ms, handle_total, self_ms(spans, s_execute))
        });
        let [ms_parse, ms_compose, ms_optimize, ms_execute, ms_ser, ms_par] = stage_ms;
        parse.push(ms_parse * 1e3);
        compose.push(ms_compose * 1e3);
        optimize.push(ms_optimize * 1e3);
        execute.push(ms_execute);
        in_process.push(ms_parse + ms_compose + ms_optimize + ms_execute);
        firings.push(trace.steps.len() as f64);
        let rpc_total = rpc_ms(&ex.profile);
        rpc_sum += rpc_total;
        // self time of the execute span = everything but `handle()`;
        // the wire share of that is rpc − handle
        let wire = (rpc_total - handle_total).max(0.0);
        eval.push((execute_self - wire).max(0.0));
        program_rows.push(ex.program.iter().map(|l| l.rows).sum::<u64>() as f64);
        serialize.push(ms_ser);
        parse_answer.push(ms_par);
        bytes.push(frame.len() as f64);
        for (label, line) in &ex.index {
            let Some((_, source)) = label.split_once(" @") else {
                continue;
            };
            if source == "local" {
                continue;
            }
            let layer = usize::from(!is_oql(source));
            examined[layer] += line.scanned;
            scans[layer] += line.scans;
        }
        let storage = ex.storage_totals();
        loads += storage.loads;
        bytes_read += storage.bytes_read;
        let members: BTreeSet<&String> = ex
            .traffic
            .keys()
            .filter(|name| fixture.members.contains(name))
            .collect();
        contacted.push(members.len() as f64);
        critical.push(ex.critical_path().as_secs_f64() * 1e3);
        busy.push(ex.scatter_busy().as_secs_f64() * 1e3);
    }
    if r.queries == 0 {
        return Err("replay: no request fitted the budget".into());
    }

    let n = r.queries as f64;
    let traffic = m.traffic() - traffic_before;
    r.in_process_p50_ms = median(in_process);
    r.parse_us = mean(&parse);
    r.compose_us = mean(&compose);
    r.optimize_us = mean(&optimize);
    r.rule_firings = mean(&firings);
    r.execute_ms = mean(&execute);
    r.round_trips = traffic.round_trips as f64 / n;
    r.wire_bytes = traffic.total_bytes() as f64 / n;
    r.docs = traffic.documents_received as f64 / n;
    r.eval_ms = mean(&eval);
    r.program_rows = mean(&program_rows);
    r.serialize_ms = mean(&serialize);
    r.parse_answer_ms = mean(&parse_answer);
    r.answer_bytes = mean(&bytes);
    r.segment_loads = loads as f64 / n;
    r.store_bytes_read = bytes_read as f64 / n;
    r.members_contacted = mean(&contacted);
    r.scatter_critical_ms = mean(&critical);
    r.scatter_busy_ms = mean(&busy);

    // rows each layer returned = documents its sources sent
    let mut returned = [0u64; 2];
    for ((name, before), (_, after)) in by_source_before.iter().zip(source_docs(fixture)) {
        returned[usize::from(!is_oql(name))] += after.saturating_sub(*before);
    }
    let mut handle_total = 0.0;
    for (layer, span_name) in ["oql.handle", "wais.handle"].into_iter().enumerate() {
        let (ms, calls) = rec.total(span_name, first_span);
        handle_total += ms;
        let out = WrapperLayer {
            handle_ms: ms / n,
            calls_per_query: calls as f64 / n,
            examined_per_row: examined[layer] as f64 / returned[layer].max(1) as f64,
            scans: scans[layer] as f64,
        };
        if layer == 0 {
            r.oql = out;
        } else {
            r.wais = out;
        }
    }
    r.wire_ms = (rpc_sum - handle_total).max(0.0) / n;
    Ok(r)
}

/// Documents received so far from every connected source.
fn source_docs(fixture: &Fixture) -> Vec<(String, u64)> {
    let m = fixture.server.mediator();
    let mut names: Vec<String> = if fixture.members.is_empty() {
        vec!["o2artifact".into(), "xmlartwork".into()]
    } else {
        fixture.members.clone()
    };
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let docs = m.traffic_of(&name).map_or(0, |t| t.documents_received);
            (name, docs)
        })
        .collect()
}
