//! Plan execution: fetch mediator-side documents, ship `Push` fragments,
//! substitute information-passing values, evaluate the rest locally.
//!
//! Execution runs in one of two [`ExecMode`]s. `Sequential` performs
//! every round trip in plan order, one at a time. `Parallel` first
//! performs a *dependency analysis* over the plan: document prefetch
//! (grouped per source) and every independent `Push` fragment — one not
//! nested under the dependent side of a `DJoin`, whose
//! information-passing environment is therefore provably empty — become
//! scatter jobs dispatched concurrently over a bounded pool of
//! `std::thread::scope` worker lanes. The gather step assembles the
//! prefetched forest and a push-result cache, then local evaluation
//! proceeds exactly as in sequential mode, taking pushed results from
//! the cache instead of the wire. Dependent pushes (the `DJoin`
//! right-hand side) still go to the wire inline, but set-oriented: the
//! join hands the push handler its distinct bindings at once and they
//! ship as `execute-batch` requests — per-binding cache keys, failover
//! and partition pruning preserved (see `ship_bindings`).

use crate::compose::mediator_side_sources;
use crate::transport::Connection;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use yat_algebra::eval::{eval_env, Env, EvalCtx, PushHandler};
use yat_algebra::stream::{pipeline, DeliveryStats};
use yat_algebra::{
    substitute_env, Alg, BatchAnswer, BatchSink, EvalError, EvalOut, FnRegistry, PassedBindings,
    SkolemRegistry, Tab,
};
use yat_cache::{AnswerCache, CachedAnswer, Signature};
use yat_capability::interface::Interface;
use yat_capability::protocol::{
    split_batch_result, Bindings, Request, Response, MAX_BATCH_BINDINGS,
};
use yat_federate::{constraints_of, GroupKind, SourceRegistry};
use yat_model::{Forest, Node, Tree};
use yat_obs::{attr, kind, Collector};

pub use crate::policy::{ExecMode, StreamPolicy};

/// Everything one execution runs against: the connection/interface maps
/// and registries of the mediator, the selected mode and cache, and the
/// optional span collector.
///
/// With an empty [`SourceRegistry`] the executor behaves exactly as
/// before federation existed: every source name resolves to its own
/// connection. Any failure that replica failover cannot absorb fails
/// the query.
pub struct ExecSpec<'a> {
    /// Connections by source (or member) name.
    pub connections: &'a BTreeMap<String, Connection>,
    /// Imported interfaces by source, member, and group name.
    pub interfaces: &'a BTreeMap<String, Interface>,
    /// External/compensation functions.
    pub funcs: &'a FnRegistry,
    /// The Skolem registry of the integrated view.
    pub skolems: &'a SkolemRegistry,
    /// Optional span collector (`EXPLAIN ANALYZE`).
    pub obs: Option<&'a Collector>,
    /// Source-work dispatch mode.
    pub mode: ExecMode,
    /// The cross-query answer cache.
    pub cache: &'a AnswerCache,
    /// The federation registry (empty for plain mediators).
    pub registry: &'a SourceRegistry,
}

impl<'a> ExecSpec<'a> {
    /// The slice of the spec the fetch/push machinery carries around.
    fn fed(&self) -> FedCtx<'a> {
        FedCtx {
            connections: self.connections,
            registry: self.registry,
            cache: self.cache,
            obs: self.obs,
        }
    }
}

/// What source-side work (fetching, pushing, caching, failover) needs
/// from an [`ExecSpec`] — a `Copy` bundle shared between the executor
/// front half and the [`Pusher`] that lives on through local evaluation.
#[derive(Clone, Copy)]
struct FedCtx<'a> {
    connections: &'a BTreeMap<String, Connection>,
    registry: &'a SourceRegistry,
    cache: &'a AnswerCache,
    obs: Option<&'a Collector>,
}

impl<'a> FedCtx<'a> {
    /// The data epoch cached answers for `source` are validated against:
    /// a group's epoch is the sum of its members' epochs, so bumping any
    /// member retires group-keyed answers.
    fn epoch_of(&self, source: &str) -> u64 {
        if self.registry.is_group(source) {
            self.registry
                .members_of(source)
                .iter()
                .filter_map(|m| self.connections.get(&m.name))
                .map(|c| c.epoch())
                .sum()
        } else {
            self.connections.get(source).map(|c| c.epoch()).unwrap_or(0)
        }
    }

    /// Feeds a cache lookup outcome into the registry's cost records
    /// (only when the cache can actually serve answers).
    fn observe_cache(&self, source: &str, hit: bool) {
        if self.cache.policy().is_enabled() {
            self.registry.observe_cache(source, hit);
        }
    }
}

/// An execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// The plan reads a document no connected source exports.
    UnknownSource(String),
    /// A wire-level failure.
    Wire(String),
    /// A wrapper failed a request.
    Wrapper {
        /// Source id.
        source: String,
        /// Its message.
        message: String,
    },
    /// A wrapper declined a pushed plan its source cannot run
    /// ([`Response::Refused`]).
    Refused {
        /// Source id.
        source: String,
        /// Why it declined.
        reason: String,
    },
    /// Local evaluation failed.
    Eval(EvalError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownSource(s) => write!(f, "no connected source provides `{s}`"),
            ExecError::Wire(m) => write!(f, "transport failure: {m}"),
            ExecError::Wrapper { source, message } => {
                write!(f, "wrapper `{source}` failed: {message}")
            }
            ExecError::Refused { source, reason } => {
                write!(f, "wrapper `{source}` refused the plan: {reason}")
            }
            ExecError::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Refused { source, reason } => ExecError::Refused { source, reason },
            other => ExecError::Eval(other),
        }
    }
}

/// Executes a plan against the connected wrappers, under the spec's
/// [`ExecMode`], answer cache and federation registry.
///
/// Mediator-side `Source` reads fetch whole documents. Because fetched
/// data may hold references into a source's *other* documents (Fig. 1's
/// `owners refs="p1 p2 p3"`), every export of a touched source is
/// mirrored so references dereference — part of the naive strategy's
/// cost that pushdown avoids.
///
/// With a span collector in the spec, document prefetch runs under a
/// `phase` span, every protocol round trip records an `rpc` span, and
/// local evaluation records one `operator` span per operator execution —
/// the raw material of `EXPLAIN ANALYZE`. In `Parallel` mode the
/// prefetch and every independent push fragment run as scatter jobs
/// under a `scatter` phase span; each job span records the worker lane
/// that executed it (`attr::LANE`), and jobs are ordered
/// longest-expected-first using the registry's cost records.
///
/// When the cache is enabled, every unit of source work — a document
/// fetch or a pushed fragment, dependent ones included — is looked up
/// first (against the source's *live* epoch, so an epoch bump during a
/// long execution stops stale answers immediately) and inserted after a
/// fully successful round trip. In parallel mode lookups happen at
/// scheduling time: a hit removes the job from the lane schedule.
pub fn execute_mode(plan: &Alg, spec: &ExecSpec<'_>) -> Result<EvalOut, ExecError> {
    with_prepared(plan, spec, |ctx| eval_env(plan, ctx, &Env::new()))
}

/// [`execute_mode`] with a streamed answer boundary: after the same
/// prefetch, [`yat_algebra::stream::pipeline`] runs the row-local top of
/// the plan `batch_rows` rows at a time and hands `sink` each chunk of
/// the answer as soon as it is built.
pub fn execute_streamed(
    plan: &Alg,
    spec: &ExecSpec<'_>,
    batch_rows: usize,
    sink: &mut dyn BatchSink,
) -> Result<DeliveryStats, ExecError> {
    with_prepared(plan, spec, |ctx| pipeline(plan, ctx, batch_rows, sink))
}

/// Runs `eval` against the catalog and push handler [`prepare`] builds
/// for `plan`.
fn with_prepared<T>(
    plan: &Alg,
    spec: &ExecSpec<'_>,
    eval: impl FnOnce(&EvalCtx<'_>) -> Result<T, EvalError>,
) -> Result<T, ExecError> {
    let (catalog, pusher) = prepare(plan, spec)?;
    let ctx = EvalCtx {
        catalog: &catalog,
        model: None,
        funcs: spec.funcs,
        skolems: spec.skolems,
        push: Some(&pusher),
        obs: spec.obs,
    };
    eval(&ctx).map_err(ExecError::from)
}

/// The shared front half of execution: dependency analysis, document
/// prefetch (sequential or scatter/gather), and construction of the
/// catalog + push handler local evaluation runs against.
fn prepare<'a>(plan: &Alg, spec: &ExecSpec<'a>) -> Result<(RemoteCatalog, Pusher<'a>), ExecError> {
    // insertion order drives fetch order (plan-referenced documents
    // first); the set makes the reference-closure membership test O(log n)
    // instead of a linear rescan of everything fetched so far
    let mut wanted: Vec<(String, String)> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (source, name) in mediator_side_sources(plan) {
        let Some(src) = source else {
            return Err(ExecError::UnknownSource(name));
        };
        if seen.insert((src.clone(), name.clone())) {
            wanted.push((src.clone(), name));
        }
        // reference closure: all other exports of the same source
        if let Some(iface) = spec.interfaces.get(&src) {
            for export in &iface.exports {
                let key = (src.clone(), export.name.clone());
                if seen.insert(key.clone()) {
                    wanted.push(key);
                }
            }
        }
    }

    let fed = spec.fed();
    let (forest, by_member, pushed) = match spec.mode {
        ExecMode::Sequential => {
            let (forest, by_member) = fetch_sequential(&wanted, &fed)?;
            (forest, by_member, BTreeMap::new())
        }
        ExecMode::Parallel { max_in_flight } => scatter_gather(&wanted, plan, &fed, max_in_flight)?,
    };

    Ok((RemoteCatalog { forest, by_member }, Pusher { fed, pushed }))
}

/// Documents fetched for a specific member (a plan requalified to read
/// one shard mediator-side), keyed member → document name.
type MemberDocs = BTreeMap<String, BTreeMap<String, Tree>>;

/// One resolved document fetch: `member` is set when the read was
/// qualified to a single federation member and must not be served to
/// reads of other members.
struct FetchedDoc {
    member: Option<String>,
    name: String,
    tree: Tree,
}

fn insert_doc(forest: &mut Forest, by_member: &mut MemberDocs, doc: FetchedDoc) {
    match doc.member {
        Some(member) => {
            by_member
                .entry(member)
                .or_default()
                .insert(doc.name, doc.tree);
        }
        None => forest.insert(doc.name, doc.tree),
    }
}

/// `Some(src)` when `src` names a registered federation member (its
/// documents are then member-scoped rather than shared by name).
fn member_key(fed: &FedCtx<'_>, src: &str) -> Option<String> {
    fed.registry.member(src).is_some().then(|| src.to_string())
}

/// The sequential prefetch loop: one `get-document` round trip at a
/// time, in `wanted` order, under a single `prefetch documents` span.
/// Each document is looked up in the answer cache first (against the
/// source's live epoch) and only fetched on a miss; group sources do
/// their cache resolution per member inside [`fetch_batch`].
fn fetch_sequential(
    wanted: &[(String, String)],
    fed: &FedCtx<'_>,
) -> Result<(Forest, MemberDocs), ExecError> {
    let prefetch = fed
        .obs
        .map(|o| o.span(kind::PHASE, "prefetch documents".to_string()));
    let mut forest = Forest::new();
    let mut by_member = MemberDocs::new();
    for (src, name) in wanted {
        if !fed.registry.is_group(src) {
            if let Some(tree) = cached_document(src, name, fed) {
                let member = member_key(fed, src);
                insert_doc(
                    &mut forest,
                    &mut by_member,
                    FetchedDoc {
                        member,
                        name: name.clone(),
                        tree,
                    },
                );
                continue;
            }
        }
        for doc in fetch_batch(src, std::slice::from_ref(name), fed)? {
            insert_doc(&mut forest, &mut by_member, doc);
        }
    }
    drop(prefetch);
    Ok((forest, by_member))
}

/// Cache lookup for one document of a plain source or member, keyed by
/// its canonical signature and validated against the source's *live*
/// epoch. A hit feeds the member's cost record.
fn cached_document(src: &str, name: &str, fed: &FedCtx<'_>) -> Option<Tree> {
    let conn = fed.connections.get(src)?;
    match fed
        .cache
        .lookup(Signature::document(src, name), src, conn.epoch(), fed.obs)
    {
        Some(CachedAnswer::Document { tree, .. }) => {
            fed.observe_cache(src, true);
            Some(tree)
        }
        _ => None,
    }
}

/// Resolves a batch of document fetches against one source name, in
/// order: a replica group fails over to the cheapest live copy, a
/// partition group unites its shards' contributions, a member or plain
/// source is fetched directly. A failure that failover cannot absorb
/// fails the batch.
fn fetch_batch(
    src: &str,
    names: &[String],
    fed: &FedCtx<'_>,
) -> Result<Vec<FetchedDoc>, ExecError> {
    let mut docs = Vec::with_capacity(names.len());
    for name in names {
        let tree = match fed.registry.group_kind(src) {
            Some(GroupKind::Replicated) => replica_fetch(src, name, fed)?,
            Some(GroupKind::Partitioned) => partition_fetch(src, name, fed)?,
            None => wire_fetch(src, name, fed)?,
        };
        docs.push(FetchedDoc {
            member: member_key(fed, src),
            name: name.clone(),
            tree,
        });
    }
    Ok(docs)
}

/// Fetches one document of `src` over the wire. The fully received
/// document is inserted into the answer cache, tagged with the source
/// epoch read *before* the round trip — data that changes mid-flight
/// lands under the old epoch, which the next bump retires.
fn wire_fetch(src: &str, name: &str, fed: &FedCtx<'_>) -> Result<Tree, ExecError> {
    let conn = fed
        .connections
        .get(src)
        .ok_or_else(|| ExecError::UnknownSource(format!("{name}@{src}")))?;
    fed.observe_cache(src, false);
    let epoch = conn.epoch();
    let response = conn
        .call_traced(
            &Request::GetDocument {
                name: name.to_string(),
            },
            fed.obs,
        )
        .map_err(|e| ExecError::Wire(format!("fetching `{name}` from `{src}`: {e}")))?;
    match response {
        Response::Document { tree, .. } => {
            fed.cache.insert(
                Signature::document(src, name),
                src,
                epoch,
                CachedAnswer::Document {
                    name: name.to_string(),
                    tree: tree.clone(),
                },
                fed.obs,
            );
            Ok(tree)
        }
        Response::Error(m) => Err(ExecError::Wrapper {
            source: src.to_string(),
            message: m,
        }),
        Response::Refused(reason) => Err(ExecError::Refused {
            source: src.to_string(),
            reason,
        }),
        other => Err(ExecError::Wire(format!("unexpected response {other:?}"))),
    }
}

/// Fetches one document of a replica group: any member's cached copy
/// serves (replicas are interchangeable), then the wire in cost order
/// with failover — losing k of N replicas is lossless as long as one
/// still answers. When every replica fails, the first failure fails the
/// fetch.
fn replica_fetch(group: &str, name: &str, fed: &FedCtx<'_>) -> Result<Tree, ExecError> {
    for m in fed.registry.members_of(group) {
        if let Some(tree) = cached_document(&m.name, name, fed) {
            return Ok(tree);
        }
    }
    let mut first_err: Option<ExecError> = None;
    for member in fed.registry.replicas_in_cost_order(group, false) {
        match wire_fetch(&member, name, fed) {
            Ok(tree) => return Ok(tree),
            // an unknown source is a plan/configuration bug, not a
            // failure another replica can absorb
            Err(e @ ExecError::UnknownSource(_)) => return Err(e),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or_else(|| ExecError::UnknownSource(format!("{name}@{group}"))))
}

/// Fetches one document of a partition group: every shard contributes
/// its copy (cache first, then wire) and the shards' top-level entries
/// unite under one root, in member name order. A failing shard fails
/// the fetch.
fn partition_fetch(group: &str, name: &str, fed: &FedCtx<'_>) -> Result<Tree, ExecError> {
    let mut root: Option<Tree> = None;
    let mut children: Vec<Tree> = Vec::new();
    for m in fed.registry.members_of(group) {
        let tree = match cached_document(&m.name, name, fed) {
            Some(tree) => tree,
            None => wire_fetch(&m.name, name, fed)?,
        };
        children.extend(tree.children.iter().cloned());
        root.get_or_insert(tree);
    }
    Ok(match root {
        Some(r) => Node::labeled(r.label.clone(), children),
        None => Node::sym(name, vec![]),
    })
}

/// One unit of independent source work, runnable on any worker lane.
enum Job {
    /// All document prefetches against one source, in plan order.
    Fetch {
        /// The source to fetch from.
        source: String,
        /// Document names, in the order the sequential path would fetch.
        names: Vec<String>,
    },
    /// An independent `Push` fragment (empty information-passing env).
    Push {
        /// The source the fragment is delegated to.
        source: String,
        /// The `Alg::Push` node's inner plan.
        plan: Arc<Alg>,
        /// The fragment's canonical signature — the memo key its result
        /// is gathered under, and the answer-cache key it is stored at.
        sig: Signature,
    },
}

impl Job {
    fn label(&self) -> String {
        match self {
            Job::Fetch { source, .. } => format!("fetch @{source}"),
            Job::Push { source, .. } => format!("push @{source}"),
        }
    }
}

/// What a completed job hands back to the gather step.
enum JobOut {
    Docs(Vec<FetchedDoc>),
    Pushed {
        /// Memo key: the fragment's canonical signature.
        sig: Signature,
        tab: Tab,
    },
}

/// Collects the plan's *independent* push fragments: `Push` nodes not
/// nested under the dependent (right) side of a `DJoin`. Those are
/// evaluated with an empty environment exactly once, so shipping them
/// early from a worker lane is indistinguishable from the sequential
/// order. Dependent pushes get per-row bindings and stay inline.
fn independent_pushes<'p>(plan: &'p Alg, out: &mut Vec<(String, &'p Arc<Alg>)>) {
    match plan {
        Alg::Push { source, plan } => out.push((source.clone(), plan)),
        Alg::DJoin { left, .. } => independent_pushes(left, out),
        _ => {
            for child in plan.children() {
                independent_pushes(child, out);
            }
        }
    }
}

/// The parallel front half of execution: build the job list, scatter it
/// over at most `max_in_flight` worker lanes, gather the prefetched
/// forest and the push-result cache.
///
/// Lane assignment is static round-robin over the *schedule* (lane `l`
/// runs schedule positions `l`, `l + lanes`, `l + 2·lanes`, …), so which
/// lane executes which job — and therefore the recorded span tree — is
/// deterministic. The schedule orders jobs longest-expected-first from
/// the registry's cost records; with no history every job costs the
/// same and the schedule is plan order. Errors are reported in plan-job
/// order whatever the schedule: whichever job earliest in the plan
/// failed wins, matching what the sequential path would have surfaced
/// first.
fn scatter_gather(
    wanted: &[(String, String)],
    plan: &Alg,
    fed: &FedCtx<'_>,
    max_in_flight: usize,
) -> Result<(Forest, MemberDocs, BTreeMap<Signature, Tab>), ExecError> {
    // answer-cache hits are resolved at scheduling time and never enter
    // the lane schedule at all
    let mut forest = Forest::new();
    let mut by_member = MemberDocs::new();
    let mut pushed: BTreeMap<Signature, Tab> = BTreeMap::new();

    let mut jobs: Vec<Job> = Vec::new();
    // group the prefetch per source, preserving first-appearance order
    for (src, name) in wanted {
        // group fetches resolve their caching per member inside the job
        if !fed.registry.is_group(src) {
            if let Some(tree) = cached_document(src, name, fed) {
                let member = member_key(fed, src);
                insert_doc(
                    &mut forest,
                    &mut by_member,
                    FetchedDoc {
                        member,
                        name: name.clone(),
                        tree,
                    },
                );
                continue;
            }
        }
        match jobs.iter_mut().find_map(|j| match j {
            Job::Fetch { source, names } if source == src => Some(names),
            _ => None,
        }) {
            Some(names) => names.push(name.clone()),
            None => jobs.push(Job::Fetch {
                source: src.clone(),
                names: vec![name.clone()],
            }),
        }
    }
    let mut pushes = Vec::new();
    independent_pushes(plan, &mut pushes);
    let mut seen_nodes = BTreeSet::new();
    for (source, inner) in pushes {
        // the same shared fragment node is shipped (and cached) once
        if !seen_nodes.insert(Arc::as_ptr(inner) as usize) {
            continue;
        }
        let sig = Signature::execute(&source, inner);
        match fed
            .cache
            .lookup(sig, &source, fed.epoch_of(&source), fed.obs)
        {
            Some(CachedAnswer::Result(tab)) => {
                fed.observe_cache(&source, true);
                pushed.insert(sig, tab);
                continue;
            }
            _ => fed.observe_cache(&source, false),
        }
        jobs.push(Job::Push {
            source,
            plan: inner.clone(),
            sig,
        });
    }

    if jobs.is_empty() {
        return Ok((forest, by_member, pushed));
    }

    // cost-ordered scheduling: start the longest-expected jobs first so
    // the critical path shrinks (classic LPT). Ties — and the whole
    // schedule when no cost history exists — stay in plan order.
    let expected = |job: &Job| match job {
        Job::Fetch { source, names } => {
            fed.registry.cost(source).expected_cost() * names.len() as f64
        }
        Job::Push { source, .. } => fed.registry.cost(source).expected_cost(),
    };
    let costs: Vec<f64> = jobs.iter().map(expected).collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut scatter = fed.obs.map(|o| o.span(kind::PHASE, "scatter".to_string()));
    let scatter_id = scatter.as_ref().map(|s| s.id());
    let lanes = max_in_flight.max(1).min(jobs.len());

    // Bounded gather: lanes hand finished results to the calling thread
    // through a channel whose capacity equals the lane count, so at most
    // `lanes` completed-but-unconsumed results ever sit in memory — a
    // lane that races ahead of the gatherer blocks in `send` instead of
    // buffering unbounded output. The gather folds each result into the
    // forest / push cache as it arrives (both are key-addressed, so
    // arrival order does not matter), tracking channel occupancy so the
    // bound is *observable*, not just structural.
    let (tx, rx) = mpsc::sync_channel::<(usize, Result<JobOut, ExecError>)>(lanes);
    let pending = AtomicI64::new(0);
    let peak = AtomicI64::new(0);
    // errors are reported in job order — whichever job *earliest in the
    // plan* failed wins, matching the sequential path — so the gather
    // drains everything rather than bailing on the first arrival
    let mut first_err: Option<(usize, ExecError)> = None;
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let (jobs, order) = (&jobs, &order);
            let tx = tx.clone();
            let (pending, peak) = (&pending, &peak);
            let fed = *fed;
            scope.spawn(move || {
                let mut pos = lane;
                while pos < order.len() {
                    let idx = order[pos];
                    let out = run_job(&jobs[idx], lane, &fed, scatter_id);
                    if tx.send((idx, out)).is_err() {
                        return;
                    }
                    // counted after the buffered send and decremented
                    // after receipt, so the gauge never exceeds the
                    // channel capacity; a gather that drains the item
                    // before this add lands can make the sum read 0,
                    // but the send itself proves occupancy reached 1
                    let now = (pending.fetch_add(1, Ordering::SeqCst) + 1).max(1);
                    peak.fetch_max(now, Ordering::SeqCst);
                    pos += lanes;
                }
            });
        }
        drop(tx);
        while let Ok((idx, out)) = rx.recv() {
            pending.fetch_sub(1, Ordering::SeqCst);
            match out {
                Ok(JobOut::Docs(docs)) => {
                    for doc in docs {
                        insert_doc(&mut forest, &mut by_member, doc);
                    }
                }
                Ok(JobOut::Pushed { sig, tab }) => {
                    pushed.insert(sig, tab);
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(first, _)| idx < *first) {
                        first_err = Some((idx, e));
                    }
                }
            }
        }
    });
    if let Some(s) = scatter.as_mut() {
        s.record_u64(
            attr::PEAK_PENDING,
            peak.load(Ordering::SeqCst).max(0) as u64,
        );
    }
    drop(scatter);

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok((forest, by_member, pushed))
}

/// Runs one scatter job on worker lane `lane`, under its own `phase`
/// span (a child of the scatter span, tagged with the lane index).
fn run_job(
    job: &Job,
    lane: usize,
    fed: &FedCtx<'_>,
    scatter_id: Option<usize>,
) -> Result<JobOut, ExecError> {
    let mut span = fed.obs.map(|o| {
        let mut s = o.span_under(scatter_id, kind::PHASE, job.label());
        s.record_u64(attr::LANE, lane as u64);
        s
    });
    let out = match job {
        Job::Fetch { source, names } => fetch_batch(source, names, fed).map(JobOut::Docs),
        Job::Push { source, plan, sig } => {
            let epoch = fed.epoch_of(source);
            // an independent fragment is the one-binding case of the
            // batched path: nothing to substitute, shipped as it is
            let unit = PassedBindings::unit();
            ship_bindings(source, &PassedFragment::new(plan, &unit), &[0], fed, &mut 0)
                .map(|mut shipped| {
                    let tab = shipped.pop().expect("one binding, one answer");
                    fed.cache.insert(
                        *sig,
                        source,
                        epoch,
                        CachedAnswer::Result(tab.clone()),
                        fed.obs,
                    );
                    JobOut::Pushed { sig: *sig, tab }
                })
                .map_err(|e| match e {
                    EvalError::Function { name, message } => ExecError::Wrapper {
                        source: name,
                        message,
                    },
                    other => other.into(),
                })
        }
    };
    if let (Some(span), Err(e)) = (span.as_mut(), &out) {
        span.record_str(attr::ERROR, e.to_string());
    }
    out
}

/// One dependent fragment with the bindings it is passed. Substituted
/// plans are built lazily, per binding, only for what is keyed by them:
/// cache signatures, partition pruning and the column layout of a
/// binding no member answers — a plain cache-off push never substitutes
/// mediator-side at all.
struct PassedFragment<'b> {
    plan: &'b Arc<Alg>,
    bindings: &'b PassedBindings,
    substituted: Vec<OnceCell<Arc<Alg>>>,
}

impl<'b> PassedFragment<'b> {
    fn new(plan: &'b Arc<Alg>, bindings: &'b PassedBindings) -> Self {
        PassedFragment {
            plan,
            bindings,
            substituted: vec![OnceCell::new(); bindings.rows.len()],
        }
    }

    /// The plan a per-binding `execute` of binding `ordinal` would carry.
    fn plan_of(&self, ordinal: usize) -> &Arc<Alg> {
        self.substituted[ordinal]
            .get_or_init(|| substitute_env(self.plan, &self.bindings.env(ordinal)))
    }

    /// Whether binding `ordinal` substitutes anything at all.
    fn is_symbolic(&self, ordinal: usize) -> bool {
        self.bindings.rows[ordinal].iter().all(Option::is_none)
    }

    /// The empty answer of a binding that partition pruning sends to no
    /// member, when its plan's column layout is knowable without
    /// evaluation.
    fn empty_answer(&self, ordinal: usize) -> Option<Tab> {
        self.plan_of(ordinal).out_vars().map(Tab::new)
    }
}

/// Answers the bindings `ordinals` of a fragment from the source it
/// names, resolving federation groups, and returns their tables, in
/// order.
///
/// * a plain source or member is shipped to directly;
/// * a replica group fails over across its executing members in cost
///   order, re-shipping the *whole* set to the next one;
/// * a partition group buckets the bindings by the members each one's
///   substituted plan prunes to (a binding that substitutes nothing
///   keeps the plan-time decision: every member), ships every member its
///   bucket, and unites the contributions per binding (the algebra's
///   `Union` semantics).
///
/// `batches` counts the requests put on the wire.
fn ship_bindings(
    source: &str,
    fragment: &PassedFragment<'_>,
    ordinals: &[usize],
    fed: &FedCtx<'_>,
    batches: &mut u64,
) -> Result<Vec<Tab>, EvalError> {
    match fed.registry.group_kind(source) {
        None => ship_to_member(source, fragment, ordinals, fed, batches),
        Some(GroupKind::Replicated) => {
            let members = fed.registry.replicas_in_cost_order(source, true);
            if members.is_empty() {
                return Err(EvalError::Function {
                    name: source.to_string(),
                    message: "no executable replica in group".into(),
                });
            }
            let mut first_err: Option<EvalError> = None;
            for member in members {
                match ship_to_member(&member, fragment, ordinals, fed, batches) {
                    Ok(tabs) => return Ok(tabs),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            Err(first_err.expect("replica list was non-empty"))
        }
        Some(GroupKind::Partitioned) => {
            let all: Vec<String> = fed
                .registry
                .members_of(source)
                .iter()
                .map(|m| m.name.clone())
                .collect();
            // which members each binding still needs once its values
            // are known
            let wanted: Vec<Vec<String>> = ordinals
                .iter()
                .map(|&o| {
                    if fragment.is_symbolic(o) {
                        all.clone()
                    } else {
                        fed.registry
                            .prune(source, &constraints_of(fragment.plan_of(o)))
                    }
                })
                .collect();
            let mut merged: Vec<Option<Tab>> = vec![None; ordinals.len()];
            let mut parts = vec![0usize; ordinals.len()];
            for member in &all {
                let bucket: Vec<usize> = (0..ordinals.len())
                    .filter(|&pos| wanted[pos].contains(member))
                    .collect();
                if bucket.is_empty() {
                    continue;
                }
                let bucket_ordinals: Vec<usize> = bucket.iter().map(|&pos| ordinals[pos]).collect();
                let tabs = ship_to_member(member, fragment, &bucket_ordinals, fed, batches)?;
                for (pos, tab) in bucket.into_iter().zip(tabs) {
                    parts[pos] += 1;
                    match merged[pos].as_mut() {
                        None => merged[pos] = Some(tab),
                        Some(acc) => merge_union(acc, &tab, source)?,
                    }
                }
            }
            let mut out = Vec::with_capacity(ordinals.len());
            for (pos, tab) in merged.into_iter().enumerate() {
                let tab =
                    match tab {
                        Some(mut tab) => {
                            // set semantics across shards, like the algebra's
                            // Union; a single contribution is already a set
                            if parts[pos] > 1 {
                                tab.dedup();
                            }
                            tab
                        }
                        None => fragment.empty_answer(ordinals[pos]).ok_or_else(|| {
                            EvalError::Function {
                                name: source.to_string(),
                                message: "no partition member answered".into(),
                            }
                        })?,
                    };
                out.push(tab);
            }
            Ok(out)
        }
    }
}

/// Unites two partition contributions: columns must agree, rows
/// concatenate (the caller dedups once at the end).
fn merge_union(acc: &mut Tab, tab: &Tab, group: &str) -> Result<(), EvalError> {
    if acc.columns() != tab.columns() {
        return Err(EvalError::Function {
            name: group.to_string(),
            message: format!(
                "partition members returned incompatible columns {:?} vs {:?}",
                acc.columns(),
                tab.columns()
            ),
        });
    }
    for row in tab.rows() {
        acc.push(row.to_vec());
    }
    Ok(())
}

/// Ships the bindings `ordinals` of a fragment to one concrete wrapper
/// and returns their tables, in order. Bindings of one *shape* — the
/// same cells atom-valued — substitute into the same positions of the
/// plan, so they travel together: the unsubstituted fragment once plus
/// their values, at most [`MAX_BATCH_BINDINGS`] per `execute-batch`. A
/// binding with nothing to substitute ships as the plain `execute` it
/// always was.
fn ship_to_member(
    member: &str,
    fragment: &PassedFragment<'_>,
    ordinals: &[usize],
    fed: &FedCtx<'_>,
    batches: &mut u64,
) -> Result<Vec<Tab>, EvalError> {
    let conn = fed
        .connections
        .get(member)
        .ok_or_else(|| EvalError::UnknownSource {
            source: Some(member.to_string()),
            name: "<push>".into(),
        })?;
    let failure = |message: String| EvalError::Function {
        name: member.to_string(),
        message,
    };
    let mut call = |request: Request| -> Result<Tab, EvalError> {
        *batches += 1;
        match conn.call_traced(&request, fed.obs) {
            Ok(Response::Result(tab)) => Ok(tab),
            Ok(Response::Error(m)) => Err(failure(m)),
            Ok(Response::Refused(reason)) => Err(EvalError::Refused {
                source: member.to_string(),
                reason,
            }),
            Ok(other) => Err(failure(format!("unexpected response {other:?}"))),
            Err(e) => Err(failure(e.to_string())),
        }
    };

    let rows = &fragment.bindings.rows;
    let mut shapes: Vec<(Vec<bool>, Vec<usize>)> = Vec::new();
    for (pos, &o) in ordinals.iter().enumerate() {
        let shape: Vec<bool> = rows[o].iter().map(Option::is_some).collect();
        match shapes.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, positions)) => positions.push(pos),
            None => shapes.push((shape, vec![pos])),
        }
    }
    let mut out: Vec<Option<Tab>> = vec![None; ordinals.len()];
    for (shape, positions) in shapes {
        let vars: Vec<String> = fragment
            .bindings
            .vars
            .iter()
            .zip(&shape)
            .filter(|(_, bound)| **bound)
            .map(|(v, _)| v.clone())
            .collect();
        if vars.is_empty() {
            for pos in positions {
                out[pos] = Some(call(Request::Execute {
                    plan: fragment.plan.clone(),
                })?);
            }
            continue;
        }
        for chunk in positions.chunks(MAX_BATCH_BINDINGS) {
            let bindings = Bindings {
                vars: vars.clone(),
                rows: chunk
                    .iter()
                    .map(|&pos| rows[ordinals[pos]].iter().flatten().cloned().collect())
                    .collect(),
            };
            let tagged = call(Request::ExecuteBatch {
                plan: fragment.plan.clone(),
                bindings,
            })?;
            let tabs =
                split_batch_result(tagged, chunk.len()).map_err(|e| failure(e.to_string()))?;
            for (&pos, tab) in chunk.iter().zip(tabs) {
                out[pos] = Some(tab);
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|t| t.expect("every binding belongs to one shape"))
        .collect())
}

/// Documents fetched for this execution: a shared forest addressed by
/// name (exported names are globally unique in a YAT federation, as in
/// the paper's example), plus member-scoped documents for plans
/// requalified to read one federation member — checked first so a member
/// read never sees another shard's data.
struct RemoteCatalog {
    forest: Forest,
    by_member: MemberDocs,
}

impl yat_algebra::SourceCatalog for RemoteCatalog {
    fn document(&self, source: Option<&str>, name: &str) -> Option<Tree> {
        if let Some(src) = source {
            if let Some(tree) = self.by_member.get(src).and_then(|docs| docs.get(name)) {
                return Some(tree.clone());
            }
        }
        self.forest.get(name).cloned()
    }

    fn deref_forest(&self) -> Option<&Forest> {
        Some(&self.forest)
    }
}

struct Pusher<'a> {
    fed: FedCtx<'a>,
    /// Results of independent fragments already shipped by the scatter
    /// step, keyed by the fragment's canonical [`Signature`] — the same
    /// scheme the cross-query cache uses, so one canonicalization serves
    /// both layers. Empty in sequential mode.
    pushed: BTreeMap<Signature, Tab>,
}

impl<'a> PushHandler for Pusher<'a> {
    /// One binding is a batch of one: the same cache, federation and
    /// wire handling, and a fragment that substitutes nothing still
    /// ships as a plain `execute`.
    fn execute_push(&self, source: &str, plan: &Arc<Alg>, env: &Env) -> Result<Tab, EvalError> {
        let answer = self.execute_push_batch(source, plan, &PassedBindings::single(plan, env))?;
        Ok(answer
            .tabs
            .into_iter()
            .next()
            .expect("one binding, one table"))
    }

    fn execute_push_batch(
        &self,
        source: &str,
        plan: &Arc<Alg>,
        bindings: &PassedBindings,
    ) -> Result<BatchAnswer, EvalError> {
        let fed = &self.fed;
        let fragment = PassedFragment::new(plan, bindings);
        let cache_on = fed.cache.policy().is_enabled();
        // the live epoch (a group's aggregates over its members), read
        // once: before the lookups it validates and the round trips whose
        // answers it tags
        let epoch = fed.epoch_of(source);
        let mut tabs: Vec<Option<Tab>> = vec![None; bindings.rows.len()];
        let mut sigs: Vec<Option<Signature>> = vec![None; bindings.rows.len()];
        let mut misses: Vec<usize> = Vec::new();
        for ordinal in 0..bindings.rows.len() {
            // a binding that substitutes nothing is the fragment as the
            // scatter step may already have shipped it
            let memoized = fragment.is_symbolic(ordinal) && !self.pushed.is_empty();
            // signatures cost a substitution and a hash — skip them when
            // no consumer exists
            if cache_on || memoized {
                let sig = Signature::execute(source, fragment.plan_of(ordinal));
                sigs[ordinal] = Some(sig);
                if let Some(tab) = self.pushed.get(&sig).filter(|_| memoized) {
                    tabs[ordinal] = Some(tab.clone());
                    continue;
                }
                // then the cross-query cache
                match fed.cache.lookup(sig, source, epoch, fed.obs) {
                    Some(CachedAnswer::Result(tab)) => {
                        fed.observe_cache(source, true);
                        tabs[ordinal] = Some(tab);
                        continue;
                    }
                    _ => fed.observe_cache(source, false),
                }
            }
            misses.push(ordinal);
        }

        // only the misses enter the batch
        let mut batches = 0;
        if !misses.is_empty() {
            let shipped = ship_bindings(source, &fragment, &misses, fed, &mut batches)?;
            for (ordinal, tab) in misses.into_iter().zip(shipped) {
                if let Some(sig) = sigs[ordinal] {
                    fed.cache.insert(
                        sig,
                        source,
                        epoch,
                        CachedAnswer::Result(tab.clone()),
                        fed.obs,
                    );
                }
                tabs[ordinal] = Some(tab);
            }
        }
        Ok(BatchAnswer {
            tabs: tabs
                .into_iter()
                .map(|t| t.expect("every binding hit or was shipped"))
                .collect(),
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_algebra::Pred;
    use yat_yatl::parse_filter;

    /// The per-binding loop the batched path replaces: it forwards
    /// single pushes only, so the trait's default `execute_push_batch`
    /// ships every binding on its own through the real [`Pusher`].
    struct PerRow<'a>(&'a dyn PushHandler);

    impl PushHandler for PerRow<'_> {
        fn execute_push(&self, source: &str, plan: &Arc<Alg>, env: &Env) -> Result<Tab, EvalError> {
            self.0.execute_push(source, plan, env)
        }
    }

    /// A source that serves one fixed document, `seed`.
    struct Seed(Tree);

    impl yat_capability::protocol::WrapperServer for Seed {
        fn name(&self) -> &str {
            "seed"
        }

        fn handle(&self, request: &Request) -> Response {
            match request {
                Request::GetInterface => Response::Interface(Interface::new("seed")),
                Request::GetDocument { name } => Response::Document {
                    name: name.clone(),
                    tree: self.0.clone(),
                },
                _ => Response::Error("seed only serves its document".into()),
            }
        }
    }

    /// `seed` next to the Fig. 1 O2 database. The seed document holds
    /// one numbered `row` per entry of `keys` (`Bind` answers are sets —
    /// the number keeps equal keys apart), with a `k` child where the
    /// entry has content.
    fn seeded_connections(keys: Vec<Option<Tree>>) -> BTreeMap<String, Connection> {
        let rows = keys
            .into_iter()
            .enumerate()
            .map(|(n, key)| {
                let mut row = vec![Node::elem("n", n as i64)];
                row.extend(key.map(|content| Node::sym("k", vec![content])));
                Node::sym("row", row)
            })
            .collect();
        let mut connections = BTreeMap::new();
        connections.insert(
            "seed".to_string(),
            Connection::new(Box::new(Seed(Node::sym("seed", rows)))),
        );
        connections.insert(
            "o2artifact".to_string(),
            Connection::new(Box::new(yat_oql::O2Wrapper::new(
                "o2artifact",
                yat_oql::art::fig1_store(),
            ))),
        );
        connections
    }

    /// `seed *row [ n: $n, ?k: $<var> ]` over the seed document: one
    /// left row per `row`, `Null` where it has no `k`.
    fn seed_rows(var: &str) -> Arc<Alg> {
        use yat_model::{Edge, Pattern};
        Alg::bind(
            Alg::source_at("seed", "seed"),
            Pattern::sym(
                "seed",
                vec![Edge::star(Pattern::sym(
                    "row",
                    vec![
                        Edge::one(Pattern::elem_var("n", "n")),
                        Edge::opt(Pattern::elem_var("k", var)),
                    ],
                ))],
            ),
        )
    }

    /// Executes `plan` through the real pusher — batched, or forced
    /// through the per-row loop — and reports the answer with the O2
    /// round trips it took.
    fn run_passing(
        plan: &Alg,
        connections: &BTreeMap<String, Connection>,
        cache: &AnswerCache,
        per_row: bool,
    ) -> (Result<EvalOut, EvalError>, u64) {
        let (interfaces, funcs, skolems, registry) = (
            BTreeMap::new(),
            FnRegistry::with_builtins(),
            SkolemRegistry::new(),
            SourceRegistry::new(),
        );
        let spec = ExecSpec {
            connections,
            interfaces: &interfaces,
            funcs: &funcs,
            skolems: &skolems,
            obs: None,
            mode: ExecMode::Sequential,
            cache,
            registry: &registry,
        };
        let (catalog, pusher) = prepare(plan, &spec).expect("the seed document fetches");
        let per_row_loop = PerRow(&pusher);
        let ctx = EvalCtx {
            catalog: &catalog,
            model: None,
            funcs: &funcs,
            skolems: &skolems,
            push: Some(if per_row { &per_row_loop } else { &pusher }),
            obs: None,
        };
        let o2 = connections["o2artifact"].meter();
        let before = o2.snapshot().round_trips;
        let out = eval_env(plan, &ctx, &Env::new());
        (out, o2.snapshot().round_trips - before)
    }

    #[test]
    fn batched_passing_equals_the_per_row_loop_on_mixed_bindings() {
        let connections = seeded_connections(vec![
            Some(Node::atom("Nympheas")),
            Some(Node::atom("Waterloo Bridge")),
            Some(Node::atom("Nympheas")),
            None,
            Some(Node::sym("work", vec![Node::elem("title", "Nympheas")])),
            Some(Node::atom(1897)),
        ]);
        let artifacts =
            |filter: &str| Alg::bind(Alg::source("artifacts"), parse_filter(filter).unwrap());
        // the filter shares `$t`: atoms inline as constants, the `Null`
        // and tree-valued rows leave it a plain filter variable
        let shared = Alg::djoin(
            seed_rows("t"),
            Alg::push(
                "o2artifact",
                artifacts("set *class: artifact: tuple [ title: $t, price: $p ]"),
            ),
        );
        // a free predicate variable: the symbolic rows leave `$k`
        // dangling, which O2 refuses — per row or batched alike
        let by_title = Alg::push(
            "o2artifact",
            Alg::select(
                artifacts("set *class: artifact: tuple [ title: $t, year: $y ]"),
                Pred::var_eq("t", "k"),
            ),
        );
        let dangling = Alg::djoin(seed_rows("k"), by_title.clone());
        let atoms_only = Alg::djoin(
            Alg::select(seed_rows("k"), Pred::eq_const("k", "Nympheas")),
            by_title.clone(),
        );
        let no_rows = Alg::djoin(
            Alg::select(seed_rows("k"), Pred::eq_const("k", "nothing")),
            by_title,
        );
        // (plan, O2 round trips batched, O2 round trips of the loop): the
        // six rows hold four distinct bindings — two titles, a number,
        // and one symbolic binding for the `Null` and the tree alike —
        // which travel as one batch per shape, or one request each
        let cases = [
            (&shared, 2, 4),
            (&dangling, 2, 3),
            (&atoms_only, 1, 1),
            (&no_rows, 0, 0),
        ];
        for (plan, batched_trips, per_row_trips) in cases {
            let off = AnswerCache::off();
            let (batched, trips) = run_passing(plan, &connections, &off, false);
            assert_eq!(trips, batched_trips, "batched trips of {plan:?}");
            let (per_row, trips) = run_passing(plan, &connections, &off, true);
            assert_eq!(trips, per_row_trips, "per-row trips of {plan:?}");
            match (&batched, &per_row) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{plan:?}"),
                (Err(_), Err(_)) => {}
                other => panic!("disagreement on success for {plan:?}: {other:?}"),
            }
            // and with per-binding cache keys: cold equals the uncached
            // answer, warm ships nothing
            let cache = AnswerCache::new(yat_cache::CachePolicy::bounded());
            let (cold, _) = run_passing(plan, &connections, &cache, false);
            let (warm, trips) = run_passing(plan, &connections, &cache, false);
            if let Ok(batched) = &batched {
                assert_eq!(cold.as_ref().ok(), Some(batched));
                assert_eq!(warm.as_ref().ok(), Some(batched));
                assert_eq!(trips, 0, "every binding of {plan:?} hit the cache");
            } else {
                assert!(cold.is_err() && warm.is_err());
            }
        }
        // the shared-variable plan really mixed shapes: the two titles
        // once each, and every artifact for each of the two symbolic rows
        let (out, _) = run_passing(&shared, &connections, &AnswerCache::off(), false);
        let tab = out.unwrap();
        assert_eq!(tab.as_tab().unwrap().len(), 3 + 2 * 2);
        // O2's answer to the dangling variable is a typed refusal, per
        // row or batched
        for per_row in [false, true] {
            let (out, _) = run_passing(&dangling, &connections, &AnswerCache::off(), per_row);
            match out {
                Err(EvalError::Refused { source, .. }) => assert_eq!(source, "o2artifact"),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn more_bindings_than_a_batch_carries_ship_in_chunks() {
        let years = 1..=(MAX_BATCH_BINDINGS as i64 + 900);
        let connections = seeded_connections(years.clone().map(|y| Some(Node::atom(y))).collect());
        let plan = Alg::djoin(
            seed_rows("k"),
            Alg::push(
                "o2artifact",
                Alg::select(
                    Alg::bind(
                        Alg::source("artifacts"),
                        parse_filter("set *class: artifact: tuple [ title: $t, year: $y ]")
                            .unwrap(),
                    ),
                    Pred::var_eq("y", "k"),
                ),
            ),
        );
        let off = AnswerCache::off();
        let (batched, trips) = run_passing(&plan, &connections, &off, false);
        assert_eq!(trips, 2, "two chunks, however many bindings");
        let (per_row, trips) = run_passing(&plan, &connections, &off, true);
        assert_eq!(trips, years.count() as u64);
        let batched = batched.unwrap();
        assert_eq!(batched, per_row.unwrap());
        assert_eq!(
            batched.as_tab().unwrap().len(),
            2,
            "Fig. 1's two artifacts (1897, 1903) are found by the second chunk"
        );
    }

    #[test]
    fn dependency_analysis_skips_djoin_right() {
        let filter = parse_filter("works *$w").unwrap();
        let wais = Alg::push("wais", Alg::bind(Alg::source("works"), filter.clone()));
        let o2 = Alg::push("o2", Alg::bind(Alg::source("artifacts"), filter.clone()));
        let dependent = Alg::push("o2", Alg::bind(Alg::source("persons"), filter));

        // Join(wais, o2): both sides independent
        let plan = Alg::join(wais.clone(), o2.clone(), Pred::True);
        let mut found = Vec::new();
        independent_pushes(&plan, &mut found);
        assert_eq!(
            found.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["wais", "o2"]
        );

        // DJoin(left: wais, right: dependent): the right side needs
        // per-row bindings and must not be scattered
        let plan = Alg::djoin(wais, dependent);
        let mut found = Vec::new();
        independent_pushes(&plan, &mut found);
        assert_eq!(
            found.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["wais"]
        );
    }
}
