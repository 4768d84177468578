//! The mediator façade: connect wrappers, import capabilities, load
//! integration programs, answer queries.

use crate::compose::{compose, qualify};
use crate::executor::{
    execute_mode, execute_streamed, ExecError, ExecMode, ExecSpec, StreamPolicy,
};
use crate::explain::{CacheLine, Explain, IndexLine, LaneJob, ProgramLine, StorageLine};
use crate::optimizer::{optimize_with_registry, OptimizerOptions, Trace};
use crate::transport::{Connection, MeterSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use yat_algebra::{Alg, EvalOut, FnRegistry, SkolemRegistry};
use yat_cache::{AnswerCache, CachePolicy, CacheStats};
use yat_capability::interface::Interface;
use yat_capability::protocol::{Request, Response, WrapperServer};
use yat_federate::{Member, MemberRole, SourceRegistry};
use yat_yatl::{parse_program, parse_rule, translate, Rule};

/// A mediator-level failure.
#[derive(Debug)]
pub enum MediatorError {
    /// The wrapper handshake failed.
    Connect(String),
    /// A YATL program failed to parse.
    Parse(yat_yatl::ParseError),
    /// Execution failed.
    Exec(ExecError),
    /// A name clash or missing definition.
    Name(String),
}

impl std::fmt::Display for MediatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediatorError::Connect(m) => write!(f, "connect failed: {m}"),
            MediatorError::Parse(e) => write!(f, "{e}"),
            MediatorError::Exec(e) => write!(f, "{e}"),
            MediatorError::Name(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<yat_yatl::ParseError> for MediatorError {
    fn from(e: yat_yatl::ParseError) -> Self {
        MediatorError::Parse(e)
    }
}

impl From<ExecError> for MediatorError {
    fn from(e: ExecError) -> Self {
        MediatorError::Exec(e)
    }
}

/// The yat-mediator (Fig. 2): holds connections, imported interfaces,
/// views, and the Skolem registry of the integrated view.
#[derive(Default)]
pub struct Mediator {
    connections: BTreeMap<String, Connection>,
    interfaces: BTreeMap<String, Interface>,
    /// View name → translated (composed, qualified) plan.
    views: BTreeMap<String, Arc<Alg>>,
    view_rules: BTreeMap<String, Rule>,
    /// Exported document name → source id.
    source_of_doc: BTreeMap<String, String>,
    funcs: FnRegistry,
    skolems: SkolemRegistry,
    exec_mode: ExecMode,
    stream: StreamPolicy,
    cache: AnswerCache,
    registry: SourceRegistry,
}

impl Mediator {
    /// A mediator with the built-in compensation functions registered
    /// (`contains` evaluates locally when it cannot be pushed) and every
    /// policy at its fixed default, whatever the environment says:
    /// sequential dispatch, answer cache off, the default stream batch
    /// size. Change any of them through the `set_*` methods. A source
    /// failure that replica failover cannot absorb fails the query.
    pub fn new() -> Self {
        Mediator {
            funcs: FnRegistry::with_builtins(),
            ..Default::default()
        }
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Selects how [`Mediator::execute`] dispatches source work.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The current stream policy.
    pub fn stream_policy(&self) -> StreamPolicy {
        self.stream
    }

    /// Sets the batch size [`Mediator::execute_stream`] delivers in and
    /// the pending bound a streaming consumer (the server's wire writer)
    /// buffers up to. [`Mediator::execute`] always materializes.
    pub fn set_stream_policy(&mut self, policy: StreamPolicy) {
        self.stream = policy;
    }

    /// The current answer-cache policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy()
    }

    /// Replaces the answer cache with a fresh one under `policy`
    /// (existing entries are dropped, statistics restart).
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.cache = AnswerCache::new(policy);
    }

    /// The answer cache itself (to inspect entries or clear it).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Cumulative answer-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Declares that `source`'s data changed: bumps its epoch so cached
    /// answers recorded before the bump stop being served. Returns the
    /// new epoch, or `None` for an unknown source.
    pub fn bump_source_epoch(&self, source: &str) -> Option<u64> {
        if self.registry.is_group(source) {
            // a group's data changed: every member's epoch bumps, and the
            // aggregate (sum) epoch group-keyed answers validate against
            // moves with them
            let mut last = None;
            for m in self.registry.members_of(source) {
                if let Some(c) = self.connections.get(&m.name) {
                    last = Some(c.bump_epoch());
                }
            }
            return last;
        }
        self.connections.get(source).map(|c| c.bump_epoch())
    }

    /// The federation registry: groups, members, their capabilities and
    /// live cost records.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// The connection to a source, e.g. to configure simulated
    /// [`crate::Latency`] or read its meter directly.
    pub fn connection(&self, source: &str) -> Option<&Connection> {
        self.connections.get(source)
    }

    /// Re-hands every connection's epoch cell to its wrapper. Call after
    /// replacing a wrapper's underlying source in place — e.g. remounting
    /// it from its persistent store following a source restart: the
    /// remounted source learns the cell again (so future mutations keep
    /// invalidating) and raises it to its persisted epoch, so answers
    /// cached before the restart can never validate against the
    /// remounted data.
    pub fn resync_sources(&self) {
        for conn in self.connections.values() {
            conn.resync_epoch();
        }
    }

    /// Connects a wrapper and imports its interface
    /// (`yat> connect …; yat> import …;` in Fig. 2).
    pub fn connect(&mut self, server: Box<dyn WrapperServer>) -> Result<String, MediatorError> {
        let conn = Connection::new(server);
        let response = conn
            .call(&Request::GetInterface)
            .map_err(|e| MediatorError::Connect(e.to_string()))?;
        let iface = match response {
            Response::Interface(i) => i,
            Response::Error(m) => return Err(MediatorError::Connect(m)),
            other => {
                return Err(MediatorError::Connect(format!(
                    "unexpected response {other:?}"
                )))
            }
        };
        let id = iface.name.clone();
        if self.connections.contains_key(&id) {
            return Err(MediatorError::Name(format!(
                "source `{id}` already connected"
            )));
        }
        if self.registry.is_group(&id) || self.registry.member(&id).is_some() {
            return Err(MediatorError::Name(format!(
                "`{id}` is already a federation name"
            )));
        }
        for export in &iface.exports {
            if let Some(prev) = self.source_of_doc.insert(export.name.clone(), id.clone()) {
                return Err(MediatorError::Name(format!(
                    "document `{}` exported by both `{prev}` and `{id}`",
                    export.name
                )));
            }
        }
        self.interfaces.insert(id.clone(), iface);
        self.connections.insert(id.clone(), conn);
        Ok(id)
    }

    /// Connects a wrapper as a *federation member* of `group` with the
    /// given [`MemberRole`]. The wrapper's interface name identifies the
    /// member; its exported documents resolve to the **group** name, so
    /// plans address the group and the executor picks the members. A
    /// wrapper advertising no operations joins fetch-only: its documents
    /// are pulled and evaluated mediator-side, never pushed to. The
    /// member's cost record is attached to the connection, so every round
    /// trip feeds the scheduler from then on.
    pub fn connect_member(
        &mut self,
        server: Box<dyn WrapperServer>,
        group: &str,
        role: MemberRole,
    ) -> Result<String, MediatorError> {
        let conn = Connection::new(server);
        let response = conn
            .call(&Request::GetInterface)
            .map_err(|e| MediatorError::Connect(e.to_string()))?;
        let iface = match response {
            Response::Interface(i) => i,
            Response::Error(m) => return Err(MediatorError::Connect(m)),
            other => {
                return Err(MediatorError::Connect(format!(
                    "unexpected response {other:?}"
                )))
            }
        };
        let id = iface.name.clone();
        if self.connections.contains_key(&id) {
            return Err(MediatorError::Name(format!(
                "source `{id}` already connected"
            )));
        }
        if self.connections.contains_key(group) {
            return Err(MediatorError::Name(format!(
                "group `{group}` collides with a connected source"
            )));
        }
        // documents resolve to the group; members of the same group may
        // (and for replicas, will) export the same names
        for export in &iface.exports {
            if let Some(prev) = self.source_of_doc.get(&export.name) {
                if prev != group {
                    return Err(MediatorError::Name(format!(
                        "document `{}` exported by both `{prev}` and `{group}`",
                        export.name
                    )));
                }
            }
        }
        let mut member = match role {
            MemberRole::Replica => Member::replica(id.clone(), group),
            MemberRole::Shard { field, values } => Member::shard(id.clone(), group, field, values),
        };
        if iface.operations.is_empty() {
            member = member.fetch_only();
        }
        let cost = member.cost.clone();
        self.registry
            .register(member)
            .map_err(MediatorError::Name)?;
        for export in &iface.exports {
            self.source_of_doc
                .insert(export.name.clone(), group.to_string());
        }
        // the group's interface is what the optimizer sees when a plan
        // addresses the group: the most capable member's operation set
        // (execution only pushes to members that can execute)
        let upgrade = match self.interfaces.get(group) {
            Some(existing) => existing.operations.len() < iface.operations.len(),
            None => true,
        };
        if upgrade {
            let mut group_iface = iface.clone();
            group_iface.name = group.to_string();
            self.interfaces.insert(group.to_string(), group_iface);
        }
        self.interfaces.insert(id.clone(), iface);
        conn.set_cost_record(Some(cost));
        self.connections.insert(id.clone(), conn);
        Ok(id)
    }

    /// Loads a YATL integration program, registering each named rule as a
    /// view (`yat> load "view1.yat";`).
    pub fn load_program(&mut self, src: &str) -> Result<Vec<String>, MediatorError> {
        let program = parse_program(src)?;
        let mut names = Vec::new();
        for rule in program.rules {
            let Some(name) = rule.name.clone() else {
                return Err(MediatorError::Name(
                    "integration programs may only contain named rules".into(),
                ));
            };
            if self.source_of_doc.contains_key(&name) || self.views.contains_key(&name) {
                return Err(MediatorError::Name(format!("`{name}` is already defined")));
            }
            let plan = self.plan_rule(&rule);
            self.views.insert(name.clone(), plan);
            self.view_rules.insert(name.clone(), rule);
            names.push(name);
        }
        Ok(names)
    }

    /// Translates a rule and resolves view references and source names —
    /// the naive plan before optimization.
    pub fn plan_rule(&self, rule: &Rule) -> Arc<Alg> {
        let plan = translate(rule);
        let composed = compose(&plan, &self.views);
        qualify(&composed, &self.source_of_doc)
    }

    /// Plans an ad-hoc query.
    pub fn plan_query(&self, src: &str) -> Result<Arc<Alg>, MediatorError> {
        Ok(self.plan_rule(&parse_rule(src)?))
    }

    /// Optimizes a plan against the imported capabilities and the
    /// federation registry (partition pruning, member routing, cost-fed
    /// push-vs-pull).
    pub fn optimize(&self, plan: &Arc<Alg>, options: OptimizerOptions) -> (Arc<Alg>, Trace) {
        optimize_with_registry(plan, &self.interfaces, options, Some(&self.registry))
    }

    /// Executes a plan under the current [`ExecMode`] and cache policy,
    /// returning the materialized answer.
    pub fn execute(&self, plan: &Alg) -> Result<EvalOut, MediatorError> {
        Ok(execute_mode(plan, &self.exec_spec(None))?)
    }

    /// The execution spec for this mediator's current configuration.
    fn exec_spec<'a>(&'a self, obs: Option<&'a yat_obs::Collector>) -> ExecSpec<'a> {
        ExecSpec {
            connections: &self.connections,
            interfaces: &self.interfaces,
            funcs: &self.funcs,
            skolems: &self.skolems,
            obs,
            mode: self.exec_mode,
            cache: &self.cache,
            registry: &self.registry,
        }
    }

    /// Executes a plan with a streamed answer boundary: documents are
    /// fetched under the current mode and cache exactly as for
    /// [`Mediator::execute`], then the row-local top of the plan runs
    /// batch by batch ([`yat_algebra::stream::pipeline`]) and the answer
    /// reaches `sink` in chunks of the stream policy's `batch_rows` as
    /// each chunk is built.
    pub fn execute_stream(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        self.execute_stream_traced(plan, sink, None)
    }

    /// [`Mediator::execute_stream`] with an optional span collector: the
    /// `stream` span covers the whole execution and records batch size,
    /// chunk and row counts and when the sink accepted chunk 0; in
    /// parallel mode the `scatter` span records the gather channel's
    /// peak occupancy (`peak_pending`).
    pub fn execute_stream_traced(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
        obs: Option<&yat_obs::Collector>,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        let batch_rows = self.stream.batch_rows;
        let mut span = obs.map(|o| {
            let mut s = o.span(yat_obs::kind::STREAM, "stream answer".to_string());
            s.record_u64(yat_obs::attr::BATCH_ROWS, batch_rows as u64);
            s
        });
        let mut timed = FirstChunk::new(sink);
        let stats = execute_streamed(plan, &self.exec_spec(obs), batch_rows, &mut timed);
        if let Some(s) = span.as_mut() {
            if let Some(first) = timed.first {
                s.record_u64(yat_obs::attr::FIRST_CHUNK_US, first.as_micros() as u64);
            }
            match &stats {
                Ok(stats) => {
                    s.record_u64(yat_obs::attr::CHUNKS, stats.chunks);
                    s.record_u64(yat_obs::attr::ROWS_OUT, stats.rows);
                }
                Err(e) => s.record_str(yat_obs::attr::ERROR, e.to_string()),
            }
        }
        Ok(stats?)
    }

    /// Plan → optimize → execute, end to end.
    pub fn query(&self, src: &str, options: OptimizerOptions) -> Result<EvalOut, MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, _) = self.optimize(&plan, options);
        self.execute(&optimized)
    }

    /// Plan → optimize → streamed execution, end to end: the streaming
    /// equivalent of [`Mediator::query`].
    pub fn query_stream(
        &self,
        src: &str,
        options: OptimizerOptions,
        sink: &mut dyn yat_algebra::BatchSink,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, _) = self.optimize(&plan, options);
        self.execute_stream(&optimized, sink)
    }

    /// `EXPLAIN ANALYZE`: executes `plan` with a span collector attached
    /// and returns the annotated operator tree — per-operator execution
    /// counts, output cardinalities, wall times, and per-source wire
    /// traffic. Traffic is derived from *this execution's* `rpc` spans
    /// rather than from meter deltas, so concurrent queries on the same
    /// mediator cannot leak into each other's reports.
    pub fn explain(&self, plan: &Arc<Alg>) -> Result<Explain, MediatorError> {
        self.explain_with_trace(plan, None)
    }

    /// [`Mediator::explain`], attaching the optimizer [`Trace`] that
    /// produced `plan` so the rendering includes the rewrite derivation.
    pub fn explain_with_trace(
        &self,
        plan: &Arc<Alg>,
        trace: Option<Trace>,
    ) -> Result<Explain, MediatorError> {
        let obs = yat_obs::Collector::new();
        let output = execute_mode(plan, &self.exec_spec(Some(&obs)))?;
        let rows = match &output {
            EvalOut::Tab(t) => t.len() as u64,
            EvalOut::Tree(_) => 1,
        };
        let spans = obs.spans();
        let mut traffic: BTreeMap<String, MeterSnapshot> = BTreeMap::new();
        let mut lanes = Vec::new();
        let mut cache: BTreeMap<String, CacheLine> = BTreeMap::new();
        let mut index: BTreeMap<String, IndexLine> = BTreeMap::new();
        let mut storage: BTreeMap<String, StorageLine> = BTreeMap::new();
        let mut program_lines = Vec::new();
        for span in &spans {
            // one line per operator execution, with the rows it produced
            if span.kind == yat_obs::kind::OPERATOR {
                program_lines.push(ProgramLine {
                    label: span.label.clone(),
                    rows: span
                        .attr(yat_obs::attr::ROWS_OUT)
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0),
                });
            }
            // rpc spans name their source in an attribute; a span carrying
            // an error moved no meter, so it adds no traffic
            if span.kind == yat_obs::kind::RPC && span.attr(yat_obs::attr::ERROR).is_none() {
                let Some(yat_obs::AttrValue::Str(source)) = span.attr(yat_obs::attr::SOURCE) else {
                    continue;
                };
                let counter = |name| span.attr(name).and_then(|v| v.as_u64()).unwrap_or(0);
                let m = traffic.entry(source.to_string()).or_default();
                m.round_trips += 1;
                m.bytes_sent += counter(yat_obs::attr::BYTES_SENT);
                m.bytes_received += counter(yat_obs::attr::BYTES_RECEIVED);
                m.documents_received += counter(yat_obs::attr::DOCUMENTS);
            }
            // scatter jobs are the phase spans tagged with a lane index
            if span.kind == yat_obs::kind::PHASE {
                if let Some(lane) = span.attr(yat_obs::attr::LANE).and_then(|v| v.as_u64()) {
                    lanes.push(LaneJob {
                        lane,
                        label: span.label.clone(),
                        elapsed: span.elapsed,
                    });
                }
            }
            // cache events are labeled "<outcome> @<source>"
            if span.kind == yat_obs::kind::CACHE {
                let Some((outcome, source)) = span.label.split_once(" @") else {
                    continue;
                };
                let line = cache.entry(source.to_string()).or_default();
                match outcome {
                    "hit" => {
                        line.hits += 1;
                        line.bytes_saved += span
                            .attr(yat_obs::attr::BYTES_SAVED)
                            .and_then(|v| v.as_u64())
                            .unwrap_or(0);
                    }
                    "miss" => line.misses += 1,
                    "evict" => line.evictions += 1,
                    _ => {}
                }
            }
            // index events are labeled "<collection> @<source>"; each
            // says how many plan evaluations it covers and how many of
            // them scanned
            if span.kind == yat_obs::kind::INDEX {
                let counter = |name| span.attr(name).and_then(|v| v.as_u64()).unwrap_or(0);
                let line = index.entry(span.label.clone()).or_default();
                let evaluations = counter(yat_obs::attr::EVALUATIONS);
                let scans = counter(yat_obs::attr::SCAN_EVALUATIONS);
                line.indexed += evaluations.saturating_sub(scans);
                line.scans += scans;
                line.probes += counter(yat_obs::attr::PROBES);
                line.candidates += counter(yat_obs::attr::CANDIDATES);
                line.scanned += counter(yat_obs::attr::SCANNED);
                line.collection += counter(yat_obs::attr::COLLECTION_SIZE);
            }
            // storage events are labeled "<collection> @<source>"; only
            // store-backed sources emit them. Gauges (segments, resident)
            // take the latest value, activity counters accumulate.
            if span.kind == yat_obs::kind::STORAGE {
                let counter = |name| span.attr(name).and_then(|v| v.as_u64()).unwrap_or(0);
                let line = storage.entry(span.label.clone()).or_default();
                line.segments = counter(yat_obs::attr::SEGMENTS);
                line.resident = counter(yat_obs::attr::RESIDENT);
                line.loads += counter(yat_obs::attr::SEGMENT_LOADS);
                line.evictions += counter(yat_obs::attr::EVICTIONS);
                line.bytes_read += counter(yat_obs::attr::BYTES_READ);
            }
        }
        lanes.sort_by(|a, b| (a.lane, &a.label).cmp(&(b.lane, &b.label)));
        let federation = self
            .registry
            .member_names()
            .iter()
            .filter_map(|n| self.registry.member(n))
            .map(|m| crate::explain::FederationLine {
                name: m.name.clone(),
                group: m.group.clone(),
                role: match &m.role {
                    MemberRole::Replica => "replica".to_string(),
                    MemberRole::Shard { field, values } => {
                        let vals: Vec<&str> = values.iter().map(String::as_str).collect();
                        format!("shard({field} in {{{}}})", vals.join(", "))
                    }
                },
                execute: m.execute,
                cost: m.cost.snapshot(),
            })
            .collect();
        Ok(Explain {
            plan: plan.clone(),
            output,
            rows,
            profile: yat_obs::profile::build(&spans),
            traffic,
            mode: self.exec_mode,
            program: program_lines,
            lanes,
            cache,
            index,
            storage,
            cache_policy: self.cache.policy(),
            federation,
            trace,
        })
    }

    /// Plan → optimize → `EXPLAIN ANALYZE`, end to end: the profiled
    /// equivalent of [`Mediator::query`], with the optimizer derivation
    /// attached.
    pub fn explain_query(
        &self,
        src: &str,
        options: OptimizerOptions,
    ) -> Result<Explain, MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, trace) = self.optimize(&plan, options);
        self.explain_with_trace(&optimized, Some(trace))
    }

    /// The imported interfaces.
    pub fn interfaces(&self) -> &BTreeMap<String, Interface> {
        &self.interfaces
    }

    /// The registered views.
    pub fn views(&self) -> &BTreeMap<String, Arc<Alg>> {
        &self.views
    }

    /// The YATL rules of the registered views.
    pub fn view_rules(&self) -> &BTreeMap<String, Rule> {
        &self.view_rules
    }

    /// Which source exports a document.
    pub fn source_of(&self, doc: &str) -> Option<&str> {
        self.source_of_doc.get(doc).map(String::as_str)
    }

    /// Total traffic across all connections.
    pub fn traffic(&self) -> MeterSnapshot {
        self.connections
            .values()
            .map(|c| c.meter().snapshot())
            .fold(MeterSnapshot::default(), |a, b| a + b)
    }

    /// Traffic for one connection.
    pub fn traffic_of(&self, source: &str) -> Option<MeterSnapshot> {
        self.connections.get(source).map(|c| c.meter().snapshot())
    }

    /// Resets all meters (between benchmark phases).
    pub fn reset_traffic(&self) {
        for c in self.connections.values() {
            c.meter().reset();
        }
    }
}

/// Notes when the wrapped sink accepted chunk 0, measured from the
/// start of the execution — the `stream answer` span's
/// [`yat_obs::attr::FIRST_CHUNK_US`].
struct FirstChunk<'s> {
    sink: &'s mut dyn yat_algebra::BatchSink,
    started: std::time::Instant,
    first: Option<std::time::Duration>,
}

impl<'s> FirstChunk<'s> {
    fn new(sink: &'s mut dyn yat_algebra::BatchSink) -> Self {
        FirstChunk {
            sink,
            started: std::time::Instant::now(),
            first: None,
        }
    }

    fn accepted(&mut self) {
        self.first.get_or_insert_with(|| self.started.elapsed());
    }
}

impl yat_algebra::BatchSink for FirstChunk<'_> {
    fn on_columns(&mut self, columns: &[String]) -> Result<(), yat_algebra::EvalError> {
        self.sink.on_columns(columns)
    }

    fn on_batch(&mut self, batch: yat_algebra::Tab) -> Result<(), yat_algebra::EvalError> {
        self.sink.on_batch(batch)?;
        self.accepted();
        Ok(())
    }

    fn on_tree(&mut self, tree: &yat_model::Tree) -> Result<(), yat_algebra::EvalError> {
        self.sink.on_tree(tree)?;
        self.accepted();
        Ok(())
    }
}

/// What the frozen benchmark package (`yat-benchmark/`) still names of
/// retired switches: it pins an engine, a scatter schedule, a stream
/// policy, a mediator index policy and a partial-failure policy per
/// workload and reads a compile counter. The interpreter is the only
/// engine and nothing is ever compiled; scatter jobs are always
/// cost-ordered; the stream policy it names is the default; the
/// mediator keeps no index of its own (an
/// [`yat_capability::IndexPolicy`] governs sources only); a source
/// failure that replica failover cannot absorb always fails the query,
/// which is the one failure policy it names. Pinning any of them
/// changes nothing. ROADMAP item 1(a) deletes this block
/// together with the fixtures' calls.
#[doc(hidden)]
pub mod bench_compat {
    use super::Mediator;
    use crate::StreamPolicy;
    use yat_capability::IndexPolicy;

    /// The retired engine choice; every variant runs the interpreter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ExecEngine {
        /// The interpreter.
        Interp,
        /// Also the interpreter.
        Vm,
    }

    /// The retired scheduling choice; its one value is what the
    /// executor always does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SchedPolicy {
        /// Cost-ordered scatter jobs.
        Cost,
    }

    /// The retired partial-failure choice; its one value is what the
    /// executor always does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PartialFailure {
        /// A source failure that failover cannot absorb fails the query.
        Strict,
    }

    #[doc(hidden)]
    impl StreamPolicy {
        /// The default stream policy, under the name of the retired
        /// `Off` variant, which behaved exactly like it.
        #[allow(non_upper_case_globals)]
        pub const Off: StreamPolicy = StreamPolicy {
            batch_rows: StreamPolicy::DEFAULT_BATCH_ROWS,
            max_pending: StreamPolicy::DEFAULT_MAX_PENDING,
        };
    }

    #[doc(hidden)]
    impl Mediator {
        /// Does nothing: there is one engine.
        pub fn set_exec_engine(&mut self, _engine: ExecEngine) {}

        /// Always 0: nothing is compiled.
        pub fn programs_compiled(&self) -> u64 {
            0
        }

        /// Does nothing: there is one schedule.
        pub fn set_sched_policy(&mut self, _policy: SchedPolicy) {}

        /// Does nothing: the mediator keeps no index; sources take
        /// their own policy.
        pub fn set_index_policy(&mut self, _policy: IndexPolicy) {}

        /// Does nothing: there is one failure semantics.
        pub fn set_partial_failure(&mut self, _policy: PartialFailure) {}
    }

    #[cfg(test)]
    mod tests {
        use super::{ExecEngine, PartialFailure, SchedPolicy};
        use crate::tests::{fig1_mediator, generated_mediator};
        use crate::{ExecMode, Mediator, OptimizerOptions, StreamPolicy};
        use yat_capability::IndexPolicy;
        use yat_obs::{attr, kind};
        use yat_yatl::paper;

        /// Q1 at the Fig. 8 level and Q2 at the Fig. 9 level, on the
        /// Fig. 1 data and on generated data: whatever engine the
        /// benchmark pins, the answer bytes and per-source traffic are
        /// the interpreter's, nothing is compiled, and `Explain::program`
        /// is one line per operator execution.
        #[test]
        fn a_pinned_engine_serves_the_interpreter() {
            type Build = fn() -> Mediator;
            let builds: [Build; 2] = [fig1_mediator, || generated_mediator(40, 60, 7)];
            for build in builds {
                for (query, options) in [
                    (paper::Q1, OptimizerOptions::full()),
                    (paper::Q2, OptimizerOptions::default()),
                ] {
                    let run = |engine| {
                        let mut m = build();
                        m.set_exec_engine(engine);
                        m.reset_traffic();
                        let out = m.query(query, options).unwrap();
                        let traffic: Vec<_> = ["o2artifact", "xmlartwork"]
                            .map(|s| m.traffic_of(s).unwrap())
                            .into();
                        let answer = yat_capability::protocol::ServerReply::answer(out)
                            .to_xml()
                            .to_xml();
                        (answer, traffic, m)
                    };
                    let (interp, interp_traffic, _) = run(ExecEngine::Interp);
                    let (vm, vm_traffic, m) = run(ExecEngine::Vm);
                    assert_eq!(vm, interp, "answer bytes of {query}");
                    assert_eq!(vm_traffic, interp_traffic, "traffic of {query}");
                    assert_eq!(m.programs_compiled(), 0);

                    let plan = m.plan_query(query).unwrap();
                    let (opt, _) = m.optimize(&plan, options);
                    let obs = yat_obs::Collector::new();
                    let mut sink = yat_algebra::CollectSink::new();
                    m.execute_stream_traced(&opt, &mut sink, Some(&obs))
                        .unwrap();
                    let operator_rows: u64 = obs
                        .spans()
                        .iter()
                        .filter(|s| s.kind == kind::OPERATOR)
                        .filter_map(|s| s.attr(attr::ROWS_OUT).and_then(|v| v.as_u64()))
                        .sum();
                    let ex = m.explain(&opt).unwrap();
                    let program_rows: u64 = ex.program.iter().map(|l| l.rows).sum();
                    assert!(program_rows > 0, "{query}");
                    assert_eq!(program_rows, operator_rows, "{query}");
                    assert_eq!(m.programs_compiled(), 0);
                }
            }
        }

        /// The frozen benchmark pins `SchedPolicy::Cost`,
        /// `StreamPolicy::Off`, an `IndexPolicy` and
        /// `PartialFailure::Strict` on every workload: the first and the
        /// last are what the executor does anyway, the second is the
        /// default policy and the third has nothing in the mediator to
        /// govern, so a pinned mediator answers, ships and streams
        /// exactly like an unpinned one.
        #[test]
        fn a_pinned_schedule_and_stream_policy_change_nothing() {
            assert_eq!(StreamPolicy::Off, StreamPolicy::default());
            type Build = fn() -> Mediator;
            let builds: [Build; 2] = [fig1_mediator, || generated_mediator(40, 60, 7)];
            for build in builds {
                for query in [paper::Q1, paper::Q2] {
                    let run = |pin: Option<IndexPolicy>| {
                        let mut m = build();
                        m.set_exec_mode(ExecMode::parallel());
                        if let Some(index) = pin {
                            m.set_sched_policy(SchedPolicy::Cost);
                            m.set_stream_policy(StreamPolicy::Off);
                            m.set_index_policy(index);
                            m.set_partial_failure(PartialFailure::Strict);
                        }
                        assert_eq!(m.stream_policy(), StreamPolicy::default());
                        m.reset_traffic();
                        let plan = m.plan_query(query).unwrap();
                        let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
                        let ex = m.explain(&opt).unwrap();
                        let lanes: Vec<_> =
                            ex.lanes.iter().map(|j| (j.lane, j.label.clone())).collect();
                        let answer = yat_capability::protocol::ServerReply::answer(ex.output)
                            .to_xml()
                            .to_xml();
                        let mut sink = yat_algebra::CollectSink::new();
                        let stats = m.execute_stream(&opt, &mut sink).unwrap();
                        (answer, ex.traffic, lanes, stats.chunks, stats.rows)
                    };
                    let unpinned = run(None);
                    for index in [IndexPolicy::Off, IndexPolicy::On] {
                        assert_eq!(run(Some(index)), unpinned, "{query} under {index:?}");
                    }
                }
            }
        }
    }
}
