//! The mediator façade: connect wrappers, import capabilities, load
//! integration programs, answer queries.

use crate::compose::{compose, qualify};
use crate::executor::{
    execute_mode, execute_stream_mode, ExecEngine, ExecError, ExecMode, ExecSpec, SchedPolicy,
    StreamPolicy,
};
use crate::explain::{CacheLine, Explain, IndexLine, LaneJob, StorageLine};
use crate::optimizer::{optimize_with_registry, OptimizerOptions, Trace};
use crate::transport::{Connection, MeterSnapshot};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use yat_algebra::{Alg, BindIndexCache, EvalOut, FnRegistry, Program, SkolemRegistry};
use yat_cache::{AnswerCache, CachePolicy, CacheStats};
use yat_capability::interface::Interface;
use yat_capability::protocol::{Request, Response, WrapperServer};
use yat_capability::IndexPolicy;
use yat_federate::{Member, MemberRole, PartialFailure, ProvLog, Provenance, SourceRegistry};
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
    exec_engine: ExecEngine,
    stream: StreamPolicy,
    cache: AnswerCache,
    programs: ProgramCache,
    registry: SourceRegistry,
    partial: PartialFailure,
    sched: SchedPolicy,
    index_policy: IndexPolicy,
    /// Structural indexes for mediator-local `Bind`s, built lazily per
    /// collection tree and keyed by tree identity (see
    /// [`yat_algebra::BindIndexCache`]). Consulted only when
    /// `index_policy` is on.
    bind_index: BindIndexCache,
}

/// Compiled programs keyed by plan hash, confirmed against the stored
/// plan on hit so hash collisions cannot serve the wrong program. The
/// cache sits behind a `Mutex` so `&self` execution paths — including
/// the shared-`Mediator` workers of yat-server — reuse one compilation
/// of a hot plan instead of recompiling per query.
#[derive(Default)]
struct ProgramCache {
    slots: Mutex<HashMap<u64, Vec<ProgramSlot>>>,
    compiles: Mutex<u64>,
}

/// One compiled plan: the plan retained for collision confirmation, and
/// its shared program.
type ProgramSlot = (Arc<Alg>, Arc<Program>);

impl ProgramCache {
    fn get(&self, plan: &Alg) -> Arc<Program> {
        let mut hasher = DefaultHasher::new();
        plan.hash(&mut hasher);
        let key = hasher.finish();
        let mut slots = self.slots.lock().unwrap();
        let bucket = slots.entry(key).or_default();
        if let Some((_, program)) = bucket.iter().find(|(p, _)| p.as_ref() == plan) {
            return program.clone();
        }
        let program = Arc::new(yat_algebra::compile(plan));
        bucket.push((Arc::new(plan.clone()), program.clone()));
        *self.compiles.lock().unwrap() += 1;
        program
    }

    fn compiles(&self) -> u64 {
        *self.compiles.lock().unwrap()
    }
}

impl Mediator {
    /// A mediator with the built-in compensation functions registered
    /// (`contains` evaluates locally when it cannot be pushed) and every
    /// policy at its fixed default, whatever the environment says:
    /// sequential dispatch, the interpreter, answer cache off, stream
    /// policy off, strict partial failure, cost-ordered scatter
    /// scheduling, local `Bind` indexes on. Change any of them through
    /// the `set_*` methods.
    pub fn new() -> Self {
        Mediator {
            funcs: FnRegistry::with_builtins(),
            ..Default::default()
        }
    }

    /// The current index policy.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Selects whether mediator-local `Bind`s consult structural indexes
    /// (`On`) or always walk (`Off`, the scan oracle). Wrapper-side
    /// indexes are governed by each source's own policy; both default to
    /// `On`. Either way, answers and wire traffic are identical — only
    /// evaluation strategy changes.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Selects how [`Mediator::execute`] dispatches source work.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The current execution engine.
    pub fn exec_engine(&self) -> ExecEngine {
        self.exec_engine
    }

    /// Selects how [`Mediator::execute`] evaluates plans: the tree
    /// interpreter, or compiled programs run on the VM.
    pub fn set_exec_engine(&mut self, engine: ExecEngine) {
        self.exec_engine = engine;
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

    /// How many distinct plans have been compiled for the VM so far.
    /// Stays flat while cached programs are being reused — the
    /// compile-once / execute-many counter.
    pub fn programs_compiled(&self) -> u64 {
        self.programs.compiles()
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
    /// answers recorded before the bump stop being served (per the
    /// policy's `ttl_epochs` window). Returns the new epoch, or `None`
    /// for an unknown source.
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

    /// The current partial-failure policy.
    pub fn partial_failure(&self) -> PartialFailure {
        self.partial
    }

    /// Selects what a per-source failure does to a query: fail it
    /// (`Strict`, the default) or degrade the answer with provenance.
    pub fn set_partial_failure(&mut self, policy: PartialFailure) {
        self.partial = policy;
    }

    /// The current scatter scheduling policy.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched
    }

    /// Selects how scatter jobs are ordered onto worker lanes.
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched = policy;
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

    /// Executes a plan under the current [`ExecMode`], [`ExecEngine`]
    /// and cache policy, returning the materialized answer.
    pub fn execute(&self, plan: &Alg) -> Result<EvalOut, MediatorError> {
        self.execute_with_prov(plan, None)
    }

    /// [`Mediator::execute`] under the `Degrade` partial-failure policy,
    /// additionally returning the answer's [`Provenance`]: which sources
    /// contributed, and which were missing (with the error that sidelined
    /// them). Under `Strict` the provenance of a successful answer simply
    /// lists every consulted source with nothing missing.
    pub fn execute_federated(&self, plan: &Alg) -> Result<(EvalOut, Provenance), MediatorError> {
        let prov = ProvLog::new();
        let out = self.execute_with_prov(plan, Some(&prov))?;
        Ok((out, prov.snapshot()))
    }

    fn execute_with_prov(
        &self,
        plan: &Alg,
        prov: Option<&ProvLog>,
    ) -> Result<EvalOut, MediatorError> {
        let program = self.program_for(plan);
        let spec = self.exec_spec(None, program.as_deref(), prov);
        Ok(execute_mode(plan, &spec)?)
    }

    /// The execution spec for this mediator's current configuration.
    fn exec_spec<'a>(
        &'a self,
        obs: Option<&'a yat_obs::Collector>,
        program: Option<&'a Program>,
        prov: Option<&'a ProvLog>,
    ) -> ExecSpec<'a> {
        ExecSpec {
            connections: &self.connections,
            interfaces: &self.interfaces,
            funcs: &self.funcs,
            skolems: &self.skolems,
            obs,
            mode: self.exec_mode,
            cache: &self.cache,
            engine: self.exec_engine,
            program,
            registry: &self.registry,
            partial: self.partial,
            sched: self.sched,
            prov,
            bind_index: self.index_policy.is_on().then_some(&self.bind_index),
        }
    }

    /// Executes a plan with a streamed answer boundary: the plan is
    /// split into a prefix and its streamable top chain
    /// ([`yat_algebra::stream::split`]), the prefix runs under the
    /// current mode/engine/cache exactly like [`Mediator::execute`], and
    /// the answer is delivered to `sink` in batches of the stream
    /// policy's `batch_rows` (the default batch size when the policy is
    /// `Off` — callers asking to stream get streaming).
    ///
    /// Compiled programs are cached per *prefix*, so a plan executes
    /// through the same cached program whether it streams or not
    /// whenever its streamable chain is empty.
    pub fn execute_stream(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        self.execute_stream_traced(plan, sink, None)
    }

    /// [`Mediator::execute_stream`] with an optional span collector: the
    /// `stream` span records batch size, chunk and row counts; in
    /// parallel mode the `scatter` span records the gather channel's
    /// peak occupancy (`peak_pending`).
    pub fn execute_stream_traced(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
        obs: Option<&yat_obs::Collector>,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        self.execute_stream_inner(plan, sink, obs, None)
    }

    /// [`Mediator::execute_stream`] under the `Degrade` policy with a
    /// [`Provenance`] attached — the streaming twin of
    /// [`Mediator::execute_federated`].
    pub fn execute_stream_federated(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
    ) -> Result<(yat_algebra::stream::DeliveryStats, Provenance), MediatorError> {
        let prov = ProvLog::new();
        let stats = self.execute_stream_inner(plan, sink, None, Some(&prov))?;
        Ok((stats, prov.snapshot()))
    }

    fn execute_stream_inner(
        &self,
        plan: &Arc<Alg>,
        sink: &mut dyn yat_algebra::BatchSink,
        obs: Option<&yat_obs::Collector>,
        prov: Option<&ProvLog>,
    ) -> Result<yat_algebra::stream::DeliveryStats, MediatorError> {
        let (prefix, stages) = yat_algebra::stream::split(plan);
        let batch_rows = match self.stream {
            StreamPolicy::Chunked { batch_rows, .. } => batch_rows,
            StreamPolicy::Off => StreamPolicy::DEFAULT_BATCH_ROWS,
        };
        let program = self.program_for(&prefix);
        let spec = self.exec_spec(obs, program.as_deref(), prov);
        Ok(execute_stream_mode(
            &prefix, &stages, &spec, batch_rows, sink,
        )?)
    }

    /// The cached compiled program for `plan` under the VM engine
    /// (compiling on first sight); `None` under the interpreter.
    fn program_for(&self, plan: &Alg) -> Option<Arc<Program>> {
        match self.exec_engine {
            ExecEngine::Interp => None,
            ExecEngine::Vm => Some(self.programs.get(plan)),
        }
    }

    /// Plan → optimize → execute, end to end.
    pub fn query(&self, src: &str, options: OptimizerOptions) -> Result<EvalOut, MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, _) = self.optimize(&plan, options);
        self.execute(&optimized)
    }

    /// [`Mediator::query`], also returning the answer's [`Provenance`]:
    /// which federation members answered, and which were skipped under
    /// [`PartialFailure::Degrade`]. For an unfederated mediator the
    /// provenance is empty and this is exactly `query`.
    pub fn query_federated(
        &self,
        src: &str,
        options: OptimizerOptions,
    ) -> Result<(EvalOut, Provenance), MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, _) = self.optimize(&plan, options);
        self.execute_federated(&optimized)
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

    /// [`Mediator::query_stream`], also returning the [`Provenance`] so
    /// the server can stamp degraded-answer attributes on the terminal
    /// `answer-end` frame.
    pub fn query_stream_federated(
        &self,
        src: &str,
        options: OptimizerOptions,
        sink: &mut dyn yat_algebra::BatchSink,
    ) -> Result<(yat_algebra::stream::DeliveryStats, Provenance), MediatorError> {
        let plan = self.plan_query(src)?;
        let (optimized, _) = self.optimize(&plan, options);
        self.execute_stream_federated(&optimized, sink)
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
        let program = self.program_for(plan);
        let prov = ProvLog::new();
        let output = {
            let spec = self.exec_spec(Some(&obs), program.as_deref(), Some(&prov));
            execute_mode(plan, &spec)?
        };
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
            // VM-instruction events carry the compiled-program listing
            // with per-instruction batch/row counters (emission order is
            // instruction order)
            if span.kind == yat_obs::kind::VM {
                let counter = |name| span.attr(name).and_then(|v| v.as_u64()).unwrap_or(0);
                program_lines.push(crate::explain::ProgramLine {
                    label: span.label.clone(),
                    batches: counter(yat_obs::attr::BATCHES),
                    rows: counter(yat_obs::attr::ROWS_OUT),
                });
            }
            // rpc spans are labeled "<request-kind> @<source>"; a span
            // carrying an error moved no meter, so it adds no traffic
            if span.kind == yat_obs::kind::RPC && span.attr(yat_obs::attr::ERROR).is_none() {
                let Some(source) = span.label.split(" @").nth(1) else {
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
            // index events are labeled "<collection> @<source>" (pushed)
            // or "bind <root> @local". A pushed event says how many plan
            // evaluations it covers and how many of them scanned; a local
            // one is a single evaluation, answered through an index iff
            // it issued probes
            if span.kind == yat_obs::kind::INDEX {
                let attr = |name| span.attr(name).and_then(|v| v.as_u64());
                let counter = |name| attr(name).unwrap_or(0);
                let line = index.entry(span.label.clone()).or_default();
                let probes = counter(yat_obs::attr::PROBES);
                let evaluations = attr(yat_obs::attr::EVALUATIONS).unwrap_or(1);
                let scans = attr(yat_obs::attr::SCAN_EVALUATIONS).unwrap_or(u64::from(probes == 0));
                line.indexed += evaluations - scans.min(evaluations);
                line.scans += scans;
                line.probes += probes;
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
            engine: self.exec_engine,
            program: program_lines,
            lanes,
            cache,
            index,
            storage,
            cache_policy: self.cache.policy(),
            federation,
            provenance: prov.snapshot(),
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

    /// The mediator's external-function registry (tests may register
    /// extra compensations).
    pub fn funcs_mut(&mut self) -> &mut FnRegistry {
        &mut self.funcs
    }
}
