//! `EXPLAIN ANALYZE`: execute a plan with the span collector attached and
//! return the annotated operator tree.
//!
//! The profile shows, per plan position, how many times the operator ran,
//! its total output cardinality and wall time, and — inclusively — the
//! wire traffic its subtree caused. That makes the paper's optimization
//! story directly visible: at the capability level Q1's `Push → wais` row
//! carries the whole Wais-side cost (one `execute` round trip, measured
//! bytes and documents) while the O2 branch is simply absent.

use crate::executor::{ExecEngine, ExecMode};
use crate::optimizer::Trace;
use crate::transport::MeterSnapshot;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use yat_algebra::{Alg, EvalOut};
use yat_cache::CachePolicy;
use yat_federate::{CostSnapshot, Provenance};
use yat_obs::profile::{fmt_duration, ProfileNode};
use yat_xml::Element;

/// One scatter job as `EXPLAIN ANALYZE` reports it: what ran, on which
/// worker lane, and for how long. The longest job is the critical path
/// of the scatter phase — the wall time parallel execution cannot beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneJob {
    /// Worker lane index (statically assigned round-robin).
    pub lane: u64,
    /// Job label, `fetch @<source>` or `push @<source>`.
    pub label: String,
    /// Wall time of the job.
    pub elapsed: Duration,
}

/// One instruction of the compiled program a VM execution ran, with its
/// batch/row counters — `EXPLAIN ANALYZE`'s "compiled program" section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramLine {
    /// Rendered instruction: `#<id> <OPCODE> <operator description>`,
    /// indented two spaces per dependent-join nesting level.
    pub label: String,
    /// Row batches this instruction processed.
    pub batches: u64,
    /// Rows this instruction produced.
    pub rows: u64,
}

/// Per-source answer-cache activity of one execution, aggregated from
/// the `cache` events the lookup/insert path emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLine {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the wire.
    pub misses: u64,
    /// Entries evicted under the byte budget during this execution.
    pub evictions: u64,
    /// Response bytes hits kept off the wire.
    pub bytes_saved: u64,
}

/// Per-target index activity of one execution, aggregated from the
/// `index` events the transport and the local bind path emitted. Keys
/// are the event labels: `<collection> @<source>` for pushed work,
/// `bind <root> @local` for mediator-local matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexLine {
    /// Evaluations answered through an index (they issued probes).
    pub indexed: u64,
    /// Evaluations that fell back to a scan.
    pub scans: u64,
    /// Index probes issued.
    pub probes: u64,
    /// Candidates the probes seeded, before re-checking predicates.
    pub candidates: u64,
    /// Documents/objects/nodes actually examined.
    pub scanned: u64,
    /// Collection/extent size addressed (summed over evaluations).
    pub collection: u64,
}

/// Per-source persistent-store activity of one execution, aggregated
/// from the `storage` events the transport emitted. Keys are the event
/// labels, `<collection> @<source>`. Only store-backed sources ever
/// contribute a line — an all-in-memory federation has no storage
/// section at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageLine {
    /// Live segments in the source's store (last report wins).
    pub segments: u64,
    /// Segments resident after the execution (last report wins).
    pub resident: u64,
    /// Segment loads from disk during the execution.
    pub loads: u64,
    /// Segment evictions during the execution.
    pub evictions: u64,
    /// Bytes read from disk during the execution.
    pub bytes_read: u64,
}

/// One federation member as `EXPLAIN ANALYZE` reports it: its group,
/// role, capability, and live cost record at explain time.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationLine {
    /// Member (connection) name.
    pub name: String,
    /// Group the member belongs to.
    pub group: String,
    /// Rendered role, `replica` or `shard(<field> ∈ {…})`.
    pub role: String,
    /// Whether the member accepts pushed operations.
    pub execute: bool,
    /// The member's cost record at explain time.
    pub cost: CostSnapshot,
}

/// The result of [`crate::Mediator::explain`]: the executed plan, its
/// output, the aggregated per-operator profile and the per-source wire
/// traffic the execution caused.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The plan that was executed (post-optimization, if the caller
    /// optimized it).
    pub plan: Arc<Alg>,
    /// What the plan produced.
    pub output: EvalOut,
    /// Output cardinality: table rows, or 1 for a tree.
    pub rows: u64,
    /// The aggregated operator profile (usually a single root; document
    /// prefetch appears as a leading `phase` node).
    pub profile: Vec<ProfileNode>,
    /// Wire traffic this execution caused, per source (connections that
    /// stayed silent are omitted).
    pub traffic: BTreeMap<String, MeterSnapshot>,
    /// The execution mode the plan ran under.
    pub mode: ExecMode,
    /// The execution engine the plan ran under.
    pub engine: ExecEngine,
    /// The compiled program's instruction listing with per-instruction
    /// batch/row counters (empty under the interpreter).
    pub program: Vec<ProgramLine>,
    /// The scatter jobs of a parallel execution (empty when sequential
    /// or when the plan had no independent source work).
    pub lanes: Vec<LaneJob>,
    /// Per-source answer-cache activity (empty when the cache is off or
    /// stayed silent).
    pub cache: BTreeMap<String, CacheLine>,
    /// Per-target index activity: which evaluations were answered
    /// through an index, how many candidates the probes seeded, and how
    /// much of each collection was actually examined (empty when nothing
    /// reported).
    pub index: BTreeMap<String, IndexLine>,
    /// Per-source persistent-store activity (empty when every source is
    /// in-memory).
    pub storage: BTreeMap<String, StorageLine>,
    /// The answer-cache policy the execution ran under.
    pub cache_policy: CachePolicy,
    /// The federation members the registry knows about (empty for a
    /// plain, unfederated mediator).
    pub federation: Vec<FederationLine>,
    /// Which sources answered and which went missing — degraded answers
    /// carry entries in [`Provenance::missing`].
    pub provenance: Provenance,
    /// The optimizer trace, when the caller passed one through.
    pub trace: Option<Trace>,
}

impl Explain {
    /// Total wire traffic across all sources.
    pub fn total_traffic(&self) -> MeterSnapshot {
        self.traffic
            .values()
            .fold(MeterSnapshot::default(), |a, b| a + *b)
    }

    /// Total answer-cache activity across all sources.
    pub fn cache_totals(&self) -> CacheLine {
        self.cache
            .values()
            .fold(CacheLine::default(), |a, b| CacheLine {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                evictions: a.evictions + b.evictions,
                bytes_saved: a.bytes_saved + b.bytes_saved,
            })
    }

    /// Total index activity across all targets.
    pub fn index_totals(&self) -> IndexLine {
        self.index
            .values()
            .fold(IndexLine::default(), |a, b| IndexLine {
                indexed: a.indexed + b.indexed,
                scans: a.scans + b.scans,
                probes: a.probes + b.probes,
                candidates: a.candidates + b.candidates,
                scanned: a.scanned + b.scanned,
                collection: a.collection + b.collection,
            })
    }

    /// Total persistent-store activity across all sources.
    pub fn storage_totals(&self) -> StorageLine {
        self.storage
            .values()
            .fold(StorageLine::default(), |a, b| StorageLine {
                segments: a.segments + b.segments,
                resident: a.resident + b.resident,
                loads: a.loads + b.loads,
                evictions: a.evictions + b.evictions,
                bytes_read: a.bytes_read + b.bytes_read,
            })
    }

    /// Depth-first search of the profile for a node whose label contains
    /// `needle` (e.g. `"Push → wais"` or `"execute @wais"`).
    pub fn find(&self, needle: &str) -> Option<&ProfileNode> {
        self.profile.iter().find_map(|n| n.find(needle))
    }

    /// The scatter phase's critical path: the wall time of its slowest
    /// job (zero when nothing was scattered).
    pub fn critical_path(&self) -> Duration {
        self.lanes
            .iter()
            .map(|j| j.elapsed)
            .max()
            .unwrap_or_default()
    }

    /// Total busy time across all scatter jobs — what a sequential
    /// execution would have spent on the same round trips.
    pub fn scatter_busy(&self) -> Duration {
        self.lanes.iter().map(|j| j.elapsed).sum()
    }

    /// Renders the profile as indented text, with a traffic summary and —
    /// when present — the optimizer derivation.
    pub fn render(&self) -> String {
        let mut out = format!(
            "EXPLAIN ANALYZE  ({} rows, {} plan nodes)\n",
            self.rows,
            self.plan.node_count()
        );
        out.push_str(&yat_obs::profile::render(&self.profile));
        if self.traffic.is_empty() {
            out.push_str("traffic: none\n");
        } else {
            out.push_str("traffic:\n");
            for (source, m) in &self.traffic {
                out.push_str(&format!(
                    "  {source}: {} round trips, {}B sent, {}B received, {} documents\n",
                    m.round_trips, m.bytes_sent, m.bytes_received, m.documents_received
                ));
            }
        }
        if self.cache_policy.is_enabled() {
            out.push_str(&format!("cache: {}\n", self.cache_policy));
            if self.cache.is_empty() {
                out.push_str("  no cacheable source work\n");
            }
            for (source, line) in &self.cache {
                out.push_str(&format!(
                    "  {source}: {} hits, {} misses, {} evictions, {}B saved\n",
                    line.hits, line.misses, line.evictions, line.bytes_saved
                ));
            }
        }
        if !self.index.is_empty() {
            out.push_str("index:\n");
            for (target, line) in &self.index {
                out.push_str(&format!(
                    "  {target}: {} indexed / {} scans, {} probes, {} candidates, \
                     {} of {} examined\n",
                    line.indexed,
                    line.scans,
                    line.probes,
                    line.candidates,
                    line.scanned,
                    line.collection
                ));
            }
        }
        if !self.storage.is_empty() {
            out.push_str("storage:\n");
            for (target, line) in &self.storage {
                out.push_str(&format!(
                    "  {target}: {} segments ({} resident), {} loads, {} evictions, \
                     {}B read\n",
                    line.segments, line.resident, line.loads, line.evictions, line.bytes_read
                ));
            }
        }
        if self.engine == ExecEngine::Vm {
            out.push_str(&format!(
                "compiled program: {} instructions\n",
                self.program.len()
            ));
            for line in &self.program {
                out.push_str(&format!(
                    "  {}  [batches={} rows={}]\n",
                    line.label, line.batches, line.rows
                ));
            }
        }
        if self.mode.is_parallel() {
            out.push_str(&format!("execution: {}\n", self.mode));
            if self.lanes.is_empty() {
                out.push_str("scatter: no independent jobs\n");
            } else {
                let lanes_used = self
                    .lanes
                    .iter()
                    .map(|j| j.lane)
                    .collect::<std::collections::BTreeSet<_>>()
                    .len();
                out.push_str(&format!(
                    "scatter: {} jobs on {} lanes, critical path {}, busy {}\n",
                    self.lanes.len(),
                    lanes_used,
                    fmt_duration(self.critical_path()),
                    fmt_duration(self.scatter_busy()),
                ));
                for job in &self.lanes {
                    out.push_str(&format!(
                        "  lane {}: {}  [{}]\n",
                        job.lane,
                        job.label,
                        fmt_duration(job.elapsed)
                    ));
                }
            }
        }
        if !self.federation.is_empty() {
            out.push_str(&format!("federation: {} members\n", self.federation.len()));
            for m in &self.federation {
                out.push_str(&format!(
                    "  {} [{} {}{}]: {} trips, {:.0}us ewma, {:.0}% errors, {:.0}% cache hits, cost {:.0}\n",
                    m.name,
                    m.group,
                    m.role,
                    if m.execute { "" } else { " fetch-only" },
                    m.cost.trips,
                    m.cost.ewma_latency_us,
                    m.cost.error_rate() * 100.0,
                    m.cost.hit_rate() * 100.0,
                    m.cost.expected_cost(),
                ));
            }
        }
        let show_prov = self.provenance.is_degraded()
            || (!self.federation.is_empty() && !self.provenance.answered_by.is_empty());
        if show_prov {
            out.push_str(&format!(
                "answered by: {}\n",
                self.provenance.answered_by_attr()
            ));
            if self.provenance.is_degraded() {
                out.push_str("missing sources:\n");
                for (source, why) in &self.provenance.missing {
                    out.push_str(&format!("  {source}: {why}\n"));
                }
            }
        }
        if let Some(trace) = &self.trace {
            out.push_str(&format!("optimizer: {} rule firings\n", trace.steps.len()));
            for (round, rule) in &trace.steps {
                out.push_str(&format!("  round {round}: {rule}\n"));
            }
            for note in &trace.notes {
                out.push_str(&format!("  note: {note}\n"));
            }
        }
        out
    }

    /// The same information as XML — self-describing, so profiles can be
    /// stored or diffed like any other document in the system.
    pub fn to_xml(&self) -> Element {
        let mut el = Element::new("explain")
            .with_attr("rows", self.rows.to_string())
            .with_attr("plan-nodes", self.plan.node_count().to_string())
            .with_attr("mode", self.mode.to_string())
            .with_attr("engine", self.engine.to_string());
        let mut profile = Element::new("profile");
        for node in &self.profile {
            profile.push_element(profile_to_xml(node));
        }
        el.push_element(profile);
        let mut traffic = Element::new("traffic");
        for (source, m) in &self.traffic {
            traffic.push_element(
                Element::new("source")
                    .with_attr("name", source.clone())
                    .with_attr("round-trips", m.round_trips.to_string())
                    .with_attr("bytes-sent", m.bytes_sent.to_string())
                    .with_attr("bytes-received", m.bytes_received.to_string())
                    .with_attr("documents", m.documents_received.to_string()),
            );
        }
        el.push_element(traffic);
        if self.cache_policy.is_enabled() {
            let mut cache =
                Element::new("cache").with_attr("policy", self.cache_policy.to_string());
            for (source, line) in &self.cache {
                cache.push_element(
                    Element::new("source")
                        .with_attr("name", source.clone())
                        .with_attr("hits", line.hits.to_string())
                        .with_attr("misses", line.misses.to_string())
                        .with_attr("evictions", line.evictions.to_string())
                        .with_attr("bytes-saved", line.bytes_saved.to_string()),
                );
            }
            el.push_element(cache);
        }
        if !self.index.is_empty() {
            let mut index = Element::new("index");
            for (target, line) in &self.index {
                index.push_element(
                    Element::new("target")
                        .with_attr("name", target.clone())
                        .with_attr("indexed", line.indexed.to_string())
                        .with_attr("scans", line.scans.to_string())
                        .with_attr("probes", line.probes.to_string())
                        .with_attr("candidates", line.candidates.to_string())
                        .with_attr("scanned", line.scanned.to_string())
                        .with_attr("collection", line.collection.to_string()),
                );
            }
            el.push_element(index);
        }
        if !self.storage.is_empty() {
            let mut storage = Element::new("storage");
            for (target, line) in &self.storage {
                storage.push_element(
                    Element::new("target")
                        .with_attr("name", target.clone())
                        .with_attr("segments", line.segments.to_string())
                        .with_attr("resident", line.resident.to_string())
                        .with_attr("loads", line.loads.to_string())
                        .with_attr("evictions", line.evictions.to_string())
                        .with_attr("bytes-read", line.bytes_read.to_string()),
                );
            }
            el.push_element(storage);
        }
        if self.engine == ExecEngine::Vm {
            let mut program =
                Element::new("program").with_attr("instructions", self.program.len().to_string());
            for line in &self.program {
                program.push_element(
                    Element::new("instruction")
                        .with_attr("label", line.label.clone())
                        .with_attr("batches", line.batches.to_string())
                        .with_attr("rows", line.rows.to_string()),
                );
            }
            el.push_element(program);
        }
        if self.mode.is_parallel() {
            let mut scatter = Element::new("scatter")
                .with_attr("jobs", self.lanes.len().to_string())
                .with_attr("critical-path", fmt_duration(self.critical_path()))
                .with_attr("busy", fmt_duration(self.scatter_busy()));
            for job in &self.lanes {
                scatter.push_element(
                    Element::new("job")
                        .with_attr("lane", job.lane.to_string())
                        .with_attr("label", job.label.clone())
                        .with_attr("time", fmt_duration(job.elapsed)),
                );
            }
            el.push_element(scatter);
        }
        if !self.federation.is_empty() {
            let mut fed = Element::new("federation");
            for m in &self.federation {
                fed.push_element(
                    Element::new("member")
                        .with_attr("name", m.name.clone())
                        .with_attr("group", m.group.clone())
                        .with_attr("role", m.role.clone())
                        .with_attr("execute", m.execute.to_string())
                        .with_attr("trips", m.cost.trips.to_string())
                        .with_attr("errors", m.cost.errors.to_string())
                        .with_attr("expected-cost", format!("{:.0}", m.cost.expected_cost())),
                );
            }
            el.push_element(fed);
        }
        let show_prov = self.provenance.is_degraded()
            || (!self.federation.is_empty() && !self.provenance.answered_by.is_empty());
        if show_prov {
            el.set_attr("answered-by", self.provenance.answered_by_attr());
            if self.provenance.is_degraded() {
                el.set_attr("missing-sources", self.provenance.missing_attr());
            }
        }
        if let Some(trace) = &self.trace {
            let mut derivation = Element::new("derivation");
            for f in &trace.firings {
                derivation.push_element(
                    Element::new("firing")
                        .with_attr("round", f.round.to_string())
                        .with_attr("rule", f.rule)
                        .with_attr("nodes-before", f.nodes_before.to_string())
                        .with_attr("nodes-after", f.nodes_after.to_string()),
                );
            }
            for note in &trace.notes {
                derivation.push_element(Element::new("note").with_attr("text", note.clone()));
            }
            el.push_element(derivation);
        }
        el
    }
}

fn profile_to_xml(node: &ProfileNode) -> Element {
    let mut el = Element::new(node.kind.clone())
        .with_attr("label", node.label.clone())
        .with_attr("calls", node.calls.to_string())
        .with_attr("time", fmt_duration(node.elapsed));
    if let Some(rows) = node.rows {
        el.set_attr("rows", rows.to_string());
    }
    if let Some(p) = node.passing {
        el.set_attr("bindings", p.bindings.to_string());
        el.set_attr("distinct", p.distinct.to_string());
        el.set_attr("batches", p.batches.to_string());
    }
    if node.round_trips > 0 {
        el.set_attr("round-trips", node.round_trips.to_string());
        el.set_attr("bytes-sent", node.bytes_sent.to_string());
        el.set_attr("bytes-received", node.bytes_received.to_string());
        el.set_attr("documents", node.documents.to_string());
    }
    if node.errors > 0 {
        el.set_attr("errors", node.errors.to_string());
    }
    for child in &node.children {
        el.push_element(profile_to_xml(child));
    }
    el
}
