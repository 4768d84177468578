//! Builds each workload's federation, serves it, and computes the
//! oracle answers. Everything is configured through public setters —
//! never `YAT_*` environment variables — and the layouts mirror
//! `yat_bench::workload::{Scenario, FedScenario}` (same generators,
//! same specs, data seed 42); they are rebuilt here so that every
//! source can sit behind shared handles and the trace decorator.

use crate::stats::Zipf;
use crate::streams::{
    churn_title, dashboard_texts, fed_tail_texts, scan_stream_texts, serve_mix_texts, MutOp,
    QueryText, Sampler, STYLES,
};
use crate::trace::{Recorder, Traced};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;
use yat_algebra::EvalOut;
use yat_capability::protocol::{ServerReply, WrapperServer};
use yat_capability::IndexPolicy;
use yat_mediator::{
    CachePolicy, ExecEngine, ExecMode, Latency, Mediator, MemberRole, OptimizerOptions,
    PartialFailure, SchedPolicy, StreamPolicy,
};
use yat_model::{Node, Oid, Tree};
use yat_oql::art::{art_store, art_store_at, ArtSpec};
use yat_oql::types::CollKind;
use yat_oql::{O2Wrapper, OVal, Store};
use yat_server::{Server, ServerConfig, ServerHandle};
use yat_store::{DocStore, StoreOptions};
use yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat_yatl::paper;

/// The data generators' seed — the repo's scenario seed. The data set
/// is part of a workload's definition; `--seed` drives the request
/// streams, the mutation log and the simulated member latencies.
const DATA_SEED: u64 = 42;

/// The oracle keeps indexes on: with scans the 40 `serve_mix` answers
/// take 10 s per set-up instead of 1.6 s. It still differs from every
/// configuration under test in engine, and in store, cache, federation
/// and execution mode wherever the workload uses them.
const ORACLE_INDEX: IndexPolicy = IndexPolicy::On;

/// Worker threads of the served mediator (`nproc` on the reference box).
const WORKERS: usize = 2;

/// Store segments roll at 64 KiB so even the smoke scale spans several
/// and a quarter-of-disk budget really pages.
pub const SEGMENT_TARGET: u64 = 64 * 1024;

/// Simulated round trip of a healthy federation member: base + jitter.
const MEMBER_RTT: (Duration, Duration) = (Duration::from_millis(2), Duration::from_millis(2));
/// Base round trip of the two slow members.
const SLOW_MEMBER_RTT: Duration = Duration::from_millis(20);
/// The slow replica and the slow shard of `fed_tail`.
const SLOW_MEMBERS: [&str; 2] = ["art-1", "works-2"];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1/Q2 mix over the in-memory federation, cache off.
    ServeMix,
    /// Streamed full scans of the works collection.
    ScanStream,
    /// Selective reads beside a mutator over store-backed sources.
    ChurnDashboard,
    /// Open-loop cheap/heavy mix over an 8-member federation.
    FedTail,
}

impl Workload {
    /// All four, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeMix,
        Workload::ScanStream,
        Workload::ChurnDashboard,
        Workload::FedTail,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve_mix",
            Workload::ScanStream => "scan_stream",
            Workload::ChurnDashboard => "churn_dashboard",
            Workload::FedTail => "fed_tail",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Data sizes per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scales {
    /// `serve_mix`: artifacts and works.
    pub serve_mix: usize,
    /// `scan_stream`: works scanned per query (artifacts stay at 50).
    pub scan_works: usize,
    /// `churn_dashboard`: artifacts and works.
    pub churn: usize,
    /// `fed_tail`: artifacts per replica and works across the shards.
    pub fed: usize,
}

impl Scales {
    /// The measured scales.
    pub const FULL: Scales = Scales {
        serve_mix: 1_000,
        scan_works: 4_000,
        churn: 20_000,
        fed: 400,
    };
    /// Tiny scales for `--smoke`.
    pub const SMOKE: Scales = Scales {
        serve_mix: 80,
        scan_works: 1_500,
        churn: 400,
        fed: 60,
    };
}

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Each client sends its next request when the previous one is
    /// answered.
    Closed {
        /// Client threads = connections.
        clients: usize,
    },
    /// Requests leave on a fixed schedule spread over the connections;
    /// latency counts from the scheduled time.
    Open {
        /// Connections (one sender thread each).
        connections: usize,
        /// Aggregate offered rate.
        rate_qps: f64,
    },
}

impl Pacing {
    /// Client threads the pacing uses.
    pub fn clients(&self) -> usize {
        match *self {
            Pacing::Closed { clients } => clients,
            Pacing::Open { connections, .. } => connections,
        }
    }
}

/// A directory removed when dropped — on success, on error and on
/// unwinding alike.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh directory under the run directory.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = run_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory sits in the build
        // directory, which `.gitignore` names.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes (store directories, the span file, the
/// result file): `yat-benchmark-run/` in the build directory next to
/// the executable, so nothing is written outside the checkout.
pub fn run_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/x"));
    // <target>/<profile>/[deps/]<exe>: climb to <target>
    let mut dir = exe.parent().map(Path::to_path_buf).unwrap_or_default();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir.pop();
    dir.join("yat-benchmark-run")
}

/// The mutable state of `churn_dashboard`: the shared handles the
/// mutator writes through, and the in-memory oracle that replays the
/// same log.
pub struct Churn {
    /// The served, store-backed Wais source.
    pub wais: Arc<RwLock<WaisSource>>,
    /// The served, store-backed O2 database.
    pub o2: Arc<RwLock<Store>>,
    /// The in-memory oracle federation over `oracle_wais`/`oracle_o2`.
    pub oracle: Mediator,
    /// The oracle's Wais source.
    pub oracle_wais: Arc<RwLock<WaisSource>>,
    /// The oracle's O2 database.
    pub oracle_o2: Arc<RwLock<Store>>,
    /// On-disk bytes per live document right after populating — the
    /// base of `store.disk_bytes_per_live_byte`.
    pub fresh_bytes_per_doc: f64,
    /// Where the stores live (the store probe writes beside them).
    pub dir: PathBuf,
}

impl Churn {
    /// The two persistent stores under the served sources.
    pub fn stores(&self) -> Vec<Arc<DocStore>> {
        let wais = self.wais.read().expect("wais lock poisoned");
        let o2 = self.o2.read().expect("o2 lock poisoned");
        wais.store()
            .into_iter()
            .chain(o2.backing_store())
            .cloned()
            .collect()
    }
}

/// Applies one mutation through a pair of source handles. `wais_ids`
/// remembers which document id each serial got on *this* side.
pub fn apply_mutation(
    op: &MutOp,
    wais: &RwLock<WaisSource>,
    o2: &RwLock<Store>,
    wais_ids: &mut HashMap<u64, usize>,
) -> Result<(), String> {
    match op {
        MutOp::WaisAdd {
            serial,
            style,
            size,
        } => {
            let doc = Node::sym(
                "work",
                vec![
                    Node::elem("artist", "Churn Artist"),
                    Node::elem("title", churn_title(*serial)),
                    Node::elem("style", *style),
                    Node::elem("size", size.as_str()),
                ],
            );
            let id = wais.write().expect("wais lock poisoned").add_document(doc);
            wais_ids.insert(*serial, id);
            Ok(())
        }
        MutOp::WaisRemove { serial } => {
            let id = wais_ids
                .remove(serial)
                .ok_or_else(|| format!("wais serial {serial} was never added"))?;
            wais.write()
                .expect("wais lock poisoned")
                .remove_document(id)
                .map(drop)
                .ok_or_else(|| format!("wais document {id} already gone"))
        }
        MutOp::O2Insert {
            serial,
            year,
            price,
        } => o2
            .write()
            .expect("o2 lock poisoned")
            .insert(
                Oid::new(format!("c{serial}")),
                "Artifact",
                OVal::tuple(vec![
                    ("title", OVal::str(churn_title(*serial))),
                    ("year", OVal::int(*year)),
                    ("creator", OVal::str("Churn Artist")),
                    ("price", OVal::float(*price)),
                    ("owners", OVal::Coll(CollKind::List, Vec::new())),
                ]),
            )
            .map_err(|e| e.to_string()),
        MutOp::O2Remove { serial } => o2
            .write()
            .expect("o2 lock poisoned")
            .remove(&Oid::new(format!("c{serial}")))
            .map(drop)
            .ok_or_else(|| format!("o2 object c{serial} already gone")),
    }
}

/// One served workload, ready to be driven.
pub struct Fixture {
    /// The in-process server (dropped — drained and joined — before the
    /// store directory goes away).
    pub server: ServerHandle,
    /// The query texts the streams draw from.
    pub texts: Vec<QueryText>,
    /// The oracle's serialized `<answer>` per text, same order.
    pub expected: Vec<String>,
    /// How clients pick texts.
    pub sampler: Sampler,
    /// Whether clients negotiate `stream="chunked"`.
    pub streamed: bool,
    /// Closed or open loop.
    pub pacing: Pacing,
    /// Mutable state, `churn_dashboard` only.
    pub churn: Option<Churn>,
    /// Federation member names (`fed_tail` only).
    pub members: Vec<String>,
    _tmp: Option<TempDir>,
}

/// What [`build`] needs to know.
#[derive(Clone)]
pub struct BuildSpec {
    /// Which workload.
    pub workload: Workload,
    /// Data sizes.
    pub scales: Scales,
    /// The run seed (simulated latencies are seeded from it).
    pub seed: u64,
    /// `fed_tail`'s offered rate; `None` drives it closed-loop (the
    /// calibration that the frozen rate was derived from).
    pub fed_rate_qps: Option<f64>,
    /// When set, every source is wrapped in the [`Traced`] decorator.
    pub recorder: Option<Arc<Recorder>>,
}

fn art_spec(artifacts: usize) -> ArtSpec {
    ArtSpec {
        artifacts,
        persons: (artifacts / 5).max(2),
        seed: DATA_SEED,
    }
}

fn works_of(works: usize) -> Tree {
    generate_works(&WorksSpec {
        works,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: DATA_SEED,
    })
}

/// Pins every policy a `Mediator` would otherwise read from `YAT_*`.
fn configure(
    m: &mut Mediator,
    engine: ExecEngine,
    mode: ExecMode,
    cache: CachePolicy,
    index: IndexPolicy,
) {
    m.set_exec_engine(engine);
    m.set_exec_mode(mode);
    m.set_cache_policy(cache);
    m.set_index_policy(index);
    // clients ask for streaming per request; the mediator's own policy
    // stays materialized
    m.set_stream_policy(StreamPolicy::Off);
    m.set_partial_failure(PartialFailure::Strict);
    m.set_sched_policy(SchedPolicy::Cost);
}

/// The oracle's configuration: in-memory, sequential, interpreter,
/// cache off — never the configuration under test.
fn configure_oracle(m: &mut Mediator) {
    configure(
        m,
        ExecEngine::Interp,
        ExecMode::Sequential,
        CachePolicy::Off,
        ORACLE_INDEX,
    );
}

fn decorate(
    server: impl WrapperServer + 'static,
    span_name: &'static str,
    recorder: &Option<Arc<Recorder>>,
) -> Box<dyn WrapperServer> {
    match recorder {
        Some(rec) => Box::new(Traced::new(Box::new(server), span_name, rec.clone())),
        None => Box::new(server),
    }
}

/// A plain two-source mediator over the given sources with `view1`.
fn two_source_mediator(
    o2: Box<dyn WrapperServer>,
    wais: Box<dyn WrapperServer>,
) -> Result<Mediator, String> {
    let mut m = Mediator::new();
    m.connect(o2).map_err(|e| e.to_string())?;
    m.connect(wais).map_err(|e| e.to_string())?;
    m.load_program(paper::VIEW1).map_err(|e| e.to_string())?;
    Ok(m)
}

/// The in-memory oracle over `artifacts` artifacts and the `works`
/// document.
fn oracle_mediator(artifacts: usize, works: &Tree) -> Result<Mediator, String> {
    let mut m = two_source_mediator(
        Box::new(O2Wrapper::new(
            "o2artifact",
            art_store(&art_spec(artifacts)).with_index_policy(ORACLE_INDEX),
        )),
        Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", works).with_index_policy(ORACLE_INDEX),
        )),
    )?;
    configure_oracle(&mut m);
    Ok(m)
}

/// The serialized `<answer>` frame of `out` — the bytes every wire
/// answer is compared against.
pub fn answer_bytes(out: EvalOut) -> String {
    ServerReply::answer(out).to_xml().to_xml()
}

/// Answers every text on the oracle.
pub fn oracle_answers(oracle: &Mediator, texts: &[QueryText]) -> Result<Vec<String>, String> {
    texts
        .iter()
        .map(|t| {
            oracle
                .query(&t.text, OptimizerOptions::default())
                .map(answer_bytes)
                .map_err(|e| format!("oracle failed on `{}`: {e}", t.text))
        })
        .collect()
}

fn serve(mediator: Mediator) -> Result<ServerHandle, String> {
    Server::spawn(
        mediator,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 64,
            default_deadline: None,
            retry_after_ms: 25,
        },
    )
    .map_err(|e| format!("server bind failed: {e}"))
}

/// Builds, serves and oracles one workload — everything `setup_s`
/// counts.
pub fn build(spec: &BuildSpec) -> Result<Fixture, String> {
    match spec.workload {
        Workload::ServeMix => build_in_memory(
            spec,
            spec.scales.serve_mix,
            spec.scales.serve_mix,
            serve_mix_texts(),
            false,
        ),
        Workload::ScanStream => {
            build_in_memory(spec, 50, spec.scales.scan_works, scan_stream_texts(), true)
        }
        Workload::ChurnDashboard => build_churn(spec),
        Workload::FedTail => build_fed(spec),
    }
}

/// `serve_mix` and `scan_stream`: in-memory sources, indexes on, cache
/// off, VM engine, sequential execution, two closed-loop clients.
fn build_in_memory(
    spec: &BuildSpec,
    artifacts: usize,
    works: usize,
    texts: Vec<QueryText>,
    streamed: bool,
) -> Result<Fixture, String> {
    let works = works_of(works);
    let mut m = two_source_mediator(
        decorate(
            O2Wrapper::new(
                "o2artifact",
                art_store(&art_spec(artifacts)).with_index_policy(IndexPolicy::On),
            ),
            "oql.handle",
            &spec.recorder,
        ),
        decorate(
            WaisWrapper::new(
                "xmlartwork",
                WaisSource::new("works", &works).with_index_policy(IndexPolicy::On),
            ),
            "wais.handle",
            &spec.recorder,
        ),
    )?;
    configure(
        &mut m,
        ExecEngine::Vm,
        ExecMode::Sequential,
        CachePolicy::Off,
        IndexPolicy::On,
    );
    let expected = oracle_answers(&oracle_mediator(artifacts, &works)?, &texts)?;
    Ok(Fixture {
        server: serve(m)?,
        sampler: Sampler::Uniform(texts.len()),
        texts,
        expected,
        streamed,
        pacing: Pacing::Closed { clients: 2 },
        churn: None,
        members: Vec::new(),
        _tmp: None,
    })
}

/// `churn_dashboard`: both sources mounted from persistent stores in a
/// fresh directory under a residency budget of a quarter of their
/// on-disk bytes, behind shared handles; bounded answer cache; one
/// closed-loop reader (the mutator is the second thread).
fn build_churn(spec: &BuildSpec) -> Result<Fixture, String> {
    let scale = spec.scales.churn;
    let tmp = TempDir::new("churn").map_err(|e| format!("temp dir: {e}"))?;
    let (o2_dir, wais_dir) = (tmp.path().join("o2artifact"), tmp.path().join("xmlartwork"));
    let works = works_of(scale);
    let populate = StoreOptions {
        segment_target: SEGMENT_TARGET,
        ..StoreOptions::default()
    };
    // populate, read the on-disk size, then remount under the budget
    let (o2_bytes, wais_bytes, docs);
    {
        let o2 = art_store_at(&art_spec(scale), &o2_dir, populate).map_err(|e| e.to_string())?;
        let wais = WaisSource::open_store("works", &works, &wais_dir, populate)
            .map_err(|e| e.to_string())?;
        let o2_store = o2.backing_store().ok_or("o2 is not store-backed")?;
        let wais_store = wais.store().ok_or("wais is not store-backed")?;
        o2_bytes = o2_store.disk_bytes();
        wais_bytes = wais_store.disk_bytes();
        docs = o2_store.stats().live_docs + wais_store.stats().live_docs;
    }
    let budgeted = |bytes: u64| StoreOptions {
        budget: (bytes / 4).max(SEGMENT_TARGET),
        segment_target: SEGMENT_TARGET,
    };
    let o2 = Arc::new(RwLock::new(
        art_store_at(&art_spec(scale), &o2_dir, budgeted(o2_bytes))
            .map_err(|e| e.to_string())?
            .with_index_policy(IndexPolicy::On),
    ));
    let empty = Node::sym("works", Vec::new());
    let wais = Arc::new(RwLock::new(
        WaisSource::open_store("works", &empty, &wais_dir, budgeted(wais_bytes))
            .map_err(|e| e.to_string())?
            .with_index_policy(IndexPolicy::On),
    ));
    let mut m = two_source_mediator(
        decorate(
            O2Wrapper::new_shared("o2artifact", o2.clone()),
            "oql.handle",
            &spec.recorder,
        ),
        decorate(
            WaisWrapper::new_shared("xmlartwork", wais.clone()),
            "wais.handle",
            &spec.recorder,
        ),
    )?;
    configure(
        &mut m,
        ExecEngine::Vm,
        ExecMode::Sequential,
        CachePolicy::bounded(),
        IndexPolicy::On,
    );

    let oracle_o2 = Arc::new(RwLock::new(
        art_store(&art_spec(scale)).with_index_policy(ORACLE_INDEX),
    ));
    let oracle_wais = Arc::new(RwLock::new(
        WaisSource::new("works", &works).with_index_policy(ORACLE_INDEX),
    ));
    let mut oracle = two_source_mediator(
        Box::new(O2Wrapper::new_shared("o2artifact", oracle_o2.clone())),
        Box::new(WaisWrapper::new_shared("xmlartwork", oracle_wais.clone())),
    )?;
    configure_oracle(&mut oracle);

    let texts = dashboard_texts(scale);
    let expected = oracle_answers(&oracle, &texts)?;
    Ok(Fixture {
        server: serve(m)?,
        sampler: Sampler::Zipf(Zipf::new(texts.len(), 1.0)),
        texts,
        expected,
        streamed: false,
        pacing: Pacing::Closed { clients: 1 },
        churn: Some(Churn {
            wais,
            o2,
            oracle,
            oracle_wais,
            oracle_o2,
            fresh_bytes_per_doc: (o2_bytes + wais_bytes) as f64 / docs.max(1) as f64,
            dir: tmp.path().to_path_buf(),
        }),
        members: Vec::new(),
        _tmp: Some(tmp),
    })
}

/// The style of a work document.
fn style_of(work: &Tree) -> String {
    work.child("style")
        .and_then(|s| s.value_atom())
        .map(|a| a.to_string())
        .unwrap_or_default()
}

/// `fed_tail`: 4 `art` replicas + 4 `wais` shards partitioned by style
/// (shard `i` owns the styles `j ≡ i mod 4`, as `FedScenario` lays them
/// out), parallel execution on 4 lanes, cost scheduling, seeded
/// simulated member latency with one slow replica and one slow shard.
///
/// The works are dealt to shards here rather than by
/// `FedScenario::shard_docs`: that helper reads the style through the
/// label's `Display`, which quotes strings, so no style ever matches an
/// owner and every work lands on shard 0 — pruned single-style queries
/// then answer empty where the plain oracle does not.
fn build_fed(spec: &BuildSpec) -> Result<Fixture, String> {
    const REPLICAS: usize = 4;
    const SHARDS: usize = 4;
    let scale = spec.scales.fed;
    let works = works_of(scale);
    let owner_of =
        |style: &str| -> usize { STYLES.iter().position(|s| *s == style).unwrap_or(0) % SHARDS };
    let mut buckets: Vec<Vec<Tree>> = vec![Vec::new(); SHARDS];
    for work in &works.children {
        buckets[owner_of(&style_of(work))].push(work.clone());
    }

    let mut m = Mediator::new();
    let mut members = Vec::new();
    for i in 0..REPLICAS {
        let name = format!("art-{i}");
        m.connect_member(
            decorate(
                O2Wrapper::new(
                    name.as_str(),
                    art_store(&art_spec(scale)).with_index_policy(IndexPolicy::On),
                ),
                "oql.handle",
                &spec.recorder,
            ),
            "art",
            MemberRole::Replica,
        )
        .map_err(|e| e.to_string())?;
        members.push(name);
    }
    for (i, bucket) in buckets.iter().enumerate() {
        let name = format!("works-{i}");
        let values: BTreeSet<String> = STYLES
            .iter()
            .filter(|s| owner_of(s) == i)
            .map(|s| s.to_string())
            .collect();
        let doc = Node::labeled(works.label.clone(), bucket.clone());
        m.connect_member(
            decorate(
                WaisWrapper::new(
                    name.as_str(),
                    WaisSource::new("works", &doc).with_index_policy(IndexPolicy::On),
                ),
                "wais.handle",
                &spec.recorder,
            ),
            "wais",
            MemberRole::Shard {
                field: "style".into(),
                values,
            },
        )
        .map_err(|e| e.to_string())?;
        members.push(name);
    }
    m.load_program(paper::VIEW1).map_err(|e| e.to_string())?;
    configure(
        &mut m,
        ExecEngine::Vm,
        ExecMode::Parallel { max_in_flight: 4 },
        CachePolicy::Off,
        IndexPolicy::On,
    );
    for (i, name) in members.iter().enumerate() {
        let base = if SLOW_MEMBERS.contains(&name.as_str()) {
            SLOW_MEMBER_RTT
        } else {
            MEMBER_RTT.0
        };
        m.connection(name)
            .ok_or_else(|| format!("member `{name}` is not connected"))?
            .set_latency(Some(Latency {
                base,
                jitter: MEMBER_RTT.1,
                seed: spec.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }));
    }

    // the plain twin holds the shards' works in shard order, the order
    // a federated gather concatenates them in
    let twin_works = Node::labeled(
        works.label.clone(),
        buckets.iter().flatten().cloned().collect(),
    );
    let texts = fed_tail_texts();
    let expected = oracle_answers(&oracle_mediator(scale, &twin_works)?, &texts)?;
    Ok(Fixture {
        server: serve(m)?,
        sampler: Sampler::classes(&texts, 0.9),
        texts,
        expected,
        streamed: false,
        pacing: match spec.fed_rate_qps {
            Some(rate_qps) => Pacing::Open {
                connections: 2,
                rate_qps,
            },
            None => Pacing::Closed { clients: 2 },
        },
        churn: None,
        members,
        _tmp: None,
    })
}
