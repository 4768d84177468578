//! The one differential harness. The paper's contract is
//! `eval(optimize(q)) == eval(q)`; ours widens it to configurations:
//! every way the mediator can be set up must answer a case byte for byte
//! like the plain in-memory sequential interpreter, and ask each source
//! for exactly the same traffic.
//!
//! - [`Config`] is one point of the configuration space, [`TABLE`] a
//!   fixed covering table of it, [`Config::ORACLE`] the reference.
//! - [`observe`] runs a [`Case`] under one config; [`compare`] holds a
//!   config's observations to the oracle's; [`shrink`] and [`fail`] turn
//!   a disagreement into a report naming the seed, the case, the config
//!   row and the shrunk case.
//!
//! Deterministic by construction: cases come from seeded generators
//! (master seed `YAT_DIFF_SEED`), and simulated latency is off.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use yat::yat_algebra::{Alg, CollectSink};
use yat::yat_capability::protocol::ServerReply;
use yat::yat_capability::IndexPolicy;
use yat::yat_mediator::{
    CachePolicy, ExecError, ExecMode, Mediator, MediatorError, MeterSnapshot, StreamPolicy,
};
use yat::yat_store::StoreOptions;
use yat_bench::workload::Scenario;

/// The master seed: `YAT_DIFF_SEED` when set, else `default`.
pub fn master_seed(default: u64) -> u64 {
    std::env::var("YAT_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Chunking of a streamed config: small enough that most answers are
/// cut into several chunks, so reassembly is what gets compared.
pub const STREAM: StreamPolicy = StreamPolicy {
    batch_rows: 3,
    max_pending: 2,
};

/// One point of the configuration space, applied through the
/// mediator's setters and the scenario's builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Parallel with the case's lanes, else sequential.
    pub parallel: bool,
    /// A bounded answer cache, else none.
    pub cache: bool,
    /// Answers streamed in [`STREAM`] chunks and reassembled, else
    /// materialized.
    pub streamed: bool,
    /// Source indexes on, else scans.
    pub index: bool,
    /// Sources served from a remounted document store, else in memory.
    pub store: bool,
}

pub const fn row(parallel: bool, cache: bool, streamed: bool, index: bool, store: bool) -> Config {
    Config {
        parallel,
        cache,
        streamed,
        index,
        store,
    }
}

impl Config {
    /// The reference: in memory, sequential, cache off, index off,
    /// materialized.
    pub const ORACLE: Config = row(false, false, false, false, false);

    /// The exec mode, cache and stream policy, set on `m`.
    pub fn apply(self, m: &mut Mediator, lanes: usize) {
        m.set_exec_mode(if self.parallel {
            ExecMode::Parallel {
                max_in_flight: lanes,
            }
        } else {
            ExecMode::Sequential
        });
        m.set_cache_policy(self.cache.then(CachePolicy::bounded).unwrap_or_default());
        m.set_stream_policy(if self.streamed {
            STREAM
        } else {
            StreamPolicy::default()
        });
    }

    /// The index policy the sources are built with.
    pub fn index_policy(self) -> IndexPolicy {
        if self.index {
            IndexPolicy::On
        } else {
            IndexPolicy::Off
        }
    }
}

/// The covering table: every value pair of any two dimensions appears in
/// some row. Rows 0–2 are what the benchmark serves: sequential with a
/// bounded cache (`churn_dashboard`), parallel with the cache off
/// (`fed_tail`), and parallel streamed. Seven rows is the least that
/// covers every pair around those three.
pub const TABLE: [Config; 7] = [
    // parallel cache  streamed index  store
    row(false, true, false, true, false),
    row(true, false, false, true, false),
    row(true, false, true, true, false),
    row(false, false, true, false, true),
    row(true, true, false, false, true),
    row(false, true, true, true, true),
    row(true, true, true, false, false),
];

/// One differential case: a plan over a federation.
pub trait Case: Clone + std::fmt::Debug {
    /// Lanes under a parallel config.
    fn lanes(&self) -> usize;
    /// The federation, built with `config`'s indexes and, when `store`
    /// is given, served from a document store under it.
    fn federation(&self, config: Config, store: Option<&Path>) -> Mediator;
    /// The plan to run on `m`.
    fn plan(&self, m: &Mediator) -> Result<Arc<Alg>, MediatorError>;
    /// The sources whose traffic is observed.
    fn sources(&self) -> Vec<String> {
        vec!["o2artifact".into(), "xmlartwork".into()]
    }
    /// What the oracle's own observation must satisfy besides agreeing
    /// with every config.
    fn check_oracle(&self, _oracle: &Observation) -> Result<(), String> {
        Ok(())
    }
    /// Smaller variants for the shrinker, most aggressive first.
    fn smaller(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// The two-source scenario federation for `config`. A store-backed one
/// populates `store` if it is fresh, then serves from a remount, so
/// every store-backed answer is read back from what was committed.
pub fn scenario_federation(mut sc: Scenario, config: Config, store: Option<&Path>) -> Mediator {
    sc.index = config.index_policy();
    let Some(root) = store else {
        return sc.mediator();
    };
    if !root.exists() {
        drop(
            sc.mediator_store(root, StoreOptions::default())
                .expect("the store populates"),
        );
    }
    sc.mediator_store(root, StoreOptions::default())
        .expect("the store remounts")
}

/// The document store a case's store-backed configs share: the first
/// one populates it, every one remounts it. Removed on drop.
pub struct StoreDir(PathBuf);

impl StoreDir {
    pub fn new() -> StoreDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "yat-diff-store-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How one execution ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The answer's wire bytes.
    Answer(String),
    /// A wrapper declined a plan shape it cannot translate — the one
    /// failure two runs may share and still agree.
    Refused,
    /// Any other failure: a bug, whoever else shares it.
    Error(String),
}

/// What one execution returned and cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    pub outcome: Outcome,
    /// Federation members a degraded answer lacks.
    pub missing: Vec<String>,
    /// What each of [`Case::sources`] shipped, in order. Empty unless
    /// the execution answered: a parallel run that fails may or may not
    /// have shipped its other fragments.
    pub traffic: Vec<MeterSnapshot>,
    /// Chunks a streamed answer was cut into; 0 when materialized.
    pub chunks: u64,
}

/// Runs `case` on a federation built for `config`, store-backed ones
/// from `store`: one observation, and a second from a warm rerun when
/// the cache is on.
pub fn observe<C: Case>(case: &C, config: Config, store: &StoreDir) -> Vec<Observation> {
    let mut m = case.federation(config, config.store.then_some(store.0.as_path()));
    config.apply(&mut m, case.lanes());
    let runs = if config.cache { 2 } else { 1 };
    (0..runs).map(|_| run(case, &m, config.streamed)).collect()
}

fn run<C: Case>(case: &C, m: &Mediator, streamed: bool) -> Observation {
    m.reset_traffic();
    let mut chunks = 0;
    let result = case.plan(m).and_then(|plan| {
        if !streamed {
            return m.execute_federated(&plan);
        }
        let mut sink = CollectSink::new();
        let (stats, prov) = m.execute_stream_federated(&plan, &mut sink)?;
        chunks = stats.chunks;
        let answer = sink.into_answer().expect("a stream delivers an answer");
        Ok((answer, prov))
    });
    let (outcome, missing, traffic) = match result {
        Ok((out, prov)) => (
            Outcome::Answer(ServerReply::answer(out).to_xml().to_xml()),
            prov.missing.into_keys().collect(),
            (case.sources().iter())
                .map(|s| m.traffic_of(s).expect("source is connected"))
                .collect(),
        ),
        Err(MediatorError::Exec(ExecError::Refused { .. })) => {
            (Outcome::Refused, Vec::new(), Vec::new())
        }
        Err(e) => (Outcome::Error(e.to_string()), Vec::new(), Vec::new()),
    };
    Observation {
        outcome,
        missing,
        traffic,
        chunks,
    }
}

/// Holds a config's observations to the oracle's: the same outcome, the
/// same missing members and, for an answer, the same traffic to every
/// source — trips, documents, and bytes both ways. A warm rerun must
/// give the same outcome again and ship nothing.
pub fn compare(oracle: &Observation, runs: &[Observation]) -> Result<(), String> {
    let seen = |o: &Observation| (o.outcome.clone(), o.missing.clone(), o.traffic.clone());
    let idle = |o: &Observation| o.traffic.iter().all(|t| *t == MeterSnapshot::default());
    let (cold, warm) = runs.split_first().expect("observe runs at least once");
    let bad_warm = warm
        .iter()
        .find(|w| w.outcome != oracle.outcome || !idle(w));
    match (seen(cold) == seen(oracle), bad_warm) {
        (false, _) => Err(format!("oracle {oracle:?}\nconfig {cold:?}")),
        (true, Some(w)) => Err(format!("oracle {oracle:?}\nwarm rerun {w:?}")),
        (true, None) => Ok(()),
    }
}

/// Where a case failed: a row of [`TABLE`], or the oracle's own check.
pub type Failure = (Option<usize>, String);

/// Every row of [`TABLE`].
pub const ALL_ROWS: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

/// Runs `case` under the oracle and the given `rows` of [`TABLE`].
/// Returns the oracle's observation and how many chunks each streamed
/// row's answer was cut into.
pub fn check<C: Case>(case: &C, rows: &[usize]) -> Result<(Observation, Vec<u64>), Failure> {
    let store = StoreDir::new();
    let oracle = observe(case, Config::ORACLE, &store).remove(0);
    if let Outcome::Error(e) = &oracle.outcome {
        return Err((None, format!("failed, but not by a wrapper refusing: {e}")));
    }
    case.check_oracle(&oracle).map_err(|e| (None, e))?;
    let mut chunks = Vec::new();
    for &i in rows {
        let config = TABLE[i];
        let runs = observe(case, config, &store);
        compare(&oracle, &runs).map_err(|e| (Some(i), e))?;
        if config.streamed {
            chunks.push(runs[0].chunks);
        }
    }
    Ok((oracle, chunks))
}

/// The smallest variant of `case` that still `fails`, greedily.
pub fn shrink<C: Case>(case: &C, fails: impl Fn(&C) -> bool) -> C {
    let mut current = case.clone();
    while let Some(smaller) = current.smaller().into_iter().find(|c| fails(c)) {
        current = smaller;
    }
    current
}

/// The failure report.
pub fn fail<C: Case>(family: &str, seed: u64, i: usize, case: &C, at: Failure, shrunk: &C) -> ! {
    let (row, msg) = at;
    let config = match row {
        Some(r) => format!("row {r} {:?}", TABLE[r]),
        None => format!("the oracle {:?}", Config::ORACLE),
    };
    panic!(
        "{family} case {i} (YAT_DIFF_SEED={seed}) failed under {config}: {msg}\n\
         case: {case:?}\nshrunk: {shrunk:?}"
    )
}

/// Checks every case under the given `rows` of [`TABLE`], failing on the
/// first disagreement, and asserts the
/// sweep did not degenerate: most oracles answered, and at least a
/// quarter of streamed executions were cut into more than one chunk.
/// Cases are independent, so a few threads check a slice each; results
/// stay in case order, so the first failing case is the one reported.
/// Returns the oracle's observation of each case.
pub fn sweep<C: Case + Sync>(
    family: &str,
    seed: u64,
    cases: &[C],
    rows: &[usize],
) -> Vec<Observation> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let checked: Vec<_> = std::thread::scope(|s| {
        let slices = cases.chunks(cases.len().div_ceil(workers).max(1));
        let handles: Vec<_> = slices
            .map(|slice| s.spawn(move || slice.iter().map(|c| check(c, rows)).collect::<Vec<_>>()))
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let (mut oracles, mut chunks) = (Vec::new(), Vec::new());
    for (i, result) in checked.into_iter().enumerate() {
        match result {
            Ok((oracle, cut)) => {
                oracles.push(oracle);
                chunks.extend(cut);
            }
            Err(at) => {
                let shrunk = shrink(&cases[i], |c| check(c, rows).is_err());
                fail(family, seed, i, &cases[i], at, &shrunk)
            }
        }
    }
    let refused = oracles.iter().filter(|o| o.outcome == Outcome::Refused);
    let (refused, cut) = (refused.count(), chunks.iter().filter(|&&c| c >= 2).count());
    println!(
        "{family}: {} cases, {refused} refused by the oracle, {cut}/{} streamed executions \
         cut into 2+ chunks",
        cases.len(),
        chunks.len()
    );
    assert!(
        refused * 2 < cases.len(),
        "{family} degenerated: {refused}/{} cases never produced an answer",
        cases.len()
    );
    assert!(
        cut * 4 >= chunks.len(),
        "{family} degenerated: only {cut}/{} streamed executions were cut into 2+ chunks",
        chunks.len()
    );
    oracles
}
