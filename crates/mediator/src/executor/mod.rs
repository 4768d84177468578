//! Plan execution: fetch mediator-side documents, ship `Push` fragments,
//! substitute information-passing values, evaluate the rest locally.
//!
//! Execution runs in one of two [`ExecMode`]s. Both first fetch the
//! documents mediator-side operators read, one `get-document` round trip
//! at a time. `Sequential` then performs every push in plan order, one at
//! a time. `Parallel` first performs a *dependency analysis* over the
//! plan: every independent `Push` fragment — one not nested under the
//! dependent side of a `DJoin`, whose information-passing environment is
//! therefore provably empty — becomes a scatter job dispatched
//! concurrently over a bounded pool of `std::thread::scope` worker lanes.
//! The gather step assembles a push-result memo, then local evaluation
//! proceeds exactly as in sequential mode, taking pushed results from the
//! memo instead of the wire. Dependent pushes (the `DJoin` right-hand
//! side) still go to the wire inline, but set-oriented: the join hands
//! the push handler its distinct bindings at once and they ship as
//! `execute-batch` requests — per-binding cache keys, failover and
//! partition pruning preserved (see `ship_bindings`).

mod fetch;
mod scatter;
mod ship;

use crate::transport::Connection;
use fetch::{fetch_documents, RemoteCatalog};
use scatter::scatter_gather;
use ship::{ship_bindings, stream_push, PassedFragment};
use std::collections::BTreeMap;
use std::sync::Arc;
use yat_algebra::eval::{eval_env, Env, EvalCtx, PushHandler};
use yat_algebra::stream::{pipeline, DeliveryStats};
use yat_algebra::{
    Alg, BatchAnswer, BatchSink, EvalError, EvalOut, FnRegistry, PassedBindings, SkolemRegistry,
    Tab,
};
use yat_cache::{AnswerCache, CachedAnswer, Signature};
use yat_capability::interface::Interface;
use yat_federate::{GroupKind, SourceRegistry};
use yat_obs::Collector;

pub use crate::policy::{ExecMode, StreamPolicy};

/// Everything one execution runs against: the connection/interface maps
/// and registries of the mediator, the selected mode and cache, and the
/// optional span collector. A `Copy` bundle of references, shared by the
/// fetch and ship code, the scatter lanes and the push handler that lives
/// on through local evaluation.
///
/// With an empty [`SourceRegistry`] the executor behaves exactly as
/// before federation existed: every source name resolves to its own
/// connection. Any failure that replica failover cannot absorb fails
/// the query.
#[derive(Clone, Copy)]
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

impl ExecSpec<'_> {
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

    /// The cached answer of the pushed fragment `sig` at `source`,
    /// validated against `epoch`. The outcome, hit or miss, feeds the
    /// registry's cost records.
    fn cached_result(&self, sig: Signature, source: &str, epoch: u64) -> Option<Tab> {
        let tab = match self.cache.lookup(sig, source, epoch, self.obs) {
            Some(CachedAnswer::Result(tab)) => Some(tab),
            _ => None,
        };
        self.observe_cache(source, tab.is_some());
        tab
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
    /// ([`yat_capability::protocol::Response::Refused`]).
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
            EvalError::Source { source, message } => ExecError::Wrapper { source, message },
            EvalError::Refused { source, reason } => ExecError::Refused { source, reason },
            other => ExecError::Eval(other),
        }
    }
}

/// Executes a plan against the connected wrappers, under the spec's
/// [`ExecMode`], answer cache and federation registry.
///
/// Mediator-side `Source` reads fetch whole documents
/// (`fetch_documents`) — part of the naive strategy's cost that
/// pushdown avoids.
///
/// With a span collector in the spec, document prefetch runs under a
/// `phase` span, every protocol round trip records an `rpc` span, and
/// local evaluation records one `operator` span per operator execution —
/// the raw material of `EXPLAIN ANALYZE`. In `Parallel` mode every
/// independent push fragment runs as a scatter job under a `scatter`
/// phase span; each job span records the worker lane that executed it
/// (`attr::LANE`), and jobs are ordered longest-expected-first using the
/// registry's cost records.
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

/// The shared front half of execution: document prefetch, then — in
/// parallel mode — the scatter of the independent pushes, and
/// construction of the catalog + push handler local evaluation runs
/// against.
fn prepare<'a>(plan: &Alg, spec: &ExecSpec<'a>) -> Result<(RemoteCatalog, Pusher<'a>), ExecError> {
    let catalog = fetch_documents(plan, spec)?;
    let pushed = match spec.mode {
        ExecMode::Sequential => BTreeMap::new(),
        ExecMode::Parallel { max_in_flight } => scatter_gather(plan, spec, max_in_flight)?,
    };
    Ok((
        catalog,
        Pusher {
            spec: *spec,
            pushed,
        },
    ))
}

struct Pusher<'a> {
    spec: ExecSpec<'a>,
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
        let spec = &self.spec;
        let fragment = PassedFragment::new(plan, bindings);
        let cache_on = spec.cache.policy().is_enabled();
        // the live epoch (a group's aggregates over its members), read
        // once: before the lookups it validates and the round trips whose
        // answers it tags
        let epoch = spec.epoch_of(source);
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
                if let Some(tab) = spec.cached_result(sig, source, epoch) {
                    tabs[ordinal] = Some(tab);
                    continue;
                }
            }
            misses.push(ordinal);
        }

        // only the misses enter the batch
        let mut batches = 0;
        if !misses.is_empty() {
            let shipped = ship_bindings(source, &fragment, &misses, spec, &mut batches)?;
            for (ordinal, tab) in misses.into_iter().zip(shipped) {
                if let Some(sig) = sigs[ordinal] {
                    spec.cache.insert(
                        sig,
                        source,
                        epoch,
                        CachedAnswer::Result(tab.clone()),
                        spec.obs,
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

    /// A fragment that substitutes nothing, sent to a plain source or a
    /// replica group, streams ([`stream_push`]): its result crosses in
    /// pieces of `rows` rows and each goes to `each` as it is read. The
    /// cache is consulted first, as for any push, and stores the answer
    /// only once its last piece has arrived. Every other push — a
    /// partition group, information-passing bindings, a fragment the
    /// scatter step already shipped — arrives whole, as one piece.
    fn execute_push_pieces(
        &self,
        source: &str,
        plan: &Arc<Alg>,
        env: &Env,
        rows: usize,
        each: &mut dyn FnMut(Tab) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let spec = &self.spec;
        let bindings = PassedBindings::single(plan, env);
        let fragment = PassedFragment::new(plan, &bindings);
        let partitioned = spec.registry.group_kind(source) == Some(GroupKind::Partitioned);
        if partitioned || !fragment.is_symbolic(0) || !self.pushed.is_empty() {
            return each(self.execute_push(source, plan, env)?);
        }
        let epoch = spec.epoch_of(source);
        let sig = spec
            .cache
            .policy()
            .is_enabled()
            .then(|| Signature::execute(source, fragment.plan_of(0)));
        if let Some(tab) = sig.and_then(|sig| spec.cached_result(sig, source, epoch)) {
            return each(tab);
        }
        let mut kept: Option<Tab> = None;
        stream_push(source, plan, spec, rows, &mut |piece| {
            if sig.is_some() {
                match &mut kept {
                    Some(tab) => tab.append(piece.clone()),
                    None => kept = Some(piece.clone()),
                }
            }
            each(piece)
        })?;
        if let (Some(sig), Some(tab)) = (sig, kept) {
            spec.cache
                .insert(sig, source, epoch, CachedAnswer::Result(tab), spec.obs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_algebra::Pred;
    use yat_capability::protocol::{Request, Response, MAX_BATCH_BINDINGS};
    use yat_model::{Node, Tree};
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
}
