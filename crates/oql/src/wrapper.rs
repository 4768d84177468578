//! The `o2-wrapper` program (Fig. 2): exports the O2 database's structure
//! and query capabilities, and evaluates pushed plans by translating them
//! to OQL.

use crate::export::{extent_tree, object_tree, schema_model, value_tree};
use crate::oql;
use crate::store::Store;
use crate::translate::plan_to_oql_passing;
use crate::value::OVal;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use yat_algebra::{Tab, Value};
use yat_capability::fpattern::o2_fmodel;
use yat_capability::interface::{ExportDecl, Interface, OpKind, OperationDecl, SigItem};
use yat_capability::protocol::{
    batch_columns, batch_row, Bindings, Request, Response, WrapperServer,
};
use yat_capability::{IndexReport, ReportSlot, StorageReport};

/// The O2 wrapper: a [`WrapperServer`] over an object [`Store`].
///
/// The store sits behind an `RwLock` so holders of a shared handle
/// ([`O2Wrapper::shared`]) can mutate it while the wrapper is connected
/// — mutations bump the epoch cell the mediator registered,
/// invalidating cached answers.
pub struct O2Wrapper {
    name: String,
    store: Arc<RwLock<Store>>,
    model_name: String,
    /// Index accounting of each thread's most recent `Execute`, taken by
    /// the transport for `EXPLAIN ANALYZE` (never on the wire).
    report: ReportSlot<IndexReport>,
    /// Storage accounting of each thread's most recent `Execute` or
    /// `GetDocument` (store-backed databases only), taken the same way.
    storage: ReportSlot<StorageReport>,
}

impl O2Wrapper {
    /// Wraps a store under the interface name `name` (the paper uses
    /// `o2artifact`).
    pub fn new(name: impl Into<String>, store: Store) -> Self {
        Self::new_shared(name, Arc::new(RwLock::new(store)))
    }

    /// Wraps an already-shared store — the caller keeps a handle to
    /// mutate it after connecting.
    pub fn new_shared(name: impl Into<String>, store: Arc<RwLock<Store>>) -> Self {
        O2Wrapper {
            name: name.into(),
            store,
            model_name: "art".into(),
            report: ReportSlot::default(),
            storage: ReportSlot::default(),
        }
    }

    /// Read access to the wrapped store (tests, benches).
    pub fn store(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    /// A shared handle to the store, for mutating it while connected.
    pub fn shared(&self) -> Arc<RwLock<Store>> {
        self.store.clone()
    }

    /// Builds the exported interface: the Fig. 6 Fmodel and operations,
    /// the schema as structural metadata, one export per extent, and the
    /// wrapped methods as external operations ("this declaration is
    /// performed automatically by the O2 wrapper with the help of the O2
    /// schema manager", Section 4).
    pub fn interface(&self) -> Interface {
        let store = self.store();
        let mut i = Interface::new(self.name.clone());
        i.models.push(schema_model(&store, &self.model_name));
        i.fmodels.push(o2_fmodel());
        for class in store.schema.classes() {
            if let Some(extent) = &class.extent {
                let mut pattern = extent.clone();
                if let Some(first) = pattern.get_mut(0..1) {
                    first.make_ascii_uppercase();
                }
                i.exports.push(ExportDecl {
                    name: extent.clone(),
                    model: self.model_name.clone(),
                    pattern,
                });
            }
        }
        i.operations.push(OperationDecl {
            name: "bind".into(),
            kind: OpKind::Algebra,
            input: vec![
                SigItem::Value {
                    model: "o2model".into(),
                    pattern: "Type".into(),
                },
                SigItem::Filter {
                    model: "o2fmodel".into(),
                    pattern: "Ftype".into(),
                },
            ],
            output: vec![SigItem::Value {
                model: "yat".into(),
                pattern: "Tab".into(),
            }],
        });
        i.operations.push(OperationDecl::algebra("select"));
        i.operations.push(OperationDecl::algebra("project"));
        i.operations.push(OperationDecl::algebra("map"));
        i.operations.push(OperationDecl::boolean("eq"));
        for class in store.schema.classes() {
            for m in &class.methods {
                let ret = match &m.returns {
                    crate::types::Type::Atom(t) => SigItem::Leaf(*t),
                    other => SigItem::Value {
                        model: self.model_name.clone(),
                        pattern: other.to_string(),
                    },
                };
                i.operations.push(OperationDecl {
                    name: m.name.clone(),
                    kind: OpKind::External,
                    input: vec![SigItem::Value {
                        model: self.model_name.clone(),
                        pattern: class.name.clone(),
                    }],
                    output: vec![ret],
                });
            }
        }
        i
    }

    /// Evaluates a pushed plan once per binding: the plan is translated
    /// to (parameterized) OQL and parsed *once*, then evaluated — field
    /// indexes probed — under each row of `bindings`. A plain `Execute`
    /// is the one-empty-binding case; `tagged` results carry the binding
    /// ordinal column of an `ExecuteBatch`.
    fn execute(&self, plan: &yat_algebra::Alg, bindings: &Bindings, tagged: bool) -> Response {
        let store = self.store();
        let storage_before = store.backing_store().map(|s| s.stats());
        let translated = match plan_to_oql_passing(plan, &bindings.vars) {
            Ok(t) => t,
            Err(e) => return Response::Refused(e.to_string()),
        };
        let query = match oql::parse(&translated.oql) {
            Ok(q) => q,
            Err(e) => return Response::Error(format!("OQL evaluation failed: {e}")),
        };
        // the names the OQL text projects under (primes are not valid
        // OQL identifiers), computed once for all rows of all bindings
        let safe: Vec<String> = translated
            .columns
            .iter()
            .map(|c| c.replace('\'', "_prime"))
            .collect();
        let mut tab = Tab::new(if tagged {
            batch_columns(&translated.columns)
        } else {
            translated.columns
        });
        let mut total = oql::QueryStats::default();
        let mut scans = 0u64;
        let prepared = oql::Prepared::new(&query, &store);
        for (ordinal, params) in bindings.rows.iter().enumerate() {
            let (rows, stats) = match prepared.eval(params) {
                Ok(r) => r,
                Err(e) => return Response::Error(format!("OQL evaluation failed: {e}")),
            };
            for row in rows {
                let values = safe.iter().map(|c| {
                    row.get(c)
                        .map(|v| self.to_value(&store, v))
                        .unwrap_or(Value::Null)
                });
                tab.push(if tagged {
                    batch_row(ordinal, values)
                } else {
                    values.collect()
                });
            }
            total.probes += stats.probes;
            total.candidates += stats.candidates;
            total.scanned += stats.scanned;
            scans += u64::from(!stats.indexed);
        }
        let extent = query
            .ranges
            .first()
            .map(|(_, p)| p.0[0].clone())
            .unwrap_or_default();
        let evaluations = bindings.rows.len() as u64;
        let collection_size = store.extent(&extent).map(<[_]>::len).unwrap_or(0) as u64;
        self.record_storage(&extent, storage_before, &store);
        self.report.put(IndexReport {
            collection: extent,
            probes: total.probes,
            candidates: total.candidates,
            scanned: total.scanned,
            collection_size: collection_size * evaluations,
            rows: tab.len() as u64,
            evaluations,
            scans,
        });
        Response::Result(tab)
    }

    /// Files a [`StorageReport`] for work that just touched the store,
    /// when it is store-backed: `before` is the counter snapshot taken
    /// before the work, so the deltas cover exactly this request.
    fn record_storage(
        &self,
        collection: &str,
        before: Option<yat_store::StoreStats>,
        store: &Store,
    ) {
        if let (Some(before), Some(backing)) = (before, store.backing_store()) {
            let after = backing.stats();
            self.storage.put(StorageReport {
                collection: collection.to_string(),
                segments: after.segments,
                resident: after.resident,
                loads: after.loads - before.loads,
                evictions: after.evictions - before.evictions,
                bytes_read: after.bytes_read - before.bytes_read,
            });
        }
    }

    /// Converts an OQL result value into a `Tab` cell, exporting objects
    /// as full YAT trees.
    fn to_value(&self, store: &Store, v: &OVal) -> Value {
        match v {
            OVal::Atom(a) => Value::Atom(a.clone()),
            OVal::Ref(oid) => match object_tree(store, oid) {
                Some(t) => Value::Tree(t),
                None => Value::Null,
            },
            OVal::Nil => Value::Null,
            other => Value::Tree(value_tree(other)),
        }
    }
}

impl WrapperServer for O2Wrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::GetInterface => Response::Interface(self.interface()),
            Request::GetDocument { name } => {
                let store = self.store();
                let before = store.backing_store().map(|s| s.stats());
                let out = extent_tree(&store, name);
                self.record_storage(name, before, &store);
                match out {
                    Some(tree) => Response::Document {
                        name: name.clone(),
                        tree,
                    },
                    None => Response::Error(format!("no extent `{name}`")),
                }
            }
            Request::Execute { plan } => self.execute(plan, &Bindings::unit(), false),
            Request::ExecuteBatch { plan, bindings } => self.execute(plan, bindings, true),
        }
    }

    fn take_index_report(&self) -> Option<IndexReport> {
        self.report.take()
    }

    fn take_storage_report(&self) -> Option<StorageReport> {
        self.storage.take()
    }

    fn register_epoch(&self, cell: Arc<AtomicU64>) {
        self.store
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .register_epoch(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::fig1_store;
    use std::sync::Arc;
    use yat_algebra::{Alg, CmpOp, Operand, Pred};
    use yat_capability::matcher::pushable;
    use yat_yatl::parse_filter;

    fn wrapper() -> O2Wrapper {
        O2Wrapper::new("o2artifact", fig1_store())
    }

    #[test]
    fn interface_exports_everything() {
        let i = wrapper().interface();
        assert_eq!(i.name, "o2artifact");
        assert!(i.export("artifacts").is_some());
        assert!(i.export("persons").is_some());
        assert!(i.fmodel("o2fmodel").is_some());
        assert!(i.model("art").is_some());
        assert!(i.operation("bind").is_some());
        assert!(i.operation("current_price").is_some());
        assert!(i.supports_comparisons());
        // and it survives the wire
        let mut text = String::new();
        i.encode(&mut text);
        let back = Interface::decode(&text).unwrap();
        assert_eq!(i, back);
    }

    #[test]
    fn get_document_returns_extent() {
        let w = wrapper();
        match w.handle(&Request::GetDocument {
            name: "artifacts".into(),
        }) {
            Response::Document { name, tree } => {
                assert_eq!(name, "artifacts");
                assert_eq!(tree.children.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            w.handle(&Request::GetDocument {
                name: "nope".into()
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn execute_pushed_fig5_fragment() {
        let w = wrapper();
        let filter = parse_filter(
            "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p, \
             owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
        )
        .unwrap();
        let plan = Alg::select(
            Alg::bind(Alg::source("artifacts"), filter),
            Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
        );
        // the capability matcher approves...
        pushable(&w.interface(), &plan).unwrap();
        // ...and execution produces the right Tab
        match w.handle(&Request::Execute { plan }) {
            Response::Result(tab) => {
                assert_eq!(tab.columns(), &["t", "y", "c", "p", "o", "au"]);
                assert_eq!(tab.len(), 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_whole_object_bind_exports_trees() {
        let w = wrapper();
        let plan = Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap());
        match w.handle(&Request::Execute { plan }) {
            Response::Result(tab) => {
                assert_eq!(tab.len(), 2);
                let v = tab.get(0, "x").unwrap();
                let t = v.as_tree().expect("objects export as trees");
                assert!(matches!(&t.label, yat_model::Label::Oid(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    fn fig5_plan() -> std::sync::Arc<Alg> {
        let filter = parse_filter(
            "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p, \
             owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
        )
        .unwrap();
        Alg::select(
            Alg::bind(Alg::source("artifacts"), filter),
            Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
        )
    }

    #[test]
    fn execute_records_an_index_report() {
        let w = wrapper();
        assert!(w.take_index_report().is_none(), "nothing executed yet");
        w.handle(&Request::Execute { plan: fig5_plan() });
        let r = w.take_index_report().unwrap();
        assert!(r.indexed(), "the year predicate probed the field index");
        assert_eq!(r.collection, "artifacts");
        assert_eq!(r.probes, 1);
        assert_eq!(r.candidates, 2, "both artifacts are post-1800");
        assert_eq!(r.collection_size, 2);
        assert_eq!(r.rows, 4);
        assert!(w.take_index_report().is_none(), "a report is taken once");
    }

    #[test]
    fn concurrent_requests_each_take_their_own_index_report() {
        // two distinguishable requests against one shared wrapper: an
        // indexed artifacts probe and a persons scan. Each thread handles
        // its request, waits until the other has handled too, then takes
        // its report — as two served workers would interleave
        let w = wrapper();
        let persons = Alg::bind(
            Alg::source("persons"),
            parse_filter("set *class: person: tuple [ name: $n, auction: $au ]").unwrap(),
        );
        let requests = [fig5_plan(), persons].map(|plan| Request::Execute { plan });
        let alone = requests.clone().map(|request| {
            w.handle(&request);
            w.take_index_report().expect("an execute files a report")
        });
        assert_ne!(alone[0], alone[1], "the two reports are distinguishable");
        let barrier = std::sync::Barrier::new(requests.len());
        std::thread::scope(|scope| {
            for (request, want) in requests.iter().zip(&alone) {
                let (w, barrier) = (&w, &barrier);
                scope.spawn(move || {
                    w.handle(request);
                    barrier.wait();
                    assert_eq!(w.take_index_report().as_ref(), Some(want));
                });
            }
        });
    }

    #[test]
    fn scan_policy_answers_identically() {
        use yat_capability::IndexPolicy;
        let scan = O2Wrapper::new(
            "o2artifact",
            fig1_store().with_index_policy(IndexPolicy::Off),
        );
        let indexed = wrapper();
        let a = indexed.handle(&Request::Execute { plan: fig5_plan() });
        let b = scan.handle(&Request::Execute { plan: fig5_plan() });
        match (a, b) {
            (Response::Result(x), Response::Result(y)) => assert_eq!(x, y),
            other => panic!("{other:?}"),
        }
        let r = scan.take_index_report().unwrap();
        assert!(!r.indexed());
        assert_eq!(r.scanned, 2, "the scan path touched every artifact");
    }

    #[test]
    fn shared_store_mutations_bump_registered_epochs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, RwLock};
        let shared = Arc::new(RwLock::new(fig1_store()));
        let w = O2Wrapper::new_shared("o2artifact", shared.clone());
        let cell = Arc::new(AtomicU64::new(0));
        w.register_epoch(cell.clone());

        shared
            .write()
            .unwrap()
            .remove(&yat_model::Oid::new("a2"))
            .expect("a2 exists");
        assert_eq!(cell.load(Ordering::SeqCst), 1, "mutation bumped the epoch");
        match w.handle(&Request::GetDocument {
            name: "artifacts".into(),
        }) {
            Response::Document { tree, .. } => assert_eq!(tree.children.len(), 1),
            other => panic!("{other:?}"),
        }
        // and pushed plans see the post-mutation state
        match w.handle(&Request::Execute { plan: fig5_plan() }) {
            Response::Result(tab) => assert_eq!(tab.len(), 3, "only Nympheas' three owners"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_backed_wrapper_reports_storage_and_matches_oracle() {
        use crate::art::{art_store, art_store_at, ArtSpec};
        let dir = std::env::temp_dir().join(format!("yat-o2wrap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ArtSpec::default();
        let disk = O2Wrapper::new(
            "o2artifact",
            art_store_at(&spec, &dir, yat_store::StoreOptions::default()).unwrap(),
        );
        let oracle = O2Wrapper::new("o2artifact", art_store(&spec));
        assert!(disk.take_storage_report().is_none(), "nothing executed yet");
        let a = disk.handle(&Request::Execute { plan: fig5_plan() });
        let b = oracle.handle(&Request::Execute { plan: fig5_plan() });
        match (a, b) {
            (Response::Result(x), Response::Result(y)) => assert_eq!(x, y),
            other => panic!("{other:?}"),
        }
        let r = disk.take_storage_report().unwrap();
        assert_eq!(r.collection, "artifacts");
        assert!(r.segments >= 1);
        assert!(disk.take_storage_report().is_none(), "taken once");
        assert!(
            oracle.take_storage_report().is_none(),
            "in-memory databases never report storage"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `plan` as one `ExecuteBatch` over `bindings` and as one
    /// `Execute` of the substituted plan per binding: the batch must
    /// answer every binding exactly as its own request would have been
    /// answered, or fail when they fail.
    fn assert_batch_matches_per_binding(w: &O2Wrapper, plan: &Arc<Alg>, bindings: &Bindings) {
        use yat_capability::protocol::split_batch_result;
        let per_binding: Vec<Response> = bindings
            .rows
            .iter()
            .map(|row| {
                let env = bindings
                    .vars
                    .iter()
                    .cloned()
                    .zip(row.iter().cloned().map(Value::Atom))
                    .collect();
                w.handle(&Request::Execute {
                    plan: yat_algebra::substitute_env(plan, &env),
                })
            })
            .collect();
        let batch = w.handle(&Request::ExecuteBatch {
            plan: plan.clone(),
            bindings: bindings.clone(),
        });
        match batch {
            Response::Result(tab) => {
                let tabs = split_batch_result(tab, bindings.rows.len()).unwrap();
                for (i, (tab, single)) in tabs.into_iter().zip(per_binding).enumerate() {
                    assert_eq!(Response::Result(tab), single, "binding {i} of {plan:?}");
                }
            }
            Response::Refused(_) | Response::Error(_) => assert!(
                (per_binding.iter())
                    .all(|r| matches!(r, Response::Refused(_) | Response::Error(_))),
                "the batch failed but some binding alone succeeds: {plan:?}"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batches_answer_like_per_binding_executes() {
        use crate::art::{art_store, ArtSpec};
        use yat_model::Atom;
        let w = O2Wrapper::new("o2artifact", art_store(&ArtSpec::default()));
        // real values to pass: the first artifacts' fields
        let seed = Alg::bind(
            Alg::source("artifacts"),
            parse_filter("set *class: artifact: tuple [ title: $t, year: $y, creator: $c ]")
                .unwrap(),
        );
        let Response::Result(rows) = w.handle(&Request::Execute { plan: seed }) else {
            panic!("the seed plan runs")
        };
        let atom = |r: usize, c: &str| rows.get(r, c).unwrap().atom().unwrap();
        let year_as_float = Atom::Float(atom(0, "y").as_f64().unwrap());

        let artifacts =
            |filter: &str| Alg::bind(Alg::source("artifacts"), parse_filter(filter).unwrap());
        let by_creator = Alg::select(
            artifacts("set *class: artifact: tuple [ title: $t2, creator: $c, price: $p ]"),
            Pred::var_eq("c", "a"),
        );
        let cases: Vec<(Arc<Alg>, Bindings)> = vec![
            // a free predicate variable; duplicates and a value nobody has
            (
                by_creator.clone(),
                Bindings {
                    vars: vec!["a".into()],
                    rows: vec![
                        vec![atom(0, "c")],
                        vec![Atom::Str("nobody at all".into())],
                        vec![atom(3, "c")],
                        vec![atom(0, "c")],
                    ],
                },
            ),
            // Fig. 9's shape: two passed variables over an inner select,
            // one of them primed
            (
                Alg::select(
                    Alg::select(
                        artifacts(
                            "set *class: artifact: tuple [ title: $t, year: $y, creator: $c ]",
                        ),
                        Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
                    ),
                    Pred::var_eq("c", "a").and(Pred::var_eq("t", "t'")),
                ),
                Bindings {
                    vars: vec!["a".into(), "t'".into()],
                    rows: vec![
                        vec![atom(0, "c"), atom(0, "t")],
                        vec![atom(1, "c"), atom(0, "t")],
                        vec![atom(2, "c"), atom(2, "t")],
                    ],
                },
            ),
            // a variable the filter shares: passed values become filter
            // constants and the column disappears; int and float alike
            (
                artifacts("set *class: artifact: tuple [ title: $t, year: $y ]"),
                Bindings {
                    vars: vec!["y".into()],
                    rows: vec![vec![atom(0, "y")], vec![year_as_float], vec![Atom::Int(1)]],
                },
            ),
            // under a projection
            (
                Alg::project(by_creator.clone(), vec![("t2".into(), "title".into())]),
                Bindings {
                    vars: vec!["a".into()],
                    rows: vec![vec![atom(1, "c")], vec![atom(2, "c")]],
                },
            ),
            // a passed variable the predicate's input also produces is
            // *not* substituted there, and its filter occurrence is — the
            // predicate then dangles, batch or not
            (
                Alg::select(
                    artifacts("set *class: artifact: tuple [ title: $t, creator: $c ]"),
                    Pred::var_eq("c", "t"),
                ),
                Bindings {
                    vars: vec!["t".into()],
                    rows: vec![vec![atom(0, "t")]],
                },
            ),
            // nothing to ask
            (
                by_creator,
                Bindings {
                    vars: vec!["a".into()],
                    rows: vec![],
                },
            ),
        ];
        for (plan, bindings) in &cases {
            assert_batch_matches_per_binding(&w, plan, bindings);
        }
    }

    #[test]
    fn a_batch_probes_its_literal_conjuncts_once() {
        use crate::art::{art_store, ArtSpec};
        let store =
            art_store(&ArtSpec::default()).with_index_policy(yat_capability::IndexPolicy::On);
        let w = O2Wrapper::new("o2artifact", store);
        let plan = Alg::select(
            Alg::bind(
                Alg::source("artifacts"),
                parse_filter("set *class: artifact: tuple [ title: $t, year: $y, creator: $c ]")
                    .unwrap(),
            ),
            Pred::var_eq("c", "a").and(Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800))),
        );
        let creators = ["Claude Monet", "Paul Cézanne", "nobody"];
        let bindings = Bindings {
            vars: vec!["a".into()],
            rows: creators
                .iter()
                .map(|c| vec![yat_model::Atom::Str(c.to_string())])
                .collect(),
        };
        w.handle(&Request::ExecuteBatch { plan, bindings });
        let r = w.take_index_report().unwrap();
        assert_eq!((r.evaluations, r.scans), (3, 0));
        assert!(r.indexed());
        assert_eq!(
            r.probes, 4,
            "one creator probe per binding, the year range probed once"
        );
        assert_eq!(r.collection_size, 3 * 50, "once per evaluation");
        assert_eq!(r.scanned, r.candidates, "only candidates were examined");
    }

    #[test]
    fn execute_rejects_untranslatable_plans() {
        let w = wrapper();
        let plan = Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap());
        assert!(matches!(
            w.handle(&Request::Execute { plan }),
            Response::Refused(_)
        ));
    }
}
