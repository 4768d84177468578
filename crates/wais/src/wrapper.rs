//! The `xmlwais-wrapper` program (Fig. 2): exports the restricted
//! interface of Section 4.2 and evaluates pushed plans against the
//! full-text index.

use crate::index::{tokenize, DocId};
use crate::source::WaisSource;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use yat_algebra::funcs::ELEMENTS;
use yat_algebra::{Alg, Operand, Pred, Tab, Value};
use yat_capability::fpattern::wais_fmodel;
use yat_capability::interface::{
    Equivalence, ExportDecl, Interface, OpKind, OperationDecl, SigItem,
};
use yat_capability::protocol::{
    batch_columns, batch_row, Bindings, Request, Response, WrapperServer,
};
use yat_capability::{IndexReport, ReportSlot, StorageReport};
use yat_model::postings::intersect;
use yat_model::{AtomType, Edge, Model, Occ, PLabel, Pattern, StarBind};

/// The xmlwais wrapper: a [`WrapperServer`] over a [`WaisSource`].
///
/// The source sits behind an `RwLock` so holders of a shared handle
/// ([`WaisWrapper::shared`]) can mutate the collection while the wrapper
/// is connected — mutations bump the epoch cell the mediator registered,
/// invalidating cached answers.
pub struct WaisWrapper {
    name: String,
    source: Arc<RwLock<WaisSource>>,
    /// Index accounting of each thread's most recent `Execute`, taken by
    /// the transport for `EXPLAIN ANALYZE` (never on the wire).
    report: ReportSlot<IndexReport>,
    /// Storage accounting of each thread's most recent `Execute` or
    /// `GetDocument` (store-backed sources only), taken the same way.
    storage: ReportSlot<StorageReport>,
}

impl WaisWrapper {
    /// Wraps a source under the interface name `name` (the paper uses
    /// `xmlartwork`).
    pub fn new(name: impl Into<String>, source: WaisSource) -> Self {
        Self::new_shared(name, Arc::new(RwLock::new(source)))
    }

    /// Wraps an already-shared source — the caller keeps a handle to
    /// mutate the collection after connecting.
    pub fn new_shared(name: impl Into<String>, source: Arc<RwLock<WaisSource>>) -> Self {
        WaisWrapper {
            name: name.into(),
            source,
            report: ReportSlot::default(),
            storage: ReportSlot::default(),
        }
    }

    /// Read access to the underlying source (tests, benches).
    pub fn source(&self) -> RwLockReadGuard<'_, WaisSource> {
        self.source.read().unwrap_or_else(|e| e.into_inner())
    }

    /// A shared handle to the source, for mutating it while connected.
    pub fn shared(&self) -> Arc<RwLock<WaisSource>> {
        self.source.clone()
    }

    /// The exported structural metadata: the `Artworks_Structure` of
    /// Fig. 3 (mandatory fields plus arbitrary extra `Field`s).
    pub fn structure(&self) -> Model {
        let work = Pattern::sym(
            "work",
            vec![
                Edge::one(Pattern::elem_typed("artist", AtomType::Str)),
                Edge::one(Pattern::elem_typed("title", AtomType::Str)),
                Edge::one(Pattern::elem_typed("style", AtomType::Str)),
                Edge::one(Pattern::elem_typed("size", AtomType::Str)),
                Edge::star(Pattern::Ref("Field".into())),
            ],
        );
        Model::new("Artworks_Structure")
            .with("Work", work)
            .with(
                "Field",
                Pattern::Node {
                    label: PLabel::AnySym,
                    edges: vec![Edge::star(Pattern::Wildcard)],
                },
            )
            .with(
                "Works",
                Pattern::sym(
                    self.source().collection.clone(),
                    vec![Edge::star(Pattern::Ref("Work".into()))],
                ),
            )
    }

    /// The exported interface of Section 4.2: the restrictive `Fworks`
    /// pattern, `bind`/`select`, the external `contains` predicate, the
    /// external `elements(Work, Str…) → Work` element-set operation
    /// (Z39.50 names the elements a request retrieves), and the
    /// `eq ⇒ contains` equivalence declaration.
    pub fn interface(&self) -> Interface {
        let mut i = Interface::new(self.name.clone());
        i.models.push(self.structure());
        i.fmodels.push(wais_fmodel());
        i.exports.push(ExportDecl {
            name: self.source().collection.clone(),
            model: "Artworks_Structure".into(),
            pattern: "Works".into(),
        });
        i.operations.push(OperationDecl {
            name: "bind".into(),
            kind: OpKind::Algebra,
            input: vec![
                SigItem::Value {
                    model: "Artworks_Structure".into(),
                    pattern: "works".into(),
                },
                SigItem::Filter {
                    model: "waisfmodel".into(),
                    pattern: "Fworks".into(),
                },
            ],
            output: vec![SigItem::Value {
                model: "yat".into(),
                pattern: "Tab".into(),
            }],
        });
        i.operations.push(OperationDecl::algebra("select"));
        i.operations.push(OperationDecl {
            name: "contains".into(),
            kind: OpKind::External,
            input: vec![
                SigItem::Value {
                    model: "Artworks_Structure".into(),
                    pattern: "Work".into(),
                },
                SigItem::Leaf(AtomType::Str),
            ],
            output: vec![SigItem::Leaf(AtomType::Bool)],
        });
        // Z39.50 element sets: a request names the fields to retrieve
        i.operations.push(OperationDecl {
            name: ELEMENTS.into(),
            kind: OpKind::External,
            input: vec![
                SigItem::Value {
                    model: "Artworks_Structure".into(),
                    pattern: "Work".into(),
                },
                SigItem::Leaf(AtomType::Str),
            ],
            output: vec![SigItem::Value {
                model: "Artworks_Structure".into(),
                pattern: "Work".into(),
            }],
        });
        i.equivalences.push(Equivalence::EqImpliesContains {
            predicate: "contains".into(),
        });
        i
    }

    /// Evaluates a pushed plan once per binding: `Select*(Bind(Source))`
    /// where every selection predicate is a `contains($w, "…")` conjunct
    /// (the needle a constant, or a variable `bindings` passes a value
    /// for), optionally under an element set that cuts each retrieved
    /// document to the named fields after selection. The plan is
    /// analyzed *once*; each binding then resolves its needles and,
    /// under an `On` index policy, intersects their sorted posting lists
    /// so only matching documents are touched — under `Off` each
    /// conjunct scans the collection. Identical answers, and
    /// the accounting lands in an [`IndexReport`] either way. A plain
    /// `Execute` is the one-empty-binding case; `tagged` results carry
    /// the binding ordinal column of an `ExecuteBatch`.
    fn execute(&self, plan: &Alg, bindings: &Bindings, tagged: bool) -> Response {
        let source = self.source();
        let storage_before = source.store().map(|s| s.stats());
        let Analyzed {
            var,
            needles,
            elements,
        } = match analyze(plan, &source.collection, &bindings.vars) {
            Ok(analyzed) => analyzed,
            Err(message) => return Response::Error(message),
        };
        let indexed = source.index_policy().is_on() && !needles.is_empty();
        let collection_size = source.len() as u64;
        let evaluations = bindings.rows.len() as u64;
        let (mut probes, mut candidates) = (0u64, 0u64);

        let mut tab = Tab::new(if tagged {
            batch_columns(&[var])
        } else {
            vec![var]
        });
        for (ordinal, passed) in bindings.rows.iter().enumerate() {
            // resolve candidates: posting-list intersection (or the scan
            // oracle, per the source's index policy) per conjunct
            let mut ids: Option<Vec<DocId>> = None;
            for needle in &needles {
                let needle = match needle {
                    Needle::Text(text) => std::borrow::Cow::Borrowed(text.as_str()),
                    Needle::Passed(i) => std::borrow::Cow::Owned(passed[*i].to_string()),
                };
                probes += tokenize(&needle).len() as u64;
                let hits = match source.contains(&needle) {
                    Ok(h) => h,
                    Err(e) => return Response::Error(e),
                };
                ids = Some(match ids {
                    None => hits,
                    Some(prev) => intersect(&prev, &hits),
                });
            }
            let ids: Vec<DocId> = match ids {
                Some(set) => set,
                None => source.ids(),
            };
            candidates += ids.len() as u64;
            for id in ids {
                if let Some(doc) = source.fetch_elements(id, elements.as_deref()) {
                    let doc = [Value::Tree(doc)];
                    tab.push(if tagged {
                        batch_row(ordinal, doc)
                    } else {
                        doc.into()
                    });
                }
            }
        }
        self.report.put(IndexReport {
            collection: source.collection.clone(),
            probes: if indexed { probes } else { 0 },
            candidates,
            scanned: if indexed {
                candidates
            } else {
                collection_size * evaluations
            },
            collection_size: collection_size * evaluations,
            rows: tab.len() as u64,
            evaluations,
            scans: if indexed { 0 } else { evaluations },
        });
        self.record_storage(&source, storage_before);
        Response::Result(tab)
    }

    /// Files a [`StorageReport`] for work that just touched the source,
    /// when it is store-backed: `before` is the counter snapshot taken
    /// before the work, so the deltas cover exactly this request.
    fn record_storage(&self, source: &WaisSource, before: Option<yat_store::StoreStats>) {
        if let (Some(before), Some(store)) = (before, source.store()) {
            let after = store.stats();
            self.storage.put(StorageReport {
                collection: source.collection.clone(),
                segments: after.segments,
                resident: after.resident,
                loads: after.loads - before.loads,
                evictions: after.evictions - before.evictions,
                bytes_read: after.bytes_read - before.bytes_read,
            });
        }
    }
}

/// A `contains` needle: inline text, or the value passed for the
/// `.0`-th variable of the request's bindings.
enum Needle {
    Text(String),
    Passed(usize),
}

/// A pushed plan, checked against the declared capability.
struct Analyzed<'p> {
    /// The document variable.
    var: String,
    /// The conjunctive `contains` needles.
    needles: Vec<Needle>,
    /// The fields to ship, when the plan names an element set.
    elements: Option<Vec<&'p str>>,
}

/// Checks `plan` against the declared capability and returns the
/// document variable, the conjunctive needle list and the element set.
/// A needle operand that is one of the `passed` variables (and not
/// produced below its predicate — exactly where substitution would have
/// inlined the passed value) resolves per binding.
fn analyze<'p>(plan: &'p Alg, collection: &str, passed: &[String]) -> Result<Analyzed<'p>, String> {
    let mut needles: Vec<Needle> = Vec::new();
    let (mut cursor, elements) = match plan.element_set() {
        Some(set) => (set.input.as_ref(), Some((set.var, set.fields))),
        None => (plan, None),
    };
    loop {
        match cursor {
            Alg::Select { input, pred } => {
                let produced = input.out_vars().unwrap_or_default();
                for c in pred.conjuncts() {
                    let Pred::Call { name, args } = c else {
                        return Err(format!("predicate `{c}` is beyond Wais capabilities"));
                    };
                    if name != "contains" {
                        return Err(format!("predicate `{c}` is beyond Wais capabilities"));
                    }
                    let needle = match args.as_slice() {
                        [Operand::Var(_), Operand::Const(a)] => Some(Needle::Text(a.to_string())),
                        [Operand::Var(_), Operand::Var(v)] if !produced.contains(v) => {
                            passed.iter().position(|p| p == v).map(Needle::Passed)
                        }
                        _ => None,
                    };
                    needles.push(needle.ok_or("contains takes a document variable and a string")?);
                }
                cursor = input;
            }
            Alg::Bind {
                input,
                filter,
                over: None,
            } => {
                let Alg::Source { name, .. } = input.as_ref() else {
                    return Err("Bind must read the works collection".into());
                };
                if name != collection {
                    return Err(format!("no collection `{name}`"));
                }
                let Some(var) = doc_binding_var(filter, collection) else {
                    return Err(format!(
                        "filter `{filter}` exceeds Wais binding capabilities"
                    ));
                };
                let elements = match elements {
                    Some((doc, fields)) if doc == var => Some(fields),
                    Some((doc, _)) => {
                        return Err(format!(
                            "element set over `${doc}`, not the document `${var}`"
                        ))
                    }
                    None => None,
                };
                return Ok(Analyzed {
                    var,
                    needles,
                    elements,
                });
            }
            other => {
                return Err(format!(
                    "operator beyond Wais capabilities: {}",
                    other.describe()
                ))
            }
        }
    }
}

/// Checks the filter is within the declared capability — `works *$w`
/// (possibly with a structural `work` subpattern) — and returns the
/// document variable.
fn doc_binding_var(filter: &Pattern, collection: &str) -> Option<String> {
    let Pattern::Node {
        label: PLabel::Sym(root),
        edges,
    } = filter
    else {
        return None;
    };
    if root != collection || edges.len() != 1 {
        return None;
    }
    let edge = &edges[0];
    if edge.occ != Occ::Star {
        return None;
    }
    let (var, mode) = edge.star_var.as_ref()?;
    if *mode != StarBind::Iterate {
        return None;
    }
    match &edge.pattern {
        Pattern::Wildcard => Some(var.clone()),
        Pattern::Node {
            label: PLabel::Sym(s),
            edges,
        } if s == "work" && edges.is_empty() => Some(var.clone()),
        _ => None,
    }
}

impl WrapperServer for WaisWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::GetInterface => Response::Interface(self.interface()),
            Request::GetDocument { name } => {
                let source = self.source();
                if *name == source.collection {
                    let before = source.store().map(|s| s.stats());
                    let tree = source.document();
                    self.record_storage(&source, before);
                    Response::Document {
                        name: name.clone(),
                        tree,
                    }
                } else {
                    Response::Error(format!("no collection `{name}`"))
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
        self.source
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .register_epoch(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs::fig1_works;
    use yat_capability::matcher::pushable;
    use yat_yatl::parse_filter;

    fn wrapper() -> WaisWrapper {
        WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works()))
    }

    #[test]
    fn interface_matches_section_4_2() {
        let i = wrapper().interface();
        assert_eq!(i.name, "xmlartwork");
        assert!(i.export("works").is_some());
        assert!(i.operation("contains").is_some());
        assert_eq!(i.operation(ELEMENTS).unwrap().kind, OpKind::External);
        assert!(!i.supports_comparisons());
        assert_eq!(
            i.equivalences,
            vec![Equivalence::EqImpliesContains {
                predicate: "contains".into()
            }]
        );
        // wire round-trip
        let mut text = String::new();
        i.encode(&mut text);
        let back = Interface::decode(&text).unwrap();
        assert_eq!(i, back);
    }

    #[test]
    fn execute_contains_pushdown() {
        let w = wrapper();
        let plan = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Giverny")],
            },
        );
        pushable(&w.interface(), &plan).unwrap();
        match w.handle(&Request::Execute { plan }) {
            Response::Result(tab) => {
                assert_eq!(tab.columns(), &["w"]);
                assert_eq!(tab.len(), 1);
                let doc = tab.get(0, "w").unwrap().as_tree().unwrap();
                assert_eq!(
                    doc.child("title")
                        .unwrap()
                        .value_atom()
                        .unwrap()
                        .to_string(),
                    "Nympheas"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn element_sets_ship_only_the_named_fields_after_selection() {
        let w = wrapper();
        // `contains` reads the whole document: "Giverny" is in `cplace`,
        // which the element set does not ship
        let selected = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Giverny")],
            },
        );
        let plan = Alg::project_elements(selected.clone(), "w", ["title", "artist"]);
        pushable(&w.interface(), &plan).unwrap();
        let Response::Result(tab) = w.handle(&Request::Execute { plan: plan.clone() }) else {
            panic!("the element set is within capability")
        };
        assert_eq!(tab.columns(), &["w"]);
        let doc = tab.get(0, "w").unwrap().as_tree().unwrap();
        assert_eq!(
            doc.to_string(),
            "work[artist[\"Claude Monet\"], title[\"Nympheas\"]]"
        );
        // the reference evaluator computes the same table
        let Response::Result(whole) = w.handle(&Request::Execute { plan: selected }) else {
            panic!("plain fragment")
        };
        let stripped = yat_algebra::FnRegistry::with_builtins()
            .call(
                ELEMENTS,
                &[
                    whole.get(0, "w").unwrap().clone(),
                    Value::Atom("artist".into()),
                    Value::Atom("title".into()),
                ],
            )
            .unwrap();
        assert_eq!(tab.get(0, "w"), Some(&stripped));
        // an element set over another column is beyond Wais
        let Alg::Project { input: map, .. } = plan.as_ref() else {
            unreachable!()
        };
        let Alg::Map { input, .. } = map.as_ref() else {
            unreachable!()
        };
        let wrong = Alg::project_elements(input.clone(), "x", ["title"]);
        assert!(matches!(
            w.handle(&Request::Execute { plan: wrong }),
            Response::Error(_)
        ));
    }

    #[test]
    fn execute_multiple_contains_intersect() {
        let w = wrapper();
        let plan = Alg::select(
            Alg::select(
                Alg::bind(
                    Alg::source("works"),
                    parse_filter("works *$w: work").unwrap(),
                ),
                Pred::Call {
                    name: "contains".into(),
                    args: vec![Operand::var("w"), Operand::cst("Impressionist")],
                },
            ),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("canvas")],
            },
        );
        match w.handle(&Request::Execute { plan }) {
            Response::Result(tab) => assert_eq!(tab.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_without_predicates_scans() {
        let w = wrapper();
        let plan = Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap());
        match w.handle(&Request::Execute { plan }) {
            Response::Result(tab) => assert_eq!(tab.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_rejects_beyond_capability() {
        let w = wrapper();
        // decomposing filter
        let plan = Alg::bind(
            Alg::source("works"),
            parse_filter("works *work [ title: $t ]").unwrap(),
        );
        assert!(matches!(
            w.handle(&Request::Execute { plan }),
            Response::Error(_)
        ));
        // comparison predicate
        let plan = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::eq_const("w", "x"),
        );
        assert!(matches!(
            w.handle(&Request::Execute { plan }),
            Response::Error(_)
        ));
        // unknown collection
        let plan = Alg::bind(Alg::source("artifacts"), parse_filter("works *$w").unwrap());
        assert!(matches!(
            w.handle(&Request::Execute { plan }),
            Response::Error(_)
        ));
    }

    #[test]
    fn batches_answer_like_per_binding_executes() {
        use yat_capability::protocol::split_batch_result;
        use yat_model::Atom;
        // `contains($w, "Impressionist") ∧ contains($w, $x)`: one inline
        // needle, one passed per binding
        let plan = Alg::select(
            Alg::select(
                Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
                Pred::Call {
                    name: "contains".into(),
                    args: vec![Operand::var("w"), Operand::cst("Impressionist")],
                },
            ),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::var("x")],
            },
        );
        let bindings = Bindings {
            vars: vec!["x".into()],
            rows: ["Giverny", "Monet", "nowhere", "Giverny"]
                .iter()
                .map(|x| vec![Atom::Str(x.to_string())])
                .collect(),
        };
        for policy in [
            yat_capability::IndexPolicy::On,
            yat_capability::IndexPolicy::Off,
        ] {
            let w = WaisWrapper::new(
                "xmlartwork",
                WaisSource::new("works", &fig1_works()).with_index_policy(policy),
            );
            let Response::Result(tagged) = w.handle(&Request::ExecuteBatch {
                plan: plan.clone(),
                bindings: bindings.clone(),
            }) else {
                panic!("the batch runs under {policy:?}")
            };
            let r = w.take_index_report().unwrap();
            assert_eq!(r.evaluations, 4);
            assert_eq!(r.scans, if policy.is_on() { 0 } else { 4 });
            assert_eq!(r.collection_size, 4 * 2, "once per evaluation");
            let tabs = split_batch_result(tagged, 4).unwrap();
            assert_eq!(tabs.iter().map(Tab::len).collect::<Vec<_>>(), [1, 2, 0, 1]);
            for (row, tab) in bindings.rows.iter().zip(tabs) {
                let env = [("x".to_string(), Value::Atom(row[0].clone()))].into();
                let single = w.handle(&Request::Execute {
                    plan: yat_algebra::substitute_env(&plan, &env),
                });
                assert_eq!(
                    Response::Result(tab),
                    single,
                    "binding {row:?} under {policy:?}"
                );
            }
        }
        // under an element set the passed needles still probe whole
        // documents: the same rows, each cut to its title
        let w = wrapper();
        let titled = Alg::project_elements(plan.clone(), "w", ["title"]);
        let (Response::Result(whole), Response::Result(cut)) = (
            w.handle(&Request::ExecuteBatch {
                plan: plan.clone(),
                bindings: bindings.clone(),
            }),
            w.handle(&Request::ExecuteBatch {
                plan: titled,
                bindings: bindings.clone(),
            }),
        ) else {
            panic!("both batches run")
        };
        assert_eq!(whole.columns(), cut.columns());
        assert_eq!(whole.len(), cut.len());
        for (a, b) in whole.rows().zip(cut.rows()) {
            assert_eq!(a[0], b[0], "the binding ordinal");
            let (a, b) = (a[1].as_tree().unwrap(), b[1].as_tree().unwrap());
            assert_eq!(a.child("title"), b.child("title"));
            assert_eq!(b.children.len(), 1);
        }
        // a needle variable nobody passes is still beyond Wais, batch or not
        let w = wrapper();
        assert!(matches!(
            w.handle(&Request::ExecuteBatch {
                plan: plan.clone(),
                bindings: Bindings::unit(),
            }),
            Response::Error(_)
        ));
        assert!(matches!(
            w.handle(&Request::Execute { plan }),
            Response::Error(_)
        ));
    }

    #[test]
    fn execute_records_an_index_report() {
        let w = wrapper();
        let plan = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Giverny")],
            },
        );
        assert!(w.take_index_report().is_none(), "nothing executed yet");
        w.handle(&Request::Execute { plan });
        let r = w.take_index_report().unwrap();
        assert!(r.indexed());
        assert_eq!(r.collection, "works");
        assert_eq!(r.probes, 1);
        assert_eq!(r.candidates, 1);
        assert_eq!(r.scanned, 1, "only the posting-list hit was touched");
        assert_eq!(r.collection_size, 2);
        assert_eq!(r.rows, 1);
        assert!(w.take_index_report().is_none(), "a report is taken once");
    }

    #[test]
    fn concurrent_requests_each_take_their_own_index_report() {
        // two distinguishable `contains` probes against one shared
        // wrapper; each thread takes its report only after both handled
        let w = wrapper();
        let requests = ["Giverny", "Impressionist"].map(|needle| Request::Execute {
            plan: Alg::select(
                Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
                Pred::Call {
                    name: "contains".into(),
                    args: vec![Operand::var("w"), Operand::cst(needle)],
                },
            ),
        });
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
        let scan = WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &fig1_works()).with_index_policy(IndexPolicy::Off),
        );
        let indexed = wrapper();
        let plan = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Impressionist")],
            },
        );
        let a = indexed.handle(&Request::Execute { plan: plan.clone() });
        let b = scan.handle(&Request::Execute { plan });
        match (a, b) {
            (Response::Result(x), Response::Result(y)) => assert_eq!(x, y),
            other => panic!("{other:?}"),
        }
        let r = scan.take_index_report().unwrap();
        assert!(!r.indexed());
        assert_eq!(r.scanned, 2, "the scan path touched every document");
    }

    #[test]
    fn shared_source_mutations_bump_registered_epochs() {
        use std::sync::atomic::Ordering;
        let shared = Arc::new(RwLock::new(WaisSource::new("works", &fig1_works())));
        let w = WaisWrapper::new_shared("xmlartwork", shared.clone());
        let cell = Arc::new(AtomicU64::new(0));
        w.register_epoch(cell.clone());

        let extra = fig1_works().children[0].clone();
        shared.write().unwrap().add_document(extra);
        assert_eq!(cell.load(Ordering::SeqCst), 1, "mutation bumped the epoch");
        match w.handle(&Request::GetDocument {
            name: "works".into(),
        }) {
            Response::Document { tree, .. } => assert_eq!(tree.children.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_backed_wrapper_reports_storage_and_matches_oracle() {
        let dir = std::env::temp_dir().join(format!("yat-waiswrap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = WaisWrapper::new(
            "xmlartwork",
            WaisSource::open_store(
                "works",
                &fig1_works(),
                &dir,
                yat_store::StoreOptions::default(),
            )
            .unwrap(),
        );
        let oracle = wrapper();
        let plan = Alg::select(
            Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
            Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Giverny")],
            },
        );
        assert!(disk.take_storage_report().is_none(), "nothing executed yet");
        let a = disk.handle(&Request::Execute { plan: plan.clone() });
        let b = oracle.handle(&Request::Execute { plan });
        match (a, b) {
            (Response::Result(x), Response::Result(y)) => assert_eq!(x, y),
            other => panic!("{other:?}"),
        }
        let r = disk.take_storage_report().unwrap();
        assert_eq!(r.collection, "works");
        assert!(r.segments >= 1);
        assert!(disk.take_storage_report().is_none(), "taken once");
        assert!(
            oracle.take_storage_report().is_none(),
            "in-memory sources never report storage"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_document_returns_collection() {
        let w = wrapper();
        match w.handle(&Request::GetDocument {
            name: "works".into(),
        }) {
            Response::Document { tree, .. } => assert_eq!(tree.children.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn structure_instantiates_works() {
        // Fig. 3: the exported Artworks structure matches the data
        let w = wrapper();
        let model = w.structure();
        let doc = w.source().document();
        for work in &doc.children {
            assert!(
                yat_model::instantiate::is_instance(work, model.get("Work").unwrap(), Some(&model)),
                "{work} should instantiate Work"
            );
        }
    }
}
