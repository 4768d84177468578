//! End-to-end mediator tests: the full Fig. 2 setup, the Fig. 5/8/9
//! pipelines over real O2 and Wais wrappers, and naive-vs-optimized
//! equivalence.

use crate::executor::{ExecEngine, ExecMode};
use crate::mediator::Mediator;
use crate::optimizer::OptimizerOptions;
use crate::session::Session;
use crate::transport::Latency;
use std::sync::Arc;
use std::time::Duration;
use yat_algebra::{Alg, EvalOut};
use yat_cache::{CachePolicy, Signature};
use yat_model::{Label, Tree};
use yat_oql::art::{art_store, fig1_store, ArtSpec};
use yat_oql::O2Wrapper;
use yat_wais::{fig1_works, generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat_yatl::paper;

/// A mediator over the Fig. 1 data.
fn fig1_mediator() -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .unwrap();
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new("works", &fig1_works()),
    )))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m
}

/// A mediator over generated data.
fn generated_mediator(artifacts: usize, works: usize, seed: u64) -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts,
            persons: 10,
            seed,
        }),
    )))
    .unwrap();
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new(
            "works",
            &generate_works(&WorksSpec {
                works,
                impressionist_pct: 40,
                optional_pct: 60,
                giverny_pct: 30,
                seed,
            }),
        ),
    )))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m
}

fn tree_of(out: EvalOut) -> Tree {
    match out {
        EvalOut::Tree(t) => t,
        EvalOut::Tab(t) => panic!("expected a tree, got a Tab:\n{t}"),
    }
}

/// Sorted leaf strings of a result tree, ignoring Skolem identifiers
/// (fresh ids differ between plans by construction order).
fn result_fingerprint(t: &Tree) -> Vec<String> {
    fn walk(t: &Tree, out: &mut Vec<String>) {
        match &t.label {
            Label::Atom(a) => out.push(a.to_string()),
            Label::Sym(s) => out.push(format!("<{s}>")),
            Label::Oid(_) => out.push("<id>".into()),
            Label::Ref(_) => out.push("<ref>".into()),
        }
        for c in &t.children {
            walk(c, out);
        }
    }
    let mut v = Vec::new();
    walk(t, &mut v);
    v.sort();
    v
}

// ------------------------------------------------------------- plumbing

#[test]
fn connect_imports_interfaces_and_exports() {
    let m = fig1_mediator();
    assert_eq!(m.interfaces().len(), 2);
    assert_eq!(m.source_of("artifacts"), Some("o2artifact"));
    assert_eq!(m.source_of("persons"), Some("o2artifact"));
    assert_eq!(m.source_of("works"), Some("xmlartwork"));
    assert!(m.views().contains_key("artworks"));
    // the handshake itself was metered
    assert!(m.traffic().round_trips >= 2);
}

#[test]
fn duplicate_connections_and_views_rejected() {
    let mut m = fig1_mediator();
    let err = m
        .connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .unwrap_err();
    assert!(err.to_string().contains("already connected"), "{err}");
    let err = m.load_program(paper::VIEW1).unwrap_err();
    assert!(err.to_string().contains("already defined"), "{err}");
    let err = m
        .load_program("MAKE $t MATCH works WITH works *$t")
        .unwrap_err();
    assert!(err.to_string().contains("named rules"), "{err}");
}

#[test]
fn fig2_session_transcript() {
    let mut s = Session::start();
    s.connect(
        "logos.inria.fr",
        Box::new(O2Wrapper::new("o2artifact", fig1_store())),
    )
    .unwrap();
    s.connect(
        "sappho.ics.forth.gr",
        Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &fig1_works()),
        )),
    )
    .unwrap();
    s.load("/u/cluet/YAT/view1.yat", paper::VIEW1).unwrap();
    let t = s.transcript();
    assert!(t.contains("yat-mediator is running"), "{t}");
    assert!(t.contains("yat> connect o2artifact"), "{t}");
    assert!(t.contains("yat> import xmlartwork;"), "{t}");
    assert!(t.contains("defined view artworks()"), "{t}");
}

// --------------------------------------------------- the view (Fig. 5)

#[test]
fn view_materializes_integrated_artworks() {
    let m = fig1_mediator();
    let view = m.views()["artworks"].clone();
    let doc = tree_of(m.execute(&view).unwrap());
    assert_eq!(doc.label.as_sym(), Some("doc"));
    // both works match artifacts (year > 1800, same creator/title)
    assert_eq!(doc.children.len(), 2, "{doc}");
    // each artwork is Skolem-identified and merges both sources
    let first = &doc.children[0];
    assert!(matches!(&first.label, Label::Oid(o) if o.as_str().starts_with("artwork:")));
    let work = &first.children[0];
    assert_eq!(work.label.as_sym(), Some("work"));
    assert!(work.child("title").is_some());
    assert!(
        work.child("style").is_some(),
        "style comes from Wais: {work}"
    );
    assert!(work.child("price").is_some(), "price comes from O2: {work}");
    let owners = work.child("owners").unwrap();
    assert!(!owners.children.is_empty(), "owners come from O2: {work}");
}

// ------------------------------------------------------- Q1 (Fig. 8)

#[test]
fn q1_naive_equals_optimized() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q1).unwrap();

    let naive = tree_of(m.execute(&plan).unwrap());
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let optimized = tree_of(m.execute(&opt).unwrap());
    assert_eq!(result_fingerprint(&naive), result_fingerprint(&optimized));
    // Nympheas is the only Giverny work
    assert_eq!(result_fingerprint(&naive), vec!["Nympheas".to_string()]);
}

#[test]
fn q1_optimized_plan_shape_matches_fig8() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::full());
    let shown = opt.explain();
    // the O2 branch is gone (containment assumption)
    assert!(
        !shown.contains("artifacts"),
        "Fig. 8 eliminates the O2 source:\n{shown}"
    );
    // a single Tree remains (the query's), no view Tree
    assert_eq!(shown.matches("Tree").count(), 1, "{shown}");
    // contains was pushed to the Wais source
    assert!(shown.contains("contains"), "{shown}");
    assert!(shown.contains("Push → xmlartwork"), "{shown}");
    assert!(
        trace.count("bind-tree-elimination") >= 1,
        "{}",
        trace.render()
    );
    assert!(trace.count("prune") >= 1, "{}", trace.render());
}

#[test]
fn q1_optimized_transfers_less() {
    let m = generated_mediator(60, 60, 11);
    let plan = m.plan_query(paper::Q1).unwrap();

    m.reset_traffic();
    let _ = m.execute(&plan).unwrap();
    let naive = m.traffic();

    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    m.reset_traffic();
    let _ = m.execute(&opt).unwrap();
    let optimized = m.traffic();

    assert!(
        optimized.total_bytes() < naive.total_bytes() / 2,
        "optimized {} vs naive {}",
        optimized.total_bytes(),
        naive.total_bytes()
    );
    assert!(
        optimized.documents_received < naive.documents_received,
        "documents: optimized {} vs naive {}",
        optimized.documents_received,
        naive.documents_received
    );
    // the O2 source is not contacted at all
    assert_eq!(m.traffic_of("o2artifact").unwrap().round_trips, 0);
}

// ------------------------------------------------------- Q2 (Fig. 9)

#[test]
fn q2_naive_equals_optimized_fig1() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let naive = tree_of(m.execute(&plan).unwrap());
    // Q2 keeps both sources: no containment assumption is needed
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    let optimized = tree_of(m.execute(&opt).unwrap());
    assert_eq!(result_fingerprint(&naive), result_fingerprint(&optimized));
    // Nympheas sells at 150k ≤ 200k; Waterloo Bridge at 250k is out
    let fp = result_fingerprint(&naive);
    assert!(fp.contains(&"Nympheas".to_string()), "{fp:?}");
    assert!(!fp.contains(&"Waterloo Bridge".to_string()), "{fp:?}");
}

#[test]
fn q2_naive_equals_optimized_generated() {
    let m = generated_mediator(40, 40, 23);
    let plan = m.plan_query(paper::Q2).unwrap();
    let naive = tree_of(m.execute(&plan).unwrap());
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    let optimized = tree_of(m.execute(&opt).unwrap());
    assert_eq!(result_fingerprint(&naive), result_fingerprint(&optimized));
}

#[test]
fn q2_optimized_plan_shape_matches_fig9() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::default());
    let shown = opt.explain();
    // information passing: a DJoin with the O2 fragment pushed
    assert!(shown.contains("DJoin"), "{shown}");
    assert!(shown.contains("Push → o2artifact"), "{shown}");
    // the full-text capability is exploited
    assert!(shown.contains("contains($"), "{shown}");
    assert!(shown.contains("Push → xmlartwork"), "{shown}");
    // the compensation equality survives at the mediator
    assert!(shown.contains("$s = \"Impressionist\""), "{shown}");
    assert!(trace.count("join-to-djoin") == 1, "{}", trace.render());
    assert!(
        trace.count("contains-introduction") == 1,
        "{}",
        trace.render()
    );
    assert!(trace.count("capability-split") >= 1, "{}", trace.render());
}

#[test]
fn q2_optimized_transfers_less() {
    // Information passing costs one round trip per driving row, so its
    // benefit appears once the driving side is selective enough for the
    // per-request overhead to amortize — the crossover the fig9 bench
    // sweeps. 300 documents at 10% full-text selectivity is past it.
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts: 300,
            persons: 10,
            seed: 5,
        }),
    )))
    .unwrap();
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new(
            "works",
            &generate_works(&WorksSpec {
                works: 300,
                impressionist_pct: 10,
                optional_pct: 60,
                giverny_pct: 30,
                seed: 5,
            }),
        ),
    )))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    let plan = m.plan_query(paper::Q2).unwrap();

    m.reset_traffic();
    let naive_result = tree_of(m.execute(&plan).unwrap());
    let naive = m.traffic();

    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    m.reset_traffic();
    let optimized_result = tree_of(m.execute(&opt).unwrap());
    let optimized = m.traffic();

    assert_eq!(
        result_fingerprint(&naive_result),
        result_fingerprint(&optimized_result)
    );
    assert!(
        optimized.total_bytes() < naive.total_bytes(),
        "optimized {} vs naive {}",
        optimized.total_bytes(),
        naive.total_bytes()
    );
    assert!(optimized.documents_received < naive.documents_received);
}

// ---------------------------------------------------- EXPLAIN ANALYZE

#[test]
fn explain_q1_capability_shows_pushed_wais_fragment() {
    let mut m = fig1_mediator();
    // this test pins the *sequential* profile shape (the rpc nests under
    // the Push operator); the parallel shape has its own golden tests
    m.set_exec_mode(ExecMode::Sequential);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::full());
    let ex = m.explain_with_trace(&opt, Some(trace)).unwrap();

    // the query result rode along
    assert_eq!(ex.rows, 1);
    assert_eq!(
        result_fingerprint(&tree_of(ex.output.clone())),
        vec!["Nympheas".to_string()]
    );

    // the pushed fragment's row carries its measured wire cost:
    // one execute round trip to the Wais wrapper, real bytes, documents
    let push = ex
        .find("Push → xmlartwork")
        .expect("profile has the pushed Wais fragment");
    assert_eq!(push.round_trips, 1, "one shipped execute");
    assert!(push.bytes_sent > 0, "request bytes measured");
    assert!(push.bytes_received > 0, "response bytes measured");
    assert!(push.documents >= 1, "result rows counted");
    assert!(ex.find("execute @xmlartwork").is_some());

    // Fig. 8: the O2 branch was eliminated, so O2 sees zero round trips
    assert!(
        !ex.traffic.contains_key("o2artifact"),
        "o2artifact must not be contacted: {:?}",
        ex.traffic
    );
    assert!(ex.traffic["xmlartwork"].round_trips >= 1);

    // the rendered profile is the same story in text form
    let text = ex.render();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("Push → xmlartwork"), "{text}");
    assert!(text.contains("xmlartwork:"), "{text}");
    assert!(!text.contains("o2artifact:"), "{text}");

    // and the XML form parses back as a document
    let xml = ex.to_xml().to_xml();
    let parsed = yat_xml::parse_element(&xml).unwrap();
    assert_eq!(parsed.name, "explain");
    assert_eq!(parsed.attr("rows"), Some("1"));
    assert!(parsed.child("profile").is_some());
    assert!(parsed.child("traffic").is_some());
}

#[test]
fn explain_profile_rollup_matches_meters() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    let ex = m.explain(&opt).unwrap();

    // the inclusive transport rollup at the profile roots accounts for
    // exactly the traffic the meters saw during this execution
    let total = ex.total_traffic();
    let rolled_sent: u64 = ex.profile.iter().map(|n| n.bytes_sent).sum();
    let rolled_recv: u64 = ex.profile.iter().map(|n| n.bytes_received).sum();
    let rolled_trips: u64 = ex.profile.iter().map(|n| n.round_trips).sum();
    assert_eq!(rolled_sent, total.bytes_sent);
    assert_eq!(rolled_recv, total.bytes_received);
    assert_eq!(rolled_trips, total.round_trips);
    assert!(total.round_trips > 0);

    // Q2's information passing is visible: the pushed O2 fragment ran
    // once per driving row, each execution a round trip
    let push = ex.find("Push → o2artifact").unwrap();
    assert_eq!(push.calls, push.round_trips);
    assert!(push.calls >= 1);

    // explaining does not disturb the result
    assert_eq!(
        result_fingerprint(&tree_of(ex.output)),
        result_fingerprint(&tree_of(m.execute(&opt).unwrap()))
    );
}

#[test]
fn explain_query_attaches_the_derivation() {
    let m = fig1_mediator();
    let ex = m
        .explain_query(paper::Q1, OptimizerOptions::full())
        .unwrap();
    let trace = ex.trace.as_ref().expect("explain_query records the trace");
    assert!(!trace.firings.is_empty());
    // firings carry real before/after snapshots
    let f = &trace.firings[0];
    assert!(f.nodes_before > 0 && f.nodes_after > 0);
    assert!(f.before.contains("Tree"), "{}", f.before);
    let derivation = trace.render_derivation();
    assert!(derivation.contains("round 1:"), "{derivation}");
    assert!(derivation.contains("nodes)"), "{derivation}");
    assert!(ex.render().contains("optimizer:"), "{}", ex.render());
}

#[test]
fn session_explain_logs_the_profile() {
    let mut s = Session::start();
    s.connect(
        "logos.inria.fr",
        Box::new(O2Wrapper::new("o2artifact", fig1_store())),
    )
    .unwrap();
    s.connect(
        "sappho.ics.forth.gr",
        Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &fig1_works()),
        )),
    )
    .unwrap();
    s.load("/u/cluet/YAT/view1.yat", paper::VIEW1).unwrap();
    s.explain(paper::Q1, OptimizerOptions::full()).unwrap();
    let t = s.transcript();
    assert!(t.contains("yat> explain"), "{t}");
    assert!(t.contains("EXPLAIN ANALYZE"), "{t}");
    assert!(t.contains("Push → xmlartwork"), "{t}");
}

// -------------------------------------------------------- odds and ends

#[test]
fn direct_source_queries_work() {
    let m = fig1_mediator();
    // querying an exported document directly, no view involved
    let out = m
        .query(
            "MAKE titles *($t) := t [ $t ] MATCH works WITH works *work [ title: $t ]",
            OptimizerOptions::default(),
        )
        .unwrap();
    let t = tree_of(out);
    assert_eq!(t.children.len(), 2);
}

#[test]
fn unknown_documents_error() {
    let m = fig1_mediator();
    let plan: Arc<Alg> = m.plan_query("MAKE $t MATCH nothing WITH n *$t").unwrap();
    let err = m.execute(&plan).unwrap_err();
    assert!(err.to_string().contains("nothing"), "{err}");
}

#[test]
fn optimizer_naive_options_are_identity() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q1).unwrap();
    let (same, trace) = m.optimize(&plan, OptimizerOptions::naive());
    assert_eq!(plan, same);
    assert!(trace.steps.is_empty());
}

#[test]
fn ablation_no_type_info_keeps_structural_edges() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let with_types = m.optimize(&plan, OptimizerOptions::default()).0.explain();
    let without_types = m
        .optimize(
            &plan,
            OptimizerOptions {
                use_type_info: false,
                ..Default::default()
            },
        )
        .0
        .explain();
    // with type info the unused mandatory edges (size, owners…) vanish
    // from the filters; without it they must stay as wildcards
    assert!(
        without_types.len() >= with_types.len(),
        "typed plan should not be larger"
    );
}

#[test]
fn compensated_contains_when_not_pushable() {
    // a contains over O2-bound data cannot be pushed; the mediator's
    // builtin evaluates it locally
    let m = fig1_mediator();
    let out = m
        .query(
            "MAKE names *($c) := n [ $c ] \
             MATCH artifacts WITH set *$x: class: artifact: tuple [ creator: $c ] \
             WHERE contains($x, \"Monet\") AND contains($x, \"1897\")",
            OptimizerOptions::default(),
        )
        .unwrap();
    let t = tree_of(out);
    assert_eq!(t.children.len(), 1, "only a1 mentions 1897: {t}");
    assert!(t.to_string().contains("Claude Monet"), "{t}");

    let out = m
        .query(
            "MAKE hits *($t) := hit [ $t ] \
             MATCH artifacts WITH set *class: artifact: tuple [ title: $t ], \
                   works WITH works *$w \
             WHERE contains($w, \"Giverny\") AND contains($w, $t)",
            OptimizerOptions::default(),
        )
        .unwrap();
    let t = tree_of(out);
    assert_eq!(t.children.len(), 1, "only Nympheas painted at Giverny: {t}");
}

// ------------------------------------------- parallel scatter/gather

use yat_capability::protocol::{Request, Response, WrapperServer};

/// A wrapper that forwards to `inner` but panics on one request kind —
/// the "source process crashed mid-call" fault.
struct PanicOn {
    inner: Box<dyn WrapperServer>,
    kind: &'static str,
}

impl WrapperServer for PanicOn {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(&self, request: &Request) -> Response {
        if request.kind() == self.kind {
            panic!("injected fault");
        }
        self.inner.handle(request)
    }
}

fn wais_fig1() -> WaisWrapper {
    WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works()))
}

#[test]
fn parallel_execution_matches_sequential() {
    let mut m = fig1_mediator();
    for (query, options) in [
        (paper::Q1, OptimizerOptions::full()),
        (paper::Q1, OptimizerOptions::default()),
        (paper::Q2, OptimizerOptions::default()),
        (paper::Q2, OptimizerOptions::full()),
    ] {
        let plan = m.plan_query(query).unwrap();
        let (opt, _) = m.optimize(&plan, options);

        m.set_exec_mode(ExecMode::Sequential);
        let before = m.traffic();
        let seq = m.execute(&opt);
        let seq_traffic = m.traffic() - before;

        m.set_exec_mode(ExecMode::parallel());
        let before = m.traffic();
        let par = m.execute(&opt);
        let par_traffic = m.traffic() - before;

        match (seq, par) {
            (Ok(seq), Ok(par)) => {
                assert_eq!(seq, par, "results must be mode-independent");
                assert_eq!(seq_traffic, par_traffic, "and so must the wire traffic");
            }
            // some (query, options) pairs ship a fragment the wrapper
            // rejects — then both modes must reject it
            (Err(seq), Err(par)) => {
                let (seq, par) = (seq.to_string(), par.to_string());
                assert_eq!(
                    seq.contains("o2artifact"),
                    par.contains("o2artifact"),
                    "{seq} vs {par}"
                );
            }
            (seq, par) => panic!("modes disagree: {seq:?} vs {par:?}"),
        }
    }
}

#[test]
fn parallel_wrapper_panic_fails_the_query_naming_the_source() {
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .unwrap();
    m.connect(Box::new(PanicOn {
        inner: Box::new(wais_fig1()),
        kind: "execute",
    }))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m.set_exec_mode(ExecMode::parallel());
    let wais_before = m.traffic_of("xmlartwork").unwrap();

    // Q1 at full optimization is a single pushed Wais fragment: the
    // scatter job's round trip hits the panicking handler
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let err = m.execute(&opt).unwrap_err().to_string();
    assert!(
        err.contains("xmlartwork") && err.contains("panicked"),
        "error must name the crashed source: {err}"
    );

    // no hang (we got here), no poisoned meter, nothing counted for the
    // trip that never answered
    assert_eq!(m.traffic_of("xmlartwork").unwrap(), wais_before);

    // the mediator is still serviceable for plans avoiding the source
    let out = m
        .query(
            "MAKE names *($n) := n [ $n ] MATCH persons WITH set *class: person: tuple [ name: $n ]",
            OptimizerOptions::naive(),
        )
        .unwrap();
    assert_eq!(tree_of(out).children.len(), 3);
}

#[test]
fn parallel_prefetch_panic_fails_the_query_naming_the_source() {
    let mut m = Mediator::new();
    m.connect(Box::new(PanicOn {
        inner: Box::new(O2Wrapper::new("o2artifact", fig1_store())),
        kind: "get-document",
    }))
    .unwrap();
    m.connect(Box::new(wais_fig1())).unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m.set_exec_mode(ExecMode::parallel());

    // the naive Q1 plan prefetches artifacts/persons from O2 — that
    // fetch job dies on the injected panic
    let plan = m.plan_query(paper::Q1).unwrap();
    let err = m.execute(&plan).unwrap_err().to_string();
    assert!(
        err.contains("o2artifact") && err.contains("panicked"),
        "error must name the crashed source: {err}"
    );
}

#[test]
fn parallel_timeout_fails_the_query_naming_the_source() {
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::parallel());
    let conn = m.connection("xmlartwork").unwrap();
    conn.set_latency(Some(Latency::fixed(Duration::from_millis(60))));
    conn.set_timeout(Some(Duration::from_millis(2)));
    let before = m.traffic_of("xmlartwork").unwrap();

    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let err = m.execute(&opt).unwrap_err().to_string();
    assert!(
        err.contains("xmlartwork") && err.contains("timed out"),
        "{err}"
    );
    assert_eq!(m.traffic_of("xmlartwork").unwrap(), before);

    // lifting the deadline restores service and the meter resumes
    let conn = m.connection("xmlartwork").unwrap();
    conn.set_latency(None);
    conn.set_timeout(None);
    let out = m.execute(&opt).unwrap();
    assert_eq!(
        result_fingerprint(&tree_of(out)),
        vec!["Nympheas".to_string()]
    );
    assert!(m.traffic_of("xmlartwork").unwrap().round_trips > before.round_trips);
}

#[test]
fn parallel_malformed_response_fails_the_query_cleanly() {
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::parallel());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let before = m.traffic_of("xmlartwork").unwrap();

    m.connection("xmlartwork")
        .unwrap()
        .inject_fault(crate::transport::Fault::CorruptResponse);
    let err = m.execute(&opt).unwrap_err().to_string();
    assert!(
        err.contains("xmlartwork") && err.contains("did not survive the wire"),
        "{err}"
    );
    assert_eq!(
        m.traffic_of("xmlartwork").unwrap(),
        before,
        "meter untouched"
    );

    // the one-shot fault is consumed; the same plan now runs fine
    let out = m.execute(&opt).unwrap();
    assert_eq!(
        result_fingerprint(&tree_of(out)),
        vec!["Nympheas".to_string()]
    );
}

#[test]
fn parallel_profile_rollup_matches_meter_deltas_across_threads() {
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::parallel());
    // Q2 at the capability level has two *independent* pushed fragments
    // (O2 and Wais), so its rpc spans genuinely come from two threads
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, _) = m.optimize(
        &plan,
        OptimizerOptions {
            info_passing: false,
            ..OptimizerOptions::default()
        },
    );
    let before: std::collections::BTreeMap<String, crate::transport::MeterSnapshot> =
        ["o2artifact", "xmlartwork"]
            .iter()
            .map(|s| (s.to_string(), m.traffic_of(s).unwrap()))
            .collect();
    let ex = m.explain(&opt).unwrap();
    assert!(
        ex.lanes.len() >= 2,
        "expected a real scatter: {:?}",
        ex.lanes
    );

    // span-derived traffic == meter deltas, per source
    for (source, b) in &before {
        let delta = m.traffic_of(source).unwrap() - *b;
        let reported = ex.traffic.get(source).copied().unwrap_or_default();
        assert_eq!(reported, delta, "traffic for {source}");
    }
    // and the profile rollup still accounts for every byte even though
    // the spans were recorded from multiple worker threads
    let total = ex.total_traffic();
    assert_eq!(
        ex.profile.iter().map(|n| n.bytes_sent).sum::<u64>(),
        total.bytes_sent
    );
    assert_eq!(
        ex.profile.iter().map(|n| n.bytes_received).sum::<u64>(),
        total.bytes_received
    );
    assert_eq!(
        ex.profile.iter().map(|n| n.round_trips).sum::<u64>(),
        total.round_trips
    );
    assert!(total.round_trips >= 2);
}

#[test]
fn concurrent_queries_do_not_interleave_meters_or_oids() {
    // solo baselines, each on its own mediator
    let solo = |query: &str, options: OptimizerOptions| {
        let mut m = fig1_mediator();
        m.set_exec_mode(ExecMode::parallel());
        let ex = m.explain_query(query, options).unwrap();
        (ex.output, ex.traffic)
    };
    let (q1_out, q1_traffic) = solo(paper::Q1, OptimizerOptions::full());
    let (q2_out, q2_traffic) = solo(paper::Q2, OptimizerOptions::default());

    // now both queries at once, on one shared mediator
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::parallel());
    let m = &m;
    let (r1, r2) = std::thread::scope(|s| {
        let t1 = s.spawn(move || {
            m.explain_query(paper::Q1, OptimizerOptions::full())
                .unwrap()
        });
        let t2 = s.spawn(move || {
            m.explain_query(paper::Q2, OptimizerOptions::default())
                .unwrap()
        });
        (t1.join().unwrap(), t2.join().unwrap())
    });

    // per-query traffic reports match the solo runs exactly — span-based
    // accounting keeps the other query's bytes out
    assert_eq!(r1.traffic, q1_traffic);
    assert_eq!(r2.traffic, q2_traffic);
    // outputs — *including Skolem OIDs* — are what the solo runs minted:
    // content-derived identifiers make interleaving irrelevant
    assert_eq!(r1.output, q1_out);
    assert_eq!(r2.output, q2_out);
}

#[test]
fn session_logs_exec_mode_and_scatter_report() {
    let mut s = Session::start();
    s.connect(
        "logos.inria.fr",
        Box::new(O2Wrapper::new("o2artifact", fig1_store())),
    )
    .unwrap();
    s.connect("sappho.ics.forth.gr", Box::new(wais_fig1()))
        .unwrap();
    s.load("/u/cluet/YAT/view1.yat", paper::VIEW1).unwrap();
    s.set_exec_mode(ExecMode::Parallel { max_in_flight: 2 });
    s.explain(paper::Q1, OptimizerOptions::full()).unwrap();
    let t = s.transcript();
    assert!(t.contains("yat> set execution parallel(2);"), "{t}");
    assert!(t.contains("execution: parallel(2)"), "{t}");
    assert!(t.contains("scatter: 1 jobs on 1 lanes"), "{t}");
    assert!(t.contains("lane 0: push @xmlartwork"), "{t}");
}

/// Replaces duration tokens (`13.4µs`, `2ms`, …) with `_` so wall-time
/// noise does not break golden comparisons.
fn scrub_durations(text: &str) -> String {
    let mut out = String::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let rest = &text[i..];
            let unit = ["ns", "µs", "ms", "s"].iter().find(|u| {
                rest.starts_with(**u)
                    && !rest[u.len()..].starts_with(|c: char| c.is_ascii_alphanumeric())
            });
            match unit {
                Some(u) => {
                    out.push('_');
                    i += u.len();
                }
                None => out.push_str(&text[start..i]),
            }
        } else {
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

#[test]
#[ignore = "regenerates the explain goldens; run by hand"]
fn regen_explain_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/testdata");
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::Parallel { max_in_flight: 2 });
    m.set_cache_policy(CachePolicy::Off);
    m.set_exec_engine(ExecEngine::Interp);
    for (query, options, stem) in [
        (paper::Q1, OptimizerOptions::full(), "q1_parallel"),
        (paper::Q2, OptimizerOptions::default(), "q2_parallel"),
    ] {
        let plan = m.plan_query(query).unwrap();
        let (opt, _) = m.optimize(&plan, options);
        let ex = m.explain(&opt).unwrap();
        std::fs::write(format!("{dir}/{stem}.txt"), scrub_durations(&ex.render())).unwrap();
        std::fs::write(
            format!("{dir}/{stem}.xml"),
            scrub_durations(&ex.to_xml().to_pretty_xml()),
        )
        .unwrap();
    }
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::Parallel { max_in_flight: 2 });
    m.set_cache_policy(CachePolicy::bounded());
    m.set_exec_engine(ExecEngine::Interp);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    m.execute(&opt).unwrap();
    let ex = m.explain(&opt).unwrap();
    std::fs::write(
        format!("{dir}/q1_cached.txt"),
        scrub_durations(&ex.render()),
    )
    .unwrap();
    std::fs::write(
        format!("{dir}/q1_cached.xml"),
        scrub_durations(&ex.to_xml().to_pretty_xml()),
    )
    .unwrap();
}

#[test]
fn golden_explain_analyze_under_parallel_mode() {
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::Parallel { max_in_flight: 2 });
    for (query, options, text_golden, xml_golden) in [
        (
            paper::Q1,
            OptimizerOptions::full(),
            include_str!("testdata/q1_parallel.txt"),
            include_str!("testdata/q1_parallel.xml"),
        ),
        (
            paper::Q2,
            OptimizerOptions::default(),
            include_str!("testdata/q2_parallel.txt"),
            include_str!("testdata/q2_parallel.xml"),
        ),
    ] {
        let plan = m.plan_query(query).unwrap();
        let (opt, _) = m.optimize(&plan, options);
        let ex = m.explain(&opt).unwrap();
        assert_eq!(
            scrub_durations(&ex.render()),
            text_golden,
            "text golden for {query}"
        );
        assert_eq!(
            scrub_durations(&ex.to_xml().to_pretty_xml()),
            xml_golden,
            "xml golden for {query}"
        );
        // the XML stays a well-formed, parseable document
        let parsed = yat_xml::parse_element(&ex.to_xml().to_xml()).unwrap();
        assert_eq!(parsed.attr("mode"), Some("parallel(2)"));
        assert!(parsed.child("scatter").is_some());
    }
}

// ------------------------------------------- cross-query answer cache

#[test]
fn warm_cache_removes_repeat_traffic_in_both_modes() {
    for mode in [ExecMode::Sequential, ExecMode::parallel()] {
        let mut m = fig1_mediator();
        m.set_exec_mode(mode);
        for (query, options) in [
            (paper::Q1, OptimizerOptions::full()),
            (paper::Q2, OptimizerOptions::default()),
        ] {
            let plan = m.plan_query(query).unwrap();
            let (opt, _) = m.optimize(&plan, options);

            // baseline without caching
            m.set_cache_policy(CachePolicy::Off);
            let before = m.traffic();
            let base = m.execute(&opt).unwrap();
            let base_traffic = m.traffic() - before;
            assert!(base_traffic.round_trips > 0);

            // cold: the cache is fresh, every trip still goes out
            m.set_cache_policy(CachePolicy::bounded());
            let before = m.traffic();
            let cold = m.execute(&opt).unwrap();
            let cold_traffic = m.traffic() - before;
            assert_eq!(base, cold, "caching must not change results ({mode})");
            assert_eq!(
                cold_traffic, base_traffic,
                "a cold cache ships exactly the uncached traffic ({mode})"
            );

            // warm: every fetch and push — dependent ones included — is
            // answered from memory
            let before = m.traffic();
            let warm = m.execute(&opt).unwrap();
            let warm_traffic = m.traffic() - before;
            assert_eq!(base, warm, "a warm cache must not change results ({mode})");
            assert_eq!(
                warm_traffic.round_trips, 0,
                "warm {query} under {mode} still shipped {warm_traffic:?}"
            );
            let stats = m.cache_stats();
            assert!(stats.hits > 0 && stats.bytes_saved > 0, "{stats:?}");
        }
    }
}

#[test]
fn epoch_bump_forces_reload_and_restores_caching() {
    let mut m = fig1_mediator();
    m.set_cache_policy(CachePolicy::bounded());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());

    let cold = m.execute(&opt).unwrap();
    let before = m.traffic();
    assert_eq!(m.execute(&opt).unwrap(), cold);
    assert_eq!((m.traffic() - before).round_trips, 0, "warm");

    // the source announces new data: cached answers stop being served
    assert_eq!(m.bump_source_epoch("xmlartwork"), Some(1));
    let before = m.traffic();
    assert_eq!(m.execute(&opt).unwrap(), cold);
    assert!(
        (m.traffic() - before).round_trips > 0,
        "the bump must force a re-ship"
    );

    // and the refetched answer is cached under the new epoch
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!((m.traffic() - before).round_trips, 0, "warm again");
    assert_eq!(m.bump_source_epoch("no-such-source"), None);
}

#[test]
fn negative_caching_remembers_empty_results() {
    let mut m = fig1_mediator();
    m.set_cache_policy(CachePolicy::bounded());
    // nothing was created at Nowhere: the pushed fragment selects nothing
    let nowhere = r#"
MAKE $t
MATCH artworks WITH doc.work.[ title.$t, more.cplace.$cl ]
WHERE $cl = "Nowhere"
"#;
    let plan = m.plan_query(nowhere).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let cold = m.execute(&opt).unwrap();
    assert_eq!(tree_of(cold).children.len(), 0);
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!(
        (m.traffic() - before).round_trips,
        0,
        "the empty answer is served from the negative entry"
    );
}

#[test]
fn failed_round_trips_never_poison_the_cache() {
    use crate::transport::Fault;

    // a timeout mid-query leaves no partial entries behind
    let mut m = fig1_mediator();
    m.set_cache_policy(CachePolicy::bounded());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let wais = m.connection("xmlartwork").unwrap();
    wais.set_latency(Some(Latency::fixed(Duration::from_millis(30))));
    wais.set_timeout(Some(Duration::from_millis(1)));
    m.execute(&opt).unwrap_err();
    assert!(m.cache().is_empty(), "no entry for a trip that timed out");

    // lifting the timeout lets the query (and the cache) work again
    let wais = m.connection("xmlartwork").unwrap();
    wais.set_latency(None);
    wais.set_timeout(None);
    let out = m.execute(&opt).unwrap();
    assert_eq!(m.cache().len(), 1);

    // a corrupted response is discarded before it can be stored
    m.cache().clear();
    m.connection("xmlartwork")
        .unwrap()
        .inject_fault(Fault::CorruptResponse);
    m.execute(&opt).unwrap_err();
    assert!(m.cache().is_empty(), "no entry for a corrupted response");

    // a wrapper panic mid-parallel-run likewise stores nothing
    let mut crashing = Mediator::new();
    crashing
        .connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .unwrap();
    crashing
        .connect(Box::new(PanicOn {
            inner: Box::new(wais_fig1()),
            kind: "execute",
        }))
        .unwrap();
    crashing.load_program(paper::VIEW1).unwrap();
    crashing.set_exec_mode(ExecMode::parallel());
    crashing.set_cache_policy(CachePolicy::bounded());
    crashing.execute(&opt).unwrap_err();
    assert!(
        crashing.cache().is_empty(),
        "no entry from the crashed push"
    );

    // the healthy mediator still answers, and re-warms
    assert_eq!(m.execute(&opt).unwrap(), out);
    assert_eq!(m.cache().len(), 1);
}

/// A wrapper that forwards to `inner` but bumps an epoch cell whenever
/// it handles one request kind — models a source whose *handling* of a
/// query coincides with a data change another source observes.
struct BumpOn {
    inner: Box<dyn WrapperServer>,
    kind: &'static str,
    epoch: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl WrapperServer for BumpOn {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(&self, request: &Request) -> Response {
        if request.kind() == self.kind {
            self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        self.inner.handle(request)
    }
}

#[test]
fn epoch_bump_during_a_parallel_run_is_seen_by_later_jobs() {
    // o2artifact's epoch bumps every time the wais wrapper handles an
    // `execute` — i.e. *mid-run*, after scheduling but before the
    // DJoin-dependent o2 pushes evaluate. Those later lookups must see
    // the live epoch and refuse the (now stale) o2 entries; an executor
    // that snapshotted epochs at run start would serve them.
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new("o2artifact", fig1_store())))
        .unwrap();
    let o2_epoch = m.connection("o2artifact").unwrap().epoch_cell();
    m.connect(Box::new(BumpOn {
        inner: Box::new(wais_fig1()),
        kind: "execute",
        epoch: o2_epoch,
    }))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m.set_exec_mode(ExecMode::parallel());
    m.set_cache_policy(CachePolicy::bounded());

    // Q2 at the capability level: one independent wais push, then the
    // dependent o2 push — one batch carrying a binding per row of its
    // result
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    let o2_before = m.traffic_of("o2artifact").unwrap();
    let cold = m.execute(&opt).unwrap();
    let cold_o2 = m.traffic_of("o2artifact").unwrap() - o2_before;
    assert_eq!(
        cold_o2.round_trips, 1,
        "both bindings shipped cold, together"
    );

    // force the wais fragment back to the wire: its round trip bumps
    // o2's epoch while this very execution is in flight
    m.bump_source_epoch("xmlartwork").unwrap();
    let wais_before = m.traffic_of("xmlartwork").unwrap();
    let o2_before = m.traffic_of("o2artifact").unwrap();
    let rerun = m.execute(&opt).unwrap();
    assert_eq!(rerun, cold);
    assert_eq!(
        m.traffic_of("xmlartwork").unwrap().round_trips,
        wais_before.round_trips + 1,
        "the stale wais fragment re-shipped"
    );
    // the same two-binding batch goes out again, byte for byte: a
    // stale hit on either binding would have shrunk the request
    let rerun_o2 = m.traffic_of("o2artifact").unwrap() - o2_before;
    assert_eq!(
        (rerun_o2.round_trips, rerun_o2.bytes_sent),
        (1, cold_o2.bytes_sent),
        "the mid-run bump stops both stale o2 answers"
    );
}

#[test]
fn executor_memo_and_cache_share_one_signature_scheme() {
    // two structurally identical fragments against the same source get
    // one signature (content addressing), a differently-bound fragment
    // another — the property both the scatter memo and the cross-query
    // cache key on
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    let (opt2, _) = m.optimize(&plan, OptimizerOptions::full());
    assert!(!Arc::ptr_eq(&opt, &opt2), "distinct nodes");
    assert_eq!(
        Signature::execute("xmlartwork", &opt),
        Signature::execute("xmlartwork", &opt2),
        "identical wire form, identical signature"
    );
    assert_ne!(
        Signature::execute("xmlartwork", &opt),
        Signature::execute("elsewhere", &opt),
    );
    // a document fetch can never collide with a push
    assert_ne!(
        Signature::execute("xmlartwork", &opt).as_u64(),
        Signature::document("xmlartwork", "works").as_u64()
    );
}

#[test]
fn session_logs_the_cache_policy() {
    let mut s = Session::start();
    s.connect("cosmos.inria.fr", Box::new(wais_fig1())).unwrap();
    s.set_cache_policy(CachePolicy::bounded());
    assert!(
        s.transcript()
            .contains("yat> set cache bounded(67108864B, ttl 1);"),
        "{}",
        s.transcript()
    );
    assert_eq!(s.mediator().cache_policy(), CachePolicy::bounded());
}

#[test]
fn explain_reports_cache_activity() {
    let mut m = fig1_mediator();
    m.set_cache_policy(CachePolicy::bounded());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());

    let cold = m.explain(&opt).unwrap();
    let line = cold.cache["xmlartwork"];
    assert_eq!((line.hits, line.misses), (0, 1));
    assert!(
        cold.render().contains("0 hits, 1 misses"),
        "{}",
        cold.render()
    );

    let warm = m.explain(&opt).unwrap();
    let line = warm.cache["xmlartwork"];
    assert_eq!((line.hits, line.misses), (1, 0));
    assert!(line.bytes_saved > 0);
    assert!(warm.traffic.is_empty(), "nothing crossed the wire");
    let totals = warm.cache_totals();
    assert_eq!((totals.hits, totals.bytes_saved), (1, line.bytes_saved));
    // the text render carries the cache section, the XML a cache element
    let text = warm.render();
    assert!(text.contains("cache: bounded("), "{text}");
    assert!(text.contains("B saved"), "{text}");
    let xml = warm.to_xml();
    let cache_el = xml.child("cache").expect("cache element");
    assert_eq!(
        cache_el
            .children_named("source")
            .next()
            .unwrap()
            .attr("hits"),
        Some("1")
    );

    // with the cache off the report stays exactly as before
    m.set_cache_policy(CachePolicy::Off);
    let off = m.explain(&opt).unwrap();
    assert!(off.cache.is_empty());
    assert!(!off.render().contains("cache:"), "{}", off.render());
    assert!(off.to_xml().child("cache").is_none());
}

#[test]
fn golden_explain_analyze_with_a_warm_cache() {
    let mut m = fig1_mediator();
    m.set_exec_mode(ExecMode::Parallel { max_in_flight: 2 });
    m.set_cache_policy(CachePolicy::bounded());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    m.execute(&opt).unwrap(); // warm the cache

    let ex = m.explain(&opt).unwrap();
    assert_eq!(
        scrub_durations(&ex.render()),
        include_str!("testdata/q1_cached.txt"),
        "text golden"
    );
    assert_eq!(
        scrub_durations(&ex.to_xml().to_pretty_xml()),
        include_str!("testdata/q1_cached.xml"),
        "xml golden"
    );
    let parsed = yat_xml::parse_element(&ex.to_xml().to_xml()).unwrap();
    let cache = parsed.child("cache").expect("cache element");
    assert_eq!(cache.attr("policy"), Some("bounded(67108864B, ttl 1)"));
}

// ---------------------------------------------------------------- VM engine

#[test]
fn vm_engine_matches_the_interpreter_end_to_end() {
    for (query, options) in [
        (paper::Q1, OptimizerOptions::naive()),
        (paper::Q1, OptimizerOptions::default()),
        (paper::Q1, OptimizerOptions::full()),
        (paper::Q2, OptimizerOptions::default()),
        (paper::Q2, OptimizerOptions::full()),
    ] {
        let mut m = fig1_mediator();
        let plan = m.plan_query(query).unwrap();
        let (opt, _) = m.optimize(&plan, options);

        m.reset_traffic(); // drop the connect/import handshake traffic
        let interp = m.execute(&opt);
        let interp_traffic = m.traffic();
        m.reset_traffic();

        m.set_exec_engine(ExecEngine::Vm);
        let vm = m.execute(&opt);
        let vm_traffic = m.traffic();

        match (interp, vm) {
            (Ok(interp), Ok(vm)) => {
                assert_eq!(
                    result_fingerprint(&tree_of(interp)),
                    result_fingerprint(&tree_of(vm)),
                    "answers diverge on {query}"
                );
                assert_eq!(
                    interp_traffic, vm_traffic,
                    "wire traffic diverges on {query}"
                );
            }
            // some (query, options) pairs ship a fragment the wrapper
            // rejects — then both engines must reject it identically
            (Err(interp), Err(vm)) => {
                assert_eq!(interp.to_string(), vm.to_string(), "on {query}");
            }
            (interp, vm) => {
                panic!("engines disagree on acceptance of {query}: {interp:?} vs {vm:?}")
            }
        }
    }
}

#[test]
fn vm_explain_lists_the_compiled_program() {
    let mut m = fig1_mediator();
    // pin the starting engine: the test drives the switch itself
    m.set_exec_engine(ExecEngine::Interp);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());

    // under the interpreter the section is absent
    let interp = m.explain(&opt).unwrap();
    assert_eq!(interp.engine, ExecEngine::Interp);
    assert!(interp.program.is_empty());
    assert!(!interp.render().contains("compiled program"));
    assert!(interp.to_xml().child("program").is_none());

    // under the VM every instruction appears with its counters, in id
    // order, and the profile rows still mirror the interpreter's
    m.set_exec_engine(ExecEngine::Vm);
    let ex = m.explain(&opt).unwrap();
    assert_eq!(ex.engine, ExecEngine::Vm);
    assert!(!ex.program.is_empty());
    assert!(ex.program.iter().any(|l| l.rows > 0), "counters recorded");
    let text = ex.render();
    assert!(
        text.contains(&format!(
            "compiled program: {} instructions",
            ex.program.len()
        )),
        "{text}"
    );
    assert!(text.contains("#00 "), "instruction ids rendered: {text}");
    assert!(text.contains("batches="), "{text}");
    let xml = ex.to_xml();
    assert_eq!(xml.attr("engine"), Some("vm"));
    let program = xml.child("program").expect("program element");
    assert_eq!(
        program.children_named("instruction").count(),
        ex.program.len()
    );
    assert_eq!(
        result_fingerprint(&tree_of(ex.output.clone())),
        result_fingerprint(&tree_of(interp.output.clone())),
    );
    assert_eq!(interp.traffic, ex.traffic, "explain traffic matches");
}

#[test]
fn compiled_programs_are_reused_across_executions() {
    let mut m = fig1_mediator();
    m.set_exec_engine(ExecEngine::Vm);
    assert_eq!(m.programs_compiled(), 0);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());
    m.execute(&opt).unwrap();
    assert_eq!(m.programs_compiled(), 1, "first execution compiles");
    m.execute(&opt).unwrap();
    m.explain(&opt).unwrap();
    assert_eq!(m.programs_compiled(), 1, "later executions reuse");
    // a structurally identical but distinct Arc still hits the cache
    let (opt2, _) = m.optimize(&plan, OptimizerOptions::full());
    assert!(!Arc::ptr_eq(&opt, &opt2));
    m.execute(&opt2).unwrap();
    assert_eq!(m.programs_compiled(), 1, "equal plans share a program");
    // a different plan compiles its own program
    let (naive, _) = m.optimize(&plan, OptimizerOptions::naive());
    assert_ne!(*naive, *opt, "the naive plan is a different shape");
    m.execute(&naive).unwrap();
    assert_eq!(m.programs_compiled(), 2);
    // the interpreter never compiles
    m.set_exec_engine(ExecEngine::Interp);
    m.execute(&opt).unwrap();
    assert_eq!(m.programs_compiled(), 2);
}

#[test]
fn session_logs_the_exec_engine() {
    let mut s = Session::start();
    s.connect("cosmos.inria.fr", Box::new(wais_fig1())).unwrap();
    s.set_exec_engine(ExecEngine::Vm);
    assert!(
        s.transcript().contains("yat> set engine vm;"),
        "{}",
        s.transcript()
    );
    assert_eq!(s.mediator().exec_engine(), ExecEngine::Vm);
}

// ---------------------------------------------------------- federation

use yat_federate::{Dead, MemberRole, PartialFailure};
use yat_model::Node;

/// The generated-works spec every federation test shares: a style mix
/// (so the partition has non-trivial shards) with plenty of optional
/// fields (so Q1 has matches in several styles).
fn fed_works_spec(seed: u64) -> WorksSpec {
    WorksSpec {
        works: 24,
        impressionist_pct: 40,
        optional_pct: 60,
        giverny_pct: 40,
        seed,
    }
}

fn style_of(work: &Tree) -> Option<String> {
    work.children.iter().find_map(|c| match &c.label {
        Label::Sym(s) if s.as_str() == "style" => c.children.first().and_then(|v| match &v.label {
            Label::Atom(a) => Some(a.to_string()),
            _ => None,
        }),
        _ => None,
    })
}

/// The sub-collection of `works` whose style satisfies `keep` — one
/// shard of a style-partitioned federation.
fn works_with_styles(works: &Tree, keep: impl Fn(&str) -> bool) -> Tree {
    Node::labeled(
        works.label.clone(),
        works
            .children
            .iter()
            .filter(|w| style_of(w).is_some_and(|s| keep(&s)))
            .cloned()
            .collect(),
    )
}

/// Every non-Impressionist style the works generator emits — the value
/// set of the second shard.
const REST_STYLES: [&str; 4] = ["Post-Impressionist", "Realist", "Cubist", "Romantic"];

fn shard_role(values: &[&str]) -> MemberRole {
    MemberRole::Shard {
        field: "style".into(),
        values: values.iter().map(|s| s.to_string()).collect(),
    }
}

fn connect_fed<W: WrapperServer + 'static>(
    m: &mut Mediator,
    dead: &[&str],
    server: W,
    group: &str,
    role: MemberRole,
) {
    if dead.contains(&server.name()) {
        m.connect_member(Box::new(Dead(server)), group, role)
            .unwrap();
    } else {
        m.connect_member(Box::new(server), group, role).unwrap();
    }
}

/// The federated twin of [`generated_mediator`]: the same art data
/// behind a two-replica `art` group and the same works split across a
/// style-partitioned `wais` group, so every federated answer can be
/// checked against the plain two-source mediator over identical data.
/// Members named in `dead` connect but fail every data request.
fn federated_mediator(seed: u64, dead: &[&str]) -> Mediator {
    let works = generate_works(&fed_works_spec(seed));
    let imp = works_with_styles(&works, |s| s == "Impressionist");
    let rest = works_with_styles(&works, |s| s != "Impressionist");
    let store = || {
        art_store(&ArtSpec {
            artifacts: 12,
            persons: 10,
            seed,
        })
    };
    let mut m = Mediator::new();
    connect_fed(
        &mut m,
        dead,
        O2Wrapper::new("o2art-a", store()),
        "art",
        MemberRole::Replica,
    );
    connect_fed(
        &mut m,
        dead,
        O2Wrapper::new("o2art-b", store()),
        "art",
        MemberRole::Replica,
    );
    connect_fed(
        &mut m,
        dead,
        WaisWrapper::new("wais-imp", WaisSource::new("works", &imp)),
        "wais",
        shard_role(&["Impressionist"]),
    );
    connect_fed(
        &mut m,
        dead,
        WaisWrapper::new("wais-rest", WaisSource::new("works", &rest)),
        "wais",
        shard_role(&REST_STYLES),
    );
    m.load_program(paper::VIEW1).unwrap();
    m
}

/// The plain two-source mediator over the same data, optionally with
/// part of the works collection removed — the oracle degraded federated
/// answers are checked against.
fn plain_twin(seed: u64, keep: impl Fn(&str) -> bool) -> Mediator {
    let works = works_with_styles(&generate_works(&fed_works_spec(seed)), keep);
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts: 12,
            persons: 10,
            seed,
        }),
    )))
    .unwrap();
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new("works", &works),
    )))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m
}

fn fingerprint_of(m: &Mediator, query: &str, options: OptimizerOptions) -> Vec<String> {
    let plan = m.plan_query(query).unwrap();
    let (opt, _) = m.optimize(&plan, options);
    result_fingerprint(&tree_of(m.execute(&opt).unwrap()))
}

#[test]
fn connect_member_builds_groups_and_rejects_collisions() {
    let m = federated_mediator(7, &[]);
    let r = m.registry();
    assert!(r.is_group("art") && r.is_group("wais"));
    assert_eq!(
        r.group_kind("art"),
        Some(yat_federate::GroupKind::Replicated)
    );
    assert_eq!(
        r.group_kind("wais"),
        Some(yat_federate::GroupKind::Partitioned)
    );
    assert_eq!(r.members_of("wais").len(), 2);
    assert_eq!(r.partition_field("wais").as_deref(), Some("style"));
    // documents resolve to the group, not the member
    assert_eq!(m.source_of("artifacts"), Some("art"));
    assert_eq!(m.source_of("works"), Some("wais"));
    // both the group and each member have an imported interface
    assert!(m.interfaces().contains_key("wais"));
    assert!(m.interfaces().contains_key("wais-imp"));

    // a plain wrapper may not take a federation name
    let mut m = federated_mediator(7, &[]);
    let err = m
        .connect(Box::new(WaisWrapper::new(
            "wais-imp",
            WaisSource::new("other", &fig1_works()),
        )))
        .unwrap_err()
        .to_string();
    assert!(err.contains("wais-imp"), "{err}");
    // a member may not export a document another group already owns
    let err = m
        .connect_member(
            Box::new(WaisWrapper::new(
                "late",
                WaisSource::new("works", &fig1_works()),
            )),
            "other-group",
            MemberRole::Replica,
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("works"), "{err}");
}

#[test]
fn federated_answers_match_the_plain_mediator() {
    let seed = 11;
    let plain = plain_twin(seed, |_| true);
    for options in [OptimizerOptions::naive(), OptimizerOptions::default()] {
        let q1 = fingerprint_of(&plain, paper::Q1, options);
        let q2 = fingerprint_of(&plain, paper::Q2, options);
        for engine in [ExecEngine::Interp, ExecEngine::Vm] {
            for mode in [ExecMode::Sequential, ExecMode::parallel()] {
                let mut fed = federated_mediator(seed, &[]);
                fed.set_exec_engine(engine);
                fed.set_exec_mode(mode);
                assert_eq!(
                    fingerprint_of(&fed, paper::Q1, options),
                    q1,
                    "Q1 {options:?} {engine:?} {mode:?}"
                );
                assert_eq!(
                    fingerprint_of(&fed, paper::Q2, options),
                    q2,
                    "Q2 {options:?} {engine:?} {mode:?}"
                );
            }
        }
    }
}

#[test]
fn partition_pruning_never_contacts_excluded_shards() {
    let m = federated_mediator(13, &[]);
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::default());
    assert!(
        trace.firings.iter().any(|f| f.rule == "federate-route"),
        "routing must fire: {}",
        trace.render()
    );
    let rest_before = m.traffic_of("wais-rest").unwrap();
    let out = m.execute(&opt).unwrap();
    assert_eq!(
        m.traffic_of("wais-rest").unwrap(),
        rest_before,
        "Q2 pins style = Impressionist: the other shard is never contacted"
    );

    // pruning must not change the answer: the unpruned plan agrees
    let (unpruned, _) = m.optimize(
        &plan,
        OptimizerOptions {
            prune_partitions: false,
            ..OptimizerOptions::default()
        },
    );
    assert_eq!(
        result_fingerprint(&tree_of(out)),
        result_fingerprint(&tree_of(m.execute(&unpruned).unwrap())),
    );
}

#[test]
fn degraded_answer_subtracts_the_dead_shard() {
    let seed = 17;
    let mut m = federated_mediator(seed, &["wais-rest"]);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());

    // strict (the default) preserves fail-fast
    assert_eq!(m.partial_failure(), PartialFailure::Strict);
    let err = m.execute(&opt).unwrap_err().to_string();
    assert!(err.contains("wais-rest"), "{err}");

    m.set_partial_failure(PartialFailure::Degrade);
    let (out, prov) = m.execute_federated(&opt).unwrap();
    assert!(prov.is_degraded());
    assert!(prov.missing.contains_key("wais-rest"), "{prov:?}");
    assert!(prov.answered_by.contains("wais-imp"), "{prov:?}");
    // the degraded answer is exactly the full answer minus the dead
    // shard's contribution
    let oracle = plain_twin(seed, |s| s == "Impressionist");
    assert_eq!(
        result_fingerprint(&tree_of(out)),
        fingerprint_of(&oracle, paper::Q1, OptimizerOptions::default()),
    );
}

#[test]
fn replica_failover_is_lossless_even_under_strict() {
    let seed = 19;
    let m = federated_mediator(seed, &["o2art-a"]);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    // one replica still answers, so strict mode sees no failure at all
    let (out, prov) = m.execute_federated(&opt).unwrap();
    assert!(!prov.is_degraded(), "failover is not degradation: {prov:?}");
    assert!(prov.answered_by.contains("o2art-b"), "{prov:?}");
    let oracle = plain_twin(seed, |_| true);
    assert_eq!(
        result_fingerprint(&tree_of(out)),
        fingerprint_of(&oracle, paper::Q1, OptimizerOptions::default()),
    );
}

#[test]
fn quarantined_member_is_kept_mediator_side() {
    let seed = 23;
    let m = federated_mediator(seed, &[]);
    // drive one shard's cost record into quarantine territory: enough
    // trips, most of them failures
    let cost = m.registry().member("wais-imp").unwrap().cost.clone();
    for _ in 0..5 {
        cost.observe(Duration::from_millis(5), 100, false);
    }
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::default());
    assert!(
        trace.notes.iter().any(|n| n.contains("wais-imp")),
        "push-vs-pull must be traced: {}",
        trace.render()
    );
    // the quarantined member's documents are read mediator-side instead
    // of pushing a fragment it keeps failing
    fn has_push_to(plan: &Alg, name: &str) -> bool {
        if let Alg::Push { source, .. } = plan {
            if source == name {
                return true;
            }
        }
        plan.children().iter().any(|c| has_push_to(c, name))
    }
    assert!(!has_push_to(&opt, "wais-imp"), "{opt:?}");
    // and the answer still matches the plain mediator's
    let oracle = plain_twin(seed, |_| true);
    assert_eq!(
        result_fingerprint(&tree_of(m.execute(&opt).unwrap())),
        fingerprint_of(&oracle, paper::Q2, OptimizerOptions::default()),
    );
}

#[test]
fn member_epoch_bump_only_stales_that_member() {
    let seed = 29;
    let mut m = federated_mediator(seed, &[]);
    m.set_cache_policy(CachePolicy::Bounded {
        max_bytes: 1 << 20,
        ttl_epochs: 1,
        negative: false,
    });
    m.set_exec_mode(ExecMode::parallel());
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::naive());
    let first = m.execute(&opt).unwrap();
    // warm: a second run is served from the cache
    let warm_before: Vec<_> = ["o2art-a", "o2art-b", "wais-imp", "wais-rest"]
        .iter()
        .map(|s| m.traffic_of(s).unwrap())
        .collect();
    assert_eq!(m.execute(&opt).unwrap(), first);
    for (i, s) in ["o2art-a", "o2art-b", "wais-imp", "wais-rest"]
        .iter()
        .enumerate()
    {
        assert_eq!(
            m.traffic_of(s).unwrap(),
            warm_before[i],
            "warm run must not touch {s}"
        );
    }

    // bump ONE member's epoch and re-execute from several threads at
    // once: only that member is re-fetched, every other member's cache
    // entries stay valid through the concurrent runs
    m.bump_source_epoch("wais-imp").unwrap();
    let before: Vec<_> = ["o2art-a", "o2art-b", "wais-rest"]
        .iter()
        .map(|s| m.traffic_of(s).unwrap())
        .collect();
    let imp_before = m.traffic_of("wais-imp").unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (m, opt, first) = (&m, &opt, &first);
                scope.spawn(move || {
                    assert_eq!(&m.execute(opt).unwrap(), first);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        m.traffic_of("wais-imp").unwrap().round_trips > imp_before.round_trips,
        "the bumped member must be re-fetched"
    );
    for (i, s) in ["o2art-a", "o2art-b", "wais-rest"].iter().enumerate() {
        assert_eq!(
            m.traffic_of(s).unwrap(),
            before[i],
            "epoch bump of wais-imp must not stale {s}"
        );
    }
}

#[test]
fn cost_and_static_scheduling_agree_on_answers() {
    let seed = 31;
    let mut m = federated_mediator(seed, &[]);
    m.set_exec_mode(ExecMode::parallel());
    assert_eq!(m.sched_policy(), crate::executor::SchedPolicy::Cost);
    let cost = fingerprint_of(&m, paper::Q2, OptimizerOptions::default());
    // executions fed the cost records: the members now have history
    assert!(m.registry().cost("wais-imp").trips > 0);
    m.set_sched_policy(crate::executor::SchedPolicy::Static);
    assert_eq!(
        fingerprint_of(&m, paper::Q2, OptimizerOptions::default()),
        cost
    );
}

#[test]
fn explain_shows_federation_members_and_provenance() {
    let seed = 37;
    let mut m = federated_mediator(seed, &["wais-rest"]);
    m.set_partial_failure(PartialFailure::Degrade);
    let plan = m.plan_query(paper::Q1).unwrap();
    let (opt, trace) = m.optimize(&plan, OptimizerOptions::default());
    let ex = m.explain_with_trace(&opt, Some(trace)).unwrap();
    assert_eq!(ex.federation.len(), 4, "{:?}", ex.federation);
    let text = ex.render();
    assert!(text.contains("federation"), "{text}");
    assert!(
        text.contains("wais-imp") && text.contains("shard(style"),
        "{text}"
    );
    assert!(text.contains("replica"), "{text}");
    assert!(text.contains("missing sources"), "{text}");
    assert!(text.contains("wais-rest: "), "{text}");
    let xml = ex.to_xml().to_xml();
    assert!(xml.contains("missing-sources"), "{xml}");
}
