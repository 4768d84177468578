//! Regenerates every figure of the paper as text: plans before/after each
//! rewriting, result fingerprints proving equivalence, and traffic
//! measurements backing the optimization claims.
//!
//! ```text
//! cargo run -p yat-bench --bin report            # all figures
//! cargo run -p yat-bench --bin report -- fig8    # one figure
//! cargo run -p yat-bench --bin report -- profile # EXPLAIN ANALYZE of Q1/Q2
//! ```

use std::time::Instant;
use yat_algebra::{eval, EvalCtx, EvalOut, FnRegistry, SkolemRegistry};
use yat_bench::figures::{self, fig4, fig7, pipeline};
use yat_bench::workload::{fig1_mediator, Scenario};
use yat_mediator::Mediator;
use yat_yatl::{paper, translate};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig1") {
        fig1();
    }
    if want("fig2") {
        fig2();
    }
    if want("fig3") {
        fig3();
    }
    if want("fig4") {
        fig4_report();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
    if want("fig7") {
        fig7_report();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("profile") {
        profile_report();
    }
}

fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn fig1() {
    heading("Figure 1 — sample XML data for cultural goods");
    let store = yat_oql::art::fig1_store();
    let artifacts = yat_oql::export::extent_tree(&store, "artifacts").expect("extent exists");
    let first = yat_model::xml_convert::tree_to_xml(&artifacts.children[0]);
    println!("O2 export (first object):\n{}", first.to_pretty_xml());
    let works = yat_wais::fig1_works();
    let first = yat_model::xml_convert::tree_to_xml(&works.children[0]);
    println!("XML-Wais document (first work):\n{}", first.to_pretty_xml());
}

fn fig2() {
    heading("Figure 2 — installing wrappers and mediators");
    let mut s = yat_mediator::session::Session::start();
    s.connect(
        "logos.inria.fr",
        Box::new(yat_oql::O2Wrapper::new(
            "o2artifact",
            yat_oql::art::fig1_store(),
        )),
    )
    .expect("connect o2");
    s.connect(
        "sappho.ics.forth.gr",
        Box::new(yat_wais::WaisWrapper::new(
            "xmlartwork",
            yat_wais::WaisSource::new("works", &yat_wais::fig1_works()),
        )),
    )
    .expect("connect wais");
    s.load("/u/cluet/YAT/view1.yat", paper::VIEW1)
        .expect("load view1");
    println!("{}", s.transcript());
}

fn fig3() {
    heading("Figure 3 — structural metadata and instantiation");
    let store = yat_oql::art::fig1_store();
    let art = yat_oql::export::schema_model(&store, "art");
    println!("{art}\n");
    let wais = yat_wais::WaisWrapper::new(
        "xmlartwork",
        yat_wais::WaisSource::new("works", &yat_wais::fig1_works()),
    );
    println!("{}\n", wais.structure());
    // the instantiation chain Artifact <: ODMG::Class (and everything <: YAT)
    let yat = yat_model::instantiate::yat_metamodel();
    for name in ["Artifact", "Person"] {
        let ok = yat_model::instantiate::subsumes(
            &yat_model::Pattern::Ref("Yat".into()),
            &yat_model::Pattern::Ref(name.into()),
            Some(&yat),
            Some(&art),
        );
        println!("{name} <: YAT : {ok}");
    }
}

fn fig4_report() {
    heading("Figure 4 — Bind and Tree operators");
    let forest = fig4::forest(4);
    let funcs = FnRegistry::with_builtins();
    let skolems = SkolemRegistry::new();
    let ctx = EvalCtx::local(&forest, &funcs, &skolems);
    println!("plan:\n{}", fig4::bind_plan().explain());
    if let EvalOut::Tab(tab) = eval(&fig4::bind_plan(), &ctx).expect("bind evaluates") {
        println!("Tab ({} rows):\n{tab}", tab.len());
    }
    println!("plan:\n{}", fig4::tree_plan().explain());
    if let EvalOut::Tree(t) = eval(&fig4::tree_plan(), &ctx).expect("tree evaluates") {
        println!("constructed tree:\n{t}\n");
    }
    // scaling
    for n in [100usize, 1000, 5000] {
        let forest = fig4::forest(n);
        let ctx = EvalCtx::local(&forest, &funcs, &skolems);
        let t0 = Instant::now();
        let rows = match eval(&fig4::bind_plan(), &ctx).expect("bind evaluates") {
            EvalOut::Tab(t) => t.len(),
            _ => 0,
        };
        let bind_t = t0.elapsed();
        let t0 = Instant::now();
        let _ = eval(&fig4::tree_plan(), &ctx).expect("tree evaluates");
        let tree_t = t0.elapsed();
        println!("n={n:>5}  bind: {rows} rows in {bind_t:?}   bind+tree: {tree_t:?}");
    }
}

fn fig5() {
    heading("Figure 5 — algebraization of YATL queries");
    println!("view1.yat:\n{}", paper::VIEW1.trim());
    println!("\nalgebra:\n{}", translate(&paper::view1()).explain());
    println!("Q1:\n{}", paper::Q1.trim());
    println!("\nalgebra:\n{}", translate(&paper::q1()).explain());
}

fn fig6() {
    heading("Figure 6 — O2 filter patterns and operational interface");
    let w = yat_oql::O2Wrapper::new("o2artifact", yat_oql::art::fig1_store());
    let mut text = String::new();
    w.interface().encode(&mut text);
    let printed = yat_xml::parse_element(&text).expect("an interface encodes as XML");
    println!("{}", printed.to_pretty_xml());
}

fn fig7_report() {
    heading("Figure 7 — algebraic equivalences (time per strategy)");

    println!("\n-- navigation vs extent join (artifacts → owners, 24-field persons) --");
    for n in [200usize, 1000, 5000] {
        let forest = fig7::wide_forest(n, 24);
        let t0 = Instant::now();
        let nav = figures::eval_rows(&fig7::navigation_plan_projected(), &forest);
        let nav_t = t0.elapsed();
        let t0 = Instant::now();
        let join = figures::eval_rows(&fig7::extent_join_plan(), &forest);
        let join_t = t0.elapsed();
        assert_eq!(nav, join, "equivalence must hold");
        println!("n={n:>5}  navigation: {nav_t:?}   extent join: {join_t:?}   ({nav} rows)");
    }

    println!("\n-- monolithic vs linearly split Bind (works) --");
    for n in [500usize, 2000] {
        let forest = fig4::forest(n);
        let t0 = Instant::now();
        let a = figures::eval_rows(&fig7::deep_bind_plan(), &forest);
        let mono = t0.elapsed();
        let t0 = Instant::now();
        let b = figures::eval_rows(&fig7::split_bind_plan(), &forest);
        let split = t0.elapsed();
        assert_eq!(a, b);
        println!("n={n:>5}  monolithic: {mono:?}   split: {split:?}");
    }

    println!("\n-- typed vs untyped filter simplification --");
    for n in [500usize, 2000] {
        let forest = fig4::forest(n);
        let t0 = Instant::now();
        figures::eval_rows(&fig7::full_filter_bind(), &forest);
        let full = t0.elapsed();
        let t0 = Instant::now();
        figures::eval_rows(&fig7::untyped_simplified_bind(), &forest);
        let untyped = t0.elapsed();
        let t0 = Instant::now();
        figures::eval_rows(&fig7::typed_simplified_bind(), &forest);
        let typed = t0.elapsed();
        println!("n={n:>5}  full: {full:?}   untyped-simplified: {untyped:?}   typed-simplified: {typed:?}");
    }

    println!("\n-- label variables over structured data --");
    let forest = fig7::forest(50);
    let rows = figures::eval_rows(&fig7::label_variable_bind(), &forest);
    println!("attribute-name rows over persons: {rows}");
}

fn run_levels(m: &Mediator, query: &str, containment: bool, label: &str) {
    let plan = m.plan_query(query).expect("query plans");
    for level in pipeline::LEVELS {
        let (opt, trace) = m.optimize(&plan, level.options(containment));
        m.reset_traffic();
        let t0 = Instant::now();
        let out = m.execute(&opt).expect("plan executes");
        let elapsed = t0.elapsed();
        let traffic = m.traffic();
        let fp_len = match &out {
            EvalOut::Tree(t) => figures::fingerprint(t).len(),
            EvalOut::Tab(t) => t.len(),
        };
        println!(
            "{label} {:>12}: {elapsed:>10?}  bytes={:>8}  docs={:>5}  round-trips={:>4}  result-leaves={fp_len}  (rules fired: {})",
            level.name(),
            traffic.total_bytes(),
            traffic.documents_received,
            traffic.round_trips,
            trace.steps.len(),
        );
    }
}

fn fig8() {
    heading("Figure 8 — optimization of Q1 (naive → composed → pushed)");
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q1).expect("Q1 plans");
    println!("naive (materialize the view):\n{}", plan.explain());
    let (opt, _) = m.optimize(&plan, pipeline::Level::Composition.options(true));
    println!(
        "after round 1 (Bind–Tree elimination, prune, Fig. 8 branch elimination):\n{}",
        opt.explain()
    );
    let (opt, _) = m.optimize(&plan, pipeline::Level::Full.options(true));
    println!("fully optimized:\n{}", opt.explain());

    println!("\n-- sweep (artifacts = works = n, Giverny 30%) --");
    for n in [50usize, 200, 800] {
        let m = Scenario::at_scale(n).mediator();
        run_levels(&m, paper::Q1, true, &format!("Q1 n={n:>4}"));
    }
}

fn fig9() {
    heading("Figure 9 — Q2: capability-based rewriting and information passing");
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).expect("Q2 plans");
    println!("naive:\n{}", plan.explain());
    let (opt, _) = m.optimize(&plan, pipeline::Level::Capability.options(false));
    println!(
        "after capability round (contains pushed, fragments delegated):\n{}",
        opt.explain()
    );
    let (opt, _) = m.optimize(&plan, pipeline::Level::Full.options(false));
    println!(
        "with information passing (Fig. 9 right):\n{}",
        opt.explain()
    );

    println!("\n-- sweep (n documents per source, Impressionist 30%) --");
    for n in [50usize, 200, 800] {
        let m = Scenario::at_scale(n).mediator();
        run_levels(&m, paper::Q2, false, &format!("Q2 n={n:>4}"));
    }
    println!("\n-- selectivity sweep at n=400 --");
    for pct in [5u8, 20, 60] {
        let mut sc = Scenario::at_scale(400);
        sc.impressionist_pct = pct;
        let m = sc.mediator();
        run_levels(&m, paper::Q2, false, &format!("Q2 sel={pct:>2}%"));
    }
}

fn profile_report() {
    heading("EXPLAIN ANALYZE — per-operator profiles of Q1 and Q2");
    let m = fig1_mediator();
    for (name, query, containment) in [("Q1", paper::Q1, true), ("Q2", paper::Q2, false)] {
        let plan = m.plan_query(query).expect("query plans");
        println!("\n-- {name}, naive (view materialized) --");
        let ex = m.explain(&plan).expect("naive plan explains");
        print!("{}", ex.render());

        println!("\n-- {name}, fully optimized --");
        let (opt, trace) = m.optimize(&plan, pipeline::Level::Full.options(containment));
        let ex = m
            .explain_with_trace(&opt, Some(trace))
            .expect("optimized plan explains");
        print!("{}", ex.render());
    }

    // the same profile as a document, so it can be stored or diffed
    let plan = m.plan_query(paper::Q1).expect("Q1 plans");
    let (opt, _) = m.optimize(&plan, pipeline::Level::Full.options(true));
    let ex = m.explain(&opt).expect("Q1 explains");
    println!("\n-- Q1 optimized profile as XML --");
    println!("{}", ex.to_xml().to_pretty_xml());
}
