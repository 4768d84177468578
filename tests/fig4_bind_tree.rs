//! Figure 4 — the Bind and Tree operators, end to end: the figure's
//! exact filter and construction over the works collection.

use yat::yat_algebra::{eval, EvalCtx, EvalOut, FnRegistry, SkolemRegistry, Value};
use yat_bench::figures::fig4;

fn ctx_eval(plan: &yat::yat_algebra::Alg, forest: &yat::yat_model::Forest) -> EvalOut {
    let funcs = FnRegistry::with_builtins();
    let skolems = SkolemRegistry::new();
    eval(plan, &EvalCtx::local(forest, &funcs, &skolems)).expect("figure plans evaluate")
}

#[test]
fn bind_produces_the_figure_tab() {
    let forest = fig4::forest(25);
    let EvalOut::Tab(tab) = ctx_eval(&fig4::bind_plan(), &forest) else {
        panic!()
    };
    assert_eq!(tab.columns(), &["t", "a", "s", "si", "fields"]);
    assert_eq!(tab.len(), 25, "one row per work");
    // the $fields column holds collections (possibly empty)
    for i in 0..tab.len() {
        assert!(matches!(tab.get(i, "fields"), Some(Value::Coll(_))));
    }
}

#[test]
fn tree_groups_works_by_artist() {
    let forest = fig4::forest(25);
    let EvalOut::Tree(tree) = ctx_eval(&fig4::tree_plan(), &forest) else {
        panic!()
    };
    assert_eq!(tree.label.as_sym(), Some("s"));
    // 8 artists in the shared pool; every group is Skolem-identified and
    // holds one name + its titles
    assert!(tree.children.len() <= 8 && !tree.children.is_empty());
    let mut total_titles = 0;
    for group in &tree.children {
        assert!(
            matches!(&group.label, yat::yat_model::Label::Oid(o) if o.as_str().starts_with("artist:"))
        );
        let artist = &group.children[0];
        assert_eq!(artist.label.as_sym(), Some("artist"));
        assert!(artist.child("name").is_some());
        total_titles += artist.children_named("title").count();
    }
    assert_eq!(total_titles, 25, "every work's title lands in some group");
}

#[test]
fn skolem_identifiers_are_stable_across_evaluations() {
    let forest = fig4::forest(10);
    let funcs = FnRegistry::with_builtins();
    let skolems = SkolemRegistry::new();
    let ctx = EvalCtx::local(&forest, &funcs, &skolems);
    let a = eval(&fig4::tree_plan(), &ctx).unwrap();
    let b = eval(&fig4::tree_plan(), &ctx).unwrap();
    assert_eq!(
        a, b,
        "content-derived Skolem ids make re-evaluation idempotent"
    );
}

#[test]
fn bind_scales_linearly_in_rows() {
    for n in [10usize, 200] {
        let forest = fig4::forest(n);
        let EvalOut::Tab(tab) = ctx_eval(&fig4::bind_plan(), &forest) else {
            panic!()
        };
        assert_eq!(tab.len(), n);
    }
}
