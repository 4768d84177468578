//! Figure 9 — Q2: capability-based rewriting and information passing,
//! end to end.

use yat::yat_algebra::EvalOut;
use yat::yat_yatl::paper;
use yat_bench::figures::{fingerprint, pipeline::Level, pipeline::LEVELS};
use yat_bench::workload::{fig1_mediator, Scenario};

fn tree(out: EvalOut) -> yat::yat_model::Tree {
    match out {
        EvalOut::Tree(t) => t,
        other => panic!("expected tree, got {other:?}"),
    }
}

#[test]
fn optimized_q2_has_the_fig9_shape() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, trace) = m.optimize(&plan, Level::Full.options(false));
    let shown = opt.explain();
    // both sources delegated, DJoin with information passing, full-text
    // predicate at the Wais source, compensation at the mediator
    assert!(shown.contains("DJoin"), "{shown}");
    assert!(shown.contains("Push → o2artifact"), "{shown}");
    assert!(shown.contains("Push → xmlartwork"), "{shown}");
    assert!(shown.contains("contains($"), "{shown}");
    assert!(shown.contains("$s = \"Impressionist\""), "{shown}");
    // the wais side drives the loop (left input of the DJoin)
    let djoin_pos = shown.find("DJoin").unwrap();
    let wais_pos = shown.find("Push → xmlartwork").unwrap();
    let o2_pos = shown.find("Push → o2artifact").unwrap();
    assert!(djoin_pos < wais_pos && wais_pos < o2_pos, "{shown}");
    // the three rounds fired in order
    assert!(trace.count("capability-split") >= 1);
    assert!(trace.count("contains-introduction") == 1);
    assert!(trace.count("join-to-djoin") == 1);
}

#[test]
fn all_levels_agree_on_fig1() {
    let m = fig1_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let reference = fingerprint(&tree(m.execute(&plan).unwrap()));
    for level in LEVELS {
        let (opt, _) = m.optimize(&plan, level.options(false));
        let got = fingerprint(&tree(m.execute(&opt).unwrap()));
        assert_eq!(reference, got, "level {}", level.name());
    }
    let joined = reference.join(" ");
    assert!(joined.contains("Nympheas"), "{joined}");
    assert!(!joined.contains("Waterloo"), "price 250k exceeds the bound");
}

#[test]
fn all_levels_agree_on_generated_data() {
    // Q2 needs no containment assumption, so every level is exact
    for seed in [3u64, 17] {
        let mut sc = Scenario::at_scale(60);
        sc.seed = seed;
        let m = sc.mediator();
        let plan = m.plan_query(paper::Q2).unwrap();
        let reference = fingerprint(&tree(m.execute(&plan).unwrap()));
        for level in LEVELS {
            let (opt, _) = m.optimize(&plan, level.options(false));
            let got = fingerprint(&tree(m.execute(&opt).unwrap()));
            assert_eq!(reference, got, "seed {seed}, level {}", level.name());
        }
    }
}

#[test]
fn capability_round_cuts_documents_transferred() {
    let m = Scenario::at_scale(200).mediator();
    let plan = m.plan_query(paper::Q2).unwrap();

    m.reset_traffic();
    m.execute(&plan).unwrap();
    let naive = m.traffic();

    let (opt, _) = m.optimize(&plan, Level::Capability.options(false));
    m.reset_traffic();
    m.execute(&opt).unwrap();
    let capability = m.traffic();

    assert!(capability.documents_received * 2 < naive.documents_received);
    assert!(capability.total_bytes() * 2 < naive.total_bytes());
}

#[test]
fn information_passing_cuts_documents_without_adding_round_trips() {
    // the Fig. 9 plan passes the driving rows' values to O2 as one
    // batch and ships only matching artifacts — fewer documents in as
    // many round trips as the two independent pushes took
    let m = Scenario::at_scale(100).mediator();
    let plan = m.plan_query(paper::Q2).unwrap();

    let (cap, _) = m.optimize(&plan, Level::Capability.options(false));
    m.reset_traffic();
    m.execute(&cap).unwrap();
    let capability = m.traffic();

    let (full, _) = m.optimize(&plan, Level::Full.options(false));
    m.reset_traffic();
    m.execute(&full).unwrap();
    let passing = m.traffic();

    assert!(passing.round_trips <= capability.round_trips);
    assert!(passing.documents_received <= capability.documents_received);
}
