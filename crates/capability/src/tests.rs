//! Cross-module tests: Fig. 6 round-trips, capability matching on the
//! paper's filters, plan wire format.

use crate::fpattern::{o2_fmodel, wais_fmodel};
use crate::interface::{Equivalence, Interface, OpKind, OperationDecl, SigItem};
use crate::matcher::{accepts_filter, pushable};
use crate::plan_xml::{plan_from_xml, plan_to_xml, pred_from_xml, pred_to_xml};
use crate::xml::{
    fmodel_from_xml, fmodel_to_xml, interface_from_xml, interface_to_xml, model_from_xml,
    model_to_xml, pattern_from_xml, pattern_to_xml,
};
use yat_algebra::{Alg, CmpOp, Operand, Pred, Template};
use yat_model::{AtomType, Model, Pattern};
use yat_yatl::parse_filter;

/// The operational part of the O2 interface (Fig. 6 lines 35–43), plus
/// the `project`/`join` operators OQL evidently supports and the exported
/// extents.
fn o2_interface() -> Interface {
    let mut i = Interface::new("o2artifact");
    i.fmodels.push(o2_fmodel());
    i.exports.push(crate::interface::ExportDecl {
        name: "artifacts".into(),
        model: "art".into(),
        pattern: "Artifacts".into(),
    });
    i.exports.push(crate::interface::ExportDecl {
        name: "persons".into(),
        model: "art".into(),
        pattern: "Persons".into(),
    });
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
    for op in ["select", "map", "project", "join", "djoin"] {
        i.operations.push(OperationDecl::algebra(op));
    }
    i.operations.push(OperationDecl::boolean("eq"));
    i.operations.push(OperationDecl {
        name: "current_price".into(),
        kind: OpKind::External,
        input: vec![SigItem::Value {
            model: "art".into(),
            pattern: "Artifact".into(),
        }],
        output: vec![SigItem::Leaf(AtomType::Float)],
    });
    i
}

fn wais_interface() -> Interface {
    let mut i = Interface::new("xmlartwork");
    i.fmodels.push(wais_fmodel());
    i.exports.push(crate::interface::ExportDecl {
        name: "works".into(),
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
    i.equivalences.push(Equivalence::EqImpliesContains {
        predicate: "contains".into(),
    });
    i
}

// ---------------------------------------------------------- fig6 roundtrip

#[test]
fn fig6_fmodel_roundtrips_through_xml() {
    let m = o2_fmodel();
    let xml = fmodel_to_xml(&m);
    // spot-check the paper's exact serialization details
    let s = xml.to_xml();
    assert!(s.contains(r#"<fmodel name="o2fmodel">"#), "{s}");
    assert!(s.contains(r#"<node label="class" bind="tree">"#), "{s}");
    assert!(
        s.contains(r#"<node label="Symbol" bind="none" inst="ground">"#),
        "{s}"
    );
    assert!(s.contains(r#"<leaf label="Int"/>"#), "{s}");
    assert!(s.contains(r#"<star inst="none">"#), "{s}");
    assert!(s.contains(r#"<ref pattern="Fclass"/>"#), "{s}");
    let back = fmodel_from_xml(&xml).unwrap();
    assert_eq!(m, back);
}

#[test]
fn fig6_interface_roundtrips_through_xml() {
    let i = o2_interface();
    let xml = interface_to_xml(&i);
    let s = xml.to_xml();
    assert!(s.starts_with(r#"<interface name="o2artifact">"#), "{s}");
    assert!(
        s.contains(r#"<operation name="bind" kind="algebra">"#),
        "{s}"
    );
    assert!(
        s.contains(r#"<filter model="o2fmodel" pattern="Ftype"/>"#),
        "{s}"
    );
    let reparsed = yat_xml::parse_element(&s).unwrap();
    let back = interface_from_xml(&reparsed).unwrap();
    assert_eq!(i, back);
}

#[test]
fn fig6_value_label_synonym_accepted() {
    // Fig. 6 line 17 writes <value label="Ftype"/> where line 6 writes
    // <value pattern="Ftype"/> — both must parse as a reference
    let el = yat_xml::parse_element(r#"<value label="Ftype"/>"#).unwrap();
    let p = crate::xml::fpattern_from_xml(&el).unwrap();
    assert_eq!(p, crate::fpattern::FPattern::Ref("Ftype".into()));
}

#[test]
fn wais_interface_roundtrips() {
    let i = wais_interface();
    let back = interface_from_xml(&interface_to_xml(&i)).unwrap();
    assert_eq!(i, back);
}

#[test]
fn structural_model_roundtrips() {
    let m = Model::new("art").with(
        "Artifact",
        parse_filter("class: artifact: tuple[ title: String, year: Int, owners: list *(&Person) ]")
            .unwrap_or(Pattern::Wildcard),
    );
    // build via the pattern API instead (parse_filter has no ref-in-star sugar)
    let m2 = Model::new("art").with(
        "Artifact",
        Pattern::sym(
            "class",
            vec![yat_model::Edge::one(Pattern::sym(
                "artifact",
                vec![yat_model::Edge::one(Pattern::sym(
                    "tuple",
                    vec![
                        yat_model::Edge::one(Pattern::elem_typed("title", AtomType::Str)),
                        yat_model::Edge::one(Pattern::elem_typed("year", AtomType::Int)),
                        yat_model::Edge::one(Pattern::sym(
                            "owners",
                            vec![yat_model::Edge::star(Pattern::Ref("Person".into()))],
                        )),
                    ],
                ))],
            ))],
        ),
    );
    let _ = m;
    let xml = model_to_xml(&m2);
    let back = model_from_xml(&xml).unwrap();
    assert_eq!(m2, back);
}

#[test]
fn filters_with_variables_roundtrip() {
    for src in [
        "work [ title: $t, artist: $a, *($fields) ]",
        "doc *$w: work",
        "set *class: artifact: tuple [ title: $t, ?price: $p ]",
        "~$n [ $v ]",
        "Int | String | &Class",
    ] {
        let f = parse_filter(src).unwrap();
        let back = pattern_from_xml(&pattern_to_xml(&f)).unwrap();
        assert_eq!(f, back, "round-trip failed for `{src}`");
    }
}

// ------------------------------------------------------------ the matcher

fn o2_bind_filter_ok(src: &str) {
    let i = o2_interface();
    let (fm, fp) = i.bind_fpattern().unwrap();
    let f = parse_filter(src).unwrap();
    accepts_filter(fm, fp, &f).unwrap_or_else(|r| panic!("O2 should accept `{src}`: {r}"));
}

fn o2_bind_filter_rejected(src: &str) -> String {
    let i = o2_interface();
    let (fm, fp) = i.bind_fpattern().unwrap();
    let f = parse_filter(src).unwrap();
    match accepts_filter(fm, fp, &f) {
        Ok(()) => panic!("O2 should reject `{src}`"),
        Err(r) => r.reason,
    }
}

#[test]
fn o2_accepts_the_view_filter() {
    // the artifacts side of view1 (Fig. 5 left)
    o2_bind_filter_ok(
        "set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p, \
         owners: list *class: person: tuple [ name: $o, auction: $au ] ]",
    );
}

#[test]
fn o2_accepts_tree_bindings_and_ground_labels() {
    o2_bind_filter_ok("set *$x");
    o2_bind_filter_ok("set *class: artifact: $val");
    o2_bind_filter_ok("tuple [ title: $t ]");
}

#[test]
fn o2_rejects_schema_extraction() {
    // class-name position is bind="none" inst="ground": no label variables
    let reason = o2_bind_filter_rejected("set *class: ~$name: $v");
    assert!(
        reason.contains("ground") || reason.contains("label"),
        "{reason}"
    );
    // tuple attributes are inst="ground": cannot star-navigate them
    let reason = o2_bind_filter_rejected("tuple [ *($all) ]");
    assert!(
        reason.contains("instantiated") || reason.contains("fits no"),
        "{reason}"
    );
    // tuple attribute names are bind="none"
    let reason = o2_bind_filter_rejected("tuple [ ~$attr: $v ]");
    assert!(!reason.is_empty());
}

#[test]
fn o2_rejects_unknown_structures() {
    let reason = o2_bind_filter_rejected("works *work [ title: $t ]");
    assert!(
        reason.contains("works") || reason.contains("alternative"),
        "{reason}"
    );
}

#[test]
fn wais_accepts_only_whole_documents() {
    let i = wais_interface();
    let (fm, fp) = i.bind_fpattern().unwrap();
    // whole documents: fine
    let f = parse_filter("works *$w").unwrap();
    accepts_filter(fm, fp, &f).unwrap();
    // decomposing documents: rejected (work has no declared children)
    let f = parse_filter("works *work [ title: $t ]").unwrap();
    let r = accepts_filter(fm, fp, &f).unwrap_err();
    assert!(r.reason.contains("not supported"), "{r}");
    // binding the root: rejected (bind="none")
    let f = parse_filter("$all").unwrap();
    let r = accepts_filter(fm, fp, &f).unwrap_err();
    assert!(r.reason.contains("not allowed"), "{r}");
}

// --------------------------------------------------------------- pushable

#[test]
fn o2_pushable_plan_fig5_left() {
    // Bind + Select over artifacts (the fragment the wrapper translates
    // to OQL in Section 4.1)
    let i = o2_interface();
    let filter =
        parse_filter("set *class: artifact: tuple [ title: $t, year: $y, creator: $c, price: $p ]")
            .unwrap();
    let plan = Alg::select(
        Alg::bind(Alg::source("artifacts"), filter),
        Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
    );
    pushable(&i, &plan).unwrap();
}

#[test]
fn o2_rejects_tree_and_unknown_sources() {
    let i = o2_interface();
    let t = Alg::tree(
        Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap()),
        Template::sym("out", vec![]),
    );
    assert!(pushable(&i, &t).unwrap_err().reason.contains("Tree"));
    let s = Alg::source("works");
    assert!(pushable(&i, &s)
        .unwrap_err()
        .reason
        .contains("not exported"));
}

#[test]
fn o2_accepts_method_calls_in_predicates() {
    let i = o2_interface();
    let plan = Alg::select(
        Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap()),
        Pred::cmp(
            CmpOp::Le,
            Operand::Call {
                name: "current_price".into(),
                args: vec![Operand::var("x")],
            },
            Operand::cst(200000.0),
        ),
    );
    pushable(&i, &plan).unwrap();
    // but unknown functions are rejected
    let plan = Alg::select(
        Alg::bind(Alg::source("artifacts"), parse_filter("set *$x").unwrap()),
        Pred::Call {
            name: "levenshtein".into(),
            args: vec![Operand::var("x")],
        },
    );
    assert!(pushable(&i, &plan).is_err());
}

#[test]
fn wais_pushable_contains_but_not_comparisons() {
    let i = wais_interface();
    let bind = Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap());
    let with_contains = Alg::select(
        bind.clone(),
        Pred::Call {
            name: "contains".into(),
            args: vec![Operand::var("w"), Operand::cst("Impressionist")],
        },
    );
    pushable(&i, &with_contains).unwrap();
    let with_eq = Alg::select(bind, Pred::eq_const("w", "x"));
    let r = pushable(&i, &with_eq).unwrap_err();
    assert!(r.reason.contains("no comparison"), "{r}");
}

#[test]
fn already_pushed_fragments_are_not_repushed() {
    let i = wais_interface();
    let plan = Alg::push("xmlartwork", Alg::source("works"));
    assert!(pushable(&i, &plan)
        .unwrap_err()
        .reason
        .contains("already delegated"));
}

// ------------------------------------------------------------ plan wire

#[test]
fn plans_roundtrip_through_xml() {
    let filter = parse_filter("works *work [ title: $t, artist: $a ]").unwrap();
    let plan = Alg::tree(
        Alg::join(
            Alg::select(
                Alg::bind(
                    Alg::source_at("o2", "artifacts"),
                    parse_filter("set *$x").unwrap(),
                ),
                Pred::cmp(CmpOp::Gt, Operand::var("y"), Operand::cst(1800)),
            ),
            Alg::push("wais", Alg::bind(Alg::source("works"), filter)),
            Pred::var_eq("t", "t'"),
        ),
        Template::sym(
            "doc",
            vec![Template::skolem_group(
                "artwork",
                &["t", "c"],
                Template::sym("work", vec![Template::elem_var("title", "t")]),
            )],
        ),
    );
    let xml = plan_to_xml(&plan);
    let back = plan_from_xml(&xml).unwrap();
    assert_eq!(plan, back, "\nxml was:\n{}", xml.to_pretty_xml());
    // and the serialized form survives a parse of its printed text
    let reparsed = yat_xml::parse_element(&xml.to_xml()).unwrap();
    assert_eq!(plan, plan_from_xml(&reparsed).unwrap());
}

#[test]
fn all_operator_shapes_roundtrip() {
    use std::sync::Arc;
    let b = Alg::bind(Alg::source("d"), parse_filter("d *$x").unwrap());
    let plans: Vec<Arc<Alg>> = vec![
        Alg::bind_over(b.clone(), "x", parse_filter("e [ v: $v ]").unwrap()),
        Alg::project(b.clone(), vec![("x".into(), "y".into())]),
        Arc::new(Alg::Union {
            left: b.clone(),
            right: b.clone(),
        }),
        Arc::new(Alg::Intersect {
            left: b.clone(),
            right: b.clone(),
        }),
        Arc::new(Alg::Diff {
            left: b.clone(),
            right: b.clone(),
        }),
        Arc::new(Alg::Group {
            input: b.clone(),
            keys: vec!["x".into()],
        }),
        Arc::new(Alg::Sort {
            input: b.clone(),
            keys: vec![("x".into(), yat_algebra::SortDir::Desc)],
        }),
        Arc::new(Alg::Map {
            input: b.clone(),
            col: "c".into(),
            expr: Operand::Call {
                name: "textof".into(),
                args: vec![Operand::var("x")],
            },
        }),
        Alg::djoin(b.clone(), b.clone()),
    ];
    for p in plans {
        let back = plan_from_xml(&plan_to_xml(&p)).unwrap();
        assert_eq!(p, back);
    }
}

#[test]
fn predicates_roundtrip_through_xml() {
    let preds = vec![
        Pred::True,
        Pred::var_eq("a", "b'"),
        Pred::eq_const("t", "Giverny"),
        Pred::cmp(CmpOp::Le, Operand::var("p"), Operand::cst(200000.0)),
        Pred::Not(Box::new(Pred::Or(
            Box::new(Pred::eq_const("x", 1)),
            Box::new(Pred::Call {
                name: "contains".into(),
                args: vec![Operand::var("w"), Operand::cst("Impressionist")],
            }),
        ))),
    ];
    for p in preds {
        let back = pred_from_xml(&pred_to_xml(&p)).unwrap();
        assert_eq!(p, back);
    }
}

#[test]
fn malformed_wire_documents_are_rejected() {
    for bad in [
        "<source/>",                         // missing name
        "<bind><source name=\"d\"/></bind>", // missing filter
        "<cmp op=\"zz\"><var name=\"a\"/><var name=\"b\"/></cmp>",
        "<wat/>",
        "<const type=\"Int\" value=\"xyz\"/>",
    ] {
        let el = yat_xml::parse_element(bad).unwrap();
        assert!(
            plan_from_xml(&el).is_err() && pred_from_xml(&el).is_err(),
            "should reject {bad}"
        );
    }
    let el = yat_xml::parse_element("<interface><export name=\"e\"/></interface>").unwrap();
    assert!(interface_from_xml(&el).is_err(), "interface missing name");
}

// ----------------------------------------------- client ↔ server protocol

#[test]
fn client_requests_roundtrip() {
    use crate::protocol::ClientRequest;
    let reqs = vec![
        ClientRequest::Query {
            text: "q() <- works *$w;".into(),
            deadline_ms: Some(250),
            stream: false,
        },
        ClientRequest::Query {
            text: "multi\nline \"quoted\" & <angled>".into(),
            deadline_ms: None,
            stream: false,
        },
        ClientRequest::Explain {
            text: "q() <- works *$w;".into(),
        },
        ClientRequest::Stats,
        ClientRequest::Shutdown,
    ];
    for r in reqs {
        let text = r.to_xml().to_xml();
        let el = yat_xml::parse_element(&text).unwrap();
        assert_eq!(ClientRequest::from_xml(&el).unwrap(), r, "{text}");
        assert_eq!(r.to_xml().name, r.kind());
    }
    let bad = yat_xml::parse_element("<get-interface/>").unwrap();
    assert!(
        matches!(
            ClientRequest::from_xml(&bad),
            Err(crate::xml::WireError::UnknownVerb(_))
        ),
        "wrapper verbs are not client verbs"
    );
    let bad = yat_xml::parse_element("<query deadline-ms=\"soon\">q</query>").unwrap();
    assert!(ClientRequest::from_xml(&bad).is_err(), "bad deadline");
}

#[test]
fn streamed_queries_and_chunk_frames_roundtrip() {
    use crate::protocol::{ClientRequest, StreamFrame};
    use yat_algebra::EvalOut;
    use yat_model::Node;

    // the negotiation attribute survives a round trip
    let req = ClientRequest::Query {
        text: "q() <- works *$w;".into(),
        deadline_ms: Some(100),
        stream: true,
    };
    let text = req.to_xml().to_xml();
    assert!(text.contains("stream=\"chunked\""), "{text}");
    let el = yat_xml::parse_element(&text).unwrap();
    assert_eq!(ClientRequest::from_xml(&el).unwrap(), req);
    // an unknown streaming mode is refused, not silently materialized:
    // silently dropping the attribute would make the client wait for
    // chunk frames that never come
    let bad = yat_xml::parse_element("<query stream=\"firehose\">q</query>").unwrap();
    assert!(matches!(
        ClientRequest::from_xml(&bad),
        Err(crate::xml::WireError::Malformed(_))
    ));

    let mut tab = yat_algebra::Tab::new(vec!["t".into()]);
    tab.push(vec![yat_algebra::Value::Tree(Node::elem(
        "title", "Nympheas",
    ))]);
    let frames = vec![
        StreamFrame::Chunk {
            seq: 0,
            payload: EvalOut::Tab(tab),
        },
        StreamFrame::Chunk {
            seq: 1,
            payload: EvalOut::Tree(Node::sym("works", vec![])),
        },
        StreamFrame::End {
            chunks: 2,
            rows: 2,
            answered_by: None,
            missing: None,
        },
        StreamFrame::End {
            chunks: 1,
            rows: 0,
            answered_by: Some("art1 art2".into()),
            missing: Some("works-shard-b: timed out".into()),
        },
        StreamFrame::Abort {
            message: "source hung up".into(),
        },
    ];
    for f in frames {
        let text = f.to_xml().to_xml();
        let el = yat_xml::parse_element(&text).unwrap();
        assert_eq!(StreamFrame::from_xml(&el).unwrap(), f, "{text}");
        assert_eq!(f.to_xml().name, f.kind(), "kind() is the wire label");
    }
    // non-stream frames fall through so the reader can try ServerReply
    let answer = yat_xml::parse_element("<answer><result/></answer>").unwrap();
    assert!(matches!(
        StreamFrame::from_xml(&answer),
        Err(crate::xml::WireError::UnknownVerb(_))
    ));
    let bad = yat_xml::parse_element("<answer-chunk seq=\"x\"><result/></answer-chunk>").unwrap();
    assert!(StreamFrame::from_xml(&bad).is_err(), "bad seq");
    let bad = yat_xml::parse_element("<answer-end chunks=\"1\"/>").unwrap();
    assert!(StreamFrame::from_xml(&bad).is_err(), "missing rows");
}

#[test]
fn server_replies_roundtrip() {
    use crate::protocol::{ServerReply, ServerStats, SourceGauge};
    use yat_algebra::EvalOut;
    use yat_model::Node;

    let mut tab = yat_algebra::Tab::new(vec!["t".into()]);
    tab.push(vec![yat_algebra::Value::Tree(Node::elem(
        "title", "Nympheas",
    ))]);
    let replies = vec![
        ServerReply::answer(EvalOut::Tab(tab)),
        ServerReply::answer(EvalOut::Tree(Node::sym(
            "answers",
            vec![Node::elem("title", "Nympheas")],
        ))),
        ServerReply::Answer {
            out: EvalOut::Tree(Node::sym("answers", vec![])),
            answered_by: Some("art1 works-shard-a".into()),
            missing: Some("works-shard-b: connection reset".into()),
        },
        ServerReply::Explained {
            text: "Q1\n  Bind works  1.2ms".into(),
        },
        ServerReply::Stats(ServerStats {
            workers: 4,
            queue_capacity: 32,
            queue_depth: 3,
            in_flight: 4,
            connections: 9,
            admitted: 120,
            served: 110,
            shed: 7,
            errors: 3,
            protocol_errors: 1,
            draining: true,
            cache_hits: 40,
            cache_misses: 80,
            sources: vec![
                SourceGauge {
                    name: "o2artifact".into(),
                    round_trips: 200,
                    in_flight: 2,
                    group: None,
                    ewma_latency_us: 0,
                    errors: 0,
                },
                SourceGauge {
                    name: "xmlartwork".into(),
                    round_trips: 150,
                    in_flight: 0,
                    group: Some("art".into()),
                    ewma_latency_us: 1843,
                    errors: 2,
                },
            ],
        }),
        ServerReply::Overloaded { retry_after_ms: 40 },
        ServerReply::Error {
            message: "deadline exceeded".into(),
        },
        ServerReply::Bye { drained: 5 },
    ];
    for r in replies {
        let text = r.to_xml().to_xml();
        let el = yat_xml::parse_element(&text).unwrap();
        assert_eq!(ServerReply::from_xml(&el).unwrap(), r, "{text}");
        assert_eq!(r.to_xml().name, r.kind());
    }
    let bad = yat_xml::parse_element("<answer/>").unwrap();
    assert!(ServerReply::from_xml(&bad).is_err(), "empty answer");
    let bad = yat_xml::parse_element("<interface name=\"x\"/>").unwrap();
    assert!(
        matches!(
            ServerReply::from_xml(&bad),
            Err(crate::xml::WireError::UnknownVerb(_))
        ),
        "wrapper responses are not server replies"
    );
}

/// Satellite hardening check: feed seeded, randomly corrupted wire bytes
/// through the whole decode pipeline — framing, XML parse, verb parse for
/// all four message vocabularies — and require a typed result every
/// time. A panic anywhere in the pipeline fails the test.
#[test]
fn corrupted_wire_bytes_never_panic_the_decoders() {
    use crate::protocol::{ClientRequest, Request, Response, ServerReply};
    use yat_prng::Rng;

    let seed = std::env::var("YAT_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20260807u64);
    let mut rng = Rng::seed_from_u64(seed);

    // seed corpus: one valid serialized frame per verb
    let plan = Alg::select(
        Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap()),
        Pred::cmp(CmpOp::Eq, Operand::var("w"), Operand::cst("Nympheas")),
    );
    let mut tab = yat_algebra::Tab::new(vec!["w".into()]);
    tab.push(vec![yat_algebra::Value::Tree(yat_model::Node::elem(
        "title", "Nympheas",
    ))]);
    let corpus: Vec<String> = vec![
        Request::GetInterface.to_xml().to_xml(),
        Request::GetDocument {
            name: "works".into(),
        }
        .to_xml()
        .to_xml(),
        Request::Execute { plan: plan.clone() }.to_xml().to_xml(),
        Request::ExecuteBatch {
            plan: plan.clone(),
            bindings: crate::protocol::Bindings {
                vars: vec!["t".into()],
                rows: vec![vec![yat_model::Atom::Str("Nympheas".into())]],
            },
        }
        .to_xml()
        .to_xml(),
        Response::Result(tab).to_xml().to_xml(),
        Response::Error("nope".into()).to_xml().to_xml(),
        ClientRequest::Query {
            text: "q() <- works *$w;".into(),
            deadline_ms: Some(100),
            stream: false,
        }
        .to_xml()
        .to_xml(),
        ClientRequest::Stats.to_xml().to_xml(),
        ServerReply::Overloaded { retry_after_ms: 9 }
            .to_xml()
            .to_xml(),
        ServerReply::Bye { drained: 1 }.to_xml().to_xml(),
    ];

    let mut decoded = 0u32;
    let mut rejected = 0u32;
    for round in 0..400 {
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let mut framed = Vec::new();
        crate::framing::write_frame(&mut framed, base).unwrap();

        // corrupt 1–8 positions: bit flips, byte swaps, truncation,
        // duplication — header bytes included
        for _ in 0..rng.gen_range(1..9usize) {
            if framed.is_empty() {
                break;
            }
            let pos = rng.gen_range(0..framed.len());
            match rng.gen_range(0..4u64) {
                0 => framed[pos] ^= 1 << rng.gen_range(0..8u64),
                1 => framed[pos] = rng.gen_range(0..256u64) as u8,
                2 => framed.truncate(pos),
                _ => {
                    let dup = framed[pos];
                    framed.insert(pos, dup);
                }
            }
        }

        let outcome = std::panic::catch_unwind(move || {
            let mut r = framed.as_slice();
            let el = match crate::framing::read_element(&mut r) {
                Ok(Some(el)) => el,
                Ok(None) => return (0u32, 1u32),
                Err(_) => return (0, 1),
            };
            // all four decoders must survive whatever parsed
            let mut ok = 0;
            ok += Request::from_xml(&el).is_ok() as u32;
            ok += Response::from_xml(&el).is_ok() as u32;
            ok += ClientRequest::from_xml(&el).is_ok() as u32;
            ok += ServerReply::from_xml(&el).is_ok() as u32;
            (ok.min(1), (ok == 0) as u32)
        });
        match outcome {
            Ok((d, r)) => {
                decoded += d;
                rejected += r;
            }
            Err(_) => panic!("decode pipeline panicked on round {round} (seed {seed})"),
        }
    }
    // sanity: the corruption is mild enough that both outcomes occur,
    // so the test exercises success and failure paths
    assert!(rejected > 0, "seed {seed} never produced a rejection");
    assert!(decoded > 0, "seed {seed} never survived a corruption");
}
