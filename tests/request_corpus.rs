//! The request corpus: the wire text of a fixed set of requests,
//! interfaces and client requests, held byte for byte to
//! `tests/request_corpus.txt`.
//!
//! The corpus covers every plan operator, predicate, operand, template
//! and pattern variant; the fragments the mediator pushes for Q1 and Q2
//! (recorded at the wrappers) and the whole plans of Figs. 5, 8 and 9;
//! `execute-batch` with escaped, non-ASCII, typed, empty and unit
//! bindings; `get-document`, `get-interface` and the `<interface>`
//! answers of both wrappers; and every client request, with and without
//! `deadline-ms` and `stream`. A request's text is also what the
//! simulated network hashes into its delay, so a changed byte changes
//! timings as well as traffic.
//!
//! Every entry must also survive its own reader: decoding the text and
//! encoding the result again gives the same bytes.

use std::sync::{Arc, Mutex};
use yat::yat_algebra::{Alg, CmpOp, Operand, Pred, SortDir, Template};
use yat::yat_capability::fpattern::{o2_fmodel, wais_fmodel, FPattern};
use yat::yat_capability::interface::{
    Equivalence, ExportDecl, Interface, OpKind, OperationDecl, SigItem,
};
use yat::yat_capability::protocol::{Bindings, ClientRequest, Request, Response, WrapperServer};
use yat::yat_capability::{IndexReport, StorageReport};
use yat::yat_mediator::{Mediator, OptimizerOptions};
use yat::yat_model::{Atom, AtomType, Edge, Model, PLabel, Pattern};
use yat::yat_oql::art::fig1_store;
use yat::yat_oql::O2Wrapper;
use yat::yat_wais::{fig1_works, WaisSource, WaisWrapper};
use yat::yat_yatl::{paper, parse_filter, translate};

const GOLDEN: &str = include_str!("request_corpus.txt");

fn request_text(r: &Request) -> String {
    let mut text = String::new();
    r.encode(&mut text);
    text
}

fn client_text(r: &ClientRequest) -> String {
    let mut text = String::new();
    r.encode(&mut text);
    text
}

fn response_text(r: &Response) -> String {
    let mut text = String::new();
    r.encode(&mut text);
    text
}

/// A wrapper that records every request it is handed.
struct Recording<W> {
    inner: W,
    seen: Arc<Mutex<Vec<Request>>>,
}

impl<W: WrapperServer> WrapperServer for Recording<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn handle(&self, request: &Request) -> Response {
        self.seen.lock().unwrap().push(request.clone());
        self.inner.handle(request)
    }
    fn take_index_report(&self) -> Option<IndexReport> {
        self.inner.take_index_report()
    }
    fn take_storage_report(&self) -> Option<StorageReport> {
        self.inner.take_storage_report()
    }
}

/// The Fig. 1 federation with both wrappers recording into `seen`.
fn recording_mediator(seen: &Arc<Mutex<Vec<Request>>>) -> Mediator {
    let mut m = Mediator::new();
    m.connect(Box::new(Recording {
        inner: O2Wrapper::new("o2artifact", fig1_store()),
        seen: seen.clone(),
    }))
    .unwrap();
    m.connect(Box::new(Recording {
        inner: WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works())),
        seen: seen.clone(),
    }))
    .unwrap();
    m.load_program(paper::VIEW1).unwrap();
    m
}

/// Every pattern variant: each node label, each edge kind, unions,
/// references, tree variables and the wildcard — and nodes with no
/// edges, which self-close.
fn every_pattern() -> Pattern {
    let labels = [
        PLabel::Sym("work".into()),
        PLabel::Const(Atom::Str("a&b \"c\" <d>".into())),
        PLabel::Const(Atom::Int(1897)),
        PLabel::Const(Atom::Float(1.5)),
        PLabel::Const(Atom::Bool(false)),
        PLabel::Atom(AtomType::Str),
        PLabel::AnySym,
        PLabel::Any,
        PLabel::Var("n".into()),
    ];
    let mut edges: Vec<Edge> = labels
        .into_iter()
        .map(|label| {
            Edge::one(Pattern::Node {
                label,
                edges: vec![],
            })
        })
        .collect();
    edges.push(Edge::opt(Pattern::TreeVar("o".into())));
    edges.push(Edge::star(Pattern::Ref("Person".into())));
    edges.push(Edge::star_iter("i", Pattern::Wildcard));
    edges.push(Edge::star_collect("c", Pattern::elem_var("title", "t")));
    edges.push(Edge::one(Pattern::Union(vec![
        Pattern::atom(AtomType::Int),
        Pattern::constant("Monet"),
    ])));
    edges.push(Edge::one(Pattern::Union(vec![])));
    Pattern::sym("doc", edges)
}

/// Every predicate variant, every comparison operator and every operand.
fn every_pred() -> Pred {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let cmps = ops
        .into_iter()
        .map(|op| Pred::cmp(op, Operand::var("y"), Operand::cst(1800)));
    let mut pred = Pred::True;
    for cmp in cmps {
        pred = Pred::And(Box::new(pred), Box::new(cmp));
    }
    Pred::Or(
        Box::new(pred),
        Box::new(Pred::Not(Box::new(Pred::Call {
            name: "contains".into(),
            args: vec![
                Operand::var("w"),
                Operand::cst("Impressionist & <co>"),
                Operand::cst(2.5),
                Operand::cst(true),
                Operand::Call {
                    name: "textof".into(),
                    args: vec![
                        Operand::var("x"),
                        Operand::Call {
                            name: "now".into(),
                            args: vec![],
                        },
                    ],
                },
            ],
        }))),
    )
}

/// Every template variant, with and without children and Skolem names.
fn every_template() -> Template {
    Template::sym(
        "doc",
        vec![
            Template::skolem_group(
                "artwork",
                &["t", "c"],
                Template::sym("work", vec![Template::elem_var("title", "t")]),
            ),
            Template::group(&["a"], Template::Var("a".into())),
            Template::Group {
                key: vec![],
                skolem: None,
                body: Box::new(Template::sym("empty", vec![])),
            },
            Template::LabelVar {
                var: "n".into(),
                children: vec![Template::Text("Cézanne — \"睡蓮\" & <x>".into())],
            },
            Template::LabelVar {
                var: "m".into(),
                children: vec![],
            },
            Template::Text(String::new()),
        ],
    )
}

/// Every plan operator, over a shared leaf.
fn every_operator() -> Vec<(&'static str, Arc<Alg>)> {
    let leaf = Alg::bind(Alg::source("works"), parse_filter("works *$w").unwrap());
    vec![
        ("source", Alg::source("works")),
        ("source-at", Alg::source_at("o2artifact", "artifacts")),
        (
            "bind-every-pattern",
            Alg::bind(Alg::source("d"), every_pattern()),
        ),
        (
            "bind-over",
            Alg::bind_over(
                leaf.clone(),
                "w",
                parse_filter("work [ title: $t ]").unwrap(),
            ),
        ),
        ("tree", Alg::tree(leaf.clone(), every_template())),
        ("select", Alg::select(leaf.clone(), every_pred())),
        (
            "project",
            Alg::project(
                leaf.clone(),
                vec![("w".into(), "w".into()), ("w".into(), "v'".into())],
            ),
        ),
        ("project-none", Alg::project(leaf.clone(), vec![])),
        (
            "join",
            Alg::join(leaf.clone(), leaf.clone(), Pred::var_eq("t", "t'")),
        ),
        ("djoin", Alg::djoin(leaf.clone(), leaf.clone())),
        (
            "union",
            Arc::new(Alg::Union {
                left: leaf.clone(),
                right: leaf.clone(),
            }),
        ),
        (
            "intersect",
            Arc::new(Alg::Intersect {
                left: leaf.clone(),
                right: leaf.clone(),
            }),
        ),
        (
            "diff",
            Arc::new(Alg::Diff {
                left: leaf.clone(),
                right: leaf.clone(),
            }),
        ),
        (
            "group",
            Arc::new(Alg::Group {
                input: leaf.clone(),
                keys: vec!["w".into(), "t".into()],
            }),
        ),
        (
            "group-none",
            Arc::new(Alg::Group {
                input: leaf.clone(),
                keys: vec![],
            }),
        ),
        (
            "sort",
            Arc::new(Alg::Sort {
                input: leaf.clone(),
                keys: vec![("w".into(), SortDir::Asc), ("t".into(), SortDir::Desc)],
            }),
        ),
        (
            "map",
            Arc::new(Alg::Map {
                input: leaf.clone(),
                col: "c".into(),
                expr: Operand::Call {
                    name: "textof".into(),
                    args: vec![Operand::var("w")],
                },
            }),
        ),
        ("push", Alg::push("xmlartwork", leaf.clone())),
        (
            "project-elements",
            Alg::project_elements(leaf, "w", ["title", "artist"]),
        ),
    ]
}

/// An interface with every declaration kind, every Fpattern and every
/// model pattern shape.
fn every_declaration() -> Interface {
    let mut i = Interface::new("every & <all>");
    i.models.push(
        Model::new("m")
            .with("P", every_pattern())
            .with("Q", Pattern::Ref("P".into())),
    );
    i.models.push(Model::new("empty"));
    i.fmodels.push(o2_fmodel());
    i.fmodels.push(wais_fmodel());
    let mut extra = yat::yat_capability::Fmodel::new("extra");
    extra.patterns.push(("U".into(), FPattern::Union(vec![])));
    i.fmodels.push(extra);
    i.exports.push(ExportDecl {
        name: "works".into(),
        model: "m".into(),
        pattern: "P".into(),
    });
    i.operations.push(OperationDecl {
        name: "bind".into(),
        kind: OpKind::Algebra,
        input: vec![
            SigItem::Value {
                model: "m".into(),
                pattern: "P".into(),
            },
            SigItem::Filter {
                model: "o2fmodel".into(),
                pattern: "Ftype".into(),
            },
            SigItem::Leaf(AtomType::Float),
        ],
        output: vec![],
    });
    i.operations.push(OperationDecl {
        name: "price".into(),
        kind: OpKind::External,
        input: vec![],
        output: vec![SigItem::Leaf(AtomType::Int)],
    });
    i.operations.push(OperationDecl::boolean("eq"));
    i.equivalences.push(Equivalence::EqImpliesContains {
        predicate: "contains".into(),
    });
    i
}

fn bindings() -> Vec<(&'static str, Bindings)> {
    vec![
        (
            "escaped",
            Bindings {
                vars: vec!["t".into(), "n".into()],
                rows: vec![
                    vec![
                        Atom::Str("<b a=\"1\">Tom & 'Jerry'</b>".into()),
                        Atom::Int(1),
                    ],
                    vec![Atom::Str("]]>&amp;".into()), Atom::Int(-7)],
                ],
            },
        ),
        (
            "non-ascii",
            Bindings {
                vars: vec!["t".into()],
                rows: vec![
                    vec![Atom::Str("Cézanne — \u{1F3A8}".into())],
                    vec![Atom::Str("睡蓮".into())],
                ],
            },
        ),
        (
            "typed",
            Bindings {
                vars: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                rows: vec![
                    vec![
                        Atom::Int(1897),
                        Atom::Float(1.0),
                        Atom::Bool(true),
                        Atom::Str("true".into()),
                    ],
                    vec![
                        Atom::Int(0),
                        Atom::Float(1e20),
                        Atom::Bool(false),
                        Atom::Str("1.0".into()),
                    ],
                ],
            },
        ),
        (
            "empty",
            Bindings {
                vars: vec!["t".into()],
                rows: vec![],
            },
        ),
        (
            "empty-strings",
            Bindings {
                vars: vec!["t".into(), "u".into()],
                rows: vec![vec![Atom::Str(String::new()), Atom::Str(" ".into())]],
            },
        ),
        ("unit", Bindings::unit()),
    ]
}

fn client_requests() -> Vec<(&'static str, ClientRequest)> {
    let text = "MAKE titles *($t) := t [ $t ] MATCH works WITH works *work [ title: $t ] ;";
    let mut out = Vec::new();
    for (name, deadline_ms, stream) in [
        ("query", None, false),
        ("query-deadline", Some(250), false),
        ("query-stream", None, true),
        ("query-deadline-stream", Some(0), true),
    ] {
        out.push((
            name,
            ClientRequest::Query {
                text: text.into(),
                deadline_ms,
                stream,
            },
        ));
    }
    out.push((
        "query-escaped",
        ClientRequest::Query {
            text: "multi\nline \"quoted\" & <angled> — é".into(),
            deadline_ms: None,
            stream: false,
        },
    ));
    out.push((
        "query-empty",
        ClientRequest::Query {
            text: String::new(),
            deadline_ms: None,
            stream: false,
        },
    ));
    out.push((
        "explain",
        ClientRequest::Explain {
            text: paper::Q2.trim().into(),
        },
    ));
    out.push(("stats", ClientRequest::Stats));
    out.push(("shutdown", ClientRequest::Shutdown));
    out
}

/// One kind of corpus entry, so each can be read back by its own reader.
enum Entry {
    Request(Request),
    Client(ClientRequest),
    Response(Response),
}

impl Entry {
    fn text(&self) -> String {
        match self {
            Entry::Request(r) => request_text(r),
            Entry::Client(r) => client_text(r),
            Entry::Response(r) => response_text(r),
        }
    }

    /// The entry's text decoded and encoded again.
    fn again(&self) -> String {
        let text = self.text();
        match self {
            Entry::Request(_) => request_text(&Request::decode(&text).unwrap()),
            Entry::Client(_) => client_text(&ClientRequest::decode(&text).unwrap()),
            Entry::Response(_) => response_text(&Response::decode(&text).unwrap()),
        }
    }
}

fn corpus() -> Vec<(String, Entry)> {
    let mut out: Vec<(String, Entry)> = Vec::new();
    out.push((
        "get-interface".into(),
        Entry::Request(Request::GetInterface),
    ));
    for name in ["artifacts", "works", "a&b \"c\" <d> é"] {
        out.push((
            format!("get-document {name}"),
            Entry::Request(Request::GetDocument { name: name.into() }),
        ));
    }
    for (name, plan) in every_operator() {
        out.push((
            format!("execute {name}"),
            Entry::Request(Request::Execute { plan }),
        ));
    }
    let batch_plan = Alg::select(
        Alg::bind(
            Alg::source("artifacts"),
            parse_filter("set *class: artifact: tuple [ title: $t, creator: $c ]").unwrap(),
        ),
        Pred::var_eq("t", "t0"),
    );
    for (name, bindings) in bindings() {
        out.push((
            format!("execute-batch {name}"),
            Entry::Request(Request::ExecuteBatch {
                plan: batch_plan.clone(),
                bindings,
            }),
        ));
    }

    // Figs. 5, 8 and 9: the translated plans, and Q1 and Q2 optimized
    let seen = Arc::new(Mutex::new(Vec::new()));
    let m = recording_mediator(&seen);
    for (name, rule) in [("fig5 view1", paper::view1()), ("fig5 q1", paper::q1())] {
        out.push((
            name.into(),
            Entry::Request(Request::Execute {
                plan: translate(&rule),
            }),
        ));
    }
    for (name, query) in [("fig8 q1", paper::Q1), ("fig9 q2", paper::Q2)] {
        let (plan, _) = m.optimize(&m.plan_query(query).unwrap(), OptimizerOptions::default());
        out.push((name.into(), Entry::Request(Request::Execute { plan })));
    }

    // what the wrappers are sent for Q1 and Q2, naive and optimized
    seen.lock().unwrap().clear();
    for (query, label) in [(paper::Q1, "q1"), (paper::Q2, "q2")] {
        for (options, level) in [
            (OptimizerOptions::naive(), "naive"),
            (OptimizerOptions::default(), "default"),
            (OptimizerOptions::full(), "full"),
        ] {
            // a refused push still leaves its request in the record
            let _ = m.query(query, options);
            for (i, request) in seen.lock().unwrap().drain(..).enumerate() {
                out.push((
                    format!("pushed {label} {level} {i}"),
                    Entry::Request(request),
                ));
            }
        }
    }

    // the interfaces both wrappers answer `get-interface` with
    let o2 = O2Wrapper::new("o2artifact", fig1_store());
    let wais = WaisWrapper::new("xmlartwork", WaisSource::new("works", &fig1_works()));
    out.push((
        "interface o2artifact".into(),
        Entry::Response(o2.handle(&Request::GetInterface)),
    ));
    out.push((
        "interface xmlartwork".into(),
        Entry::Response(wais.handle(&Request::GetInterface)),
    ));
    out.push((
        "interface every declaration".into(),
        Entry::Response(Response::Interface(every_declaration())),
    ));

    for (name, request) in client_requests() {
        out.push((format!("client {name}"), Entry::Client(request)));
    }
    out
}

/// The corpus as the golden file lays it out: `=== name`, then the text.
fn render(entries: &[(String, Entry)]) -> String {
    entries
        .iter()
        .map(|(name, entry)| format!("=== {name}\n{}\n", entry.text()))
        .collect()
}

#[test]
fn request_bytes_match_the_pinned_corpus() {
    let entries = corpus();
    let actual = render(&entries);
    if actual == GOLDEN {
        return;
    }
    // name the first entry that differs
    let golden: Vec<&str> = GOLDEN.split("\n=== ").collect();
    let now: Vec<&str> = actual.split("\n=== ").collect();
    for (i, (want, got)) in golden.iter().zip(&now).enumerate() {
        assert_eq!(got, want, "entry {i} differs from tests/request_corpus.txt");
    }
    panic!(
        "the corpus has {} entries, tests/request_corpus.txt {}",
        now.len(),
        golden.len()
    );
}

#[test]
fn every_corpus_entry_reads_back_to_its_own_bytes() {
    for (name, entry) in corpus() {
        assert_eq!(entry.again(), entry.text(), "{name}");
    }
}

#[test]
fn the_corpus_covers_what_it_claims() {
    let golden = GOLDEN;
    for tag in [
        "<source ",
        "<bind",
        "<tree>",
        "<select>",
        "<project>",
        "<join>",
        "<djoin>",
        "<union>",
        "<intersect>",
        "<diff>",
        "<group ",
        "<sort>",
        "<map ",
        "<push ",
        "<true/>",
        "<and>",
        "<or>",
        "<not>",
        "<cmp op=\"ge\"",
        "<predicate ",
        "<var ",
        "<const ",
        "<call ",
        "<tsym ",
        "<tvar ",
        "<tlabelvar ",
        "<tgroup ",
        "<ttext ",
        "<node ",
        "<anysym/>",
        "<anylabel/>",
        "<labelvar ",
        "<leaf ",
        "<opt>",
        "<star>",
        "mode=\"collect\"",
        "mode=\"iterate\"",
        "<ref ",
        "<any/>",
        "<execute-batch>",
        "<bindings vars=\"\"><b/></bindings>",
        "<get-document ",
        "<get-interface/>",
        "<interface ",
        "<fmodel ",
        "<fpattern ",
        "<model ",
        "<equivalence ",
        "<operation ",
        "<export ",
        "<query",
        "deadline-ms=",
        "stream=\"chunked\"",
        "<explain>",
        "<stats/>",
        "<shutdown/>",
    ] {
        assert!(golden.contains(tag), "the corpus has no {tag}");
    }
}
