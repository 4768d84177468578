//! Seeded property test for element-set pushdown: stripping a document
//! to the fields a filter names must not change what the filter binds.
//!
//! Random work documents carry repeated, missing and mixed-content
//! fields, loose text, identified (`&oid`-transparent) fields, reference
//! leaves and a nested `history [ technique ]`; some are identified
//! themselves (`w1[work[…]]`). Random mediator-side
//! filters cover the shapes the element-set rule accepts and every
//! shape it must decline. Two properties hold:
//!
//! * wherever [`element_set`] accepts a filter, matching it against the
//!   stripped document — cut by the algebra's `elements` builtin, and by
//!   the Wais source, which must cut alike — yields the same rows, in the
//!   same order, as matching the whole document;
//! * it accepts none of the declined shapes.
//!
//! Deterministic: the master seed is fixed (override with
//! `YAT_ELEMENTS_SEED=<u64>`).

use yat::yat_algebra::funcs::ELEMENTS;
use yat::yat_algebra::{FnRegistry, Value};
use yat::yat_mediator::rules::elements::element_set;
use yat::yat_model::{
    match_filter, Atom, Edge, Label, MatchOptions, Node, Occ, Oid, PLabel, Pattern, StarBind, Tree,
};
use yat::yat_wais::WaisSource;
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0xE1E5_2026;
const DOCS: usize = 40;
const FILTERS: usize = 300;

/// The field vocabulary: the works' mandatory and optional fields.
const FIELDS: &[&str] = &[
    "artist",
    "title",
    "style",
    "size",
    "cplace",
    "history",
    "technique",
];

const WORDS: &[&str] = &["Monet", "Nympheas", "Impressionist", "Giverny", "Oil"];

fn master_seed() -> u64 {
    std::env::var("YAT_ELEMENTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// One field: usually `name["word"]`; `history` mixes text with a
/// nested `technique`; sometimes wrapped in an identifier.
fn field(rng: &mut Rng, name: &str) -> Tree {
    let word = *rng.choose(WORDS);
    let tree = if name == "history" {
        let mut kids = vec![Node::atom("Painted with")];
        for _ in 0..rng.gen_range(0..3usize) {
            kids.push(Node::elem("technique", *rng.choose(WORDS)));
        }
        if rng.gen_bool(0.5) {
            kids.push(Node::atom("in the studio"));
        }
        Node::sym("history", kids)
    } else if rng.gen_bool(0.1) {
        Node::sym(name, vec![])
    } else {
        Node::elem(name, word)
    };
    if rng.gen_bool(0.1) {
        Node::oid(oid(rng, "o"), vec![tree])
    } else {
        tree
    }
}

/// A work with each field missing, present once or repeated, in a
/// shuffled order, with loose text and reference leaves mixed in.
fn work(rng: &mut Rng) -> Tree {
    let mut kids = Vec::new();
    for name in FIELDS {
        for _ in 0..rng.gen_range(0..3usize) {
            kids.push(field(rng, name));
        }
    }
    if rng.gen_bool(0.3) {
        kids.push(Node::atom(*rng.choose(WORDS)));
    }
    if rng.gen_bool(0.2) {
        kids.push(Node::reference(Oid::new("p1")));
    }
    for i in (1..kids.len()).rev() {
        kids.swap(i, rng.gen_range(0..i + 1));
    }
    Node::sym("work", kids)
}

fn oid(rng: &mut Rng, prefix: &str) -> Oid {
    Oid::new(format!("{prefix}{}", rng.gen_range(0..1000u32)))
}

/// A document: usually a bare work; sometimes an identified one, the
/// work wrapped in one or two identifiers (`w1[work[…]]`, the shape XML
/// `<work id="w1">` converts to), which a filter sees through; sometimes
/// an identifier holding the fields itself (`w1[title, …]`), which no
/// filter rooted at `work` matches.
fn document(rng: &mut Rng) -> Tree {
    let work = work(rng);
    match rng.gen_range(0..10u32) {
        0 | 1 => Node::oid(oid(rng, "w"), vec![work]),
        2 => {
            let inner = Node::oid(oid(rng, "v"), vec![work]);
            Node::oid(oid(rng, "w"), vec![inner])
        }
        3 => Node::oid(oid(rng, "w"), work.children.to_vec()),
        _ => work,
    }
}

/// What sits below a named field in a filter.
fn content(rng: &mut Rng, var: &mut usize) -> Vec<Edge> {
    let mut fresh = || {
        *var += 1;
        format!("v{var}")
    };
    match rng.gen_range(0..6u32) {
        0 => vec![],
        1 => vec![Edge::one(Pattern::Wildcard)],
        2 => vec![Edge::one(Pattern::constant(*rng.choose(WORDS)))],
        3 => vec![Edge::one(Pattern::elem_var("technique", fresh()))],
        4 => vec![Edge::star_iter(fresh(), Pattern::Wildcard)],
        _ => vec![Edge::one(Pattern::TreeVar(fresh()))],
    }
}

/// An edge the rule accepts: a single or optional named child.
fn named_edge(rng: &mut Rng, var: &mut usize) -> Edge {
    let pattern = Pattern::sym(*rng.choose(FIELDS), content(rng, var));
    if rng.gen_bool(0.3) {
        Edge::opt(pattern)
    } else {
        Edge::one(pattern)
    }
}

fn eligible_filter(rng: &mut Rng) -> Pattern {
    let mut var = 0;
    let edges = (0..rng.gen_range(0..4usize))
        .map(|_| named_edge(rng, &mut var))
        .collect();
    Pattern::sym("work", edges)
}

/// A filter the rule must decline, and why.
fn declined_filter(rng: &mut Rng) -> (Pattern, &'static str) {
    let mut var = 100;
    let mut edges: Vec<Edge> = (0..rng.gen_range(0..3usize))
        .map(|_| named_edge(rng, &mut var))
        .collect();
    let named = Pattern::sym(*rng.choose(FIELDS), vec![]);
    let (bad, why) = match rng.gen_range(0..9u32) {
        0 => (
            Edge::star_collect("f", Pattern::Wildcard),
            "star-collect edge",
        ),
        1 => (Edge::star_collect("f", named), "star-collect named edge"),
        2 => (Edge::star_iter("x", named), "star-iterate edge"),
        3 => (Edge::star(named), "structural star edge"),
        4 => (Edge::one(Pattern::Wildcard), "wildcard edge"),
        5 => (
            Edge::one(Pattern::TreeVar("x".into())),
            "tree-variable edge",
        ),
        6 => (
            Edge::one(Pattern::Node {
                label: PLabel::AnySym,
                edges: vec![],
            }),
            "Symbol edge",
        ),
        7 => (Edge::one(Pattern::Ref("Field".into())), "reference edge"),
        _ => (
            Edge::one(Pattern::Node {
                label: PLabel::Var("l".into()),
                edges: vec![Edge::one(Pattern::TreeVar("x".into()))],
            }),
            "label-variable edge",
        ),
    };
    let at = rng.gen_range(0..edges.len() + 1);
    edges.insert(at, bad);
    (Pattern::sym("work", edges), why)
}

fn strip(funcs: &FnRegistry, doc: &Tree, fields: &[&str]) -> Tree {
    let mut args = vec![Value::Tree(doc.clone())];
    args.extend(fields.iter().map(|f| Value::Atom(Atom::Str(f.to_string()))));
    match funcs.call(ELEMENTS, &args) {
        Ok(Value::Tree(t)) => t,
        other => panic!("elements() answered {other:?}"),
    }
}

#[test]
fn stripping_to_the_element_set_keeps_every_binding() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed);
    let funcs = FnRegistry::with_builtins();
    let docs: Vec<Tree> = (0..DOCS).map(|_| document(&mut rng)).collect();
    let source = WaisSource::new("works", &Node::sym("works", docs.clone()));
    let open = MatchOptions::default();
    let (mut accepted, mut with_rows, mut stripped_some) = (0, 0, 0);
    let mut identified_rows = 0;
    for i in 0..FILTERS {
        let filter = eligible_filter(&mut rng);
        let fields: Vec<&str> = element_set(&filter, false)
            .unwrap_or_else(|| panic!("filter {i} `{filter}` is eligible (seed {seed})"))
            .into_iter()
            .collect();
        accepted += 1;
        for (id, doc) in docs.iter().enumerate() {
            let cut = strip(&funcs, doc, &fields);
            assert_eq!(
                source.fetch_elements(id, Some(&fields)).as_ref(),
                Some(&cut),
                "the Wais source cuts like the builtin (seed {seed})"
            );
            stripped_some += usize::from(cut.size() < doc.size());
            let whole = match_filter(doc, &filter, open);
            let rows = match_filter(&cut, &filter, open);
            assert_eq!(
                rows, whole,
                "filter {i} `{filter}` over {doc} cut to {fields:?} (seed {seed})"
            );
            with_rows += usize::from(!whole.is_empty());
            identified_rows += usize::from(!whole.is_empty() && doc.label.as_sym().is_none());
        }
    }
    println!(
        "element-set property: {accepted} filters over {DOCS} documents, \
         {with_rows} matches with rows ({identified_rows} in identified \
         documents), {stripped_some} documents cut"
    );
    assert!(
        identified_rows > 0,
        "generator degenerated: no identified document matched"
    );
    assert!(
        with_rows > FILTERS,
        "generator degenerated: {with_rows} matches"
    );
    assert!(
        stripped_some > FILTERS,
        "generator degenerated: nothing was cut"
    );
}

#[test]
fn the_declined_shapes_are_never_accepted() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEC1);
    for i in 0..FILTERS {
        let (filter, why) = declined_filter(&mut rng);
        assert_eq!(
            element_set(&filter, false),
            None,
            "filter {i} `{filter}` has a {why} (seed {seed})"
        );
        // a closed match claims every child, so no filter is eligible
        let eligible = eligible_filter(&mut rng);
        assert_eq!(element_set(&eligible, true), None, "closed `{eligible}`");
    }
    // label variables at the root, and roots that are not nodes
    let titled = vec![Edge::one(Pattern::elem_var("title", "t"))];
    for filter in [
        Pattern::Node {
            label: PLabel::Var("l".into()),
            edges: titled.clone(),
        },
        Pattern::Node {
            label: PLabel::AnySym,
            edges: titled.clone(),
        },
        Pattern::Wildcard,
        Pattern::TreeVar("w".into()),
        Pattern::Union(vec![Pattern::sym("work", titled)]),
    ] {
        assert_eq!(element_set(&filter, false), None, "`{filter}`");
    }
    // the declined shapes are declined for a reason: a star-collect
    // edge sees the children a cut would drop
    let doc = Node::sym(
        "work",
        vec![
            Node::elem("title", "Nympheas"),
            Node::elem("cplace", "Giverny"),
        ],
    );
    let collect = Pattern::sym(
        "work",
        vec![
            Edge::one(Pattern::elem_var("title", "t")),
            Edge {
                occ: Occ::Star,
                star_var: Some(("f".into(), StarBind::Collect)),
                pattern: Pattern::Wildcard,
            },
        ],
    );
    let cut = strip(&FnRegistry::with_builtins(), &doc, &["title"]);
    assert_ne!(
        match_filter(&doc, &collect, MatchOptions::default()),
        match_filter(&cut, &collect, MatchOptions::default())
    );
    assert!(matches!(cut.label, Label::Sym(_)));
}
