//! Property test for the structural index plane: on seeded random
//! collection trees and filters, [`match_filter_indexed`] must produce
//! *exactly* the rows of the walker [`match_filter`] — same bindings,
//! same order — whether the index covers the filter or falls back.
//!
//! Deterministic: the master seed is fixed (override with
//! `YAT_INDEX_SEED=<u64>`). The generator mixes covered shapes
//! (`root[* sub[...]]` with constant leaves, iterate/collect star
//! variables) with shapes that must fall back (extra edges, wildcard
//! subpatterns, `&oid` leaves in the tree), so both sides of the
//! dispatch are exercised; a counter asserts the covered side actually
//! fires. On a disagreement the harness shrinks the collection by
//! halving its children (like `tests/differential.rs`) and reports the
//! master seed plus the smallest failing tree.

use yat::yat_model::{
    match_filter, match_filter_indexed, Edge, MatchOptions, Node, Oid, Pattern, Tree, TreeIndex,
};
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0x1DE_2026;
const CASES: usize = 300;

fn master_seed() -> u64 {
    std::env::var("YAT_INDEX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

const ROOTS: &[&str] = &["works", "coll"];
const SUBS: &[&str] = &["work", "item"];
const FIELDS: &[&str] = &["title", "artist", "style", "year"];
const VALS: &[&str] = &["Nympheas", "Monet", "Impressionist", "x"];

/// One collection member: usually `sub[field[atom]..]`, sometimes a
/// member with a foreign tag, missing fields, duplicate fields, nested
/// extra structure, or non-atomic field content.
fn gen_member(rng: &mut Rng, sub: &str) -> Tree {
    let label = if rng.gen_bool(0.85) {
        sub.to_string()
    } else {
        (*rng.choose(&["other", "work", "item"])).to_string()
    };
    let mut kids = Vec::new();
    for field in FIELDS {
        if rng.gen_bool(0.7) {
            let content = if rng.gen_bool(0.2) {
                // ints: exercises constant matching across atom types
                Node::atom(rng.gen_range(0..3i64))
            } else {
                Node::atom(*rng.choose(VALS))
            };
            kids.push(Node::sym(field.to_string(), vec![content]));
        }
    }
    if rng.gen_bool(0.2) {
        // duplicate field with a different value
        kids.push(Node::elem(*rng.choose(FIELDS), *rng.choose(VALS)));
    }
    if rng.gen_bool(0.15) {
        // nested structure under a non-field tag
        kids.push(Node::sym(
            "history",
            vec![Node::elem(*rng.choose(FIELDS), *rng.choose(VALS))],
        ));
    }
    Node::sym(label, kids)
}

/// A collection tree `root[member..]` with occasional non-member noise:
/// bare atoms, and (rarely) reference leaves that force the index to
/// refuse coverage.
fn gen_tree(rng: &mut Rng, root: &str, sub: &str) -> Tree {
    let n = rng.gen_range(0..12usize);
    let mut kids: Vec<Tree> = (0..n).map(|_| gen_member(rng, sub)).collect();
    if rng.gen_bool(0.2) {
        kids.push(Node::atom(*rng.choose(VALS)));
    }
    if rng.gen_bool(0.1) {
        kids.push(Node::reference(Oid::new("r0")));
    }
    Node::sym(root.to_string(), kids)
}

/// A field edge inside the subpattern: constant leaf (the selective
/// case), variable, bare presence, or optional.
fn gen_field_edge(rng: &mut Rng, field: &str, var: &str) -> Edge {
    let pat = match rng.gen_range(0..4u8) {
        0 => Pattern::elem_const(field, *rng.choose(VALS)),
        1 => Pattern::elem_const(field, rng.gen_range(0..3i64)),
        2 => Pattern::elem_var(field, var),
        _ => Pattern::sym(field, vec![]),
    };
    if rng.gen_bool(0.25) {
        Edge::opt(pat)
    } else {
        Edge::one(pat)
    }
}

/// A collection filter `root[*(var?) sub[...]]`, sometimes deliberately
/// outside the covered shape (second edge, wildcard subpattern) so the
/// fallback dispatch is tested through the same entry point.
fn gen_filter(rng: &mut Rng, root: &str, sub: &str) -> Pattern {
    let nfields = rng.gen_range(0..3usize);
    // fixed distinct variable names per slot (YATL discipline)
    let vars = ["t", "a", "s"];
    let mut edges: Vec<Edge> = (0..nfields)
        .map(|i| {
            let field = FIELDS[rng.gen_range(0..FIELDS.len())];
            gen_field_edge(rng, field, vars[i])
        })
        .collect();
    if rng.gen_bool(0.15) {
        edges.push(Edge::star_collect("rest", Pattern::Wildcard));
    }
    let subpat = if rng.gen_bool(0.1) {
        Pattern::Wildcard // not sym-labeled: must fall back
    } else {
        Pattern::sym(sub, edges)
    };
    let star = match rng.gen_range(0..3u8) {
        0 => Edge::star(subpat),
        1 => Edge::star_iter("w", subpat),
        _ => Edge::star_collect("c", subpat),
    };
    let mut top = vec![star];
    if rng.gen_bool(0.1) {
        // a second edge breaks the covered shape: fallback territory
        top.push(Edge::opt(Pattern::sym("header", vec![])));
    }
    Pattern::sym(root, top)
}

/// Runs one (tree, filter) case; `Err` carries the divergence.
fn check(tree: &Tree, filter: &Pattern, covered: &mut usize) -> Result<(), String> {
    let opts = MatchOptions::default();
    let index = TreeIndex::build(tree);
    let walker = match_filter(tree, filter, opts);
    let (indexed, stats) = match_filter_indexed(tree, filter, opts, &index);
    if stats.covered {
        *covered += 1;
        if stats.candidates > stats.collection {
            return Err(format!(
                "candidate accounting overflows the collection: {stats:?}"
            ));
        }
    }
    if indexed != walker {
        return Err(format!(
            "indexed matching diverges from the walker (covered={}):\n  \
             indexed: {indexed:?}\n  walker: {walker:?}",
            stats.covered
        ));
    }
    Ok(())
}

fn halved(tree: &Tree) -> Tree {
    let half = &tree.children[..tree.children.len() / 2];
    Node::labeled(tree.label.clone(), half.to_vec())
}

#[test]
fn indexed_matching_equals_the_walker_on_random_collections() {
    let mut rng = Rng::seed_from_u64(master_seed());
    let mut covered = 0usize;
    for case in 0..CASES {
        let root = *rng.choose(ROOTS);
        let sub = *rng.choose(SUBS);
        let tree = gen_tree(&mut rng, root, sub);
        let filter = gen_filter(&mut rng, root, sub);
        if let Err(msg) = check(&tree, &filter, &mut covered) {
            // shrink by halving the collection while it keeps failing
            let mut small = tree.clone();
            let mut scratch = 0usize;
            while !small.children.is_empty() {
                let h = halved(&small);
                if check(&h, &filter, &mut scratch).is_err() {
                    small = h;
                } else {
                    break;
                }
            }
            panic!(
                "index matching case {case}/{CASES} (YAT_INDEX_SEED={}) failed: {msg}\n\
                 filter: {filter}\nsmallest failing tree: {small}",
                master_seed()
            );
        }
    }
    // the sweep must exercise the indexed path, not just confirm that
    // fallback equals fallback
    assert!(
        covered > CASES / 4,
        "generator degenerated: only {covered}/{CASES} cases were index-covered"
    );
}

/// The covered fast path and the walker agree on a hand-built selective
/// case — and the index actually prunes: one candidate out of many.
#[test]
fn selective_constant_probe_prunes_candidates() {
    let members: Vec<Tree> = (0..50)
        .map(|i| {
            Node::sym(
                "work",
                vec![
                    Node::elem("title", format!("w{i}")),
                    Node::elem("style", "x"),
                ],
            )
        })
        .collect();
    let tree = Node::sym("works", members);
    let filter = Pattern::sym(
        "works",
        vec![Edge::star_iter(
            "w",
            Pattern::sym("work", vec![Edge::one(Pattern::elem_const("title", "w7"))]),
        )],
    );
    let index = TreeIndex::build(&tree);
    let opts = MatchOptions::default();
    let (rows, stats) = match_filter_indexed(&tree, &filter, opts, &index);
    assert_eq!(rows, match_filter(&tree, &filter, opts));
    assert_eq!(rows.len(), 1);
    assert!(stats.covered);
    assert_eq!(stats.collection, 50);
    assert!(
        stats.candidates < 5,
        "a unique constant should seed few candidates, got {}",
        stats.candidates
    );
}
