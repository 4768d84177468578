//! Property tests for the hashed-key data plane.
//!
//! Two layers, both seeded and deterministic (override the master seed
//! with `YAT_HASH_SEED=<u64>`):
//!
//! 1. **Key semantics.** On random `Value`s — atoms with numeric
//!    coercion, trees with identified/reference nodes, collections,
//!    nulls — structural-key equality ([`Value::key_eq`]) must coincide
//!    with equality of the canonical [`Value::group_key`] strings, and
//!    equal keys must produce equal [`Value::key_hash`]es.
//!
//! 2. **Operator semantics.** On random binding tables, the hashed
//!    operators — `Tab::dedup` and the `group`/`join` kernels directly,
//!    Union/Intersect/Diff/Group/Join through the evaluator — must
//!    produce `Tab`s identical to the string-key reference
//!    implementation preserved in `prop_hash_keys/baseline.rs`.
//!
//! Generated strings avoid the reference key's metacharacters
//! (`( ) , [ ] ;`): the *string* encoding aliases on them by
//! construction while the hashed encoding (length-prefixed) does not,
//! so they are outside the equivalence the reference defines. The
//! `\u{1}` separator that broke *row-level* concatenation is included —
//! both sides are expected to be immune to it now.
//!
//! On an operator disagreement the harness shrinks the failing table by
//! halving its rows (like `tests/differential.rs`) and reports the
//! master seed plus the smallest failing input.

use std::sync::Arc;
use yat_algebra::{Alg, EvalCtx, FnRegistry, Pred, SkolemRegistry, Tab, Value};
use yat_model::{Atom, Forest, Node, Oid, Tree};
use yat_prng::Rng;

#[path = "prop_hash_keys/baseline.rs"]
mod baseline;

const DEFAULT_SEED: u64 = 0xA5_2026;

fn master_seed() -> u64 {
    std::env::var("YAT_HASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Strings with collision-prone content: the `\u{1}` row separator,
/// empty strings, numeric look-alikes, shared prefixes.
const STRS: &[&str] = &["x", "", "x\u{1}ty", "y\u{1}tz", "42", "1", "N", "xx"];
const SYMS: &[&str] = &["title", "artist", "work", "a"];

fn rand_atom(rng: &mut Rng) -> Atom {
    match rng.gen_range(0..10usize) {
        0 => Atom::Int(rng.gen_range(-3..4i64)),
        // Int/Float pairs that must coerce together
        1 => Atom::Int(1),
        2 => Atom::Float(1.0),
        // -0.0 and 0.0 are distinct keys (Display "-0" vs "0")
        3 => Atom::Float(-0.0),
        4 => Atom::Float(0.0),
        5 => Atom::Float(2.5),
        6 => Atom::Bool(rng.gen_bool(0.5)),
        _ => Atom::Str((*rng.choose(STRS)).to_string()),
    }
}

fn rand_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.gen_bool(0.35) {
        return Node::atom(rand_atom(rng));
    }
    let kids = |rng: &mut Rng, depth: usize| -> Vec<Tree> {
        let n = rng.gen_range(0..3usize);
        (0..n).map(|_| rand_tree(rng, depth - 1)).collect()
    };
    match rng.gen_range(0..5usize) {
        0 => Node::elem(*rng.choose(SYMS), rand_atom(rng)),
        1 | 2 => {
            let c = kids(rng, depth);
            Node::sym(*rng.choose(SYMS), c)
        }
        // same small id pool with varying children: identity must win
        3 => {
            let c = kids(rng, depth);
            Node::oid(Oid::new(format!("o{}", rng.gen_range(0..3u64))), c)
        }
        _ => Node::reference(Oid::new(format!("o{}", rng.gen_range(0..3u64)))),
    }
}

fn rand_value(rng: &mut Rng, depth: usize) -> Value {
    match rng.gen_range(0..8usize) {
        0 => Value::Atom(rand_atom(rng)),
        1 => Value::Label((*rng.choose(SYMS)).to_string()),
        2 => Value::Null,
        3 if depth > 0 => {
            let n = rng.gen_range(0..3usize);
            Value::Coll((0..n).map(|_| rand_value(rng, depth - 1)).collect())
        }
        _ => Value::Tree(rand_tree(rng, depth)),
    }
}

/// Layer 1: hash/key_eq/group_key agree pairwise on random values.
#[test]
fn structural_hash_matches_group_key_equality() {
    let mut rng = Rng::seed_from_u64(master_seed());
    let pool: Vec<Value> = (0..120).map(|_| rand_value(&mut rng, 3)).collect();
    let mut equal_pairs = 0usize;
    for (i, a) in pool.iter().enumerate() {
        assert!(a.key_eq(a), "key_eq must be reflexive: {a:?}");
        assert_eq!(a.key_hash(), a.key_hash(), "key_hash must be stable");
        for b in &pool[i + 1..] {
            let by_string = a.group_key() == b.group_key();
            let by_struct = a.key_eq(b);
            assert_eq!(
                by_string,
                by_struct,
                "group_key equality and key_eq disagree (seed {}):\n  a = {a:?}\n  b = {b:?}",
                master_seed()
            );
            if by_struct {
                equal_pairs += 1;
                assert_eq!(
                    a.key_hash(),
                    b.key_hash(),
                    "key-equal values must hash equal (seed {}):\n  a = {a:?}\n  b = {b:?}",
                    master_seed()
                );
            }
        }
    }
    // the pools are small on purpose; the sweep must actually exercise
    // the equal branch, not just confirm that distinct things differ
    assert!(
        equal_pairs > 20,
        "generator produced too few colliding pairs ({equal_pairs}) to test anything"
    );
}

/// A random duplicate-heavy table over fully random values (trees,
/// collections, nulls included). Cells are drawn from a small per-table
/// pool so dedup/group/join all have real work to do.
fn rand_tab(rng: &mut Rng, cols: &[&str], rows: usize) -> Tab {
    let pool: Vec<Value> = (0..6).map(|_| rand_value(rng, 2)).collect();
    let mut tab = Tab::new(cols.iter().map(|c| c.to_string()).collect());
    for _ in 0..rows {
        tab.push((0..cols.len()).map(|_| rng.choose(&pool).clone()).collect());
    }
    tab
}

/// `Debug` rendering used for comparison: identical construction paths
/// give identical strings, and (unlike `PartialEq`) it is total on
/// floats, so a stray NaN can never mask a real disagreement.
fn render(tab: &Tab) -> String {
    format!("{tab:?}")
}

fn hashed_group(tab: &Tab, keys: &[String]) -> Tab {
    let kidx: Vec<usize> = keys
        .iter()
        .map(|k| tab.col(k).expect("key column"))
        .collect();
    let rest: Vec<usize> = (0..tab.columns().len())
        .filter(|i| !kidx.contains(i))
        .collect();
    let mut cols: Vec<String> = keys.to_vec();
    cols.extend(rest.iter().map(|&i| tab.columns()[i].clone()));
    let mut out = Tab::new(cols);
    for members in yat_algebra::keys::group_indices(tab.raw_rows(), &kidx) {
        let first = tab.row(members[0]);
        let mut row: Vec<Value> = kidx.iter().map(|&i| first[i].clone()).collect();
        for &ci in &rest {
            row.push(Value::Coll(
                members.iter().map(|&ri| tab.row(ri)[ci].clone()).collect(),
            ));
        }
        out.push(row);
    }
    out
}

fn hashed_join(lt: &Tab, rt: &Tab, lkeys: &[usize], rkeys: &[usize]) -> Tab {
    let mut cols = lt.columns().to_vec();
    for c in rt.columns() {
        if cols.contains(c) {
            cols.push(format!("{c}'"));
        } else {
            cols.push(c.clone());
        }
    }
    let mut out = Tab::new(cols);
    for (li, ri) in yat_algebra::keys::join_pairs(lt.raw_rows(), rt.raw_rows(), lkeys, rkeys) {
        let mut row = lt.row(li).to_vec();
        row.extend(rt.row(ri).iter().cloned());
        out.push(row);
    }
    out
}

/// One kernel-level comparison round; returns the name of the first
/// disagreeing operator, if any.
fn kernel_round(tab: &Tab, other: &Tab) -> Option<&'static str> {
    let hashed = {
        let mut t = tab.clone();
        t.dedup();
        t
    };
    if render(&hashed) != render(&baseline::dedup(tab)) {
        return Some("dedup");
    }
    let gkeys = vec!["a".to_string()];
    if render(&hashed_group(tab, &gkeys)) != render(&baseline::group(tab, &gkeys)) {
        return Some("group");
    }
    let (lk, rk) = ([0usize], [0usize]);
    if render(&hashed_join(tab, other, &lk, &rk)) != render(&baseline::join(tab, other, &lk, &rk)) {
        return Some("join");
    }
    None
}

fn halved(tab: &Tab) -> Tab {
    let mut t = Tab::new(tab.columns().to_vec());
    for row in tab.rows().take(tab.len() / 2) {
        t.push(row.to_vec());
    }
    t
}

/// Layer 2a: the hashed kernels against the string-key reference, on
/// tables whose cells are arbitrary values (trees, collections, nulls).
#[test]
fn hashed_kernels_match_string_key_reference() {
    let mut rng = Rng::seed_from_u64(master_seed() ^ 0xbeef);
    for case in 0..40 {
        let n1 = rng.gen_range(0..40usize);
        let n2 = rng.gen_range(0..40usize);
        let tab = rand_tab(&mut rng, &["a", "b"], n1);
        let other = rand_tab(&mut rng, &["c", "d"], n2);
        if let Some(op) = kernel_round(&tab, &other) {
            // shrink by halving until the disagreement disappears
            let (mut small, mut small_other) = (tab.clone(), other.clone());
            loop {
                let (h, ho) = (halved(&small), halved(&small_other));
                if kernel_round(&h, &ho).is_some() {
                    small = h;
                    small_other = ho;
                    continue;
                }
                break;
            }
            panic!(
                "hashed {op} disagrees with string-key reference \
                 (seed {}, case {case});\nsmallest failing input:\n{small:?}\n{small_other:?}",
                master_seed()
            );
        }
    }
}

/// Encodes atom-valued (a, b) rows as a `doc[*row[a[..], b[..]]]`
/// document, so the evaluator's own Bind produces the tables the
/// set-based plans consume.
fn doc_of(rows: &[(Atom, Atom)], a: &str, b: &str) -> Tree {
    Node::sym(
        "doc",
        rows.iter()
            .map(|(x, y)| {
                Node::sym(
                    "row",
                    vec![Node::elem(a, x.clone()), Node::elem(b, y.clone())],
                )
            })
            .collect(),
    )
}

fn rand_doc_rows(rng: &mut Rng, n: usize) -> Vec<(Atom, Atom)> {
    // overlap-heavy: both documents draw from the same small pools
    (0..n)
        .map(|_| {
            (
                Atom::Int(rng.gen_range(0..4i64)),
                Atom::Str((*rng.choose(STRS)).to_string()),
            )
        })
        .collect()
}

/// Layer 2b: the evaluator's set-based operators (which now run on the
/// hashed kernels) against the string-key reference, end to end through
/// Bind.
#[test]
fn eval_set_operators_match_string_key_reference() {
    let mut rng = Rng::seed_from_u64(master_seed() ^ 0xcafe);
    let funcs = FnRegistry::with_builtins();
    let skolems = SkolemRegistry::new();
    for case in 0..25 {
        let n1 = rng.gen_range(0..30usize);
        let n2 = rng.gen_range(0..30usize);
        let rows1 = rand_doc_rows(&mut rng, n1);
        let rows2 = rand_doc_rows(&mut rng, n2);
        let mut forest = Forest::new();
        forest.insert("d1", doc_of(&rows1, "a", "b"));
        forest.insert("d2", doc_of(&rows2, "a", "b"));
        forest.insert("d2j", doc_of(&rows2, "c", "d"));

        let filter_ab = yat_yatl::parse_filter("doc *row [ a: $a, b: $b ]").expect("filter");
        let filter_cd = yat_yatl::parse_filter("doc *row [ c: $c, d: $d ]").expect("filter");
        let bind1 = Alg::bind(Alg::source("d1"), filter_ab.clone());
        let bind2 = Alg::bind(Alg::source("d2"), filter_ab.clone());
        let bind2j = Alg::bind(Alg::source("d2j"), filter_cd.clone());

        let tab = |plan: &Alg| {
            let ctx = EvalCtx::local(&forest, &funcs, &skolems);
            yat_algebra::eval(plan, &ctx)
                .expect("plan evaluates")
                .tab(plan)
                .expect("plan produces a Tab")
        };
        let (t1, t2, t2j) = (tab(&bind1), tab(&bind2), tab(&bind2j));

        let plans: Vec<(&str, Arc<Alg>, Tab)> = vec![
            (
                "union",
                Arc::new(Alg::Union {
                    left: bind1.clone(),
                    right: bind2.clone(),
                }),
                baseline::union(&t1, &t2),
            ),
            (
                "intersect",
                Arc::new(Alg::Intersect {
                    left: bind1.clone(),
                    right: bind2.clone(),
                }),
                baseline::intersect(&t1, &t2),
            ),
            (
                "diff",
                Arc::new(Alg::Diff {
                    left: bind1.clone(),
                    right: bind2.clone(),
                }),
                baseline::diff(&t1, &t2),
            ),
            (
                "group",
                Arc::new(Alg::Group {
                    input: bind1.clone(),
                    keys: vec!["a".to_string()],
                }),
                baseline::group(&t1, &["a".to_string()]),
            ),
            (
                "join",
                Alg::join(bind1.clone(), bind2j.clone(), Pred::var_eq("a", "c")),
                baseline::join(&t1, &t2j, &[t1.col("a").unwrap()], &[t2j.col("c").unwrap()]),
            ),
        ];
        for (name, plan, expected) in &plans {
            let got = tab(plan);
            assert_eq!(
                render(&got),
                render(expected),
                "evaluator {name} disagrees with string-key reference \
                 (seed {}, case {case}, |d1|={}, |d2|={})",
                master_seed(),
                rows1.len(),
                rows2.len()
            );
        }
    }
}
