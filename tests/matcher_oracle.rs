//! A brute-force oracle for the filter matcher: on small random trees and
//! filters, the optimized matcher (with its fast paths, fuel accounting
//! and keyed dedup) must agree with a naive exponential reference
//! implementation — the same rows in the same order.
//!
//! Deterministic: the master seed is fixed (override with
//! `YAT_MATCHER_SEED=<u64>`).

use std::collections::BTreeMap;
use yat::yat_model::{
    match_filter, Binding, BindingRow, Edge, Label, MatchOptions, Node, Occ, Pattern, StarBind,
    Tree,
};

// ------------------------------------------------------------- the oracle

/// Naive matcher: enumerate *all* assignments of filter edges to children
/// (no claimed-bitmap sharing, no fast paths), then dedup.
fn oracle(tree: &Tree, pat: &Pattern) -> Vec<BindingRow> {
    fn node(tree: &Tree, pat: &Pattern) -> Option<Vec<BindingRow>> {
        match pat {
            Pattern::Wildcard => Some(vec![BindingRow::new()]),
            Pattern::TreeVar(v) => {
                let mut r = BindingRow::new();
                r.insert(v.clone(), Binding::Tree(tree.clone()));
                Some(vec![r])
            }
            Pattern::Union(bs) => bs.iter().find_map(|b| node(tree, b)),
            Pattern::Ref(_) => None,
            Pattern::Node { label, edges } => {
                // oid transparency, as documented
                if !matches!(label, yat::yat_model::PLabel::Var(_)) {
                    if let (Label::Oid(_), [only]) = (&tree.label, &*tree.children) {
                        return node(only, pat);
                    }
                }
                let label_bind = match (label, &tree.label) {
                    (yat::yat_model::PLabel::Any, _) => None,
                    (yat::yat_model::PLabel::Sym(p), Label::Sym(s)) if p == s => None,
                    (yat::yat_model::PLabel::AnySym, Label::Sym(_)) => None,
                    (yat::yat_model::PLabel::Var(v), Label::Sym(s)) => Some((v.clone(), s.clone())),
                    (yat::yat_model::PLabel::Const(c), Label::Atom(a)) if c.value_eq(a) => None,
                    (yat::yat_model::PLabel::Atom(t), Label::Atom(a)) if *t == a.atom_type() => {
                        None
                    }
                    _ => return None,
                };
                let rows = edges_match(&tree.children, edges, &vec![false; tree.children.len()])?;
                let mut rows = rows;
                if let Some((v, s)) = label_bind {
                    for r in &mut rows {
                        r.insert(v.clone(), Binding::Label(s.to_string()));
                    }
                }
                Some(rows)
            }
        }
    }

    /// All ways to satisfy `edges` given claimed children — exponential,
    /// but fine at oracle sizes.
    fn edges_match(kids: &[Tree], edges: &[Edge], claimed: &[bool]) -> Option<Vec<BindingRow>> {
        let Some((edge, rest)) = edges.split_first() else {
            return Some(vec![BindingRow::new()]);
        };
        let mut out: Vec<BindingRow> = Vec::new();
        match edge.occ {
            Occ::One | Occ::Opt => {
                let mut found = false;
                for (i, kid) in kids.iter().enumerate() {
                    if claimed[i] {
                        continue;
                    }
                    if let Some(subrows) = node(kid, &edge.pattern) {
                        found = true;
                        let mut c = claimed.to_vec();
                        c[i] = true;
                        if let Some(tails) = edges_match(kids, rest, &c) {
                            for s in &subrows {
                                for t in &tails {
                                    if let Some(m) = merge(s, t) {
                                        out.push(m);
                                    }
                                }
                            }
                        }
                    }
                }
                if !found && edge.occ == Occ::Opt {
                    if let Some(tails) = edges_match(kids, rest, claimed) {
                        out.extend(tails);
                    }
                }
            }
            Occ::Star => {
                match &edge.star_var {
                    Some((v, StarBind::Collect)) => {
                        let mut c = claimed.to_vec();
                        let mut coll = Vec::new();
                        for (i, kid) in kids.iter().enumerate() {
                            if !c[i] && node(kid, &edge.pattern).is_some() {
                                c[i] = true;
                                coll.push(kid.clone());
                            }
                        }
                        if let Some(tails) = edges_match(kids, rest, &c) {
                            for t in &tails {
                                let mut r = t.clone();
                                r.insert(v.clone(), Binding::Coll(coll.clone()));
                                out.push(r);
                            }
                        }
                    }
                    Some((v, StarBind::Iterate)) => {
                        for (i, kid) in kids.iter().enumerate() {
                            if claimed[i] {
                                continue;
                            }
                            if let Some(subrows) = node(kid, &edge.pattern) {
                                let mut c = claimed.to_vec();
                                c[i] = true;
                                if let Some(tails) = edges_match(kids, rest, &c) {
                                    for s in &subrows {
                                        for t in &tails {
                                            if let Some(mut m) = merge(s, t) {
                                                m.insert(v.clone(), Binding::Tree(kid.clone()));
                                                out.push(m);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        if edge.pattern.variables().is_empty() {
                            let mut c = claimed.to_vec();
                            for (i, kid) in kids.iter().enumerate() {
                                if !c[i] && node(kid, &edge.pattern).is_some() {
                                    c[i] = true;
                                }
                            }
                            if let Some(tails) = edges_match(kids, rest, &c) {
                                out.extend(tails);
                            }
                        } else {
                            // iterate semantics
                            for (i, kid) in kids.iter().enumerate() {
                                if claimed[i] {
                                    continue;
                                }
                                if let Some(subrows) = node(kid, &edge.pattern) {
                                    let mut c = claimed.to_vec();
                                    c[i] = true;
                                    if let Some(tails) = edges_match(kids, rest, &c) {
                                        for s in &subrows {
                                            for t in &tails {
                                                if let Some(m) = merge(s, t) {
                                                    out.push(m);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn merge(a: &BindingRow, b: &BindingRow) -> Option<BindingRow> {
        let mut out = a.clone();
        for (k, v) in b {
            match out.get(k) {
                Some(x) if x != v => return None,
                _ => {
                    out.insert(k.clone(), v.clone());
                }
            }
        }
        Some(out)
    }

    node(tree, pat).unwrap_or_default()
}

/// One text per row, in row order, duplicates dropped after their first
/// occurrence — the matcher's own dedup discipline, so order counts.
fn canon(rows: Vec<BindingRow>) -> Vec<String> {
    let keys: Vec<String> = rows
        .iter()
        .map(|r| {
            let m: BTreeMap<String, String> = r
                .iter()
                .map(|(k, v)| {
                    let vk = match v {
                        Binding::Tree(t) => format!("T{t}"),
                        Binding::Label(l) => format!("L{l}"),
                        Binding::Coll(c) => {
                            format!(
                                "C{}",
                                c.iter()
                                    .map(|t| t.to_string())
                                    .collect::<Vec<_>>()
                                    .join(",")
                            )
                        }
                    };
                    (k.clone(), vk)
                })
                .collect();
            format!("{m:?}")
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    keys.into_iter()
        .filter(|k| seen.insert(k.clone()))
        .collect()
}

// ---------------------------------------------------------- the generators

use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0x04AC1E;

fn master_seed() -> u64 {
    std::env::var("YAT_MATCHER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Four labels over up to six children: records with distinct fields
/// and records with repeated ones both occur.
fn sym_name(rng: &mut Rng) -> String {
    (*rng.choose(&['w', 'x', 'y', 'z'])).to_string()
}

fn gen_tree(rng: &mut Rng, depth: u32) -> Tree {
    // at depth 0, or with some probability, a leaf atom
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.5) {
            Node::atom(rng.gen_range(0..3i64))
        } else {
            Node::atom(*rng.choose(&["a", "b"]))
        }
    } else {
        let kids = (0..rng.gen_range(0..7usize))
            .map(|_| gen_tree(rng, depth - 1))
            .collect();
        Node::sym(sym_name(rng), kids)
    }
}

fn gen_filter(rng: &mut Rng, depth: u32) -> Pattern {
    if depth == 0 || rng.gen_bool(0.3) {
        match rng.gen_range(0..3u8) {
            0 => Pattern::Wildcard,
            1 => Pattern::TreeVar((*rng.choose(&['t', 'u', 'v'])).to_string()),
            _ => Pattern::constant(rng.gen_range(0..3i64)),
        }
    } else {
        let edges = (0..rng.gen_range(0..3usize))
            .map(|_| {
                let p = gen_filter(rng, depth - 1);
                match rng.gen_range(0..3u8) {
                    0 => Edge::one(p),
                    1 => Edge::opt(p),
                    _ => Edge::star(p),
                }
            })
            .collect();
        Pattern::sym(sym_name(rng), edges)
    }
}

/// The production matcher agrees with the exponential oracle on the
/// *sequence* of binding rows (the matcher dedups as it goes; the oracle
/// enumerates, then keeps first occurrences). Deterministic randomized
/// sweep: 300 accepted seeded cases.
#[test]
fn matcher_agrees_with_oracle() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed);
    let mut accepted = 0;
    while accepted < 300 {
        let tree = gen_tree(&mut rng, 3);
        let filter = gen_filter(&mut rng, 3);
        // distinct-variable discipline, as YATL requires
        let vars = filter.variables();
        let mut seen = std::collections::BTreeSet::new();
        if !vars.iter().all(|v| seen.insert(v.clone())) {
            continue;
        }
        accepted += 1;

        let fast = match_filter(&tree, &filter, MatchOptions::default());
        let slow = oracle(&tree, &filter);
        assert_eq!(
            canon(fast),
            canon(slow),
            "YAT_MATCHER_SEED={seed}: tree: {tree} filter: {filter}"
        );
    }
}

#[test]
fn oracle_sanity() {
    // the oracle itself reproduces a known case
    let t = Node::sym("x", vec![Node::elem("y", 1), Node::elem("y", 2)]);
    // open matching: `y` (no declared children) matches y[1] and y[2]
    let f = Pattern::sym("x", vec![Edge::star_iter("w", Pattern::sym("y", vec![]))]);
    assert_eq!(oracle(&t, &f).len(), 2);
    assert_eq!(match_filter(&t, &f, MatchOptions::default()).len(), 2);
    let f2 = Pattern::sym("x", vec![Edge::star_iter("w", Pattern::Wildcard)]);
    assert_eq!(oracle(&t, &f2).len(), 2);
    assert_eq!(match_filter(&t, &f2, MatchOptions::default()).len(), 2);
    // and a miss
    let f3 = Pattern::sym("x", vec![Edge::one(Pattern::sym("z", vec![]))]);
    assert!(oracle(&t, &f3).is_empty());
    assert!(match_filter(&t, &f3, MatchOptions::default()).is_empty());
}
