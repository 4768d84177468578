//! Property test for the sources' own access structures: under seeded
//! random insert/update/remove sequences, every probe of an O2 field
//! index and every Wais inverted-index lookup must return exactly what a
//! scan of the live data returns — same members, same order.
//!
//! * O2: after every step, each `=`/`<`/`<=`/`>`/`>=` probe through
//!   [`Store::field_index`] equals the extent scan filtered by the probe's
//!   contract, in extent order: `=` under [`Atom::value_eq`] coercion
//!   with NaNs merged, ranges under [`Atom::total_cmp`]. Each sequence
//!   runs in memory and store-backed; the store-backed run remounts
//!   mid-sequence, so the replayed index is held to the same scan.
//! * Wais: after every step, each full-text and field-scoped lookup
//!   through the inverted index equals a scan of the tokenized live
//!   documents. Each sequence runs in memory, store-backed from a loaded
//!   sidecar snapshot, and store-backed from an index rebuilt on remount.
//!
//! Atoms include the awkward ones: `1`/`1.0`, `-0.0`/`0.0`, NaNs, ±∞,
//! integers past 2^53, empty and non-ASCII strings, and duplicates.
//!
//! Deterministic: the master seed is fixed (override with
//! `YAT_SOURCE_INDEX_SEED=<u64>`). On a disagreement the harness shrinks
//! the mutation sequence by halving (like `tests/prop_index_matching.rs`)
//! and reports the master seed plus the smallest failing sequence.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use yat::yat_model::{Atom, Label, Node, Oid, Tree};
use yat::yat_oql::types::{ClassDef, Schema, Type};
use yat::yat_oql::{OVal, Store};
use yat::yat_store::StoreOptions;
use yat::yat_wais::index::DocId;
use yat::yat_wais::WaisSource;
use yat_prng::Rng;

const DEFAULT_SEED: u64 = 0x5EC_2026;
const O2_CASES: usize = 24;
const WAIS_CASES: usize = 16;
const STEPS: usize = 40;

fn master_seed() -> u64 {
    std::env::var("YAT_SOURCE_INDEX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The atom pool: duplicates are likely, and every coercion edge of the
/// index contract is present.
fn gen_atom(rng: &mut Rng) -> Atom {
    match rng.gen_range(0..22u32) {
        0 => Atom::Int(1),
        1 => Atom::Float(1.0),
        2 => Atom::Float(-0.0),
        3 => Atom::Float(0.0),
        4 => Atom::Int(0),
        5 => Atom::Float(f64::NAN),
        6 => Atom::Float(-f64::NAN),
        7 => Atom::Float(f64::INFINITY),
        8 => Atom::Float(f64::NEG_INFINITY),
        9 => Atom::Int(1 << 53),
        10 => Atom::Int((1 << 53) + 1),
        11 => Atom::Int(rng.gen_range(-3..4i64)),
        12 => Atom::Float(rng.gen_range(-3..4i64) as f64 + 0.5),
        13 => Atom::Bool(rng.gen_bool(0.5)),
        14 => Atom::Str(String::new()),
        15 => Atom::Str("Ωμέγα ΟΔΟΣ".into()),
        16 => Atom::Str("café".into()),
        17 => Atom::Str("Σ".into()),
        _ => Atom::Str((*rng.choose(&["Monet", "monet", "a", "b", "Zola"])).into()),
    }
}

// ---------------------------------------------------------------- O2

const EXTENTS: &[(&str, &str)] = &[("Item", "items"), ("Other", "others")];
const FIELDS: &[&str] = &["a", "b", "c"];

fn schema() -> Schema {
    let mut schema = Schema::new();
    for (class, extent) in EXTENTS {
        schema = schema.with_class(ClassDef {
            name: (*class).into(),
            ty: Type::tuple(FIELDS.iter().map(|f| (*f, Type::string())).collect()),
            extent: Some((*extent).into()),
            methods: vec![],
        });
    }
    schema
}

/// One O2 mutation. Targets are picked by position among the live
/// objects (modulo their count), so any subsequence is still valid —
/// which is what lets a failing sequence shrink.
#[derive(Debug, Clone)]
enum O2Op {
    Insert { class: usize, value: OVal },
    Update { pick: usize, value: OVal },
    Remove { pick: usize },
    Remount,
}

/// A tuple value: usually atomic fields, sometimes a missing field or a
/// non-atomic one (which the index must leave out).
fn gen_value(rng: &mut Rng) -> OVal {
    let mut fields = Vec::new();
    for f in FIELDS {
        match rng.gen_range(0..10u32) {
            0 => {}
            1 => fields.push((*f, OVal::Coll(yat::yat_oql::types::CollKind::List, vec![]))),
            _ => fields.push((*f, OVal::Atom(gen_atom(rng)))),
        }
    }
    OVal::tuple(fields)
}

fn gen_o2_ops(rng: &mut Rng) -> Vec<O2Op> {
    (0..STEPS)
        .map(|_| match rng.gen_range(0..20u32) {
            0..=9 => O2Op::Insert {
                class: rng.gen_range(0..EXTENTS.len()),
                value: gen_value(rng),
            },
            10..=13 => O2Op::Update {
                pick: rng.gen_range(0..1000usize),
                value: gen_value(rng),
            },
            14..=18 => O2Op::Remove {
                pick: rng.gen_range(0..1000usize),
            },
            _ => O2Op::Remount,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

const OPS: &[Op] = &[Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge];

/// The `=` probe contract: [`Atom::value_eq`]'s coercion through `f64`
/// (`1 = 1.0`, `-0.0 = 0.0`), with all NaNs one value.
fn probe_eq(a: &Atom, v: &Atom) -> bool {
    match (a, v) {
        (Atom::Bool(x), Atom::Bool(y)) => x == y,
        (Atom::Str(x), Atom::Str(y)) => x == y,
        _ => match (a.as_f64(), v.as_f64()) {
            (Some(x), Some(y)) => x == y || (x.is_nan() && y.is_nan()),
            _ => false,
        },
    }
}

fn op_holds(op: Op, a: &Atom, v: &Atom) -> bool {
    let ord = a.total_cmp(v);
    match op {
        Op::Eq => probe_eq(a, v),
        Op::Lt => ord.is_lt(),
        Op::Le => ord.is_le(),
        Op::Gt => ord.is_gt(),
        Op::Ge => ord.is_ge(),
    }
}

/// The probe through the store's field index, resolved to objects.
fn probe(store: &Store, extent: &str, field: &str, op: Op, v: &Atom) -> Vec<Oid> {
    let Some(ix) = store.field_index(extent, field) else {
        return Vec::new();
    };
    let ords = match op {
        Op::Eq => ix.eq_candidates(v),
        Op::Lt => ix.range_candidates(Bound::Unbounded, Bound::Excluded(v)),
        Op::Le => ix.range_candidates(Bound::Unbounded, Bound::Included(v)),
        Op::Gt => ix.range_candidates(Bound::Excluded(v), Bound::Unbounded),
        Op::Ge => ix.range_candidates(Bound::Included(v), Bound::Unbounded),
    };
    store.extent_members(extent, &ords)
}

/// The scan: the extent in order, kept where the field holds an atom
/// that satisfies the probe.
fn scan(store: &Store, extent: &str, field: &str, op: Op, v: &Atom) -> Vec<Oid> {
    store
        .extent(extent)
        .unwrap_or(&[])
        .iter()
        .filter(|oid| {
            let obj = store.object(oid).expect("extent member resolves");
            matches!(obj.value.field(field), Some(OVal::Atom(a)) if op_holds(op, a, v))
        })
        .cloned()
        .collect()
}

/// Every probe of every `(extent, field)` against the scan, plus the
/// posting count against the number of atomic values.
fn check_o2(store: &Store, probes: &[Atom]) -> Result<(), String> {
    for (_, extent) in EXTENTS {
        for field in FIELDS {
            let atomic = store
                .extent(extent)
                .unwrap_or(&[])
                .iter()
                .filter(|oid| {
                    let obj = store.object(oid).expect("extent member resolves");
                    matches!(obj.value.field(field), Some(OVal::Atom(_)))
                })
                .count();
            let entries = store
                .field_index(extent, field)
                .map_or(0, |ix| ix.entries());
            if entries != atomic {
                return Err(format!(
                    "{extent}.{field}: {entries} postings for {atomic} atomic values"
                ));
            }
            for v in probes {
                for &op in OPS {
                    let (got, want) = (
                        probe(store, extent, field, op, v),
                        scan(store, extent, field, op, v),
                    );
                    if got != want {
                        return Err(format!(
                            "{extent}.{field} {op:?} {v:?}: index {got:?}, scan {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// A store directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "yat-prop-source-index-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_store() -> StoreOptions {
    StoreOptions {
        budget: 4 * 1024,
        segment_target: 1024,
    }
}

/// Replays `ops` on one O2 store — in memory when `dir` is `None`,
/// store-backed (remounting on `Remount`) otherwise — checking every
/// probe after every step.
fn run_o2(ops: &[O2Op], dir: Option<&Path>, probes: &[Atom]) -> Result<(), String> {
    let mount = || match dir {
        None => Store::new(schema()),
        Some(d) => Store::open_store(schema(), d, small_store()).expect("mount"),
    };
    let mut store = mount();
    let mut live: Vec<(Oid, usize)> = Vec::new();
    let mut next = 0usize;
    for (step, op) in ops.iter().enumerate() {
        match op {
            O2Op::Insert { class, value } => {
                let oid = Oid::new(format!("o{next}"));
                next += 1;
                store
                    .insert(oid.clone(), EXTENTS[*class].0, value.clone())
                    .map_err(|e| e.to_string())?;
                live.push((oid, *class));
            }
            O2Op::Update { pick, value } if !live.is_empty() => {
                let (oid, class) = live[pick % live.len()].clone();
                store.remove(&oid).ok_or("update target vanished")?;
                store
                    .insert(oid.clone(), EXTENTS[class].0, value.clone())
                    .map_err(|e| e.to_string())?;
                // a re-insert moves the object to the end of its extent
                live.retain(|(o, _)| *o != oid);
                live.push((oid, class));
            }
            O2Op::Remove { pick } if !live.is_empty() => {
                let (oid, _) = live.remove(pick % live.len());
                store.remove(&oid).ok_or("remove target vanished")?;
            }
            O2Op::Remount if dir.is_some() => {
                drop(store);
                store = mount();
            }
            _ => {}
        }
        check_o2(&store, probes).map_err(|e| format!("after step {step} ({op:?}): {e}"))?;
    }
    Ok(())
}

/// Halves a failing sequence while it keeps failing: first the prefix,
/// then the suffix.
fn shrink<T: Clone>(ops: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut ops = ops;
    while ops.len() > 1 {
        let mid = ops.len() / 2;
        if fails(&ops[..mid]) {
            ops.truncate(mid);
        } else if fails(&ops[mid..]) {
            ops.drain(..mid);
        } else {
            break;
        }
    }
    ops
}

#[test]
fn o2_field_index_probes_equal_the_extent_scan() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed);
    let dir = TempDir::new("o2");
    for case in 0..O2_CASES {
        let ops = gen_o2_ops(&mut rng);
        let probes: Vec<Atom> = (0..8).map(|_| gen_atom(&mut rng)).collect();
        for backed in [false, true] {
            let _ = std::fs::remove_dir_all(&dir.0);
            let at = backed.then_some(dir.0.as_path());
            if let Err(e) = run_o2(&ops, at, &probes) {
                let small = shrink(ops.clone(), |ops| {
                    let _ = std::fs::remove_dir_all(&dir.0);
                    run_o2(ops, at, &probes).is_err()
                });
                let _ = std::fs::remove_dir_all(&dir.0);
                let why = run_o2(&small, at, &probes).err().unwrap_or(e);
                panic!(
                    "O2 index diverges from the scan (YAT_SOURCE_INDEX_SEED={seed}, case {case}, \
                     store-backed: {backed}): {why}\nsmallest sequence: {small:#?}"
                );
            }
        }
    }
}

// -------------------------------------------------------------- Wais

const WAIS_FIELDS: &[&str] = &["title", "artist", "style", "technique", "history"];

fn gen_text(rng: &mut Rng) -> Atom {
    const WORDS: &[&str] = &[
        "Monet",
        "monet",
        "Giverny",
        "oil",
        "canvas",
        "ΟΔΟΣ",
        "ΣΟΦΙΑ",
        "İstanbul",
        "straße",
        "café",
        "n°7",
        "29.2",
        "x",
        "",
        " ,; ",
    ];
    if rng.gen_bool(0.2) {
        return gen_atom(rng);
    }
    let n = rng.gen_range(1..4usize);
    let words: Vec<&str> = (0..n).map(|_| *rng.choose(WORDS)).collect();
    Atom::Str(words.join(if rng.gen_bool(0.5) { " " } else { "-" }))
}

/// A `work[..]` document: fields with text, a nested `history[technique]`,
/// stray atoms in mixed content, and occasional duplicate fields.
fn gen_doc(rng: &mut Rng) -> Tree {
    let mut kids = Vec::new();
    for f in &WAIS_FIELDS[..3] {
        if rng.gen_bool(0.8) {
            kids.push(Node::sym(*f, vec![Node::atom(gen_text(rng))]));
        }
    }
    if rng.gen_bool(0.5) {
        kids.push(Node::sym(
            "history",
            vec![
                Node::atom(gen_text(rng)),
                Node::sym("technique", vec![Node::atom(gen_text(rng))]),
            ],
        ));
    }
    if rng.gen_bool(0.3) {
        kids.push(Node::atom(gen_text(rng)));
    }
    if rng.gen_bool(0.2) {
        kids.push(Node::sym(
            *rng.choose(WAIS_FIELDS),
            vec![Node::atom(gen_text(rng))],
        ));
    }
    Node::sym("work", kids)
}

#[derive(Debug, Clone)]
enum WaisOp {
    Add(Tree),
    Update { pick: usize, doc: Tree },
    Remove { pick: usize },
}

fn gen_wais_ops(rng: &mut Rng) -> Vec<WaisOp> {
    (0..STEPS)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=4 => WaisOp::Add(gen_doc(rng)),
            5..=6 => WaisOp::Update {
                pick: rng.gen_range(0..1000usize),
                doc: gen_doc(rng),
            },
            _ => WaisOp::Remove {
                pick: rng.gen_range(0..1000usize),
            },
        })
        .collect()
}

/// The reference tokenizer: an atom's display text, split on
/// non-alphanumerics, each word lowercased.
fn ref_tokens(a: &Atom) -> Vec<String> {
    a.to_string()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

fn subtree_tokens(t: &Tree, out: &mut Vec<String>) {
    if let Label::Atom(a) = &t.label {
        out.extend(ref_tokens(a));
    }
    for c in &t.children {
        subtree_tokens(c, out);
    }
}

/// The tokens a document offers to `field`: its whole text for `""`,
/// else the text under every element tagged `field` reachable through
/// element children.
fn field_tokens(doc: &Tree, field: &str) -> Vec<String> {
    fn walk(t: &Tree, field: &str, out: &mut Vec<String>) {
        for c in &t.children {
            if let Some(tag) = c.label.as_sym() {
                if tag == field {
                    subtree_tokens(c, out);
                }
                walk(c, field, out);
            }
        }
    }
    let mut out = Vec::new();
    if field.is_empty() {
        subtree_tokens(doc, &mut out);
    } else {
        walk(doc, field, &mut out);
    }
    out
}

fn scan_wais(docs: &BTreeMap<DocId, Tree>, field: &str, needle: &str) -> Vec<DocId> {
    let wanted = ref_tokens(&Atom::Str(needle.into()));
    if wanted.is_empty() {
        return Vec::new();
    }
    docs.iter()
        .filter(|(_, doc)| {
            let have = field_tokens(doc, field);
            wanted.iter().all(|w| have.contains(w))
        })
        .map(|(id, _)| *id)
        .collect()
}

/// Every needle under every field, through the source's inverted index,
/// against the scan of the live documents the model holds.
fn check_wais(
    source: &WaisSource,
    docs: &BTreeMap<DocId, Tree>,
    needles: &[String],
) -> Result<(), String> {
    if source.ids() != docs.keys().copied().collect::<Vec<_>>() {
        return Err(format!("live ids {:?}", source.ids()));
    }
    for needle in needles {
        let (got, want) = (source.contains(needle)?, scan_wais(docs, "", needle));
        if got != want {
            return Err(format!(
                "contains({needle:?}): index {got:?}, scan {want:?}"
            ));
        }
        for field in WAIS_FIELDS.iter().chain(&["nosuch"]) {
            let (got, want) = (
                source.search_field(field, needle)?,
                scan_wais(docs, field, needle),
            );
            if got != want {
                return Err(format!(
                    "lookup({field}, {needle:?}): index {got:?}, scan {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
enum WaisMount {
    Mem,
    /// Store-backed, remounted once before the sequence: the index comes
    /// from the sidecar snapshot.
    Loaded,
    /// Store-backed, remounted halfway with the sidecar deleted: the
    /// index is rebuilt from the documents.
    Rebuilt,
}

fn run_wais(
    initial: &[Tree],
    ops: &[WaisOp],
    mount: WaisMount,
    dir: &Path,
    needles: &[String],
) -> Result<(), String> {
    let root = Node::sym("works", initial.to_vec());
    let open = |root: &Tree| WaisSource::open_store("works", root, dir, small_store());
    let mut source = match mount {
        WaisMount::Mem => WaisSource::new("works", &root),
        WaisMount::Loaded => {
            drop(open(&root).expect("populate"));
            open(&Node::sym("works", vec![])).expect("remount")
        }
        WaisMount::Rebuilt => open(&root).expect("populate"),
    };
    let mut docs: BTreeMap<DocId, Tree> = initial.iter().cloned().enumerate().collect();
    check_wais(&source, &docs, needles).map_err(|e| format!("after mount: {e}"))?;
    for (step, op) in ops.iter().enumerate() {
        match op {
            WaisOp::Add(doc) => {
                let id = source.add_document(doc.clone());
                docs.insert(id, doc.clone());
            }
            WaisOp::Update { pick, doc } if !docs.is_empty() => {
                let id = *docs.keys().nth(pick % docs.len()).expect("in range");
                source.remove_document(id).ok_or("update target vanished")?;
                docs.remove(&id);
                let id = source.add_document(doc.clone());
                docs.insert(id, doc.clone());
            }
            WaisOp::Remove { pick } if !docs.is_empty() => {
                let id = *docs.keys().nth(pick % docs.len()).expect("in range");
                source.remove_document(id).ok_or("remove target vanished")?;
                docs.remove(&id);
            }
            _ => {}
        }
        if matches!(mount, WaisMount::Rebuilt) && step == ops.len() / 2 {
            drop(source);
            std::fs::remove_file(dir.join("wais.index.sidecar")).ok();
            source = open(&Node::sym("works", vec![])).expect("remount");
        }
        check_wais(&source, &docs, needles)
            .map_err(|e| format!("after step {step} ({op:?}): {e}"))?;
    }
    Ok(())
}

#[test]
fn wais_inverted_index_lookups_equal_the_token_scan() {
    let seed = master_seed();
    let mut rng = Rng::seed_from_u64(seed ^ 0x3A15);
    let dir = TempDir::new("wais");
    for case in 0..WAIS_CASES {
        let initial: Vec<Tree> = (0..rng.gen_range(0..6usize))
            .map(|_| gen_doc(&mut rng))
            .collect();
        let ops = gen_wais_ops(&mut rng);
        let mut needles: Vec<String> = (0..6)
            .map(|_| match gen_text(&mut rng) {
                Atom::Str(s) => s,
                other => other.to_string(),
            })
            .collect();
        needles.extend(["MONET giverny".to_string(), String::new(), "σοφια".into()]);
        for mount in [WaisMount::Mem, WaisMount::Loaded, WaisMount::Rebuilt] {
            let _ = std::fs::remove_dir_all(&dir.0);
            if let Err(e) = run_wais(&initial, &ops, mount, &dir.0, &needles) {
                let small = shrink(ops.clone(), |ops| {
                    let _ = std::fs::remove_dir_all(&dir.0);
                    run_wais(&initial, ops, mount, &dir.0, &needles).is_err()
                });
                let _ = std::fs::remove_dir_all(&dir.0);
                let why = run_wais(&initial, &small, mount, &dir.0, &needles)
                    .err()
                    .unwrap_or(e);
                panic!(
                    "Wais index diverges from the scan (YAT_SOURCE_INDEX_SEED={seed}, case {case}, \
                     {mount:?}): {why}\ninitial: {initial:?}\nsmallest sequence: {small:#?}"
                );
            }
        }
    }
}
