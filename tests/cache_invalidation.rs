//! Regression tests for cache-epoch invalidation wired to *store
//! mutations*: a mutation through a shared source handle must be
//! visible to the very next mediator query under a bounded cache — no
//! manual [`Mediator::bump_source_epoch`] call, no stale answer. The
//! wrappers register their epoch cells with the connection at
//! `connect` time; `WaisSource::add_document` / `Store::remove` bump
//! those cells, and the cache refuses entries from the old epoch.

use std::sync::{Arc, RwLock};
use yat::yat_cache::CachePolicy;
use yat::yat_mediator::{Mediator, OptimizerOptions};
use yat::yat_model::{Node, Oid, Tree};
use yat::yat_oql::{art::fig1_store, O2Wrapper, Store};
use yat::yat_wais::{fig1_works, WaisSource, WaisWrapper};
use yat::yat_yatl::paper;

fn shared_mediator() -> (Mediator, Arc<RwLock<Store>>, Arc<RwLock<WaisSource>>) {
    let o2 = Arc::new(RwLock::new(fig1_store()));
    let wais = Arc::new(RwLock::new(WaisSource::new("works", &fig1_works())));
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new_shared("o2artifact", o2.clone())))
        .expect("fresh mediator accepts the O2 wrapper");
    m.connect(Box::new(WaisWrapper::new_shared(
        "xmlartwork",
        wais.clone(),
    )))
    .expect("fresh mediator accepts the Wais wrapper");
    m.load_program(paper::VIEW1).expect("view1 is well-formed");
    m.set_cache_policy(CachePolicy::bounded());
    (m, o2, wais)
}

fn tree_of(out: yat::yat_algebra::EvalOut) -> Tree {
    match out {
        yat::yat_algebra::EvalOut::Tree(t) => t,
        other => panic!("queries answer trees, got {other:?}"),
    }
}

/// Adding a document to the full-text source is visible to the next
/// query: the cached empty answer for "Atlantis" is not served stale.
#[test]
fn wais_mutation_invalidates_cached_answers() {
    let (m, _o2, wais) = shared_mediator();
    let atlantis = r#"
MAKE $t
MATCH artworks WITH doc.work.[ title.$t, more.cplace.$cl ]
WHERE $cl = "Atlantis"
"#;
    let plan = m.plan_query(atlantis).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());

    // cold: nothing was created at Atlantis
    let cold = tree_of(m.execute(&opt).unwrap());
    assert!(
        !cold.to_string().contains("Nympheas"),
        "no work was painted at Atlantis yet: {cold}"
    );

    // warm: the empty answer is served from the cache
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!(
        (m.traffic() - before).round_trips,
        0,
        "warm before mutation"
    );

    // a new Nympheas study painted at Atlantis arrives in the source
    wais.write().unwrap().add_document(Node::sym(
        "work",
        vec![
            Node::elem("artist", "Claude Monet"),
            Node::elem("title", "Nympheas"),
            Node::elem("style", "Impressionist"),
            Node::elem("size", "20 x 60"),
            Node::elem("cplace", "Atlantis"),
        ],
    ));

    // the next query must re-ship and see the new document
    let before = m.traffic();
    let fresh = tree_of(m.execute(&opt).unwrap());
    assert!(
        (m.traffic() - before).round_trips > 0,
        "the mutation must force a re-ship, not a cache hit"
    );
    assert!(
        fresh.to_string().contains("Nympheas"),
        "the new work answers the query: {fresh}"
    );

    // and the fresh answer caches under the new epoch
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!((m.traffic() - before).round_trips, 0, "warm after mutation");
}

/// A source restart must not resurrect cached answers: a store-backed
/// source is mutated *offline* (through an independent mount the
/// mediator never saw), remounted, and re-synced — the remount raises
/// the connection's epoch cell to the store's persisted epoch, so the
/// bounded cache refuses the pre-restart entry and the next query
/// re-ships fresh data.
#[test]
fn remounted_store_invalidates_cached_answers() {
    use yat::yat_store::StoreOptions;
    let dir = std::env::temp_dir().join(format!("yat-remount-inval-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let wais = Arc::new(RwLock::new(
        WaisSource::open_store("works", &fig1_works(), &dir, StoreOptions::default())
            .expect("fresh store populates"),
    ));
    let o2 = Arc::new(RwLock::new(fig1_store()));
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new_shared("o2artifact", o2)))
        .expect("fresh mediator accepts the O2 wrapper");
    m.connect(Box::new(WaisWrapper::new_shared(
        "xmlartwork",
        wais.clone(),
    )))
    .expect("fresh mediator accepts the Wais wrapper");
    m.load_program(paper::VIEW1).expect("view1 is well-formed");
    m.set_cache_policy(CachePolicy::bounded());

    let atlantis = r#"
MAKE $t
MATCH artworks WITH doc.work.[ title.$t, more.cplace.$cl ]
WHERE $cl = "Atlantis"
"#;
    let plan = m.plan_query(atlantis).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::full());

    // cold, then warm from the cache
    let cold = tree_of(m.execute(&opt).unwrap());
    assert!(!cold.to_string().contains("Nympheas"), "{cold}");
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!((m.traffic() - before).round_trips, 0, "warm before restart");

    // the source "goes down": release the mount, then mutate the store
    // through an independent mount the mediator's epoch cell never saw
    *wais.write().unwrap() = WaisSource::new("works", &Node::sym("works", vec![]));
    {
        let mut offline =
            WaisSource::open_store("works", &fig1_works(), &dir, StoreOptions::default())
                .expect("existing store mounts");
        offline.add_document(Node::sym(
            "work",
            vec![
                Node::elem("artist", "Claude Monet"),
                Node::elem("title", "Nympheas"),
                Node::elem("style", "Impressionist"),
                Node::elem("size", "20 x 60"),
                Node::elem("cplace", "Atlantis"),
            ],
        ));
    }

    // the source comes back: remount and re-sync the epoch cells — the
    // persisted epoch in the manifest raises the connection's cell
    *wais.write().unwrap() =
        WaisSource::open_store("works", &fig1_works(), &dir, StoreOptions::default())
            .expect("existing store remounts");
    m.resync_sources();

    // the next query must re-ship and see the offline mutation
    let before = m.traffic();
    let fresh = tree_of(m.execute(&opt).unwrap());
    assert!(
        (m.traffic() - before).round_trips > 0,
        "the remount must force a re-ship, not a stale cache hit"
    );
    assert!(
        fresh.to_string().contains("Nympheas"),
        "the offline-added work answers the query: {fresh}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Removing an object from the O2 store is visible to the next query:
/// Q2's cached rows for the removed artifact are not served stale.
#[test]
fn store_mutation_invalidates_cached_answers() {
    let (m, o2, _wais) = shared_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());

    let cold = tree_of(m.execute(&opt).unwrap());
    assert!(
        cold.to_string().contains("Nympheas"),
        "Q2 answers the affordable impressionist: {cold}"
    );
    let before = m.traffic();
    m.execute(&opt).unwrap();
    assert_eq!(
        (m.traffic() - before).round_trips,
        0,
        "warm before mutation"
    );

    // the museum deaccessions a1 (Nympheas)
    assert!(o2.write().unwrap().remove(&Oid::new("a1")).is_some());

    let before = m.traffic();
    let fresh = tree_of(m.execute(&opt).unwrap());
    assert!(
        (m.traffic() - before).round_trips > 0,
        "the removal must force a re-ship, not a cache hit"
    );
    assert!(
        !fresh.to_string().contains("Nympheas"),
        "the removed artifact must vanish from the answer: {fresh}"
    );
}

/// Set-oriented information passing keeps per-binding cache keys: once
/// Q2's dependent join is warm, a rerun finds every binding cached and
/// ships nothing, and a source-epoch bump re-ships exactly the bindings
/// of the source it invalidated — as one batch again — while the other
/// source's answers stay cached.
#[test]
fn warm_djoin_ships_no_bindings_and_an_epoch_bump_reships_only_its_source() {
    let (m, _o2, _wais) = shared_mediator();
    let plan = m.plan_query(paper::Q2).unwrap();
    let (opt, _) = m.optimize(&plan, OptimizerOptions::default());
    assert!(
        opt.explain().contains("DJoin"),
        "Q2 optimizes to a dependent join:\n{}",
        opt.explain()
    );
    let traffic = |m: &Mediator| {
        (
            m.traffic_of("xmlartwork").unwrap(),
            m.traffic_of("o2artifact").unwrap(),
        )
    };

    // cold: the driving wais push, then both bindings in one o2 batch
    let (wais0, o20) = traffic(&m);
    let cold = tree_of(m.execute(&opt).unwrap());
    let (wais1, o21) = traffic(&m);
    let (cold_wais, cold_o2) = (wais1 - wais0, o21 - o20);
    assert_eq!((cold_wais.round_trips, cold_o2.round_trips), (1, 1));

    // warm: every binding hits, the batch is empty and never leaves
    assert_eq!(tree_of(m.execute(&opt).unwrap()), cold);
    assert_eq!(traffic(&m), (wais1, o21), "a warm DJoin ships nothing");

    // o2's data is declared changed: its bindings — all of them, the
    // request is the cold one byte for byte — go out again; the wais
    // fragment is still served from the cache
    m.bump_source_epoch("o2artifact").unwrap();
    assert_eq!(tree_of(m.execute(&opt).unwrap()), cold);
    let (wais2, o22) = traffic(&m);
    assert_eq!(wais2, wais1, "the wais answer was not invalidated");
    assert_eq!(
        ((o22 - o21).round_trips, (o22 - o21).bytes_sent),
        (1, cold_o2.bytes_sent),
        "exactly o2's bindings re-shipped"
    );

    // and the other way around: a wais bump re-ships the driving push,
    // whose unchanged rows find their o2 bindings still cached
    m.bump_source_epoch("xmlartwork").unwrap();
    assert_eq!(tree_of(m.execute(&opt).unwrap()), cold);
    let (wais3, o23) = traffic(&m);
    assert_eq!((wais3 - wais2).round_trips, 1);
    assert_eq!(o23, o22, "no o2 binding was invalidated");
}
