//! A resident-memory budget for the documents and the sources' access
//! structures at `churn_dashboard` scale (20 000 artifacts, 4 000
//! persons, 20 000 works, data seed 42): the live heap bytes that
//! building each adds must stay under a fixed budget.
//!
//! * the works tree itself (224 806 nodes), which the in-memory Wais
//!   source shares rather than copies;
//! * the in-memory O2 `art` store (objects, extents, field indexes);
//! * the store-backed O2 store, populated once, then remounted under a
//!   residency budget of a quarter of its disk bytes (64 KiB segments):
//!   extents and field indexes are rebuilt in RAM, object state pages;
//! * the in-memory Wais source over an already built works tree
//!   (document handles plus the inverted index);
//! * the store-backed Wais source, populated once, then remounted the
//!   same way (the inverted index loads from its sidecar snapshot).
//!
//! A posting layout that brings back a key copy or an object id per
//! posting, or a tree node that brings back a growable child vector,
//! shows up here before it shows up as `peak_heap_mb`.
//!
//! Its own test binary because it counts every byte the process holds;
//! it holds a single test so no other test thread allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use yat::yat_model::Node;
use yat::yat_oql::art::{art_store, art_store_at, ArtSpec};
use yat::yat_store::StoreOptions;
use yat::yat_wais::{generate_works, WaisSource, WorksSpec};

/// Tracks live heap bytes: allocations add, frees subtract.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;
const SEGMENT_TARGET: u64 = 64 * 1024;

/// Live bytes `build` leaves behind, counting what it returns.
fn retained<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = build();
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    (value, bytes as f64 / MIB)
}

/// A store directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "yat-resident-footprint-{tag}-{}",
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

fn populate() -> StoreOptions {
    StoreOptions {
        segment_target: SEGMENT_TARGET,
        ..StoreOptions::default()
    }
}

/// The remount options: a quarter of the disk bytes resident.
fn budgeted(disk_bytes: u64) -> StoreOptions {
    StoreOptions {
        budget: (disk_bytes / 4).max(SEGMENT_TARGET),
        segment_target: SEGMENT_TARGET,
    }
}

/// Budgets in MiB: the measured live bytes plus 10 % (16.24 / 15.62 /
/// 6.60 / 3.09 / 5.49 MiB; EXPERIMENTS.md, "Compact tree nodes", "One
/// posting-list kernel" and "Lone children held in place").
const WORKS_TREE_MIB: f64 = 17.87;
const ART_MEM_MIB: f64 = 17.2;
const ART_STORE_MIB: f64 = 7.25;
const WAIS_MEM_MIB: f64 = 3.4;
const WAIS_STORE_MIB: f64 = 6.05;

#[test]
fn churn_scale_sources_stay_under_their_resident_budgets() {
    let spec = ArtSpec {
        artifacts: 20_000,
        persons: 4_000,
        seed: 42,
    };
    let (works, works_mib) = retained(|| {
        generate_works(&WorksSpec {
            works: 20_000,
            impressionist_pct: 30,
            optional_pct: 60,
            giverny_pct: 30,
            seed: 42,
        })
    });

    let (art, art_mem) = retained(|| art_store(&spec));
    drop(art);

    let art_dir = TempDir::new("o2");
    let art_disk = {
        let store = art_store_at(&spec, &art_dir.0, populate()).expect("populate o2");
        store.backing_store().expect("store-backed").disk_bytes()
    };
    let (art, art_store_mib) =
        retained(|| art_store_at(&spec, &art_dir.0, budgeted(art_disk)).expect("remount o2"));
    drop(art);

    let (wais, wais_mem) = retained(|| WaisSource::new("works", &works));
    drop(wais);

    let wais_dir = TempDir::new("wais");
    let wais_disk = {
        let source =
            WaisSource::open_store("works", &works, &wais_dir.0, populate()).expect("populate");
        source.store().expect("store-backed").disk_bytes()
    };
    let empty = Node::sym("works", Vec::new());
    let (wais, wais_store_mib) = retained(|| {
        WaisSource::open_store("works", &empty, &wais_dir.0, budgeted(wais_disk))
            .expect("remount wais")
    });
    drop(wais);

    let rows = [
        ("works tree", works_mib, WORKS_TREE_MIB),
        ("art store, in memory", art_mem, ART_MEM_MIB),
        ("art store, store-backed", art_store_mib, ART_STORE_MIB),
        ("wais source, in memory", wais_mem, WAIS_MEM_MIB),
        ("wais source, store-backed", wais_store_mib, WAIS_STORE_MIB),
    ];
    for (name, mib, budget) in rows {
        println!("{name:<28} {mib:6.2} MiB resident (budget {budget:.2} MiB)");
    }
    println!(
        "disk: art {:.2} MiB, wais {:.2} MiB",
        art_disk as f64 / MIB,
        wais_disk as f64 / MIB
    );
    for (name, mib, budget) in rows {
        assert!(
            mib <= budget,
            "{name}: {mib:.2} MiB resident, over its {budget:.2} MiB budget"
        );
    }
}
