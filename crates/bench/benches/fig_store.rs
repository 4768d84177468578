//! Persistent-store sweep: the Wais source mounted from a segmented
//! on-disk store at n = 10^3 .. 10^6 documents, against the in-memory
//! source as the semantic oracle.
//!
//! Per size the bench measures:
//!
//! - `populate_ns` — bulk-loading a fresh store directory (one durable
//!   commit, index sidecar saved).
//! - `cold_mount_ns` — remounting the existing directory: manifest
//!   replay, committed-byte validation, index sidecar load.
//! - `cold_query_ns` — the fig_index selective query (`contains` on the
//!   unique number token of the last title, then fetching the hit) with
//!   no segment resident: every iteration drops residency first, so the
//!   cost includes faulting segments back in under the budget.
//! - `warm_query_ns` — the same query with segments resident.
//! - `mem_query_ns` — the in-memory oracle answering the same query.
//!
//! The mount runs under a residency budget of a quarter of the on-disk
//! size (floored at 64 KiB), so the 10^6-doc source demonstrably answers
//! out of a RAM window smaller than its data. Every size asserts the
//! store-backed answer trees are byte-identical to the oracle — a
//! divergence aborts the bench.
//!
//! This is what the served benchmark cannot ask: the cold-mount cost and
//! cold/warm/in-memory reads out to 10^6 documents under a budget smaller
//! than the data. Budget discipline (budget below the on-disk size,
//! residency within it) is asserted alongside the equality checks; the
//! timings are printed, not gated.

use std::time::Instant;
use yat_bench::harness;
use yat_store::StoreOptions;
use yat_wais::{generate_works, WaisSource, WorksSpec};

/// Sweep sizes: 10^3 .. 10^6 documents.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// The selective query both sides answer: the unique number token of
/// the last title seeds `contains`, and the hits are fetched as trees.
fn answer(src: &WaisSource, needle: &str) -> Vec<yat_model::Tree> {
    src.contains(needle)
        .expect("contains answers")
        .into_iter()
        .filter_map(|id| src.fetch(id))
        .collect()
}

fn sweep(n: usize) {
    let root = std::env::temp_dir().join(format!("yat-fig-store-{}", std::process::id()));
    let dir = root.join(format!("n{n}"));
    let _ = std::fs::remove_dir_all(&dir);

    let works = generate_works(&WorksSpec {
        works: n,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    let mem = WaisSource::new("works", &works);
    let needle = format!("{}", n - 1);
    let oracle = answer(&mem, &needle);
    assert_eq!(oracle.len(), 1, "the number token hits exactly one work");

    // populate: fresh directory, bulk load, one commit. Segments roll at
    // 64 KiB so even the smallest sweep spans several — a budget can then
    // hold the hot segment resident while the rest page out.
    let seg_opts = StoreOptions {
        segment_target: 64 * 1024,
        ..StoreOptions::default()
    };
    let t = Instant::now();
    let populated =
        WaisSource::open_store("works", &works, &dir, seg_opts).expect("fresh store populates");
    let populate_ns = t.elapsed().as_nanos();
    let disk_bytes = populated.store().expect("store-backed").disk_bytes();
    drop(populated);
    drop(works);

    // cold mount under a budget a quarter of the on-disk size
    let budget = (disk_bytes / 4).max(64 * 1024);
    let opts = StoreOptions { budget, ..seg_opts };
    let t = Instant::now();
    let src = WaisSource::open_store("works", &yat_model::Node::sym("works", vec![]), &dir, opts)
        .expect("existing store mounts");
    let cold_mount_ns = t.elapsed().as_nanos();
    assert_eq!(src.len(), n, "every document survived the remount");

    // byte-identical to the oracle, from a residency window smaller
    // than the data
    assert_eq!(
        answer(&src, &needle),
        oracle,
        "store-backed answer diverges from the in-memory oracle at n={n}"
    );
    let store = src.store().expect("store-backed").clone();
    let resident_bytes = store.stats().resident_bytes;
    assert!(
        budget < disk_bytes,
        "n={n}: the budget ({budget}B) must undercut the data ({disk_bytes}B)"
    );
    assert!(
        resident_bytes <= budget,
        "n={n}: residency {resident_bytes}B exceeds the budget {budget}B"
    );

    // cold: drop residency every iteration, so the segment faults are
    // inside the window; warm: segments stay resident
    let cold_query_ns = harness::measure(|| {
        store.drop_resident();
        answer(&src, &needle)
    })
    .as_nanos();
    let warm_query_ns = harness::measure(|| answer(&src, &needle)).as_nanos();
    let mem_query_ns = harness::measure(|| answer(&mem, &needle)).as_nanos();

    println!(
        "n={n:<8} disk {disk_bytes:>12}B  budget {budget:>11}B  populate {populate_ns:>13} ns  \
         mount {cold_mount_ns:>12} ns  cold {cold_query_ns:>10} ns  warm {warm_query_ns:>10} ns  \
         mem {mem_query_ns:>10} ns"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    for n in SIZES {
        harness::group(&format!("fig_store/n={n}"));
        sweep(n);
    }
}
