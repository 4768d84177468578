//! Index-plane sweep: selective queries against each of the three index
//! structures — the Wais inverted index, the model's structural
//! [`TreeIndex`], and the O2 per-extent field indexes — timed indexed
//! vs scan at n = 10^3 .. 10^6 documents. The scan paths are the
//! semantic oracle, so every timed pair is also an equality assertion:
//! a divergence aborts the bench.
//!
//! Three entry families, one per index structure:
//!
//! - `wais contains` — a pushed full-text predicate whose needle occurs
//!   in exactly one document (the number token of the last title), the
//!   paper's "selective pushed query". Indexed cost is one posting
//!   probe; scan cost walks every live document.
//! - `wais giverny` — a ~10%-selectivity needle, showing the indexed
//!   cost tracks the *hit count*, not the collection.
//! - `model match` — structural matching of a constant-leaf filter via
//!   [`match_filter_indexed`] (path-hash candidates) vs the full walker.
//! - `oql eq` — an extent eq predicate probing the per-field hash index
//!   vs the extent scan, toggled by the store's [`IndexPolicy`].
//!
//! Index *builds* happen outside the measurement windows: the plane is
//! built around build-once / probe-per-query, and the builds are already
//! exercised (and timed end to end) by the generators.
//!
//! This is the one question the served benchmark cannot ask: whether the
//! indexed cost stays sublinear out to 10^6 documents. The equality
//! asserts are correctness checks; the timings are printed, not gated.

use std::time::Duration;
use yat_bench::harness;
use yat_capability::IndexPolicy;
use yat_model::{match_filter, match_filter_indexed, MatchOptions, Pattern, TreeIndex};
use yat_oql::art::{art_store, title_of, ArtSpec};
use yat_oql::oql;
use yat_wais::{generate_works, WaisSource, WorksSpec};

/// Sweep sizes: 10^3 .. 10^6 documents.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Prints one indexed/scan pair. `indexed` and `scan` must already have
/// been asserted equal by the caller.
fn record(name: &str, n: usize, indexed: Duration, scan: Duration) {
    let (indexed_ns, scan_ns) = (indexed.as_nanos(), scan.as_nanos());
    println!(
        "{name:<14} n={n:<8} indexed {indexed_ns:>12} ns   scan {scan_ns:>12} ns   ({:.1}x)",
        scan_ns as f64 / indexed_ns.max(1) as f64
    );
}

fn wais_sweep(n: usize) {
    let works = generate_works(&WorksSpec {
        works: n,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    let mut src = WaisSource::new("works", &works).with_index_policy(IndexPolicy::On);
    drop(works);

    // the number token of the last title occurs in exactly one document
    // (sizes stop at two digits, artists carry no digits)
    let unique = format!("{}", n - 1);
    for (name, needle) in [
        ("wais contains", unique.as_str()),
        ("wais giverny", "Giverny"),
    ] {
        src.set_index_policy(IndexPolicy::On);
        let hits = src.contains(needle).expect("open policy accepts full text");
        let indexed = harness::measure(|| src.contains(needle).expect("search answers"));
        src.set_index_policy(IndexPolicy::Off);
        assert_eq!(
            hits,
            src.contains(needle).expect("search answers"),
            "indexed and scan hits diverge for `{needle}` at n={n}"
        );
        let scan = harness::measure(|| src.contains(needle).expect("search answers"));
        record(name, n, indexed, scan);
    }
}

fn model_sweep(n: usize) {
    let works = generate_works(&WorksSpec {
        works: n,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    let index = TreeIndex::build(&works);
    // `works[* work[title["Composition No. {n-1}"]]]` — a constant-leaf
    // spine the path-hash lookup turns into a one-candidate probe
    let filter = Pattern::sym(
        "works",
        vec![yat_model::Edge::star_iter(
            "w",
            Pattern::sym(
                "work",
                vec![yat_model::Edge::one(Pattern::elem_const(
                    "title",
                    title_of(n - 1),
                ))],
            ),
        )],
    );
    let opts = MatchOptions::default();
    let (rows, stats) = match_filter_indexed(&works, &filter, opts, &index);
    assert!(stats.covered, "the collection filter must be index-covered");
    assert_eq!(
        rows,
        match_filter(&works, &filter, opts),
        "indexed and walker rows diverge at n={n}"
    );
    let indexed = harness::measure(|| match_filter_indexed(&works, &filter, opts, &index));
    let scan = harness::measure(|| match_filter(&works, &filter, opts));
    record("model match", n, indexed, scan);
}

fn oql_sweep(n: usize) {
    let mut store = art_store(&ArtSpec {
        artifacts: n,
        persons: (n / 5).max(2),
        seed: 42,
    });
    let q = oql::parse(&format!(
        "select t: A.title from A in artifacts where A.title = '{}'",
        title_of(n - 1)
    ))
    .expect("eq query parses");

    store.set_index_policy(IndexPolicy::On);
    let (rows, stats) = oql::eval_stats(&q, &store).expect("eq query answers");
    assert!(stats.indexed, "the eq predicate must probe the field index");
    let indexed = harness::measure(|| oql::eval(&q, &store).expect("eq query answers"));
    store.set_index_policy(IndexPolicy::Off);
    assert_eq!(
        rows,
        oql::eval(&q, &store).expect("eq query answers"),
        "indexed and scan rows diverge at n={n}"
    );
    let scan = harness::measure(|| oql::eval(&q, &store).expect("eq query answers"));
    record("oql eq", n, indexed, scan);
}

fn main() {
    for n in SIZES {
        harness::group(&format!("fig_index/n={n}"));
        wais_sweep(n);
        model_sweep(n);
        oql_sweep(n);
    }
}
