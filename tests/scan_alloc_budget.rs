//! An allocation budget for the `scan_stream` data plane: the three
//! streamed full scans of the works collection, run in process through
//! `Mediator::query_stream` into a sink that encodes every batch as an
//! `answer-chunk` frame, must stay under a fixed number of heap
//! allocations. `Bind`, `Select` and `Tree` dominate that count; a
//! change that brings back a map per binding row, a `Vec` per template
//! node or a string per Skolem key shows up here before it shows up as
//! lost rows per second.
//!
//! Its own test binary because it counts every allocation the process
//! makes; it holds a single test so no other test thread allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use yat::yat_algebra::{BatchSink, EvalError, EvalOut, Tab};
use yat::yat_capability::protocol::StreamFrame;
use yat::yat_capability::IndexPolicy;
use yat::yat_mediator::{CachePolicy, ExecMode, Mediator, OptimizerOptions};
use yat::yat_model::Tree;
use yat::yat_oql::art::{art_store, ArtSpec};
use yat::yat_oql::O2Wrapper;
use yat::yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat::yat_yatl::paper;

/// Counts allocation calls: fresh allocations and resizes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The `scan_stream` texts: title only, three projected fields, and the
/// same plus a mediator-side `!=` conjunction.
const THREE: &str = "MAKE rows *($t,$a,$s) := row [ title: $t, artist: $a, style: $s ]\n\
                     MATCH works WITH works *work [ title: $t, artist: $a, style: $s ]\n";

fn scan_texts() -> Vec<String> {
    vec![
        "MAKE titles *($t) := t [ $t ]\nMATCH works WITH works *work [ title: $t ]\n".to_string(),
        THREE.to_string(),
        format!(
            "{THREE}WHERE $s != \"Cubist\" AND $a != \"Mary Cassatt\" AND $t != \"Composition No. 7\"\n"
        ),
    ]
}

/// The `scan_stream` federation: 50 artifacts, 4 000 works, data seed
/// 42, indexes on, sequential execution, answer cache off.
fn scan_mediator() -> Mediator {
    let works = generate_works(&WorksSpec {
        works: 4_000,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    let mut m = Mediator::new();
    m.connect(Box::new(O2Wrapper::new(
        "o2artifact",
        art_store(&ArtSpec {
            artifacts: 50,
            persons: 10,
            seed: 42,
        })
        .with_index_policy(IndexPolicy::On),
    )))
    .expect("the O2 wrapper connects");
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new("works", &works).with_index_policy(IndexPolicy::On),
    )))
    .expect("the Wais wrapper connects");
    m.load_program(paper::VIEW1).expect("view1 loads");
    m.set_exec_mode(ExecMode::Sequential);
    m.set_cache_policy(CachePolicy::Off);
    m
}

/// What the server's wire sink does with a batch: encode it as one
/// `answer-chunk` frame.
#[derive(Default)]
struct FrameSink {
    seq: u64,
    bytes: usize,
}

impl FrameSink {
    fn push(&mut self, payload: EvalOut) {
        let mut text = String::new();
        StreamFrame::Chunk {
            seq: self.seq,
            payload,
        }
        .encode(&mut text);
        self.seq += 1;
        self.bytes += text.len();
    }
}

impl BatchSink for FrameSink {
    fn on_columns(&mut self, _columns: &[String]) -> Result<(), EvalError> {
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        self.push(EvalOut::Tab(batch));
        Ok(())
    }

    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
        self.push(EvalOut::Tree(tree.clone()));
        Ok(())
    }
}

/// Streams `text` once, returning the allocations it made and the frame
/// bytes it produced.
fn scan(m: &Mediator, text: &str) -> (u64, usize) {
    let mut sink = FrameSink::default();
    let before = ALLOCS.load(Ordering::Relaxed);
    m.query_stream(text, OptimizerOptions::default(), &mut sink)
        .expect("the scan streams");
    (ALLOCS.load(Ordering::Relaxed) - before, sink.bytes)
}

/// With a `BTreeMap` per binding row, a `Vec` per template node and a
/// memoized string key per Skolem OID, the three texts made 1 053 843
/// allocations (220 458 / 416 621 / 416 764). Slot rows, moving kernels
/// and flat grouping brought them to 377 037 (112 487 / 136 649 /
/// 127 901); child slices built once at their exact length, on one
/// reused stack per decoded frame and per template, to 371 190
/// (110 538 / 134 700 / 125 952). Element sets, which ship each work
/// cut to the fields its texts bind, took them to 262 110 (52 796 /
/// 109 010 / 100 304). A lone child held in place in its node, not in a
/// one-element slice, took them to 201 721 (36 875 / 85 102 / 79 744).
/// The budget is that count plus 10 %: whole documents shipped again
/// (371 190), one map per binding row in `Bind … over`, decoded
/// children pushed into a growing `Vec` and then shrunk to fit, or
/// single-child nodes back in one-element slices (262 110), breaks it.
const BUDGET: u64 = 221_900;

#[test]
fn scan_stream_texts_stay_inside_the_allocation_budget() {
    let m = scan_mediator();
    let mut total = 0;
    let mut per_text = Vec::new();
    for text in scan_texts() {
        // the first call warms one-time state (symbols, plans); the
        // second is the steady state a served workload sees
        let (_, first_bytes) = scan(&m, &text);
        let (allocs, bytes) = scan(&m, &text);
        assert_eq!(bytes, first_bytes, "the same answer both times");
        assert!(bytes > 0, "the scan answers");
        per_text.push(allocs);
        total += allocs;
    }
    println!("allocations per scan text: {per_text:?}, total {total}");
    assert!(
        total <= BUDGET,
        "the three scans made {total} allocations ({per_text:?}); the budget is {BUDGET}"
    );
}
