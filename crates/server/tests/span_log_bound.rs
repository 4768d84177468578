//! A long-running server's span log is bounded: it keeps the most recent
//! `SPAN_LOG_CAP` serving-layer spans, so its live heap does not grow with
//! the number of queries it has served.
//!
//! Its own test binary because it counts every allocation the process
//! makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use yat_capability::protocol::ServerReply;
use yat_mediator::Mediator;
use yat_server::{Client, Server, ServerConfig, SPAN_LOG_CAP};
use yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};

/// Live heap bytes: every allocation counted in, every free counted out.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
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

const SCAN: &str = "MAKE out *($t) := r [ $t ] MATCH works WITH works *work [ title: $t ]";

/// Connections querying at once. A loopback round trip still waits out
/// a delayed ACK (~88 ms), so the queries are spread over many
/// connections to keep the run to seconds; fewer than the server's
/// queue capacity, so none is shed.
const CONNECTIONS: usize = 32;

/// Sends `queries` scans, spread evenly over `clients`.
fn serve(clients: &mut [Client], queries: usize) {
    let each = queries.div_ceil(clients.len());
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || {
                for _ in 0..each {
                    match client.query(SCAN) {
                        Ok(ServerReply::Answer { .. }) => {}
                        other => panic!("the scan answers: {other:?}"),
                    }
                }
            });
        }
    });
}

#[test]
fn span_log_keeps_the_most_recent_spans_and_the_heap_stays_flat() {
    let mut mediator = Mediator::new();
    let works = generate_works(&WorksSpec {
        works: 4,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: 42,
    });
    mediator
        .connect(Box::new(WaisWrapper::new(
            "xmlartwork",
            WaisSource::new("works", &works),
        )))
        .expect("fresh mediator accepts the Wais wrapper");
    let handle = Server::spawn(mediator, ServerConfig::default()).expect("server binds");
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(handle.addr()).expect("client connects"))
        .collect();

    // four spans per query: after this the log is full
    serve(&mut clients, SPAN_LOG_CAP / 2);
    let before = LIVE.load(Ordering::Relaxed);
    serve(&mut clients, 2 * SPAN_LOG_CAP);
    let grown = LIVE.load(Ordering::Relaxed) - before;

    let spans = handle.spans();
    assert!(spans.len() <= SPAN_LOG_CAP, "{} spans kept", spans.len());
    assert!(
        spans.windows(2).all(|w| w[0].id < w[1].id),
        "ids stay monotonic"
    );
    assert!(
        spans.iter().any(|s| s.label == "queue-wait"),
        "recent queue waits are still there to average"
    );
    // an unbounded log grows ~1.4 KB per query: ~2.8 MB over this run
    assert!(
        grown < 256 << 10,
        "live heap grew {grown} B over {} queries",
        2 * SPAN_LOG_CAP
    );
}
