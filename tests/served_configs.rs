//! The paper's queries under every configuration the benchmark serves.
//!
//! Q1 and Q2 at each optimization level of Figs. 8 and 9, and the view
//! queries behind Figs. 4 and 7, are answered by mediators configured —
//! through setters, the way `yat-benchmark`'s fixtures configure theirs —
//! as `serve_mix`/`scan_stream` (sequential, VM, cache off),
//! `churn_dashboard` (sequential, VM, bounded cache) and `fed_tail`
//! (parallel(4), VM, cache off), plus the parallel interpreter streaming
//! through `query_stream`. Each must match the plain in-memory
//! sequential interpreter byte for byte on the wire form of the answer
//! and trip for trip, document for document, byte for byte in what it
//! asks of each source.

use yat::yat_algebra::CollectSink;
use yat::yat_capability::protocol::ServerReply;
use yat::yat_mediator::{
    CachePolicy, ExecEngine, ExecMode, Mediator, MeterSnapshot, OptimizerOptions, StreamPolicy,
};
use yat::yat_yatl::paper;
use yat_bench::figures::pipeline::LEVELS;
use yat_bench::workload::Scenario;

const SOURCES: [&str; 2] = ["o2artifact", "xmlartwork"];

/// Fig. 4: bind the works collection with the figure's filter, rebuild
/// it grouped by artist under Skolem identifiers.
const FIG4_GROUP_BY_ARTIST: &str = "\
MAKE s *&artist($a) := artist [ name: $a, titles *$t ] \
MATCH works WITH works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]";

/// Fig. 7, upper row: vertical navigation from artifacts through the
/// `owners` references into person tuples.
const FIG7_NAVIGATION: &str = "\
MAKE out *($t,$o) := owned [ title: $t, owner: $o, auction: $au ] \
MATCH artifacts WITH set *class: artifact: tuple [ title: $t, \
      owners: list *class: person: tuple [ name: $o, auction: $au ] ]";

/// Fig. 7, lower middle: a structured query over semistructured data —
/// only two of the filter's five variables are used.
const FIG7_PROJECTED_FILTER: &str = "\
MAKE out *($t,$a) := w [ title: $t, artist: $a ] \
MATCH works WITH works *work [ title: $t, artist: $a, style: $s, size: $si, *($fields) ]";

/// One served configuration: how the candidate mediator is set up and
/// whether it answers through the streaming entry point.
struct Config {
    name: &'static str,
    mode: ExecMode,
    engine: ExecEngine,
    cache: CachePolicy,
    streamed: bool,
}

fn configs() -> [Config; 4] {
    [
        Config {
            name: "sequential/vm/cache-off",
            mode: ExecMode::Sequential,
            engine: ExecEngine::Vm,
            cache: CachePolicy::Off,
            streamed: false,
        },
        Config {
            name: "sequential/vm/bounded-cache",
            mode: ExecMode::Sequential,
            engine: ExecEngine::Vm,
            cache: CachePolicy::bounded(),
            streamed: false,
        },
        Config {
            name: "parallel(4)/vm/cache-off",
            mode: ExecMode::Parallel { max_in_flight: 4 },
            engine: ExecEngine::Vm,
            cache: CachePolicy::Off,
            streamed: false,
        },
        Config {
            name: "parallel/interp/streamed",
            mode: ExecMode::Parallel {
                max_in_flight: ExecMode::DEFAULT_LANES,
            },
            engine: ExecEngine::Interp,
            cache: CachePolicy::Off,
            streamed: true,
        },
    ]
}

/// The wire form of `query`'s answer and what answering it asked of each
/// source, on a fresh mediator.
fn answer(
    m: &Mediator,
    query: &str,
    options: OptimizerOptions,
    streamed: bool,
) -> (String, [MeterSnapshot; 2]) {
    m.reset_traffic();
    let out = if streamed {
        let mut sink = CollectSink::new();
        m.query_stream(query, options, &mut sink)
            .expect("the query streams");
        sink.into_answer().expect("the stream delivered an answer")
    } else {
        m.query(query, options).expect("the query answers")
    };
    let traffic = SOURCES.map(|s| m.traffic_of(s).expect("source is connected"));
    (ServerReply::answer(out).to_xml().to_xml(), traffic)
}

#[test]
fn every_served_configuration_matches_the_in_memory_sequential_interpreter() {
    let mut queries: Vec<(String, &str, OptimizerOptions)> = Vec::new();
    for level in LEVELS {
        // Fig. 8 assumes containment for Q1; Fig. 9 does not need it
        queries.push((
            format!("Q1/{}", level.name()),
            paper::Q1,
            level.options(true),
        ));
        queries.push((
            format!("Q2/{}", level.name()),
            paper::Q2,
            level.options(false),
        ));
    }
    for (name, query) in [
        ("fig4", FIG4_GROUP_BY_ARTIST),
        ("fig7/navigation", FIG7_NAVIGATION),
        ("fig7/projected-filter", FIG7_PROJECTED_FILTER),
    ] {
        queries.push((name.to_string(), query, OptimizerOptions::naive()));
        queries.push((name.to_string(), query, OptimizerOptions::default()));
    }

    let scenario = Scenario::at_scale(40);
    let configs = configs();
    for (name, query, options) in &queries {
        // `Mediator::new` fixes the reference: sequential, interpreter,
        // cache off, materialized, in-memory sources
        let (want, want_traffic) = answer(&scenario.mediator(), query, *options, false);
        assert!(want.len() > 40, "{name} answers something: {want}");
        for config in &configs {
            let mut m = scenario.mediator();
            m.set_exec_mode(config.mode);
            m.set_exec_engine(config.engine);
            m.set_cache_policy(config.cache);
            if config.streamed {
                m.set_stream_policy(StreamPolicy::Chunked {
                    batch_rows: 7,
                    max_pending: 2,
                });
            }
            let (got, got_traffic) = answer(&m, query, *options, config.streamed);
            assert_eq!(got, want, "{name} under {}", config.name);
            assert_eq!(
                got_traffic, want_traffic,
                "{name} under {}: per-source traffic",
                config.name
            );
            if config.cache.is_enabled() {
                // and again from the warm cache: same bytes, nothing new
                // asked of any source
                let (warm, warm_traffic) = answer(&m, query, *options, false);
                assert_eq!(warm, want, "{name} under {}, warm", config.name);
                assert_eq!(
                    warm_traffic,
                    [MeterSnapshot::default(); 2],
                    "{name} under {}: a warm cache asks the sources nothing",
                    config.name
                );
            }
        }
    }
}
