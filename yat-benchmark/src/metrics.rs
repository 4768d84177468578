//! The metric and workload tables. `BENCHMARK.json` is generated from
//! them (`--emit-contract`) and a test holds the file to that output,
//! so the names, units, directions and bounds live in one place.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name printed and listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which it
    /// may worsen. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the served mediator sees. Every workload reports all
/// of them (the benchmark contract requires it), so only metrics that
/// are defined and nonzero on all four are here; the write, cheap-class
/// and failure-share figures ride in the per-layer list as `client.*`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_qps", "1/s", Better::Higher, 0.20),
    e2e("ttfr_p50_ms", "ms", Better::Lower, 0.25),
    e2e("rows_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced pass; layer = crate name. What
/// each should move, and where, is in the README's map.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("server.overhead_ms", "ms", Lower),
    layer("server.queue_wait_ms", "ms", Lower),
    layer("server.shed", "count", Lower),
    layer("server.frames_per_answer", "count", Lower),
    layer("yatl.parse_us", "us", Lower),
    layer("mediator.compose_us", "us", Lower),
    layer("mediator.optimize_us", "us", Lower),
    layer("mediator.rule_firings", "count", Lower),
    layer("mediator.execute_ms", "ms", Lower),
    layer("mediator.round_trips_per_query", "count", Lower),
    layer("mediator.bytes_per_query", "B", Lower),
    layer("mediator.docs_per_query", "count", Lower),
    layer("capability.wire_ms", "ms", Lower),
    layer("algebra.eval_ms", "ms", Lower),
    layer("algebra.rows_per_query", "count", Lower),
    layer("algebra.programs_compiled", "count", Lower),
    layer("xml.answer_serialize_ms", "ms", Lower),
    layer("xml.answer_parse_ms", "ms", Lower),
    layer("xml.answer_bytes", "B", Lower),
    layer("oql.handle_ms", "ms", Lower),
    layer("oql.calls_per_query", "count", Lower),
    layer("oql.examined_per_row", "count", Lower),
    layer("oql.scans", "count", Lower),
    layer("wais.handle_ms", "ms", Lower),
    layer("wais.calls_per_query", "count", Lower),
    layer("wais.examined_per_row", "count", Lower),
    layer("wais.scans", "count", Lower),
    layer("cache.lookups", "count", Higher),
    layer("cache.hit_rate", "%", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.invalidations", "count", Lower),
    layer("cache.bytes_saved_per_query", "B", Higher),
    layer("store.hit_rate", "%", Higher),
    layer("store.segment_loads_per_query", "count", Lower),
    layer("store.evictions", "count", Lower),
    layer("store.bytes_read_per_query", "B", Lower),
    layer("store.write_us", "us", Lower),
    layer("store.commit_ms", "ms", Lower),
    layer("store.disk_bytes_per_live_byte", "B/B", Lower),
    layer("federate.members_contacted_per_query", "count", Lower),
    layer("federate.scatter_critical_ms", "ms", Lower),
    layer("federate.scatter_busy_ms", "ms", Lower),
    layer("federate.failovers", "count", Lower),
    layer("loadgen.lateness_p95_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("client.write_p50_ms", "ms", Lower),
    layer("client.write_p95_ms", "ms", Lower),
    layer("client.cheap_p95_ms", "ms", Lower),
    layer("client.failed_share", "%", Lower),
];

/// Why each workload exists, one line each (`BENCHMARK.json`'s `why`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_mix",
        "Q1/Q2 mix, cache off: yatl parse, optimizer, DJoin information passing, the capability wire and both wrappers all block the answer; cache, store and federation are bypassed",
    ),
    (
        "scan_stream",
        "streamed full scans: mediator-side Bind/Select/Tree, XML serialization and chunk framing do the work in one round trip; no DJoin, so join-order changes should not move it",
    ),
    (
        "churn_dashboard",
        "Zipf reads of 64 selective queries beside 20 writes/s on store-backed sources with a bounded cache: cache, index and store in the write direction, working set larger than the store budget",
    ),
    (
        "fed_tail",
        "open loop at a fixed rate over 8 members with simulated latency, 90% shard-prunable cheap queries and 10% heavy ones: the slowest member and queueing set the tail; wrapper CPU is negligible",
    ),
];

/// How long one run measures, seconds (`BENCHMARK.json`'s
/// `run_seconds`): long enough for 200 latency samples per workload
/// while a loopback round trip costs two delayed-ACK timeouts (88 ms).
pub const RUN_SECONDS: u32 = 20;

/// The command the driver runs, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "yat-benchmark/Cargo.toml",
    "--",
];

fn metric_json(m: &MetricDef) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name,
        m.unit,
        m.better.as_str()
    )
}

/// The text of `BENCHMARK.json`.
pub fn contract_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"yat-benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for (name, why) in WORKLOADS {
            assert!(well_formed(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        // regenerate with: cargo run --release --offline --manifest-path
        // yat-benchmark/Cargo.toml -- --emit-contract > BENCHMARK.json
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(on_disk, contract_json());
    }
}
