//! `yat-benchmark` — the repo benchmark.
//!
//! ```text
//! yat-benchmark --workload <serve_mix|scan_stream|churn_dashboard|fed_tail|all>
//!               [--seed N] [--seconds S] [--trace 0|1]
//!               [--repeat N] [--smoke] [--calibrate] [--emit-contract]
//! ```
//!
//! Builds the workload's federation, serves it from an in-process
//! `yat_server::Server` on a loopback socket, drives it through the
//! public `yat_server::Client`, checks every answer against an
//! in-process oracle, prints every metric as `workload metric value
//! unit` and ends with one JSON object per workload. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics of
//! the traced pass. See `README.md` beside this package.

mod alloc;
mod driver;
mod fixtures;
mod layers;
mod metrics;
mod stats;
mod streams;
mod trace;

use driver::{drive, LoadResult, MutatorResult, Window};
use fixtures::{
    apply_mutation, build, oracle_answers, run_dir, BuildSpec, Fixture, Pacing, Scales, Workload,
};
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, percentile, quartiles};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use streams::{churn_audit_text, fingerprint, Class, QueryText};
use trace::Recorder;
use yat_mediator::OptimizerOptions;
use yat_store::{DocStore, StoreOptions};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// `fed_tail`'s offered rate, frozen: 60 % of the closed-loop capacity
/// of two connections measured once at the seed commit with
/// `--workload fed_tail --calibrate` (see the README for the runs).
const FED_TAIL_RATE_QPS: f64 = 11.0;

/// The staged replay covers at most this many requests.
const REPLAY_QUERIES: usize = 200;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
struct RunConfig {
    workload: Workload,
    seed: u64,
    seconds: f64,
    scales: Scales,
    /// Set-up is repeated (and its median reported) unless smoking.
    repeat_setup: bool,
}

/// What one run reports.
#[derive(Debug)]
struct Report {
    workload: Workload,
    /// Metric name → value, in table order.
    metrics: Vec<(&'static MetricDef, f64)>,
    attempted: u64,
    failed: u64,
    /// Free-form facts printed beside the metrics (sample counts,
    /// fingerprint, where files went).
    notes: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The result object the driver reads from the last line.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        let name = self.workload.name();
        for note in &self.notes {
            println!("# {name} {note}");
        }
        for (m, v) in &self.metrics {
            println!("{name} {} {v} {}", m.name, m.unit);
        }
    }
}

fn window_for(seconds: f64) -> (Duration, Duration) {
    let warmup = (seconds * 0.1).clamp(0.2, 3.0);
    (
        Duration::from_secs_f64(warmup),
        Duration::from_secs_f64(seconds),
    )
}

fn build_spec(cfg: &RunConfig, recorder: Option<std::sync::Arc<Recorder>>) -> BuildSpec {
    BuildSpec {
        workload: cfg.workload,
        scales: cfg.scales,
        seed: cfg.seed,
        fed_rate_qps: Some(FED_TAIL_RATE_QPS),
        recorder,
    }
}

/// Builds the fixture, repeating the whole set-up and keeping the last
/// build; returns the median set-up time. A fast set-up is repeated
/// more often so its median is steadier.
fn timed_setup(cfg: &RunConfig) -> Result<(Fixture, f64), String> {
    let spec = build_spec(cfg, None);
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let fixture = build(&spec)?;
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= 3 && (started.elapsed().as_secs_f64() >= 1.5 || times.len() >= 9);
        if !cfg.repeat_setup || enough {
            return Ok((fixture, median(times)));
        }
        // drains and joins the server, removes the store directory
        drop(fixture);
    }
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    stats::sort(&mut v);
    v
}

/// After the window, `churn_dashboard` quiesces and every dashboard
/// query plus the audit query is asked once more of the served
/// mediator (in process: the wire was checked during the window) and
/// compared with the oracle that replayed the same mutation log.
/// Returns `(attempted, failed)`.
fn churn_final_check(fixture: &Fixture, mutated: &MutatorResult) -> Result<(u64, u64), String> {
    let Some(churn) = &fixture.churn else {
        return Ok((0, 0));
    };
    let mut ids = HashMap::new();
    for op in &mutated.log {
        apply_mutation(op, &churn.oracle_wais, &churn.oracle_o2, &mut ids)
            .map_err(|e| format!("oracle could not replay {op:?}: {e}"))?;
    }
    let mut texts = fixture.texts.clone();
    texts.push(QueryText {
        text: churn_audit_text(),
        class: Class::Cheap,
    });
    let expected = oracle_answers(&churn.oracle, &texts)?;
    let served = fixture.server.mediator();
    let wrong = texts
        .iter()
        .zip(&expected)
        .filter(|(text, want)| {
            served
                .query(&text.text, OptimizerOptions::default())
                .map_or(true, |out| fixtures::answer_bytes(out) != **want)
        })
        .count();
    Ok((texts.len() as u64, wrong as u64))
}

/// `(attempted, failed)` of a driven window: the clients' counts plus,
/// on `churn_dashboard`, the mutations due in the window and the final
/// check.
fn tally(
    fixture: &Fixture,
    load: &LoadResult,
    mutated: Option<&MutatorResult>,
) -> Result<(u64, u64), String> {
    let Some(mutated) = mutated else {
        return Ok((load.attempted, load.failed()));
    };
    let (checked, wrong) = churn_final_check(fixture, mutated)?;
    Ok((
        load.attempted + checked + mutated.latencies_ms.len() as u64,
        load.failed() + wrong + mutated.failed,
    ))
}

fn stream_fingerprint(cfg: &RunConfig, fixture: &Fixture) -> u64 {
    fingerprint(
        cfg.seed,
        &fixture.texts,
        &fixture.sampler,
        fixture.pacing.clients(),
        fixture.churn.is_some(),
    )
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(cfg: &RunConfig) -> Result<Report, String> {
    let (fixture, setup_s) = timed_setup(cfg)?;
    let (warmup, window) = window_for(cfg.seconds);
    alloc::reset_peak();
    let (mut load, mutated) = drive(&fixture, cfg.seed, Window::starting_now(warmup, window));
    // windows shorter than a slice (--smoke) fall back to the one peak
    let peak_heap_mb = if load.heap_peaks_mb.is_empty() {
        alloc::peak_mb()
    } else {
        median(std::mem::take(&mut load.heap_peaks_mb))
    };

    let (attempted, failed) = tally(&fixture, &load, mutated.as_ref())?;
    let mut notes = vec![format!(
        "stream_fingerprint {:016x}",
        stream_fingerprint(cfg, &fixture)
    )];
    if let Some(mutated) = &mutated {
        notes.push(format!("writes {}", mutated.log.len()));
    }

    let latencies = sorted(load.samples.iter().map(|s| s.latency_ms));
    let ttfr = sorted(load.samples.iter().map(|s| s.ttfr_ms));
    let rows: u64 = load.samples.iter().map(|s| s.rows).sum();
    let secs = load.measured_s;
    notes.push(format!(
        "samples {} (p95 leaves {} beyond) attempted {attempted} failed {failed} shed {} setup_s {setup_s} measured_s {secs}",
        latencies.len(),
        latencies.len() - (latencies.len() as f64 * 0.95).ceil() as usize,
        load.shed,
    ));
    let values = [
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        latencies.len() as f64 / secs,
        percentile(&ttfr, 0.50),
        rows as f64 / secs,
        peak_heap_mb,
        setup_s,
    ];
    Ok(Report {
        workload: cfg.workload,
        metrics: END_TO_END.iter().zip(values).collect(),
        attempted: attempted.max(1),
        failed,
        notes,
    })
}

/// Times `put` and `commit` on a probe store beside the workload's own
/// stores (same disk, same options): `(write_us, commit_ms)` medians.
fn store_probe(dir: &std::path::Path) -> Result<(f64, f64), String> {
    let store = DocStore::create(
        &dir.join("probe"),
        StoreOptions {
            segment_target: fixtures::SEGMENT_TARGET,
            ..StoreOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let payload = [0x5au8; 200];
    let (mut puts, mut commits) = (Vec::new(), Vec::new());
    for i in 0u64..40 {
        let t = Instant::now();
        store
            .put(&i.to_be_bytes(), &payload)
            .map_err(|e| e.to_string())?;
        puts.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        store.commit(i + 1).map_err(|e| e.to_string())?;
        commits.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(puts), median(commits)))
}

/// The traced run: the per-layer metrics. Three phases share the run's
/// seconds — an untraced reference window (bare sources), a traced
/// served window (every source behind the decorator), and the staged
/// in-process replay of the stream's first requests.
fn run_traced(cfg: &RunConfig) -> Result<Report, String> {
    let (warmup, _) = window_for(cfg.seconds);
    let phase = |share: f64| Duration::from_secs_f64(cfg.seconds * share);

    // phase A: the untraced reference for trace.overhead_pct
    let untraced_p50 = {
        let fixture = build(&build_spec(cfg, None))?;
        let (load, _) = drive(&fixture, cfg.seed, Window::starting_now(warmup, phase(0.3)));
        median(load.samples.iter().map(|s| s.latency_ms).collect())
    };

    // phase B: served, every source decorated
    let rec = Recorder::new();
    let fixture = build(&build_spec(cfg, Some(rec.clone())))?;
    let m = fixture.server.mediator();
    let stores = fixture.churn.as_ref().map_or(Vec::new(), |c| c.stores());
    let store_before: Vec<_> = stores.iter().map(|s| s.stats()).collect();
    let cache_before = m.cache_stats();
    let served_before = fixture.server.stats().served;
    let (load, mutated) = drive(&fixture, cfg.seed, Window::starting_now(warmup, phase(0.4)));
    let cache = m.cache_stats();
    let server = fixture.server.stats();
    let served = (server.served - served_before).max(1) as f64;
    let queue_wait: Vec<f64> = fixture
        .server
        .spans()
        .iter()
        .filter(|s| s.label == "queue-wait")
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();

    let (mut attempted, mut failed) = tally(&fixture, &load, mutated.as_ref())?;
    let mut writes = Vec::new();
    let mut lateness = load.lateness_ms.clone();
    if let Some(mutated) = &mutated {
        writes = sorted(mutated.latencies_ms.iter().copied());
        lateness.extend(&mutated.lateness_ms);
    }
    stats::sort(&mut lateness);

    // store counters over the served phase, before the replay adds its own
    let mut store = BTreeMap::new();
    if let Some(churn) = &fixture.churn {
        let (mut hits, mut loads, mut evictions, mut bytes_read) = (0, 0, 0, 0);
        let (mut disk, mut live) = (0, 0);
        for (s, before) in stores.iter().zip(&store_before) {
            let now = s.stats();
            hits += now.hits - before.hits;
            loads += now.loads - before.loads;
            evictions += now.evictions - before.evictions;
            bytes_read += now.bytes_read - before.bytes_read;
            disk += s.disk_bytes();
            live += now.live_docs;
        }
        let (write_us, commit_ms) = store_probe(&churn.dir)?;
        store.insert(
            "store.hit_rate",
            100.0 * hits as f64 / (hits + loads).max(1) as f64,
        );
        store.insert("store.segment_loads_per_query", loads as f64 / served);
        store.insert("store.evictions", evictions as f64);
        store.insert("store.bytes_read_per_query", bytes_read as f64 / served);
        store.insert("store.write_us", write_us);
        store.insert("store.commit_ms", commit_ms);
        store.insert(
            "store.disk_bytes_per_live_byte",
            disk as f64 / live.max(1) as f64 / churn.fresh_bytes_per_doc,
        );
    }

    // phase C: the staged replay
    let writes_per_read = mutated
        .as_ref()
        .map_or(0.0, |mu| mu.log.len() as f64 / served);
    let replay = layers::staged_replay(
        &fixture,
        &rec,
        cfg.seed,
        REPLAY_QUERIES,
        phase(0.3),
        writes_per_read,
    )?;
    attempted += replay.queries as u64;
    failed += replay.mismatches;

    let latencies = sorted(load.samples.iter().map(|s| s.latency_ms));
    let cheap = sorted(
        load.samples
            .iter()
            .filter(|s| s.class == Class::Cheap)
            .map(|s| s.latency_ms),
    );
    let traced_p50 = percentile(&latencies, 0.50);
    let frames: u64 = load.samples.iter().map(|s| s.frames).sum();
    let lookups = cache.lookups - cache_before.lookups;
    let failovers: u64 = fixture
        .members
        .iter()
        .filter_map(|name| m.registry().member(name))
        .map(|member| member.cost.snapshot().errors)
        .sum();
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };

    let mut values: BTreeMap<&str, f64> = store;
    values.extend([
        ("server.overhead_ms", traced_p50 - replay.in_process_p50_ms),
        ("server.queue_wait_ms", stats::mean(&queue_wait)),
        ("server.shed", server.shed as f64),
        (
            "server.frames_per_answer",
            frames as f64 / load.samples.len().max(1) as f64,
        ),
        ("yatl.parse_us", replay.parse_us),
        ("mediator.compose_us", replay.compose_us),
        ("mediator.optimize_us", replay.optimize_us),
        ("mediator.rule_firings", replay.rule_firings),
        ("mediator.execute_ms", replay.execute_ms),
        ("mediator.round_trips_per_query", replay.round_trips),
        ("mediator.bytes_per_query", replay.wire_bytes),
        ("mediator.docs_per_query", replay.docs),
        ("capability.wire_ms", replay.wire_ms),
        ("algebra.eval_ms", replay.eval_ms),
        ("algebra.rows_per_query", replay.program_rows),
        ("algebra.programs_compiled", m.programs_compiled() as f64),
        ("xml.answer_serialize_ms", replay.serialize_ms),
        ("xml.answer_parse_ms", replay.parse_answer_ms),
        ("xml.answer_bytes", replay.answer_bytes),
        ("oql.handle_ms", replay.oql.handle_ms),
        ("oql.calls_per_query", replay.oql.calls_per_query),
        ("oql.examined_per_row", replay.oql.examined_per_row),
        ("oql.scans", replay.oql.scans),
        ("wais.handle_ms", replay.wais.handle_ms),
        ("wais.calls_per_query", replay.wais.calls_per_query),
        ("wais.examined_per_row", replay.wais.examined_per_row),
        ("wais.scans", replay.wais.scans),
        ("cache.lookups", lookups as f64),
        (
            "cache.hit_rate",
            100.0 * (cache.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        ),
        (
            "cache.evictions",
            (cache.evictions - cache_before.evictions) as f64,
        ),
        (
            "cache.invalidations",
            (cache.invalidations - cache_before.invalidations) as f64,
        ),
        (
            "cache.bytes_saved_per_query",
            (cache.bytes_saved - cache_before.bytes_saved) as f64 / served,
        ),
        (
            "federate.members_contacted_per_query",
            replay.members_contacted,
        ),
        ("federate.scatter_critical_ms", replay.scatter_critical_ms),
        ("federate.scatter_busy_ms", replay.scatter_busy_ms),
        ("federate.failovers", failovers as f64),
        (
            "loadgen.lateness_p95_ms",
            or_zero(percentile(&lateness, 0.95)),
        ),
        (
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        ),
        ("client.write_p50_ms", or_zero(percentile(&writes, 0.50))),
        ("client.write_p95_ms", or_zero(percentile(&writes, 0.95))),
        ("client.cheap_p95_ms", or_zero(percentile(&cheap, 0.95))),
        (
            "client.failed_share",
            100.0 * failed as f64 / attempted.max(1) as f64,
        ),
    ]);

    // spans are kept in memory until here and written out at the end
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let span_file = dir.join(format!("spans-{}-{}.json", cfg.workload.name(), cfg.seed));
    std::fs::write(&span_file, rec.to_json())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;

    let notes = vec![
        format!("stream_fingerprint {:016x}", stream_fingerprint(cfg, &fixture)),
        format!(
            "served_samples {} untraced_p50_ms {untraced_p50} traced_p50_ms {traced_p50} replayed {} attempted {attempted} failed {failed}",
            latencies.len(),
            replay.queries
        ),
        format!("spans {} -> {}", rec.len(), span_file.display()),
    ];
    Ok(Report {
        workload: cfg.workload,
        metrics: PER_LAYER
            .iter()
            // a layer the workload bypasses reads zero
            .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        attempted: attempted.max(1),
        failed,
        notes,
    })
}

/// Closed-loop capacity of `fed_tail`: the measurement its frozen rate
/// was derived from.
fn calibrate(cfg: &RunConfig) -> Result<(), String> {
    let mut spec = build_spec(cfg, None);
    spec.fed_rate_qps = None;
    let fixture = build(&spec)?;
    let (warmup, window) = window_for(cfg.seconds);
    let (load, _) = drive(&fixture, cfg.seed, Window::starting_now(warmup, window));
    let capacity = load.samples.len() as f64 / load.measured_s;
    println!(
        "{} closed-loop capacity {capacity} 1/s over {} connections; 60% = {}",
        cfg.workload.name(),
        fixture.pacing.clients(),
        0.6 * capacity
    );
    if matches!(fixture.pacing, Pacing::Open { .. }) || load.failed() > 0 {
        return Err("calibration did not run closed-loop and clean".into());
    }
    Ok(())
}

/// `--repeat N`: runs each workload N times on consecutive seeds and
/// applies the driver's acceptance rule to our own numbers — the spread
/// (q3 − q1 over the median, quartiles as Python's
/// `statistics.quantiles(n=4)`) of every end-to-end metric but
/// `setup_s` must stay within its bound.
fn repeat(cfg: &RunConfig, workloads: &[Workload], n: usize) -> Result<bool, String> {
    let mut steady = true;
    for &workload in workloads {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n {
            let run = RunConfig {
                workload,
                seed: cfg.seed + i as u64,
                ..*cfg
            };
            let report = run_untraced(&run)?;
            report.print();
            if !report.correct() {
                return Err(format!("{} failed on seed {}", workload.name(), run.seed));
            }
            for (column, (_, v)) in columns.iter_mut().zip(&report.metrics) {
                column.push(*v);
            }
        }
        for (def, column) in END_TO_END.iter().zip(&columns) {
            let [q1, med, q3] = quartiles(column).ok_or("--repeat needs at least 2 runs")?;
            let spread = (q3 - q1) / med;
            let bound = def.bound.unwrap_or(f64::INFINITY);
            let verdict = if def.name == "setup_s" {
                "exempt"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                steady = false;
                "TOO NOISY"
            };
            println!(
                "{} {} repeat n={n} median {med} q1 {q1} q3 {q3} spread {spread:.4} bound {bound} {verdict}",
                workload.name(),
                def.name
            );
        }
    }
    Ok(steady)
}

fn usage() -> ! {
    eprintln!(
        "usage: yat-benchmark --workload <serve_mix|scan_stream|churn_dashboard|fed_tail|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--calibrate] \
         [--emit-contract]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workloads: Vec<Workload> = Vec::new();
    let mut cfg = RunConfig {
        workload: Workload::ServeMix,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        scales: Scales::FULL,
        repeat_setup: true,
    };
    let (mut traced, mut repeats, mut calibrating) = (false, 0usize, false);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => match value() {
                "all" => workloads = Workload::ALL.to_vec(),
                name => workloads = vec![Workload::parse(name).unwrap_or_else(|| usage())],
            },
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" => repeats = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => {
                cfg.scales = Scales::SMOKE;
                cfg.seconds = 2.0;
                cfg.repeat_setup = false;
            }
            "--calibrate" => calibrating = true,
            "--emit-contract" => {
                print!("{}", metrics::contract_json());
                return;
            }
            _ => usage(),
        }
    }
    if workloads.is_empty() || !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
        usage();
    }

    let outcome = if calibrating {
        cfg.workload = Workload::FedTail;
        calibrate(&cfg).map(|()| true)
    } else if repeats > 0 {
        repeat(&cfg, &workloads, repeats)
    } else {
        run_all(&cfg, &workloads, traced)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("yat-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the selected workloads once each; the last line of output is
/// the last workload's result object. Returns whether every run was
/// correct.
fn run_all(cfg: &RunConfig, workloads: &[Workload], traced: bool) -> Result<bool, String> {
    let mut reports = Vec::new();
    for &workload in workloads {
        let run = RunConfig { workload, ..*cfg };
        let report = if traced {
            run_traced(&run)?
        } else {
            run_untraced(&run)?
        };
        report.print();
        reports.push(report);
    }
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!(
        "result-{}-{}-trace{}.json",
        if workloads.len() == 1 {
            workloads[0].name()
        } else {
            "all"
        },
        cfg.seed,
        u8::from(traced)
    ));
    let lines: Vec<String> = reports
        .iter()
        .map(|r| format!("\"{}\": {}", r.workload.name(), r.to_json()))
        .collect();
    std::fs::write(&file, format!("{{{}}}\n", lines.join(",\n ")))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("# results written to {}", file.display());
    for report in &reports {
        println!("{}", report.to_json());
    }
    Ok(reports.iter().all(Report::correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: every workload builds, serves, verifies and emits
    /// every named metric as a finite number, traced and untraced.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        for workload in Workload::ALL {
            let cfg = RunConfig {
                workload,
                seed: 7,
                seconds: 1.0,
                scales: Scales::SMOKE,
                repeat_setup: false,
            };
            let report = run_untraced(&cfg).expect("untraced smoke run");
            assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
            assert_eq!(report.metrics.len(), END_TO_END.len());
            for (def, v) in &report.metrics {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "{} {} = {v}",
                    workload.name(),
                    def.name
                );
            }
            let traced = run_traced(&cfg).expect("traced smoke run");
            assert_eq!(traced.failed, 0, "{}: {:?}", workload.name(), traced.notes);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            for (def, v) in &traced.metrics {
                assert!(v.is_finite(), "{} {} = {v}", workload.name(), def.name);
            }
            // each workload bypasses the layers it claims to bypass
            let zero = |name: &str| {
                let found = traced.metrics.iter().find(|(m, _)| m.name == name);
                found.expect("named metric is reported").1 == 0.0
            };
            let federated = workload == Workload::FedTail;
            let stored = workload == Workload::ChurnDashboard;
            assert_eq!(zero("cache.lookups"), !stored, "{}", workload.name());
            assert_eq!(zero("store.commit_ms"), !stored, "{}", workload.name());
            assert_eq!(
                zero("federate.members_contacted_per_query"),
                !federated,
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let report = Report {
            workload: Workload::ServeMix,
            metrics: vec![(&END_TO_END[0], 1.25)],
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
