//! `yat-load` — seeded closed/open-loop load against a live `yat-server`.
//!
//! ```text
//! yat-load --addr HOST:PORT [--clients N] [--queries N] [--seed N]
//!          [--mode closed|open:QPS] [--deadline-ms N] [--stream]
//!          [--verify-scale N] [--p99-max-ms X] [--shutdown] [--json PATH]
//! ```
//!
//! Drives the Q1/Q2 mix. With `--verify-scale N` it answers the same
//! seeded scenario in-process first (built under the same `YAT_*`
//! [`yat_bench::settings`] the server reads) and compares every wire
//! answer byte-for-byte (streamed answers are reassembled first). Exits
//! nonzero on protocol errors, server errors, verification mismatches,
//! or a p99 above `--p99-max-ms` — which is what lets CI use it as a
//! gate. `--shutdown` sends the drain verb when the run completes;
//! `--json` writes the report machine-readably.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use yat_bench::settings::Settings;
use yat_capability::protocol::ServerReply;
use yat_mediator::OptimizerOptions;
use yat_server::{load, Client, LoadMode, LoadSpec};
use yat_yatl::paper;

fn usage() -> ! {
    eprintln!(
        "usage: yat-load --addr HOST:PORT [--clients N] [--queries N] [--seed N] \
         [--mode closed|open:QPS] [--deadline-ms N] [--stream] [--verify-scale N] \
         [--p99-max-ms X] [--shutdown] [--json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut spec = LoadSpec::closed(vec![paper::Q1.to_string(), paper::Q2.to_string()]);
    let mut verify_scale: Option<usize> = None;
    let mut p99_max_ms: Option<f64> = None;
    let mut shutdown = false;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> &str {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("{name} needs a value");
                    usage();
                }
            }
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr").to_string()),
            "--clients" => spec.clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--queries" => spec.queries = value("--queries").parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                spec.mode = match value("--mode") {
                    "closed" => LoadMode::Closed,
                    open => match open.strip_prefix("open:").map(str::parse) {
                        Some(Ok(offered_qps)) => LoadMode::Open { offered_qps },
                        _ => usage(),
                    },
                }
            }
            "--deadline-ms" => {
                spec.deadline_ms = Some(value("--deadline-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--verify-scale" => {
                verify_scale = Some(value("--verify-scale").parse().unwrap_or_else(|_| usage()))
            }
            "--p99-max-ms" => {
                p99_max_ms = Some(value("--p99-max-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--stream" => spec.stream = true,
            "--shutdown" => shutdown = true,
            "--json" => json_path = Some(value("--json").to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let addr: SocketAddr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("yat-load: cannot resolve `{addr}`");
            std::process::exit(2);
        }
    };

    if let Some(scale) = verify_scale {
        // answer the same seeded scenario in-process: the wire must
        // reproduce these bytes exactly
        let reference = match Settings::from_env().scenario(scale) {
            Ok(reference) => reference,
            Err(e) => {
                eprintln!("yat-load: cannot mount the reference store: {e}");
                std::process::exit(1);
            }
        };
        let mut expected = HashMap::new();
        for query in &spec.mix {
            let out = reference
                .query(query, OptimizerOptions::default())
                .expect("reference query answers in-process");
            expected.insert(query.clone(), ServerReply::answer(out).to_xml().to_xml());
        }
        spec.expected = Some(expected);
    }

    let report = load::run(addr, &spec);
    println!(
        "yat-load: {} answered / {} sent in {:.2}s  ({:.1} q/s)  p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  \
         overloaded {}  errors {}  protocol errors {}  mismatches {}",
        report.answered,
        report.sent,
        report.elapsed.as_secs_f64(),
        report.throughput_qps(),
        report.p50_ms(),
        report.p95_ms(),
        report.p99_ms(),
        report.overloaded,
        report.errors,
        report.protocol_errors,
        report.mismatches,
    );
    if spec.stream {
        println!(
            "yat-load: streamed — ttfr p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms",
            report.ttfr_percentile_ms(0.50),
            report.ttfr_percentile_ms(0.95),
            report.ttfr_percentile_ms(0.99),
        );
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\"answered\": {}, \"sent\": {}, \"elapsed_s\": {:.3}, \"throughput_qps\": {:.3}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"overloaded\": {}, \
             \"errors\": {}, \"protocol_errors\": {}, \"mismatches\": {}, \
             \"stream\": {}, \"ttfr_p50_ms\": {:.3}, \"ttfr_p99_ms\": {:.3}}}\n",
            report.answered,
            report.sent,
            report.elapsed.as_secs_f64(),
            report.throughput_qps(),
            report.p50_ms(),
            report.p95_ms(),
            report.p99_ms(),
            report.overloaded,
            report.errors,
            report.protocol_errors,
            report.mismatches,
            spec.stream,
            report.ttfr_percentile_ms(0.50),
            report.ttfr_percentile_ms(0.99),
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("yat-load: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    if shutdown {
        match Client::connect(addr).and_then(|mut c| c.shutdown()) {
            Ok(drained) => println!("yat-load: server drained ({drained} in flight)"),
            Err(e) => {
                eprintln!("yat-load: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut failed = false;
    if !report.clean() {
        eprintln!("yat-load: FAIL — run was not clean");
        failed = true;
    }
    if report.answered as usize != spec.queries {
        eprintln!(
            "yat-load: FAIL — {} of {} queries answered",
            report.answered, spec.queries
        );
        failed = true;
    }
    if let Some(bound) = p99_max_ms {
        if report.p99_ms() > bound {
            eprintln!(
                "yat-load: FAIL — p99 {:.2}ms exceeds the {bound:.2}ms bound",
                report.p99_ms()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
