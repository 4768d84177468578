//! Closed-loop load generation against a live `yat-server`.
//!
//! A fixed population of clients each wait for an answer before asking
//! again — throughput adapts to the server, latency stays honest. This
//! is the smoke verifier behind `yat-load` and the server tests; the
//! open-loop generator is the repo benchmark's (`yat-benchmark`).
//!
//! Everything is seeded: the per-client query mix is a pure function of
//! `seed` and the client index, so two runs against equivalent servers
//! issue byte-identical request streams.

use crate::client::Client;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use yat_capability::protocol::ServerReply;
use yat_capability::xml::WireError;
use yat_prng::Rng;

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total queries across all clients.
    pub queries: usize,
    /// Seed for the per-client query mix.
    pub seed: u64,
    /// Negotiate `stream="chunked"` on every query: answers arrive as
    /// chunk frames and are reassembled client-side (byte-verification
    /// against `expected` still applies to the reassembled answer), and
    /// time-to-first-row is recorded per answered query.
    pub stream: bool,
    /// The query texts to draw from, uniformly.
    pub mix: Vec<String>,
    /// Expected serialized `<answer>` reply per query text; when set,
    /// every answer is compared byte-for-byte and mismatches counted.
    pub expected: Option<HashMap<String, String>>,
}

impl LoadSpec {
    /// A closed-loop spec over `mix` with the acceptance-run shape
    /// (8 clients, 200 queries, fixed seed).
    pub fn closed(mix: Vec<String>) -> LoadSpec {
        LoadSpec {
            clients: 8,
            queries: 200,
            seed: 20260807,
            stream: false,
            mix,
            expected: None,
        }
    }
}

/// What a run observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Queries sent (first attempts; overload retries not included).
    pub sent: u64,
    /// Queries answered with `Answer`.
    pub answered: u64,
    /// `Overloaded` replies received (each is retried after the hint).
    pub overloaded: u64,
    /// `Error` replies received.
    pub errors: u64,
    /// Wire-level failures (framing, I/O, unexpected verbs).
    pub protocol_errors: u64,
    /// Answers that differed from the expected bytes.
    pub mismatches: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Answered-query latencies in milliseconds, sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Time-to-first-row in milliseconds per answered streamed query,
    /// sorted ascending; empty unless the spec streams.
    pub ttfr_ms: Vec<f64>,
}

impl LoadReport {
    /// Achieved throughput in queries per second.
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.answered as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// The `q`-quantile latency in milliseconds (`q` in `[0, 1]`),
    /// nearest-rank over answered queries; zero when nothing answered.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        nearest_rank(&self.latencies_ms, q)
    }

    /// The `q`-quantile time-to-first-row in milliseconds, nearest-rank
    /// over answered streamed queries; zero when nothing streamed.
    pub fn ttfr_percentile_ms(&self, q: f64) -> f64 {
        nearest_rank(&self.ttfr_ms, q)
    }

    /// p50 latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(0.50)
    }

    /// p95 latency in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.percentile_ms(0.95)
    }

    /// p99 latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(0.99)
    }

    /// True when every query was answered correctly: nothing failed at
    /// the wire level, no server errors, no byte mismatches.
    pub fn clean(&self) -> bool {
        self.protocol_errors == 0 && self.errors == 0 && self.mismatches == 0
    }

    fn absorb(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.protocol_errors += other.protocol_errors;
        self.mismatches += other.mismatches;
        self.latencies_ms.extend(other.latencies_ms);
        self.ttfr_ms.extend(other.ttfr_ms);
    }
}

/// Nearest-rank quantile over an ascending-sorted slice; zero when
/// empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Runs the load against `addr`, one thread per client, and aggregates
/// the per-client observations.
pub fn run(addr: SocketAddr, spec: &LoadSpec) -> LoadReport {
    let clients = spec.clients.max(1);
    let start = Instant::now();
    let mut report = LoadReport::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let spec = spec.clone();
                scope.spawn(move || run_client(addr, &spec, index))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(client_report) => report.absorb(client_report),
                Err(_) => report.protocol_errors += 1,
            }
        }
    });
    report.elapsed = start.elapsed();
    report
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report
        .ttfr_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report
}

/// One client's share of the run.
fn run_client(addr: SocketAddr, spec: &LoadSpec, index: usize) -> LoadReport {
    let mut report = LoadReport::default();
    let clients = spec.clients.max(1);
    // spread the total across clients, the first `queries % clients`
    // taking one extra
    let share = spec.queries / clients + usize::from(index < spec.queries % clients);
    if share == 0 || spec.mix.is_empty() {
        return report;
    }
    let mut client = match Client::connect_retry(addr, Duration::from_secs(5)) {
        Ok(client) => client,
        Err(_) => {
            report.protocol_errors += 1;
            return report;
        }
    };
    let mut rng =
        Rng::seed_from_u64(spec.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for _ in 0..share {
        let text = spec.mix[rng.gen_range(0..spec.mix.len())].clone();
        let sent = Instant::now();
        report.sent += 1;
        loop {
            // streamed queries reassemble chunk frames and record
            // time-to-first-row; otherwise identical bookkeeping
            let (reply, ttfr) = if spec.stream {
                match client.query_streamed(text.clone()) {
                    Ok(s) => (Ok(s.reply), Some(s.ttfr)),
                    Err(WireError::Stream(_)) => {
                        // a typed stream failure (abort, short stream):
                        // the query failed server-side, the framing is
                        // intact only for aborts — count it and stop
                        // this connection to stay conservative
                        report.errors += 1;
                        return report;
                    }
                    Err(e) => (Err(e), None),
                }
            } else {
                (client.query(text.clone()), None)
            };
            match reply {
                Ok(ServerReply::Answer { out, .. }) => {
                    report.answered += 1;
                    report.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    if let Some(t) = ttfr {
                        report.ttfr_ms.push(t.as_secs_f64() * 1e3);
                    }
                    if let Some(expected) = &spec.expected {
                        let got = ServerReply::answer(out).to_xml().to_xml();
                        if expected.get(&text).map(String::as_str) != Some(got.as_str()) {
                            report.mismatches += 1;
                        }
                    }
                    break;
                }
                Ok(ServerReply::Overloaded { retry_after_ms }) => {
                    // honor the shed hint and try again; the retry is
                    // charged to this query's latency
                    report.overloaded += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Ok(ServerReply::Error { .. }) => {
                    report.errors += 1;
                    break;
                }
                Ok(_) => {
                    report.protocol_errors += 1;
                    break;
                }
                Err(_) => {
                    report.protocol_errors += 1;
                    return report; // the stream is gone; stop this client
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let report = LoadReport {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            answered: 10,
            ..LoadReport::default()
        };
        assert_eq!(report.p50_ms(), 5.0);
        assert_eq!(report.p95_ms(), 10.0);
        assert_eq!(report.p99_ms(), 10.0);
        assert_eq!(report.percentile_ms(0.0), 1.0);
        assert_eq!(LoadReport::default().p99_ms(), 0.0);
    }

    #[test]
    fn clean_means_no_failures_of_any_kind() {
        let mut report = LoadReport {
            answered: 5,
            ..LoadReport::default()
        };
        assert!(report.clean());
        report.mismatches = 1;
        assert!(!report.clean());
    }
}
