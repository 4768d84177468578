//! The benchmark's own closed/open-loop driver on top of the public
//! `yat_server::Client`: time-bounded windows, per-class latencies,
//! scheduled-time accounting, retry-on-`Overloaded` charged to the
//! query, and the fixed-rate mutator of `churn_dashboard`.

use crate::fixtures::{answer_bytes, apply_mutation, Churn, Fixture, Pacing};
use crate::streams::{mutation, Class, ClientStream, MutOp};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use yat_algebra::EvalOut;
use yat_capability::protocol::ServerReply;
use yat_server::Client;

/// Give up on a query after this many `Overloaded` replies; it then
/// counts as failed (a shed that was never served).
const MAX_TRIES: usize = 20;

/// When a run measures, relative to one shared start instant.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// The instant all threads start at.
    pub t0: Instant,
    /// Untimed lead-in: caches fill, lazy set-up finishes.
    pub warmup: Duration,
    /// The timed window.
    pub window: Duration,
}

impl Window {
    /// A window starting shortly from now (threads connect first).
    pub fn starting_now(warmup: Duration, window: Duration) -> Window {
        Window {
            t0: Instant::now() + Duration::from_millis(50),
            warmup,
            window,
        }
    }

    fn measure_from(&self) -> Instant {
        self.t0 + self.warmup
    }

    fn end(&self) -> Instant {
        self.t0 + self.warmup + self.window
    }
}

/// One answered query inside the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its latency class.
    pub class: Class,
    /// Scheduled send → answer fully received, verified excluded.
    pub latency_ms: f64,
    /// Scheduled send → first reply frame. Materialized answers are one
    /// frame, so this is the whole latency.
    pub ttfr_ms: f64,
    /// Top-level answer subtrees (or table rows).
    pub rows: u64,
    /// Reply frames (`1`, or chunks + the end frame).
    pub frames: u64,
}

/// What the clients observed inside the window.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Answered queries.
    pub samples: Vec<Sample>,
    /// Queries that completed (closed loop) or were scheduled (open
    /// loop) inside the window, answered or not.
    pub attempted: u64,
    /// `Error` replies and typed stream failures.
    pub errors: u64,
    /// Wire-level failures and unexpected verbs.
    pub protocol_errors: u64,
    /// Answers whose bytes differ from the oracle's.
    pub mismatches: u64,
    /// `Overloaded` replies (each retried after the hint).
    pub shed: u64,
    /// Queries abandoned after [`MAX_TRIES`] sheds.
    pub shed_failed: u64,
    /// Open loop only: how late the generator itself sent each request
    /// (beyond its schedule and beyond a still-busy connection).
    pub lateness_ms: Vec<f64>,
    /// Peak live heap of each one-second slice of the window, MiB
    /// (client 0 closes a slice after the first answer past its end).
    /// One coincidence of two large answers in flight moves the single
    /// peak of a run by 15 %; the median slice does not notice it, yet a
    /// larger working set or a leak raises every slice.
    pub heap_peaks_mb: Vec<f64>,
    /// The seconds the counted queries span. Closed loop: the window.
    /// Open loop: from the window's start to the arrival of the last
    /// answer that was due inside it, so a growing backlog shows as
    /// lost throughput.
    pub measured_s: f64,
}

impl LoadResult {
    /// Everything that did not end in a correct answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.protocol_errors + self.mismatches + self.shed_failed
    }

    fn absorb(&mut self, other: LoadResult) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.protocol_errors += other.protocol_errors;
        self.mismatches += other.mismatches;
        self.shed += other.shed;
        self.shed_failed += other.shed_failed;
        self.lateness_ms.extend(other.lateness_ms);
        self.heap_peaks_mb.extend(other.heap_peaks_mb);
        self.measured_s = self.measured_s.max(other.measured_s);
    }
}

/// How one query ended.
enum Outcome {
    Answered {
        /// When the first reply frame had arrived.
        first_frame: Instant,
        /// When the whole answer had arrived.
        done: Instant,
        rows: u64,
        frames: u64,
        matches: bool,
    },
    Error,
    ProtocolError,
    ShedOut,
}

fn rows_of(out: &EvalOut) -> u64 {
    match out {
        EvalOut::Tree(t) => t.children.len() as u64,
        EvalOut::Tab(t) => t.len() as u64,
    }
}

/// Sends one query (retrying sheds) and classifies the reply. A
/// materialized reply's first frame is its only frame.
fn issue(
    client: &mut Client,
    text: &str,
    expected: &str,
    streamed: bool,
    result: &mut LoadResult,
) -> Outcome {
    for _ in 0..MAX_TRIES {
        let sent = Instant::now();
        let (reply, ttfr, frames): (_, Option<Instant>, _) = if streamed {
            match client.query_streamed(text) {
                Ok(s) => {
                    let frames = if s.chunks == 0 { 1 } else { s.chunks + 1 };
                    // the client clocks ttfr from the start of its read,
                    // microseconds after `sent`
                    (s.reply, Some(sent + s.ttfr), frames)
                }
                Err(yat_capability::xml::WireError::Stream(_)) => return Outcome::Error,
                Err(_) => return Outcome::ProtocolError,
            }
        } else {
            match client.query(text) {
                Ok(reply) => (reply, None, 1),
                Err(_) => return Outcome::ProtocolError,
            }
        };
        match reply {
            ServerReply::Answer { out, .. } => {
                let done = Instant::now();
                let rows = rows_of(&out);
                return Outcome::Answered {
                    first_frame: ttfr.unwrap_or(done),
                    done,
                    rows,
                    frames,
                    matches: answer_bytes(out) == expected,
                };
            }
            ServerReply::Overloaded { retry_after_ms } => {
                result.shed += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            ServerReply::Error { .. } => return Outcome::Error,
            _ => return Outcome::ProtocolError,
        }
    }
    Outcome::ShedOut
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One client thread's share of the run.
fn run_client(
    addr: SocketAddr,
    fixture: &Fixture,
    seed: u64,
    index: usize,
    w: Window,
) -> LoadResult {
    let mut result = LoadResult {
        measured_s: match fixture.pacing {
            Pacing::Closed { .. } => w.window.as_secs_f64(),
            Pacing::Open { .. } => 0.0,
        },
        ..LoadResult::default()
    };
    let Ok(mut client) = Client::connect_retry(addr, Duration::from_secs(5)) else {
        result.attempted += 1;
        result.protocol_errors += 1;
        return result;
    };
    let mut stream = ClientStream::new(seed, index, fixture.sampler.clone());
    // open loop: this connection's slice of the schedule, staggered so
    // the connections do not fire together
    let schedule = match fixture.pacing {
        Pacing::Closed { .. } => None,
        Pacing::Open {
            connections,
            rate_qps,
        } => {
            let step = Duration::from_secs_f64(connections as f64 / rate_qps.max(1e-3));
            Some((step, step.mul_f64(index as f64 / connections as f64)))
        }
    };
    sleep_until(w.t0);
    let mut k = 0u32;
    let mut slice_end = w.measure_from();
    loop {
        let free_at = Instant::now();
        if index == 0 && free_at >= slice_end && free_at <= w.end() {
            // the slice that just ended; the first crossing only opens one
            if slice_end > w.measure_from() {
                result.heap_peaks_mb.push(crate::alloc::peak_mb());
            }
            crate::alloc::reset_peak();
            slice_end = free_at + Duration::from_secs(1);
        }
        let scheduled = match schedule {
            None => free_at,
            Some((step, offset)) => w.t0 + offset + step * k,
        };
        if scheduled >= w.end() {
            break;
        }
        k += 1;
        let counted_by_schedule = schedule.is_some() && scheduled >= w.measure_from();
        if schedule.is_some() {
            sleep_until(scheduled);
            if counted_by_schedule {
                let late = Instant::now() - scheduled.max(free_at);
                result.lateness_ms.push(late.as_secs_f64() * 1e3);
            }
        }
        let idx = stream.next_index();
        let text = &fixture.texts[idx];
        let outcome = issue(
            &mut client,
            &text.text,
            &fixture.expected[idx],
            fixture.streamed,
            &mut result,
        );
        // a closed loop counts what completes inside the window; an
        // open loop counts what was due inside it, however late it ends
        let finished = Instant::now();
        let counted = match schedule {
            Some(_) => counted_by_schedule,
            None => finished >= w.measure_from() && finished <= w.end(),
        };
        let mut broken = false;
        if counted {
            result.attempted += 1;
            result.measured_s = result
                .measured_s
                .max((finished - w.measure_from()).as_secs_f64());
        }
        match outcome {
            Outcome::Answered {
                first_frame,
                done,
                rows,
                frames,
                matches,
            } => {
                if counted && matches {
                    result.samples.push(Sample {
                        class: text.class,
                        latency_ms: (done - scheduled).as_secs_f64() * 1e3,
                        ttfr_ms: (first_frame - scheduled).as_secs_f64() * 1e3,
                        rows,
                        frames,
                    });
                } else if counted {
                    result.mismatches += 1;
                }
            }
            Outcome::Error => result.errors += u64::from(counted),
            Outcome::ShedOut => result.shed_failed += u64::from(counted),
            Outcome::ProtocolError => {
                result.protocol_errors += u64::from(counted);
                broken = true;
            }
        }
        if broken {
            // the frame boundary is lost: start over on a new connection
            match Client::connect(addr) {
                Ok(fresh) => client = fresh,
                Err(_) => break,
            }
        }
    }
    result
}

/// What the mutator observed.
#[derive(Debug, Default)]
pub struct MutatorResult {
    /// Scheduled time → mutation call returned, for mutations due
    /// inside the window.
    pub latencies_ms: Vec<f64>,
    /// How late the mutator itself started each of those mutations.
    pub lateness_ms: Vec<f64>,
    /// Every mutation applied, warm-up included, in order.
    pub log: Vec<MutOp>,
    /// Mutations that failed to apply.
    pub failed: u64,
}

/// The open-loop mutator: `rate` mutations per second through the
/// shared source handles, from `t0` to the end of the window.
fn run_mutator(churn: &Churn, seed: u64, rate: f64, w: Window) -> MutatorResult {
    let mut result = MutatorResult::default();
    let mut ids = HashMap::new();
    let step = Duration::from_secs_f64(1.0 / rate.max(1e-3));
    sleep_until(w.t0);
    for i in 0u32.. {
        let free_at = Instant::now();
        let scheduled = w.t0 + step * i;
        if scheduled >= w.end() {
            break;
        }
        sleep_until(scheduled);
        let started = Instant::now();
        let op = mutation(seed, u64::from(i));
        let outcome = apply_mutation(&op, &churn.wais, &churn.o2, &mut ids);
        let done = Instant::now();
        if scheduled >= w.measure_from() {
            result
                .latencies_ms
                .push((done - scheduled).as_secs_f64() * 1e3);
            result
                .lateness_ms
                .push((started - scheduled.max(free_at)).as_secs_f64() * 1e3);
        }
        match outcome {
            Ok(()) => result.log.push(op),
            Err(_) => result.failed += 1,
        }
    }
    result
}

/// Mutations per second on `churn_dashboard`.
const MUTATION_RATE: f64 = 20.0;

/// Drives one fixture through warm-up and window: its client threads
/// and, for `churn_dashboard`, the mutator beside them.
pub fn drive(fixture: &Fixture, seed: u64, w: Window) -> (LoadResult, Option<MutatorResult>) {
    let addr = fixture.server.addr();
    let mut load = LoadResult::default();
    let mut mutated = None;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..fixture.pacing.clients())
            .map(|index| scope.spawn(move || run_client(addr, fixture, seed, index, w)))
            .collect();
        let mutator = fixture
            .churn
            .as_ref()
            .map(|churn| scope.spawn(move || run_mutator(churn, seed, MUTATION_RATE, w)));
        for handle in clients {
            match handle.join() {
                Ok(result) => load.absorb(result),
                Err(_) => {
                    // a client thread panicked: its share of the run is lost
                    load.attempted += 1;
                    load.protocol_errors += 1;
                }
            }
        }
        mutated = mutator.map(|handle| {
            handle.join().unwrap_or_else(|_| MutatorResult {
                failed: 1,
                ..MutatorResult::default()
            })
        });
    });
    (load, mutated)
}
