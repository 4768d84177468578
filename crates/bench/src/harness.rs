//! A tiny, std-only timing harness for the `benches/` targets.
//!
//! The bench targets are plain `harness = false` executables: each calls
//! [`run`] per measured case, which warms up, picks an iteration count
//! targeting a fixed measurement window, and prints median/mean wall
//! time. No statistics framework — the figures these benches back are
//! order-of-magnitude comparisons (naive vs pushed, monolithic vs split),
//! not microsecond-level regressions.

use std::time::{Duration, Instant};

/// Warm-up window per case.
const WARMUP: Duration = Duration::from_millis(200);
/// Measurement window per case.
const WINDOW: Duration = Duration::from_millis(600);

/// Measures `f`, printing `label`, the median and mean wall time per
/// iteration, and the iteration count.
pub fn run<T, F: FnMut() -> T>(label: &str, f: F) {
    let samples = samples(f);
    let iters = samples.len();
    let median = samples[iters / 2];
    let mean = samples.iter().sum::<Duration>() / iters as u32;
    println!(
        "{label:<48} median {:>9}   mean {:>9}   ({iters} iters)",
        yat_obs::profile::fmt_duration(median),
        yat_obs::profile::fmt_duration(mean),
    );
}

/// Prints a group heading, mirroring the old Criterion group names.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

/// Warms `f` up, then times enough iterations to fill the measurement
/// window; returns the per-iteration wall times, sorted.
fn samples<T, F: FnMut() -> T>(mut f: F) -> Vec<Duration> {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP || warm_iters == 0 {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let per = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let iters = ((WINDOW.as_secs_f64() / per).ceil() as u64).clamp(5, 100_000);
    let mut samples: Vec<Duration> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    samples.sort();
    samples
}
