//! `yat-server` — the paper's `yat-mediator -port 6666`, for real: serves
//! the seeded cultural-goods federation over TCP until a client sends
//! `shutdown`.
//!
//! ```text
//! yat-server [--port N] [--scale N] [--workers N] [--queue N] [--latency-ms N]
//!            [--federate N]
//! ```
//!
//! * `--port` — TCP port on 127.0.0.1 (default 0 = OS-assigned).
//! * `--scale` — documents per source in the seeded scenario (default 50).
//! * `--workers` — worker threads (default 4).
//! * `--queue` — admission-queue capacity (default 64).
//! * `--latency-ms` — simulated per-source round-trip delay (default 0).
//! * `--federate` — serve an N-member federation registry instead of the
//!   plain two-source scenario: `N/2` O2 replicas, the rest style
//!   shards of the Wais collection.
//!
//! Every policy comes from the eight `YAT_*` variables of
//! [`yat_bench::settings`] (`YAT_EXEC_MODE`, `YAT_EXEC_ENGINE`,
//! `YAT_STREAM`, `YAT_CACHE`, `YAT_PARTIAL`, `YAT_SCHED`, `YAT_INDEX`,
//! `YAT_STORE`), read once at startup. Prints one `listening on <addr>`
//! line once ready — the CI smoke job and `yat-load --shutdown` drive it
//! from there.

use std::time::Duration;
use yat_bench::settings::Settings;
use yat_mediator::Latency;
use yat_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: yat-server [--port N] [--scale N] [--workers N] [--queue N] [--latency-ms N] [--federate N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut port: u16 = 0;
    let mut scale: usize = 50;
    let mut config = ServerConfig::default();
    let mut latency_ms: u64 = 0;
    let mut federate: usize = 0;

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
            "--port" => port = value("--port").parse().unwrap_or_else(|_| usage()),
            "--scale" => scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                config.queue_capacity = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--latency-ms" => {
                latency_ms = value("--latency-ms").parse().unwrap_or_else(|_| usage())
            }
            "--federate" => federate = value("--federate").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let settings = Settings::from_env();
    let (mediator, sources) = if federate > 0 {
        settings.federation(federate, scale)
    } else {
        match settings.scenario(scale) {
            Ok(mediator) => (mediator, vec!["o2artifact".into(), "xmlartwork".into()]),
            Err(e) => {
                eprintln!(
                    "yat-server: cannot mount the store ({}): {e}",
                    settings.store
                );
                std::process::exit(1);
            }
        }
    };
    if latency_ms > 0 {
        for source in &sources {
            if let Some(conn) = mediator.connection(source) {
                conn.set_latency(Some(Latency::fixed(Duration::from_millis(latency_ms))));
            }
        }
    }
    let handle = match Server::bind(mediator, config, ("127.0.0.1", port)) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("yat-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "yat-server listening on {} ({} workers, queue {}, scale {scale}, {} sources)",
        handle.addr(),
        config.workers.max(1),
        config.queue_capacity.max(1),
        sources.len(),
    );
    // serves until a client's `shutdown` verb drains the pool
    handle.join();
    println!("yat-server drained and stopped");
}
