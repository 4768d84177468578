//! The `yat-server` binary, served for real: spawned as a child process
//! under each cell's `YAT_*` settings, queried over loopback both
//! materialized and streamed, every answer checked byte for byte against
//! the same settings' in-process scenario, and drained through the
//! `shutdown` verb.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use yat_bench::settings::{Settings, VARIABLES};
use yat_capability::protocol::ServerReply;
use yat_mediator::OptimizerOptions;
use yat_server::Client;
use yat_yatl::paper;

const SCALE: usize = 20;

/// One configuration of the served binary.
struct Cell {
    name: &'static str,
    /// `YAT_*` variables set on the child; every other one is removed.
    vars: &'static [(&'static str, &'static str)],
    /// Flags beyond the common `--port 0 --scale 20 --workers 4 --queue 64`.
    flags: &'static [&'static str],
    /// Whether the answer cache is on, so repeated queries must hit it.
    cached: bool,
}

const CELLS: [Cell; 3] = [
    Cell {
        name: "defaults",
        vars: &[],
        flags: &[],
        cached: false,
    },
    Cell {
        name: "parallel + bounded cache",
        vars: &[("YAT_EXEC_MODE", "parallel"), ("YAT_CACHE", "bounded")],
        flags: &[],
        cached: true,
    },
    // a federated registry answers with the plain scenario's bytes
    Cell {
        name: "federate 4",
        vars: &[],
        flags: &["--federate", "4"],
        cached: false,
    },
];

/// A running `yat-server` child, killed and reaped on drop so a failed
/// assertion leaves no process behind.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Served {
    /// Spawns the child under `cell` and returns it with the address it
    /// announces.
    fn spawn(cell: &Cell) -> (Served, SocketAddr) {
        let mut command = Command::new(env!("CARGO_BIN_EXE_yat-server"));
        command
            .args(format!("--port 0 --scale {SCALE} --workers 4 --queue 64").split(' '))
            .args(cell.flags);
        for name in VARIABLES {
            command.env_remove(name);
        }
        let mut child = command
            .envs(cell.vars.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("yat-server spawns");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // the stdout pipe stays open until the child exits: it prints
        // once more when it drains
        let mut served = Served { child, stdout };
        let mut line = String::new();
        served.stdout.read_line(&mut line).expect("stdout reads");
        let addr = line
            .strip_prefix("yat-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("{}: no `listening on <addr>` line: {line:?}", cell.name));
        (served, addr)
    }

    /// Waits for the child to exit on its own, then returns its status,
    /// the rest of its stdout and all of its stderr.
    fn exit(mut self) -> (ExitStatus, String, String) {
        let patience = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("child status reads") {
                break status;
            }
            assert!(
                patience.elapsed() < Duration::from_secs(30),
                "yat-server did not exit after the drain"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stdout = String::new();
        self.stdout
            .read_to_string(&mut stdout)
            .expect("stdout reads");
        let mut stderr = String::new();
        let pipe = self.child.stderr.as_mut().expect("stderr is piped");
        pipe.read_to_string(&mut stderr).expect("stderr reads");
        (status, stdout, stderr)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn served_binary_answers_like_the_in_process_scenario_under_each_cell() {
    for cell in &CELLS {
        let lookup = |name: &str| {
            let value = cell.vars.iter().find(|(var, _)| *var == name);
            value.map(|(_, value)| value.to_string())
        };
        let reference = Settings::from_lookup(lookup)
            .scenario(SCALE)
            .expect("in-memory scenario builds");
        let queries = [paper::Q1, paper::Q2];
        let expected = queries.map(|query| {
            let out = reference.query(query, OptimizerOptions::default());
            ServerReply::answer(out.expect("paper query answers in-process"))
                .to_xml()
                .to_xml()
        });
        let (served, addr) = Served::spawn(cell);
        let mut client = Client::connect(addr).expect("client connects");
        for round in 0..2 {
            for (query, expected) in queries.into_iter().zip(&expected) {
                let materialized = client.query(query).expect("query round-trips");
                assert_eq!(
                    &materialized.to_xml().to_xml(),
                    expected,
                    "{}: materialized answer, round {round}",
                    cell.name
                );
                let streamed = client.query_streamed(query).expect("stream reassembles");
                assert!(streamed.chunks > 0, "{}: the answer streamed", cell.name);
                assert_eq!(
                    &streamed.reply.to_xml().to_xml(),
                    expected,
                    "{}: streamed answer, round {round}",
                    cell.name
                );
            }
        }
        let stats = client.stats().expect("stats round-trips");
        assert_eq!(stats.served, 8, "{}", cell.name);
        assert_eq!(
            stats.cache_hits > 0,
            cell.cached,
            "{}: the child applied its cache setting ({} hits)",
            cell.name,
            stats.cache_hits
        );
        client.shutdown().expect("the server drains");
        let (status, stdout, stderr) = served.exit();
        assert!(status.success(), "{}: exit {status}\n{stderr}", cell.name);
        assert!(
            stdout.contains("drained and stopped"),
            "{}: {stdout:?}",
            cell.name
        );
        assert!(
            !stderr.contains("[yat warn]"),
            "{}: every setting was valid\n{stderr}",
            cell.name
        );
    }
}
