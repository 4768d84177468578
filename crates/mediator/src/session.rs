//! A Fig. 2-style session transcript: the three installation steps
//! (wrappers, mediator, imports) rendered as the paper shows them.

use crate::executor::ExecMode;
use crate::mediator::{Mediator, MediatorError};
use crate::optimizer::OptimizerOptions;
use std::fmt::Write as _;
use yat_cache::CachePolicy;
use yat_capability::protocol::WrapperServer;

/// Builds a mediator while recording a transcript in the style of Fig. 2.
pub struct Session {
    mediator: Mediator,
    transcript: String,
    port: u16,
}

impl Session {
    /// Starts a new session (`yat-mediator -port 6666`).
    pub fn start() -> Self {
        let mut transcript = String::new();
        let _ = writeln!(transcript, "cosmos{{cluet}}: yat-mediator -port 6666");
        let _ = writeln!(
            transcript,
            " yat-mediator is running at cosmos.inria.fr:6666"
        );
        Session {
            mediator: Mediator::new(),
            transcript,
            port: 6060,
        }
    }

    /// Connects and imports a wrapper, logging both steps.
    pub fn connect(
        &mut self,
        host: &str,
        server: Box<dyn WrapperServer>,
    ) -> Result<(), MediatorError> {
        let port = self.port;
        self.port += 6;
        let name = self.mediator.connect(server)?;
        let _ = writeln!(self.transcript, "yat> connect {name} {host}:{port};");
        let _ = writeln!(self.transcript, "yat> import {name};");
        let iface = &self.mediator.interfaces()[&name];
        let _ = writeln!(
            self.transcript,
            " imported {} documents, {} operations, {} equivalences from {name}",
            iface.exports.len(),
            iface.operations.len(),
            iface.equivalences.len()
        );
        Ok(())
    }

    /// Loads an integration program, logging the step.
    pub fn load(&mut self, path_label: &str, program: &str) -> Result<(), MediatorError> {
        let names = self.mediator.load_program(program)?;
        let _ = writeln!(self.transcript, "yat> load \"{path_label}\";");
        for n in names {
            let _ = writeln!(self.transcript, " defined view {n}()");
        }
        Ok(())
    }

    /// Runs a query as `EXPLAIN ANALYZE`, appending the profile to the
    /// transcript (`yat> explain …;` — the observability view of what a
    /// Fig. 2 session's query actually did).
    pub fn explain(&mut self, src: &str, options: OptimizerOptions) -> Result<(), MediatorError> {
        let explain = self.mediator.explain_query(src, options)?;
        let _ = writeln!(self.transcript, "yat> explain {};", src.trim());
        for line in explain.render().lines() {
            let _ = writeln!(self.transcript, " {line}");
        }
        Ok(())
    }

    /// Selects the execution mode for subsequent queries, logging the
    /// step (`yat> set execution parallel(8);`).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mediator.set_exec_mode(mode);
        let _ = writeln!(self.transcript, "yat> set execution {mode};");
    }

    /// Selects the answer-cache policy for subsequent queries, logging
    /// the step (`yat> set cache bounded(67108864B);`).
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.mediator.set_cache_policy(policy);
        let _ = writeln!(self.transcript, "yat> set cache {policy};");
    }

    /// The transcript so far.
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    /// Hands over the configured mediator.
    pub fn into_mediator(self) -> Mediator {
        self.mediator
    }

    /// Access while still logging.
    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }
}
