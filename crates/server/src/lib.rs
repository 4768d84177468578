//! # yat-server — the mediator as a concurrent service
//!
//! The paper runs `yat-mediator -port 6666` as a long-lived process that
//! clients connect to (the Fig. 2 session transcript). This crate is
//! that process: a TCP front end speaking the length-framed wire XML of
//! [`yat_capability::framing`], a bounded admission queue, and a pool of
//! worker threads executing queries against one shared
//! [`yat_mediator::Mediator`] — so concurrent sessions share the answer
//! cache, the per-source wrapper connections, and the imported
//! capability interfaces.
//!
//! * [`Server`] / [`ServerConfig`] / [`ServerHandle`] — the service
//!   itself: accept loop, per-connection reader threads, the admission
//!   queue with load shedding (`Overloaded` + retry-after when the queue
//!   is full), per-request deadlines, panic containment, and graceful
//!   drain on shutdown.
//! * [`Client`] — a blocking client for the wire protocol
//!   ([`yat_capability::protocol::ClientRequest`] /
//!   [`yat_capability::protocol::ServerReply`]).
//!
//! The serving layer is federation-agnostic: it takes whatever
//! `Mediator` you hand it. Wiring up the paper's cultural-goods sources
//! lives in `yat-bench` (`workload::Scenario`), which also ships the
//! `yat-server` binary. Served load is generated and measured by the
//! repo benchmark (`yat-benchmark`), which drives [`Server`] through the
//! public [`Client`].

mod client;
mod server;

pub use client::{Client, StreamedReply};
pub use server::{Server, ServerConfig, ServerHandle, READ_TIMEOUT, SPAN_LOG_CAP, WRITE_TIMEOUT};

#[cfg(test)]
mod tests;
