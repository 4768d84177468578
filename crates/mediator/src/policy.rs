//! The executor's three policy switches: how source work is dispatched
//! ([`ExecMode`]), how answers leave the mediator ([`StreamPolicy`]), and
//! how scatter jobs are ordered onto lanes ([`SchedPolicy`]).
//!
//! Each is a plain value with a documented `Default`, set through the
//! matching `Mediator::set_*`. The text syntax (`FromStr`) of
//! `ExecMode` and `SchedPolicy` is what the `yat-server` binary accepts
//! in its `YAT_*` settings; `StreamPolicy` has none —
//! only code pins it. Nothing in this crate reads the environment.

use std::str::FromStr;

/// How the executor dispatches independent source work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One round trip at a time, in plan order.
    #[default]
    Sequential,
    /// Scatter/gather: independent fragments run concurrently on up to
    /// `max_in_flight` worker lanes.
    Parallel {
        /// Upper bound on concurrently running scatter jobs.
        max_in_flight: usize,
    },
}

impl ExecMode {
    /// Default lane bound of [`ExecMode::parallel`].
    pub const DEFAULT_LANES: usize = 8;

    /// Parallel mode with the default lane bound.
    pub fn parallel() -> Self {
        ExecMode::Parallel {
            max_in_flight: Self::DEFAULT_LANES,
        }
    }

    /// True for any `Parallel` variant.
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecMode::Parallel { .. })
    }
}

/// `sequential`/`seq`, `parallel`/`par`, or `parallel:<lanes>` with at
/// least one lane.
impl FromStr for ExecMode {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let text = text.trim().to_ascii_lowercase();
        match text.as_str() {
            "sequential" | "seq" => Ok(ExecMode::Sequential),
            "parallel" | "par" => Ok(ExecMode::parallel()),
            _ => text
                .strip_prefix("parallel:")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(|n| ExecMode::Parallel { max_in_flight: n })
                .ok_or(()),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Sequential => write!(f, "sequential"),
            ExecMode::Parallel { max_in_flight } => write!(f, "parallel({max_in_flight})"),
        }
    }
}

/// How streamed answers leave the mediator: the batch size
/// `Mediator::execute_stream` runs the row-local top of a plan in and
/// cuts the answer into, and how many chunks the server's frame channel
/// may hold.
///
/// Orthogonal to [`ExecMode`]: a streamed plan fetches and ships
/// exactly as a materialized one; only the operators above the pipeline
/// source run batch by batch (`yat_algebra::stream::pipeline`). The
/// materialized answer is the semantics oracle: concatenating the
/// delivered chunks must reproduce it byte-for-byte
/// (`tests/differential.rs`), and each chunk must equal the same cut of
/// it (`tests/prop_stream_chunks.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamPolicy {
    /// No streaming configuration (the default). A caller that streams
    /// anyway — `Mediator::execute_stream`, a client negotiating
    /// `stream="chunked"` — gets the default batch size and pending
    /// bound.
    #[default]
    Off,
    /// Streamed answers are delivered in batches of these sizes.
    Chunked {
        /// Rows per delivered batch.
        batch_rows: usize,
        /// Upper bound on delivered-but-unconsumed batches a streaming
        /// consumer (the server's wire writer) may buffer before the
        /// producer blocks — the per-query memory budget.
        max_pending: usize,
    },
}

impl StreamPolicy {
    /// Default rows per batch.
    pub const DEFAULT_BATCH_ROWS: usize = yat_algebra::stream::DEFAULT_BATCH_ROWS;
    /// Default bound on buffered, unconsumed batches.
    pub const DEFAULT_MAX_PENDING: usize = 8;

    /// Chunked delivery with the default batch size and pending bound.
    pub fn chunked() -> Self {
        StreamPolicy::Chunked {
            batch_rows: Self::DEFAULT_BATCH_ROWS,
            max_pending: Self::DEFAULT_MAX_PENDING,
        }
    }
}

/// How scatter jobs are ordered onto worker lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Longest-expected-first: jobs are ordered by the registry's
    /// observed cost records (EWMA latency + bytes, discounted by cache
    /// hit rate) before lane assignment, so the most expensive round
    /// trips start earliest and the critical path shrinks. With no
    /// observations every job costs 0 and the order — and therefore the
    /// whole execution — is identical to `Static`.
    #[default]
    Cost,
    /// Plan order with static round-robin lanes — the pre-federation
    /// behavior, kept as the benchmark baseline.
    Static,
}

/// `cost` or `static`/`round-robin`.
impl FromStr for SchedPolicy {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.trim().to_ascii_lowercase().as_str() {
            "cost" => Ok(SchedPolicy::Cost),
            "static" | "round-robin" => Ok(SchedPolicy::Static),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedPolicy::Cost => write!(f, "cost"),
            SchedPolicy::Static => write!(f, "static"),
        }
    }
}
