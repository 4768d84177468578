//! The executor's four policy switches: how source work is dispatched
//! ([`ExecMode`]), which engine evaluates local algebra ([`ExecEngine`]),
//! how answers leave the mediator ([`StreamPolicy`]), and how scatter
//! jobs are ordered onto lanes ([`SchedPolicy`]).
//!
//! Each is a plain value with a documented `Default`, set through the
//! matching `Mediator::set_*`. The text syntax (`FromStr`) is what the
//! `yat-server` / `yat-load` binaries accept in their `YAT_*` settings;
//! nothing in this crate reads the environment.

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

/// Which engine evaluates the local (mediator-side) part of a plan.
///
/// Orthogonal to [`ExecMode`]: the mode decides how *source* work is
/// dispatched (sequential or scatter/gather), the engine decides how the
/// local algebra in between is evaluated. The interpreter is the
/// semantics oracle; the VM runs compiled programs and must match it
/// bit-for-bit (`tests/differential.rs` enforces this over hundreds of
/// seeded plans, on both axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The recursive reference interpreter ([`yat_algebra::eval()`]).
    #[default]
    Interp,
    /// Compiled execution: plans are lowered once into flat stack
    /// programs ([`yat_algebra::compile()`]) and run batched
    /// ([`yat_algebra::vm::run`]).
    Vm,
}

/// `interp`/`interpreter` or `vm`/`compiled`.
impl FromStr for ExecEngine {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Ok(ExecEngine::Interp),
            "vm" | "compiled" => Ok(ExecEngine::Vm),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecEngine::Interp => write!(f, "interp"),
            ExecEngine::Vm => write!(f, "vm"),
        }
    }
}

/// How answers leave the mediator: one materialized value, or a stream
/// of row batches (`yat_algebra::stream`).
///
/// Orthogonal to both [`ExecMode`] and [`ExecEngine`]: the plan prefix
/// is still evaluated by the chosen engine under the chosen dispatch
/// mode; streaming changes only the *answer boundary* — the streamable
/// operator chain on top of the plan runs batch-at-a-time and each batch
/// is delivered as soon as it exists. The materialized path stays the
/// semantics oracle: concatenating the delivered batches must reproduce
/// it byte-for-byte (`tests/differential.rs`).
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
    /// Default rows per batch — the VM's internal batching granularity.
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

    /// True for any `Chunked` variant.
    pub fn is_chunked(&self) -> bool {
        matches!(self, StreamPolicy::Chunked { .. })
    }
}

/// `off`/`materialized`, `chunked`/`on`, `chunked:<rows>`, or
/// `chunked:<rows>:<pending>`; a `<rows>` or `<pending>` of 0 reads as 1.
impl FromStr for StreamPolicy {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let text = text.trim().to_ascii_lowercase();
        match text.as_str() {
            "off" | "materialized" => return Ok(StreamPolicy::Off),
            "chunked" | "on" => return Ok(StreamPolicy::chunked()),
            _ => {}
        }
        let rest = text.strip_prefix("chunked:").ok_or(())?;
        let (rows, pending) = match rest.split_once(':') {
            Some((rows, pending)) => (rows, Some(pending)),
            None => (rest, None),
        };
        // a zero is clamped to 1 rather than rejected: the caller asked
        // for chunked delivery, and 1-row batches honor that while a
        // rejection would silently disable streaming altogether
        let count = |n: &str| n.parse().map(|n: usize| n.max(1)).map_err(|_| ());
        let batch_rows = count(rows)?;
        let max_pending = match pending {
            Some(p) => count(p)?,
            None => Self::DEFAULT_MAX_PENDING,
        };
        Ok(StreamPolicy::Chunked {
            batch_rows,
            max_pending,
        })
    }
}

impl std::fmt::Display for StreamPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamPolicy::Off => write!(f, "off"),
            StreamPolicy::Chunked {
                batch_rows,
                max_pending,
            } => write!(f, "chunked({batch_rows} rows, {max_pending} pending)"),
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
