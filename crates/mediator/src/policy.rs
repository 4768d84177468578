//! The executor's two policy values: how source work is dispatched
//! ([`ExecMode`]) and how streamed answers leave the mediator
//! ([`StreamPolicy`]).
//!
//! Each is a plain value with a documented `Default`, set through the
//! matching `Mediator::set_*`. The text syntax (`FromStr`) of `ExecMode`
//! is what the `yat-server` binary accepts in `YAT_EXEC_MODE`;
//! `StreamPolicy` has none — only code pins it. Scatter jobs are always
//! ordered by observed cost (see `executor::scatter_gather`), so
//! scheduling is not a policy. Nothing in this crate reads the
//! environment.

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
/// it (`tests/prop_stream_chunks.rs`). [`Mediator::execute`] always
/// materializes, whatever this says.
///
/// [`Mediator::execute`]: crate::Mediator::execute
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPolicy {
    /// Rows per delivered batch.
    pub batch_rows: usize,
    /// Upper bound on delivered-but-unconsumed batches a streaming
    /// consumer (the server's wire writer) may buffer before the
    /// producer blocks — the per-query memory budget.
    pub max_pending: usize,
}

impl StreamPolicy {
    /// Default rows per batch.
    pub const DEFAULT_BATCH_ROWS: usize = yat_algebra::stream::DEFAULT_BATCH_ROWS;
    /// Default bound on buffered, unconsumed batches.
    pub const DEFAULT_MAX_PENDING: usize = 8;
}

impl Default for StreamPolicy {
    fn default() -> Self {
        StreamPolicy {
            batch_rows: Self::DEFAULT_BATCH_ROWS,
            max_pending: Self::DEFAULT_MAX_PENDING,
        }
    }
}
