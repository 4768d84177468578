//! Evaluation errors.

use std::fmt;

/// An error raised while evaluating an algebraic plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A `Source` named a document the catalog does not provide.
    UnknownSource {
        /// Wrapper id, if any.
        source: Option<String>,
        /// Document name.
        name: String,
    },
    /// An operator expected a `Tab` input but got a tree (or vice versa).
    Kind {
        /// Operator description.
        op: String,
        /// What it expected.
        expected: &'static str,
    },
    /// A predicate/expression referenced an unbound column.
    UnknownColumn(String),
    /// An external function was called but not registered.
    UnknownFunction(String),
    /// An external function failed or returned an unusable value.
    Function {
        /// Function name.
        name: String,
        /// Failure description.
        message: String,
    },
    /// A source failed a pushed plan: its wrapper answered an error, the
    /// round trip broke, or no member of its group could answer.
    Source {
        /// Source id.
        source: String,
        /// Failure description.
        message: String,
    },
    /// A source declined a pushed plan it cannot run.
    Refused {
        /// Source id.
        source: String,
        /// Why it declined.
        reason: String,
    },
    /// A comparison between incomparable values in strict context.
    Incomparable(String),
    /// Union-compatible inputs required.
    Incompatible {
        /// Operator description.
        op: String,
        /// Explanation.
        message: String,
    },
    /// A streamed-answer sink refused or failed to accept a batch (the
    /// consumer hung up mid-stream, a wire write failed, …).
    Sink(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownSource {
                source: Some(s),
                name,
            } => {
                write!(f, "unknown document `{name}` at source `{s}`")
            }
            EvalError::UnknownSource { source: None, name } => {
                write!(f, "unknown document `{name}`")
            }
            EvalError::Kind { op, expected } => {
                write!(f, "{op}: expected {expected} input")
            }
            EvalError::UnknownColumn(c) => write!(f, "unknown column `${c}`"),
            EvalError::UnknownFunction(n) => write!(f, "unknown external function `{n}`"),
            EvalError::Function { name, message } => {
                write!(f, "external function `{name}` failed: {message}")
            }
            EvalError::Source { source, message } => {
                write!(f, "source `{source}` failed: {message}")
            }
            EvalError::Refused { source, reason } => {
                write!(f, "source `{source}` refused the plan: {reason}")
            }
            EvalError::Incomparable(m) => write!(f, "incomparable values: {m}"),
            EvalError::Incompatible { op, message } => write!(f, "{op}: {message}"),
            EvalError::Sink(m) => write!(f, "answer sink failed: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}
