//! yat-federate: the N-source federation registry.
//!
//! The paper's mediator architecture (Fig. 2) is built for many
//! heterogeneous sources; this crate holds the machinery that scales the
//! two-source repro to a real federation:
//!
//! * [`SourceRegistry`] — members grouped into *replica groups* (each
//!   member holds the full data) and *partition groups* (each member
//!   holds a disjoint shard keyed by a partition field), with per-member
//!   capability flags and a health/cost record;
//! * [`CostRecord`] — EWMA latency/bytes plus trip, error and cache
//!   counters, fed from the transport and cache layers and consulted by
//!   the scheduler and the optimizer;
//! * [`constraints_of`] — conjunctive constraint extraction from a plan
//!   fragment, the input to partition pruning: a shard whose declared
//!   partition values cannot match the fragment's constants is never
//!   contacted;
//! * [`PartialFailure`] / [`ProvLog`] — the degraded-answer policy: under
//!   `Degrade`, a failing member contributes nothing instead of failing
//!   the whole query, and the answer carries `answered-by` /
//!   `missing-sources` provenance.

#![deny(missing_docs)]

pub mod adapters;
pub mod cost;
pub mod prune;
pub mod registry;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

pub use adapters::{Dead, FetchOnly};
pub use cost::{CostRecord, CostSnapshot};
pub use prune::{constraints_of, Constraints};
pub use registry::{GroupKind, Member, MemberRole, SourceRegistry};

/// What a per-source failure does to the query (Section "partial
/// failure"). Set through `Mediator::set_partial_failure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartialFailure {
    /// Any source failure fails the whole query — today's semantics.
    #[default]
    Strict,
    /// A failing source contributes nothing; the answer is degraded and
    /// annotated with provenance.
    Degrade,
}

/// `strict` or `degrade`/`degraded`.
impl std::str::FromStr for PartialFailure {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.trim().to_ascii_lowercase().as_str() {
            "strict" => Ok(PartialFailure::Strict),
            "degrade" | "degraded" => Ok(PartialFailure::Degrade),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for PartialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartialFailure::Strict => write!(f, "strict"),
            PartialFailure::Degrade => write!(f, "degrade"),
        }
    }
}

/// Which sources contributed to an answer and which contributions are
/// missing — the `answered-by` / `missing-sources` annotation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Members (or plain sources) whose data reached the answer.
    pub answered_by: BTreeSet<String>,
    /// Members whose contribution is absent, with the error that caused
    /// it. Empty for a complete answer.
    pub missing: BTreeMap<String, String>,
}

impl Provenance {
    /// True when at least one contribution is missing.
    pub fn is_degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// The `answered-by` attribute value (comma-joined member names).
    pub fn answered_by_attr(&self) -> String {
        self.answered_by
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The `missing-sources` attribute value (comma-joined member names;
    /// the error detail stays server-side, in EXPLAIN).
    pub fn missing_attr(&self) -> String {
        self.missing.keys().cloned().collect::<Vec<_>>().join(",")
    }

    /// Rebuilds a provenance from wire attributes (the client side of
    /// the annotation; error details do not travel).
    pub fn from_attrs(answered_by: Option<&str>, missing: Option<&str>) -> Provenance {
        let split = |s: Option<&str>| -> BTreeSet<String> {
            s.into_iter()
                .flat_map(|s| s.split(','))
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect()
        };
        Provenance {
            answered_by: split(answered_by),
            missing: split(missing)
                .into_iter()
                .map(|m| (m, String::new()))
                .collect(),
        }
    }
}

/// A thread-safe provenance accumulator threaded through one execution.
#[derive(Debug, Default)]
pub struct ProvLog {
    inner: Mutex<Provenance>,
}

impl ProvLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `source` contributed data to the answer.
    pub fn touch(&self, source: &str) {
        let mut p = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        p.answered_by.insert(source.to_string());
    }

    /// Records that `source`'s contribution is missing because of
    /// `error`.
    pub fn miss(&self, source: &str, error: impl Into<String>) {
        let mut p = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        p.missing
            .entry(source.to_string())
            .or_insert_with(|| error.into());
    }

    /// The provenance accumulated so far.
    pub fn snapshot(&self) -> Provenance {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_attrs_round_trip() {
        let log = ProvLog::new();
        log.touch("o2art_0");
        log.touch("wais_1");
        log.miss("wais_2", "connection reset");
        log.miss("wais_2", "second error is ignored");
        let p = log.snapshot();
        assert!(p.is_degraded());
        assert_eq!(p.answered_by_attr(), "o2art_0,wais_1");
        assert_eq!(p.missing_attr(), "wais_2");
        assert_eq!(p.missing["wais_2"], "connection reset");

        let back = Provenance::from_attrs(Some("o2art_0,wais_1"), Some("wais_2"));
        assert_eq!(back.answered_by, p.answered_by);
        assert_eq!(
            back.missing.keys().collect::<Vec<_>>(),
            p.missing.keys().collect::<Vec<_>>()
        );

        let complete = Provenance::from_attrs(None, None);
        assert!(!complete.is_degraded());
        assert!(complete.answered_by.is_empty());
    }
}
