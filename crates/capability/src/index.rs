//! The index plane's control surface: the [`IndexPolicy`] switch and the
//! per-execution accounting wrappers report back for `EXPLAIN ANALYZE`.
//!
//! The policy gates *evaluation strategy only*. A wrapper accepts and
//! rejects exactly the same plans, produces byte-identical answers and
//! moves identical wire traffic under either setting — the scan paths
//! stay in the tree as the oracle the differential harness holds the
//! indexed paths to.

use std::fmt;

/// Whether sources consult their indexes (structural, inverted,
/// per-extent field) or evaluate by scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Consult indexes; fall back to scans per-query for anything an
    /// index cannot cover.
    #[default]
    On,
    /// Scan everything — the reference behavior and differential oracle.
    Off,
}

impl IndexPolicy {
    /// Whether indexes are consulted.
    pub fn is_on(self) -> bool {
        self == IndexPolicy::On
    }
}

/// `on`/`indexed` or `off`/`scan`.
impl std::str::FromStr for IndexPolicy {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.trim().to_ascii_lowercase().as_str() {
            "on" | "indexed" => Ok(IndexPolicy::On),
            "off" | "scan" => Ok(IndexPolicy::Off),
            _ => Err(()),
        }
    }
}

impl fmt::Display for IndexPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexPolicy::On => write!(f, "on"),
            IndexPolicy::Off => write!(f, "off"),
        }
    }
}

/// What one pushed-plan request did inside a wrapper: how many index
/// probes ran, how many candidates they seeded, and how much of the
/// collection was actually examined — summed over the plan evaluations
/// the request asked for (one for an `execute`, one per binding for an
/// `execute-batch`). Purely observational — reported
/// out-of-band next to the wire protocol (never *on* it), aggregated
/// into the `EXPLAIN ANALYZE` index section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexReport {
    /// The collection/extent the plan ran over.
    pub collection: String,
    /// Index lookups performed (posting-list probes, path-hash probes,
    /// field-index probes).
    pub probes: u64,
    /// Candidates the probes seeded (documents, objects, or nodes).
    pub candidates: u64,
    /// Documents/objects actually examined to produce the answer.
    pub scanned: u64,
    /// Total size of the collection the plan addressed, once per
    /// evaluation.
    pub collection_size: u64,
    /// Result rows produced.
    pub rows: u64,
    /// Plan evaluations the report covers.
    pub evaluations: u64,
    /// How many of those fell back to a scan.
    pub scans: u64,
}

impl IndexReport {
    /// Whether an index drove any of the evaluations (`false` = every
    /// one took the scan path).
    pub fn indexed(&self) -> bool {
        self.scans < self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        for p in [IndexPolicy::On, IndexPolicy::Off] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }
}
