//! The index plane's control surface: the `YAT_INDEX` switch and the
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
    /// The policy selected by the `YAT_INDEX` environment variable
    /// (`on` or `off`); indexed when unset. An invalid value falls back
    /// to indexed, loudly via [`yat_obs::warn`].
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("YAT_INDEX").ok().as_deref())
    }

    /// [`IndexPolicy::from_env`] on an explicit value (`None` = unset).
    pub fn from_env_value(value: Option<&str>) -> Self {
        let Some(value) = value else {
            return IndexPolicy::default();
        };
        match Self::parse(value) {
            Some(policy) => policy,
            None => {
                yat_obs::warn(format!(
                    "YAT_INDEX=`{value}` is not a valid index policy; accepted \
                     values are `on` or `off` — falling back to on"
                ));
                IndexPolicy::default()
            }
        }
    }

    /// Parses the `YAT_INDEX` syntax.
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "on" | "indexed" => Some(IndexPolicy::On),
            "off" | "scan" => Some(IndexPolicy::Off),
            _ => None,
        }
    }

    /// Whether indexes are consulted.
    pub fn is_on(self) -> bool {
        self == IndexPolicy::On
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
    fn parse_and_default() {
        assert_eq!(IndexPolicy::parse("on"), Some(IndexPolicy::On));
        assert_eq!(IndexPolicy::parse("OFF"), Some(IndexPolicy::Off));
        assert_eq!(IndexPolicy::parse(" scan "), Some(IndexPolicy::Off));
        assert_eq!(IndexPolicy::parse("indexed"), Some(IndexPolicy::On));
        assert_eq!(IndexPolicy::parse("maybe"), None);
        assert_eq!(IndexPolicy::from_env_value(None), IndexPolicy::On);
        assert_eq!(IndexPolicy::from_env_value(Some("off")), IndexPolicy::Off);
        // invalid value: warn + fall back to on
        let warnings = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = warnings.clone();
        yat_obs::set_warn_sink(Some(Box::new(move |msg| {
            sink.lock().unwrap().push(msg.to_string());
        })));
        assert_eq!(IndexPolicy::from_env_value(Some("banana")), IndexPolicy::On);
        yat_obs::set_warn_sink(None);
        let got = warnings.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("YAT_INDEX"), "{}", got[0]);
    }

    #[test]
    fn display_round_trips() {
        for p in [IndexPolicy::On, IndexPolicy::Off] {
            assert_eq!(IndexPolicy::parse(&p.to_string()), Some(p));
        }
    }
}
