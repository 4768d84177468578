//! The storage plane's control surface: the [`StorePolicy`] switch and
//! the per-execution storage accounting wrappers report for
//! `EXPLAIN ANALYZE`.
//!
//! Like [`crate::IndexPolicy`], the policy gates *where collections live
//! only*. A store-backed source accepts and rejects exactly the same
//! plans, produces byte-identical answers and moves identical wire
//! traffic as the in-memory source — in-memory mode stays the oracle the
//! differential harness holds the store-backed paths to.

use std::fmt;

/// Where sources keep their collections: in RAM (the reference
/// behavior) or mounted from a persistent segmented store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorePolicy {
    /// Collections live in RAM — the differential oracle.
    #[default]
    Off,
    /// Collections mount from a store under the given directory, with
    /// an optional residency byte budget.
    Dir {
        /// Root directory holding one store per source.
        path: String,
        /// Residency byte budget (`None` = the store default).
        budget: Option<u64>,
    },
}

impl StorePolicy {
    /// Whether sources should mount persistent stores.
    pub fn is_on(&self) -> bool {
        !matches!(self, StorePolicy::Off)
    }
}

/// `off`/`mem` or `dir:<path>[:<budget-bytes>]`.
impl std::str::FromStr for StorePolicy {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let text = text.trim();
        if text.eq_ignore_ascii_case("off") || text.eq_ignore_ascii_case("mem") {
            return Ok(StorePolicy::Off);
        }
        let rest = text.strip_prefix("dir:").ok_or(())?;
        if rest.is_empty() {
            return Err(());
        }
        // The budget is the suffix after the *last* colon, when numeric —
        // paths may themselves contain colons.
        if let Some((path, tail)) = rest.rsplit_once(':') {
            if let Ok(budget) = tail.parse::<u64>() {
                if path.is_empty() {
                    return Err(());
                }
                return Ok(StorePolicy::Dir {
                    path: path.to_string(),
                    budget: Some(budget),
                });
            }
        }
        Ok(StorePolicy::Dir {
            path: rest.to_string(),
            budget: None,
        })
    }
}

impl fmt::Display for StorePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorePolicy::Off => write!(f, "off"),
            StorePolicy::Dir { path, budget: None } => write!(f, "dir:{path}"),
            StorePolicy::Dir {
                path,
                budget: Some(b),
            } => write!(f, "dir:{path}:{b}"),
        }
    }
}

/// What one pushed-plan execution did against a source's persistent
/// store: segments resident and loaded, evictions, bytes read. Purely
/// observational — reported out-of-band next to the wire protocol,
/// aggregated into the `EXPLAIN ANALYZE` storage section. In-memory
/// sources never produce one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// The collection/extent the plan ran over.
    pub collection: String,
    /// Live segments in the source's store.
    pub segments: u64,
    /// Segments resident in the LRU after the execution.
    pub resident: u64,
    /// Segment loads from disk during the execution.
    pub loads: u64,
    /// Segment evictions during the execution.
    pub evictions: u64,
    /// Bytes read from disk during the execution.
    pub bytes_read: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        for p in [
            StorePolicy::Off,
            StorePolicy::Dir {
                path: "/x".into(),
                budget: None,
            },
            StorePolicy::Dir {
                path: "/x".into(),
                budget: Some(4096),
            },
        ] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }
}
