//! Tree identifiers and their generation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An identifier for a (sub)tree.
///
/// Identifiers come from two places in the paper: object identifiers exported
/// by structured sources (`id="a1"`, `id="p3"` in Fig. 1) and identifiers
/// minted by **Skolem functions** during integration (`artwork($t,$c)` in
/// Section 2). Both are represented uniformly as interned strings so that
/// references (`<owners refs="p1 p2 p3"/>`) can be resolved against a
/// [`crate::Forest`].
///
/// A boxed `str`, not a `String`: an identifier never grows, and the
/// 16-byte handle keeps a tree [`crate::Label`] at 24 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(Box<str>);

impl Oid {
    /// Creates an identifier from a raw string.
    pub fn new(s: impl Into<String>) -> Self {
        Oid(s.into().into_boxed_str())
    }

    /// The raw identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.0)
    }
}

impl From<&str> for Oid {
    fn from(s: &str) -> Self {
        Oid::new(s)
    }
}

/// A generator of fresh identifiers with a common prefix.
///
/// Thread-safe: Skolem functions are evaluated from the executor which may
/// run per-source work concurrently.
#[derive(Debug)]
pub struct OidGen {
    prefix: String,
    next: AtomicU64,
}

impl OidGen {
    /// Creates a generator producing `prefix0`, `prefix1`, ...
    pub fn new(prefix: impl Into<String>) -> Self {
        OidGen {
            prefix: prefix.into(),
            next: AtomicU64::new(0),
        }
    }

    /// Mints a fresh identifier.
    pub fn fresh(&self) -> Oid {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        Oid::new(format!("{}{}", self.prefix, n))
    }

    /// Number of identifiers minted so far.
    pub fn count(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_oids_are_distinct_and_prefixed() {
        let g = OidGen::new("artwork");
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a.as_str().starts_with("artwork"));
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn display_uses_reference_syntax() {
        assert_eq!(Oid::new("p3").to_string(), "&p3");
    }
}
