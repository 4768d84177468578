//! Interned symbols for element tags and attribute names.
//!
//! XML documents repeat a small vocabulary of tags millions of times; the
//! `Bind` matching hot loop compares a pattern label against every candidate
//! node label. Interning gives each distinct symbol one shared `Arc<str>`,
//! so equality is a pointer comparison in the common case and label storage
//! is one machine word per node plus a single allocation per *distinct*
//! symbol (instead of one `String` per node).
//!
//! The interner is global and append-only: symbols live for the lifetime of
//! the process. That is the right trade-off here — tag vocabularies are
//! bounded by schemas, not by data volume.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned string: cheap to clone, cheap to compare.
///
/// Two `Symbol`s with the same text are (normally) the same allocation, so
/// `==` is `Arc::ptr_eq` first and only falls back to byte comparison for
/// symbols that bypassed the interner (e.g. after crossing a serialization
/// boundary in a future persistent format). `Ord`/`Hash` are by content, so
/// a `Symbol` behaves like its text in ordered maps and hashed maps alike.
#[derive(Clone)]
pub struct Symbol(Arc<str>);

fn interner() -> &'static Mutex<HashSet<Arc<str>>> {
    static INTERNER: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashSet::new()))
}

impl Symbol {
    /// Interns `name`, returning the canonical `Symbol` for that text.
    pub fn intern(name: &str) -> Symbol {
        let mut set = interner().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = set.get(name) {
            return Symbol(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(name);
        set.insert(Arc::clone(&arc));
        Symbol(arc)
    }

    /// The symbol text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for Symbol {}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}
impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}
impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}
impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}
impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // content hash, consistent with Eq and with Borrow<str>
        self.0.hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}
impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}
impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::intern(s)
    }
}
impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Self {
        s.clone()
    }
}
impl From<Symbol> for String {
    fn from(s: Symbol) -> Self {
        s.as_str().to_string()
    }
}
impl From<&Symbol> for String {
    fn from(s: &Symbol) -> Self {
        s.as_str().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_allocations() {
        let a = Symbol::intern("work");
        let b = Symbol::intern("work");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        let c = Symbol::intern("title");
        assert_ne!(a, c);
    }

    #[test]
    fn behaves_like_its_text() {
        let s = Symbol::intern("artist");
        assert_eq!(s, "artist");
        assert_eq!("artist", s);
        assert_eq!(s, String::from("artist"));
        assert_eq!(s.len(), 6);
        assert!(s.starts_with("art"));
        assert_eq!(s.to_string(), "artist");
        assert_eq!(format!("{s:?}"), "\"artist\"");
        assert!(Symbol::intern("a") < Symbol::intern("b"));
    }
}
