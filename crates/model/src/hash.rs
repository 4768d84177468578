//! A small, stable FNV-1a hasher for structural keys.
//!
//! The data plane keys dedup/group/join work on 64-bit structural hashes
//! (see [`crate::Node::key_hash`]); the cache layer derives plan
//! signatures with the same primitive. FNV-1a is the repo's stock scheme
//! (also used for content-derived Skolem identifiers): byte-at-a-time,
//! dependency-free, and stable across runs — unlike `std`'s randomized
//! `DefaultHasher`, whose per-process seed would make hashes unusable as
//! reproducible signatures.
//!
//! [`Partition`] is the one hash-first grouping kernel: matcher row
//! dedup, `Tab` dedup, the `Group` operator and `Tree` template grouping
//! all number their items by first occurrence through it, and a
//! streamed `Tree` template keeps its running core, [`FirstSeen`],
//! across batches.

use std::collections::HashMap;
use std::hash::Hasher;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit [`Hasher`].
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // fixed-width integer writes use little-endian bytes so hashes do not
    // depend on the host's native endianness
    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }
    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }
    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }
    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }
    fn write_usize(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }
}

/// Writes a length-prefixed string. The prefix closes the encoding:
/// variable-length text followed by more fields cannot alias a different
/// `(text, fields)` split — the concatenation ambiguity that motivated the
/// separator bugfix in the old string keys.
pub fn write_len_str(h: &mut impl Hasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// First-occurrence numbering of keys that arrive one at a time: the
/// running core of [`Partition::by_key`], and what a consumer that sees
/// its items in batches keeps between them (a streamed `Tree` template
/// numbers its groups across every batch of rows).
#[derive(Debug, Clone, Default)]
pub struct FirstSeen {
    /// The first group per hash, then a chain through later groups
    /// sharing it.
    heads: HashMap<u64, usize>,
    next_same: Vec<Option<usize>>,
}

impl FirstSeen {
    /// An empty numbering with room for `n` groups.
    pub fn with_capacity(n: usize) -> Self {
        FirstSeen {
            heads: HashMap::with_capacity(n),
            next_same: Vec::new(),
        }
    }

    /// Makes room for `n` more groups, so numbering the next `n` items
    /// does not grow the table item by item.
    pub fn reserve(&mut self, n: usize) {
        self.heads.reserve(n);
        self.next_same.reserve(n);
    }

    /// Groups numbered so far.
    pub fn len(&self) -> usize {
        self.next_same.len()
    }

    /// True before the first group.
    pub fn is_empty(&self) -> bool {
        self.next_same.is_empty()
    }

    /// The group of an item hashing to `hash`: the first earlier group
    /// `g` with that hash for which `same(g)` holds, else a new group
    /// numbered [`FirstSeen::len`]. The flag is true for a new group.
    pub fn group(&mut self, hash: u64, mut same: impl FnMut(usize) -> bool) -> (usize, bool) {
        let (mut at, mut last) = (self.heads.get(&hash).copied(), None);
        while let Some(g) = at {
            if same(g) {
                return (g, false);
            }
            last = Some(g);
            at = self.next_same[g];
        }
        let g = self.next_same.len();
        self.next_same.push(None);
        match last {
            Some(l) => self.next_same[l] = Some(g),
            None => {
                self.heads.insert(hash, g);
            }
        }
        (g, true)
    }
}

/// A partition of items `0..n` into key groups, in first-occurrence
/// order, with each group's members in item order — stored flat, so
/// grouping allocates the same handful of buffers for two groups as for
/// two thousand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Group `g` is `members[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<usize>,
    members: Vec<usize>,
}

impl Partition {
    /// Groups items `0..n` by key: `hash` first, `eq` confirming a hash
    /// hit against each candidate group's first item.
    pub fn by_key(
        n: usize,
        mut hash: impl FnMut(usize) -> u64,
        mut eq: impl FnMut(usize, usize) -> bool,
    ) -> Partition {
        let mut seen = FirstSeen::with_capacity(n);
        let mut firsts: Vec<usize> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            let (g, new) = seen.group(hash(i), |g| eq(firsts[g], i));
            if new {
                firsts.push(i);
            }
            group_of.push(g);
        }
        // counting sort by group, stable in item order
        let mut bounds = vec![0; firsts.len() + 1];
        for &g in &group_of {
            bounds[g + 1] += 1;
        }
        for g in 0..firsts.len() {
            bounds[g + 1] += bounds[g];
        }
        let mut fill = bounds[..firsts.len()].to_vec();
        let mut members = vec![0; n];
        for (i, &g) in group_of.iter().enumerate() {
            members[fill[g]] = i;
            fill[g] += 1;
        }
        Partition { bounds, members }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True when there are no groups (no items).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The groups in first-occurrence order, each its items in order.
    pub fn groups(&self) -> impl Iterator<Item = &[usize]> {
        self.bounds.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a("a") is a published test vector
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn len_prefix_prevents_concatenation_aliasing() {
        let mut a = Fnv64::new();
        write_len_str(&mut a, "ab");
        write_len_str(&mut a, "c");
        let mut b = Fnv64::new();
        write_len_str(&mut b, "a");
        write_len_str(&mut b, "bc");
        assert_ne!(a.finish(), b.finish());
    }
}
