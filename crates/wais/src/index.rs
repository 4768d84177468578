//! The inverted index: Wais attribute/value textual queries.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use yat_model::postings::{conjoin, Lists, Postings, Removed};
use yat_model::{Atom, Label, Tree};

/// A document id within the collection. Ids are slot positions and stay
/// stable across removals (removed slots are tombstoned, never reused).
pub type DocId = usize;

/// A per-field inverted index over a document collection.
///
/// Z39.50 queries are attribute/value pairs: `field = word`. The pseudo
/// field `""` (empty) indexes the full text of each document, which is
/// what the bare `contains(doc, word)` predicate searches.
///
/// Posting lists are ascending, deduplicated lists of 32-bit document
/// ids under boxed token keys, in the shared layout of
/// [`yat_model::postings`]: a token with a single posting keeps it
/// inline, with no heap list, and longer lists live in one arena.
/// Multi-token and multi-predicate queries resolve by merging sorted
/// lists, so a conjunction's cost is bounded by its most selective
/// conjunct, not by collection size.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// field → token → documents (ascending, deduplicated).
    postings: BTreeMap<Box<str>, BTreeMap<Box<str>, Postings>>,
    lists: Lists,
    size: usize,
}

/// The map entry under `key`, inserted empty when missing — looked up by
/// `&str` first, so only a new key allocates.
fn entry<'a, V: Default>(map: &'a mut BTreeMap<Box<str>, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.into(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// A document id past the index's 32-bit ids. Wais ids are never
/// reused, so a source that has handed out 2^32 of them takes no more
/// documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdsExhausted(pub DocId);

impl fmt::Display for IdsExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "document id {} exceeds the inverted index's 32-bit ids; the source takes no more documents",
            self.0
        )
    }
}

impl std::error::Error for IdsExhausted {}

/// A stored document id: ids past `u32::MAX` cannot be indexed.
fn narrow(id: DocId) -> Result<u32, IdsExhausted> {
    u32::try_from(id).map_err(|_| IdsExhausted(id))
}

impl InvertedIndex {
    /// Builds the index over a document collection.
    pub fn build(docs: &[Tree]) -> Self {
        let mut idx = InvertedIndex::default();
        for (id, doc) in docs.iter().enumerate() {
            idx.add(id, doc)
                .expect("a collection built at once holds fewer than 2^32 documents");
        }
        idx.pack();
        idx
    }

    /// Packs a freshly built index: trims every list to its length and
    /// refills each token map in key order, so no node is left half
    /// empty by the build's insertion order.
    pub(crate) fn pack(&mut self) {
        self.lists.shrink_to_fit();
        for tokens in self.postings.values_mut() {
            *tokens = std::mem::take(tokens).into_iter().collect();
        }
    }

    /// Indexes one document under `id`, patching every posting list the
    /// document's tokens touch. An id past `u32::MAX` is refused and the
    /// index left unchanged.
    pub fn add(&mut self, id: DocId, doc: &Tree) -> Result<(), IdsExhausted> {
        let id = narrow(id)?;
        let (postings, lists) = (&mut self.postings, &mut self.lists);
        visit(doc, |field, token| {
            let tokens = entry(postings, field);
            match tokens.get_mut(token) {
                Some(p) => lists.insert(p, id),
                None => {
                    tokens.insert(token.into(), Postings::One(id));
                }
            }
        });
        self.size += 1;
        Ok(())
    }

    /// Unindexes one document: removes `id` from every posting list its
    /// tokens touch (the inverse of [`InvertedIndex::add`] for the same
    /// document), dropping emptied postings.
    pub fn remove(&mut self, id: DocId, doc: &Tree) {
        // an id past `u32::MAX` was never indexed
        let Ok(id) = narrow(id) else {
            return;
        };
        let (postings, lists) = (&mut self.postings, &mut self.lists);
        visit(doc, |field, token| {
            if let Some(tokens) = postings.get_mut(field) {
                if let Some(p) = tokens.get_mut(token) {
                    if lists.remove(p, id) == Removed::Emptied {
                        tokens.remove(token);
                    }
                }
                if tokens.is_empty() {
                    postings.remove(field);
                }
            }
        });
        self.size = self.size.saturating_sub(1);
    }

    /// Documents whose full text contains `word` (case-insensitive,
    /// token-level). Ascending.
    pub fn contains(&self, word: &str) -> Vec<DocId> {
        self.lookup("", word)
    }

    /// Documents whose `field` contains `word`. Ascending.
    pub fn lookup(&self, field: &str, word: &str) -> Vec<DocId> {
        let tokens = self.postings.get(field);
        conjoin(tokenize(word).iter().map(|token| {
            tokens
                .and_then(|t| t.get(token.as_str()))
                .map_or(&[][..], |p| self.lists.get(p))
        }))
        .unwrap_or_default()
        .into_iter()
        .map(|id| id as DocId)
        .collect()
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Number of distinct (field, token) postings — index footprint, used
    /// in reports.
    pub fn posting_count(&self) -> usize {
        self.postings.values().map(|p| p.len()).sum()
    }

    /// Serializes the index for a store sidecar snapshot (all integers
    /// little-endian): `size:u64 field_count:u32 (field:str
    /// token_count:u32 (token:str len:u32 id:u64*)*)*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(s: &str, out: &mut Vec<u8>) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.size as u64).to_le_bytes());
        out.extend_from_slice(&(self.postings.len() as u32).to_le_bytes());
        for (field, tokens) in &self.postings {
            put_str(field, &mut out);
            out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            for (token, p) in tokens {
                put_str(token, &mut out);
                let list = self.lists.get(p);
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for &id in list {
                    out.extend_from_slice(&u64::from(id).to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a [`InvertedIndex::to_bytes`] snapshot. Any damage —
    /// including an empty posting list, an id past 32 bits, or field or
    /// token keys out of their strictly ascending order — returns `None`:
    /// the caller rebuilds from the documents (the snapshot is an
    /// optimization, never a source of truth).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
            let end = at.checked_add(n).filter(|&e| e <= bytes.len())?;
            let s = &bytes[*at..end];
            *at = end;
            Some(s)
        }
        fn take_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
            Some(u32::from_le_bytes(take(bytes, at, 4)?.try_into().ok()?))
        }
        fn take_str(bytes: &[u8], at: &mut usize) -> Option<Box<str>> {
            let len = take_u32(bytes, at)? as usize;
            Some(std::str::from_utf8(take(bytes, at, len)?).ok()?.into())
        }
        let mut at = 0usize;
        let size = u64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().ok()?) as usize;
        let field_count = take_u32(bytes, &mut at)? as usize;
        let mut postings = Vec::new();
        let mut lists = Lists::default();
        for _ in 0..field_count {
            let field = take_str(bytes, &mut at)?;
            if postings.last().is_some_and(|(last, _)| *last >= field) {
                return None; // field keys are strictly ascending
            }
            let token_count = take_u32(bytes, &mut at)? as usize;
            let mut tokens = Vec::with_capacity(token_count.min(bytes.len()));
            for _ in 0..token_count {
                let token = take_str(bytes, &mut at)?;
                if tokens.last().is_some_and(|(last, _)| *last >= token) {
                    return None; // token keys are strictly ascending
                }
                let len = take_u32(bytes, &mut at)? as usize;
                if len > (bytes.len() - at) / 8 {
                    return None;
                }
                let mut list = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = u64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().ok()?);
                    list.push(u32::try_from(id).ok()?);
                }
                // posting lists are non-empty and strictly ascending
                tokens.push((token, lists.adopt(list)?));
            }
            // keys arrive ascending: build packed maps in one pass
            postings.push((field, tokens.into_iter().collect()));
        }
        if at != bytes.len() {
            return None;
        }
        Some(InvertedIndex {
            postings: postings.into_iter().collect(),
            lists,
            size,
        })
    }
}

/// Walks every (field, token) pair one document contributes: the full
/// text under the pseudo field `""`, plus each descendant element's
/// subtree under its own tag (Z39.50 attributes address nested structure
/// too — `technique` lives inside `history` in Fig. 1). [`InvertedIndex::add`]
/// and [`InvertedIndex::remove`] share this walk, so unindexing visits
/// exactly the postings indexing touched.
fn visit<F: FnMut(&str, &str)>(doc: &Tree, mut f: F) {
    let mut bufs = Buffers::default();
    atoms(doc, "", &mut bufs, &mut f);
    fields(doc, &mut bufs, &mut f);
}

/// Buffers one walk reuses: a non-string atom's text, and a lowercased
/// word.
#[derive(Default)]
struct Buffers {
    text: String,
    word: String,
}

fn atoms<F: FnMut(&str, &str)>(t: &Tree, field: &str, bufs: &mut Buffers, f: &mut F) {
    if let Label::Atom(a) = &t.label {
        let Buffers { text, word } = bufs;
        let text = match a {
            Atom::Str(s) => s.as_str(),
            other => {
                text.clear();
                write!(text, "{other}").expect("writing to a String cannot fail");
                text.as_str()
            }
        };
        for_each_token(text, word, |token| f(field, token));
    }
    for c in &t.children {
        atoms(c, field, bufs, f);
    }
}

fn fields<F: FnMut(&str, &str)>(t: &Tree, bufs: &mut Buffers, f: &mut F) {
    for child in &t.children {
        if let Label::Sym(field) = &child.label {
            atoms(child, field, bufs, f);
            fields(child, bufs, f);
        }
    }
}

/// Hands each lowercased alphanumeric token of `text` to `f`. ASCII words
/// lowercase in `word` (or are passed through when already lowercase);
/// others go through [`str::to_lowercase`], context rules included.
fn for_each_token(text: &str, word: &mut String, mut f: impl FnMut(&str)) {
    for w in text.split(|c: char| !c.is_alphanumeric()) {
        if w.is_empty() {
            continue;
        }
        if !w.is_ascii() {
            f(&w.to_lowercase());
        } else if w.bytes().any(|b| b.is_ascii_uppercase()) {
            word.clear();
            word.push_str(w);
            word.make_ascii_lowercase();
            f(word);
        } else {
            f(w);
        }
    }
}

/// Lowercased alphanumeric tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |token| {
        out.push(token.to_string())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs::fig1_works;

    fn index() -> InvertedIndex {
        let works = fig1_works();
        InvertedIndex::build(&works.children)
    }

    #[test]
    fn full_text_contains() {
        let idx = index();
        assert_eq!(idx.len(), 2);
        // both works are impressionist
        assert_eq!(idx.contains("Impressionist").len(), 2);
        // case-insensitive
        assert_eq!(idx.contains("impressionist").len(), 2);
        // only the first was painted at Giverny
        assert_eq!(idx.contains("Giverny"), vec![0]);
        // tokens inside mixed content are found
        assert_eq!(idx.contains("canvas"), vec![1]);
        assert!(idx.contains("cubist").is_empty());
    }

    #[test]
    fn intersect_sorted_merges() {
        // multi-word queries conjoin token postings through the shared
        // posting kernel
        use yat_model::postings::intersect;
        assert_eq!(intersect(&[1u32, 3, 5, 9], &[0, 3, 4, 5, 10]), vec![3, 5]);
        assert!(intersect(&[1u32, 2], &[3, 4]).is_empty());
        assert!(intersect(&[], &[1u32]).is_empty());
        assert_eq!(
            conjoin([vec![1u32, 3, 5, 9], vec![0, 3, 4, 5, 10]]),
            Some(vec![3, 5])
        );
    }

    #[test]
    fn multi_word_queries_intersect() {
        let idx = index();
        assert_eq!(idx.contains("Claude Monet").len(), 2);
        assert_eq!(idx.contains("Monet Giverny").len(), 1);
        assert!(idx.contains("Monet cubist").is_empty());
        // empty needle matches nothing (no tokens)
        assert!(idx.contains("").is_empty());
    }

    #[test]
    fn field_scoped_lookup() {
        let idx = index();
        // "Monet" appears in artist but not title
        assert_eq!(idx.lookup("artist", "Monet").len(), 2);
        assert!(idx.lookup("title", "Monet").is_empty());
        assert_eq!(idx.lookup("title", "Waterloo").len(), 1);
        assert_eq!(idx.lookup("cplace", "Giverny").len(), 1);
        // nested fields are addressable (technique inside history)
        assert_eq!(idx.lookup("technique", "canvas").len(), 1);
        assert_eq!(idx.lookup("history", "canvas").len(), 1);
        assert!(idx.lookup("nosuchfield", "x").is_empty());
    }

    #[test]
    fn tokenizer() {
        assert_eq!(tokenize("Oil on canvas!"), vec!["oil", "on", "canvas"]);
        assert_eq!(tokenize("29.2 x 46.4"), vec!["29", "2", "x", "46", "4"]);
        assert!(tokenize("  ,;  ").is_empty());
    }

    #[test]
    fn posting_count_positive() {
        assert!(index().posting_count() > 10);
        assert!(InvertedIndex::default().is_empty());
    }

    #[test]
    fn snapshot_round_trips() {
        let idx = index();
        let bytes = idx.to_bytes();
        let back = InvertedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.posting_count(), idx.posting_count());
        assert_eq!(back.contains("Giverny"), idx.contains("Giverny"));
        assert_eq!(
            back.lookup("artist", "Monet"),
            idx.lookup("artist", "Monet")
        );
        // damage returns None rather than a wrong index
        assert!(InvertedIndex::from_bytes(&bytes[..bytes.len() - 3]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(InvertedIndex::from_bytes(&extra).is_none());
    }

    /// FNV-1a of `bytes`, and their length.
    fn fingerprint(bytes: &[u8]) -> (u64, usize) {
        use std::hash::Hasher;
        let mut h = yat_model::hash::Fnv64::new();
        h.write(bytes);
        (h.finish(), bytes.len())
    }

    #[test]
    fn sidecar_bytes_are_pinned() {
        let works = fig1_works();
        let mut idx = InvertedIndex::build(&works.children);
        let built = idx.to_bytes();
        assert_eq!(fingerprint(&built), (0xe30e_bcdf_e4d0_5d53, 1057));
        idx.remove(0, &works.children[0]);
        assert_eq!(fingerprint(&idx.to_bytes()), (0x82ab_20bc_e5ed_fb0b, 813));
        idx.add(0, &works.children[0]).unwrap();
        assert_eq!(idx.to_bytes(), built, "re-adding restores the bytes");
    }

    /// One field of a hand-written sidecar: its tokens and their ids.
    type Field<'a> = (&'a str, &'a [(&'a str, &'a [u64])]);

    /// A hand-written sidecar of `size` documents: each field with its
    /// tokens and their ids, in the order given.
    fn sidecar(size: u64, fields: &[Field<'_>]) -> Vec<u8> {
        fn put_str(s: &str, out: &mut Vec<u8>) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = size.to_le_bytes().to_vec();
        out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
        for (field, tokens) in fields {
            put_str(field, &mut out);
            out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            for (token, ids) in *tokens {
                put_str(token, &mut out);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in *ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
        }
        out
    }

    #[test]
    fn snapshot_keys_must_ascend() {
        let good = sidecar(
            2,
            &[("", &[("a", &[0]), ("b", &[1])]), ("t", &[("a", &[0, 1])])],
        );
        let idx = InvertedIndex::from_bytes(&good).expect("well-formed");
        assert_eq!(idx.to_bytes(), good);
        // a token listed twice would silently lose doc 0's posting
        let twice = sidecar(2, &[("", &[("a", &[0]), ("a", &[1])])]);
        assert!(InvertedIndex::from_bytes(&twice).is_none());
        let descending = sidecar(2, &[("", &[("b", &[0]), ("a", &[1])])]);
        assert!(InvertedIndex::from_bytes(&descending).is_none());
        let field_twice = sidecar(2, &[("t", &[("a", &[0])]), ("t", &[("b", &[1])])]);
        assert!(InvertedIndex::from_bytes(&field_twice).is_none());
        let fields_descending = sidecar(2, &[("t", &[("a", &[0])]), ("", &[("b", &[1])])]);
        assert!(InvertedIndex::from_bytes(&fields_descending).is_none());
    }

    #[test]
    fn remove_patches_postings() {
        let works = fig1_works();
        let mut idx = InvertedIndex::build(&works.children);
        assert_eq!(idx.contains("Impressionist"), vec![0, 1]);
        idx.remove(0, &works.children[0]);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.contains("Impressionist"), vec![1]);
        assert!(
            idx.contains("Giverny").is_empty(),
            "doc 0's tokens are gone"
        );
        // re-adding restores the exact postings
        idx.add(0, &works.children[0]).unwrap();
        assert_eq!(idx.contains("Impressionist"), vec![0, 1]);
        assert_eq!(idx.contains("Giverny"), vec![0]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn ids_past_32_bits_are_refused_without_a_trace() {
        let works = fig1_works();
        let mut idx = InvertedIndex::build(&works.children);
        let last = u32::MAX as DocId;
        idx.add(last, &works.children[0]).unwrap();
        assert_eq!(idx.contains("Giverny"), vec![0, last]);
        let before = idx.to_bytes();
        assert_eq!(
            idx.add(last + 1, &works.children[0]),
            Err(IdsExhausted(last + 1))
        );
        assert_eq!(idx.to_bytes(), before, "the index is unchanged");
        idx.remove(last + 1, &works.children[0]);
        assert_eq!(
            idx.to_bytes(),
            before,
            "an id never indexed removes nothing"
        );
        idx.remove(last, &works.children[0]);
        assert_eq!(idx.contains("Giverny"), vec![0]);
    }
}
