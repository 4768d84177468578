//! The inverted index: Wais attribute/value textual queries.

use std::collections::BTreeMap;
use std::fmt::Write;
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
/// ids under boxed token keys; a token with a single posting keeps it
/// inline, with no heap list, and longer lists live in one arena.
/// Multi-token and multi-predicate queries resolve by merging sorted
/// lists ([`intersect_sorted`]), so a conjunction's cost is bounded by
/// its most selective conjunct, not by collection size.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// field → token → documents (ascending, deduplicated).
    postings: BTreeMap<Box<str>, BTreeMap<Box<str>, Postings>>,
    lists: Lists,
    size: usize,
}

/// One token's postings as its map entry holds them: a single id inline
/// — most tokens of a large collection, with no heap list — or the slot
/// of a longer list in the index's [`Lists`].
#[derive(Debug, Clone, Copy)]
enum Postings {
    One(u32),
    Many(u32),
}

/// The ascending, duplicate-free lists of two or more ids, by slot; a
/// freed slot is reused by the next list. Keeping them out of line holds
/// a map entry to its token plus eight bytes.
#[derive(Debug, Default, Clone)]
struct Lists {
    slots: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Lists {
    /// The ids `p` holds, ascending.
    fn get<'a>(&'a self, p: &'a Postings) -> &'a [u32] {
        match p {
            Postings::One(id) => std::slice::from_ref(id),
            Postings::Many(slot) => &self.slots[*slot as usize],
        }
    }

    /// Adds `id` to `p` unless present, keeping it ascending; builds and
    /// adds hand out ascending ids, so this is usually an append.
    fn insert(&mut self, p: &mut Postings, id: u32) {
        match *p {
            Postings::One(only) if only != id => {
                let list = if only < id {
                    vec![only, id]
                } else {
                    vec![id, only]
                };
                *p = Postings::Many(self.alloc(list));
            }
            Postings::One(_) => {}
            Postings::Many(slot) => {
                let list = &mut self.slots[slot as usize];
                match list.last() {
                    Some(&last) if last < id => list.push(id),
                    _ => {
                        if let Err(pos) = list.binary_search(&id) {
                            list.insert(pos, id);
                        }
                    }
                }
            }
        }
    }

    /// Drops `id` from a list of two or more; whether it was there. A
    /// list left with one id moves back inline.
    fn remove(&mut self, p: &mut Postings, id: u32) -> bool {
        let Postings::Many(slot) = *p else {
            return false;
        };
        let list = &mut self.slots[slot as usize];
        let Ok(pos) = list.binary_search(&id) else {
            return false;
        };
        list.remove(pos);
        if let [only] = list[..] {
            *list = Vec::new();
            self.free.push(slot);
            *p = Postings::One(only);
        }
        true
    }

    fn alloc(&mut self, list: Vec<u32>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = list;
                slot
            }
            None => {
                self.slots.push(list);
                u32::try_from(self.slots.len() - 1).expect("posting list slots exhausted")
            }
        }
    }
}

/// The map entry under `key`, inserted empty when missing — looked up by
/// `&str` first, so only a new key allocates.
fn entry<'a, V: Default>(map: &'a mut BTreeMap<Box<str>, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.into(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// A stored document id: ids past `u32::MAX` cannot be indexed.
fn narrow(id: DocId) -> u32 {
    u32::try_from(id).expect("document id exceeds the index's 32-bit ids")
}

impl InvertedIndex {
    /// Builds the index over a document collection.
    pub fn build(docs: &[Tree]) -> Self {
        let mut idx = InvertedIndex::default();
        for (id, doc) in docs.iter().enumerate() {
            idx.add(id, doc);
        }
        idx.pack();
        idx
    }

    /// Packs a freshly built index: trims every list to its length and
    /// refills each token map in key order, so no node is left half
    /// empty by the build's insertion order.
    pub(crate) fn pack(&mut self) {
        for list in &mut self.lists.slots {
            list.shrink_to_fit();
        }
        for tokens in self.postings.values_mut() {
            *tokens = std::mem::take(tokens).into_iter().collect();
        }
    }

    /// Indexes one document under `id`, patching every posting list the
    /// document's tokens touch.
    pub fn add(&mut self, id: DocId, doc: &Tree) {
        let id = narrow(id);
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
    }

    /// Unindexes one document: removes `id` from every posting list its
    /// tokens touch (the inverse of [`InvertedIndex::add`] for the same
    /// document), dropping emptied postings.
    pub fn remove(&mut self, id: DocId, doc: &Tree) {
        let id = narrow(id);
        let (postings, lists) = (&mut self.postings, &mut self.lists);
        visit(doc, |field, token| {
            if let Some(tokens) = postings.get_mut(field) {
                if let Some(p) = tokens.get_mut(token) {
                    if lists.get(p) == [id] {
                        tokens.remove(token);
                    } else {
                        lists.remove(p, id);
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
        let mut result: Option<Vec<u32>> = None;
        for token in tokenize(word) {
            let hits: &[u32] = tokens
                .and_then(|t| t.get(token.as_str()))
                .map_or(&[], |p| self.lists.get(p));
            result = Some(match result {
                None => hits.to_vec(),
                Some(prev) => intersect_sorted(&prev, hits),
            });
            if result.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        result
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
    /// including an empty posting list or an id past 32 bits — returns
    /// `None`: the caller rebuilds from the documents (the snapshot is an
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
            let token_count = take_u32(bytes, &mut at)? as usize;
            let mut tokens = Vec::with_capacity(token_count.min(bytes.len()));
            for _ in 0..token_count {
                let token = take_str(bytes, &mut at)?;
                let len = take_u32(bytes, &mut at)? as usize;
                if len == 0 || len > (bytes.len() - at) / 8 {
                    return None;
                }
                let mut list = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = u64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().ok()?);
                    let id = u32::try_from(id).ok()?;
                    if list.last().is_some_and(|&last| last >= id) {
                        return None; // posting lists are strictly ascending
                    }
                    list.push(id);
                }
                let p = match list[..] {
                    [only] => Postings::One(only),
                    _ => Postings::Many(lists.alloc(list)),
                };
                tokens.push((token, p));
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

/// Merges two ascending posting lists into their intersection — the
/// conjunction combinator for pushed predicates.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
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
    fn intersect_sorted_merges() {
        assert_eq!(
            intersect_sorted(&[1, 3, 5, 9], &[0, 3, 4, 5, 10]),
            vec![3, 5]
        );
        assert!(intersect_sorted(&[1, 2], &[3, 4]).is_empty());
        assert!(intersect_sorted(&[], &[1]).is_empty());
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
        idx.add(0, &works.children[0]);
        assert_eq!(idx.contains("Impressionist"), vec![0, 1]);
        assert_eq!(idx.contains("Giverny"), vec![0]);
    }
}
