//! Structural indexes over YAT trees: label occurrences and
//! root-to-node label-path postings.
//!
//! A [`TreeIndex`] is built once per collection tree (one linear walk)
//! and lets the matcher seed candidate top-level children from a
//! *required path* of the filter instead of walking every subtree
//! (`matching::match_filter_indexed`). Paths are keyed by the same
//! FNV-1a machinery as the hashed data plane ([`crate::hash`]): a path
//! hash accumulates one component per node from the root down — interned
//! [`Symbol`] text for element tags, the grouping-key hash for atomic
//! leaves — so value-level lookups (`cplace["Giverny"]`) cost one map
//! probe regardless of collection size.
//!
//! Soundness contract: for every node reachable by open matching inside
//! top-level child `i`, the node's root-to-node path hash maps to a
//! posting list containing `i`. Identified (`Oid`) wrappers contribute
//! no component — the matcher descends through them transparently — and
//! atoms hash through [`Atom::key_hash_into`], which is coarser than the
//! matcher's `value_eq`, so an index lookup can only over-approximate
//! (extra candidates are discarded by re-matching, never the reverse).

use crate::atom::Atom;
use crate::hash::{write_len_str, Fnv64};
use crate::postings::{Lists, Postings};
use crate::symbol::Symbol;
use crate::tree::{Label, Tree};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hasher;

/// A structural index over one collection tree: `label → occurrence
/// count` and `root-to-node label-path hash → top-level child indices`.
#[derive(Debug, Clone, Default)]
pub struct TreeIndex {
    /// Path-hash → children whose subtree contains a node at that path.
    paths: HashMap<u64, Postings>,
    /// The posting lists of paths two or more children share.
    lists: Lists,
    /// Label → number of occurrences anywhere in the tree (stats and
    /// EXPLAIN reporting; symbol keys are interned so this is cheap).
    labels: HashMap<Symbol, u64>,
    /// The root's symbol, when the root is symbol-labeled.
    root: Option<Symbol>,
    /// Top-level children of the indexed tree.
    children: u32,
    /// Nodes visited during the build.
    nodes: u64,
    /// Whether any reference leaf was seen: reference-following matching
    /// (a `Forest` in scope) can reach structure the index never saw, so
    /// coverage is refused.
    has_refs: bool,
}

/// Appends a symbol path component to a running path hash.
#[inline]
pub(crate) fn path_sym(h: &mut Fnv64, s: &Symbol) {
    h.write_u8(b's');
    write_len_str(h, s.as_str());
}

/// Appends an atomic-leaf path component to a running path hash. Uses
/// the grouping-key hash, which is consistent with (and coarser than)
/// `Atom::value_eq` — Int/Float coercion preserved.
#[inline]
pub(crate) fn path_atom(h: &mut Fnv64, a: &Atom) {
    h.write_u8(b'a');
    a.key_hash_into(h);
}

impl TreeIndex {
    /// Builds the index over `tree` in one walk.
    pub fn build(tree: &Tree) -> TreeIndex {
        let mut idx = TreeIndex {
            children: tree.children.len() as u32,
            ..TreeIndex::default()
        };
        let mut h = Fnv64::new();
        match &tree.label {
            Label::Sym(s) => {
                idx.root = Some(s.clone());
                idx.bump_label(s);
                path_sym(&mut h, s);
            }
            // non-symbol roots are never the collection shape the
            // indexed matcher covers; index them for stats only
            Label::Atom(a) => path_atom(&mut h, a),
            Label::Oid(_) => {}
            Label::Ref(_) => idx.has_refs = true,
        }
        idx.nodes += 1;
        for (i, kid) in tree.children.iter().enumerate() {
            idx.walk(kid, h, i as u32);
        }
        idx
    }

    fn walk(&mut self, t: &Tree, h: Fnv64, child: u32) {
        self.nodes += 1;
        match &t.label {
            Label::Sym(s) => {
                self.bump_label(s);
                let mut h = h;
                path_sym(&mut h, s);
                self.record(h.finish(), child);
                for kid in &t.children {
                    self.walk(kid, h, child);
                }
            }
            Label::Atom(a) => {
                let mut h = h;
                path_atom(&mut h, a);
                self.record(h.finish(), child);
            }
            // identity wrappers are transparent to matching: no path
            // component, descend with the parent's hash state
            Label::Oid(_) => {
                for kid in &t.children {
                    self.walk(kid, h, child);
                }
            }
            Label::Ref(_) => self.has_refs = true,
        }
    }

    fn record(&mut self, hash: u64, child: u32) {
        match self.paths.entry(hash) {
            Entry::Occupied(p) => self.lists.insert(p.into_mut(), child),
            Entry::Vacant(slot) => {
                slot.insert(Postings::One(child));
            }
        }
    }

    fn bump_label(&mut self, s: &Symbol) {
        *self.labels.entry(s.clone()).or_insert(0) += 1;
    }

    /// Children whose subtree contains a node at the hashed path
    /// (ascending, deduplicated). Empty when no child does.
    pub fn postings(&self, path_hash: u64) -> &[u32] {
        self.paths
            .get(&path_hash)
            .map_or(&[], |p| self.lists.get(p))
    }

    /// Occurrences of `label` anywhere in the indexed tree.
    pub fn label_occurrences(&self, label: &str) -> u64 {
        self.labels.get(label).copied().unwrap_or(0)
    }

    /// The indexed root symbol, when symbol-labeled.
    pub fn root(&self) -> Option<&Symbol> {
        self.root.as_ref()
    }

    /// Top-level children of the indexed tree.
    pub fn children(&self) -> u32 {
        self.children
    }

    /// Nodes visited during the build.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Distinct label paths in the index.
    pub fn distinct_paths(&self) -> usize {
        self.paths.len()
    }

    /// Whether the indexed tree contains reference leaves (coverage is
    /// refused then: reference-following matching can reach structure
    /// the index never saw).
    pub fn has_refs(&self) -> bool {
        self.has_refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;
    use crate::tree::Node;

    fn collection() -> Tree {
        Node::sym(
            "works",
            vec![
                Node::sym(
                    "work",
                    vec![
                        Node::elem("title", "Nympheas"),
                        Node::elem("cplace", "Giverny"),
                    ],
                ),
                Node::sym("work", vec![Node::elem("title", "Bridge")]),
                Node::sym(
                    "work",
                    vec![
                        Node::elem("title", "Cathedral"),
                        Node::elem("cplace", "Rouen"),
                    ],
                ),
            ],
        )
    }

    fn hash_path(parts: &[&str]) -> u64 {
        let mut h = Fnv64::new();
        for p in parts {
            path_sym(&mut h, &Symbol::intern(p));
        }
        h.finish()
    }

    #[test]
    fn paths_map_to_child_indices() {
        let idx = TreeIndex::build(&collection());
        assert_eq!(idx.children(), 3);
        assert_eq!(idx.root().unwrap().as_str(), "works");
        assert_eq!(idx.postings(hash_path(&["works", "work"])), &[0, 1, 2]);
        assert_eq!(
            idx.postings(hash_path(&["works", "work", "cplace"])),
            &[0, 2]
        );
        assert_eq!(idx.postings(hash_path(&["works", "nope"])), &[] as &[u32]);
    }

    #[test]
    fn atom_components_reach_values() {
        let idx = TreeIndex::build(&collection());
        let mut h = Fnv64::new();
        for p in ["works", "work", "cplace"] {
            path_sym(&mut h, &Symbol::intern(p));
        }
        path_atom(&mut h, &Atom::Str("Giverny".into()));
        assert_eq!(idx.postings(h.finish()), &[0]);
    }

    #[test]
    fn label_occurrences_counted() {
        let idx = TreeIndex::build(&collection());
        assert_eq!(idx.label_occurrences("work"), 3);
        assert_eq!(idx.label_occurrences("cplace"), 2);
        assert_eq!(idx.label_occurrences("missing"), 0);
    }

    #[test]
    fn oid_wrappers_are_transparent() {
        let t = Node::sym(
            "set",
            vec![Node::oid(
                Oid::new("a1"),
                vec![Node::sym("class", vec![Node::elem("title", "X")])],
            )],
        );
        let idx = TreeIndex::build(&t);
        // the oid wrapper adds no component: set/class is the path
        assert_eq!(idx.postings(hash_path(&["set", "class"])), &[0]);
        assert_eq!(idx.postings(hash_path(&["set", "class", "title"])), &[0]);
    }

    #[test]
    fn refs_poison_coverage() {
        let t = Node::sym("owners", vec![Node::reference(Oid::new("p1"))]);
        let idx = TreeIndex::build(&t);
        assert!(idx.has_refs());
        let clean = TreeIndex::build(&collection());
        assert!(!clean.has_refs());
    }

    #[test]
    fn postings_deduplicate_within_a_child() {
        // two cplace nodes inside one work: the child appears once
        let t = Node::sym(
            "works",
            vec![Node::sym(
                "work",
                vec![
                    Node::elem("cplace", "Giverny"),
                    Node::elem("cplace", "Giverny"),
                ],
            )],
        );
        let idx = TreeIndex::build(&t);
        assert_eq!(idx.postings(hash_path(&["works", "work", "cplace"])), &[0]);
    }
}
