//! A cache of structural indexes for mediator-local `Bind` operators.
//!
//! The algebra is "independent of any underlying physical access
//! structure" (Section 3.1) — an index changes *how* a `Bind` finds its
//! matches, never *what* it returns. A [`BindIndexCache`] memoizes one
//! [`TreeIndex`] per collection tree (keyed by the tree's `Arc` pointer
//! identity) so repeated `Bind`s over the same document — across
//! queries and optimizer levels — pay the one-walk build cost
//! once. The evaluator consults it only for trees wide enough that a
//! seeded match can beat a scan ([`INDEX_MIN_CHILDREN`]); below that the
//! walker is already effectively free.
//!
//! Entries hold a [`Weak`] reference to the indexed node and are
//! revalidated by pointer equality on every lookup, so a dropped or
//! replaced document can never serve a stale index — an address reused
//! by a different tree fails the upgrade-and-compare check and is
//! rebuilt in place.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use yat_model::{Node, Tree, TreeIndex};

/// Trees with fewer top-level children than this are matched by the
/// plain walker: the index build would cost more than it saves.
pub const INDEX_MIN_CHILDREN: usize = 64;

/// Stale-entry sweep threshold: when the table grows past this many
/// entries, dead `Weak`s are dropped before inserting.
const SWEEP_LEN: usize = 256;

/// A memo slot: the tree it was built for (weakly, so the cache never
/// extends a collection's lifetime) and its index.
type Slot = (Weak<Node>, Arc<TreeIndex>);

/// Pointer-keyed memo of [`TreeIndex`]es for collection trees.
#[derive(Debug, Default)]
pub struct BindIndexCache {
    inner: Mutex<HashMap<usize, Slot>>,
}

impl BindIndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        BindIndexCache::default()
    }

    /// The index for `tree`, building and memoizing it on first sight.
    /// Returns `None` for trees below [`INDEX_MIN_CHILDREN`], which
    /// should be matched by the plain walker.
    pub fn get_or_build(&self, tree: &Tree) -> Option<Arc<TreeIndex>> {
        if tree.children.len() < INDEX_MIN_CHILDREN {
            return None;
        }
        let key = Arc::as_ptr(tree) as usize;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((weak, index)) = inner.get(&key) {
            if weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, tree)) {
                return Some(index.clone());
            }
        }
        if inner.len() >= SWEEP_LEN {
            inner.retain(|_, (weak, _)| weak.strong_count() > 0);
        }
        let index = Arc::new(TreeIndex::build(tree));
        inner.insert(key, (Arc::downgrade(tree), index.clone()));
        Some(index)
    }

    /// Indexes currently memoized (live or not yet swept).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the cache holds no indexes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide(children: usize) -> Tree {
        Node::sym(
            "works",
            (0..children)
                .map(|i| Node::sym("work", vec![Node::elem("title", format!("t{i}"))]))
                .collect(),
        )
    }

    #[test]
    fn memoizes_per_tree_identity() {
        let cache = BindIndexCache::new();
        let t = wide(INDEX_MIN_CHILDREN);
        let a = cache.get_or_build(&t).unwrap();
        let b = cache.get_or_build(&t).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the build");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn narrow_trees_are_not_indexed() {
        let cache = BindIndexCache::new();
        let t = wide(INDEX_MIN_CHILDREN - 1);
        assert!(cache.get_or_build(&t).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn reused_addresses_rebuild() {
        let cache = BindIndexCache::new();
        // Drop trees until an allocation lands on a cached key; either
        // way every lookup must return an index built over *its* tree.
        for round in 0..32 {
            let t = Node::sym(
                "works",
                (0..INDEX_MIN_CHILDREN + round)
                    .map(|i| Node::sym("work", vec![Node::elem("title", format!("t{i}"))]))
                    .collect(),
            );
            let idx = cache.get_or_build(&t).unwrap();
            assert_eq!(idx.children() as usize, t.children.len());
        }
    }
}
