//! Mediator-side documents: the one prefetch loop and the catalog local
//! evaluation reads them from.

use super::ship::fail_over;
use super::{ExecError, ExecSpec};
use crate::compose::mediator_side_sources;
use std::collections::{BTreeMap, BTreeSet};
use yat_algebra::Alg;
use yat_cache::{CachedAnswer, Signature};
use yat_capability::protocol::{Request, Response};
use yat_federate::GroupKind;
use yat_model::{Forest, Node, Tree};
use yat_obs::kind;

/// Documents fetched for this execution: a shared forest addressed by
/// name (exported names are globally unique in a YAT federation, as in
/// the paper's example), plus member-scoped documents for plans
/// requalified to read one federation member — checked first so a member
/// read never sees another shard's data.
pub(super) struct RemoteCatalog {
    forest: Forest,
    /// Documents fetched for a specific member (a plan requalified to
    /// read one shard mediator-side), keyed member → document name.
    by_member: BTreeMap<String, BTreeMap<String, Tree>>,
}

impl yat_algebra::SourceCatalog for RemoteCatalog {
    fn document(&self, source: Option<&str>, name: &str) -> Option<Tree> {
        if let Some(src) = source {
            if let Some(tree) = self.by_member.get(src).and_then(|docs| docs.get(name)) {
                return Some(tree.clone());
            }
        }
        self.forest.get(name).cloned()
    }

    fn deref_forest(&self) -> Option<&Forest> {
        Some(&self.forest)
    }
}

/// Fetches the documents the plan's mediator-side operators read: one
/// `get-document` round trip at a time, in plan order, under a single
/// `prefetch documents` span, opened only when the plan reads a document
/// at all. Because fetched data may hold references into a source's
/// *other* documents (Fig. 1's `owners refs="p1 p2 p3"`), every export of
/// a touched source is fetched too, so references dereference.
///
/// A document of a plain source or member is looked up in the answer
/// cache first (against the source's live epoch) and only fetched on a
/// miss; a group resolves its caching per member. A replica group fails
/// over to the cheapest live copy, a partition group unites its shards'
/// contributions. A failure that failover cannot absorb fails the fetch.
pub(super) fn fetch_documents(plan: &Alg, spec: &ExecSpec<'_>) -> Result<RemoteCatalog, ExecError> {
    // insertion order drives fetch order (plan-referenced documents
    // first); the set makes the reference-closure membership test O(log n)
    // instead of a linear rescan of everything fetched so far
    let mut wanted: Vec<(String, String)> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (source, name) in mediator_side_sources(plan) {
        let Some(src) = source else {
            return Err(ExecError::UnknownSource(name));
        };
        if seen.insert((src.clone(), name.clone())) {
            wanted.push((src.clone(), name));
        }
        // reference closure: all other exports of the same source
        if let Some(iface) = spec.interfaces.get(&src) {
            for export in &iface.exports {
                let key = (src.clone(), export.name.clone());
                if seen.insert(key.clone()) {
                    wanted.push(key);
                }
            }
        }
    }

    let mut catalog = RemoteCatalog {
        forest: Forest::new(),
        by_member: BTreeMap::new(),
    };
    if wanted.is_empty() {
        return Ok(catalog);
    }
    let _prefetch = spec
        .obs
        .map(|o| o.span(kind::PHASE, "prefetch documents".to_string()));
    for (src, name) in wanted {
        let tree = match spec.registry.group_kind(&src) {
            Some(GroupKind::Replicated) => replica_fetch(&src, &name, spec)?,
            Some(GroupKind::Partitioned) => partition_fetch(&src, &name, spec)?,
            None => match cached_document(&src, &name, spec) {
                Some(tree) => tree,
                None => wire_fetch(&src, &name, spec)?,
            },
        };
        // a registered member's documents are scoped to it and never
        // served to reads of other members
        if spec.registry.member(&src).is_some() {
            catalog.by_member.entry(src).or_default().insert(name, tree);
        } else {
            catalog.forest.insert(name, tree);
        }
    }
    Ok(catalog)
}

/// Cache lookup for one document of a plain source or member, keyed by
/// its canonical signature and validated against the source's *live*
/// epoch. A hit feeds the member's cost record.
fn cached_document(src: &str, name: &str, spec: &ExecSpec<'_>) -> Option<Tree> {
    let conn = spec.connections.get(src)?;
    match spec
        .cache
        .lookup(Signature::document(src, name), src, conn.epoch(), spec.obs)
    {
        Some(CachedAnswer::Document { tree, .. }) => {
            spec.observe_cache(src, true);
            Some(tree)
        }
        _ => None,
    }
}

/// Fetches one document of `src` over the wire. The fully received
/// document is inserted into the answer cache, tagged with the source
/// epoch read *before* the round trip — data that changes mid-flight
/// lands under the old epoch, which the next bump retires.
fn wire_fetch(src: &str, name: &str, spec: &ExecSpec<'_>) -> Result<Tree, ExecError> {
    let conn = spec
        .connections
        .get(src)
        .ok_or_else(|| ExecError::UnknownSource(format!("{name}@{src}")))?;
    spec.observe_cache(src, false);
    let epoch = conn.epoch();
    let response = conn
        .call_traced(
            &Request::GetDocument {
                name: name.to_string(),
            },
            spec.obs,
        )
        .map_err(|e| ExecError::Wire(format!("fetching `{name}` from `{src}`: {e}")))?;
    match response {
        Response::Document { tree, .. } => {
            spec.cache.insert(
                Signature::document(src, name),
                src,
                epoch,
                CachedAnswer::Document {
                    name: name.to_string(),
                    tree: tree.clone(),
                },
                spec.obs,
            );
            Ok(tree)
        }
        Response::Error(m) => Err(ExecError::Wrapper {
            source: src.to_string(),
            message: m,
        }),
        Response::Refused(reason) => Err(ExecError::Refused {
            source: src.to_string(),
            reason,
        }),
        other => Err(ExecError::Wire(format!("unexpected response {other:?}"))),
    }
}

/// Fetches one document of a replica group: any member's cached copy
/// serves (replicas are interchangeable), then the wire in cost order
/// with failover — losing k of N replicas is lossless as long as one
/// still answers. When every replica fails, the first failure fails the
/// fetch.
fn replica_fetch(group: &str, name: &str, spec: &ExecSpec<'_>) -> Result<Tree, ExecError> {
    for m in spec.registry.members_of(group) {
        if let Some(tree) = cached_document(&m.name, name, spec) {
            return Ok(tree);
        }
    }
    fail_over(
        &spec.registry.replicas_in_cost_order(group, false),
        |member| wire_fetch(member, name, spec),
        // an unknown source is a plan/configuration bug, not a failure
        // another replica can absorb
        |e| matches!(e, ExecError::UnknownSource(_)),
        || ExecError::UnknownSource(format!("{name}@{group}")),
    )
}

/// Fetches one document of a partition group: every shard contributes
/// its copy (cache first, then wire) and the shards' top-level entries
/// unite under one root, in member name order. A failing shard fails
/// the fetch.
fn partition_fetch(group: &str, name: &str, spec: &ExecSpec<'_>) -> Result<Tree, ExecError> {
    let mut root: Option<Tree> = None;
    let mut children: Vec<Tree> = Vec::new();
    for m in spec.registry.members_of(group) {
        let tree = match cached_document(&m.name, name, spec) {
            Some(tree) => tree,
            None => wire_fetch(&m.name, name, spec)?,
        };
        children.extend(tree.children.iter().cloned());
        root.get_or_insert(tree);
    }
    Ok(match root {
        Some(r) => Node::labeled(r.label.clone(), children),
        None => Node::sym(name, vec![]),
    })
}
