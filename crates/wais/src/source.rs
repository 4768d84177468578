//! The Wais retrieval engine: documents + index + field policy.

use crate::index::{tokenize, DocId, IdsExhausted, InvertedIndex};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yat_capability::IndexPolicy;
use yat_model::{decode_tree, encode_tree, Label, Node, Tree};
use yat_store::{load_sidecar, save_sidecar, DocStore, StoreError, StoreOptions};

/// The Z39.50-style field policy: "a clear separation between what you
/// may retrieve and what you may query" (Section 4.2). `None` means
/// unrestricted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FieldPolicy {
    /// Fields that appear in retrieved documents (others are stripped).
    pub retrievable: Option<BTreeSet<String>>,
    /// Fields textual queries may target (full-text always allowed when
    /// `None`).
    pub queryable: Option<BTreeSet<String>>,
}

impl FieldPolicy {
    /// An unrestricted policy.
    pub fn open() -> Self {
        FieldPolicy::default()
    }

    /// The Section 4.2 example: "only the artist and style elements can
    /// be exported from our XML documents while allowing queries only on
    /// the optional fields".
    pub fn aquarelle_example() -> Self {
        FieldPolicy {
            retrievable: Some(["artist".to_string(), "style".to_string()].into()),
            queryable: Some(
                [
                    "cplace".to_string(),
                    "history".to_string(),
                    "technique".to_string(),
                ]
                .into(),
            ),
        }
    }
}

/// The full-text source: a document collection with its inverted index.
///
/// Search dispatches on the source's [`IndexPolicy`] (`On` unless set
/// otherwise): `On` resolves queries through the inverted index, `Off`
/// scans every live document with identical token semantics — the oracle
/// the differential tests hold the index to. Either way the answer is
/// the same ascending id list.
///
/// Documents occupy stable slots: [`WaisSource::remove_document`]
/// tombstones a slot (ids never shift or get reused) and patches the
/// affected posting lists; both mutations bump every epoch cell
/// registered via [`WaisSource::register_epoch`], so mediator answer
/// caches stop serving pre-mutation results.
#[derive(Debug, Clone)]
pub struct WaisSource {
    /// The collection name (`works`).
    pub collection: String,
    bank: DocBank,
    index: InvertedIndex,
    policy: FieldPolicy,
    index_policy: IndexPolicy,
    /// Epoch cells to bump on mutation (clones share them).
    epochs: Vec<Arc<AtomicU64>>,
}

/// Where the documents live: RAM slots (the oracle) or a mounted
/// persistent store keyed by big-endian doc id.
#[derive(Debug, Clone)]
enum DocBank {
    Mem {
        docs: Vec<Option<Tree>>,
        live: usize,
    },
    Disk {
        store: Arc<DocStore>,
        /// Next id to assign (tombstoned slots are never reused, so this
        /// is persisted in the manifest's `slots` meta, not derived from
        /// the live keys).
        slots: u64,
        /// The persisted mutation epoch (mirrors the manifest).
        epoch: u64,
    },
}

/// The store key of a document id — big-endian so the store's key order
/// is ascending id order.
fn id_key(id: DocId) -> [u8; 8] {
    (id as u64).to_be_bytes()
}

fn key_id(key: &[u8]) -> DocId {
    let mut raw = [0u8; 8];
    raw[8 - key.len().min(8)..].copy_from_slice(&key[..key.len().min(8)]);
    u64::from_be_bytes(raw) as DocId
}

/// The sidecar name of the persisted inverted-index snapshot.
const INDEX_SIDECAR: &str = "wais.index";

impl WaisSource {
    /// Indexes a `works[work..]` document under the given collection
    /// name.
    pub fn new(collection: impl Into<String>, root: &Tree) -> Self {
        let docs: Vec<Option<Tree>> = root.children.iter().cloned().map(Some).collect();
        let index = InvertedIndex::build(&root.children);
        WaisSource {
            collection: collection.into(),
            bank: DocBank::Mem {
                live: docs.len(),
                docs,
            },
            index,
            policy: FieldPolicy::open(),
            index_policy: IndexPolicy::default(),
            epochs: Vec::new(),
        }
    }

    /// A store-backed source at `dir`. A fresh directory is populated
    /// from `root` (one bulk commit, index snapshot saved as a sidecar);
    /// an existing store mounts instead and `root` is ignored — the
    /// durable documents win. Mounting validates every committed byte
    /// and loads the index sidecar when its generation matches,
    /// rebuilding it from the documents otherwise.
    pub fn open_store(
        collection: impl Into<String>,
        root: &Tree,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<Self, StoreError> {
        let collection = collection.into();
        let store = DocStore::open_or_create(dir, opts)?;
        let (index, slots, epoch);
        if store.meta("slots").is_none() {
            // fresh store: bulk-load the documents, one commit
            for (id, doc) in root.children.iter().enumerate() {
                store.put(&id_key(id), &encode_tree(doc))?;
            }
            index = InvertedIndex::build(&root.children);
            store.set_meta("slots", &root.children.len().to_string());
            store.set_meta("collection", &collection);
            store.commit(0)?;
            slots = root.children.len() as u64;
            epoch = 0;
            let _ = save_sidecar(dir, INDEX_SIDECAR, store.generation(), &index.to_bytes());
        } else {
            slots = store
                .meta("slots")
                .and_then(|s| s.parse().ok())
                .unwrap_or(store.len() as u64);
            epoch = store.epoch();
            index = match load_sidecar(dir, INDEX_SIDECAR, store.generation())
                .and_then(|bytes| InvertedIndex::from_bytes(&bytes))
            {
                Some(snapshot) => snapshot,
                None => {
                    // stale or damaged sidecar: rebuild from the documents
                    let mut rebuilt = InvertedIndex::default();
                    store.scan(|key, payload| {
                        let doc = decode_tree(payload).map_err(|e| StoreError::Manifest {
                            detail: format!("undecodable document {:?}: {e}", key_id(key)),
                        })?;
                        rebuilt
                            .add(key_id(key), &doc)
                            .map_err(|e| StoreError::Manifest {
                                detail: e.to_string(),
                            })?;
                        Ok(())
                    })?;
                    rebuilt.pack();
                    let _ =
                        save_sidecar(dir, INDEX_SIDECAR, store.generation(), &rebuilt.to_bytes());
                    rebuilt
                }
            };
        }
        Ok(WaisSource {
            collection,
            bank: DocBank::Disk {
                store: Arc::new(store),
                slots,
                epoch,
            },
            index,
            policy: FieldPolicy::open(),
            index_policy: IndexPolicy::default(),
            epochs: Vec::new(),
        })
    }

    /// The persistent store backing this source, if store-backed.
    pub fn store(&self) -> Option<&Arc<DocStore>> {
        match &self.bank {
            DocBank::Mem { .. } => None,
            DocBank::Disk { store, .. } => Some(store),
        }
    }

    /// Installs a field policy (builder style).
    pub fn with_policy(mut self, policy: FieldPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects index-driven or scanning evaluation (builder style).
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = policy;
        self
    }

    /// The current index policy.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Registers an epoch cell to bump whenever the collection mutates
    /// (the mediator hands over its connection's cell at connect time).
    /// A store-backed source first raises the cell to its *persisted*
    /// epoch, so cache entries recorded before a restart-with-mutations
    /// can never validate against a remounted source.
    pub fn register_epoch(&mut self, cell: Arc<AtomicU64>) {
        if let DocBank::Disk { epoch, .. } = &self.bank {
            cell.fetch_max(*epoch, Ordering::SeqCst);
        }
        self.epochs.push(cell);
    }

    /// Adds a document to the collection: indexes it, bumps registered
    /// epochs (store-backed sources also commit, persisting the new
    /// epoch), returns its id. Panics where
    /// [`WaisSource::try_add_document`] returns an error.
    pub fn add_document(&mut self, doc: Tree) -> DocId {
        self.try_add_document(doc)
            .unwrap_or_else(|e| panic!("wais add failed: {e}"))
    }

    /// [`WaisSource::add_document`], refusing the document with a typed
    /// error — and changing nothing — once the next id would not fit the
    /// inverted index's 32-bit ids.
    pub fn try_add_document(&mut self, doc: Tree) -> Result<DocId, IdsExhausted> {
        let id = match &self.bank {
            DocBank::Mem { docs, .. } => docs.len(),
            DocBank::Disk { slots, .. } => *slots as DocId,
        };
        self.index.add(id, &doc)?;
        match &mut self.bank {
            DocBank::Mem { docs, live } => {
                docs.push(Some(doc));
                *live += 1;
            }
            DocBank::Disk {
                store,
                slots,
                epoch,
            } => {
                *slots += 1;
                *epoch += 1;
                store
                    .put(&id_key(id), &encode_tree(&doc))
                    .unwrap_or_else(|e| panic!("wais store write failed: {e}"));
                store.set_meta("slots", &slots.to_string());
                store
                    .commit(*epoch)
                    .unwrap_or_else(|e| panic!("wais store commit failed: {e}"));
            }
        }
        self.bump_epochs();
        Ok(id)
    }

    /// Removes a document by id: tombstones its slot (ids stay stable),
    /// patches the posting lists its tokens touched, bumps registered
    /// epochs (store-backed sources also commit, persisting the new
    /// epoch). Returns the removed document, or `None` for an unknown or
    /// already-removed id.
    pub fn remove_document(&mut self, id: DocId) -> Option<Tree> {
        let doc = match &mut self.bank {
            DocBank::Mem { docs, live } => {
                let doc = docs.get_mut(id)?.take()?;
                *live -= 1;
                doc
            }
            DocBank::Disk { store, epoch, .. } => {
                let payload = store
                    .get(&id_key(id))
                    .unwrap_or_else(|e| panic!("wais store read failed: {e}"))?;
                let doc = decode_tree(&payload)
                    .unwrap_or_else(|e| panic!("wais store payload undecodable: {e}"));
                *epoch += 1;
                store
                    .remove(&id_key(id))
                    .unwrap_or_else(|e| panic!("wais store write failed: {e}"));
                store
                    .commit(*epoch)
                    .unwrap_or_else(|e| panic!("wais store commit failed: {e}"));
                doc
            }
        };
        self.index.remove(id, &doc);
        self.bump_epochs();
        Some(doc)
    }

    fn bump_epochs(&self) {
        for cell in &self.epochs {
            cell.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        match &self.bank {
            DocBank::Mem { live, .. } => *live,
            DocBank::Disk { store, .. } => store.len(),
        }
    }

    /// True when the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all live documents, ascending.
    pub fn ids(&self) -> Vec<DocId> {
        match &self.bank {
            DocBank::Mem { docs, .. } => (0..docs.len()).filter(|&i| docs[i].is_some()).collect(),
            DocBank::Disk { store, .. } => {
                let mut ids: Vec<DocId> = store.keys().iter().map(|k| key_id(k)).collect();
                ids.sort_unstable();
                ids
            }
        }
    }

    /// One live document, straight from the bank (no retrieval policy).
    fn doc(&self, id: DocId) -> Option<Tree> {
        match &self.bank {
            DocBank::Mem { docs, .. } => docs.get(id)?.clone(),
            DocBank::Disk { store, .. } => {
                let payload = store
                    .get(&id_key(id))
                    .unwrap_or_else(|e| panic!("wais store read failed: {e}"))?;
                Some(
                    decode_tree(&payload)
                        .unwrap_or_else(|e| panic!("wais store payload undecodable: {e}")),
                )
            }
        }
    }

    /// The whole collection as one tree, with the retrieval policy
    /// applied.
    pub fn document(&self) -> Tree {
        Node::sym(
            self.collection.clone(),
            self.ids()
                .into_iter()
                .filter_map(|i| self.fetch(i))
                .collect(),
        )
    }

    /// One document by id, policy applied.
    pub fn fetch(&self, id: DocId) -> Option<Tree> {
        self.fetch_elements(id, None)
    }

    /// One document by id, its top-level children cut to the fields the
    /// retrieval policy allows and — when the request names an element
    /// set — to what [`Node::element_set`] keeps of the `requested`
    /// fields too: what is shipped is the retrievable set intersected
    /// with the requested one. Both cuts go through [`Node::retained`],
    /// so the root keeps its own label, an identified document is cut
    /// inside its identifier, and a document nothing is cut from is the
    /// stored tree itself.
    pub fn fetch_elements(&self, id: DocId, requested: Option<&[&str]>) -> Option<Tree> {
        let mut doc = self.doc(id)?;
        if let Some(fields) = &self.policy.retrievable {
            doc = Node::retained(&doc, |child| {
                child.label.as_sym().is_some_and(|f| fields.contains(f))
            });
        }
        Some(match requested {
            Some(fields) => Node::element_set(&doc, fields),
            None => doc,
        })
    }

    /// Full-text search: ids of documents containing `needle`, ascending.
    /// Returns an error when the policy restricts queries to fields and
    /// full-text search is therefore unavailable.
    pub fn contains(&self, needle: &str) -> Result<Vec<DocId>, String> {
        if self.policy.queryable.is_some() {
            return Err(format!(
                "collection `{}` only supports field-scoped queries",
                self.collection
            ));
        }
        Ok(self.eval("", needle))
    }

    /// Field-scoped search, honouring the queryable policy.
    pub fn search_field(&self, field: &str, needle: &str) -> Result<Vec<DocId>, String> {
        if let Some(allowed) = &self.policy.queryable {
            if !allowed.contains(field) {
                return Err(format!("field `{field}` is not queryable"));
            }
        }
        Ok(self.eval(field, needle))
    }

    /// Index-or-scan dispatch; both paths produce the same ascending ids.
    fn eval(&self, field: &str, needle: &str) -> Vec<DocId> {
        if self.index_policy.is_on() {
            self.index.lookup(field, needle)
        } else {
            self.scan(field, needle)
        }
    }

    /// The scan oracle: token-for-token the index's semantics — every
    /// needle token must occur in the document (under a `field`-labeled
    /// element for field-scoped queries), case-insensitively — evaluated
    /// by walking every live document.
    fn scan(&self, field: &str, needle: &str) -> Vec<DocId> {
        let tokens = tokenize(needle);
        if tokens.is_empty() {
            return Vec::new();
        }
        self.ids()
            .into_iter()
            .filter(|&id| {
                self.doc(id)
                    .is_some_and(|doc| tokens.iter().all(|t| doc_has_token(&doc, field, t)))
            })
            .collect()
    }

    /// Index statistics (for reports).
    pub fn posting_count(&self) -> usize {
        self.index.posting_count()
    }
}

/// Whether `token` occurs in `doc` — anywhere for the full-text pseudo
/// field, under a descendant element tagged `field` otherwise. Mirrors
/// the index builder's traversal exactly (per-field indexing only
/// descends through element-labeled children).
fn doc_has_token(doc: &Tree, field: &str, token: &str) -> bool {
    if field.is_empty() {
        return subtree_has_token(doc, token);
    }
    fn in_fields(t: &Tree, field: &str, token: &str) -> bool {
        t.children.iter().any(|child| match child.label.as_sym() {
            Some(tag) => {
                (tag == field && subtree_has_token(child, token)) || in_fields(child, field, token)
            }
            None => false,
        })
    }
    in_fields(doc, field, token)
}

fn subtree_has_token(t: &Tree, token: &str) -> bool {
    if let Label::Atom(a) = &t.label {
        if tokenize(&a.to_string()).iter().any(|x| x == token) {
            return true;
        }
    }
    t.children.iter().any(|c| subtree_has_token(c, token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs::fig1_works;

    #[test]
    fn open_policy_contains_and_fetch() {
        let s = WaisSource::new("works", &fig1_works());
        assert_eq!(s.len(), 2);
        let hits = s.contains("Giverny").unwrap();
        assert_eq!(hits.len(), 1);
        let doc = s.fetch(0).unwrap();
        assert!(doc.child("cplace").is_some());
        assert_eq!(s.document().children.len(), 2);
    }

    #[test]
    fn restricted_policy_strips_and_limits() {
        let s =
            WaisSource::new("works", &fig1_works()).with_policy(FieldPolicy::aquarelle_example());
        // retrieval strips everything but artist and style
        let doc = s.fetch(0).unwrap();
        assert!(doc.child("artist").is_some());
        assert!(doc.child("style").is_some());
        assert!(doc.child("title").is_none());
        assert!(doc.child("cplace").is_none());
        // full-text queries are refused; optional-field queries allowed
        assert!(s.contains("Giverny").is_err());
        assert_eq!(s.search_field("cplace", "Giverny").unwrap().len(), 1);
        assert!(s.search_field("artist", "Monet").is_err());
    }

    #[test]
    fn retrieval_keeps_the_root_label_and_shares_unstripped_documents() {
        use yat_model::Oid;
        let object = Node::oid(
            Oid::new("w1"),
            vec![
                Node::elem("artist", "Monet"),
                Node::elem("cplace", "Giverny"),
            ],
        );
        let root = Node::sym("works", vec![object.clone()]);
        let s = WaisSource::new("works", &root).with_policy(FieldPolicy::aquarelle_example());
        let doc = s.fetch(0).unwrap();
        assert_eq!(
            doc.label,
            Label::Oid(Oid::new("w1")),
            "not relabeled `work`"
        );
        assert_eq!(doc.to_string(), "w1[artist[\"Monet\"]]");
        // nothing to strip: the stored tree itself, with or without policy
        let open = WaisSource::new("works", &root);
        assert!(Arc::ptr_eq(&open.fetch(0).unwrap(), &object));
        let artist_only = root.children[0].children[..1].to_vec();
        let narrow = WaisSource::new(
            "works",
            &Node::sym("works", vec![Node::sym("work", artist_only)]),
        )
        .with_policy(FieldPolicy::aquarelle_example());
        let stored = narrow.doc(0).unwrap();
        assert!(Arc::ptr_eq(&narrow.fetch(0).unwrap(), &stored));
        assert!(Arc::ptr_eq(
            &narrow
                .fetch_elements(0, Some(&["artist", "title"]))
                .unwrap(),
            &stored
        ));
        // an element set intersects the retrievable fields
        let work = Node::sym("work", object.children.to_vec());
        let identified = Node::sym("works", vec![Node::oid(Oid::new("w1"), vec![work])]);
        let s = WaisSource::new("works", &identified).with_policy(FieldPolicy::aquarelle_example());
        assert_eq!(
            s.fetch(0).unwrap().to_string(),
            "w1[work[artist[\"Monet\"]]]",
            "the policy cuts inside the identifier"
        );
        let both = s.fetch_elements(0, Some(&["cplace", "artist"])).unwrap();
        assert_eq!(both.to_string(), "w1[work[artist[\"Monet\"]]]");
        let none = s.fetch_elements(0, Some(&["cplace"])).unwrap();
        assert_eq!(none.to_string(), "w1[work]");
        let open = WaisSource::new("works", &identified);
        let open_set = open.fetch_elements(0, Some(&["cplace"])).unwrap();
        assert_eq!(open_set.to_string(), "w1[work[cplace[\"Giverny\"]]]");
        // a root no filter rooted at a symbol matches is shipped whole
        let whole = WaisSource::new("works", &root);
        assert!(Arc::ptr_eq(
            &whole.fetch_elements(0, Some(&["cplace"])).unwrap(),
            &object
        ));
    }

    #[test]
    fn scan_path_equals_index_path() {
        let indexed = WaisSource::new("works", &fig1_works());
        let scanning = indexed.clone().with_index_policy(IndexPolicy::Off);
        for needle in [
            "Giverny",
            "Impressionist",
            "Monet Giverny",
            "Claude Monet",
            "canvas",
            "cubist",
            "",
        ] {
            assert_eq!(
                indexed.contains(needle).unwrap(),
                scanning.contains(needle).unwrap(),
                "contains({needle:?}) diverges"
            );
        }
        for (field, needle) in [
            ("artist", "Monet"),
            ("title", "Monet"),
            ("title", "Waterloo"),
            ("cplace", "Giverny"),
            ("technique", "canvas"),
            ("history", "canvas"),
            ("nosuchfield", "x"),
        ] {
            assert_eq!(
                indexed.search_field(field, needle).unwrap(),
                scanning.search_field(field, needle).unwrap(),
                "lookup({field}, {needle:?}) diverges"
            );
        }
    }

    #[test]
    fn store_backed_source_is_byte_identical_and_survives_remount() {
        let dir = std::env::temp_dir().join(format!("yat-wais-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let works = fig1_works();
        let mem = WaisSource::new("works", &works);
        let disk = WaisSource::open_store("works", &works, &dir, StoreOptions::default()).unwrap();
        assert_eq!(disk.len(), mem.len());
        assert_eq!(disk.document(), mem.document());
        assert_eq!(
            disk.contains("Giverny").unwrap(),
            mem.contains("Giverny").unwrap()
        );
        // scan oracle agrees with the index on the store-backed path too
        let disk_scan = disk.clone().with_index_policy(IndexPolicy::Off);
        assert_eq!(
            disk.contains("Impressionist").unwrap(),
            disk_scan.contains("Impressionist").unwrap()
        );
        drop(disk);
        drop(disk_scan);

        // remount: root is ignored, the durable documents win
        let empty = Node::sym("works", vec![]);
        let remounted =
            WaisSource::open_store("works", &empty, &dir, StoreOptions::default()).unwrap();
        assert_eq!(remounted.document(), mem.document());
        assert_eq!(
            remounted.contains("Giverny").unwrap(),
            mem.contains("Giverny").unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_backed_mutations_persist_epochs() {
        let dir = std::env::temp_dir().join(format!("yat-wais-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let works = fig1_works();
        let mut s = WaisSource::open_store("works", &works, &dir, StoreOptions::default()).unwrap();
        let cell = Arc::new(AtomicU64::new(0));
        s.register_epoch(cell.clone());
        assert_eq!(cell.load(Ordering::SeqCst), 0, "fresh store: epoch 0");

        let removed = s.remove_document(0).unwrap();
        assert_eq!(cell.load(Ordering::SeqCst), 1);
        let id = s.add_document(removed);
        assert_eq!(id, 2, "tombstoned slots are never reused across the store");
        drop(s);

        // a remount sees the persisted epoch...
        let empty = Node::sym("works", vec![]);
        let mut s2 =
            WaisSource::open_store("works", &empty, &dir, StoreOptions::default()).unwrap();
        assert_eq!(s2.ids(), vec![1, 2]);
        // ...and raises a freshly registered cell to it
        let fresh = Arc::new(AtomicU64::new(0));
        s2.register_epoch(fresh.clone());
        assert_eq!(fresh.load(Ordering::SeqCst), 2);
        assert_eq!(s2.contains("Giverny").unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_add_past_the_32_bit_ids_fails_and_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("yat-wais-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let works = fig1_works();
        let mut s = WaisSource::open_store("works", &works, &dir, StoreOptions::default()).unwrap();
        let cell = Arc::new(AtomicU64::new(0));
        s.register_epoch(cell.clone());
        // the id counter as after 2^32 - 1 adds
        if let DocBank::Disk { slots, .. } = &mut s.bank {
            *slots = u64::from(u32::MAX);
        }
        let doc = works.children[0].clone();
        assert_eq!(s.try_add_document(doc.clone()), Ok(u32::MAX as DocId));
        assert_eq!(cell.load(Ordering::SeqCst), 1);

        let past = u32::MAX as DocId + 1;
        assert_eq!(s.try_add_document(doc), Err(IdsExhausted(past)));
        assert_eq!(cell.load(Ordering::SeqCst), 1, "no epoch bump");
        assert_eq!(s.len(), 3);
        assert!(s.fetch(past).is_none(), "nothing stored");
        assert!(matches!(&s.bank, DocBank::Disk { slots, .. } if *slots == past as u64));
        assert_eq!(s.contains("Giverny").unwrap(), vec![0, u32::MAX as DocId]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutations_keep_ids_stable_and_bump_epochs() {
        let mut s = WaisSource::new("works", &fig1_works());
        let epoch = Arc::new(AtomicU64::new(0));
        s.register_epoch(epoch.clone());

        let removed = s.remove_document(0).unwrap();
        assert_eq!(epoch.load(Ordering::SeqCst), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ids(), vec![1], "slot 1 keeps its id");
        assert!(s.contains("Giverny").unwrap().is_empty());
        assert!(s.fetch(0).is_none());
        assert!(s.remove_document(0).is_none(), "double remove is a no-op");
        assert_eq!(epoch.load(Ordering::SeqCst), 1);

        let id = s.add_document(removed);
        assert_eq!(id, 2, "tombstoned slots are never reused");
        assert_eq!(epoch.load(Ordering::SeqCst), 2);
        assert_eq!(s.contains("Giverny").unwrap(), vec![2]);
        assert_eq!(s.document().children.len(), 2);

        // the scan oracle agrees after mutations too
        let scanning = s.clone().with_index_policy(IndexPolicy::Off);
        assert_eq!(
            s.contains("Impressionist").unwrap(),
            scanning.contains("Impressionist").unwrap()
        );
    }
}
