//! The object store: schema, objects with identity, named extents, and
//! the method registry.

use crate::codec::{decode_obj, encode_obj};
use crate::findex::FieldIndex;
use crate::types::Schema;
use crate::value::OVal;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use yat_capability::IndexPolicy;
use yat_model::Oid;
use yat_store::{DocStore, StoreError, StoreOptions};

/// A stored object: identity + class + value.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Object identity.
    pub oid: Oid,
    /// Class name.
    pub class: String,
    /// The object's state.
    pub value: OVal,
}

/// An error from store or query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct OqlError(pub String);

impl fmt::Display for OqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OQL error: {}", self.0)
    }
}

impl std::error::Error for OqlError {}

/// A method implementation.
pub type MethodImpl = dyn Fn(&Store, &Object) -> Result<OVal, OqlError> + Send + Sync;

/// The in-memory object database.
///
/// Besides objects and extents, the store maintains a [`FieldIndex`]
/// per `(extent, top-level atomic field)` pair — one ordered posting
/// list per distinct value, serving `=` and range probes — patched
/// incrementally on [`Store::insert`] and [`Store::remove`]. The
/// evaluator consults them when the [`IndexPolicy`] is `On`; under `Off`
/// it scans — same answers either way.
pub struct Store {
    /// The schema.
    pub schema: Schema,
    bank: ObjBank,
    extents: BTreeMap<String, Extent>,
    methods: BTreeMap<String, Arc<MethodImpl>>,
    /// `(extent, field)` → postings over that field's atomic values.
    indexes: BTreeMap<(String, String), FieldIndex>,
    /// Monotone insertion counter; stored payloads carry it so a remount
    /// rebuilds extents and indexes in the same order.
    seq: u64,
    index_policy: IndexPolicy,
    /// Cache-epoch cells registered by connected mediators; every
    /// mutation bumps them all, invalidating cached answers.
    epochs: Vec<Arc<AtomicU64>>,
}

/// An extent's members in insertion order, each with the 32-bit ordinal
/// its field-index postings carry: the sequence table that resolves a
/// probe's ordinals to objects. Ordinals are handed out ascending and
/// live in RAM only — a remount renumbers the replayed members.
#[derive(Debug, Default)]
struct Extent {
    oids: Vec<Oid>,
    ords: Vec<u32>,
}

impl Extent {
    /// Appends a member, returning its ordinal: one past the last
    /// member's, so the table stays ascending.
    fn push(&mut self, oid: Oid) -> u32 {
        let ord = self.ords.last().map_or(0, |&last| {
            last.checked_add(1).expect("extent ordinals exhausted")
        });
        self.oids.push(oid);
        self.ords.push(ord);
        ord
    }

    /// Drops the first occurrence of `oid`, returning its ordinal.
    fn remove(&mut self, oid: &Oid) -> Option<u32> {
        let pos = self.oids.iter().position(|o| o == oid)?;
        self.oids.remove(pos);
        Some(self.ords.remove(pos))
    }
}

/// Where the objects live: RAM (the oracle) or a mounted persistent
/// store keyed by oid text. Extents and field indexes always stay in
/// RAM — a mount rebuilds them by replaying stored objects in `seq`
/// order — so only object *state* pages in and out under the budget.
enum ObjBank {
    Mem(BTreeMap<Oid, Object>),
    Disk {
        store: Arc<DocStore>,
        /// The persisted mutation epoch (mirrors the manifest).
        epoch: u64,
        /// While true (bulk population), mutations skip the per-call
        /// commit; `end_bulk` commits once.
        bulk: bool,
    },
}

impl Store {
    /// An empty store over a schema.
    pub fn new(schema: Schema) -> Self {
        Store {
            schema,
            bank: ObjBank::Mem(BTreeMap::new()),
            extents: BTreeMap::new(),
            methods: BTreeMap::new(),
            indexes: BTreeMap::new(),
            seq: 0,
            index_policy: IndexPolicy::default(),
            epochs: Vec::new(),
        }
    }

    /// A store-backed object database at `dir`: mounts the persistent
    /// store (creating it if missing) and rebuilds extents and field
    /// indexes by replaying the stored objects in insertion (`seq`)
    /// order, so iteration order — and therefore every answer — matches
    /// the in-memory oracle. Method bodies are code, not data: callers
    /// re-install them after mounting.
    pub fn open_store(schema: Schema, dir: &Path, opts: StoreOptions) -> Result<Self, StoreError> {
        let store = DocStore::open_or_create(dir, opts)?;
        // Replay (seq, oid, class, atomic fields) without keeping values.
        type ReplayRow = (u64, Oid, String, Vec<(String, yat_model::Atom)>);
        let mut rows: Vec<ReplayRow> = Vec::new();
        store.scan(|key, payload| {
            let oid = Oid::new(String::from_utf8_lossy(key).into_owned());
            let (seq, class, value) = decode_obj(payload).map_err(|e| StoreError::Manifest {
                detail: format!("undecodable object {oid}: {e}"),
            })?;
            let mut atoms = Vec::new();
            if let OVal::Tuple(fields) = &value {
                for (field, v) in fields {
                    if let OVal::Atom(a) = v {
                        atoms.push((field.clone(), a.clone()));
                    }
                }
            }
            rows.push((seq, oid, class, atoms));
            Ok(())
        })?;
        rows.sort_by_key(|(seq, ..)| *seq);
        let mut s = Store {
            schema,
            seq: rows.last().map_or(0, |(seq, ..)| seq + 1),
            bank: ObjBank::Disk {
                epoch: store.epoch(),
                store: Arc::new(store),
                bulk: false,
            },
            extents: BTreeMap::new(),
            methods: BTreeMap::new(),
            indexes: BTreeMap::new(),
            index_policy: IndexPolicy::default(),
            epochs: Vec::new(),
        };
        for (_, oid, class, atoms) in rows {
            if let Some(extent) = s.schema.class(&class).and_then(|c| c.extent.clone()) {
                let ord = s.extents.entry(extent.clone()).or_default().push(oid);
                for (field, a) in &atoms {
                    s.indexes
                        .entry((extent.clone(), field.clone()))
                        .or_default()
                        .add(ord, a);
                }
            }
        }
        Ok(s)
    }

    /// The persistent store backing this database, if store-backed.
    pub fn backing_store(&self) -> Option<&Arc<DocStore>> {
        match &self.bank {
            ObjBank::Mem(_) => None,
            ObjBank::Disk { store, .. } => Some(store),
        }
    }

    /// Suspends per-mutation commits during bulk population.
    pub fn begin_bulk(&mut self) {
        if let ObjBank::Disk { bulk, .. } = &mut self.bank {
            *bulk = true;
        }
    }

    /// Ends bulk population with one durable commit.
    pub fn end_bulk(&mut self) -> Result<(), OqlError> {
        if let ObjBank::Disk { store, epoch, bulk } = &mut self.bank {
            *bulk = false;
            store
                .commit(*epoch)
                .map_err(|e| OqlError(format!("store commit failed: {e}")))?;
        }
        Ok(())
    }

    /// Creates an object, adding it to its class extent (if declared)
    /// and indexing its top-level atomic fields. Store-backed databases
    /// also persist the object (and, outside bulk population, commit
    /// with a bumped persisted epoch).
    pub fn insert(&mut self, oid: Oid, class: &str, value: OVal) -> Result<(), OqlError> {
        let cls = self
            .schema
            .class(class)
            .ok_or_else(|| OqlError(format!("unknown class `{class}`")))?;
        let seq = self.seq;
        self.seq += 1;
        if let Some(extent) = &cls.extent {
            let ord = self
                .extents
                .entry(extent.clone())
                .or_default()
                .push(oid.clone());
            if let OVal::Tuple(fields) = &value {
                for (field, v) in fields {
                    if let OVal::Atom(a) = v {
                        self.indexes
                            .entry((extent.clone(), field.clone()))
                            .or_default()
                            .add(ord, a);
                    }
                }
            }
        }
        match &mut self.bank {
            ObjBank::Mem(objects) => {
                objects.insert(
                    oid.clone(),
                    Object {
                        oid,
                        class: class.to_string(),
                        value,
                    },
                );
            }
            ObjBank::Disk { store, epoch, bulk } => {
                store
                    .put(oid.as_str().as_bytes(), &encode_obj(seq, class, &value))
                    .map_err(|e| OqlError(format!("store write failed: {e}")))?;
                if !*bulk {
                    *epoch += 1;
                    store
                        .commit(*epoch)
                        .map_err(|e| OqlError(format!("store commit failed: {e}")))?;
                }
            }
        }
        self.bump_epochs();
        Ok(())
    }

    /// Deletes an object: drops it from its class extent and unindexes
    /// its fields. Store-backed databases tombstone it durably (and,
    /// outside bulk population, commit with a bumped persisted epoch).
    /// Returns the removed object, or `None` if unknown.
    pub fn remove(&mut self, oid: &Oid) -> Option<Object> {
        let obj = match &mut self.bank {
            ObjBank::Mem(objects) => objects.remove(oid)?,
            ObjBank::Disk { store, epoch, bulk } => {
                let payload = store
                    .get(oid.as_str().as_bytes())
                    .unwrap_or_else(|e| panic!("store read failed: {e}"))?;
                let (_, class, value) = decode_obj(&payload)
                    .unwrap_or_else(|e| panic!("store payload undecodable: {e}"));
                store
                    .remove(oid.as_str().as_bytes())
                    .unwrap_or_else(|e| panic!("store write failed: {e}"));
                if !*bulk {
                    *epoch += 1;
                    store
                        .commit(*epoch)
                        .unwrap_or_else(|e| panic!("store commit failed: {e}"));
                }
                Object {
                    oid: oid.clone(),
                    class,
                    value,
                }
            }
        };
        if let Some(extent) = self.schema.class(&obj.class).and_then(|c| c.extent.clone()) {
            let ord = self.extents.get_mut(&extent).and_then(|e| e.remove(oid));
            if let (Some(ord), OVal::Tuple(fields)) = (ord, &obj.value) {
                for (field, v) in fields {
                    if let OVal::Atom(a) = v {
                        if let Some(ix) = self.indexes.get_mut(&(extent.clone(), field.clone())) {
                            ix.remove(ord, a);
                        }
                    }
                }
            }
        }
        self.bump_epochs();
        Some(obj)
    }

    /// The index over `(extent, field)`, if any object contributed an
    /// atomic value there.
    pub fn field_index(&self, extent: &str, field: &str) -> Option<&FieldIndex> {
        self.indexes.get(&(extent.to_string(), field.to_string()))
    }

    /// The members of `extent` a probe of one of its field indexes
    /// returned, resolving the ascending ordinals `ords` in extent order.
    pub fn extent_members(&self, extent: &str, ords: &[u32]) -> Vec<Oid> {
        let Some(ext) = self.extents.get(extent) else {
            return Vec::new();
        };
        let mut from = 0;
        ords.iter()
            .filter_map(|ord| {
                let pos = from + ext.ords[from..].binary_search(ord).ok()?;
                from = pos + 1;
                Some(ext.oids[pos].clone())
            })
            .collect()
    }

    /// The index policy the evaluator honours.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Sets the index policy.
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
    }

    /// Builder form of [`Store::set_index_policy`].
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = policy;
        self
    }

    /// Registers a cache-epoch cell to bump on every mutation. A
    /// store-backed database first raises the cell to its *persisted*
    /// epoch, so cache entries recorded before a restart-with-mutations
    /// can never validate against a remounted database.
    pub fn register_epoch(&mut self, cell: Arc<AtomicU64>) {
        if let ObjBank::Disk { epoch, .. } = &self.bank {
            cell.fetch_max(*epoch, Ordering::SeqCst);
        }
        self.epochs.push(cell);
    }

    fn bump_epochs(&self) {
        for cell in &self.epochs {
            cell.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Installs a method body.
    pub fn install_method<F>(&mut self, name: impl Into<String>, body: F)
    where
        F: Fn(&Store, &Object) -> Result<OVal, OqlError> + Send + Sync + 'static,
    {
        self.methods.insert(name.into(), Arc::new(body));
    }

    /// Invokes a method on an object.
    pub fn call_method(&self, name: &str, obj: &Object) -> Result<OVal, OqlError> {
        let m = self
            .methods
            .get(name)
            .ok_or_else(|| OqlError(format!("method `{name}` has no implementation")))?;
        m(self, obj)
    }

    /// Whether a method body is installed.
    pub fn has_method(&self, name: &str) -> bool {
        self.methods.contains_key(name)
    }

    /// Dereferences an object id. Returns an owned object: a
    /// store-backed database decodes it from its segment (faulting the
    /// segment in under the residency budget), the in-memory one clones.
    pub fn object(&self, oid: &Oid) -> Option<Object> {
        match &self.bank {
            ObjBank::Mem(objects) => objects.get(oid).cloned(),
            ObjBank::Disk { store, .. } => {
                let payload = store
                    .get(oid.as_str().as_bytes())
                    .unwrap_or_else(|e| panic!("store read failed: {e}"))?;
                let (_, class, value) = decode_obj(&payload)
                    .unwrap_or_else(|e| panic!("store payload undecodable: {e}"));
                Some(Object {
                    oid: oid.clone(),
                    class,
                    value,
                })
            }
        }
    }

    /// The object ids of an extent, in insertion order.
    pub fn extent(&self, name: &str) -> Option<&[Oid]> {
        self.extents.get(name).map(|e| e.oids.as_slice())
    }

    /// Extent names.
    pub fn extent_names(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(String::as_str)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        match &self.bank {
            ObjBank::Mem(objects) => objects.len(),
            ObjBank::Disk { store, .. } => store.len(),
        }
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("objects", &self.len())
            .field("extents", &self.extents.keys().collect::<Vec<_>>())
            .field("methods", &self.methods.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClassDef, Type};

    fn schema() -> Schema {
        Schema::new().with_class(ClassDef {
            name: "Person".into(),
            ty: Type::tuple(vec![("name", Type::string())]),
            extent: Some("persons".into()),
            methods: vec![],
        })
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = Store::new(schema());
        s.insert(
            Oid::new("p1"),
            "Person",
            OVal::tuple(vec![("name", OVal::str("X"))]),
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.extent("persons").unwrap().len(), 1);
        let o = s.object(&Oid::new("p1")).unwrap();
        assert_eq!(o.class, "Person");
        assert!(s.object(&Oid::new("p9")).is_none());
        assert!(s.insert(Oid::new("x"), "Nope", OVal::Nil).is_err());
    }

    #[test]
    fn methods() {
        let mut s = Store::new(schema());
        s.insert(
            Oid::new("p1"),
            "Person",
            OVal::tuple(vec![("name", OVal::str("X"))]),
        )
        .unwrap();
        s.install_method("shout", |_, o| {
            let n = o
                .value
                .field("name")
                .and_then(|v| v.atom())
                .unwrap()
                .to_string();
            Ok(OVal::str(n.to_uppercase()))
        });
        assert!(s.has_method("shout"));
        let o = s.object(&Oid::new("p1")).unwrap().clone();
        assert_eq!(s.call_method("shout", &o).unwrap(), OVal::str("X"));
        assert!(s.call_method("whisper", &o).is_err());
    }

    #[test]
    fn insert_indexes_atomic_fields() {
        let mut s = Store::new(schema());
        for (i, n) in ["A", "B", "A"].iter().enumerate() {
            s.insert(
                Oid::new(format!("p{i}")),
                "Person",
                OVal::tuple(vec![("name", OVal::str(*n))]),
            )
            .unwrap();
        }
        let ix = s.field_index("persons", "name").unwrap();
        assert_eq!(ix.entries(), 3);
        let hits = ix.eq_candidates(&yat_model::Atom::Str("A".into()));
        // extent order, not oid order
        assert_eq!(
            s.extent_members("persons", &hits),
            [Oid::new("p0"), Oid::new("p2")]
        );
        assert!(s.field_index("persons", "zzz").is_none());
    }

    #[test]
    fn remove_unindexes_and_bumps_epochs() {
        let mut s = Store::new(schema());
        s.insert(
            Oid::new("p1"),
            "Person",
            OVal::tuple(vec![("name", OVal::str("X"))]),
        )
        .unwrap();
        let cell = Arc::new(AtomicU64::new(0));
        s.register_epoch(cell.clone());
        let gone = s.remove(&Oid::new("p1")).unwrap();
        assert_eq!(gone.class, "Person");
        assert_eq!(cell.load(Ordering::SeqCst), 1, "mutation bumped the epoch");
        assert!(s.is_empty());
        assert!(s.extent("persons").unwrap().is_empty());
        assert_eq!(
            s.field_index("persons", "name").unwrap().entries(),
            0,
            "postings were patched"
        );
        assert!(s.remove(&Oid::new("p1")).is_none(), "second remove no-ops");
        assert_eq!(cell.load(Ordering::SeqCst), 1);
        // and inserts bump too
        s.insert(
            Oid::new("p2"),
            "Person",
            OVal::tuple(vec![("name", OVal::str("Y"))]),
        )
        .unwrap();
        assert_eq!(cell.load(Ordering::SeqCst), 2);
    }
}
