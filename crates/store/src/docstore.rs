//! [`DocStore`]: a mounted store directory — keyed documents over
//! append-only segments, with a byte-budgeted LRU of resident segments.
//!
//! All methods take `&self`: the store is shared behind `Arc` by
//! sources that derive `Clone`, so mutation goes through an internal
//! mutex and counters are atomics.

use crate::manifest::{self, Manifest};
use crate::segment;
use crate::StoreError;
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default byte budget for resident segments (16 MiB).
pub const DEFAULT_BUDGET: u64 = 16 * 1024 * 1024;
/// Default segment roll threshold (4 MiB).
pub const DEFAULT_SEGMENT_TARGET: u64 = 4 * 1024 * 1024;

/// Mount-time tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Byte budget for the LRU of resident segment buffers.
    pub budget: u64,
    /// Roll the open segment once it exceeds this many bytes.
    pub segment_target: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            budget: DEFAULT_BUDGET,
            segment_target: DEFAULT_SEGMENT_TARGET,
        }
    }
}

impl StoreOptions {
    /// Options with a specific residency budget.
    pub fn with_budget(budget: u64) -> Self {
        StoreOptions {
            budget,
            ..Default::default()
        }
    }
}

/// A snapshot of storage counters for EXPLAIN ANALYZE and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live segments listed in the manifest (plus the open one).
    pub segments: u64,
    /// Segments currently resident in the LRU.
    pub resident: u64,
    /// Bytes currently held by resident segment buffers.
    pub resident_bytes: u64,
    /// Segment loads from disk since mount.
    pub loads: u64,
    /// Segment evictions since mount.
    pub evictions: u64,
    /// Bytes read from disk since mount.
    pub bytes_read: u64,
    /// Reads served from a resident segment.
    pub hits: u64,
    /// Live (non-tombstoned) documents.
    pub live_docs: u64,
}

/// Where a live document's latest record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    segment: u64,
    offset: u64,
}

/// The open (appendable) segment: a file plus an in-memory mirror of
/// its bytes, so reads of freshly written documents need no disk I/O.
struct OpenSegment {
    id: u64,
    file: fs::File,
    buf: Vec<u8>,
}

struct State {
    manifest: Manifest,
    directory: BTreeMap<Vec<u8>, Loc>,
    /// Live keys in first-add order — the iteration order sources see.
    order: Vec<Vec<u8>>,
    open: Option<OpenSegment>,
    next_segment: u64,
    /// Sealed segment id → resident byte buffer.
    resident: BTreeMap<u64, Vec<u8>>,
    /// LRU order over `resident` (front = coldest).
    lru: VecDeque<u64>,
    resident_bytes: u64,
}

/// A mounted document store. See the crate docs for the format.
pub struct DocStore {
    dir: PathBuf,
    opts: StoreOptions,
    state: Mutex<State>,
    loads: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    hits: AtomicU64,
}

impl std::fmt::Debug for DocStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocStore")
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl DocStore {
    /// Creates a fresh store at `dir` (the directory is created if
    /// missing) and commits an empty manifest.
    pub fn create(dir: &Path, opts: StoreOptions) -> Result<DocStore, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let mut m = Manifest::default();
        m.commit(dir)?;
        Ok(DocStore {
            dir: dir.to_path_buf(),
            opts,
            state: Mutex::new(State {
                manifest: m,
                directory: BTreeMap::new(),
                order: Vec::new(),
                open: None,
                next_segment: 0,
                resident: BTreeMap::new(),
                lru: VecDeque::new(),
                resident_bytes: 0,
            }),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        })
    }

    /// Mounts an existing store: validates the manifest and every
    /// committed byte of every segment (streaming one segment at a
    /// time, so peak RAM is one segment), truncates torn tails past
    /// the committed lengths, and removes files the manifest does not
    /// list (debris from a crashed compaction or commit).
    pub fn mount(dir: &Path, opts: StoreOptions) -> Result<DocStore, StoreError> {
        let manifest = Manifest::load(dir)?;
        let mut directory: BTreeMap<Vec<u8>, Loc> = BTreeMap::new();
        let mut order: Vec<Vec<u8>> = Vec::new();
        let mut bytes_read = 0u64;
        for (&id, &committed) in &manifest.segments {
            let path = dir.join(segment::file_name(id));
            let bytes = read_committed(&path, id, committed)?;
            bytes_read += committed;
            segment::check_header(&bytes, id).map_err(|d| StoreError::Corrupt {
                segment: id,
                offset: d.offset,
                detail: d.detail,
            })?;
            let mut offset = segment::HEADER_LEN;
            while let Some(r) = segment::decode_record(&bytes, offset, committed).map_err(|d| {
                StoreError::Corrupt {
                    segment: id,
                    offset: d.offset,
                    detail: d.detail,
                }
            })? {
                let key = r.key.to_vec();
                match r.kind {
                    segment::KIND_ADD => {
                        if directory
                            .insert(
                                key.clone(),
                                Loc {
                                    segment: id,
                                    offset,
                                },
                            )
                            .is_none()
                        {
                            order.push(key);
                        }
                    }
                    _ => {
                        if directory.remove(&key).is_some() {
                            order.retain(|k| *k != key);
                        }
                    }
                }
                offset = r.offset + r.len;
            }
            // Discard any torn tail past the committed length.
            let on_disk = fs::metadata(&path)
                .map_err(|e| StoreError::io(&path, e))?
                .len();
            if on_disk > committed {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| StoreError::io(&path, e))?;
                f.set_len(committed).map_err(|e| StoreError::io(&path, e))?;
            }
        }
        remove_debris(dir, &manifest)?;
        let next_segment = manifest.segments.keys().max().map_or(0, |m| m + 1);
        let store = DocStore {
            dir: dir.to_path_buf(),
            opts,
            state: Mutex::new(State {
                manifest,
                directory,
                order,
                open: None,
                next_segment,
                resident: BTreeMap::new(),
                lru: VecDeque::new(),
                resident_bytes: 0,
            }),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_read: AtomicU64::new(bytes_read),
            hits: AtomicU64::new(0),
        };
        Ok(store)
    }

    /// Mounts `dir` if it holds a manifest, otherwise creates a fresh
    /// store there.
    pub fn open_or_create(dir: &Path, opts: StoreOptions) -> Result<DocStore, StoreError> {
        if dir.join(manifest::FILE_NAME).exists() {
            DocStore::mount(dir, opts)
        } else {
            DocStore::create(dir, opts)
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted mutation epoch from the last committed manifest.
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("store lock").manifest.epoch
    }

    /// The manifest generation (bumps on every commit).
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("store lock").manifest.generation
    }

    /// A metadata value from the manifest.
    pub fn meta(&self, key: &str) -> Option<String> {
        self.state
            .lock()
            .expect("store lock")
            .manifest
            .meta
            .get(key)
            .cloned()
    }

    /// Sets a metadata value (persisted at the next [`commit`](Self::commit)).
    pub fn set_meta(&self, key: &str, value: &str) {
        self.state
            .lock()
            .expect("store lock")
            .manifest
            .meta
            .insert(key.to_string(), value.to_string());
    }

    /// Live document count.
    pub fn len(&self) -> usize {
        self.state.lock().expect("store lock").directory.len()
    }

    /// Whether the store holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` names a live document.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.state
            .lock()
            .expect("store lock")
            .directory
            .contains_key(key)
    }

    /// Live keys in first-add order.
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.state.lock().expect("store lock").order.clone()
    }

    /// Appends (or overwrites) a keyed document. Not durable until the
    /// next [`commit`](Self::commit).
    pub fn put(&self, key: &[u8], payload: &[u8]) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        self.ensure_open(state)?;
        let record = segment::encode_record(segment::KIND_ADD, key, payload);
        let open = state.open.as_mut().expect("open segment");
        let offset = open.buf.len() as u64;
        open.file
            .write_all(&record)
            .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(open.id)), e))?;
        open.buf.extend_from_slice(&record);
        let loc = Loc {
            segment: open.id,
            offset,
        };
        if state.directory.insert(key.to_vec(), loc).is_none() {
            state.order.push(key.to_vec());
        }
        if (state.open.as_ref().expect("open segment").buf.len() as u64)
            >= segment::HEADER_LEN + self.opts.segment_target
        {
            self.seal(state)?;
        }
        Ok(())
    }

    /// Tombstones a key. Returns whether it was live. Not durable until
    /// the next [`commit`](Self::commit).
    pub fn remove(&self, key: &[u8]) -> Result<bool, StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        if !state.directory.contains_key(key) {
            return Ok(false);
        }
        self.ensure_open(state)?;
        let record = segment::encode_record(segment::KIND_TOMBSTONE, key, &[]);
        let open = state.open.as_mut().expect("open segment");
        open.file
            .write_all(&record)
            .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(open.id)), e))?;
        open.buf.extend_from_slice(&record);
        state.directory.remove(key);
        state.order.retain(|k| k != key);
        Ok(true)
    }

    /// Makes every write so far durable and persists `epoch`: fsyncs
    /// the open segment, records its committed length and atomically
    /// commits the manifest.
    pub fn commit(&self, epoch: u64) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        if let Some(open) = state.open.as_mut() {
            open.file
                .sync_all()
                .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(open.id)), e))?;
            state
                .manifest
                .segments
                .insert(open.id, open.buf.len() as u64);
        }
        state.manifest.epoch = epoch;
        state.manifest.commit(&self.dir)
    }

    /// Fetches a live document's payload.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        let Some(loc) = state.directory.get(key).copied() else {
            return Ok(None);
        };
        self.fetch(state, loc).map(Some)
    }

    /// Streams every live document in first-add order. Respects the
    /// residency budget: segments fault in and evict as the scan moves.
    pub fn scan(
        &self,
        mut f: impl FnMut(&[u8], &[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        let keys: Vec<Vec<u8>> = state.order.clone();
        for key in keys {
            let Some(loc) = state.directory.get(&key).copied() else {
                continue;
            };
            let payload = self.fetch(state, loc)?;
            f(&key, &payload)?;
        }
        Ok(())
    }

    /// Folds tombstones and superseded versions: rewrites live
    /// documents into fresh segments, commits a manifest listing only
    /// those, and deletes the old files.
    pub fn compact(&self, epoch: u64) -> Result<(), StoreError> {
        let mut state = self.state.lock().expect("store lock");
        let state = &mut *state;
        // Seal the open segment so everything lives in sealed segments.
        if state.open.is_some() {
            self.seal(state)?;
        }
        let old_ids: Vec<u64> = state.manifest.segments.keys().copied().collect();
        let keys: Vec<Vec<u8>> = state.order.clone();
        let mut new_directory: BTreeMap<Vec<u8>, Loc> = BTreeMap::new();
        let mut new_segments: BTreeMap<u64, u64> = BTreeMap::new();
        for key in &keys {
            let Some(loc) = state.directory.get(key).copied() else {
                continue;
            };
            let payload = self.fetch(state, loc)?;
            self.ensure_open(state)?;
            let record = segment::encode_record(segment::KIND_ADD, key, &payload);
            let open = state.open.as_mut().expect("open segment");
            let offset = open.buf.len() as u64;
            open.file
                .write_all(&record)
                .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(open.id)), e))?;
            open.buf.extend_from_slice(&record);
            new_directory.insert(
                key.clone(),
                Loc {
                    segment: open.id,
                    offset,
                },
            );
            let open_id = open.id;
            if (state.open.as_ref().expect("open segment").buf.len() as u64)
                >= segment::HEADER_LEN + self.opts.segment_target
            {
                let len = state.open.as_ref().expect("open segment").buf.len() as u64;
                new_segments.insert(open_id, len);
                self.seal_into(state, &mut new_segments)?;
            }
        }
        if let Some(open) = state.open.as_mut() {
            open.file
                .sync_all()
                .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(open.id)), e))?;
            new_segments.insert(open.id, open.buf.len() as u64);
        }
        state.directory = new_directory;
        state.manifest.segments = new_segments;
        state.manifest.epoch = epoch;
        state.manifest.commit(&self.dir)?;
        // Old files are no longer reachable from the manifest.
        for id in old_ids {
            if state.manifest.segments.contains_key(&id) {
                continue;
            }
            if let Some(buf) = state.resident.remove(&id) {
                state.resident_bytes -= buf.len() as u64;
                state.lru.retain(|&x| x != id);
            }
            let path = self.dir.join(segment::file_name(id));
            fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
        Ok(())
    }

    /// Total bytes of committed segment data on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.state
            .lock()
            .expect("store lock")
            .manifest
            .segments
            .values()
            .sum()
    }

    /// A snapshot of the storage counters.
    pub fn stats(&self) -> StoreStats {
        let state = self.state.lock().expect("store lock");
        let mut segments = state.manifest.segments.len() as u64;
        if let Some(open) = &state.open {
            if !state.manifest.segments.contains_key(&open.id) {
                segments += 1;
            }
        }
        StoreStats {
            segments,
            resident: state.resident.len() as u64,
            resident_bytes: state.resident_bytes,
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            live_docs: state.directory.len() as u64,
        }
    }

    fn ensure_open(&self, state: &mut State) -> Result<(), StoreError> {
        if state.open.is_some() {
            return Ok(());
        }
        let id = state.next_segment;
        state.next_segment += 1;
        let path = self.dir.join(segment::file_name(id));
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let header = segment::header(id);
        file.write_all(&header)
            .map_err(|e| StoreError::io(&path, e))?;
        state.open = Some(OpenSegment {
            id,
            file,
            buf: header,
        });
        Ok(())
    }

    /// Seals the open segment: fsync, record in the manifest map (not
    /// yet committed), move its buffer into the resident LRU.
    fn seal(&self, state: &mut State) -> Result<(), StoreError> {
        let mut dummy = BTreeMap::new();
        self.seal_into(state, &mut dummy)?;
        for (id, len) in dummy {
            state.manifest.segments.insert(id, len);
        }
        Ok(())
    }

    fn seal_into(
        &self,
        state: &mut State,
        segments: &mut BTreeMap<u64, u64>,
    ) -> Result<(), StoreError> {
        let Some(open) = state.open.take() else {
            return Ok(());
        };
        let OpenSegment { id, file, buf } = open;
        file.sync_all()
            .map_err(|e| StoreError::io(&self.dir.join(segment::file_name(id)), e))?;
        segments.insert(id, buf.len() as u64);
        state.manifest.segments.insert(id, buf.len() as u64);
        state.resident_bytes += buf.len() as u64;
        state.resident.insert(id, buf);
        state.lru.push_back(id);
        self.enforce_budget(state, id);
        Ok(())
    }

    /// Fetches one record's payload, faulting its segment in if needed.
    fn fetch(&self, state: &mut State, loc: Loc) -> Result<Vec<u8>, StoreError> {
        if let Some(open) = &state.open {
            if open.id == loc.segment {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let limit = open.buf.len() as u64;
                return decode_payload(&open.buf, loc, limit);
            }
        }
        if state.resident.contains_key(&loc.segment) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            touch(&mut state.lru, loc.segment);
            let buf = state.resident.get(&loc.segment).expect("resident");
            let limit = buf.len() as u64;
            return decode_payload(buf, loc, limit);
        }
        let committed =
            *state
                .manifest
                .segments
                .get(&loc.segment)
                .ok_or_else(|| StoreError::Manifest {
                    detail: format!("directory names unknown segment {}", loc.segment),
                })?;
        let path = self.dir.join(segment::file_name(loc.segment));
        let bytes = read_committed(&path, loc.segment, committed)?;
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(committed, Ordering::Relaxed);
        let payload = decode_payload(&bytes, loc, committed)?;
        state.resident_bytes += bytes.len() as u64;
        state.resident.insert(loc.segment, bytes);
        state.lru.push_back(loc.segment);
        self.enforce_budget(state, loc.segment);
        Ok(payload)
    }

    /// Evicts cold segments until the budget holds. The just-used
    /// segment is evicted last, and only if it alone exceeds the
    /// budget.
    fn enforce_budget(&self, state: &mut State, just_used: u64) {
        while state.resident_bytes > self.opts.budget && state.resident.len() > 1 {
            let victim = if state.lru.front() == Some(&just_used) && state.lru.len() > 1 {
                state.lru.remove(1).expect("lru len > 1")
            } else {
                state.lru.pop_front().expect("non-empty lru")
            };
            if let Some(buf) = state.resident.remove(&victim) {
                state.resident_bytes -= buf.len() as u64;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if state.resident_bytes > self.opts.budget {
            // A single oversized segment: keep nothing resident.
            if let Some(victim) = state.lru.pop_front() {
                if let Some(buf) = state.resident.remove(&victim) {
                    state.resident_bytes -= buf.len() as u64;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Moves `id` to the hot end of the LRU.
fn touch(lru: &mut VecDeque<u64>, id: u64) {
    if lru.back() == Some(&id) {
        return;
    }
    lru.retain(|&x| x != id);
    lru.push_back(id);
}

/// Decodes the record at `loc` and returns its payload.
fn decode_payload(bytes: &[u8], loc: Loc, limit: u64) -> Result<Vec<u8>, StoreError> {
    match segment::decode_record(bytes, loc.offset, limit) {
        Ok(Some(r)) => Ok(r.payload.to_vec()),
        Ok(None) => Err(StoreError::Corrupt {
            segment: loc.segment,
            offset: loc.offset,
            detail: "directory points past the committed region".into(),
        }),
        Err(d) => Err(StoreError::Corrupt {
            segment: loc.segment,
            offset: d.offset,
            detail: d.detail,
        }),
    }
}

/// Reads the committed prefix of a segment file. A file shorter than
/// its committed length is corruption (truncation under the manifest).
fn read_committed(path: &Path, id: u64, committed: u64) -> Result<Vec<u8>, StoreError> {
    let mut f = fs::File::open(path).map_err(|e| StoreError::Io {
        path: path.display().to_string(),
        detail: format!("segment {id}: {e}"),
    })?;
    let on_disk = f
        .metadata()
        .map_err(|e| StoreError::io(path, e))
        .map(|m| m.len())?;
    if on_disk < committed {
        return Err(StoreError::Corrupt {
            segment: id,
            offset: on_disk,
            detail: format!("file is {on_disk} bytes, manifest committed {committed}"),
        });
    }
    let mut bytes = vec![0u8; committed as usize];
    f.seek(SeekFrom::Start(0))
        .map_err(|e| StoreError::io(path, e))?;
    f.read_exact(&mut bytes)
        .map_err(|e| StoreError::io(path, e))?;
    Ok(bytes)
}

/// Deletes files the manifest does not list: partial segments from a
/// crashed compaction, stale `MANIFEST.tmp`, anything unreachable.
fn remove_debris(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let keep = if name == manifest::FILE_NAME {
            true
        } else if let Some(id) = parse_segment_name(&name) {
            manifest.segments.contains_key(&id)
        } else if name.starts_with("seg-") || name == format!("{}.tmp", manifest::FILE_NAME) {
            false
        } else {
            true // sidecars and anything else are not ours to delete
        };
        if !keep {
            let path = entry.path();
            fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
    }
    Ok(())
}

/// Parses `seg-NNNNNNNN.yat` back to a segment id.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".yat")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIRS: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("yat-store-test-{}-{n}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn put_get_commit_remount() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"alpha").unwrap();
        store.put(b"b", b"beta").unwrap();
        store.put(b"a", b"alpha2").unwrap(); // overwrite keeps order
        store.remove(b"b").unwrap();
        store.put(b"c", b"gamma").unwrap();
        store.commit(5).unwrap();
        assert_eq!(store.get(b"a").unwrap().as_deref(), Some(&b"alpha2"[..]));
        assert_eq!(store.get(b"b").unwrap(), None);
        assert_eq!(store.keys(), vec![b"a".to_vec(), b"c".to_vec()]);
        drop(store);

        let store = DocStore::mount(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 5);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(b"a").unwrap().as_deref(), Some(&b"alpha2"[..]));
        assert_eq!(store.get(b"c").unwrap().as_deref(), Some(&b"gamma"[..]));
        assert_eq!(store.keys(), vec![b"a".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn uncommitted_writes_are_lost_on_remount() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"durable").unwrap();
        store.commit(1).unwrap();
        store.put(b"b", b"torn").unwrap(); // never committed
        drop(store);

        let store = DocStore::mount(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap().as_deref(), Some(&b"durable"[..]));
        assert_eq!(store.get(b"b").unwrap(), None, "torn tail discarded");
        assert_eq!(store.epoch(), 1);
    }

    #[test]
    fn segments_roll_and_budget_evicts() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        // tiny segments and a budget of about two segments
        let opts = StoreOptions {
            budget: 2048,
            segment_target: 512,
        };
        let store = DocStore::create(&dir, opts).unwrap();
        let n = 100u32;
        for i in 0..n {
            store
                .put(format!("k{i:04}").as_bytes(), &[i as u8; 64])
                .unwrap();
        }
        store.commit(1).unwrap();
        let stats = store.stats();
        assert!(stats.segments > 3, "rolled into many segments: {stats:?}");
        assert!(
            stats.resident_bytes <= opts.budget,
            "budget held: {stats:?}"
        );
        // read everything back — faults segments in and out
        for i in 0..n {
            let got = store.get(format!("k{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(got, vec![i as u8; 64]);
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "evictions happened: {stats:?}");
        assert!(stats.resident_bytes <= opts.budget, "{stats:?}");
    }

    #[test]
    fn mount_respects_budget_and_answers_match() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let opts = StoreOptions {
            budget: 1024,
            segment_target: 256,
        };
        let store = DocStore::create(&dir, opts).unwrap();
        let mut expect = Vec::new();
        for i in 0..50u32 {
            let key = format!("k{i:04}");
            let val = format!("value-{i}");
            store.put(key.as_bytes(), val.as_bytes()).unwrap();
            expect.push((key, val));
        }
        store.commit(2).unwrap();
        drop(store);

        let store = DocStore::mount(&dir, opts).unwrap();
        assert!(store.disk_bytes() > opts.budget, "store bigger than budget");
        let mut seen = Vec::new();
        store
            .scan(|k, v| {
                seen.push((
                    String::from_utf8(k.to_vec()).unwrap(),
                    String::from_utf8(v.to_vec()).unwrap(),
                ));
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, expect);
        assert!(store.stats().resident_bytes <= opts.budget);
    }

    #[test]
    fn compaction_folds_tombstones() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let opts = StoreOptions {
            budget: 4096,
            segment_target: 256,
        };
        let store = DocStore::create(&dir, opts).unwrap();
        for i in 0..40u32 {
            store
                .put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        for i in 0..40u32 {
            if i % 2 == 0 {
                store.remove(format!("k{i:04}").as_bytes()).unwrap();
            }
        }
        store.commit(3).unwrap();
        let before = store.disk_bytes();
        store.compact(3).unwrap();
        let after = store.disk_bytes();
        assert!(after < before, "compaction shrank {before} -> {after}");
        assert_eq!(store.len(), 20);
        drop(store);

        let store = DocStore::mount(&dir, opts).unwrap();
        assert_eq!(store.len(), 20);
        for i in 0..40u32 {
            let got = store.get(format!("k{i:04}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got.unwrap(), format!("v{i}").into_bytes());
            }
        }
    }

    #[test]
    fn truncated_segment_fails_to_mount_with_named_offset() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"payload-payload-payload").unwrap();
        store.commit(1).unwrap();
        drop(store);

        let seg = dir.join(segment::file_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let err = DocStore::mount(&dir, StoreOptions::default()).unwrap_err();
        match err {
            StoreError::Corrupt {
                segment, offset, ..
            } => {
                assert_eq!(segment, 0);
                assert_eq!(offset, len - 5);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn bit_flip_fails_to_mount_naming_segment() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"some payload bytes").unwrap();
        store.commit(1).unwrap();
        drop(store);

        let seg = dir.join(segment::file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let err = DocStore::mount(&dir, StoreOptions::default()).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { segment: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn torn_append_recovers_to_last_commit() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"committed").unwrap();
        store.commit(1).unwrap();
        drop(store);

        // simulate a crash mid-append: garbage past the committed length
        let seg = dir.join(segment::file_name(0));
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);

        let store = DocStore::mount(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap().as_deref(), Some(&b"committed"[..]));
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            store.disk_bytes(),
            "torn tail truncated away"
        );
    }

    #[test]
    fn debris_from_crashed_compaction_is_removed() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"v").unwrap();
        store.commit(1).unwrap();
        drop(store);

        // a partial segment the manifest never learned about
        fs::write(dir.join(segment::file_name(9)), b"partial garbage").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"half a manifest").unwrap();

        let store = DocStore::mount(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.get(b"a").unwrap().as_deref(), Some(&b"v"[..]));
        assert!(!dir.join(segment::file_name(9)).exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
    }

    #[test]
    fn writes_after_remount_extend_the_store() {
        let dir = temp_dir();
        let _c = Cleanup(dir.clone());
        let store = DocStore::create(&dir, StoreOptions::default()).unwrap();
        store.put(b"a", b"one").unwrap();
        store.commit(1).unwrap();
        drop(store);

        let store = DocStore::open_or_create(&dir, StoreOptions::default()).unwrap();
        store.put(b"b", b"two").unwrap();
        store.commit(2).unwrap();
        drop(store);

        let store = DocStore::mount(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.keys(), vec![b"a".to_vec(), b"b".to_vec()]);
    }
}
