//! Cross-query semantic answer cache for pushed source fragments.
//!
//! The paper's optimizations (Bind splitting, capability pushdown,
//! information passing) all exist to minimize mediator↔wrapper traffic
//! *within one query*; across queries the mediator still re-ships every
//! pushed fragment even when an identical fragment just ran. Tout-XML
//! style mediation caches source answers at the mediator for exactly
//! this reason. This crate provides that cache:
//!
//! * [`Signature`] — a canonical content hash of one unit of source work
//!   (a pushed fragment with its inlined binding values, or a document
//!   fetch), computed over the *serialized wire form* so two plans that
//!   ship the same bytes share one entry. Hashing is the same FNV-1a
//!   scheme the Skolem registry uses for content-addressed OIDs.
//! * [`CachedAnswer`] — the stored result (`Tab` for pushes, `Tree` for
//!   documents) with byte accounting that mirrors the serialized
//!   response, so "bytes saved" equals bytes that did not cross the wire.
//! * [`AnswerCache`] — a thread-safe store with LRU + size-budget
//!   eviction, per-source epoch invalidation (entries recorded at an
//!   older source epoch than the policy's `ttl_epochs` window are
//!   dropped lazily on lookup), and optional negative caching of empty
//!   results. Every lookup/insert emits a `cache` observability event
//!   (`hit @src` / `miss @src` / `evict @src`) with byte attributes.
//! * [`CachePolicy`] — `Off` or `Bounded{max_bytes, ttl_epochs}`,
//!   parseable from text (`FromStr`).
//!
//! The cache never stores partial work: the executor only inserts after
//! a round trip fully succeeded, so a transport timeout, wire fault or
//! wrapper panic cannot poison it.

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Mutex;
use yat_algebra::{Alg, Tab};
use yat_capability::tab_xml::tab_to_xml;
use yat_model::xml_convert::tree_to_xml;
use yat_model::Tree;
use yat_obs::{attr, kind, AttrValue, Collector};

/// FNV-1a offset basis (the repo's stock content hash, shared with
/// Skolem OID generation and transport latency jitter).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, text: &str) -> u64 {
    let mut h = h;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A canonical content hash identifying one unit of source work.
///
/// Two `Push` fragments that serialize to the same wire XML against the
/// same source — regardless of which plan node, query or thread produced
/// them — get equal signatures. Information-passing bindings are already
/// inlined as constants by the time a fragment ships, so the binding
/// values participate in the hash through the serialized plan itself.
///
/// # Example
///
/// ```
/// use yat_algebra::Alg;
/// use yat_cache::Signature;
///
/// let frag = Alg::source("works");
/// // Structurally identical fragments share one cache entry …
/// assert_eq!(
///     Signature::execute("wais", &frag),
///     Signature::execute("wais", &Alg::source("works")),
/// );
/// // … while the source name and the kind of work both discriminate.
/// assert_ne!(Signature::execute("wais", &frag), Signature::execute("o2", &frag));
/// assert_ne!(Signature::execute("wais", &frag), Signature::document("wais", "works"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature(u64);

impl Signature {
    /// Signature of a pushed fragment: source name + a structural hash of
    /// the plan AST (derived `Hash` over the stable FNV-1a hasher).
    /// Structurally identical plans — including their inlined binding
    /// atoms — share a signature without serializing the fragment to wire
    /// text first; the serialization only happens for fragments that
    /// actually miss and cross the wire.
    pub fn execute(source: &str, plan: &Alg) -> Signature {
        use std::hash::{Hash, Hasher};
        let mut h = yat_model::hash::Fnv64::new();
        h.write(b"execute\0");
        h.write(source.as_bytes());
        h.write_u8(0);
        plan.hash(&mut h);
        Signature(h.finish())
    }

    /// Signature of a whole-document fetch from `source`.
    pub fn document(source: &str, name: &str) -> Signature {
        let mut h = fnv1a(FNV_OFFSET, "document\u{0}");
        h = fnv1a(h, source);
        h = fnv1a(h, "\u{0}");
        h = fnv1a(h, name);
        Signature(h)
    }

    /// The raw hash value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What the cache hands back on a hit: the same payload the wrapper's
/// response carried.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedAnswer {
    /// A whole fetched document.
    Document {
        /// Exported document name.
        name: String,
        /// The document tree.
        tree: Tree,
    },
    /// A pushed fragment's result table.
    Result(Tab),
}

impl CachedAnswer {
    /// Serialized size of the response this answer replaces, in bytes —
    /// computed over the exact wire form (`<document>`/`<result>`
    /// elements), so a hit's "bytes saved" equals the `bytes_received`
    /// the avoided round trip would have metered.
    pub fn wire_bytes(&self) -> u64 {
        let el = match self {
            CachedAnswer::Document { name, tree } => yat_xml::Element::new("document")
                .with_attr("name", name.clone())
                .with_child(tree_to_xml(tree)),
            CachedAnswer::Result(tab) => {
                yat_xml::Element::new("result").with_child(tab_to_xml(tab))
            }
        };
        el.to_xml().len() as u64
    }

    /// True for an empty result table — a candidate for *negative*
    /// caching (remembering that a fragment selects nothing).
    pub fn is_negative(&self) -> bool {
        matches!(self, CachedAnswer::Result(tab) if tab.is_empty())
    }
}

/// How (and whether) the mediator caches source answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// No caching; lookups miss silently and inserts are dropped.
    #[default]
    Off,
    /// Caching with a byte budget and an epoch-freshness window.
    Bounded {
        /// Total byte budget across all entries (LRU eviction beyond it).
        max_bytes: u64,
        /// How many source-epoch increments an entry survives. `1` means
        /// any `bump_epoch` on the source invalidates its entries.
        ttl_epochs: u64,
        /// Whether empty results are cached (negative caching).
        negative: bool,
    },
}

impl CachePolicy {
    /// Default byte budget of [`CachePolicy::bounded`]: 64 MiB.
    pub const DEFAULT_MAX_BYTES: u64 = 64 << 20;

    /// Bounded caching with the defaults (64 MiB, ttl 1 epoch, negative
    /// caching on).
    pub fn bounded() -> Self {
        CachePolicy::Bounded {
            max_bytes: Self::DEFAULT_MAX_BYTES,
            ttl_epochs: 1,
            negative: true,
        }
    }

    /// True unless `Off`.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }
}

/// `off`/`none`/`0`, `bounded`/`on`, or `bounded:<bytes>[:<ttl>[:noneg]]`
/// where `<bytes>` accepts `k`/`m`/`g` suffixes.
impl std::str::FromStr for CachePolicy {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let text = text.trim().to_ascii_lowercase();
        match text.as_str() {
            "off" | "none" | "0" => return Ok(CachePolicy::Off),
            "bounded" | "on" => return Ok(CachePolicy::bounded()),
            _ => {}
        }
        let rest = text.strip_prefix("bounded:").ok_or(())?;
        let mut parts = rest.split(':');
        let max_bytes = parts.next().and_then(parse_bytes).ok_or(())?;
        let ttl_epochs = match parts.next() {
            Some(t) => t.parse::<u64>().ok().filter(|&t| t > 0).ok_or(())?,
            None => 1,
        };
        let negative = match parts.next() {
            Some("noneg") => false,
            Some(_) => return Err(()),
            None => true,
        };
        if parts.next().is_some() {
            return Err(());
        }
        Ok(CachePolicy::Bounded {
            max_bytes,
            ttl_epochs,
            negative,
        })
    }
}

fn parse_bytes(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, mult) = match text.as_bytes().last()? {
        b'k' => (&text[..text.len() - 1], 1u64 << 10),
        b'm' => (&text[..text.len() - 1], 1 << 20),
        b'g' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .map(|n| n.saturating_mul(mult))
}

impl std::fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CachePolicy::Off => write!(f, "off"),
            CachePolicy::Bounded {
                max_bytes,
                ttl_epochs,
                negative,
            } => {
                write!(f, "bounded({max_bytes}B, ttl {ttl_epochs})")?;
                if !negative {
                    write!(f, " no-negative")?;
                }
                Ok(())
            }
        }
    }
}

/// Per-source cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the wire.
    pub misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Response bytes that did not cross the wire thanks to hits.
    pub bytes_saved: u64,
}

/// Cumulative cache statistics (monotonic, like a [`Meter`] snapshot).
///
/// [`Meter`]: https://docs.rs/yat-mediator
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (hits + misses).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the wire.
    pub misses: u64,
    /// Successful inserts.
    pub insertions: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Entries dropped because their source epoch aged out.
    pub invalidations: u64,
    /// Response bytes that did not cross the wire thanks to hits.
    pub bytes_saved: u64,
    /// Per-source breakdown.
    pub per_source: BTreeMap<String, SourceStats>,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    source: String,
    /// The source's epoch when the answer was produced.
    epoch: u64,
    bytes: u64,
    /// LRU clock value of the last hit (or the insert).
    last_used: u64,
    answer: CachedAnswer,
}

#[derive(Debug, Default)]
struct Inner {
    entries: BTreeMap<Signature, Entry>,
    /// Sum of `Entry::bytes` over `entries`.
    stored_bytes: u64,
    /// Monotonic LRU clock.
    tick: u64,
    stats: CacheStats,
}

/// The mediator-resident answer cache. Thread-safe: lookups and inserts
/// from scatter/gather worker lanes serialize on one internal mutex
/// (entries are cloned out, so the lock is never held across a round
/// trip).
#[derive(Debug)]
pub struct AnswerCache {
    policy: CachePolicy,
    inner: Mutex<Inner>,
}

impl Default for AnswerCache {
    fn default() -> Self {
        AnswerCache::off()
    }
}

impl AnswerCache {
    /// A cache under `policy`.
    pub fn new(policy: CachePolicy) -> Self {
        AnswerCache {
            policy,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A disabled cache (every lookup misses silently, inserts drop).
    pub fn off() -> Self {
        AnswerCache::new(CachePolicy::Off)
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `sig` for `source`, whose *live* epoch is
    /// `current_epoch`. A stored answer recorded `ttl_epochs` or more
    /// source-epoch bumps ago is stale: it is dropped (counted as an
    /// invalidation) and the lookup misses. Emits a `cache` event —
    /// `hit @source` (with [`attr::BYTES_SAVED`]) or `miss @source` —
    /// when a collector is attached. Disabled caches return `None`
    /// without recording anything.
    pub fn lookup(
        &self,
        sig: Signature,
        source: &str,
        current_epoch: u64,
        obs: Option<&Collector>,
    ) -> Option<CachedAnswer> {
        let CachePolicy::Bounded { ttl_epochs, .. } = self.policy else {
            return None;
        };
        let mut inner = self.lock();
        inner.stats.lookups += 1;
        let fresh = match inner.entries.get(&sig) {
            Some(e) if e.source == source => current_epoch.saturating_sub(e.epoch) < ttl_epochs,
            Some(_) => false, // hash collision across sources: treat as a miss
            None => {
                inner.stats.misses += 1;
                inner
                    .stats
                    .per_source
                    .entry(source.into())
                    .or_default()
                    .misses += 1;
                drop(inner);
                record_event(obs, "miss", source, None);
                return None;
            }
        };
        if !fresh {
            if let Some(e) = inner.entries.remove(&sig) {
                inner.stored_bytes -= e.bytes;
                inner.stats.invalidations += 1;
            }
            inner.stats.misses += 1;
            inner
                .stats
                .per_source
                .entry(source.into())
                .or_default()
                .misses += 1;
            drop(inner);
            record_event(obs, "miss", source, None);
            return None;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&sig).expect("checked above");
        entry.last_used = tick;
        let bytes = entry.bytes;
        let answer = entry.answer.clone();
        inner.stats.hits += 1;
        inner.stats.bytes_saved += bytes;
        let per = inner.stats.per_source.entry(source.into()).or_default();
        per.hits += 1;
        per.bytes_saved += bytes;
        drop(inner);
        record_event(obs, "hit", source, Some(bytes));
        Some(answer)
    }

    /// Stores a fully-received answer produced at `source` epoch
    /// `epoch`, evicting least-recently-used entries until the byte
    /// budget holds (each eviction emits an `evict @<source>` event with
    /// the bytes freed). Inserts are dropped when the policy is off,
    /// when the answer alone exceeds the whole budget, or when it is an
    /// empty result and negative caching is disabled. Callers must only
    /// insert answers from *successful* round trips — never partial
    /// results of a failed one.
    pub fn insert(
        &self,
        sig: Signature,
        source: &str,
        epoch: u64,
        answer: CachedAnswer,
        obs: Option<&Collector>,
    ) {
        let CachePolicy::Bounded {
            max_bytes,
            negative,
            ..
        } = self.policy
        else {
            return;
        };
        if answer.is_negative() && !negative {
            return;
        }
        // serialize outside the lock; worker lanes insert concurrently
        let bytes = answer.wire_bytes();
        if bytes > max_bytes {
            return;
        }
        let mut inner = self.lock();
        if let Some(prev) = inner.entries.remove(&sig) {
            inner.stored_bytes -= prev.bytes;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            sig,
            Entry {
                source: source.to_string(),
                epoch,
                bytes,
                last_used: tick,
                answer,
            },
        );
        inner.stored_bytes += bytes;
        inner.stats.insertions += 1;
        let mut evicted = Vec::new();
        while inner.stored_bytes > max_bytes {
            // oldest last_used wins; the just-inserted entry has the
            // newest tick, so it survives unless it is alone (and an
            // entry larger than the whole budget was rejected above)
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(sig, _)| *sig)
                .expect("over budget implies nonempty");
            let e = inner.entries.remove(&victim).expect("victim exists");
            inner.stored_bytes -= e.bytes;
            inner.stats.evictions += 1;
            inner
                .stats
                .per_source
                .entry(e.source.clone())
                .or_default()
                .evictions += 1;
            evicted.push((e.source, e.bytes));
        }
        drop(inner);
        for (source, bytes) in evicted {
            record_event(obs, "evict", &source, Some(bytes));
        }
    }

    /// Drops every entry of `source` immediately (eager counterpart of
    /// the lazy epoch-based staleness check).
    pub fn invalidate_source(&self, source: &str) {
        let mut inner = self.lock();
        let victims: Vec<Signature> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.source == source)
            .map(|(sig, _)| *sig)
            .collect();
        for sig in victims {
            let e = inner.entries.remove(&sig).expect("victim exists");
            inner.stored_bytes -= e.bytes;
            inner.stats.invalidations += 1;
        }
    }

    /// Drops everything (statistics survive).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.stored_bytes = 0;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats.clone()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.lock().stored_bytes
    }
}

/// Emits one `cache` observability event, labeled `<outcome> @<source>`
/// to match the `rpc` span labeling convention.
fn record_event(obs: Option<&Collector>, outcome: &str, source: &str, bytes: Option<u64>) {
    let Some(obs) = obs else { return };
    let attrs = match bytes {
        Some(b) => vec![(attr::BYTES_SAVED, AttrValue::Uint(b))],
        None => Vec::new(),
    };
    obs.event(kind::CACHE, format!("{outcome} @{source}"), attrs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_model::Node;

    fn tab(rows: usize, seed: &str) -> Tab {
        let mut t = Tab::new(vec!["x".into()]);
        for i in 0..rows {
            t.push(vec![yat_algebra::Value::Tree(Node::sym(
                format!("{seed}{i}"),
                vec![],
            ))]);
        }
        t
    }

    fn answer(rows: usize, seed: &str) -> CachedAnswer {
        CachedAnswer::Result(tab(rows, seed))
    }

    fn bounded(max_bytes: u64) -> AnswerCache {
        AnswerCache::new(CachePolicy::Bounded {
            max_bytes,
            ttl_epochs: 1,
            negative: true,
        })
    }

    #[test]
    fn signatures_are_content_addressed() {
        let a = Alg::bind(
            Alg::source("works"),
            yat_yatl::parse_filter("works *$w").unwrap(),
        );
        let b = Alg::bind(
            Alg::source("works"),
            yat_yatl::parse_filter("works *$w").unwrap(),
        );
        // distinct nodes, identical wire form → identical signature
        assert_eq!(
            Signature::execute("wais", &a),
            Signature::execute("wais", &b)
        );
        // the source participates
        assert_ne!(Signature::execute("wais", &a), Signature::execute("o2", &a));
        // request kinds cannot collide structurally
        assert_ne!(
            Signature::document("wais", "works"),
            Signature::execute("wais", &a)
        );
        assert_ne!(
            Signature::document("wais", "works"),
            Signature::document("wais", "persons")
        );
        assert_eq!(
            format!("{}", Signature::document("wais", "works")).len(),
            16
        );
    }

    #[test]
    fn hit_returns_the_stored_answer_and_counts_bytes() {
        let cache = bounded(1 << 20);
        let sig = Signature::document("src", "d");
        assert!(cache.lookup(sig, "src", 0, None).is_none());
        let ans = answer(2, "row");
        let bytes = ans.wire_bytes();
        cache.insert(sig, "src", 0, ans.clone(), None);
        assert_eq!(cache.lookup(sig, "src", 0, None), Some(ans));
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.bytes_saved, bytes);
        assert_eq!(stats.per_source["src"].hits, 1);
        assert_eq!(stats.per_source["src"].bytes_saved, bytes);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.stored_bytes(), bytes);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = answer(1, "aa").wire_bytes();
        // room for two entries, not three
        let cache = bounded(one * 2 + 1);
        let sigs: Vec<Signature> = (0..3)
            .map(|i| Signature::document("src", &format!("d{i}")))
            .collect();
        cache.insert(sigs[0], "src", 0, answer(1, "aa"), None);
        cache.insert(sigs[1], "src", 0, answer(1, "bb"), None);
        // touch d0 so d1 becomes the LRU victim
        assert!(cache.lookup(sigs[0], "src", 0, None).is_some());
        cache.insert(sigs[2], "src", 0, answer(1, "cc"), None);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(sigs[0], "src", 0, None).is_some(), "kept");
        assert!(cache.lookup(sigs[1], "src", 0, None).is_none(), "evicted");
        assert!(cache.lookup(sigs[2], "src", 0, None).is_some(), "kept");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.per_source["src"].evictions, 1);
        assert!(cache.stored_bytes() <= one * 2 + 1);
    }

    #[test]
    fn oversized_answers_are_not_cached() {
        let cache = bounded(8);
        let sig = Signature::document("src", "d");
        cache.insert(sig, "src", 0, answer(5, "big"), None);
        assert!(cache.is_empty());
        assert!(cache.lookup(sig, "src", 0, None).is_none());
    }

    #[test]
    fn epoch_bump_invalidates_lazily() {
        let cache = bounded(1 << 20);
        let sig = Signature::document("src", "d");
        cache.insert(sig, "src", 3, answer(1, "x"), None);
        assert!(cache.lookup(sig, "src", 3, None).is_some(), "same epoch");
        // the source moved on: ttl 1 means one bump is already stale
        assert!(cache.lookup(sig, "src", 4, None).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty(), "stale entry dropped, not retained");
    }

    #[test]
    fn wider_ttl_survives_bumps() {
        let cache = AnswerCache::new(CachePolicy::Bounded {
            max_bytes: 1 << 20,
            ttl_epochs: 3,
            negative: true,
        });
        let sig = Signature::document("src", "d");
        cache.insert(sig, "src", 10, answer(1, "x"), None);
        assert!(cache.lookup(sig, "src", 12, None).is_some(), "2 bumps < 3");
        assert!(
            cache.lookup(sig, "src", 13, None).is_none(),
            "3 bumps = ttl"
        );
    }

    #[test]
    fn invalidate_source_is_scoped() {
        let cache = bounded(1 << 20);
        cache.insert(Signature::document("a", "d1"), "a", 0, answer(1, "x"), None);
        cache.insert(Signature::document("b", "d2"), "b", 0, answer(1, "y"), None);
        cache.invalidate_source("a");
        assert!(cache
            .lookup(Signature::document("a", "d1"), "a", 0, None)
            .is_none());
        assert!(cache
            .lookup(Signature::document("b", "d2"), "b", 0, None)
            .is_some());
    }

    #[test]
    fn negative_caching_is_optional() {
        let empty = CachedAnswer::Result(tab(0, ""));
        assert!(empty.is_negative());
        let sig = Signature::document("src", "d");

        let with = bounded(1 << 20);
        with.insert(sig, "src", 0, empty.clone(), None);
        assert_eq!(with.lookup(sig, "src", 0, None), Some(empty.clone()));

        let without = AnswerCache::new(CachePolicy::Bounded {
            max_bytes: 1 << 20,
            ttl_epochs: 1,
            negative: false,
        });
        without.insert(sig, "src", 0, empty, None);
        assert!(without.lookup(sig, "src", 0, None).is_none());
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = AnswerCache::off();
        let sig = Signature::document("src", "d");
        cache.insert(sig, "src", 0, answer(1, "x"), None);
        assert!(cache.lookup(sig, "src", 0, None).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(!cache.policy().is_enabled());
    }

    #[test]
    fn same_signature_replaces_with_correct_accounting() {
        let cache = bounded(1 << 20);
        let sig = Signature::document("src", "d");
        cache.insert(sig, "src", 0, answer(1, "first"), None);
        let second = answer(3, "second-version");
        cache.insert(sig, "src", 0, second.clone(), None);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stored_bytes(), second.wire_bytes());
        assert_eq!(cache.lookup(sig, "src", 0, None), Some(second));
    }

    #[test]
    fn events_are_emitted_with_byte_attrs() {
        let cache = bounded(1 << 20);
        let obs = Collector::new();
        let sig = Signature::document("src", "d");
        cache.lookup(sig, "src", 0, Some(&obs));
        let ans = answer(1, "x");
        let bytes = ans.wire_bytes();
        cache.insert(sig, "src", 0, ans, Some(&obs));
        cache.lookup(sig, "src", 0, Some(&obs));
        let spans = obs.spans();
        let labels: Vec<&str> = spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["miss @src", "hit @src"]);
        assert!(spans.iter().all(|s| s.kind == kind::CACHE && s.closed));
        assert_eq!(
            spans[1].attr(attr::BYTES_SAVED).and_then(|v| v.as_u64()),
            Some(bytes)
        );
    }

    #[test]
    fn concurrent_lookups_and_inserts_stay_consistent() {
        let cache = bounded(1 << 20);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let sig = Signature::document("src", &format!("d{}", i % 8));
                        if (t + i) % 2 == 0 {
                            cache.insert(sig, "src", 0, answer(1, "cc"), None);
                        } else {
                            cache.lookup(sig, "src", 0, None);
                        }
                    }
                });
            }
        });
        // invariant: stored bytes equal the sum over live entries
        let per_entry = answer(1, "cc").wire_bytes();
        assert_eq!(cache.stored_bytes(), cache.len() as u64 * per_entry);
        let stats = cache.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.lookups, 100);
    }

    /// Satellite coverage for the serving layer: many threads hammer
    /// hit/miss/insert/evict *and* epoch bumps at once — the exact
    /// access pattern concurrent server sessions produce. Asserts two
    /// invariants the single-threaded tests cannot: byte accounting
    /// stays exact under interleaved insert/evict/invalidate, and a hit
    /// never returns an answer recorded before the freshness window of
    /// the epoch the reader observed (no stale epoch reads).
    #[test]
    fn concurrent_hammer_with_epoch_bumps_stays_consistent() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        // fixed-width labels so every answer has identical wire bytes
        // and the byte-accounting invariant is a simple multiplication
        let answer_at = |epoch: u64| answer(1, &format!("e{epoch:010}"));
        let per_entry = answer_at(0).wire_bytes();
        // budget for 6 of 16 possible signatures → constant eviction
        let cache = AnswerCache::new(CachePolicy::Bounded {
            max_bytes: per_entry * 6,
            ttl_epochs: 2,
            negative: true,
        });
        let epoch = AtomicU64::new(0);
        let stale_seen = AtomicBool::new(false);

        std::thread::scope(|s| {
            // one invalidator thread keeps bumping the source epoch
            s.spawn(|| {
                for _ in 0..200 {
                    epoch.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }
            });
            for t in 0..8u64 {
                let cache = &cache;
                let epoch = &epoch;
                let stale_seen = &stale_seen;
                s.spawn(move || {
                    for i in 0..300u64 {
                        let sig = Signature::document("src", &format!("d{}", (t + i) % 16));
                        // the epoch this thread observes *before* acting
                        let seen = epoch.load(Ordering::SeqCst);
                        if (t + i) % 3 == 0 {
                            cache.insert(sig, "src", seen, answer_at(seen), None);
                        } else if let Some(CachedAnswer::Result(tab)) =
                            cache.lookup(sig, "src", seen, None)
                        {
                            // recover the insertion epoch from the payload
                            // (labels are "e<epoch:010><row>", see answer_at)
                            let row = tab.rows().next().expect("one row");
                            let label = match &row[0] {
                                yat_algebra::Value::Tree(tree) => {
                                    tree.label.as_sym().expect("sym label").to_string()
                                }
                                other => panic!("{other:?}"),
                            };
                            let stored: u64 = label[1..11].parse().expect("epoch digits");
                            // freshness contract: stored within ttl of
                            // the epoch passed to the lookup
                            if seen.saturating_sub(stored) >= 2 {
                                stale_seen.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });

        assert!(!stale_seen.load(Ordering::SeqCst), "stale epoch read");
        // byte accounting survived the interleavings exactly
        assert_eq!(cache.stored_bytes(), cache.len() as u64 * per_entry);
        assert!(
            cache.len() <= 6,
            "budget respected: {} entries",
            cache.len()
        );
        let stats = cache.stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        let per_src = &stats.per_source["src"];
        assert_eq!(stats.hits, per_src.hits);
        assert_eq!(stats.misses, per_src.misses);
        assert_eq!(stats.bytes_saved, stats.hits * per_entry);
    }
}
