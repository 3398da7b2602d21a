//! Interned query symbols.
//!
//! Every distinct query string in a campaign is stored once in a
//! process-global append-only symbol table; the rest of the system passes
//! around a [`QueryId`] — a `Copy` 32-bit handle — instead of cloning the
//! string through generation, forwarding, tracing, and analysis. The table
//! is append-only and entries are leaked, so [`QueryId::resolve`] hands
//! back a `&'static str` without holding any lock beyond the lookup.
//!
//! Two properties matter for reproducibility:
//!
//! * **Raw ids are process-local.** They depend on interning order, which
//!   differs between runs and shard counts. Anything that must be stable
//!   across processes (JSONL traces, report ordering) therefore works on
//!   the *resolved string*: [`QueryId`] serializes as its text, and its
//!   `Ord` compares resolved strings.
//! * **Canonical keyword sets are precomputed.** §3.2 treats two queries
//!   as identical when they contain the same keyword set. At intern time
//!   the table computes the canonical form (lowercased, sorted,
//!   de-duplicated — exactly [`QueryKey`]) once and
//!   records the id of the canonical entry, so the filter and popularity
//!   pipelines compare keyword sets by integer id with no per-message
//!   allocation or re-normalization.

use crate::query::QueryKey;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Lock-free side table of resolved text *lengths*, indexed by raw id.
///
/// `encoded_len` needs the byte length of a query's text for every
/// message the measurement peer records — tens of millions of times per
/// campaign — and taking the interner's read lock plus a random read of
/// the entry table per call is measurable. Lengths are published here at
/// intern time (under the interner's write lock, before the id escapes)
/// into append-only buckets of doubling size, so readers do one atomic
/// bucket load and one indexed atomic read, no lock.
///
/// Bucket `b` covers ids `2^b - 1 .. 2^(b+1) - 1`; 32 buckets cover the
/// whole `u32` id space.
struct LenTable {
    buckets: [OnceLock<Box<[AtomicUsize]>>; 32],
}

impl LenTable {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: OnceLock<Box<[AtomicUsize]>> = OnceLock::new();
        LenTable {
            buckets: [EMPTY; 32],
        }
    }

    #[inline]
    fn locate(id: u32) -> (usize, usize) {
        let pos = id as usize + 1;
        let bucket = (usize::BITS - 1 - pos.leading_zeros()) as usize;
        (bucket, pos - (1 << bucket))
    }

    /// Publish the length for `id`. Called only while the interner's
    /// write lock is held (so bucket initialization never races with
    /// another writer) and before `id` is handed out.
    fn publish(&self, id: u32, len: usize) {
        let (bucket, idx) = Self::locate(id);
        let slab = self.buckets[bucket].get_or_init(|| {
            (0..(1usize << bucket))
                .map(|_| AtomicUsize::new(0))
                .collect()
        });
        slab[idx].store(len, Ordering::Release);
    }

    /// Length for an id that has been interned.
    #[inline]
    fn get(&self, id: u32) -> usize {
        let (bucket, idx) = Self::locate(id);
        self.buckets[bucket]
            .get()
            .expect("QueryId bucket must exist for a handed-out id")[idx]
            .load(Ordering::Acquire)
    }
}

static LEN_TABLE: LenTable = LenTable::new();

/// Handle to an interned query string.
///
/// Equality and hashing use the raw id (valid within one process);
/// ordering compares the resolved strings so sorted output is stable
/// across processes and shard counts.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(u32);

struct Entry {
    text: &'static str,
    /// Id of the canonical keyword-set entry (possibly this entry itself).
    canon: u32,
    /// True when the text contains no keywords (empty or whitespace-only).
    blank: bool,
}

struct Interner {
    map: HashMap<&'static str, u32>,
    entries: Vec<Entry>,
}

impl Interner {
    fn insert(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.map.get(text) {
            return id;
        }
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let id = self.entries.len() as u32;
        LEN_TABLE.publish(id, leaked.len());
        self.map.insert(leaked, id);
        self.entries.push(Entry {
            text: leaked,
            canon: id,
            blank: leaked.trim().is_empty(),
        });
        let key = QueryKey::new(leaked);
        if key.as_str() != leaked {
            // `QueryKey::new` is idempotent, so the recursion terminates:
            // the canonical entry is its own canonical form.
            let canon = self.insert(key.as_str());
            self.entries[id as usize].canon = canon;
        }
        id
    }
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut interner = Interner {
            map: HashMap::new(),
            entries: Vec::new(),
        };
        // Id 0 is always the empty string (SHA1 re-queries, defaults).
        interner.insert("");
        RwLock::new(interner)
    })
}

impl QueryId {
    /// The empty query text (id 0; what SHA1 re-queries carry).
    pub fn empty() -> QueryId {
        let _ = table();
        QueryId(0)
    }

    /// Intern `text`, returning its id. Idempotent; allocates only the
    /// first time a given string is seen in the process.
    pub fn intern(text: &str) -> QueryId {
        {
            let t = table().read().unwrap();
            if let Some(&id) = t.map.get(text) {
                return QueryId(id);
            }
        }
        let mut t = table().write().unwrap();
        QueryId(t.insert(text))
    }

    /// Intern `text` and return the id of its *canonical keyword set*
    /// (lowercased, sorted, de-duplicated). Shorthand for
    /// `QueryId::intern(text).canonical()`.
    pub fn canonical_of(text: &str) -> QueryId {
        QueryId::intern(text).canonical()
    }

    /// The interned string (escape hatch for report rendering and tests).
    pub fn resolve(self) -> &'static str {
        table().read().unwrap().entries[self.0 as usize].text
    }

    /// Alias for [`QueryId::resolve`].
    pub fn as_str(self) -> &'static str {
        self.resolve()
    }

    /// Byte length of the resolved text, without taking the interner
    /// lock (hot in wire-size accounting; see `LenTable`).
    #[inline]
    pub fn text_len(self) -> usize {
        LEN_TABLE.get(self.0)
    }

    /// Id of this query's canonical keyword set (precomputed at intern
    /// time; no allocation).
    pub fn canonical(self) -> QueryId {
        QueryId(table().read().unwrap().entries[self.0 as usize].canon)
    }

    /// True when the resolved text is the empty string.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when the text carries no keywords (empty or whitespace-only) —
    /// the rule-1 "empty keywords" condition of §3.3.
    pub fn is_blank(self) -> bool {
        table().read().unwrap().entries[self.0 as usize].blank
    }

    /// Number of distinct keywords in the canonical form.
    pub fn keyword_count(self) -> usize {
        let c = self.canonical();
        if c.is_blank() {
            0
        } else {
            c.resolve().split(' ').count()
        }
    }

    /// The raw process-local id (diagnostics only — not stable across
    /// runs or shard counts).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstruct a handle from a value previously obtained via
    /// [`QueryId::raw`] **in this process**. The interner is the
    /// dictionary the trace store's chunks code query text against:
    /// a chunk stores the raw u32 and rebuilds the handle on decode.
    /// Feeding an id that never came out of this process's interner
    /// produces a handle whose `resolve` will panic.
    pub fn from_raw(raw: u32) -> QueryId {
        QueryId(raw)
    }
}

impl Default for QueryId {
    fn default() -> Self {
        QueryId::empty()
    }
}

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryId({:?})", self.resolve())
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.resolve())
    }
}

impl PartialOrd for QueryId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueryId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.resolve().cmp(other.resolve())
        }
    }
}

impl PartialEq<&str> for QueryId {
    fn eq(&self, other: &&str) -> bool {
        self.resolve() == *other
    }
}

impl PartialEq<str> for QueryId {
    fn eq(&self, other: &str) -> bool {
        self.resolve() == other
    }
}

impl From<&str> for QueryId {
    fn from(s: &str) -> QueryId {
        QueryId::intern(s)
    }
}

impl From<String> for QueryId {
    fn from(s: String) -> QueryId {
        QueryId::intern(&s)
    }
}

impl Serialize for QueryId {
    fn to_value(&self) -> Value {
        Value::Str(self.resolve().to_owned())
    }
}

impl Deserialize for QueryId {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(|s| QueryId::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let a = QueryId::intern("pink floyd");
        let b = QueryId::intern("pink floyd");
        assert_eq!(a, b);
        assert_eq!(a.resolve(), "pink floyd");
        assert_eq!(a, "pink floyd");
        let c = QueryId::intern("pink floyd wall");
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_collapses_keyword_sets() {
        let a = QueryId::intern("Floyd PINK");
        let b = QueryId::intern("pink  floyd");
        assert_ne!(a, b, "distinct raw strings stay distinct");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical().resolve(), "floyd pink");
        // The canonical entry is its own canonical form.
        assert_eq!(a.canonical().canonical(), a.canonical());
    }

    #[test]
    fn empty_and_blank() {
        assert!(QueryId::empty().is_empty());
        assert!(QueryId::empty().is_blank());
        assert_eq!(QueryId::intern(""), QueryId::empty());
        let ws = QueryId::intern("  \t ");
        assert!(!ws.is_empty());
        assert!(ws.is_blank());
        assert!(ws.canonical().is_empty());
        assert!(!QueryId::intern("a").is_blank());
        assert_eq!(QueryId::default(), QueryId::empty());
    }

    #[test]
    fn keyword_counts() {
        assert_eq!(QueryId::intern("one two three").keyword_count(), 3);
        assert_eq!(QueryId::intern("dup dup").keyword_count(), 1);
        assert_eq!(QueryId::empty().keyword_count(), 0);
    }

    #[test]
    fn ordering_is_by_resolved_string() {
        let mut v = [
            QueryId::intern("zz top"),
            QueryId::intern("abba"),
            QueryId::intern("mm nn"),
        ];
        v.sort();
        let texts: Vec<&str> = v.iter().map(|q| q.resolve()).collect();
        assert_eq!(texts, vec!["abba", "mm nn", "zz top"]);
    }

    #[test]
    fn serde_round_trips_as_string() {
        let q = QueryId::intern("serde round trip");
        let v = q.to_value();
        assert!(matches!(&v, Value::Str(s) if s == "serde round trip"));
        let back = QueryId::from_value(&v).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| QueryId::intern(&format!("shared {}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<QueryId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            let a: std::collections::HashSet<_> = results[0].iter().copied().collect();
            let b: std::collections::HashSet<_> = r.iter().copied().collect();
            assert_eq!(a, b);
        }
    }
}
