//! GUID routing table.
//!
//! Forwarding a QUERY more than once is prevented by remembering its GUID
//! together with the neighbor it was first received from; QUERYHITs are
//! routed back along that reverse path. Entries expire after a configured
//! interval — "typically after 10 minutes" (§3.1).

use crate::guid::Guid;
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for keys that are already uniformly random, like [`Guid`]s
/// (16 bytes straight from the RNG). SipHash's collision resistance buys
/// nothing for such keys and its cost is paid on every insert, lookup,
/// and expiry sweep of the routing table — the hottest map in the
/// simulation — so the written bytes are just XOR-folded into the hash.
#[derive(Default)]
pub(crate) struct RandomKeyHasher(u64);

impl Hasher for RandomKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            h ^= u64::from_le_bytes(b);
        }
        self.0 = h;
    }
}

/// Default entry lifetime from the protocol specification.
pub(crate) const DEFAULT_EXPIRY: SimDuration = SimDuration::from_secs(600);

/// A routing table mapping GUIDs to the neighbor they arrived from.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    expiry: SimDuration,
    map: HashMap<Guid, (NodeId, SimTime), BuildHasherDefault<RandomKeyHasher>>,
    /// Insertion order for O(1) amortized expiry sweeps.
    order: VecDeque<(Guid, SimTime)>,
    /// Lifetime counters.
    inserted_total: u64,
    expired_total: u64,
    duplicate_hits: u64,
}

impl RoutingTable {
    /// Create with the spec-default 10-minute expiry.
    pub fn new() -> Self {
        Self::with_expiry(DEFAULT_EXPIRY)
    }

    /// Create with a custom expiry (the ablation bench sweeps this).
    pub fn with_expiry(expiry: SimDuration) -> Self {
        RoutingTable {
            expiry,
            map: HashMap::default(),
            order: VecDeque::new(),
            inserted_total: 0,
            expired_total: 0,
            duplicate_hits: 0,
        }
    }

    /// Record `guid` as first seen from `from` at `now`.
    ///
    /// Returns `false` (and counts a duplicate) if the GUID is already
    /// present and unexpired — the caller must not forward the message.
    pub fn insert(&mut self, guid: Guid, from: NodeId, now: SimTime) -> bool {
        self.sweep(now);
        if self.map.contains_key(&guid) {
            self.duplicate_hits += 1;
            return false;
        }
        self.map.insert(guid, (from, now));
        self.order.push_back((guid, now));
        self.inserted_total += 1;
        true
    }

    /// Reverse-path lookup: which neighbor did `guid` come from?
    pub fn reverse_route(&self, guid: &Guid) -> Option<NodeId> {
        self.map.get(guid).map(|&(from, _)| from)
    }

    /// Drop entries older than the expiry window.
    pub(crate) fn sweep(&mut self, now: SimTime) {
        while let Some(&(guid, at)) = self.order.front() {
            if now.since(at) < self.expiry {
                break;
            }
            self.order.pop_front();
            // Only remove if the stored timestamp matches (the GUID may
            // never be re-inserted while present, so it always matches).
            if let Some(&(_, stored)) = self.map.get(&guid) {
                if stored == at {
                    self.map.remove(&guid);
                    self.expired_total += 1;
                }
            }
        }
    }

    /// `(inserted, expired, duplicate-suppressed)` lifetime counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.inserted_total, self.expired_total, self.duplicate_hits)
    }
}

impl Default for RoutingTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn guid(seed: u64) -> Guid {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Guid::random(&mut rng)
    }

    #[test]
    fn duplicate_suppression() {
        let mut rt = RoutingTable::new();
        let g = guid(1);
        let t = SimTime::from_secs(100);
        assert!(rt.insert(g, NodeId(1), t));
        assert!(!rt.insert(g, NodeId(2), t + SimDuration::from_secs(1)));
        // Reverse route points at the *first* neighbor.
        assert_eq!(rt.reverse_route(&g), Some(NodeId(1)));
        assert_eq!(rt.counters().2, 1);
    }

    #[test]
    fn entries_expire_after_ten_minutes() {
        let mut rt = RoutingTable::new();
        let g = guid(2);
        rt.insert(g, NodeId(1), SimTime::from_secs(0));
        assert!(rt.map.contains_key(&g));
        rt.sweep(SimTime::from_secs(599));
        assert!(rt.map.contains_key(&g));
        rt.sweep(SimTime::from_secs(600));
        assert!(!rt.map.contains_key(&g));
        assert_eq!(rt.reverse_route(&g), None);
        // After expiry, re-insertion succeeds (re-flood is permitted).
        assert!(rt.insert(g, NodeId(3), SimTime::from_secs(700)));
        assert_eq!(rt.reverse_route(&g), Some(NodeId(3)));
    }

    #[test]
    fn sweep_is_incremental_and_ordered() {
        let mut rt = RoutingTable::with_expiry(SimDuration::from_secs(10));
        for i in 0..100u64 {
            rt.insert(guid(i + 10), NodeId(i as u32), SimTime::from_secs(i));
        }
        // Inserts sweep lazily: after the insert at t=99, only entries from
        // t=90..=99 survive the 10 s window.
        assert_eq!(rt.map.len(), 10);
        assert_eq!(rt.counters().1, 90);
    }

    #[test]
    fn insert_sweeps_lazily() {
        let mut rt = RoutingTable::with_expiry(SimDuration::from_secs(10));
        rt.insert(guid(500), NodeId(1), SimTime::from_secs(0));
        rt.insert(guid(501), NodeId(1), SimTime::from_secs(5));
        // Inserting far in the future expires both old entries.
        rt.insert(guid(502), NodeId(1), SimTime::from_secs(1_000));
        assert_eq!(rt.map.len(), 1);
        let (inserted, expired, dups) = rt.counters();
        assert_eq!(inserted, 3);
        assert_eq!(expired, 2);
        assert_eq!(dups, 0);
    }

    #[test]
    fn empty_table() {
        let rt = RoutingTable::new();
        assert!(rt.map.is_empty());
        assert_eq!(rt.reverse_route(&guid(1)), None);
    }
}
