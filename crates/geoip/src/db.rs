//! IPv4 → region database with longest-prefix-match lookup.
//!
//! The synthetic allocation mirrors coarse 2004-era registry geography:
//! classic ARIN space maps to North America, RIPE blocks to Europe, APNIC
//! blocks to Asia, and a few LACNIC/AfriNIC blocks to `Other`. The mapping
//! is *synthetic* — the point is a consistent, deterministic address space
//! that the behavior model can allocate from and the analysis pipeline can
//! resolve, exactly as the paper used MaxMind on real addresses.

use crate::region::Region;
use rand::Rng;
use std::net::Ipv4Addr;

/// One CIDR prefix entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefixEntry {
    /// Network base address (host-order u32).
    pub(crate) base: u32,
    /// Prefix length in bits (0–32).
    pub(crate) len: u8,
    /// Region this prefix resolves to.
    pub(crate) region: Region,
}

impl PrefixEntry {
    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    fn contains(&self, addr: u32) -> bool {
        (addr & Self::mask(self.len)) == (self.base & Self::mask(self.len))
    }
}

/// Longest-prefix-match IPv4 geolocation database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GeoDb {
    entries: Vec<PrefixEntry>,
}

impl GeoDb {
    /// Empty database (all lookups resolve to [`Region::Other`]).
    pub(crate) fn new() -> Self {
        GeoDb::default()
    }

    /// Add a prefix; later longer prefixes take precedence over shorter.
    pub(crate) fn add_prefix(&mut self, base: Ipv4Addr, len: u8, region: Region) {
        assert!(len <= 32, "prefix length out of range");
        self.entries.push(PrefixEntry {
            base: u32::from(base),
            len,
            region,
        });
        // Keep sorted by descending prefix length so the first match is the
        // longest match.
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.len));
    }

    /// Resolve an address to a region; unresolvable ⇒ [`Region::Other`]
    /// (the paper folds "unknown origin" into the same residual class).
    pub fn lookup(&self, addr: Ipv4Addr) -> Region {
        let a = u32::from(addr);
        self.entries
            .iter()
            .find(|e| e.contains(a))
            .map(|e| e.region)
            .unwrap_or(Region::Other)
    }

    /// The deterministic synthetic database used throughout the
    /// reproduction. /8 blocks, loosely patterned on 2004 registry space.
    pub fn synthetic() -> Self {
        let mut db = GeoDb::new();
        let na8: &[u8] = &[
            12, 24, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 96, 204, 205, 206, 207,
            208, 209, 216,
        ];
        let eu8: &[u8] = &[
            62, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 193, 194, 195, 212, 213, 217,
        ];
        let as8: &[u8] = &[
            58, 59, 60, 61, 124, 125, 202, 203, 210, 211, 218, 219, 220, 221, 222,
        ];
        let ot8: &[u8] = &[41, 154, 196, 200, 201];
        for &b in na8 {
            db.add_prefix(Ipv4Addr::new(b, 0, 0, 0), 8, Region::NorthAmerica);
        }
        for &b in eu8 {
            db.add_prefix(Ipv4Addr::new(b, 0, 0, 0), 8, Region::Europe);
        }
        for &b in as8 {
            db.add_prefix(Ipv4Addr::new(b, 0, 0, 0), 8, Region::Asia);
        }
        for &b in ot8 {
            db.add_prefix(Ipv4Addr::new(b, 0, 0, 0), 8, Region::Other);
        }
        db
    }

    /// First-octet blocks allocated to `region` (used by the allocator).
    fn blocks_for(&self, region: Region) -> Vec<u8> {
        let mut out: Vec<u8> = self
            .entries
            .iter()
            .filter(|e| e.region == region && e.len == 8)
            .map(|e| (e.base >> 24) as u8)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Draws fresh, region-consistent peer addresses from a [`GeoDb`].
///
/// Addresses are drawn uniformly within the region's /8 blocks; collisions
/// across draws are possible but vanishingly rare relative to the paper's
/// 4.3 M connections over a /8-sized space, and harmless: the trace layer
/// keys sessions on (address, connection epoch).
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    blocks: [Vec<u8>; 4],
}

impl AddressAllocator {
    /// Build an allocator over the database's /8 blocks.
    ///
    /// Panics if any characterized region has no address block — a
    /// misconfigured database would silently skew every region-conditioned
    /// measure.
    pub fn new(db: &GeoDb) -> Self {
        let blocks = [
            db.blocks_for(Region::NorthAmerica),
            db.blocks_for(Region::Europe),
            db.blocks_for(Region::Asia),
            db.blocks_for(Region::Other),
        ];
        for r in Region::ALL {
            assert!(
                !blocks[r.index()].is_empty(),
                "no /8 blocks allocated for {r}"
            );
        }
        AddressAllocator { blocks }
    }

    /// Draw an address in `region`.
    pub fn sample<R: Rng + ?Sized>(&self, region: Region, rng: &mut R) -> Ipv4Addr {
        let blocks = &self.blocks[region.index()];
        let b = blocks[rng.gen_range(0..blocks.len())];
        // Avoid .0 and .255 host bytes for realism.
        Ipv4Addr::new(
            b,
            rng.gen_range(0..=255),
            rng.gen_range(0..=255),
            rng.gen_range(1..=254),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn longest_prefix_wins() {
        let mut db = GeoDb::new();
        db.add_prefix(Ipv4Addr::new(10, 0, 0, 0), 8, Region::NorthAmerica);
        db.add_prefix(Ipv4Addr::new(10, 1, 0, 0), 16, Region::Europe);
        db.add_prefix(Ipv4Addr::new(10, 1, 2, 0), 24, Region::Asia);
        assert_eq!(db.lookup(Ipv4Addr::new(10, 9, 9, 9)), Region::NorthAmerica);
        assert_eq!(db.lookup(Ipv4Addr::new(10, 1, 9, 9)), Region::Europe);
        assert_eq!(db.lookup(Ipv4Addr::new(10, 1, 2, 3)), Region::Asia);
    }

    #[test]
    fn unknown_is_other() {
        let db = GeoDb::new();
        assert_eq!(db.lookup(Ipv4Addr::new(1, 2, 3, 4)), Region::Other);
    }

    #[test]
    fn synthetic_resolves_known_blocks() {
        let db = GeoDb::synthetic();
        assert_eq!(db.lookup(Ipv4Addr::new(24, 5, 6, 7)), Region::NorthAmerica);
        assert_eq!(db.lookup(Ipv4Addr::new(82, 5, 6, 7)), Region::Europe);
        assert_eq!(db.lookup(Ipv4Addr::new(202, 5, 6, 7)), Region::Asia);
        assert_eq!(db.lookup(Ipv4Addr::new(200, 5, 6, 7)), Region::Other);
        // Unallocated space resolves to Other as well.
        assert_eq!(db.lookup(Ipv4Addr::new(140, 5, 6, 7)), Region::Other);
    }

    #[test]
    fn allocator_round_trips_through_lookup() {
        let db = GeoDb::synthetic();
        let alloc = AddressAllocator::new(&db);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for region in Region::ALL {
            for _ in 0..200 {
                let ip = alloc.sample(region, &mut rng);
                assert_eq!(db.lookup(ip), region, "allocated {ip} for {region}");
            }
        }
    }

    #[test]
    fn allocator_addresses_are_diverse() {
        let db = GeoDb::synthetic();
        let alloc = AddressAllocator::new(&db);
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(alloc.sample(Region::NorthAmerica, &mut rng));
        }
        assert!(seen.len() > 990, "only {} distinct addresses", seen.len());
    }

    #[test]
    #[should_panic(expected = "prefix length out of range")]
    fn rejects_overlong_prefix() {
        let mut db = GeoDb::new();
        db.add_prefix(Ipv4Addr::new(1, 2, 3, 4), 33, Region::Other);
    }
}
