//! Gnutella message types.
//!
//! The protocol has four routed message types — PING, PONG, QUERY,
//! QUERYHIT — plus the (often unused, §3.2) BYE. Each routed message
//! carries a GUID, a TTL decremented on forwarding, and a hops count
//! incremented on forwarding; the measurement methodology leans on
//! `hops == 1` to identify queries generated by directly connected peers
//! (§3.2).

use crate::guid::Guid;
use crate::symbols::QueryId;
use std::net::Ipv4Addr;

/// Default initial TTL used by 2004-era clients.
pub const DEFAULT_TTL: u8 = 7;

/// PONG payload: address/port plus shared-library advertisement.
/// The paper reads shared-file counts out of PONGs for Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pong {
    /// Listening port of the advertised peer.
    pub port: u16,
    /// Address of the advertised peer.
    pub addr: Ipv4Addr,
    /// Number of files the peer shares.
    pub shared_files: u32,
    /// Total shared kilobytes.
    pub shared_kb: u32,
}

/// QUERY payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Minimum-speed field (kB/s) from the wire format.
    pub min_speed: u16,
    /// The interned keyword search string (empty for SHA1 re-queries).
    pub text: QueryId,
    /// Optional `urn:sha1:` extension — identifies filter rule 1 traffic:
    /// automated searches for additional sources of a known file.
    pub sha1: Option<String>,
}

impl Query {
    /// A plain keyword query (interns the text).
    pub fn keywords(text: impl AsRef<str>) -> Query {
        Query::from_id(QueryId::intern(text.as_ref()))
    }

    /// A plain keyword query from an already-interned id — the
    /// allocation-free constructor the generators use.
    pub fn from_id(text: QueryId) -> Query {
        Query {
            min_speed: 0,
            text,
            sha1: None,
        }
    }
}

/// One result record inside a QUERYHIT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHitResult {
    /// File index at the responding peer.
    pub index: u32,
    /// File size in bytes.
    pub size: u32,
    /// File name.
    pub name: String,
}

/// QUERYHIT payload: results plus responder identity.
/// The paper reads responder IPs out of QUERYHITs (with PONGs) to estimate
/// the geographic distribution of *all* peers (Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    /// Responder listening port.
    pub port: u16,
    /// Responder address.
    pub addr: Ipv4Addr,
    /// Responder advertised speed (kB/s).
    pub speed: u32,
    /// Matching files.
    pub results: Vec<QueryHitResult>,
    /// Servent GUID of the responder (trailing 16 bytes on the wire).
    pub servent: Guid,
}

/// BYE payload (graceful close; most 2004 clients never send it, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bye {
    /// Close code (200 = shutting down).
    pub code: u16,
    /// Free-text reason.
    pub reason: String,
}

/// A message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Keepalive / peer discovery probe.
    Ping,
    /// Response to PING, advertises a peer.
    Pong(Pong),
    /// Keyword search.
    Query(Query),
    /// Search response, reverse-routed by GUID.
    QueryHit(QueryHit),
    /// Graceful close.
    Bye(Bye),
}

impl Payload {
    /// Wire-format type byte.
    pub(crate) fn type_byte(&self) -> u8 {
        match self {
            Payload::Ping => 0x00,
            Payload::Pong(_) => 0x01,
            Payload::Bye(_) => 0x02,
            Payload::Query(_) => 0x80,
            Payload::QueryHit(_) => 0x81,
        }
    }
}

/// A complete Gnutella message: routed header + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message GUID.
    pub guid: Guid,
    /// Remaining time-to-live (not forwarded at 0).
    pub ttl: u8,
    /// Overlay hops traveled so far (0 at origin).
    pub hops: u8,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// Create a freshly originated message (hops 0, default TTL).
    pub fn originate(guid: Guid, payload: Payload) -> Message {
        Message {
            guid,
            ttl: DEFAULT_TTL,
            hops: 0,
            payload,
        }
    }

    /// Produce the forwarded copy of this message: TTL decremented, hops
    /// incremented. Returns `None` when the TTL is exhausted.
    pub fn forwarded(&self) -> Option<Message> {
        if self.ttl <= 1 {
            return None;
        }
        let mut m = self.clone();
        m.ttl -= 1;
        m.hops = m.hops.saturating_add(1);
        Some(m)
    }

    /// The copy of this message as it appears after one overlay hop
    /// (what a neighbor of the originator receives): hops = 1.
    pub fn first_hop(&self) -> Message {
        let mut m = self.clone();
        m.hops = m.hops.saturating_add(1);
        m.ttl = m.ttl.saturating_sub(1).max(1);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn guid() -> Guid {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        Guid::random(&mut rng)
    }

    #[test]
    fn forwarding_decrements_ttl_and_counts_hops() {
        let m = Message::originate(guid(), Payload::Ping);
        assert_eq!(m.ttl, DEFAULT_TTL);
        assert_eq!(m.hops, 0);
        let f = m.forwarded().unwrap();
        assert_eq!(f.ttl, DEFAULT_TTL - 1);
        assert_eq!(f.hops, 1);
        // Exhaust the TTL.
        let mut cur = m;
        let mut hops = 0;
        while let Some(next) = cur.forwarded() {
            cur = next;
            hops += 1;
        }
        assert_eq!(hops, DEFAULT_TTL as u32 - 1);
        assert_eq!(cur.ttl, 1);
    }

    #[test]
    fn first_hop_semantics() {
        let m = Message::originate(guid(), Payload::Query(Query::keywords("led zeppelin")));
        let h = m.first_hop();
        assert_eq!(h.hops, 1);
        assert!(h.ttl >= 1);
    }

    #[test]
    fn type_bytes_and_kinds() {
        assert_eq!(Payload::Ping.type_byte(), 0x00);
        assert_eq!(Payload::Query(Query::keywords("x")).type_byte(), 0x80);
        let qh = Payload::QueryHit(QueryHit {
            port: 6346,
            addr: Ipv4Addr::new(24, 1, 2, 3),
            speed: 64,
            results: vec![],
            servent: Guid([0; 16]),
        });
        assert_eq!(qh.type_byte(), 0x81);
    }
}
