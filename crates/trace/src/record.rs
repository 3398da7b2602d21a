//! Trace record types.
//!
//! The measurement peer logs two kinds of records: one per direct
//! connection (the paper's "connected session", §3.2) and one per received
//! Gnutella message. Only the fields the analysis needs are retained —
//! the same reduction the authors' modified mutella performed.

use gnutella::{Guid, QueryId};
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::net::Ipv4Addr;

/// Identifier of a connected session (dense index into the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u64);

/// One direct (one-hop) connection to the measurement peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionRecord {
    /// Session identifier.
    pub id: SessionId,
    /// Remote address (region resolution happens at analysis time).
    pub addr: Ipv4Addr,
    /// `User-Agent` from the handshake.
    pub user_agent: String,
    /// `X-Ultrapeer` from the handshake.
    pub ultrapeer: bool,
    /// Handshake completion time — the start of the connected session.
    pub start: SimTime,
    /// Connection end (TCP teardown observed, or idle-probe close).
    /// `None` if still open when the trace ended.
    pub end: Option<SimTime>,
    /// True when the session ended via the measurement peer's idle-probe
    /// timeout rather than an observed teardown — such durations
    /// overestimate the true session end by ≈30 s (§3.2).
    pub closed_by_probe: bool,
}

impl ConnectionRecord {
    /// Connected session duration, if the session has ended.
    pub fn duration(&self) -> Option<simnet::SimDuration> {
        self.end.map(|e| e.since(self.start))
    }
}

/// One observed query from a one-hop peer: the fields of a hop-1 QUERY
/// record that the §3.3 filter rules read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryObs {
    /// Arrival time at the measurement peer.
    pub at: SimTime,
    /// Interned query text.
    pub text: QueryId,
    /// Whether the message carried a SHA1 extension.
    pub sha1: bool,
}

/// Payload-specific fields of a recorded message.
///
/// All variants hold `Copy` scalars (query text travels as an interned
/// [`QueryId`]), so whole records copy for free — the column store
/// reconstructs them on demand from its typed columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordedPayload {
    /// PING keepalive.
    Ping,
    /// PONG: advertised peer address and shared-file count (Figures 1–2).
    Pong {
        /// Advertised peer address.
        addr: Ipv4Addr,
        /// Number of shared files advertised.
        shared_files: u32,
    },
    /// QUERY: keyword text and whether a SHA1 extension was present.
    Query {
        /// Interned query string (serializes as the raw text, so the
        /// on-disk JSONL format is unchanged).
        text: QueryId,
        /// True if the message carried a `urn:sha1:` extension.
        sha1: bool,
    },
    /// QUERYHIT: responder address and result count (Figure 1 "all peers").
    QueryHit {
        /// Responder address.
        addr: Ipv4Addr,
        /// Number of results carried.
        results: u8,
    },
    /// BYE (rare in practice).
    Bye,
}

impl RecordedPayload {
    /// Message kind label as used in Table 1.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordedPayload::Ping => "PING",
            RecordedPayload::Pong { .. } => "PONG",
            RecordedPayload::Query { .. } => "QUERY",
            RecordedPayload::QueryHit { .. } => "QUERYHIT",
            RecordedPayload::Bye => "BYE",
        }
    }
}

/// One received Gnutella message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// The connected session the message arrived on.
    pub session: SessionId,
    /// Message GUID — links QUERYHIT responses back to the QUERY they
    /// answer (reverse routing reuses the query's GUID), enabling the
    /// hit-rate characterization the paper lists as future work.
    pub guid: Guid,
    /// Arrival time.
    pub at: SimTime,
    /// Hops count as received (`hops == 1` identifies messages generated by
    /// the directly connected peer, §3.2).
    pub hops: u8,
    /// Remaining TTL as received.
    pub ttl: u8,
    /// Payload fields.
    pub payload: RecordedPayload,
}

impl MessageRecord {
    /// True for QUERY messages generated by the directly connected peer.
    pub fn is_one_hop_query(&self) -> bool {
        self.hops == 1 && matches!(self.payload, RecordedPayload::Query { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    #[test]
    fn duration_requires_end() {
        let mut c = ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "Mutella/0.4.5".into(),
            ultrapeer: false,
            start: SimTime::from_secs(100),
            end: None,
            closed_by_probe: false,
        };
        assert_eq!(c.duration(), None);
        c.end = Some(SimTime::from_secs(190));
        assert_eq!(c.duration(), Some(SimDuration::from_secs(90)));
    }

    #[test]
    fn one_hop_query_detection() {
        let q = MessageRecord {
            session: SessionId(1),
            guid: test_guid(),
            at: SimTime::from_secs(5),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: "x".into(),
                sha1: false,
            },
        };
        assert!(q.is_one_hop_query());
        let far = MessageRecord { hops: 3, ..q };
        assert!(!far.is_one_hop_query());
        let ping = MessageRecord {
            payload: RecordedPayload::Ping,
            ..q
        };
        assert!(!ping.is_one_hop_query());
    }

    #[test]
    fn kinds() {
        assert_eq!(RecordedPayload::Ping.kind(), "PING");
        assert_eq!(
            RecordedPayload::Pong {
                addr: Ipv4Addr::UNSPECIFIED,
                shared_files: 3
            }
            .kind(),
            "PONG"
        );
        assert_eq!(RecordedPayload::Bye.kind(), "BYE");
    }

    #[test]
    fn serde_round_trip() {
        let m = MessageRecord {
            session: SessionId(9),
            guid: test_guid(),
            at: SimTime::from_millis(1234),
            hops: 2,
            ttl: 5,
            payload: RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(82, 1, 2, 3),
                results: 4,
            },
        };
        let j = serde_json::to_string(&m).unwrap();
        let back: MessageRecord = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }
}
