//! Trace record types.
//!
//! The measurement peer logs two kinds of records: one per direct
//! connection (the paper's "connected session", §3.2) and one per received
//! Gnutella message. Only the fields the analysis needs are retained —
//! the same reduction the authors' modified mutella performed.

use gnutella::{Guid, QueryId};
use simnet::SimTime;
use std::net::Ipv4Addr;

/// Identifier of a connected session (dense index into the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// One direct (one-hop) connection to the measurement peer.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl ConnectionRecord {}

/// One observed query from a one-hop peer: the fields of a hop-1 QUERY
/// record that the §3.3 filter rules read.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        /// Interned query string.
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

impl RecordedPayload {}

/// One received Gnutella message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
