//! Gnutella 0.6 protocol substrate.
//!
//! The paper's measurement node is a modified `mutella` ultrapeer in the
//! live Gnutella network (§3.1). This crate implements the protocol layer
//! that simulation runs on:
//!
//! * [`message`] — the four Gnutella message types the paper counts
//!   (PING, PONG, QUERY, QUERYHIT) plus BYE, with GUIDs, TTL and hops;
//! * [`wire`] — the binary wire codec (23-byte header + payload), so
//!   messages can round-trip through real byte buffers;
//! * `handshake` — the `GNUTELLA CONNECT/0.6` header exchange, including
//!   the `User-Agent` header the paper uses to attribute client-software
//!   anomalies (§3.3);
//! * `routing` — the GUID routing table with the 10-minute expiry the
//!   specification prescribes, used for duplicate suppression and reverse
//!   routing of QUERYHITs;
//! * `query` — query-identity semantics ("queries are identical if they
//!   contain the same set of keywords", §3.2);
//! * [`symbols`] — the interned query symbol table: every distinct query
//!   string is stored once and handled as a `Copy` [`QueryId`] on the hot
//!   generate → relay → record path;
//! * [`peerlink`] — connection liveness per §3.2: 15 s idle ⇒ probe PING,
//!   15 s more silence ⇒ close.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod guid;
pub(crate) mod handshake;
pub mod message;
pub mod net;
pub mod peerlink;
pub(crate) mod query;
pub(crate) mod routing;
pub mod symbols;
pub mod wire;

pub use guid::Guid;
pub use handshake::{Handshake, HandshakeResponse};
pub use query::QueryKey;
pub use routing::RoutingTable;
pub use symbols::QueryId;
pub use wire::encoded_len;
