//! Overall trace characteristics — the Table 1 reproduction.

use crate::store::{MsgKind, Trace};
use serde::{Deserialize, Serialize};

/// Counters matching Table 1 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of QUERY messages received.
    pub query_messages: u64,
    /// Number of QUERYHIT messages received.
    pub queryhit_messages: u64,
    /// Number of PING messages received.
    pub ping_messages: u64,
    /// Number of PONG messages received.
    pub pong_messages: u64,
    /// Number of direct connections (unique connected sessions).
    pub direct_connections: u64,
    /// QUERY messages with hop count = 1.
    pub hop1_queries: u64,
    /// Connections whose handshake declared ultrapeer mode.
    pub ultrapeer_connections: u64,
    /// Trace span in whole days (rounded up).
    pub trace_days: u64,
}

impl TraceStats {
    /// Count a trace.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut s = TraceStats {
            direct_connections: trace.connections.len() as u64,
            ..TraceStats::default()
        };
        s.ultrapeer_connections = trace.connections.iter().filter(|c| c.ultrapeer).count() as u64;
        let mut last_ms = 0u64;
        for c in &trace.connections {
            last_ms = last_ms.max(c.end.unwrap_or(c.start).as_millis());
        }
        // Chunk-at-a-time pass: each decoded batch is counted
        // with branch-light per-column loops (a 5-bucket histogram over
        // the kind column, a fused compare-and-sum for hop-1 queries, a
        // max-reduce over the timestamps) instead of a per-row match —
        // the loops autovectorize and each sealed chunk is decoded once.
        let mut kind_counts = [0u64; 5];
        trace.messages.for_each_batch(|b| {
            for &k in &b.kind {
                kind_counts[k as usize] += 1;
            }
            let query = MsgKind::Query as u8;
            s.hop1_queries += b
                .kind
                .iter()
                .zip(&b.hops)
                .map(|(&k, &h)| u64::from(k == query && h == 1))
                .sum::<u64>();
            last_ms = last_ms.max(b.at_ms.iter().copied().max().unwrap_or(0));
        });
        s.ping_messages = kind_counts[MsgKind::Ping as usize];
        s.pong_messages = kind_counts[MsgKind::Pong as usize];
        s.query_messages = kind_counts[MsgKind::Query as usize];
        s.queryhit_messages = kind_counts[MsgKind::QueryHit as usize];
        s.trace_days = last_ms.div_ceil(24 * 3600 * 1000);
        s
    }

    /// Fraction of connections in ultrapeer mode (paper: ≈40 %).
    pub fn ultrapeer_fraction(&self) -> f64 {
        if self.direct_connections == 0 {
            0.0
        } else {
            self.ultrapeer_connections as f64 / self.direct_connections as f64
        }
    }

    /// Render in the style of Table 1.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Measure                                | Value\n");
        out.push_str("---------------------------------------+------------\n");
        out.push_str(&format!(
            "Trace period (days)                    | {:>10}\n",
            self.trace_days
        ));
        out.push_str(&format!(
            "Number of QUERY messages               | {:>10}\n",
            self.query_messages
        ));
        out.push_str(&format!(
            "Number of QUERYHIT messages            | {:>10}\n",
            self.queryhit_messages
        ));
        out.push_str(&format!(
            "Number of PING messages                | {:>10}\n",
            self.ping_messages
        ));
        out.push_str(&format!(
            "Number of PONG messages                | {:>10}\n",
            self.pong_messages
        ));
        out.push_str(&format!(
            "Number of direct connections           | {:>10}\n",
            self.direct_connections
        ));
        out.push_str(&format!(
            "Query messages with hop count = 1      | {:>10}\n",
            self.hop1_queries
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
    use simnet::SimTime;
    use std::net::Ipv4Addr;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    #[test]
    fn counts_by_kind_and_hops() {
        let mut t = Trace::new();
        t.connections.push(ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "A".into(),
            ultrapeer: true,
            start: SimTime::from_secs(0),
            end: Some(SimTime::from_secs(100)),
            closed_by_probe: false,
        });
        let mk = |payload, hops| MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(10),
            hops,
            ttl: 5,
            payload,
        };
        t.messages.push(mk(
            RecordedPayload::Query {
                text: "a".into(),
                sha1: false,
            },
            1,
        ));
        t.messages.push(mk(
            RecordedPayload::Query {
                text: "b".into(),
                sha1: false,
            },
            4,
        ));
        t.messages.push(mk(RecordedPayload::Ping, 1));
        t.messages.push(mk(
            RecordedPayload::Pong {
                addr: Ipv4Addr::new(82, 0, 0, 1),
                shared_files: 12,
            },
            3,
        ));
        t.messages.push(mk(
            RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(202, 0, 0, 1),
                results: 2,
            },
            5,
        ));
        t.messages.push(mk(RecordedPayload::Bye, 1));

        let s = t.stats();
        assert_eq!(s.query_messages, 2);
        assert_eq!(s.hop1_queries, 1);
        assert_eq!(s.ping_messages, 1);
        assert_eq!(s.pong_messages, 1);
        assert_eq!(s.queryhit_messages, 1);
        assert_eq!(s.direct_connections, 1);
        assert_eq!(s.ultrapeer_connections, 1);
        assert_eq!(s.ultrapeer_fraction(), 1.0);
        assert_eq!(s.trace_days, 1);
        let table = s.render_table();
        assert!(table.contains("QUERY"));
        assert!(table.contains("direct connections"));
    }

    #[test]
    fn empty_trace() {
        let s = Trace::new().stats();
        assert_eq!(s.direct_connections, 0);
        assert_eq!(s.ultrapeer_fraction(), 0.0);
        assert_eq!(s.trace_days, 0);
    }
}
