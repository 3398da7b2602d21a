//! Overall trace characteristics — the Table 1 reproduction.

use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use crate::sink::TraceSink;
use simnet::SimTime;

/// Counters matching Table 1 of the paper.
///
/// A fold over the collector's record stream: register a default value
/// as a [`TraceSink`]. It keeps nothing but these counters, and every
/// field is final once the campaign has delivered its last event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Trace span in whole days (rounded up) up to the last connect,
    /// close or message seen.
    pub(crate) trace_days: u64,
}

impl TraceStats {
    /// Extend the trace span to cover `at`.
    fn saw(&mut self, at: SimTime) {
        let days = at.as_millis().div_ceil(24 * 3600 * 1000);
        self.trace_days = self.trace_days.max(days);
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

impl TraceSink for TraceStats {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        self.direct_connections += 1;
        self.ultrapeer_connections += u64::from(rec.ultrapeer);
        self.saw(rec.start);
    }

    fn on_batch(&mut self, records: &[MessageRecord], _wire_lens: &[u32]) {
        for m in records {
            match m.payload {
                RecordedPayload::Query { .. } => {
                    self.query_messages += 1;
                    self.hop1_queries += u64::from(m.hops == 1);
                }
                RecordedPayload::QueryHit { .. } => self.queryhit_messages += 1,
                RecordedPayload::Ping => self.ping_messages += 1,
                RecordedPayload::Pong { .. } => self.pong_messages += 1,
                RecordedPayload::Bye => {}
            }
        }
        if let Some(last) = records.iter().map(|m| m.at).max() {
            self.saw(last);
        }
    }

    fn on_close(&mut self, _id: SessionId, end: SimTime, _by_probe: bool) {
        self.saw(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    #[test]
    fn counts_by_kind_and_hops() {
        let mut s = TraceStats::default();
        s.on_connect(ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "A".into(),
            ultrapeer: true,
            start: SimTime::from_secs(0),
            end: None,
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
        let records = [
            mk(
                RecordedPayload::Query {
                    text: "a".into(),
                    sha1: false,
                },
                1,
            ),
            mk(
                RecordedPayload::Query {
                    text: "b".into(),
                    sha1: false,
                },
                4,
            ),
            mk(RecordedPayload::Ping, 1),
            mk(
                RecordedPayload::Pong {
                    addr: Ipv4Addr::new(82, 0, 0, 1),
                    shared_files: 12,
                },
                3,
            ),
            mk(
                RecordedPayload::QueryHit {
                    addr: Ipv4Addr::new(202, 0, 0, 1),
                    results: 2,
                },
                5,
            ),
            mk(RecordedPayload::Bye, 1),
        ];
        s.on_batch(&records, &[0; 6]);
        s.on_close(SessionId(0), SimTime::from_secs(100), false);

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
        let s = TraceStats::default();
        assert_eq!(s.direct_connections, 0);
        assert_eq!(s.ultrapeer_fraction(), 0.0);
        assert_eq!(s.trace_days, 0);
    }
}
