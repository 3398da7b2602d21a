//! Query hit-rate characterization — the paper's §5 future work.
//!
//! > "Future work includes characterizing the query hit rate of the
//! > peers, including the correlation of hit rate with other measures."
//!
//! QUERYHIT responses are reverse-routed with the GUID of the QUERY they
//! answer (§3.1), so the measurement peer can attribute every hit it
//! relays to the one-hop query that caused it. This module implements the
//! characterization the authors deferred:
//!
//! * per-region hit rates (fraction of one-hop queries receiving ≥ 1 hit);
//! * the distribution of hits per query;
//! * the correlation between a session's query count and its hit rate.
//!
//! Hits observed here are a *lower bound* on the network-wide response: the
//! measurement peer only sees hits that travel back through it.
//!
//! [`HitRateFold`] is a [`trace::TraceSink`]: it attributes hits as the
//! campaign records them.

use geoip::{GeoDb, Region};
use gnutella::Guid;
use simnet::SimTime;
use stats::correlation::spearman;
use stats::{Ecdf, Series};
use std::collections::{BTreeMap, HashMap};
use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId, TraceSink};

/// Hit statistics for one peer class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HitRateStats {
    /// One-hop queries considered.
    pub queries: u64,
    /// Queries that received at least one hit.
    pub answered: u64,
    /// QUERYHIT messages attributed to those queries.
    pub hit_messages: u64,
    /// Result records carried by those hits.
    pub(crate) results: u64,
}

impl HitRateStats {
    /// Fraction of queries answered.
    pub fn answer_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.answered as f64 / self.queries as f64
        }
    }

    /// Mean hit messages per query.
    pub fn hits_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hit_messages as f64 / self.queries as f64
        }
    }
}

/// The full hit-rate analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct HitRateAnalysis {
    /// Per-region statistics (indexed by [`Region::index`]).
    pub per_region: [HitRateStats; 4],
    /// Pooled statistics.
    pub overall: HitRateStats,
    /// CCDF of hit messages per query: `(x = hits, y = P[hits > x])`.
    pub hits_ccdf: Option<Series>,
    /// Spearman correlation between a session's query count and its
    /// answered fraction (sessions with ≥ 1 query). `None` with too few
    /// active sessions.
    pub rate_vs_query_count: Option<f64>,
}

/// Folds a campaign's record stream into the hit-rate analysis.
///
/// State is keyed on hop-1 query GUIDs only. A QUERYHIT counts toward
/// the hop-1 queries with its GUID that were recorded before it,
/// whenever it arrives, also after the querying session closed. A hit
/// answers a query that was already routed, so it follows that query:
/// in the simulated campaigns no hit precedes its query and every hop-1
/// GUID is unique, so the fold attributes every hit exactly as a pass
/// over the whole trace would.
pub struct HitRateFold {
    db: GeoDb,
    /// Region of each session, indexed by session id.
    regions: Vec<Region>,
    /// Hit messages and result records per hop-1 query GUID.
    hits: HashMap<Guid, (u64, u64)>,
    /// The hop-1 queries in arrival order.
    queries: Vec<(SessionId, Region, Guid)>,
}

impl HitRateFold {
    /// An empty fold resolving regions with `db`.
    pub fn new(db: GeoDb) -> HitRateFold {
        HitRateFold {
            db,
            regions: Vec::new(),
            hits: HashMap::new(),
            queries: Vec::new(),
        }
    }

    /// Characterize the attributed hits.
    pub fn finish(self) -> HitRateAnalysis {
        let mut per_region = [HitRateStats::default(); 4];
        let mut overall = HitRateStats::default();
        let mut hit_counts: Vec<f64> = Vec::with_capacity(self.queries.len());
        // Per session: (queries, answered).
        let mut per_session: BTreeMap<SessionId, (u64, u64)> = BTreeMap::new();

        for (session, region, guid) in &self.queries {
            let (h, r) = self.hits[guid];
            for stats in [&mut per_region[region.index()], &mut overall] {
                stats.queries += 1;
                stats.hit_messages += h;
                stats.results += r;
                if h > 0 {
                    stats.answered += 1;
                }
            }
            hit_counts.push(h as f64);
            let s = per_session.entry(*session).or_insert((0, 0));
            s.0 += 1;
            if h > 0 {
                s.1 += 1;
            }
        }

        let hits_ccdf = Ecdf::new(hit_counts).ok().map(|e| e.ccdf_series_exact());

        // Correlation: session query count vs answered fraction.
        let (xs, ys): (Vec<f64>, Vec<f64>) = per_session
            .values()
            .map(|&(q, a)| (q as f64, a as f64 / q as f64))
            .unzip();
        let rate_vs_query_count = if xs.len() >= 30 {
            spearman(&xs, &ys).ok()
        } else {
            None
        };

        HitRateAnalysis {
            per_region,
            overall,
            hits_ccdf,
            rate_vs_query_count,
        }
    }
}

impl TraceSink for HitRateFold {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        debug_assert_eq!(rec.id.0 as usize, self.regions.len());
        self.regions.push(self.db.lookup(rec.addr));
    }

    fn on_batch(&mut self, records: &[MessageRecord], _wire_lens: &[u32]) {
        for m in records {
            match m.payload {
                RecordedPayload::Query { .. } if m.hops == 1 => {
                    let region = self
                        .regions
                        .get(m.session.0 as usize)
                        .copied()
                        .unwrap_or(Region::Other);
                    self.queries.push((m.session, region, m.guid));
                    self.hits.entry(m.guid).or_insert((0, 0));
                }
                RecordedPayload::QueryHit { results, .. } => {
                    if let Some(e) = self.hits.get_mut(&m.guid) {
                        e.0 += 1;
                        e.1 += u64::from(results);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_close(&mut self, _id: SessionId, _end: SimTime, _by_probe: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn guid(n: u8) -> Guid {
        Guid([n; 16])
    }

    fn query(sid: u64, g: u8, at: u64) -> MessageRecord {
        MessageRecord {
            session: SessionId(sid),
            guid: guid(g),
            at: SimTime::from_secs(at),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: format!("query {g}").into(),
                sha1: false,
            },
        }
    }

    fn hit(sid: u64, g: u8, at: u64, results: u8) -> MessageRecord {
        MessageRecord {
            session: SessionId(sid),
            guid: guid(g),
            at: SimTime::from_secs(at),
            hops: 2,
            ttl: 5,
            payload: RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(66, 1, 2, 3),
                results,
            },
        }
    }

    /// An NA session 0 and an EU session 1, both connected at 0 s.
    fn connected() -> HitRateFold {
        let mut f = HitRateFold::new(GeoDb::synthetic());
        for (i, octet) in [(0u64, 24u8), (1, 82)] {
            f.on_connect(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(octet, 0, 0, 1),
                user_agent: "X".into(),
                ultrapeer: false,
                start: SimTime::from_secs(0),
                end: None,
                closed_by_probe: false,
            });
        }
        f
    }

    fn fold_with_hits() -> HitRateAnalysis {
        let mut f = connected();
        let records = [
            // NA session 0: query 1 gets 2 hits (3 + 1 results); query 2
            // gets none.
            query(0, 1, 10),
            hit(1, 1, 12, 3),
            hit(1, 1, 13, 1),
            query(0, 2, 40),
            // EU session 1: query 3 gets one hit.
            query(1, 3, 20),
            hit(0, 3, 25, 2),
        ];
        f.on_batch(&records, &[0; 6]);
        f.on_close(SessionId(0), SimTime::from_secs(500), false);
        f.on_close(SessionId(1), SimTime::from_secs(500), false);
        f.finish()
    }

    #[test]
    fn attributes_hits_by_guid() {
        let a = fold_with_hits();
        assert_eq!(a.overall.queries, 3);
        assert_eq!(a.overall.answered, 2);
        assert_eq!(a.overall.hit_messages, 3);
        assert_eq!(a.overall.results, 6);
        assert!((a.overall.answer_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.overall.hits_per_query() - 1.0).abs() < 1e-12);

        let na = a.per_region[Region::NorthAmerica.index()];
        assert_eq!(na.queries, 2);
        assert_eq!(na.answered, 1);
        let eu = a.per_region[Region::Europe.index()];
        assert_eq!(eu.queries, 1);
        assert_eq!(eu.answered, 1);
    }

    #[test]
    fn ccdf_reflects_hit_counts() {
        let a = fold_with_hits();
        let ccdf = a.hits_ccdf.unwrap();
        // Hit counts: [2, 0, 1] → P[hits > 0] = 2/3.
        assert!((ccdf.interpolate(0.0).unwrap() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(ccdf.interpolate(2.0), Some(0.0));
    }

    /// A hit relayed back after the querying peer left still answers
    /// its query.
    #[test]
    fn hit_after_close_is_counted() {
        let mut f = connected();
        f.on_batch(&[query(0, 1, 10)], &[0]);
        f.on_close(SessionId(0), SimTime::from_secs(11), false);
        f.on_batch(&[hit(1, 1, 12, 4)], &[0]);
        let a = f.finish();
        assert_eq!(a.overall.queries, 1);
        assert_eq!(a.overall.answered, 1);
        assert_eq!(a.overall.hit_messages, 1);
        assert_eq!(a.overall.results, 4);
    }

    #[test]
    fn empty_trace_is_fine() {
        let a = HitRateFold::new(GeoDb::synthetic()).finish();
        assert_eq!(a.overall.queries, 0);
        assert_eq!(a.overall.answer_rate(), 0.0);
        assert!(a.hits_ccdf.is_none());
        assert!(a.rate_vs_query_count.is_none());
    }
}
