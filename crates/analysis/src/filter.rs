//! The §3.3 data-filtering rules.
//!
//! Applied in the paper's order:
//!
//! 1. drop QUERYs with a SHA1 extension and empty keywords (automated
//!    source searches);
//! 2. drop QUERYs repeating a keyword set already issued in the same
//!    session (automated result refreshing);
//! 3. drop entire sessions shorter than 64 s (system-level quick
//!    disconnects);
//! 4. flag QUERYs arriving less than 1 s after the previous one;
//! 5. flag subsequent QUERYs with identical interarrival times.
//!
//! Rules 4 and 5 *flag* rather than drop: the affected queries carry real
//! user interest (they re-send searches issued before connecting) and so
//! count toward query popularity and, in the Figure 6(c) variant, the
//! number of queries per session — but their arrival times are
//! system-determined, so they are excluded from the interarrival-time
//! measure (§3.3).

use geoip::{GeoDb, Region};
use gnutella::QueryId;
use simnet::SimTime;
use trace::{ConnectionRecord, QueryObs};

/// Table 2: queries/sessions removed by each rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterReport {
    /// Raw connected sessions (with an observed end).
    pub raw_sessions: u64,
    /// Sessions still open at trace end (excluded from analysis).
    pub unfinished_sessions: u64,
    /// Raw hop-1 QUERY messages.
    pub raw_queries: u64,
    /// Rule 1 removals (SHA1 + empty keywords).
    pub rule1_removed: u64,
    /// Rule 2 removals (repeated keyword set within session).
    pub rule2_removed: u64,
    /// Sessions discarded by rule 3 (< 64 s).
    pub rule3_sessions_removed: u64,
    /// Queries discarded with their rule-3 sessions.
    pub rule3_queries_removed: u64,
    /// Sessions surviving rules 1–3.
    pub final_sessions: u64,
    /// Queries surviving rules 1–3 (including rule-4/5-flagged ones).
    pub final_queries: u64,
    /// Rule 4 flags (interarrival < 1 s).
    pub rule4_flagged: u64,
    /// Rule 5 flags (identical successive interarrival).
    pub rule5_flagged: u64,
    /// Queries usable for the interarrival measure.
    pub interarrival_queries: u64,
}

impl FilterReport {
    /// Absorb another report's counters (shard merge). Every field is a
    /// plain event count, so summing per-shard reports is exactly the
    /// report a single filter pass over the union would produce.
    pub(crate) fn merge(&mut self, other: &FilterReport) {
        self.raw_sessions += other.raw_sessions;
        self.unfinished_sessions += other.unfinished_sessions;
        self.raw_queries += other.raw_queries;
        self.rule1_removed += other.rule1_removed;
        self.rule2_removed += other.rule2_removed;
        self.rule3_sessions_removed += other.rule3_sessions_removed;
        self.rule3_queries_removed += other.rule3_queries_removed;
        self.final_sessions += other.final_sessions;
        self.final_queries += other.final_queries;
        self.rule4_flagged += other.rule4_flagged;
        self.rule5_flagged += other.rule5_flagged;
        self.interarrival_queries += other.interarrival_queries;
    }

    /// Render in the style of Table 2.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<72} | {:>9} | {:>9}\n",
            "Rule", "# Queries", "# Sessions"
        ));
        out.push_str(&format!("{:-<72}-+-----------+-----------\n", ""));
        out.push_str(&format!(
            "{:<72} | {:>9} | {:>9}\n",
            "Sessions and query messages from 1-hop neighbors", self.raw_queries, self.raw_sessions
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} |\n",
            "1  Ignore query messages with empty keywords and SHA1 extension", self.rule1_removed
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} |\n",
            "2  Ignore identical query string issued by the same peer within session",
            self.rule2_removed
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} | {:>9}\n",
            "3  Discard sessions with session length of less than 64 seconds",
            self.rule3_queries_removed,
            self.rule3_sessions_removed
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} | {:>9}\n",
            "Final number of QUERY messages and sessions considered",
            self.final_queries,
            self.final_sessions
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} |\n",
            "4  Ignore query messages with query interarrival time below 1 second",
            self.rule4_flagged
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} |\n",
            "5  Ignore subsequent query messages with identical interarrival times",
            self.rule5_flagged
        ));
        out.push_str(&format!(
            "{:<72} | {:>9} |\n",
            "Final number of QUERY messages considered in interarrival time measure",
            self.interarrival_queries
        ));
        out
    }
}

/// One query surviving rules 1–3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FilteredQuery {
    /// Arrival time.
    pub(crate) at: SimTime,
    /// Canonical keyword set (interned).
    pub(crate) key: QueryId,
    /// Flagged by rule 4 or 5 (excluded from interarrival and, in the
    /// main analysis, from the per-session query count).
    pub(crate) flagged45: bool,
}

/// One session surviving rule 3, with region resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredSession {
    /// Region of the peer (GeoIP of the connection address).
    pub region: Region,
    /// Ultrapeer-mode connection.
    pub(crate) ultrapeer: bool,
    /// Client `User-Agent`.
    pub(crate) user_agent: String,
    /// Session start.
    pub(crate) start: SimTime,
    /// Session end.
    pub(crate) end: SimTime,
    /// Queries surviving rules 1–2 (with rule-4/5 flags).
    pub(crate) queries: Vec<FilteredQuery>,
}

impl FilteredSession {
    /// Session duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }

    /// Measurement-local hour of the session start.
    pub fn start_hour(&self) -> u32 {
        self.start.hour_of_day()
    }

    /// Day index of the session start.
    pub(crate) fn start_day(&self) -> u64 {
        self.start.day()
    }

    /// Number of queries in the main analysis (rules 1–5 applied).
    pub fn n_queries(&self) -> u32 {
        self.queries.iter().filter(|q| !q.flagged45).count() as u32
    }

    /// Number of queries with rules 4/5 *not* applied (Figure 6(c)).
    pub(crate) fn n_queries_unflagged45(&self) -> u32 {
        self.queries.len() as u32
    }

    /// Passive under the main analysis (no unflagged queries).
    pub fn is_passive(&self) -> bool {
        self.n_queries() == 0
    }

    /// Times of the unflagged queries.
    fn main_query_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.queries.iter().filter(|q| !q.flagged45).map(|q| q.at)
    }

    /// Seconds from session start to the first (unflagged) query.
    pub fn time_to_first_query(&self) -> Option<f64> {
        self.main_query_times()
            .next()
            .map(|t| t.since(self.start).as_secs_f64())
    }

    /// Seconds from the last (unflagged) query to session end.
    pub(crate) fn time_after_last_query(&self) -> Option<f64> {
        self.main_query_times()
            .last()
            .map(|t| self.end.since(t).as_secs_f64())
    }

    /// Hour of day at which the last (unflagged) query was sent.
    pub(crate) fn last_query_hour(&self) -> Option<u32> {
        self.main_query_times().last().map(|t| t.hour_of_day())
    }

    /// Interarrival samples (seconds) between consecutive unflagged
    /// queries — the §3.3 interarrival measure.
    pub fn interarrival_samples(&self) -> Vec<f64> {
        let times: Vec<SimTime> = self.main_query_times().collect();
        times
            .windows(2)
            .map(|w| w[1].since(w[0]).as_secs_f64())
            .collect()
    }
}

/// The filtered trace: surviving sessions plus the Table 2 accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredTrace {
    /// Sessions surviving rule 3, in start order.
    pub sessions: Vec<FilteredSession>,
    /// The Table 2 report.
    pub report: FilterReport,
}

/// Minimum session duration (rule 3).
pub(crate) const MIN_SESSION_SECS: f64 = 64.0;
/// Rule 4 threshold (milliseconds).
pub(crate) const RULE4_THRESHOLD_MS: u64 = 1_000;
/// Correction subtracted from probe-closed session ends (milliseconds).
///
/// §3.2: when a peer vanishes silently, the measurement node probes after
/// 15 s of silence and closes 15 s later, overestimating the session end
/// by ≈30 s. The paper notes the bias and lives with it; our collector
/// records `closed_by_probe`, so the filter can undo the known idle-probe
/// delay. Without this correction, silent sessions whose true duration is
/// 90–120 s pile up just past the 2-minute body/tail split and visibly
/// distort the Table A.1 tail fit.
pub(crate) const PROBE_CLOSE_CORRECTION_MS: u64 = 30_000;

/// Run rules 1–5 on one *completed* session that ended at `end`,
/// updating the Table 2 accounting in `report`. Returns the surviving
/// [`FilteredSession`], or `None` when rule 3 discards the session.
///
/// The per-session filter logic of the one analysis path: the
/// pipeline's close path (`analysis::streaming`) is its only caller,
/// for live and retained traces alike.
pub(crate) fn filter_completed_session(
    db: &GeoDb,
    report: &mut FilterReport,
    conn: &ConnectionRecord,
    end: SimTime,
    queries: &[QueryObs],
) -> Option<FilteredSession> {
    let start = conn.start;
    // Undo the known idle-probe overestimate for silently-vanished
    // peers (see [`PROBE_CLOSE_CORRECTION_MS`]). The corrected end
    // never precedes the last received message: the probe fires only
    // after 15 s + 15 s of silence.
    let end = if conn.closed_by_probe {
        SimTime::from_millis(
            end.as_millis()
                .saturating_sub(PROBE_CLOSE_CORRECTION_MS)
                .max(start.as_millis()),
        )
    } else {
        end
    };
    report.raw_sessions += 1;
    report.raw_queries += queries.len() as u64;

    // Rules 1 and 2 (per-session, in arrival order).
    let mut kept: Vec<FilteredQuery> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for q in queries {
        // Canonical keyword-set id, precomputed at intern time — no
        // per-query normalization or allocation here.
        let key = q.text.canonical();
        // Rule 1: SHA1 extension with empty keywords.
        if q.sha1 && key.is_empty() {
            report.rule1_removed += 1;
            continue;
        }
        // Rule 2: keyword set already issued in this session.
        if !seen.insert(key) {
            report.rule2_removed += 1;
            continue;
        }
        kept.push(FilteredQuery {
            at: q.at,
            key,
            flagged45: false,
        });
    }

    // Rule 3: session length below 64 s.
    let duration = end.since(start).as_secs_f64();
    if duration < MIN_SESSION_SECS {
        report.rule3_sessions_removed += 1;
        report.rule3_queries_removed += kept.len() as u64;
        return None;
    }

    // Rules 4 and 5: flag system-timed arrivals. Rule 5 compares
    // interarrival times at 1-second resolution: client re-query
    // timers tick in whole seconds while network jitter perturbs
    // arrival times by milliseconds, so exact-millisecond equality
    // would never fire on a real (or realistically simulated) link.
    // The comparison window covers the last few gaps, not only the
    // immediately preceding one — a fixed-interval re-query train
    // resumes its signature interval after a user query interleaves,
    // and a single-gap memory would miss the resumption.
    const RULE5_WINDOW: usize = 3;
    let mut recent_gaps: Vec<u64> = Vec::with_capacity(RULE5_WINDOW);
    for i in 1..kept.len() {
        let gap_ms = kept[i].at.since(kept[i - 1].at).as_millis();
        let gap_s = (gap_ms + 500) / 1_000; // nearest second
        if gap_ms < RULE4_THRESHOLD_MS {
            // A sub-second gap marks BOTH endpoints as automated: the
            // chain is one re-query burst, and its first message is no
            // more user-timed than the rest.
            if !kept[i - 1].flagged45 {
                kept[i - 1].flagged45 = true;
                report.rule4_flagged += 1;
            }
            kept[i].flagged45 = true;
            report.rule4_flagged += 1;
        } else if gap_s > 1 && recent_gaps.contains(&gap_s) {
            kept[i].flagged45 = true;
            report.rule5_flagged += 1;
        }
        if recent_gaps.len() == RULE5_WINDOW {
            recent_gaps.remove(0);
        }
        recent_gaps.push(gap_s);
    }

    report.final_sessions += 1;
    report.final_queries += kept.len() as u64;
    report.interarrival_queries += kept.iter().filter(|q| !q.flagged45).count() as u64;

    Some(FilteredSession {
        region: db.lookup(conn.addr),
        ultrapeer: conn.ultrapeer,
        user_agent: conn.user_agent.clone(),
        start,
        end,
        queries: kept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::analyze_retained;
    use std::net::Ipv4Addr;
    use trace::{MessageRecord, RecordedPayload, SessionId, Trace};

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn base_trace() -> Trace {
        Trace::default()
    }

    fn add_session(
        t: &mut Trace,
        start_s: u64,
        dur_s: u64,
        queries: &[(u64, &str, bool)], // (offset s, text, sha1)
    ) -> SessionId {
        let id = SessionId(t.connections.len() as u64);
        t.connections.push(ConnectionRecord {
            id,
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(start_s),
            end: Some(SimTime::from_secs(start_s + dur_s)),
            closed_by_probe: false,
        });
        for &(off, text, sha1) in queries {
            t.messages.extend([MessageRecord {
                session: id,
                guid: test_guid(),
                at: SimTime::from_secs(start_s + off),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Query {
                    text: text.into(),
                    sha1,
                },
            }]);
        }
        id
    }

    fn run(t: &Trace) -> FilteredTrace {
        analyze_retained(t, &GeoDb::synthetic()).ft
    }

    #[test]
    fn rule1_drops_sha1_empty_keyword_queries() {
        let mut t = base_trace();
        add_session(&mut t, 0, 300, &[(10, "", true), (20, "real query", false)]);
        let f = run(&t);
        assert_eq!(f.report.rule1_removed, 1);
        assert_eq!(f.sessions[0].queries.len(), 1);
        assert_eq!(f.sessions[0].queries[0].key.resolve(), "query real");
        // SHA1 *with* keywords is NOT removed by rule 1.
        let mut t2 = base_trace();
        add_session(&mut t2, 0, 300, &[(10, "some file", true)]);
        let f2 = run(&t2);
        assert_eq!(f2.report.rule1_removed, 0);
    }

    #[test]
    fn rule2_drops_repeated_keyword_sets() {
        let mut t = base_trace();
        add_session(
            &mut t,
            0,
            300,
            &[
                (10, "pink floyd", false),
                (40, "FLOYD pink", false), // same keyword set
                (70, "pink floyd wall", false),
                (90, "pink floyd", false),
            ],
        );
        let f = run(&t);
        assert_eq!(f.report.rule2_removed, 2);
        assert_eq!(f.sessions[0].queries.len(), 2);
    }

    #[test]
    fn rule2_is_per_session() {
        let mut t = base_trace();
        add_session(&mut t, 0, 300, &[(10, "same query", false)]);
        add_session(&mut t, 1000, 300, &[(10, "same query", false)]);
        let f = run(&t);
        assert_eq!(f.report.rule2_removed, 0);
        assert_eq!(f.sessions.len(), 2);
    }

    #[test]
    fn rule3_discards_short_sessions_and_their_queries() {
        let mut t = base_trace();
        add_session(&mut t, 0, 63, &[(5, "gone", false)]);
        add_session(&mut t, 100, 64, &[(5, "kept", false)]);
        let f = run(&t);
        assert_eq!(f.report.rule3_sessions_removed, 1);
        assert_eq!(f.report.rule3_queries_removed, 1);
        assert_eq!(f.report.final_sessions, 1);
        assert_eq!(f.sessions.len(), 1);
        assert_eq!(f.sessions[0].queries[0].key.resolve(), "kept");
    }

    #[test]
    fn rule4_flags_subsecond_interarrivals() {
        let mut t = base_trace();
        let id = SessionId(0);
        t.connections.push(ConnectionRecord {
            id,
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(0),
            end: Some(SimTime::from_secs(300)),
            closed_by_probe: false,
        });
        // Queries at 10.0 s, 10.4 s, 10.8 s, 30.0 s.
        for (ms, text) in [
            (10_000u64, "a one"),
            (10_400, "b two"),
            (10_800, "c three"),
            (30_000, "d four"),
        ] {
            t.messages.extend([MessageRecord {
                session: id,
                guid: test_guid(),
                at: SimTime::from_millis(ms),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Query {
                    text: text.into(),
                    sha1: false,
                },
            }]);
        }
        let f = run(&t);
        // Both endpoints of each sub-second gap are flagged: the whole
        // chain (10.0, 10.4, 10.8) is one automated burst.
        assert_eq!(f.report.rule4_flagged, 3);
        let s = &f.sessions[0];
        assert_eq!(s.n_queries(), 1); // only the 30 s query is user-timed
        assert_eq!(s.n_queries_unflagged45(), 4);
        assert!(s.interarrival_samples().is_empty());
    }

    #[test]
    fn rule5_flags_identical_interarrivals() {
        let mut t = base_trace();
        add_session(
            &mut t,
            0,
            300,
            &[
                (10, "q one", false),
                (20, "q two", false),   // gap 10
                (30, "q three", false), // gap 10 again → flagged
                (40, "q four", false),  // gap 10 again → flagged
                (57, "q five", false),  // gap 17 → kept
            ],
        );
        let f = run(&t);
        assert_eq!(f.report.rule5_flagged, 2);
        assert_eq!(f.sessions[0].n_queries(), 3);
    }

    #[test]
    fn passive_classification_and_measures() {
        let mut t = base_trace();
        add_session(&mut t, 0, 500, &[]);
        add_session(
            &mut t,
            1000,
            500,
            &[(100, "x y", false), (200, "y z", false)],
        );
        let f = run(&t);
        assert!(f.sessions[0].is_passive());
        assert!(!f.sessions[1].is_passive());
        let s = &f.sessions[1];
        assert_eq!(s.time_to_first_query(), Some(100.0));
        assert_eq!(s.time_after_last_query(), Some(300.0));
        assert_eq!(s.interarrival_samples(), vec![100.0]);
        assert_eq!(s.duration_secs(), 500.0);
    }

    #[test]
    fn unfinished_sessions_excluded() {
        let mut t = base_trace();
        let id = SessionId(0);
        t.connections.push(ConnectionRecord {
            id,
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(0),
            end: None,
            closed_by_probe: false,
        });
        let f = run(&t);
        assert_eq!(f.report.unfinished_sessions, 1);
        assert_eq!(f.report.raw_sessions, 0);
        assert!(f.sessions.is_empty());
    }

    #[test]
    fn region_resolution() {
        let mut t = base_trace();
        add_session(&mut t, 0, 300, &[]);
        t.connections[0].addr = Ipv4Addr::new(82, 1, 2, 3); // RIPE block
        let f = run(&t);
        assert_eq!(f.sessions[0].region, Region::Europe);
    }

    #[test]
    fn report_renders() {
        let mut t = base_trace();
        add_session(&mut t, 0, 300, &[(10, "a b", false)]);
        let f = run(&t);
        let table = f.report.render_table();
        assert!(table.contains("SHA1"));
        assert!(table.contains("64 seconds"));
        // Table 2 consistency: raw = removed(1..3) + final.
        let r = f.report;
        assert_eq!(
            r.raw_queries,
            r.rule1_removed + r.rule2_removed + r.rule3_queries_removed + r.final_queries
        );
        assert_eq!(
            r.final_queries,
            r.rule4_flagged + r.rule5_flagged + r.interarrival_queries
        );
    }

    #[test]
    fn simulated_population_filter_recovers_ground_truth() {
        // End-to-end: generate a small population and verify the filters
        // recover approximately the injected user-query volume.
        let trace = behavior::run_population(&behavior::PopulationConfig::smoke());
        let f = run(&trace);
        let r = f.report;
        // All rules fire on a realistic population.
        assert!(r.rule1_removed > 0, "rule 1 should fire");
        assert!(r.rule2_removed > 0, "rule 2 should fire");
        assert!(r.rule3_sessions_removed > 0, "rule 3 should fire");
        assert!(r.rule4_flagged > 0, "rule 4 should fire");
        assert!(r.rule5_flagged > 0, "rule 5 should fire");
        // ~70 % of sessions are removed by rule 3 (the quick disconnects).
        let frac3 = r.rule3_sessions_removed as f64 / r.raw_sessions as f64;
        assert!(
            (0.6..0.8).contains(&frac3),
            "rule-3 session fraction {frac3}"
        );
    }
}
