//! One-hop representativeness checks (§3.4, Figures 1 and 2).
//!
//! The paper compares the one-hop peer population against "all peers" —
//! the peers advertised in PONG and QUERYHIT messages flowing through the
//! node — along two axes: geographic mix by hour (Figure 1) and
//! shared-file counts (Figure 2).
//!
//! One implementation choice: the measurement peer also receives hop-1
//! PONGs from its direct neighbors (probe responses); we use hops ≥ 2
//! PONG/QUERYHIT addresses for the "all peers" population so the two
//! curves are independent observations, and hop-1 PONGs for the one-hop
//! shared-files curve.
//!
//! Both figures are tallied by one [`trace::TraceSink`] fold,
//! [`RepresentativenessFold`], while the campaign records.

use geoip::{GeoDb, Region};
use simnet::SimTime;
use stats::histogram::Histogram;
use stats::Series;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId, TraceSink};

/// One Figure 1 panel: one-hop vs all-peers fraction per hour for a region.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoPanel {
    /// Fraction of one-hop peers from the region, by hour.
    pub one_hop: Series,
    /// Fraction of all (remote) peers from the region, by hour.
    pub all_peers: Series,
}

/// Figure 2: fraction of peers advertising each shared-file count
/// (0–100), one-hop vs all peers.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedFilesPanel {
    /// One-hop peers (first hop-1 PONG per connection address).
    pub one_hop: Series,
    /// All peers (hops ≥ 2 PONGs, deduplicated by advertised address).
    pub all_peers: Series,
}

/// Figures 1 and 2, as [`RepresentativenessFold::finish`] returns them.
#[derive(Debug, Clone, PartialEq)]
pub struct Representativeness {
    /// The Figure 1 panels, one per characterized region.
    pub geo: Vec<(Region, GeoPanel)>,
    /// The Figure 2 comparison.
    pub shared_files: SharedFilesPanel,
}

/// Folds a campaign's record stream into the Figure 1 and 2 tallies:
/// connections by (region, hour of start); hops ≥ 2 PONG and QUERYHIT
/// addresses by (region, hour of arrival); and a histogram of the first
/// shared-file count each PONG address advertised, one-hop and remote
/// apart. Only the addresses already counted are kept, not their counts:
/// remote PONGs advertise millions of distinct addresses at the default
/// scale.
pub struct RepresentativenessFold {
    db: GeoDb,
    one_hop: [[u64; 24]; 4],
    all: [[u64; 24]; 4],
    one_hop_seen: HashSet<Ipv4Addr>,
    all_seen: HashSet<Ipv4Addr>,
    one_hop_files: Histogram,
    all_files: Histogram,
}

/// Shared-file counts 0–100, one bin each.
fn files_histogram() -> Histogram {
    Histogram::new(0.0, 101.0, 101).expect("valid histogram")
}

impl RepresentativenessFold {
    /// An empty fold resolving regions with `db`.
    pub fn new(db: GeoDb) -> RepresentativenessFold {
        RepresentativenessFold {
            db,
            one_hop: [[0; 24]; 4],
            all: [[0; 24]; 4],
            one_hop_seen: HashSet::new(),
            all_seen: HashSet::new(),
            one_hop_files: files_histogram(),
            all_files: files_histogram(),
        }
    }

    fn count(table: &mut [[u64; 24]; 4], db: &GeoDb, addr: Ipv4Addr, at: SimTime) {
        table[db.lookup(addr).index()][at.hour_of_day() as usize] += 1;
    }

    /// The Figure 1 and 2 series.
    pub fn finish(self) -> Representativeness {
        let hours: Vec<f64> = (0..24).map(|h| h as f64 + 0.5).collect();
        let fraction = |table: &[[u64; 24]; 4], region: Region| -> Vec<f64> {
            (0..24)
                .map(|h| {
                    let total: u64 = (0..4).map(|r| table[r][h]).sum();
                    if total == 0 {
                        0.0
                    } else {
                        table[region.index()][h] as f64 / total as f64
                    }
                })
                .collect()
        };
        let panel = |r: Region| GeoPanel {
            one_hop: Series::labeled("1-hop Peers", hours.clone(), fraction(&self.one_hop, r)),
            all_peers: Series::labeled("All Peers", hours.clone(), fraction(&self.all, r)),
        };
        let geo = Region::CHARACTERIZED
            .iter()
            .map(|&r| (r, panel(r)))
            .collect();
        let to_series = |h: &Histogram, label: &str| -> Series {
            // Bin centers land on k + 0.5; shift to integer file counts.
            let xs: Vec<f64> = (0..=100).map(f64::from).collect();
            Series::labeled(label, xs, h.fraction_series().ys().to_vec())
        };
        Representativeness {
            geo,
            shared_files: SharedFilesPanel {
                one_hop: to_series(&self.one_hop_files, "1-hop Peers"),
                all_peers: to_series(&self.all_files, "All Peers"),
            },
        }
    }
}

impl TraceSink for RepresentativenessFold {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        Self::count(&mut self.one_hop, &self.db, rec.addr, rec.start);
    }

    fn on_batch(&mut self, records: &[MessageRecord], _wire_lens: &[u32]) {
        for m in records {
            match m.payload {
                RecordedPayload::Pong { addr, shared_files } => {
                    let (seen, files) = if m.hops == 1 {
                        (&mut self.one_hop_seen, &mut self.one_hop_files)
                    } else {
                        (&mut self.all_seen, &mut self.all_files)
                    };
                    if seen.insert(addr) {
                        files.add(f64::from(shared_files.min(200)));
                    }
                    if m.hops >= 2 {
                        Self::count(&mut self.all, &self.db, addr, m.at);
                    }
                }
                RecordedPayload::QueryHit { addr, .. } if m.hops >= 2 => {
                    Self::count(&mut self.all, &self.db, addr, m.at);
                }
                _ => {}
            }
        }
    }

    fn on_close(&mut self, _id: SessionId, _end: SimTime, _by_probe: bool) {}
}

/// Mean absolute difference between one-hop and all-peers fractions — the
/// §3.4 representativeness score (small ⇒ one-hop peers representative).
pub fn geo_divergence(panel: &GeoPanel) -> f64 {
    let n = panel.one_hop.ys().len().min(panel.all_peers.ys().len());
    if n == 0 {
        return 0.0;
    }
    (0..n)
        .map(|i| (panel.one_hop.ys()[i] - panel.all_peers.ys()[i]).abs())
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn fold_with_mix() -> Representativeness {
        let mut f = RepresentativenessFold::new(GeoDb::synthetic());
        // 3 NA + 1 EU connections at hour 2.
        for (i, first_octet) in [24u8, 63, 66, 82].iter().enumerate() {
            f.on_connect(ConnectionRecord {
                id: SessionId(i as u64),
                addr: Ipv4Addr::new(*first_octet, 1, 1, 1),
                user_agent: "X".into(),
                ultrapeer: false,
                start: SimTime::from_secs(2 * 3600 + i as u64),
                end: None,
                closed_by_probe: false,
            });
        }
        // Remote pongs at hour 2: 2 NA, 2 EU.
        let mut records: Vec<MessageRecord> = [24u8, 66, 82, 91]
            .iter()
            .enumerate()
            .map(|(i, first_octet)| MessageRecord {
                session: SessionId(0),
                guid: test_guid(),
                at: SimTime::from_secs(2 * 3600 + 10 + i as u64),
                hops: 3,
                ttl: 3,
                payload: RecordedPayload::Pong {
                    addr: Ipv4Addr::new(*first_octet, 2, 2, 2),
                    shared_files: 10 * (i as u32 + 1),
                },
            })
            .collect();
        // A hop-1 pong (probe response) from the first connection.
        records.push(MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_secs(2 * 3600 + 50),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Pong {
                addr: Ipv4Addr::new(24, 1, 1, 1),
                shared_files: 7,
            },
        });
        f.on_batch(&records, &vec![0; records.len()]);
        for i in 0..4 {
            f.on_close(SessionId(i), SimTime::from_secs(2 * 3600 + 100), false);
        }
        f.finish()
    }

    #[test]
    fn geo_fractions() {
        let panels = fold_with_mix().geo;
        let (region, na) = &panels[0];
        assert_eq!(*region, Region::NorthAmerica);
        // Hour 2: one-hop NA fraction = 3/4; all-peers NA fraction = 2/4.
        assert!((na.one_hop.ys()[2] - 0.75).abs() < 1e-12);
        assert!((na.all_peers.ys()[2] - 0.50).abs() < 1e-12);
        // Hours without data are zero.
        assert_eq!(na.one_hop.ys()[10], 0.0);
        let d = geo_divergence(na);
        assert!(d > 0.0 && d < 0.02);
    }

    #[test]
    fn shared_files_split_by_hops() {
        let p = fold_with_mix().shared_files;
        // One-hop: a single peer with 7 files.
        assert!((p.one_hop.ys()[7] - 1.0).abs() < 1e-12);
        // All peers: 4 peers with 10, 20, 30, 40.
        assert!((p.all_peers.ys()[10] - 0.25).abs() < 1e-12);
        assert!((p.all_peers.ys()[40] - 0.25).abs() < 1e-12);
        assert_eq!(p.all_peers.ys()[7], 0.0);
        assert_eq!(p.one_hop.ys().len(), 101);
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = RepresentativenessFold::new(GeoDb::synthetic()).finish();
        assert_eq!(r.geo.len(), 3);
        assert_eq!(r.shared_files.one_hop.ys().iter().sum::<f64>(), 0.0);
    }
}
