//! Figure 1–11 reproductions.

use crate::render::{compare, probes_header, series_probes, tod_series};
use crate::ExperimentContext;
use analysis::characterize::{
    first_query, interarrival, last_query, passive, passive_fraction, queries,
};
use analysis::load;
use analysis::popularity::{self, GeoClass};
use analysis::representative;
use geoip::Region;

/// Figure 1 — geographic distribution of one-hop vs all peers, hourly.
pub fn fig01(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    for (region, panel) in &ctx.peers.geo {
        out.push_str(&format!("{} (fraction of peers by hour):\n", region.name()));
        out.push_str(&tod_series(&panel.one_hop, 4));
        out.push_str(&tod_series(&panel.all_peers, 4));
        out.push_str(&compare(
            "  mean |1-hop − all| divergence",
            "small (curves nearly coincide)",
            &format!("{:.3}", representative::geo_divergence(panel)),
        ));
    }
    out.push_str("\npaper anchors: NA 60–80 % (min ~13:00), EU up to ~20 % noon–midnight, Asia up to ~13 % morning\n");
    out
}

/// Figure 2 — shared-file counts of one-hop vs all peers.
pub fn fig02(ctx: &ExperimentContext) -> String {
    let p = &ctx.peers.shared_files;
    let mut out = String::new();
    out.push_str("Fraction of peers sharing k files (log-scale in the paper):\n");
    out.push_str(&probes_header(
        "shared files",
        &[0.0, 1.0, 5.0, 10.0, 50.0, 100.0],
        "",
    ));
    for s in [&p.one_hop, &p.all_peers] {
        let mut row = format!("  {:<28}", s.label);
        for &k in &[0usize, 1, 5, 10, 50, 100] {
            row.push_str(&format!(" {:>7.4}", s.ys().get(k).copied().unwrap_or(0.0)));
        }
        row.push('\n');
        out.push_str(&row);
    }
    let free_1hop = p.one_hop.ys().first().copied().unwrap_or(0.0);
    let free_all = p.all_peers.ys().first().copied().unwrap_or(0.0);
    out.push_str(&compare(
        "free-rider fraction, 1-hop vs all",
        "similar (curves coincide)",
        &format!("{free_1hop:.2} vs {free_all:.2}"),
    ));
    out
}

/// Figure 3 — query load vs time of day (30-minute bins).
pub fn fig03(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    for region in Region::CHARACTERIZED {
        let p = ctx.load.panel(region);
        out.push_str(&format!(
            "{} — {} filtered queries, peak bin at {:.1} h:\n",
            region.name(),
            p.total,
            load::peak_hour(&p)
        ));
        out.push_str(&tod_series(&p.average, 8));
    }
    out.push_str(
        "\npaper key periods: 03:00–04:00 peak NA / sink EU; 11:00–12:00 sink NA /\n\
         peak EU; 13:00–14:00 peak EU+Asia; 19:00–20:00 joint NA+EU peak\n",
    );
    out
}

/// Figure 4 — fraction of passive peers by hour.
pub fn fig04(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let paper = [
        (Region::NorthAmerica, "80-85 %"),
        (Region::Europe, "75-80 %"),
        (Region::Asia, "80-90 %"),
    ];
    for (region, reference) in paper {
        let p = passive_fraction::passive_fraction_by_hour(&ctx.ft, region);
        out.push_str(&format!("{}:\n", region.name()));
        out.push_str(&tod_series(&p.average, 6));
        out.push_str(&compare(
            "  overall passive fraction",
            reference,
            &format!("{:.1} %", 100.0 * p.overall),
        ));
    }
    out.push_str("(the paper finds the fraction nearly flat over the day in every region)\n");
    out
}

/// Figure 5 — passive session duration CCDFs.
pub fn fig05(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let probes = [2.0, 10.0, 200.0, 1_000.0];
    out.push_str("(a) by region:\n");
    out.push_str(&probes_header("duration (minutes)", &probes, "min"));
    for s in passive::duration_ccdf_by_region(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes, "min"));
    }
    out.push_str(&compare(
        "CCDF at 2 min, Asia / NA / EU",
        "0.15 / 0.25 / 0.45",
        "see rows above",
    ));
    out.push_str("\n(b) North America, by key start period:\n");
    for s in passive::duration_ccdf_by_period(&ctx.ft, Region::NorthAmerica) {
        out.push_str(&series_probes(&s, &probes, "min"));
    }
    out.push_str("\n(c) Europe, by key start period:\n");
    for s in passive::duration_ccdf_by_period(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, "min"));
    }
    out.push_str("\n(paper: sessions started in the early morning are notably longer)\n");
    out
}

/// Figure 6 — queries per active session CCDFs.
pub fn fig06(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let probes = [1.0, 4.0, 10.0, 30.0];
    out.push_str("(a) by region (rules 4/5 applied):\n");
    out.push_str(&probes_header("#queries", &probes, ""));
    for s in queries::ccdf_by_region(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes, ""));
    }
    out.push_str(&compare(
        "P[#queries ≥ 5] Asia / NA / EU",
        "0.08 / 0.20 / 0.30",
        "see CCDF at x=4 above",
    ));
    out.push_str("\n(b) Europe, by key start period (paper: nearly insensitive):\n");
    for s in queries::ccdf_by_period(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, ""));
    }
    out.push_str("\n(c) by region, rules 4/5 NOT applied:\n");
    let probes_c = [1.0, 4.0, 10.0, 100.0];
    out.push_str(&probes_header("#queries", &probes_c, ""));
    for s in queries::ccdf_by_region_unfiltered45(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes_c, ""));
    }
    out.push_str(&compare(
        "Asia sessions with >100 raw queries",
        "~4 %",
        "see Asia CCDF at x=100 above",
    ));
    out
}

/// Figure 7 — time until first query CCDFs.
pub fn fig07(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let probes = [10.0, 30.0, 90.0, 1_000.0, 10_000.0];
    out.push_str("(a) by region:\n");
    out.push_str(&probes_header("time (seconds)", &probes, "s"));
    for s in first_query::ccdf_by_region(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str(&compare(
        "P[first query ≤ 30 s]",
        "~0.40 in every region",
        "see CCDF at x=30 above",
    ));
    out.push_str("\n(b) North America, by query-count class (paper: correlated):\n");
    for s in first_query::ccdf_by_count_class(&ctx.ft, Region::NorthAmerica) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str("\n(c) Europe, by key start period:\n");
    for s in first_query::ccdf_by_period(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out
}

/// Figure 8 — interarrival CCDFs.
pub fn fig08(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let probes = [10.0, 103.0, 1_000.0, 5_000.0];
    out.push_str("(a) by region:\n");
    out.push_str(&probes_header("interarrival (seconds)", &probes, "s"));
    for s in interarrival::ccdf_by_region(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str(&compare(
        "P[gap < 100 s] EU / Asia / NA",
        "0.90 / 0.80 / 0.70",
        "see 1 − CCDF at x=103 above",
    ));
    out.push_str("\n(b) Europe, by query-count class (paper: correlated for EU only):\n");
    for s in interarrival::ccdf_by_count_class(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str("\n    North America, by query-count class (paper: NOT correlated):\n");
    for s in interarrival::ccdf_by_count_class(&ctx.ft, Region::NorthAmerica) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str("\n(c) Europe, by key start period:\n");
    for s in interarrival::ccdf_by_period(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out
}

/// Figure 9 — time after last query CCDFs.
pub fn fig09(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let probes = [12.0, 100.0, 1_000.0, 10_000.0];
    out.push_str("(a) by region:\n");
    out.push_str(&probes_header("time (seconds)", &probes, "s"));
    for s in last_query::ccdf_by_region(&ctx.ft) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str(&compare(
        "P[time > 1000 s] EU & NA / Asia",
        "0.20 / 0.10",
        "see CCDF at x=1000 above",
    ));
    out.push_str("\n(b) North America, by query-count class (paper: positive correlation):\n");
    for s in last_query::ccdf_by_count_class(&ctx.ft, Region::NorthAmerica) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out.push_str("\n(c) Europe, by key last-query period:\n");
    for s in last_query::ccdf_by_last_query_period(&ctx.ft, Region::Europe) {
        out.push_str(&series_probes(&s, &probes, "s"));
    }
    out
}

/// Figure 10 — hot-set drift.
pub fn fig10(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    out.push_str("Fraction of days with > x of the day-n group in day-(n+1) top N\n");
    out.push_str("(North American peers)\n\n");
    for (group, label) in [
        ((1usize, 10usize), "(a) top 10"),
        ((11, 20), "(b) rank 11-20"),
        ((21, 100), "(c) rank 21-100"),
    ] {
        out.push_str(&format!("{label} on day n:\n"));
        for n_next in [10usize, 20, 100] {
            let s = popularity::hot_set_drift(&ctx.obs, Region::NorthAmerica, group, n_next);
            let mut row = format!("  N={n_next:<4}");
            for x in 0..=6usize {
                let y = s.ys().get(x).copied().unwrap_or(0.0);
                row.push_str(&format!(" >{x}:{y:>5.2}"));
            }
            row.push('\n');
            out.push_str(&row);
        }
    }
    out.push_str(&compare(
        "days with ≤4 of top-10 in next-day top-100",
        "~80 % of days",
        "1 − (value at >4, N=100) above",
    ));
    out
}

/// Figure 11 — per-day query popularity and Zipf fits.
pub fn fig11(ctx: &ExperimentContext) -> String {
    let mut out = String::new();
    let cases = [
        (GeoClass::NaOnly, "α = 0.386", false),
        (GeoClass::EuOnly, "α = 0.223", false),
        (
            GeoClass::NaEu,
            "body α = 0.453 (1-45), tail α = 4.67 (46-100)",
            true,
        ),
    ];
    for (class, reference, two_piece) in cases {
        let (series, volume) = popularity::per_day_popularity_with_volume(&ctx.obs, class, 100);
        let populated = series.ys().iter().filter(|&&y| y > 0.0).count();
        out.push_str(&format!(
            "{} — {} populated ranks, {:.0} queries/day; freq at rank 1/10/50: {:.4}/{:.4}/{:.4}\n",
            class.label(),
            populated,
            volume,
            series.ys().first().copied().unwrap_or(0.0),
            series.ys().get(9).copied().unwrap_or(0.0),
            series.ys().get(49).copied().unwrap_or(0.0),
        ));
        if two_piece {
            match popularity::fit_popularity_two_piece(&series) {
                Ok(fit) => out.push_str(&compare(
                    "  two-piece Zipf fit",
                    reference,
                    &format!(
                        "body α={:.3} (1-{}), tail α={:.2}",
                        fit.body.alpha, fit.break_rank, fit.tail.alpha
                    ),
                )),
                Err(e) => out.push_str(&format!("  two-piece fit unavailable ({e})\n")),
            }
        } else {
            let floor = if volume > 0.0 { 2.5 / volume } else { 0.0 };
            match popularity::fit_popularity_above_floor(&series, floor) {
                Ok(fit) => out.push_str(&compare(
                    "  Zipf fit (above noise floor)",
                    reference,
                    &format!("α = {:.3} (R² = {:.2})", fit.alpha, fit.r_squared),
                )),
                Err(e) => out.push_str(&format!("  Zipf fit unavailable ({e})\n")),
            }
        }
    }
    out.push_str(
        "\n(paper: the filtered exponents are much smaller than unfiltered prior\n\
         work — see the `ablation_filters` experiment for that comparison)\n",
    );
    out
}
