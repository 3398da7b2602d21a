//! Measurement study: the full §3–§4 pipeline on a simulated population.
//!
//! Simulates a Gnutella population around a passive measurement ultrapeer
//! (the paper's modified-mutella setup), applies the five filter rules,
//! and prints the Table 1 / Table 2 reproductions plus per-region
//! session-level characteristics.
//!
//! ```text
//! cargo run --release -p p2pq-examples --bin measurement_study [days] [sessions_per_day]
//! ```

use analysis::characterize::passive_fraction;
use analysis::StreamingPipeline;
use behavior::{run_population_into, Fidelity, PopulationConfig};
use geoip::{GeoDb, Region};
use parking_lot::Mutex;
use std::sync::Arc;
use trace::{Fanout, TraceStats};

fn main() {
    let mut args = std::env::args().skip(1);
    let days: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.5);
    let sessions_per_day: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8_000.0);

    println!("simulating {days} day(s) at {sessions_per_day} sessions/day…");
    let cfg = PopulationConfig {
        days,
        sessions_per_day,
        seed: 2004,
        fidelity: Fidelity::Hybrid,
        ..PopulationConfig::default()
    };
    // One campaign, folded as it records: the Table 1 counts and the
    // filter pipeline side by side. The message trace is never kept.
    let stats = Arc::new(Mutex::new(TraceStats::default()));
    let pipeline = Arc::new(Mutex::new(StreamingPipeline::new(GeoDb::synthetic(), true)));
    let mut fanout = Fanout::new();
    fanout.register(stats.clone());
    fanout.register(pipeline.clone());
    run_population_into(&cfg, Arc::new(Mutex::new(fanout)));

    // --- Table 1: overall trace characteristics -------------------------
    let stats = *stats.lock();
    println!("\n=== Table 1 — Overall Trace Characteristics ===");
    print!("{}", stats.render_table());
    println!(
        "ultrapeer connections: {:.0} % (paper: ~40 %)",
        100.0 * stats.ultrapeer_fraction()
    );

    // --- Table 2: filter accounting --------------------------------------
    let ft = Arc::try_unwrap(pipeline)
        .ok()
        .expect("the campaign released its sinks")
        .into_inner()
        .finish()
        .ft;
    println!("\n=== Table 2 — Filtered Queries ===");
    print!("{}", ft.report.render_table());

    // --- §4.3: passive fractions ------------------------------------------
    println!("\n=== Fraction of passive peers (paper: NA 80-85 %, EU 75-80 %, Asia 80-90 %) ===");
    for region in Region::CHARACTERIZED {
        let p = passive_fraction::passive_fraction_by_hour(&ft, region);
        println!("  {:<14} {:>5.1} %", region.name(), 100.0 * p.overall);
    }

    // --- §4.4 / §4.5 medians ------------------------------------------------
    println!("\n=== Session measures by region ===");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "region", "sessions", "med dur (s)", "med #query", "med gap (s)"
    );
    for region in Region::CHARACTERIZED {
        let sessions: Vec<_> = ft.sessions.iter().filter(|s| s.region == region).collect();
        if sessions.is_empty() {
            continue;
        }
        let mut durs: Vec<f64> = sessions.iter().map(|s| s.duration_secs()).collect();
        durs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut counts: Vec<u32> = sessions
            .iter()
            .filter(|s| !s.is_passive())
            .map(|s| s.n_queries())
            .collect();
        counts.sort_unstable();
        let mut gaps: Vec<f64> = sessions
            .iter()
            .flat_map(|s| s.interarrival_samples())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "{:<14} {:>10} {:>12.0} {:>12} {:>12.0}",
            region.name(),
            sessions.len(),
            durs[durs.len() / 2],
            counts.get(counts.len() / 2).copied().unwrap_or(0),
            gaps.get(gaps.len() / 2).copied().unwrap_or(f64::NAN),
        );
    }
    println!("\n(paper: EU sessions are longest and issue the most queries; Asia the fewest)");
}
