//! Calibration loop: measure → fit → regenerate → validate.
//!
//! Demonstrates the paper's end-to-end purpose: a trace is characterized
//! with the §3–§4 methodology, the fitted conditional distributions are
//! assembled into a [`p2pq::WorkloadModel`], and a synthetic workload
//! generated from that model reproduces the measured behavior.
//!
//! ```text
//! cargo run --release -p p2pq-examples --bin calibration_loop
//! ```

use analysis::StreamingPipeline;
use behavior::{run_population_into, Fidelity, PopulationConfig};
use geoip::{GeoDb, Region};
use p2pq::{calibrate, collect_sessions, GeneratorConfig, WorkloadGenerator};
use parking_lot::Mutex;
use simnet::SimTime;
use std::sync::Arc;

fn main() {
    // 1. Measure: simulate a population and filter each session as it
    //    closes.
    println!("1. simulating the measured population…");
    let pipeline = Arc::new(Mutex::new(StreamingPipeline::new(GeoDb::synthetic(), true)));
    let cfg = PopulationConfig {
        days: 0.5,
        sessions_per_day: 10_000.0,
        seed: 7,
        fidelity: Fidelity::Hybrid,
        ..PopulationConfig::default()
    };
    run_population_into(&cfg, pipeline.clone());
    let ft = Arc::try_unwrap(pipeline)
        .ok()
        .expect("the campaign released its sink")
        .into_inner()
        .finish()
        .ft;
    println!(
        "   {} sessions survived filtering ({} raw)",
        ft.report.final_sessions, ft.report.raw_sessions
    );

    // 2. Fit: derive a workload model from the measurements.
    println!("\n2. calibrating a workload model from the trace…");
    let (model, report) = calibrate(&ft);
    println!(
        "   {} fields fitted, {} defaults kept",
        report.fitted.len(),
        report.defaulted.len()
    );
    for line in report.fitted.iter().take(8) {
        println!("     fitted {line}");
    }
    println!("     …");

    // The model is serializable — this is the artifact a downstream
    // simulation study would consume.
    let json = model.to_json();
    println!("   serialized model: {} bytes of JSON", json.len());

    // 3. Regenerate: drive the Figure 12 generator from the fitted model.
    println!("\n3. generating a synthetic workload from the fitted model…");
    let mut generator = WorkloadGenerator::new(
        &model,
        GeneratorConfig {
            n_peers: 300,
            seed: 99,
            fixed_hour: Some(20),
            ..GeneratorConfig::default()
        },
    );
    let events = generator.events_until(SimTime::from_secs(8 * 3600));
    let synthetic = collect_sessions(events.iter().copied());
    println!("   {} synthetic sessions", synthetic.len());

    // 4. Validate: measured vs regenerated, side by side.
    println!("\n4. measured vs regenerated:");
    println!("{:<26} {:>12} {:>12}", "measure", "measured", "synthetic");
    // Passive fraction.
    let measured_passive =
        ft.sessions.iter().filter(|s| s.is_passive()).count() as f64 / ft.sessions.len() as f64;
    let synth_passive =
        synthetic.iter().filter(|s| s.is_passive()).count() as f64 / synthetic.len() as f64;
    println!(
        "{:<26} {:>11.1}% {:>11.1}%",
        "passive fraction",
        100.0 * measured_passive,
        100.0 * synth_passive
    );
    // Median active query count, NA.
    let med = |mut v: Vec<f64>| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let m_counts: Vec<f64> = ft
        .sessions
        .iter()
        .filter(|s| s.region == Region::NorthAmerica && !s.is_passive())
        .map(|s| f64::from(s.n_queries()))
        .collect();
    let s_counts: Vec<f64> = synthetic
        .iter()
        .filter(|s| s.region == Region::NorthAmerica && !s.is_passive())
        .map(|s| s.query_times.len() as f64)
        .collect();
    println!(
        "{:<26} {:>12.1} {:>12.1}",
        "median #queries (NA)",
        med(m_counts),
        med(s_counts)
    );
    // Median interarrival, NA.
    let m_gaps: Vec<f64> = ft
        .sessions
        .iter()
        .filter(|s| s.region == Region::NorthAmerica)
        .flat_map(|s| s.interarrival_samples())
        .collect();
    let s_gaps: Vec<f64> = synthetic
        .iter()
        .filter(|s| s.region == Region::NorthAmerica)
        .flat_map(|s| s.interarrivals())
        .collect();
    println!(
        "{:<26} {:>11.0}s {:>11.0}s",
        "median interarrival (NA)",
        med(m_gaps),
        med(s_gaps)
    );
    println!("\nloop closed: the fitted model regenerates the measured behavior.");
}
