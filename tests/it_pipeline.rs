//! End-to-end pipeline: simulate → serialize → filter → characterize →
//! calibrate → regenerate.

use analysis::analyze_retained;
use analysis::characterize::{interarrival, passive_fraction, queries};
use analysis::popularity::{class_sizes, DailyObservations};
use behavior::{run_population, run_population_into};
use geoip::{GeoDb, Region};
use integration_support::it_population;
use p2pq::{calibrate, collect_sessions, GeneratorConfig, WorkloadGenerator};
use parking_lot::Mutex;
use simnet::SimTime;
use std::sync::Arc;
use trace::{Fanout, Trace, TraceStats};

#[test]
fn full_pipeline_closes_the_loop() {
    // 1. Simulate the measured population, retaining the trace and
    //    folding its Table 1 counts from the same stream.
    let retained = Arc::new(Mutex::new(Trace::default()));
    let stats = Arc::new(Mutex::new(TraceStats::default()));
    let mut fanout = Fanout::new();
    fanout.register(retained.clone());
    fanout.register(stats.clone());
    run_population_into(&it_population(), Arc::new(Mutex::new(fanout)));
    let trace = Arc::try_unwrap(retained).ok().unwrap().into_inner();
    let stats = *stats.lock();
    assert!(stats.direct_connections > 2_000, "population too small");
    assert!(
        stats.query_messages > stats.hop1_queries,
        "no relayed traffic"
    );

    // 2. Filter.
    let db = GeoDb::synthetic();
    let ft = analyze_retained(&trace, &db).ft;
    let r = &ft.report;
    // Table 2 arithmetic must balance exactly.
    assert_eq!(
        r.raw_queries,
        r.rule1_removed + r.rule2_removed + r.rule3_queries_removed + r.final_queries
    );
    assert_eq!(
        r.final_queries,
        r.rule4_flagged + r.rule5_flagged + r.interarrival_queries
    );
    assert_eq!(r.raw_sessions, r.rule3_sessions_removed + r.final_sessions);

    // 3. Characterize: regional orderings the paper reports must hold.
    // Passive fractions ≈ 80 % everywhere (Figure 4).
    for region in Region::CHARACTERIZED {
        let p = passive_fraction::passive_fraction_by_hour(&ft, region);
        assert!(
            (0.70..=0.95).contains(&p.overall),
            "{region}: passive {}",
            p.overall
        );
    }
    // Europe issues more queries than Asia (Figure 6(a)).
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let eu = queries::query_counts(&ft, Region::Europe);
    let asia = queries::query_counts(&ft, Region::Asia);
    assert!(
        eu.len() > 25 && asia.len() > 10,
        "eu {} asia {}",
        eu.len(),
        asia.len()
    );
    assert!(
        mean(&eu) > mean(&asia),
        "EU {} vs Asia {}",
        mean(&eu),
        mean(&asia)
    );
    // EU interarrivals are shorter than NA's (Figure 8(a)), comparing the
    // below-103 s fraction.
    let frac_below = |r: Region| {
        let s = interarrival::interarrival_samples(&ft, r);
        s.iter().filter(|&&g| g < 103.0).count() as f64 / s.len().max(1) as f64
    };
    assert!(
        frac_below(Region::Europe) > frac_below(Region::NorthAmerica),
        "EU {} vs NA {}",
        frac_below(Region::Europe),
        frac_below(Region::NorthAmerica)
    );

    // 4. Popularity structure: regions issue mostly disjoint queries
    // (Table 3 — intersections are small relative to the region sets).
    let obs = DailyObservations::collect(&ft);
    let sizes = class_sizes(&obs, 0, 1);
    assert!(sizes.na > 50, "NA distinct {}", sizes.na);
    assert!(
        (sizes.na_eu as f64) < 0.25 * sizes.na as f64,
        "NA∩EU {} vs NA {}",
        sizes.na_eu,
        sizes.na
    );

    // 5. Calibrate and regenerate.
    let (model, report) = calibrate(&ft);
    assert!(
        report.fitted.len() >= 10,
        "too few fitted fields:\n{}",
        report.render()
    );
    let mut generator = WorkloadGenerator::new(
        &model,
        GeneratorConfig {
            n_peers: 200,
            seed: 31,
            fixed_hour: Some(20),
            ..GeneratorConfig::default()
        },
    );
    let events = generator.events_until(SimTime::from_secs(6 * 3600));
    let synthetic = collect_sessions(events.iter().copied());
    assert!(synthetic.len() > 500);

    // The regenerated passive fraction tracks the measured one.
    let measured_passive =
        ft.sessions.iter().filter(|s| s.is_passive()).count() as f64 / ft.sessions.len() as f64;
    let synth_passive =
        synthetic.iter().filter(|s| s.is_passive()).count() as f64 / synthetic.len() as f64;
    assert!(
        (measured_passive - synth_passive).abs() < 0.08,
        "measured {measured_passive} vs synthetic {synth_passive}"
    );

    // And the regenerated NA query-count distribution tracks the measured
    // one at the paper's <5-query anchor.
    let lt5 = |counts: &[f64]| {
        counts.iter().filter(|&&c| c < 5.0).count() as f64 / counts.len().max(1) as f64
    };
    let m_na = queries::query_counts(&ft, Region::NorthAmerica);
    let s_na: Vec<f64> = synthetic
        .iter()
        .filter(|s| s.region == Region::NorthAmerica && !s.is_passive())
        .map(|s| s.query_times.len() as f64)
        .collect();
    assert!(
        (lt5(&m_na) - lt5(&s_na)).abs() < 0.10,
        "measured lt5 {} vs synthetic {}",
        lt5(&m_na),
        lt5(&s_na)
    );
}

#[test]
fn trace_is_deterministic_across_runs() {
    let a = run_population(&it_population_small());
    let b = run_population(&it_population_small());
    assert_eq!(a, b);
}

fn it_population_small() -> behavior::PopulationConfig {
    behavior::PopulationConfig {
        days: 0.08,
        sessions_per_day: 3_000.0,
        ..it_population()
    }
}
