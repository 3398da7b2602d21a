//! Experiment harness: one reproduction per paper table and figure.
//!
//! Every experiment is a pure function `fn(&ExperimentContext) -> String`
//! registered in [`registry`]; the `exp` binary runs one by id, and
//! `all_experiments` runs the full set and assembles the EXPERIMENTS.md
//! data. The context — a simulated measurement campaign plus its filtered
//! and popularity views — is built once per process at a scale set by the
//! `P2PQ_SCALE` environment variable (`smoke`, `default`, `cap200`,
//! `full`, or `mega`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod render;

use analysis::analyze_retained;
use analysis::filter::FilteredTrace;
use analysis::load::LoadAccumulator;
use analysis::popularity::DailyObservations;
use behavior::{run_population, PopulationConfig};
use geoip::{DiurnalModel, GeoDb};
use trace::Trace;

/// Scale of the simulated measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A fast sanity scale (CI-sized).
    Smoke,
    /// The default experiment scale (minutes of wall time).
    Default,
    /// Ten days at the paper's arrival rate with the faithful 200-slot
    /// admission cap (the cap-bound regime the real node operated in).
    Cap200,
    /// A 40-day, paper-sized campaign (long, memory-heavy).
    Full,
    /// A flood-regime stress scale: two million arrivals/day against the
    /// faithful 200-slot cap. The observed trace stays cap-bound and
    /// small; nearly all per-arrival work is far-cloud traffic, which is
    /// the regime the hybrid-fidelity flow model exists for.
    Mega,
}

impl Scale {
    /// Read the scale from `P2PQ_SCALE`.
    pub fn from_env() -> Scale {
        match std::env::var("P2PQ_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            Ok("cap200") => Scale::Cap200,
            Ok("full") => Scale::Full,
            Ok("mega") => Scale::Mega,
            _ => Scale::Default,
        }
    }

    /// The population configuration at this scale.
    pub fn population(self) -> PopulationConfig {
        match self {
            Scale::Smoke => PopulationConfig {
                seed: 1964,
                days: 0.5,
                sessions_per_day: 6_000.0,
                ..PopulationConfig::default()
            },
            // The default scale trades fidelity of the admission cap for
            // statistical volume: the paper's node at 109k arrivals/day was
            // hard-limited by its 200 slots; at 36k/day we open the cap to
            // 600, which admits 77.2 % of the arrivals (111 356 of
            // 144 317 over the 4 days at seed 1964), so the per-day query
            // volume matches the paper's. `full` restores the faithful
            // 200-slot cap.
            Scale::Default => PopulationConfig {
                seed: 1964,
                days: 4.0,
                sessions_per_day: 36_000.0,
                max_connections: 600,
                ..PopulationConfig::default()
            },
            Scale::Cap200 => PopulationConfig {
                seed: 1964,
                days: 10.0,
                sessions_per_day: 109_000.0,
                max_connections: 200,
                ..PopulationConfig::default()
            },
            Scale::Full => PopulationConfig {
                seed: 1964,
                days: 40.0,
                sessions_per_day: 109_000.0,
                max_connections: 200,
                ..PopulationConfig::default()
            },
            Scale::Mega => PopulationConfig {
                seed: 1964,
                days: 1.0,
                sessions_per_day: 2_000_000.0,
                max_connections: 200,
                ..PopulationConfig::default()
            },
        }
    }
}

/// Everything the experiments read: the raw trace, the filtered view, the
/// per-day popularity observations and query load, and the shared models.
pub struct ExperimentContext {
    /// The simulated measurement trace.
    pub trace: Trace,
    /// Rules 1–5 applied.
    pub ft: FilteredTrace,
    /// Per-day popularity observations.
    pub obs: DailyObservations,
    /// Query load by time of day (Figure 3).
    pub load: LoadAccumulator,
    /// The GeoIP database used for region resolution.
    pub db: GeoDb,
    /// The diurnal model (peak periods).
    pub diurnal: DiurnalModel,
    /// The scale the context was built at.
    pub scale: Scale,
}

impl ExperimentContext {
    /// Build a context at the given scale (simulates the campaign).
    pub fn build(scale: Scale) -> ExperimentContext {
        let cfg = scale.population();
        telemetry::info!(
            "[bench] simulating {} day(s) × {} sessions/day…",
            cfg.days,
            cfg.sessions_per_day
        );
        let t0 = std::time::Instant::now();
        let trace = run_population(&cfg);
        let db = GeoDb::synthetic();
        // The one analysis pass: one selective scan of the sealed trace
        // chunks, then rules 1–5 and the folds per connection.
        let r = analyze_retained(&trace, &db);
        let (ft, obs, load) = (r.ft, r.obs, r.load);
        telemetry::info!(
            "[bench] context ready in {:.1?}: {} connections, {} filtered sessions",
            t0.elapsed(),
            trace.connections.len(),
            ft.sessions.len()
        );
        ExperimentContext {
            trace,
            ft,
            obs,
            load,
            db,
            diurnal: DiurnalModel::paper_default(),
            scale,
        }
    }

    /// Build at the environment-selected scale.
    pub fn from_env() -> ExperimentContext {
        ExperimentContext::build(Scale::from_env())
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Short id, e.g. `table1`, `fig05`, `ablation_filters`.
    pub id: &'static str,
    /// The paper artifact it reproduces.
    pub title: &'static str,
    /// The runner.
    pub run: fn(&ExperimentContext) -> String,
}

/// The full experiment registry, in paper order.
pub fn registry() -> Vec<Experiment> {
    use experiments::*;
    vec![
        Experiment {
            id: "table1",
            title: "Table 1 — Overall trace characteristics",
            run: tables::table1,
        },
        Experiment {
            id: "table2",
            title: "Table 2 — Filtered queries",
            run: tables::table2,
        },
        Experiment {
            id: "table3",
            title: "Table 3 — Query class sizes",
            run: tables::table3,
        },
        Experiment {
            id: "tablea1",
            title: "Table A.1 — Passive session duration fits",
            run: appendix::table_a1,
        },
        Experiment {
            id: "tablea2",
            title: "Table A.2 — Queries per active session fits",
            run: appendix::table_a2,
        },
        Experiment {
            id: "tablea3",
            title: "Table A.3 — Time until first query fits",
            run: appendix::table_a3,
        },
        Experiment {
            id: "tablea4",
            title: "Table A.4 — Query interarrival fits",
            run: appendix::table_a4,
        },
        Experiment {
            id: "tablea5",
            title: "Table A.5 — Time after last query fits",
            run: appendix::table_a5,
        },
        Experiment {
            id: "fig01",
            title: "Figure 1 — One-hop vs all peers: geography",
            run: figures::fig01,
        },
        Experiment {
            id: "fig02",
            title: "Figure 2 — One-hop vs all peers: shared files",
            run: figures::fig02,
        },
        Experiment {
            id: "fig03",
            title: "Figure 3 — Query load vs time of day",
            run: figures::fig03,
        },
        Experiment {
            id: "fig04",
            title: "Figure 4 — Fraction of passive peers",
            run: figures::fig04,
        },
        Experiment {
            id: "fig05",
            title: "Figure 5 — Passive session duration CCDFs",
            run: figures::fig05,
        },
        Experiment {
            id: "fig06",
            title: "Figure 6 — Queries per active session CCDFs",
            run: figures::fig06,
        },
        Experiment {
            id: "fig07",
            title: "Figure 7 — Time until first query CCDFs",
            run: figures::fig07,
        },
        Experiment {
            id: "fig08",
            title: "Figure 8 — Query interarrival CCDFs",
            run: figures::fig08,
        },
        Experiment {
            id: "fig09",
            title: "Figure 9 — Time after last query CCDFs",
            run: figures::fig09,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10 — Hot-set drift",
            run: figures::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Figure 11 — Per-day query popularity (Zipf)",
            run: figures::fig11,
        },
        Experiment {
            id: "figa1",
            title: "Figure A.1 — Fitted vs measured CCDFs",
            run: appendix::fig_a1,
        },
        Experiment {
            id: "generator",
            title: "Figure 12 — Generator validation",
            run: generator::generator_validation,
        },
        Experiment {
            id: "correlations",
            title: "§4.5 correlations — duration vs #queries; interarrival vs #queries",
            run: generator::correlations_experiment,
        },
        Experiment {
            id: "hitrate",
            title: "Extension — §5 future work: query hit rate",
            run: generator::hit_rate_extension,
        },
        Experiment {
            id: "ablation_filters",
            title: "Ablation — filters on/off vs Zipf exponent",
            run: ablations::filters_onoff,
        },
        Experiment {
            id: "ablation_conditionals",
            title: "Ablation — conditional vs aggregate model",
            run: ablations::conditional_vs_aggregate,
        },
        Experiment {
            id: "ablation_hotset",
            title: "Ablation — per-day vs whole-trace ranking",
            run: ablations::hotset_onoff,
        },
    ]
}

/// Find an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_findable() {
        let reg = registry();
        let mut ids = std::collections::HashSet::new();
        for e in &reg {
            assert!(ids.insert(e.id), "duplicate id {}", e.id);
        }
        assert!(find("table1").is_some());
        assert!(find("fig11").is_some());
        assert!(find("nope").is_none());
        assert!(reg.len() >= 24);
    }

    #[test]
    fn scale_from_env_defaults() {
        // Without the env var set, the default scale applies.
        std::env::remove_var("P2PQ_SCALE");
        assert_eq!(Scale::from_env(), Scale::Default);
        let cfg = Scale::Smoke.population();
        assert!(cfg.days < 1.0);
    }
}
