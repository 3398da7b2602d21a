//! The four workloads: what each sets up, the timed operation, the
//! output checks, and the per-layer figures of a traced run.

use crate::span::{SinkTally, TimedSink, Tracer};
use analysis::characterize::histograms::SessionHistograms;
use analysis::filter::FilterReport;
use analysis::load::query_load_by_time;
use analysis::streaming::finish_shards;
use analysis::{analyze_retained, RetainedAnalysis, StreamingPipeline, StreamingResult};
use behavior::PopulationConfig;
use behavior::{run_population_into, run_population_with_stats, CampaignStats, Fidelity};
use bench_support::Scale;
use geoip::{GeoDb, Region};
use p2pq::{calibrate, GeneratorConfig, WorkloadEvent, WorkloadGenerator, WorkloadModel};
use parking_lot::Mutex;
use serde::Serialize;
use simnet::SimTime;
use std::sync::Arc;
use telemetry::Counter;
use trace::{SharedSink, Trace};

/// Steady-state population of the `generate` workload: the default of
/// `examples/directory_load`, the rolling-clock caller of the generator.
const GENERATE_PEERS: usize = 500;
/// The `generator` experiment's regeneration: 300 peers over 8 h at 20:00.
const REGEN_PEERS: usize = 300;
const REGEN_SECS: u64 = 8 * 3_600;
const REGEN_HOUR: u32 = 20;
/// The collector and the population driver are spawned nodes too; the
/// remaining spawns are arrivals.
const NON_ARRIVAL_NODES: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperRepro,
    StreamHybrid,
    AdmissionFlood,
    Generate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperRepro,
        Workload::StreamHybrid,
        Workload::AdmissionFlood,
        Workload::Generate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper_repro",
            Workload::StreamHybrid => "stream_hybrid",
            Workload::AdmissionFlood => "admission_flood",
            Workload::Generate => "generate",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Smallest window the output checks are defined for: the generator's
    /// initial population joins over its warm-up window, so a shorter
    /// horizon leaves session starts unread.
    pub fn min_days(self) -> f64 {
        match self {
            Workload::Generate => GeneratorConfig::default().warmup.as_secs_f64() / 86_400.0,
            _ => 0.0,
        }
    }
}

/// Everything built before the first timed call. One value per process,
/// so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Retained {
        cfg: PopulationConfig,
        db: GeoDb,
        sink: Option<Arc<Mutex<TimedSink<Trace>>>>,
    },
    Streaming {
        cfg: PopulationConfig,
        sink: StreamSink,
    },
    Generate {
        generator: WorkloadGenerator,
        until: SimTime,
    },
}

pub enum StreamSink {
    Bare(Arc<Mutex<StreamingPipeline>>),
    Timed(Arc<Mutex<TimedSink<StreamingPipeline>>>),
}

/// A campaign at the arrival rate and cap of the experiment harness's
/// `scale`, over the benchmark's seed and window.
fn campaign_config(scale: Scale, seed: u64, days: f64, fidelity: Fidelity) -> PopulationConfig {
    PopulationConfig {
        seed,
        days,
        fidelity,
        ..scale.population()
    }
}

/// Set the workload up: GeoDb, config and sinks; for `generate` the
/// paper's model and the generator.
pub fn prepare(
    w: Workload,
    seed: u64,
    days: f64,
    tr: &mut Tracer,
    drop_batch: Option<u64>,
) -> Prepared {
    let traced = tr.on();
    match w {
        Workload::PaperRepro => {
            let db = GeoDb::synthetic();
            let cfg = campaign_config(Scale::Default, seed, days, Fidelity::Full);
            // The traced run drives `run_population_into` with a wrapped
            // `Trace` reserved as `run_population_with_stats` reserves its
            // own; end-to-end runs call `run_population_with_stats`.
            let sink = traced.then(|| {
                let sessions = (cfg.sessions_per_day * cfg.days * 1.3) as usize + 64;
                let trace = Trace::with_capacity(sessions, sessions * 32);
                Arc::new(Mutex::new(TimedSink::new(trace, drop_batch)))
            });
            Prepared::Retained { cfg, db, sink }
        }
        Workload::StreamHybrid | Workload::AdmissionFlood => {
            // `Scale::Mega` floods the measurement peer's faithful cap.
            let scale = if w == Workload::StreamHybrid {
                Scale::Default
            } else {
                Scale::Mega
            };
            let db = GeoDb::synthetic();
            let cfg = campaign_config(scale, seed, days, Fidelity::Hybrid);
            let pipeline = StreamingPipeline::new(db, false);
            let sink = if traced {
                StreamSink::Timed(Arc::new(Mutex::new(TimedSink::new(pipeline, drop_batch))))
            } else {
                StreamSink::Bare(Arc::new(Mutex::new(pipeline)))
            };
            Prepared::Streaming { cfg, sink }
        }
        Workload::Generate => {
            let model = tr.span("core.paper_default", |_| WorkloadModel::paper_default());
            let cfg = GeneratorConfig {
                n_peers: GENERATE_PEERS,
                seed,
                fixed_hour: None,
                ..GeneratorConfig::default()
            };
            let generator = tr.span("core.generator_new", |_| {
                WorkloadGenerator::new(&model, cfg)
            });
            Prepared::Generate {
                generator,
                until: SimTime::from_secs_f64(days * 86_400.0),
            }
        }
    }
}

/// A generated event stream, folded as it arrives.
#[derive(Clone, Copy, Default)]
pub struct Fold {
    pub events: u64,
    pub starts: u64,
    pub ends: u64,
    pub queries: u64,
    /// No event time was earlier than the one before it.
    pub monotone: bool,
    /// The one event read past the horizon was a `SessionEnd`, whose
    /// replacement session the generator has already started.
    pub overflow_end: bool,
    pub sessions_started: u64,
    pub n_peers: u64,
    pub digest: u64,
}

fn fold_until(generator: &mut WorkloadGenerator, until: SimTime, n_peers: usize) -> Fold {
    let mut f = Fold {
        monotone: true,
        n_peers: n_peers as u64,
        ..Fold::default()
    };
    let mut last = SimTime::ZERO;
    for ev in generator.by_ref() {
        let at = ev.at();
        if at > until {
            f.overflow_end = matches!(ev, WorkloadEvent::SessionEnd { .. });
            break;
        }
        f.monotone &= at >= last;
        last = at;
        f.events += 1;
        let kind = match ev {
            WorkloadEvent::SessionStart { .. } => {
                f.starts += 1;
                1
            }
            WorkloadEvent::Query { query, .. } => {
                f.queries += 1;
                2 ^ query.item << 2
            }
            WorkloadEvent::SessionEnd { .. } => {
                f.ends += 1;
                3
            }
        };
        f.digest =
            (f.digest ^ at.as_millis() ^ ev.peer().0 << 20 ^ kind).wrapping_mul(0x100_0000_01b3);
    }
    f.sessions_started = generator.sessions_started();
    f
}

/// The workload's final result, kept for the checks and the layer split.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    Retained {
        trace: Trace,
        stats: CampaignStats,
        analysis: RetainedAnalysis,
        hist_sessions: u64,
        load_queries: u64,
        fitted_fields: u64,
        regen: Fold,
        tally: Option<SinkTally>,
    },
    Streaming {
        stats: CampaignStats,
        result: StreamingResult,
        tally: Option<SinkTally>,
    },
    Generate(Fold),
}

fn unwrap_sink<S>(sink: Arc<Mutex<TimedSink<S>>>) -> TimedSink<S> {
    Arc::try_unwrap(sink)
        .ok()
        .expect("the campaign released its sink handle")
        .into_inner()
}

/// The timed operation: from the first timed call to the final result.
pub fn run(p: Prepared, seed: u64, tr: &mut Tracer) -> Output {
    match p {
        Prepared::Retained { cfg, db, sink } => {
            let (trace, stats, tally) = match sink {
                None => {
                    let (trace, stats) = run_population_with_stats(&cfg);
                    (trace, stats, None)
                }
                Some(sink) => {
                    let shared = Arc::clone(&sink) as SharedSink;
                    let stats = tr.span("behavior.campaign", |_| run_population_into(&cfg, shared));
                    tr.span("trace.unwrap", |_| {
                        let mut s = unwrap_sink(sink);
                        s.inner.compact();
                        (s.inner, stats, Some(s.tally))
                    })
                }
            };
            let (analysis, hist_sessions, load_queries) = tr.span("analysis.batch", |_| {
                let analysis = analyze_retained(&trace, &db);
                let hist = SessionHistograms::from_filtered(&analysis.ft);
                let load: u64 = Region::CHARACTERIZED
                    .iter()
                    .map(|&r| query_load_by_time(&analysis.ft, r).total)
                    .sum();
                (analysis, hist.total_sessions(), load)
            });
            let (model, report) = tr.span("core.calibrate", |_| calibrate(&analysis.ft));
            let regen_cfg = GeneratorConfig {
                n_peers: REGEN_PEERS,
                seed,
                fixed_hour: Some(REGEN_HOUR),
                ..GeneratorConfig::default()
            };
            let mut generator = tr.span("core.generator_new", |_| {
                WorkloadGenerator::new(&model, regen_cfg)
            });
            let regen = tr.span("core.generate", |_| {
                fold_until(&mut generator, SimTime::from_secs(REGEN_SECS), REGEN_PEERS)
            });
            Output::Retained {
                trace,
                stats,
                analysis,
                hist_sessions,
                load_queries,
                fitted_fields: report.fitted.len() as u64,
                regen,
                tally,
            }
        }
        Prepared::Streaming { cfg, sink } => match sink {
            StreamSink::Bare(sink) => {
                let stats = run_population_into(&cfg, Arc::clone(&sink) as SharedSink);
                let result = finish_shards(vec![sink]);
                Output::Streaming {
                    stats,
                    result,
                    tally: None,
                }
            }
            StreamSink::Timed(sink) => {
                let shared = Arc::clone(&sink) as SharedSink;
                let stats = tr.span("behavior.campaign", |_| run_population_into(&cfg, shared));
                let (result, tally) = tr.span("analysis.finish", |_| {
                    let s = unwrap_sink(sink);
                    (StreamingResult::merge(vec![s.inner.finish()]), s.tally)
                });
                Output::Streaming {
                    stats,
                    result,
                    tally: Some(tally),
                }
            }
        },
        Prepared::Generate {
            mut generator,
            until,
        } => Output::Generate(tr.span("core.generate", |_| {
            fold_until(&mut generator, until, GENERATE_PEERS)
        })),
    }
}

/// One identity between counts made in different layers.
#[derive(Serialize)]
pub struct Check {
    pub what: &'static str,
    pub left: u64,
    pub right: u64,
    pub holds: bool,
}

fn check(what: &'static str, left: u64, right: u64) -> Check {
    Check {
        what,
        left,
        right,
        holds: left == right,
    }
}

fn filter_checks(r: &FilterReport, connected: u64, out: &mut Vec<Check>) {
    out.push(check(
        "connected sessions == raw_sessions + unfinished_sessions",
        connected,
        r.raw_sessions + r.unfinished_sessions,
    ));
    out.push(check(
        "raw_sessions == rule3_sessions_removed + final_sessions",
        r.raw_sessions,
        r.rule3_sessions_removed + r.final_sessions,
    ));
    out.push(check(
        "raw_queries == rule1 + rule2 + rule3 removals + final_queries",
        r.raw_queries,
        r.rule1_removed + r.rule2_removed + r.rule3_queries_removed + r.final_queries,
    ));
}

fn sink_checks(
    sink_rows: u64,
    stats: &CampaignStats,
    tally: &Option<SinkTally>,
    out: &mut Vec<Check>,
) {
    let collector = stats.telemetry.counter(Counter::SinkRecords);
    out.push(check(
        "sink rows == collector sink_records",
        sink_rows,
        collector,
    ));
    out.push(check("sink rows >= 1", u64::from(sink_rows >= 1), 1));
    if let Some(t) = tally {
        out.push(check(
            "sink rows == wrapper records",
            sink_rows,
            t.on_batch.records,
        ));
        out.push(check(
            "wrapper batches == collector sink_batches",
            t.on_batch.calls,
            stats.telemetry.counter(Counter::SinkBatches),
        ));
    }
}

fn fold_checks(f: &Fold, out: &mut Vec<Check>) {
    out.push(check(
        "event times never decrease",
        u64::from(f.monotone),
        1,
    ));
    out.push(check(
        "SessionStart events == sessions_started()",
        f.starts + u64::from(f.overflow_end),
        f.sessions_started,
    ));
    out.push(check(
        "sessions_started() == peers + SessionEnd events",
        f.sessions_started,
        f.n_peers + f.ends + u64::from(f.overflow_end),
    ));
    out.push(check("events >= 1", u64::from(f.events >= 1), 1));
}

impl Output {
    /// Output records: observed trace messages for campaigns (fixed by
    /// the seed, identical across fidelities), events for `generate`.
    pub fn records(&self) -> u64 {
        match self {
            Output::Retained { trace, .. } => trace.messages.len() as u64,
            Output::Streaming { result, .. } => result.messages_seen,
            Output::Generate(f) => f.events,
        }
    }

    /// Every output check; none depends on a value recorded for a seed.
    pub fn checks(&self) -> Vec<Check> {
        let mut out = Vec::new();
        match self {
            Output::Retained {
                trace,
                stats,
                analysis,
                regen,
                tally,
                ..
            } => {
                sink_checks(trace.messages.len() as u64, stats, tally, &mut out);
                let r = &analysis.ft.report;
                filter_checks(r, trace.connections.len() as u64, &mut out);
                out.push(check(
                    "filtered sessions == final_sessions",
                    analysis.ft.sessions.len() as u64,
                    r.final_sessions,
                ));
                fold_checks(regen, &mut out);
            }
            Output::Streaming {
                stats,
                result,
                tally,
            } => {
                sink_checks(result.messages_seen, stats, tally, &mut out);
                filter_checks(&result.ft.report, result.sessions_seen, &mut out);
            }
            Output::Generate(f) => fold_checks(f, &mut out),
        }
        out
    }

    /// Counts that must repeat exactly for a seed: the operations of one
    /// run must all agree on them.
    pub fn fingerprint(&self) -> Vec<u64> {
        match self {
            Output::Retained {
                trace,
                stats,
                analysis,
                hist_sessions,
                load_queries,
                fitted_fields,
                regen,
                ..
            } => vec![
                trace.messages.len() as u64,
                trace.connections.len() as u64,
                trace.wire_bytes,
                stats.events_popped,
                analysis.ft.report.final_queries,
                *hist_sessions,
                *load_queries,
                *fitted_fields,
                regen.digest,
            ],
            Output::Streaming { stats, result, .. } => vec![
                result.messages_seen,
                result.sessions_seen,
                result.wire_bytes,
                stats.events_popped,
                result.ft.report.final_queries,
                result.hist.total_sessions(),
            ],
            Output::Generate(f) => vec![f.events, f.starts, f.queries, f.digest],
        }
    }

    /// The sink wrapper's per-method totals, named by the layer whose
    /// sink it wrapped.
    pub fn sink_tally(&self) -> Option<(&'static str, SinkTally)> {
        match self {
            Output::Retained { tally, .. } => tally.map(|t| ("trace.sink", t)),
            Output::Streaming { tally, .. } => tally.map(|t| ("analysis.sink", t)),
            Output::Generate(_) => None,
        }
    }

    /// Per-layer figures of a traced run, for the layers the workload
    /// runs.
    pub fn layers(&self, tr: &Tracer, wall_from: f64, wall_to: f64) -> Vec<(&'static str, f64)> {
        let mut l = Vec::new();
        match self {
            Output::Retained {
                trace,
                stats,
                analysis,
                fitted_fields,
                regen,
                tally,
                ..
            } => {
                let sink_s = tally.map_or(0.0, |t| t.secs());
                let records = stats.telemetry.counter(Counter::SinkRecords) as f64;
                let seals = telemetry::global().snapshot().counter(Counter::ChunkSeals);
                campaign_layers(&mut l, tr, stats, sink_s, trace.connections.len() as u64);
                filter_layers(&mut l, &analysis.ft.report);
                l.extend([
                    ("trace.sink_s", sink_s),
                    ("trace.ns_per_record", per_unit(sink_s, records)),
                    ("trace.chunk_seals", seals as f64),
                    (
                        "trace.retained_mb",
                        trace.mem_bytes() as f64 / (1024.0 * 1024.0),
                    ),
                    ("analysis.batch_s", tr.total("analysis.batch")),
                    ("core.calibrate_s", tr.total("core.calibrate")),
                    ("core.fitted_fields", *fitted_fields as f64),
                ]);
                generator_layers(&mut l, tr, regen);
            }
            Output::Streaming {
                stats,
                result,
                tally,
            } => {
                let sink_s = tally.map_or(0.0, |t| t.secs());
                campaign_layers(&mut l, tr, stats, sink_s, result.sessions_seen);
                filter_layers(&mut l, &result.ft.report);
                l.extend([
                    ("analysis.sink_s", sink_s),
                    ("analysis.finish_s", tr.total("analysis.finish")),
                ]);
            }
            Output::Generate(f) => generator_layers(&mut l, tr, f),
        }
        l.push((
            "bench.uncovered_frac",
            tr.uncovered_frac(wall_from, wall_to),
        ));
        l
    }
}

fn per_unit(secs: f64, count: f64) -> f64 {
    if count > 0.0 {
        secs * 1e9 / count
    } else {
        0.0
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

type Layers = Vec<(&'static str, f64)>;

/// Campaign time splits at the sink boundary: what is not inside a sink
/// call is the event loop (engine, sessions, collector).
fn campaign_layers(l: &mut Layers, tr: &Tracer, s: &CampaignStats, sink_s: f64, admitted: u64) {
    let campaign_s = tr.total("behavior.campaign");
    let event_loop_s = campaign_s - sink_s;
    let arrivals = s.spawned.saturating_sub(NON_ARRIVAL_NODES);
    let count = |c| s.telemetry.counter(c) as f64;
    l.extend([
        ("behavior.campaign_s", campaign_s),
        ("behavior.event_loop_s", event_loop_s),
        (
            "simnet.ns_per_event",
            per_unit(event_loop_s, s.events_popped as f64),
        ),
        ("simnet.events_popped", s.events_popped as f64),
        ("simnet.timers_fired", s.timers_fired as f64),
        ("simnet.delivered", s.delivered as f64),
        ("simnet.wheel_cascades", count(Counter::WheelCascades)),
        ("simnet.heap_spills", count(Counter::HeapSpills)),
        ("simnet.peak_queue_len", s.peak_queue_len as f64),
        ("behavior.arrivals", arrivals as f64),
        ("behavior.hybrid_elided", s.hybrid_elided_msgs as f64),
        ("behavior.hybrid_modeled", s.hybrid_modeled_msgs as f64),
        ("trace.sink_records", count(Counter::SinkRecords)),
        ("trace.sink_batches", count(Counter::SinkBatches)),
        ("trace.sessions_admitted", admitted as f64),
        ("trace.admitted_frac", share(admitted, arrivals)),
    ]);
}

fn filter_layers(l: &mut Layers, r: &FilterReport) {
    l.extend([
        (
            "analysis.sessions_kept_frac",
            share(r.final_sessions, r.raw_sessions),
        ),
        (
            "analysis.queries_kept_frac",
            share(r.final_queries, r.raw_queries),
        ),
    ]);
}

fn generator_layers(l: &mut Layers, tr: &Tracer, f: &Fold) {
    let generate_s = tr.total("core.generate");
    l.extend([
        ("core.generator_new_s", tr.total("core.generator_new")),
        ("core.generate_s", generate_s),
        ("core.events_generated", f.events as f64),
        ("core.ns_per_event", per_unit(generate_s, f.events as f64)),
    ]);
}
