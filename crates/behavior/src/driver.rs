//! Population driver: runs whole multi-day measurement campaigns.
//!
//! [`run_population`] wires everything together: a [`MeasurementPeer`]
//! collecting into a shared [`Trace`], a Poisson arrival process whose
//! regional mix follows the diurnal model, and one [`ClientPeer`] per
//! arriving session. The result is the synthetic equivalent of the
//! paper's 40-day trace, at a configurable scale.

use crate::arrivals::{ArrivalProcess, HourArrivals};
use crate::hybrid::HybridCampaign;
use crate::peer::{ClientPeer, PeerEnv};
use crate::session::SessionPlanner;
use crate::vocabulary::Vocabulary;
use geoip::{AddressAllocator, GeoDb};
use gnutella::net::{NetMsg, Transport};
use model::WorkloadModel;
use rand::Rng;
use simnet::{Actor, Context, LatencyModel, NodeId, SimDuration, SimStats, SimTime, Simulator};
use stats::rng::SeedSequence;
use std::sync::Arc;
use telemetry::{Counter, Registry, Snapshot};
use trace::{CollectorConfig, MeasurementPeer, SharedSink, Trace};

/// Simulation fidelity of a campaign.
///
/// `Full` runs every peer as a simulator actor exchanging protocol
/// messages; `Hybrid` keeps full fidelity for everything the measurement
/// peer can observe and replaces the rest with flow-level statistical
/// emission (see `crate::hybrid`). The observed trace is bit-identical
/// between the two — `Hybrid` only removes work the trace can't see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fidelity {
    /// Full per-message actor simulation.
    #[default]
    Full,
    /// Hybrid flow-level simulation (identical observed trace).
    Hybrid,
}

/// Configuration of a population run.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Simulated days.
    pub days: f64,
    /// Mean connections per day (the paper's full scale is ≈109 000/day;
    /// the default is scaled down for tractable experiment turnaround).
    pub sessions_per_day: f64,
    /// Maximum simultaneous connections at the measurement peer.
    pub max_connections: usize,
    /// How frames travel between peers: typed (default, zero-copy) or
    /// byte-encoded through the wire codec. Traces are identical either
    /// way; `Bytes` exists for conformance and benchmarking.
    pub transport: Transport,
    /// Simulation fidelity; `Hybrid` produces the same observed trace at
    /// a fraction of the per-message cost.
    pub fidelity: Fidelity,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            seed: 42,
            days: 2.0,
            sessions_per_day: 6_000.0,
            max_connections: 200,
            transport: Transport::Typed,
            fidelity: Fidelity::Full,
        }
    }
}

impl PopulationConfig {
    /// A small configuration for fast tests (a few hours, low rate).
    pub fn smoke() -> Self {
        PopulationConfig {
            seed: 7,
            days: 0.25,
            sessions_per_day: 2_000.0,
            ..PopulationConfig::default()
        }
    }
}

/// Engine-level statistics of a whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Events popped off the simulator queue.
    pub events_popped: u64,
    /// The event queue's high-water mark.
    pub peak_queue_len: u64,
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped because the destination was gone.
    pub(crate) dropped: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Nodes spawned over the lifetime of the run.
    pub spawned: u64,
    /// Messages a hybrid-fidelity run elided entirely (zero for full
    /// fidelity). `elided / (elided + modeled)` is the fraction of
    /// message work the far-cloud model avoided.
    pub hybrid_elided_msgs: u64,
    /// Peer→collector messages a hybrid-fidelity run still modeled as
    /// events (zero for full fidelity).
    pub hybrid_modeled_msgs: u64,
    /// The campaign registry's sink counters plus the event queue's
    /// far-heap spills and wheel cascades.
    pub telemetry: Snapshot,
}

impl CampaignStats {
    /// Statistics of a finished campaign: the engine's statistics `sim`,
    /// the hybrid engine's elided and modeled message counts (zero for
    /// full fidelity), and the final snapshot of the campaign registry.
    /// The queue's spill and cascade counts are folded into the snapshot
    /// here — the one place engine statistics and registry counters
    /// meet, for either fidelity.
    pub(crate) fn of(
        sim: SimStats,
        elided_msgs: u64,
        modeled_msgs: u64,
        mut telemetry: Snapshot,
    ) -> CampaignStats {
        telemetry.add_counter(Counter::HeapSpills, sim.heap_spills);
        telemetry.add_counter(Counter::WheelCascades, sim.wheel_cascades);
        CampaignStats {
            events_popped: sim.events_popped,
            peak_queue_len: sim.peak_queue_len,
            delivered: sim.delivered,
            dropped: sim.dropped,
            timers_fired: sim.timers_fired,
            spawned: sim.spawned,
            hybrid_elided_msgs: elided_msgs,
            hybrid_modeled_msgs: modeled_msgs,
            telemetry,
        }
    }
}

const TAG_HOUR: u64 = 1;
const TAG_ARRIVAL: u64 = 2;

/// The driver actor: draws arrivals hour by hour, keeps one arrival timer
/// pending, and spawns peers.
///
/// Its timers are the campaign's only unkeyed events, so they pop in
/// FIFO order at equal instants. Arrival `i + 1` is armed when arrival
/// `i` fires, which keeps same-millisecond arrivals in draw order.
struct PopulationDriver {
    server: NodeId,
    planner: SessionPlanner,
    arrivals: ArrivalProcess,
    hour: HourArrivals,
    env: PeerEnv,
    seq: SeedSequence,
    end: SimTime,
    spawned: u64,
    rng: rand::rngs::StdRng,
}

impl PopulationDriver {
    fn schedule_hour(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.hour
            .draw(&self.arrivals, &mut self.rng, ctx.now(), self.end);
        self.arm_arrival(ctx);
        if ctx.now() + SimDuration::from_hours(1) < self.end {
            ctx.set_timer(SimDuration::from_hours(1), TAG_HOUR);
        }
    }

    fn arm_arrival(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if let Some((_, at)) = self.hour.release() {
            ctx.set_timer(at - ctx.now(), TAG_ARRIVAL);
        }
    }

    fn spawn_peer(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let now = ctx.now();
        let hour = now.hour_of_day();
        let day = now.day() as usize;
        let mut rng = self.seq.rng_indexed("peer", self.spawned);
        self.spawned += 1;
        let region = self.planner.diurnal.sample_region(hour, &mut rng);
        let plan = self.planner.plan(day, hour, region, &mut rng);
        let addr = self.env.alloc.sample(region, &mut rng);
        let (ka_lo, ka_hi) = self.planner.params.keepalive_secs;
        let keepalive = SimDuration::from_secs_f64(rng.gen_range(ka_lo..ka_hi));
        let peer = ClientPeer::new(self.server, addr, plan, self.env.clone(), rng, keepalive);
        ctx.spawn(Box::new(peer));
    }
}

impl Actor for PopulationDriver {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.schedule_hour(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, NetMsg>, _from: NodeId, _msg: NetMsg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        match tag {
            TAG_HOUR => self.schedule_hour(ctx),
            TAG_ARRIVAL => {
                self.spawn_peer(ctx);
                self.arm_arrival(ctx);
            }
            _ => {}
        }
    }
}

/// Build the campaign vocabulary from the root sequence, over the
/// paper's popularity model.
pub(crate) fn build_vocabulary(seq: &SeedSequence) -> Vocabulary {
    let laws = WorkloadModel::paper_default()
        .popularity
        .laws()
        .expect("the paper's popularity model builds");
    Vocabulary::build(seq.derive_seed("vocab"), laws)
}

/// Build the full-fidelity campaign: the measurement peer and the
/// population driver on one simulator, every stream derived from `seq`.
/// Returns the simulator and its horizon (campaign end plus the grace
/// period in which in-flight sessions and probe-close chains of vanished
/// peers settle).
fn build_full(
    cfg: &PopulationConfig,
    vocab: Arc<Vocabulary>,
    seq: SeedSequence,
    sink: SharedSink,
    registry: Arc<Registry>,
) -> (Simulator<NetMsg>, SimTime) {
    let end = SimTime::from_secs_f64(cfg.days * 86_400.0);
    let planner = SessionPlanner::paper_default(vocab.clone());
    let db = GeoDb::synthetic();
    let alloc = Arc::new(AddressAllocator::new(&db));
    let env = PeerEnv {
        vocab,
        diurnal: planner.diurnal,
        alloc,
        files: planner.files,
        latency: LatencyModel::intra_continent(),
        transport: cfg.transport,
    };

    let mut sim = Simulator::new(seq.derive_seed("engine"));
    let collector_cfg = CollectorConfig {
        max_connections: cfg.max_connections,
        seed: seq.derive_seed("collector"),
        transport: cfg.transport,
    };
    let server = sim.add_node(Box::new(MeasurementPeer::new(
        collector_cfg,
        sink,
        registry,
    )));

    let driver = PopulationDriver {
        server,
        planner,
        arrivals: ArrivalProcess::new(cfg.sessions_per_day),
        hour: HourArrivals::default(),
        env,
        seq: seq.child("population"),
        end,
        spawned: 0,
        rng: seq.rng("arrivals"),
    };
    sim.add_node(Box::new(driver));
    (sim, end + SimDuration::from_hours(2))
}

/// Pre-reservation estimate for a retained trace: expected connections
/// plus slack, and a message volume estimate (relay + keepalive traffic
/// dominates; ~tens of messages per session at default rates).
/// Reallocation in the record hot path is what this avoids. The message
/// estimate no longer pins memory: the chunked store caps its flat tail
/// at one chunk and keeps the rest compressed, so an over-estimate costs
/// a chunk-directory reservation, not gigabytes of columns.
fn retained_trace_for(cfg: &PopulationConfig) -> Arc<parking_lot::Mutex<Trace>> {
    let expected_sessions = (cfg.sessions_per_day * cfg.days * 1.3) as usize + 64;
    Arc::new(parking_lot::Mutex::new(Trace::with_capacity(
        expected_sessions,
        expected_sessions * 32,
    )))
}

/// Take a trace back out of the shared handle after its campaign ended.
fn unwrap_trace(trace: Arc<parking_lot::Mutex<Trace>>) -> Trace {
    // Drop decode/seal scratch and dead tail capacity first: when
    // another handle is still alive the fallback below deep-clones, and
    // the scratch would be copied into the snapshot, inflating retained
    // RSS (mirror of the PR 1 `drop(sim)`-before-unwrap teardown fix).
    trace.lock().compact();
    Arc::try_unwrap(trace)
        .map(parking_lot::Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone())
}

/// Run a full population campaign and return the measurement trace.
pub fn run_population(cfg: &PopulationConfig) -> Trace {
    run_population_with_stats(cfg).0
}

/// [`run_population`] plus the engine statistics of the run.
pub fn run_population_with_stats(cfg: &PopulationConfig) -> (Trace, CampaignStats) {
    let trace = retained_trace_for(cfg);
    let stats = run_population_into(cfg, trace.clone());
    (unwrap_trace(trace), stats)
}

/// Run a full campaign, delivering the record stream to `sink` instead
/// of materializing a trace. With a streaming aggregator sink the full
/// trace is never held in memory; with a `Trace` sink this is exactly
/// [`run_population_with_stats`].
///
/// Builds, runs and finishes the campaign at the configured fidelity,
/// deriving every stream from the root seed.
pub fn run_population_into(cfg: &PopulationConfig, sink: SharedSink) -> CampaignStats {
    let seq = SeedSequence::new(cfg.seed);
    let vocab = Arc::new(build_vocabulary(&seq));
    // One registry per campaign: single-writer relaxed atomics on the
    // hot path, snapshotted at finish.
    let registry = Arc::new(Registry::new());
    match cfg.fidelity {
        Fidelity::Full => {
            let (mut sim, horizon) = build_full(cfg, vocab, seq, sink, Arc::clone(&registry));
            sim.run_until(horizon);
            let stats = sim.stats();
            // Dropping the simulator drops the measurement peer, whose
            // recorder drains its pending record buffer into the sink —
            // after this the sink has seen the complete stream (and the
            // registry its final sink counters).
            drop(sim);
            CampaignStats::of(stats, 0, 0, registry.snapshot())
        }
        Fidelity::Hybrid => {
            let mut campaign = HybridCampaign::new(cfg, vocab, seq, sink, registry);
            campaign.run_until(campaign.horizon());
            campaign.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_plausible_trace() {
        let cfg = PopulationConfig::smoke();
        // Retain the trace and fold its Table 1 counts from one stream.
        let trace = Arc::new(parking_lot::Mutex::new(Trace::default()));
        let stats = Arc::new(parking_lot::Mutex::new(trace::TraceStats::default()));
        let mut fanout = trace::Fanout::new();
        fanout.register(trace.clone());
        fanout.register(stats.clone());
        run_population_into(&cfg, Arc::new(parking_lot::Mutex::new(fanout)));
        let trace = unwrap_trace(trace);
        let stats = *stats.lock();

        // Expected ≈ 0.25 day × 2000/day = 500 connections.
        assert!(
            (300..800).contains(&(stats.direct_connections as usize)),
            "connections {}",
            stats.direct_connections
        );
        // Both node types represented (Table 1: ≈40 % ultrapeers).
        let uf = stats.ultrapeer_fraction();
        assert!((0.3..0.5).contains(&uf), "ultrapeer fraction {uf}");
        // Message mix: pings (keepalive) and pongs present; queries exceed
        // hop-1 queries (relayed traffic).
        assert!(stats.ping_messages > 0);
        assert!(stats.pong_messages > 0);
        // A small fraction of graceful closes send spec-compliant BYE.
        let byes = trace
            .messages
            .iter()
            .filter(|m| matches!(m.payload, trace::RecordedPayload::Bye))
            .count();
        assert!(byes > 0, "no BYE messages observed");
        assert!(stats.hop1_queries > 0);
        assert!(stats.query_messages > stats.hop1_queries);
        assert!(stats.queryhit_messages > 0);

        // Most sessions have ended within the grace period.
        let sessions = &trace.connections;
        let ended = sessions.iter().filter(|s| s.end.is_some()).count();
        assert!(
            ended as f64 / sessions.len() as f64 > 0.95,
            "{} of {} ended",
            ended,
            sessions.len()
        );
        // ≈70 % of sessions are sub-64 s quick disconnects.
        let quick = sessions
            .iter()
            .filter(|s| {
                s.end
                    .map(|e| e.since(s.start).as_secs_f64() < 64.0)
                    .unwrap_or(false)
            })
            .count() as f64;
        let frac = quick / ended as f64;
        assert!((0.6..0.8).contains(&frac), "quick fraction {frac}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let cfg = PopulationConfig {
            days: 0.05,
            sessions_per_day: 1_500.0,
            ..PopulationConfig::smoke()
        };
        let a = run_population(&cfg);
        let b = run_population(&cfg);
        assert_eq!(a, b, "same seed must produce identical traces");
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let c = run_population(&cfg2);
        assert_ne!(a, c);
    }

    #[test]
    fn typed_and_byte_transports_record_identical_traces() {
        // The typed fast path must be observationally equivalent to the
        // byte codec path: same RNG draws, same arrival order, same
        // records, same wire-byte accounting (both are charged via
        // `encoded_len`).
        let typed_cfg = PopulationConfig {
            days: 0.05,
            sessions_per_day: 1_500.0,
            transport: Transport::Typed,
            ..PopulationConfig::smoke()
        };
        let bytes_cfg = PopulationConfig {
            transport: Transport::Bytes,
            ..typed_cfg.clone()
        };
        let typed = run_population(&typed_cfg);
        let bytes = run_population(&bytes_cfg);
        assert_eq!(
            typed, bytes,
            "typed and byte transports must produce identical traces"
        );
        assert!(typed.wire_bytes > 0, "wire-byte accounting missing");
        assert_eq!(
            typed.wire_bytes, bytes.wire_bytes,
            "both transports charge wire bytes via encoded_len"
        );
    }

    #[test]
    fn campaign_stats_expose_queue_pressure() {
        let cfg = PopulationConfig {
            days: 0.05,
            sessions_per_day: 1_500.0,
            ..PopulationConfig::smoke()
        };
        let (trace, stats) = run_population_with_stats(&cfg);
        assert!(stats.events_popped > trace.messages.len() as u64);
        assert!(stats.peak_queue_len > 0);
        assert!(stats.delivered > 0);
        assert!(stats.peak_queue_len <= stats.events_popped);
    }

    #[test]
    fn probe_closures_overestimate_durations() {
        let trace = run_population(&PopulationConfig::smoke());
        // Vanished peers are probe-closed; the paper says most clients stop
        // silently, so a large share of sessions must be probe-closed.
        let probed = trace
            .connections
            .iter()
            .filter(|c| c.closed_by_probe)
            .count();
        let frac = probed as f64 / trace.connections.len() as f64;
        assert!(frac > 0.5, "probe-closed fraction {frac}");
    }
}
