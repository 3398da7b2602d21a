//! Population driver: runs whole multi-day measurement campaigns.
//!
//! [`run_population`] wires everything together: a [`MeasurementPeer`]
//! collecting into a shared [`Trace`], a Poisson arrival process whose
//! regional mix follows the diurnal model, and one [`ClientPeer`] per
//! arriving session. The result is the synthetic equivalent of the
//! paper's 40-day trace, at a configurable scale.

use crate::arrivals::{ArrivalProcess, HourArrivals};
use crate::hybrid::{HybridShard, ShardOutcome};
use crate::peer::{ClientPeer, PeerEnv, RelayRates};
use crate::session::SessionPlanner;
use crate::vocabulary::{Vocabulary, VocabularyConfig};
use geoip::{AddressAllocator, GeoDb};
use gnutella::net::{NetMsg, Transport};
use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::{Actor, Context, LatencyModel, NodeId, SimDuration, SimTime, Simulator};
use stats::rng::SeedSequence;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use telemetry::{Counter, Gauge, Registry, Snapshot};
use trace::{CollectorConfig, MeasurementPeer, SharedSink, Trace};

/// Simulation fidelity of a campaign.
///
/// `Full` runs every peer as a simulator actor exchanging protocol
/// messages; `Hybrid` keeps full fidelity for everything the measurement
/// peer can observe and replaces the rest with flow-level statistical
/// emission (see [`crate::hybrid`]). The observed trace is bit-identical
/// between the two — `Hybrid` only removes work the trace can't see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Fidelity {
    /// Full per-message actor simulation.
    #[default]
    Full,
    /// Hybrid flow-level simulation (identical observed trace).
    Hybrid,
}

/// Configuration of a population run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Root seed; everything derives from it.
    pub seed: u64,
    /// Simulated days.
    pub days: f64,
    /// Mean connections per day (the paper's full scale is ≈109 000/day;
    /// the default is scaled down for tractable experiment turnaround).
    pub sessions_per_day: f64,
    /// Vocabulary configuration.
    pub vocab: VocabularyConfig,
    /// Relay-traffic rates for ultrapeer neighbors.
    pub relay: RelayRates,
    /// Measurement-peer fan-out cap.
    pub forward_fanout: usize,
    /// Maximum simultaneous connections at the measurement peer.
    pub max_connections: usize,
    /// How frames travel between peers: typed (default, zero-copy) or
    /// byte-encoded through the wire codec. Traces are identical either
    /// way; `Bytes` exists for conformance and benchmarking.
    pub transport: Transport,
    /// Simulation fidelity; `Hybrid` produces the same observed trace at
    /// a fraction of the per-message cost.
    #[serde(default)]
    pub fidelity: Fidelity,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            seed: 42,
            days: 2.0,
            sessions_per_day: 6_000.0,
            vocab: VocabularyConfig::default(),
            relay: RelayRates::default(),
            forward_fanout: 4,
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
            vocab: VocabularyConfig {
                daily_sizes: [400, 380, 60, 20, 3, 3, 2],
                n_days: 2,
                ..VocabularyConfig::default()
            },
            ..PopulationConfig::default()
        }
    }
}

/// Engine-level statistics of a whole campaign, aggregated across shards.
///
/// `events_popped` sums over shards (total work done); `peak_queue_len`
/// takes the per-shard maximum (the pressure any one queue actually saw).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Events popped off the simulator queue(s), summed across shards.
    pub events_popped: u64,
    /// Largest event-queue high-water mark observed by any shard.
    pub peak_queue_len: u64,
    /// Messages delivered to live nodes, summed across shards.
    pub delivered: u64,
    /// Messages dropped because the destination was gone.
    pub dropped: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Nodes spawned over the lifetime of the run.
    pub spawned: u64,
    /// Messages a hybrid-fidelity run elided entirely (zero for full
    /// fidelity). `elided / (elided + modeled)` is the fraction of
    /// message work the far-cloud model avoided.
    #[serde(default)]
    pub hybrid_elided_msgs: u64,
    /// Peer→collector messages a hybrid-fidelity run still modeled as
    /// events (zero for full fidelity).
    #[serde(default)]
    pub hybrid_modeled_msgs: u64,
    /// Merged telemetry counters across shards: each shard's registry
    /// snapshot plus its engine-level quantities, folded at the same
    /// canonical join that merges traces ([`Snapshot::merge`] is
    /// associative and commutative, so the totals are independent of
    /// shard count for per-shard quantities and of join order always).
    #[serde(default)]
    pub telemetry: Snapshot,
}

impl CampaignStats {
    fn absorb(&mut self, s: &ShardOutcome) {
        self.events_popped += s.sim.events_popped;
        self.peak_queue_len = self.peak_queue_len.max(s.sim.peak_queue_len);
        self.delivered += s.sim.delivered;
        self.dropped += s.sim.dropped;
        self.timers_fired += s.sim.timers_fired;
        self.spawned += s.sim.spawned;
        self.hybrid_elided_msgs += s.elided_msgs;
        self.hybrid_modeled_msgs += s.modeled_msgs;
        // Fold the engine's plain counters into the shard snapshot, then
        // merge — the one place engine statistics and registry counters
        // meet, for either fidelity.
        let mut t = s.telemetry;
        t.add_counter(Counter::EventsPopped, s.sim.events_popped);
        t.add_counter(Counter::HeapSpills, s.sim.heap_spills);
        t.add_counter(Counter::HeapMigrations, s.sim.heap_migrations);
        t.add_counter(Counter::WheelCascades, s.sim.wheel_cascades);
        t.add_counter(Counter::HybridElided, s.elided_msgs);
        t.add_counter(Counter::HybridModeled, s.modeled_msgs);
        t.max_gauge(Gauge::PeakQueueLen, s.sim.peak_queue_len);
        self.telemetry.merge(&t);
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

/// Build the campaign vocabulary from the root sequence (shared across
/// shards so every shard draws from the same query population).
fn build_vocabulary(cfg: &PopulationConfig, seq: &SeedSequence) -> Vocabulary {
    Vocabulary::build(
        seq.derive_seed("vocab"),
        VocabularyConfig {
            n_days: (cfg.days.ceil() as usize)
                .max(cfg.vocab.n_days.min(40))
                .max(1),
            ..cfg.vocab.clone()
        },
    )
}

/// A resumable shard simulation: either fidelity, runnable in epochs so
/// the work-stealing pool can interleave many shards on few threads.
enum ShardEngine {
    Full {
        sim: Box<Simulator<NetMsg>>,
        registry: Arc<Registry>,
    },
    Hybrid(Box<HybridShard>),
}

impl ShardEngine {
    /// Advance the shard's virtual clock to `until` (inclusive).
    fn run_until(&mut self, until: SimTime) {
        match self {
            ShardEngine::Full { sim, .. } => sim.run_until(until),
            ShardEngine::Hybrid(shard) => shard.run_until(until),
        }
    }

    /// Finish the shard: flush its sink and report statistics.
    fn finish(self) -> ShardOutcome {
        match self {
            ShardEngine::Full { sim, registry } => {
                let stats = sim.stats();
                // Dropping the simulator drops the measurement peer, which
                // flushes the collector's pending record buffer into the
                // sink — after this the sink has seen the complete stream
                // (and the registry its final sink counters).
                drop(sim);
                ShardOutcome {
                    sim: stats,
                    elided_msgs: 0,
                    modeled_msgs: 0,
                    telemetry: registry.snapshot(),
                }
            }
            ShardEngine::Hybrid(shard) => shard.finish(),
        }
    }
}

/// Build one shard campaign at `sessions_per_day`, deriving every stream
/// from `seq`. Returns the engine and its horizon (campaign end plus the
/// grace period in which in-flight sessions and probe-close chains of
/// vanished peers settle).
fn build_shard(
    cfg: &PopulationConfig,
    vocab: Arc<Vocabulary>,
    seq: SeedSequence,
    sessions_per_day: f64,
    sink: SharedSink,
) -> (ShardEngine, SimTime) {
    let end = SimTime::from_secs_f64(cfg.days * 86_400.0);
    let horizon = end + SimDuration::from_hours(2);
    // One registry per shard: single-writer relaxed atomics on the hot
    // path, snapshotted at shard finish and merged in `absorb`.
    let registry = Arc::new(Registry::new());
    if cfg.fidelity == Fidelity::Hybrid {
        let shard = HybridShard::new(cfg, vocab, seq, sessions_per_day, sink, registry);
        return (ShardEngine::Hybrid(Box::new(shard)), horizon);
    }
    let planner = SessionPlanner::paper_default(vocab.clone());
    let db = GeoDb::synthetic();
    let alloc = Arc::new(AddressAllocator::new(&db));
    let env = PeerEnv {
        vocab,
        diurnal: planner.diurnal,
        alloc,
        files: planner.files,
        relay: cfg.relay,
        latency: LatencyModel::intra_continent(),
        transport: cfg.transport,
    };

    let mut sim: Box<Simulator<NetMsg>> = Box::new(Simulator::new(seq.derive_seed("engine")));
    let collector_cfg = CollectorConfig {
        max_connections: cfg.max_connections,
        forward_fanout: cfg.forward_fanout,
        seed: seq.derive_seed("collector"),
        transport: cfg.transport,
        ..CollectorConfig::default()
    };
    let server = sim.add_node(Box::new(MeasurementPeer::with_sink_and_registry(
        collector_cfg,
        sink,
        Arc::clone(&registry),
    )));

    let driver = PopulationDriver {
        server,
        planner,
        arrivals: ArrivalProcess::new(sessions_per_day),
        hour: HourArrivals::default(),
        env,
        seq: seq.child("population"),
        end,
        spawned: 0,
        rng: seq.rng("arrivals"),
    };
    sim.add_node(Box::new(driver));
    (ShardEngine::Full { sim, registry }, horizon)
}

/// Run one simulator campaign at `sessions_per_day`, deriving every
/// stream from `seq`. [`run_population`] is exactly this at full rate
/// with the root sequence; shards run it at `rate / n` with per-shard
/// derived sequences.
fn run_shard(
    cfg: &PopulationConfig,
    vocab: Arc<Vocabulary>,
    seq: SeedSequence,
    sessions_per_day: f64,
    sink: SharedSink,
) -> ShardOutcome {
    let (mut engine, horizon) = {
        telemetry::scope!("build");
        build_shard(cfg, vocab, seq, sessions_per_day, sink)
    };
    {
        telemetry::scope!("run");
        engine.run_until(horizon);
    }
    telemetry::scope!("finish");
    engine.finish()
}

/// Pre-reservation estimate for a retained trace: expected connections
/// plus slack, and a message volume estimate (relay + keepalive traffic
/// dominates; ~tens of messages per session at default rates).
/// Reallocation in the record hot path is what this avoids. The message
/// estimate no longer pins memory: the chunked store caps its flat tail
/// at one chunk and keeps the rest compressed, so an over-estimate costs
/// a chunk-directory reservation, not gigabytes of columns.
fn retained_trace_for(sessions_per_day: f64, days: f64) -> Arc<parking_lot::Mutex<Trace>> {
    let expected_sessions = (sessions_per_day * days * 1.3) as usize + 64;
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
    let trace = retained_trace_for(cfg.sessions_per_day, cfg.days);
    let stats = run_population_into(cfg, trace.clone());
    (unwrap_trace(trace), stats)
}

/// Run a full single-shard campaign, delivering the record stream to
/// `sink` instead of materializing a trace. With a streaming aggregator
/// sink the full trace is never held in memory; with a `Trace` sink this
/// is exactly [`run_population_with_stats`].
pub fn run_population_into(cfg: &PopulationConfig, sink: SharedSink) -> CampaignStats {
    telemetry::scope!("campaign");
    let seq = SeedSequence::new(cfg.seed);
    let vocab = {
        telemetry::scope!("build");
        Arc::new(build_vocabulary(cfg, &seq))
    };
    let outcome = run_shard(cfg, vocab, seq, cfg.sessions_per_day, sink);
    let mut stats = CampaignStats::default();
    stats.absorb(&outcome);
    stats
}

/// Number of OS worker threads used to run `n_shards` logical shards.
///
/// Logical shards are semantic (they determine the arrival streams and
/// the merged output), worker threads are not — so by default the pool is
/// clamped to [`std::thread::available_parallelism`]: requesting 8 shards
/// on a 1-core box runs 8 simulators on one worker, bit-identical to the
/// thread-per-shard result but without oversubscription. `force_threads`
/// restores thread-per-shard (e.g. to measure the oversubscribed case).
pub fn shard_worker_threads(n_shards: usize, force_threads: bool) -> usize {
    if force_threads {
        n_shards
    } else {
        n_shards.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Number of shared virtual-clock epochs the work-stealing scheduler
/// splits a sharded campaign into. More epochs mean finer-grained load
/// balancing (a shard that runs hot in one epoch can be stolen in the
/// next) at the cost of two barrier crossings per epoch; 16 keeps barrier
/// overhead negligible against multi-second shard epochs.
const SHARD_EPOCHS: u64 = 16;

/// Worker `w`'s next shard task: the front of its own deque, else the
/// back of the first non-empty victim's. Back-stealing takes the work the
/// owner would reach last, minimizing contention on the deque front.
///
/// At most one deque lock is held at a time. Holding the owner's lock
/// while locking a victim's deadlocks two idle workers that steal from
/// each other at once.
fn next_task(deques: &[parking_lot::Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let own = deques[w].lock().pop_front();
    own.or_else(|| {
        (0..deques.len())
            .filter(|&v| v != w)
            .find_map(|v| deques[v].lock().pop_back())
    })
}

/// Run `n_shards` logical shards on a work-stealing worker pool,
/// delivering each shard's record stream to the matching sink in `sinks`.
///
/// Shards can vastly outnumber OS threads, so instead of
/// thread-per-shard each shard is a *task*: the campaign horizon is cut
/// into [`SHARD_EPOCHS`] shared virtual-clock epochs, every worker seeds
/// its own deque with its round-robin share of shard tasks, and workers
/// that drain their deque steal from the back of a victim's. A barrier
/// aligns all workers at each epoch boundary, bounding how far any
/// shard's virtual clock can run ahead of the others.
///
/// Shard seeds and rates depend only on `cfg` and `n_shards`, never on
/// the worker count or steal order — each shard is an independent
/// simulation whose event order is internally determined — so results
/// are bit-identical whatever the pool size or interleaving. Each sink
/// sees a complete, well-ordered stream for its shard; merging across
/// shards is the caller's concern (a retained-trace caller uses the
/// canonical `(time, shard)` merge, a streaming caller merges its
/// per-shard aggregates).
///
/// # Panics
///
/// Panics if `sinks.len() != n_shards`, `n_shards == 0`,
/// `max_connections < n_shards`, or a worker thread panics.
pub fn run_population_sharded_into(
    cfg: &PopulationConfig,
    n_shards: usize,
    sinks: Vec<SharedSink>,
    force_threads: bool,
) -> CampaignStats {
    assert!(n_shards >= 1, "n_shards must be at least 1");
    assert_eq!(sinks.len(), n_shards, "one sink per shard required");
    if n_shards == 1 {
        let sink = sinks.into_iter().next().expect("one sink");
        return run_population_into(cfg, sink);
    }
    assert!(
        cfg.max_connections >= n_shards,
        "max_connections ({}) must be at least n_shards ({}) so every shard can admit sessions",
        cfg.max_connections,
        n_shards
    );
    telemetry::scope!("campaign");
    let seq = SeedSequence::new(cfg.seed);
    let rate = cfg.sessions_per_day / n_shards as f64;

    // Build every shard engine up front (cheap: no events run yet). The
    // per-shard admission cap splits the aggregate cap, earlier shards
    // taking the remainder.
    let mut horizon = SimTime::ZERO;
    let engines: Vec<parking_lot::Mutex<Option<ShardEngine>>> = {
        telemetry::scope!("build");
        let vocab = Arc::new(build_vocabulary(cfg, &seq));
        (0..n_shards)
            .map(|i| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.max_connections = cfg.max_connections / n_shards
                    + usize::from(i < cfg.max_connections % n_shards);
                let (engine, h) = build_shard(
                    &shard_cfg,
                    Arc::clone(&vocab),
                    seq.child_indexed("shard", i as u64),
                    rate,
                    Arc::clone(&sinks[i]),
                );
                horizon = h;
                parking_lot::Mutex::new(Some(engine))
            })
            .collect()
    };

    // Epoch boundaries share one virtual clock across all shards; the
    // last boundary is exactly the horizon.
    let boundaries: Vec<SimTime> = (1..=SHARD_EPOCHS)
        .map(|k| SimTime::from_millis(horizon.as_millis() * k / SHARD_EPOCHS))
        .collect();

    let threads = shard_worker_threads(n_shards, force_threads);
    let deques: Vec<parking_lot::Mutex<VecDeque<usize>>> = (0..threads)
        .map(|_| parking_lot::Mutex::new(VecDeque::new()))
        .collect();
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let engines = &engines;
            let deques = &deques;
            let barrier = &barrier;
            let boundaries = &boundaries;
            handles.push(scope.spawn(move || {
                // Worker threads open the scope with an empty stack, so
                // the name IS the full path — each worker's lifetime
                // attributes into the main thread's `campaign` subtree.
                // (On multi-core hosts the summed `run` time is
                // CPU-seconds and can exceed the campaign wall time.)
                telemetry::scope!("campaign/run");
                for &until in boundaries {
                    // Refill the local deque with this worker's share of
                    // shard tasks, then wait for every worker to do the
                    // same so stealing never races a refill.
                    deques[w].lock().extend((w..n_shards).step_by(threads));
                    barrier.wait();
                    while let Some(i) = next_task(deques, w) {
                        // A shard index lives in exactly one deque per
                        // epoch, so this lock is uncontended.
                        let mut slot = engines[i].lock();
                        slot.as_mut().expect("engine present").run_until(until);
                    }
                    barrier.wait();
                }
            }));
        }
        for h in handles {
            h.join().expect("shard worker thread panicked");
        }
    });

    let mut stats = CampaignStats::default();
    {
        telemetry::scope!("finish");
        for cell in &engines {
            let engine = cell.lock().take().expect("engine present");
            stats.absorb(&engine.finish());
        }
    }
    stats
}

/// Run a population campaign as `n_shards` Poisson-thinned sub-campaigns
/// on a thread pool and merge the traces.
///
/// Superposition: `n` independent Poisson arrival streams at rate `λ/n`
/// are statistically identical to one stream at rate `λ`, so splitting
/// the campaign across simulators preserves the arrival model exactly.
/// Each shard gets its own [`Simulator`], measurement peer, and local
/// trace (no cross-thread shared state on the hot path); shard seeds are
/// derived per index, so the result is bit-identical across repeated runs
/// at any fixed shard count.
///
/// `n_shards == 1` delegates to [`run_population`] and reproduces its
/// output exactly. For `n > 1` the merged trace is statistically — not
/// bitwise — equivalent to the single-shard trace: the shards interleave
/// different arrival streams. Each shard models a `1/n` slice of the
/// measurement node: the arrival stream is thinned to `λ/n` *and* the
/// admission cap is split `max_connections / n` (earlier shards take the
/// remainder), so the merged campaign admits the same aggregate capacity.
/// (A burst can be refused by a full shard while another has free slots,
/// so cap-bound admission is equivalent in expectation, not per-arrival.)
/// Merged connections are ordered by `(start, shard)` with densely
/// renumbered [`SessionId`]s; messages by `(arrival, shard)`.
///
/// # Panics
///
/// Panics if `n_shards == 0` or a shard thread panics.
pub fn run_population_sharded(cfg: &PopulationConfig, n_shards: usize) -> Trace {
    run_population_sharded_with_stats(cfg, n_shards).0
}

/// [`run_population_sharded`] plus aggregated engine statistics.
///
/// # Panics
///
/// Panics under the same conditions as [`run_population_sharded`].
pub fn run_population_sharded_with_stats(
    cfg: &PopulationConfig,
    n_shards: usize,
) -> (Trace, CampaignStats) {
    assert!(n_shards >= 1, "n_shards must be at least 1");
    if n_shards == 1 {
        return run_population_with_stats(cfg);
    }
    let rate = cfg.sessions_per_day / n_shards as f64;
    let shard_traces: Vec<Arc<parking_lot::Mutex<Trace>>> = (0..n_shards)
        .map(|_| retained_trace_for(rate, cfg.days))
        .collect();
    let sinks: Vec<SharedSink> = shard_traces
        .iter()
        .map(|t| Arc::clone(t) as SharedSink)
        .collect();
    let stats = run_population_sharded_into(cfg, n_shards, sinks, false);
    let traces: Vec<Trace> = shard_traces.into_iter().map(unwrap_trace).collect();
    (merge_shard_traces(traces), stats)
}

/// Merge per-shard traces into canonical `(time, shard)` order with
/// densely renumbered session ids.
fn merge_shard_traces(shards: Vec<Trace>) -> Trace {
    // Runs after the campaign scope closed, so the slash name roots this
    // directly under `campaign` in the stage tree.
    telemetry::scope!("campaign/merge");
    let n_conns: usize = shards.iter().map(|t| t.connections.len()).sum();
    let n_msgs: usize = shards.iter().map(|t| t.messages.len()).sum();
    let wire_bytes: u64 = shards.iter().map(|t| t.wire_bytes).sum();

    let mut conns: Vec<(usize, trace::ConnectionRecord)> = Vec::with_capacity(n_conns);
    let mut msg_lists: Vec<trace::MessageColumns> = Vec::with_capacity(shards.len());
    for (shard, t) in shards.into_iter().enumerate() {
        conns.extend(t.connections.into_iter().map(|c| (shard, c)));
        msg_lists.push(t.messages);
    }
    // Each shard's connections are already start-ordered, so a stable sort
    // by (start, shard) yields the canonical merged order.
    conns.sort_by_key(|(shard, c)| (c.start, *shard));

    // Per-shard session ids are dense from 0, so the remap is a plain
    // vector lookup rather than a hash map.
    let mut remap: Vec<Vec<u64>> = msg_lists.iter().map(|_| Vec::new()).collect();
    let mut connections = Vec::with_capacity(n_conns);
    for (new_id, (shard, mut c)) in conns.into_iter().enumerate() {
        let old = c.id.0 as usize;
        if remap[shard].len() <= old {
            remap[shard].resize(old + 1, u64::MAX);
        }
        remap[shard][old] = new_id as u64;
        c.id = trace::SessionId(new_id as u64);
        connections.push(c);
    }

    // K-way merge of the per-shard columns (each already arrival-ordered)
    // into `(arrival, shard)` order: strict `<` with shards scanned in
    // index order makes the earliest shard win ties, matching the old
    // stable sort by `(at, shard)` bit for bit. Sequential cursors decode
    // each sealed source chunk exactly once into cursor-local scratch;
    // the merged store re-seals (and re-spills) as it fills, so peak
    // memory is the shard chunks plus one open chunk per side.
    let mut messages = trace::MessageColumns::with_capacity(n_msgs);
    let mut cursors: Vec<trace::MessageCursor<'_>> =
        msg_lists.iter().map(|list| list.cursor()).collect();
    loop {
        let mut best: Option<(simnet::SimTime, usize)> = None;
        for (shard, cur) in cursors.iter_mut().enumerate() {
            if let Some(t) = cur.peek_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, shard));
                }
            }
        }
        let Some((_, shard)) = best else { break };
        let (mut m, wire) = cursors[shard].next_with_wire().expect("peeked row exists");
        m.session = trace::SessionId(remap[shard][m.session.0 as usize]);
        messages.push_with_wire(m, wire);
    }
    drop(cursors);

    Trace {
        connections,
        messages,
        wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Sessions;

    #[test]
    fn smoke_run_produces_plausible_trace() {
        let cfg = PopulationConfig::smoke();
        let trace = run_population(&cfg);
        let stats = trace.stats();

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

        // Sessions reconstruct; most have ended within the grace period.
        let sessions = Sessions::from_trace(&trace);
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
                s.duration()
                    .map(|d| d.as_secs_f64() < 64.0)
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
    fn sharded_one_shard_is_exactly_run_population() {
        let cfg = PopulationConfig {
            days: 0.05,
            sessions_per_day: 1_500.0,
            ..PopulationConfig::smoke()
        };
        let single = run_population(&cfg);
        let sharded = run_population_sharded(&cfg, 1);
        assert_eq!(
            single, sharded,
            "n_shards = 1 must reproduce run_population bit for bit"
        );
    }

    #[test]
    fn next_task_takes_own_front_then_steals_victim_back() {
        let deques: Vec<_> = [vec![0, 2], vec![1, 3, 5]]
            .into_iter()
            .map(|d| parking_lot::Mutex::new(VecDeque::from(d)))
            .collect();
        let taken: Vec<usize> = std::iter::from_fn(|| next_task(&deques, 0)).collect();
        assert_eq!(taken, [0, 2, 5, 3, 1]);
    }

    /// Two idle workers stealing from each other, as at the end of every
    /// epoch, must not deadlock. The test has its own time limit, so a
    /// deadlock fails it instead of hanging the suite.
    #[test]
    fn idle_workers_stealing_from_each_other_never_deadlock() {
        let deques: Arc<Vec<parking_lot::Mutex<VecDeque<usize>>>> = Arc::new(
            (0..2)
                .map(|_| parking_lot::Mutex::new(VecDeque::new()))
                .collect(),
        );
        let (done, finished) = std::sync::mpsc::channel();
        for w in 0..2 {
            let deques = Arc::clone(&deques);
            let done = done.clone();
            std::thread::spawn(move || {
                for _ in 0..100_000 {
                    assert_eq!(next_task(&deques, w), None);
                }
                let _ = done.send(());
            });
        }
        drop(done);
        for _ in 0..2 {
            finished
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("stealing workers deadlocked or panicked");
        }
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let cfg = PopulationConfig {
            days: 0.05,
            sessions_per_day: 1_500.0,
            ..PopulationConfig::smoke()
        };
        let a = run_population_sharded(&cfg, 4);
        let b = run_population_sharded(&cfg, 4);
        assert_eq!(a, b, "same seed and shard count must merge identically");
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let c = run_population_sharded(&cfg2, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn sharded_trace_is_canonical_and_statistically_sane() {
        let cfg = PopulationConfig {
            days: 0.1,
            sessions_per_day: 2_000.0,
            ..PopulationConfig::smoke()
        };
        let single = run_population(&cfg);
        let merged = run_population_sharded(&cfg, 4);

        // Session ids are dense and match vector positions; connections
        // are start-ordered; messages are arrival-ordered with valid
        // session references.
        for (i, c) in merged.connections.iter().enumerate() {
            assert_eq!(c.id.0, i as u64);
        }
        for w in merged.connections.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for i in 1..merged.messages.len() {
            assert!(merged.messages.time_at(i - 1) <= merged.messages.time_at(i));
        }
        for m in merged.messages.iter() {
            assert!((m.session.0 as usize) < merged.connections.len());
        }

        // Poisson superposition: 4 thinned streams at rate/4 carry the
        // same expected volume as the single full-rate stream.
        let s1 = single.stats();
        let s4 = merged.stats();
        let conn_ratio = s4.direct_connections as f64 / s1.direct_connections as f64;
        assert!(
            (0.75..1.35).contains(&conn_ratio),
            "sharded connection volume diverged: {} vs {}",
            s4.direct_connections,
            s1.direct_connections
        );
        // Query volumes are heavy-tailed (rare burst sessions dominate),
        // so compare them in absolute sanity terms rather than against the
        // single run: the merged trace must look like a normal campaign.
        assert!(s4.hop1_queries > 0);
        assert!(
            s4.query_messages > s4.hop1_queries,
            "relayed traffic missing"
        );
        let uf = s4.ultrapeer_fraction();
        assert!((0.25..0.55).contains(&uf), "ultrapeer fraction {uf}");
        let sessions = Sessions::from_trace(&merged);
        let ended = sessions.iter().filter(|s| s.end.is_some()).count();
        let quick = sessions
            .iter()
            .filter(|s| {
                s.duration()
                    .map(|d| d.as_secs_f64() < 64.0)
                    .unwrap_or(false)
            })
            .count() as f64;
        let frac = quick / ended as f64;
        assert!((0.6..0.8).contains(&frac), "quick fraction {frac}");
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

        // Sharded stats aggregate: popped sums, peak is a max.
        let (_, sharded) = run_population_sharded_with_stats(&cfg, 2);
        assert!(sharded.events_popped > 0);
        assert!(sharded.peak_queue_len > 0);
        assert!(sharded.peak_queue_len <= stats.events_popped);
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
