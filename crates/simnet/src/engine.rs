//! The actor-based simulation engine.
//!
//! Nodes implement [`Actor`] and interact exclusively through a [`Context`]:
//! sending messages with explicit or modeled latency, arming timers, and
//! spawning or removing nodes. A single [`Simulator`] owns the clock, the
//! event queue, the node table, and an engine-level RNG stream used for
//! latency sampling — all seeded, so identical seeds produce identical
//! executions.

use crate::event::EventQueue;
use crate::latency::LatencyModel;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Identifier of a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A simulated node.
///
/// Implementations must be `'static` (they are boxed into the node table)
/// and `Send`, so a whole simulator can move to another thread with its
/// node table.
pub trait Actor: Send {
    /// The message type exchanged in this simulation.
    type Msg;

    /// Called once when the node is installed.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A timer armed with `set_timer` has fired; `tag` is caller-defined.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64);

    /// Called when the node is removed from the simulation (by itself or by
    /// another node). No further callbacks will be invoked.
    fn on_stop(&mut self, _now: SimTime) {}
}

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped because the destination was gone.
    pub dropped: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Nodes spawned over the lifetime of the run.
    pub spawned: u64,
    /// Nodes removed.
    pub removed: u64,
    /// Events popped off the queue (delivered + dropped + timers,
    /// including timers whose node was gone).
    pub events_popped: u64,
    /// High-water mark of pending events — the queue pressure a run
    /// actually exerted.
    pub peak_queue_len: u64,
    /// Pushes that overflowed every hierarchical-wheel level (≳ 37
    /// hours out) into the 4-ary far heap.
    pub heap_spills: u64,
    /// Hierarchical-wheel level-down moves (L2→L1/L0, L1→L0) as time
    /// entered an event's chunk or frame.
    pub wheel_cascades: u64,
}

/// The simulation driver.
pub struct Simulator<M> {
    nodes: Vec<Option<Box<dyn Actor<Msg = M>>>>,
    queue: EventQueue<Event<M>>,
    now: SimTime,
    rng: StdRng,
    stats: SimStats,
}

/// Deferred structural changes produced during a dispatch.
struct Pending<M> {
    spawns: Vec<(NodeId, Box<dyn Actor<Msg = M>>)>,
    removals: Vec<NodeId>,
}

/// Per-dispatch view handed to actor callbacks.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: NodeId,
    queue: &'a mut EventQueue<Event<M>>,
    pending: &'a mut Pending<M>,
    next_node: &'a mut u32,
    rng: &'a mut StdRng,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node being dispatched.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Send `msg` to `to`, delivered after `delay`.
    pub(crate) fn send_after(&mut self, to: NodeId, msg: M, delay: SimDuration) {
        let from = self.self_id;
        self.queue
            .push(self.now + delay, Event::Deliver { from, to, msg });
    }

    /// As `Context::send_after`, but with an explicit `(lane, key)`
    /// ordering pair: deliveries landing on the same millisecond pop in
    /// ascending `(lane, key)` order. Actors that key every send with
    /// their own node id and a local send counter make tie order a pure
    /// function of visible behavior — the contract the hybrid-fidelity
    /// engine replays.
    pub fn send_after_keyed(
        &mut self,
        to: NodeId,
        msg: M,
        delay: SimDuration,
        lane: u32,
        key: u64,
    ) {
        let from = self.self_id;
        self.queue.push_keyed(
            self.now + delay,
            lane,
            key,
            Event::Deliver { from, to, msg },
        );
    }

    /// Send `msg` to `to` with delay drawn from `latency`.
    pub fn send(&mut self, to: NodeId, msg: M, latency: &LatencyModel) {
        let d = latency.sample(self.rng);
        self.send_after(to, msg, d);
    }

    /// Arm a timer on the current node firing after `delay` with `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let node = self.self_id;
        self.queue
            .push(self.now + delay, Event::Timer { node, tag });
    }

    /// As [`Context::set_timer`], but with an explicit `(lane, key)`
    /// ordering pair (see [`Context::send_after_keyed`]).
    pub fn set_timer_keyed(&mut self, delay: SimDuration, tag: u64, lane: u32, key: u64) {
        let node = self.self_id;
        self.queue
            .push_keyed(self.now + delay, lane, key, Event::Timer { node, tag });
    }

    /// Install a new node; it receives `on_start` before the next event.
    pub fn spawn(&mut self, actor: Box<dyn Actor<Msg = M>>) -> NodeId {
        let id = NodeId(*self.next_node);
        *self.next_node += 1;
        self.pending.spawns.push((id, actor));
        id
    }

    /// Remove a node after this dispatch completes.
    pub(crate) fn remove(&mut self, node: NodeId) {
        self.pending.removals.push(node);
    }

    /// Remove the current node after this dispatch completes.
    pub fn remove_self(&mut self) {
        let id = self.self_id;
        self.remove(id);
    }
}

impl<M: 'static> Simulator<M> {
    /// Create an empty simulation with an engine RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
        }
    }

    /// Execution statistics so far (queue counters folded in).
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_popped: self.queue.popped(),
            peak_queue_len: self.queue.peak_len() as u64,
            heap_spills: self.queue.far_pushed(),
            wheel_cascades: self.queue.cascades(),
            ..self.stats
        }
    }

    /// Install a node from outside the simulation (before/between runs).
    pub fn add_node(&mut self, actor: Box<dyn Actor<Msg = M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(actor));
        self.stats.spawned += 1;
        self.run_on_start(id);
        id
    }

    fn run_on_start(&mut self, id: NodeId) {
        self.dispatch_with(id, |actor, ctx| actor.on_start(ctx));
    }

    /// Dispatch a single callback on node `id` with a fresh context, then
    /// apply pending structural changes.
    fn dispatch_with(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn Actor<Msg = M>, &mut Context<'_, M>),
    ) {
        let idx = id.0 as usize;
        let Some(slot) = self.nodes.get_mut(idx) else {
            return;
        };
        let Some(mut actor) = slot.take() else {
            return;
        };
        let mut pending = Pending {
            spawns: Vec::new(),
            removals: Vec::new(),
        };
        let mut next_node = self.nodes.len() as u32;
        {
            let mut ctx = Context {
                now: self.now,
                self_id: id,
                queue: &mut self.queue,
                pending: &mut pending,
                next_node: &mut next_node,
                rng: &mut self.rng,
            };
            f(actor.as_mut(), &mut ctx);
        }
        // Put the actor back (unless it asked to be removed below).
        self.nodes[idx] = Some(actor);

        // Apply spawns: ids were assigned contiguously from the old length.
        for (nid, new_actor) in pending.spawns {
            debug_assert_eq!(nid.0 as usize, self.nodes.len());
            self.nodes.push(Some(new_actor));
            self.stats.spawned += 1;
            self.run_on_start(nid);
        }
        // Apply removals.
        for rid in pending.removals {
            if let Some(slot) = self.nodes.get_mut(rid.0 as usize) {
                if let Some(mut gone) = slot.take() {
                    gone.on_stop(self.now);
                    self.stats.removed += 1;
                }
            }
        }
    }

    /// Dispatch one popped event.
    fn dispatch_event(&mut self, at: SimTime, ev: Event<M>) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match ev {
            Event::Timer { node, tag } => {
                if self.nodes.get(node.0 as usize).map(|s| s.is_some()) == Some(true) {
                    self.stats.timers_fired += 1;
                    self.dispatch_with(node, |actor, ctx| actor.on_timer(ctx, tag));
                }
            }
            Event::Deliver { from, to, msg } => {
                if self.nodes.get(to.0 as usize).map(|s| s.is_some()) == Some(true) {
                    self.stats.delivered += 1;
                    self.dispatch_with(to, |actor, ctx| actor.on_message(ctx, from, msg));
                } else {
                    self.stats.dropped += 1;
                }
            }
        }
    }

    /// Run until the queue drains or the clock passes `until`.
    /// The clock is left at `min(until, last event time)`.
    ///
    /// Pops with the queue's bounded `pop_at_or_before`, which checks
    /// `until` against the minimum its cursor-bucket walk finds anyway,
    /// so events past `until` are never popped.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((at, ev)) = self.queue.pop_at_or_before(until) {
            self.dispatch_event(at, ev);
        }
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch every pending event in order, until the queue is empty.
    fn drain<M: 'static>(sim: &mut Simulator<M>) {
        while let Some((at, ev)) = sim.queue.pop() {
            sim.dispatch_event(at, ev);
        }
    }

    /// A ping-pong pair: counts round trips, stops after `max`.
    struct PingPong {
        peer: Option<NodeId>,
        rounds: u32,
        max: u32,
        log: Vec<SimTime>,
    }

    impl Actor for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if let Some(peer) = self.peer {
                ctx.send_after(peer, 0, SimDuration::from_millis(10));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.rounds += 1;
            self.log.push(ctx.now());
            if msg < self.max {
                ctx.send_after(from, msg + 1, SimDuration::from_millis(10));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, _tag: u64) {}
    }

    #[test]
    fn ping_pong_exchanges() {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let a = sim.add_node(Box::new(PingPong {
            peer: None,
            rounds: 0,
            max: 10,
            log: vec![],
        }));
        let _b = sim.add_node(Box::new(PingPong {
            peer: Some(a),
            rounds: 0,
            max: 10,
            log: vec![],
        }));
        drain(&mut sim);
        // 11 messages total (0..=10), alternating.
        assert_eq!(sim.stats().delivered, 11);
        assert_eq!(sim.now, SimTime::from_millis(110));
        // Queue counters surface through stats: every delivery was popped,
        // and at most one message was ever in flight.
        assert_eq!(sim.stats().events_popped, 11);
        assert_eq!(sim.stats().peak_queue_len, 1);
    }

    /// Spawner: spawns a child on start; the child removes itself when
    /// messaged; messages to it afterwards are dropped.
    struct Spawner {
        child: Option<NodeId>,
    }
    struct Child;

    impl Actor for Child {
        type Msg = &'static str;
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, &'static str>,
            _from: NodeId,
            msg: &'static str,
        ) {
            if msg == "die" {
                ctx.remove_self();
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, &'static str>, _tag: u64) {}
    }

    impl Actor for Spawner {
        type Msg = &'static str;
        fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
            let child = ctx.spawn(Box::new(Child));
            self.child = Some(child);
            ctx.send_after(child, "die", SimDuration::from_millis(5));
            ctx.send_after(child, "late", SimDuration::from_millis(10));
        }
        fn on_message(
            &mut self,
            _ctx: &mut Context<'_, &'static str>,
            _from: NodeId,
            _msg: &'static str,
        ) {
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, &'static str>, _tag: u64) {}
    }

    #[test]
    fn spawn_and_remove() {
        let mut sim: Simulator<&'static str> = Simulator::new(3);
        sim.add_node(Box::new(Spawner { child: None }));
        drain(&mut sim);
        let s = sim.stats();
        assert_eq!(s.spawned, 2);
        assert_eq!(s.removed, 1);
        assert_eq!(s.delivered, 1); // "die"
        assert_eq!(s.dropped, 1); // "late"
        assert_eq!(sim.nodes.iter().filter(|n| n.is_some()).count(), 1);
    }

    #[test]
    fn run_until_advances_clock() {
        let mut sim: Simulator<()> = Simulator::new(4);
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.now, SimTime::from_secs(100));
        assert!(sim.queue.is_empty());
    }

    #[test]
    fn determinism_same_seed() {
        fn run(seed: u64) -> (u64, SimTime) {
            let mut sim: Simulator<u32> = Simulator::new(seed);
            let a = sim.add_node(Box::new(PingPong {
                peer: None,
                rounds: 0,
                max: 50,
                log: vec![],
            }));
            sim.add_node(Box::new(PingPong {
                peer: Some(a),
                rounds: 0,
                max: 50,
                log: vec![],
            }));
            drain(&mut sim);
            (sim.stats().delivered, sim.now)
        }
        assert_eq!(run(9), run(9));
    }
}
