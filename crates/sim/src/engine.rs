//! The discrete-event engine: event queue, world, agent dispatch.
//!
//! Deterministic by construction: time is integer nanoseconds, ties are
//! broken by insertion sequence, and the only randomness flows through the
//! world's seeded RNG. Every world holds one event queue, a
//! [`TimerWheelScheduler`] inline; its `(time_ns, seq)` drain order is
//! checked op by op against the `BinaryHeap` oracle in [`crate::sched`].

use crate::arena::Slab;
use crate::link::{Link, LinkConfig, LinkStats, QueueSlot};
use crate::packet::{AgentId, LinkId, Packet};
use crate::sched::{Scheduler, TimerWheelScheduler};
use crate::time::{ns_to_secs, secs_to_ns};
use crate::rng::SimRng;
use std::any::Any;

/// Things that can happen. Packets travel as handles into the session's
/// packet arena, so a wheel record carries 16 bytes of event, not a
/// whole [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The head-of-line packet of `link` finished serializing.
    LinkDone { link: u32 },
    /// Packet `pkt` arrives at its next hop (link or destination agent).
    Arrive { pkt: u32 },
    /// Agent timer with an agent-defined token.
    Timer { agent: u32, token: u64 },
}

// A field that re-bloats either per-event record must fail the build.
const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(std::mem::size_of::<QueueSlot>() == 8);

/// Everything one session owns except its agents and its event queue:
/// local clock, links, packet arena, RNG and event counters — the part of
/// a [`World`] an agent callback may touch through [`Ctx`] while the agent
/// itself is borrowed out of the agents vector.
///
/// Ownership rule of the arena: a live packet handle is in exactly one of
/// a link queue or a pending `Arrive` event. A drop frees it at the offer
/// site; delivery moves the packet out to the callee.
struct SessionCore {
    now_ns: u64,
    links: Vec<Link>,
    packets: Slab<Packet>,
    rng: SimRng,
    /// Events dispatched (a plain, always-on counter for throughput), their
    /// split by kind, and the timer fires agents report stale or early.
    events_processed: u64,
    link_done: u64,
    forward: u64,
    deliver: u64,
    timer: u64,
    timer_stale: u64,
    timer_early: u64,
}

impl SessionCore {
    /// Fresh per-session state seeded from `seed`, clock at zero.
    fn fresh(seed: u64) -> Self {
        SessionCore {
            now_ns: 0,
            links: Vec::new(),
            packets: Slab::new(),
            rng: SimRng::seed_from_u64(seed),
            events_processed: 0,
            link_done: 0,
            forward: 0,
            deliver: 0,
            timer: 0,
            timer_stale: 0,
            timer_early: 0,
        }
    }
}

/// A reserved `(time_ns, seq)`: where an event scheduled at reservation dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerKey(u64, u64);

/// A session's event queue: the timer wheel plus the session's
/// insertion-sequence counter. Every event's `(time, seq)` dispatch key
/// comes from [`EventQueue::reserve`], which hands out each `seq` once.
#[derive(Default)]
struct EventQueue {
    sched: TimerWheelScheduler<Event>,
    seq: u64,
}

impl EventQueue {
    /// Take the next `seq` for a deadline of `at_ns` (clamped to `now_ns`).
    #[inline]
    fn reserve(&mut self, now_ns: u64, at_ns: u64) -> TimerKey {
        self.seq += 1;
        TimerKey(at_ns.max(now_ns), self.seq - 1)
    }

    /// Insert `event` at a reserved key not behind the last pop.
    #[inline]
    fn push(&mut self, TimerKey(time_ns, seq): TimerKey, event: Event) {
        self.sched.schedule(time_ns, seq, event);
    }

    /// Schedule `event` at `at_ns` (clamped to `now_ns`).
    #[inline]
    fn schedule(&mut self, now_ns: u64, at_ns: u64, event: Event) {
        let key = self.reserve(now_ns, at_ns);
        self.push(key, event);
    }
}

/// Put the packet with arena handle `pkt` onto its next link (or deliver
/// directly when routeless). A dropped packet's slot is freed here.
#[inline]
fn route_packet(core: &mut SessionCore, queue: &mut EventQueue, pkt: u32) {
    let p = core.packets.get(pkt).expect("routed packet is live");
    match p.next_link() {
        None => {
            // Already at the destination: deliver immediately.
            queue.schedule(core.now_ns, core.now_ns, Event::Arrive { pkt });
        }
        Some(link_id) => {
            let size = p.size;
            let link = &mut core.links[link_id];
            let was_busy = link.busy;
            let (u_loss, u_red) = (core.rng.next_f64(), core.rng.next_f64());
            if !link.offer(pkt, size, u_loss, u_red) {
                core.packets.remove(pkt);
            } else if !was_busy {
                // An idle link's queue was empty: this packet is its head.
                link.busy = true;
                let done = core.now_ns.saturating_add(link.tx_ns(size));
                let link = link_id as u32;
                queue.schedule(core.now_ns, done, Event::LinkDone { link });
            }
        }
    }
}

/// The execution context handed to agents.
pub struct Ctx<'a> {
    /// Current simulation time (seconds).
    pub now: f64,
    /// The agent being dispatched.
    pub agent_id: AgentId,
    core: &'a mut SessionCore,
    queue: &'a mut EventQueue,
}

impl<'a> Ctx<'a> {
    /// Transmit a packet along its route.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        let pkt = self.core.packets.insert(pkt);
        route_packet(self.core, self.queue, pkt);
    }

    /// Arm a timer to fire at absolute time `at` seconds.
    #[inline]
    pub fn set_timer_at(&mut self, at: f64, token: u64) {
        let key = self.reserve_timer_at(at);
        self.set_timer_key(key, token);
    }

    /// Reserve now the key a timer for `at` seconds would take, unscheduled.
    pub fn reserve_timer_at(&mut self, at: f64) -> TimerKey {
        let at_ns = secs_to_ns(at.max(0.0));
        self.queue.reserve(self.core.now_ns, at_ns)
    }

    /// Schedule timer `token` at a reserved key not behind the clock.
    pub fn set_timer_key(&mut self, key: TimerKey, token: u64) {
        debug_assert!(key.0 >= self.core.now_ns, "timer key behind the clock");
        let agent = self.agent_id as u32;
        self.queue.push(key, Event::Timer { agent, token });
    }

    /// Count a timer fire that did nothing (`engine.events.timer_stale`).
    pub fn count_stale_timer(&mut self) {
        self.core.timer_stale += 1;
    }

    /// Count a soft-timer fire before its f64 target (`engine.events.timer_early`).
    pub fn count_early_timer(&mut self) {
        self.core.timer_early += 1;
    }

    /// Arm a timer to fire `delay` seconds from now.
    pub fn set_timer_after(&mut self, delay: f64, token: u64) {
        self.set_timer_at(self.now + delay.max(0.0), token);
    }

    /// Queue length of a link (packets), for diagnostics.
    pub fn link_queue_len(&self, link: LinkId) -> usize {
        self.core.links[link].queue.len()
    }

    /// Current configuration of a link.
    pub fn link_config(&self, link: LinkId) -> LinkConfig {
        *self.core.links[link].cfg()
    }

    /// Change a link's bandwidth at runtime (fault injection). The engine
    /// reads the configuration when each packet *starts* serializing, so a
    /// packet already in flight finishes at its old speed — exactly the
    /// physical behaviour of a rate change mid-transmission.
    pub fn set_link_bandwidth(&mut self, link: LinkId, bandwidth: f64) {
        self.core.links[link].set_bandwidth(bandwidth);
    }

    /// Change a link's propagation delay at runtime (RTT-spike injection).
    /// Applies to packets that *finish* serializing after the change;
    /// packets already propagating keep their old arrival time, so packet
    /// order on the wire can invert during a spike — as on a real rerouted
    /// path.
    pub fn set_link_delay(&mut self, link: LinkId, delay: f64) {
        self.core.links[link].set_delay(delay);
    }

    /// Change a link's random (non-congestive) loss probability at runtime
    /// (burst-loss injection). Clamped to `[0, 1]`.
    pub fn set_link_loss_rate(&mut self, link: LinkId, loss_rate: f64) {
        self.core.links[link].set_loss_rate(loss_rate);
    }
}

/// A network endpoint or middlebox with protocol behaviour.
///
/// `Any` is a supertrait so [`World::agent`] can downcast a `dyn Agent` to
/// its concrete type (stats extraction after a run).
pub trait Agent: Any {
    /// Called once when the simulation starts.
    fn start(&mut self, _ctx: &mut Ctx) {}
    /// A packet addressed to this agent arrived.
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet);
    /// A timer armed by this agent fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}
}

/// The simulated world: links, agents, and the event loop.
pub struct World {
    core: SessionCore,
    queue: EventQueue,
    agents: Vec<Option<Box<dyn Agent>>>,
    started: bool,
}

impl World {
    /// New world with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            core: SessionCore::fresh(seed),
            queue: EventQueue::default(),
            agents: Vec::new(),
            started: false,
        }
    }

    /// Add a link; returns its id.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        self.core.links.push(Link::new(cfg));
        self.core.links.len() - 1
    }

    /// Add an agent; returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        self.agents.push(Some(agent));
        self.agents.len() - 1
    }

    /// Current simulation time (seconds).
    pub fn now(&self) -> f64 {
        ns_to_secs(self.core.now_ns)
    }

    /// Total events dispatched by [`World::run_until`] so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Counters of a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.core.links[link].stats
    }

    /// Current configuration of a link (reflects any runtime mutation done
    /// through [`Ctx::set_link_bandwidth`] and friends).
    pub fn link_config(&self, link: LinkId) -> LinkConfig {
        *self.core.links[link].cfg()
    }

    /// Typed view of an agent (e.g. to pull stats after a run).
    pub fn agent<T: 'static>(&self, id: AgentId) -> Option<&T> {
        let agent: &dyn Any = self.agents.get(id)?.as_deref()?;
        agent.downcast_ref()
    }

    /// Typed mutable view of an agent.
    pub fn agent_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        let agent: &mut dyn Any = self.agents.get_mut(id)?.as_deref_mut()?;
        agent.downcast_mut()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.agents.len() {
            let (agents, core, queue) = (&mut self.agents, &mut self.core, &mut self.queue);
            dispatch_agent(agents, core, queue, id, |a, ctx| a.start(ctx));
        }
    }

    /// Run the event loop until simulated time `t_end` seconds (events at
    /// exactly `t_end` are processed).
    pub fn run_until(&mut self, t_end: f64) {
        self.ensure_started();
        let end_ns = secs_to_ns(t_end);
        let c = &self.core;
        let start = [c.events_processed, c.link_done, c.forward, c.deliver, c.timer];
        let idle = [c.timer_stale, c.timer_early];
        while let Some((time_ns, _, event)) = self.queue.sched.pop_next_at_or_before(end_ns) {
            self.core.now_ns = time_ns;
            self.core.events_processed += 1;
            let timed = if laqa_obs::enabled() {
                laqa_obs::histogram!(
                    "engine.queue_depth",
                    &[8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0]
                )
                .observe(self.queue.sched.len() as f64);
                Some(std::time::Instant::now())
            } else {
                None
            };
            dispatch_event(&mut self.core, &mut self.agents, &mut self.queue, event);
            if let Some(t0) = timed {
                laqa_obs::histogram!("sched.dispatch_ns", laqa_obs::LOG_NS_BOUNDS)
                    .observe(t0.elapsed().as_nanos() as f64);
            }
        }
        self.core.now_ns = self.core.now_ns.max(end_ns);
        if laqa_obs::enabled() {
            let c = &self.core;
            laqa_obs::counter!("engine.events").add(c.events_processed - start[0]);
            laqa_obs::counter!("engine.events.link_done").add(c.link_done - start[1]);
            laqa_obs::counter!("engine.events.forward").add(c.forward - start[2]);
            laqa_obs::counter!("engine.events.deliver").add(c.deliver - start[3]);
            laqa_obs::counter!("engine.events.timer").add(c.timer - start[4]);
            laqa_obs::counter!("engine.events.timer_stale").add(c.timer_stale - idle[0]);
            laqa_obs::counter!("engine.events.timer_early").add(c.timer_early - idle[1]);
        }
    }
}

/// Run one agent callback with a freshly assembled [`Ctx`]. The agent box
/// is taken out of its slot for the duration of the call (so the agent
/// can schedule, send, and mutate links through `ctx` while borrowed) and
/// restored afterwards.
#[inline]
fn dispatch_agent(
    agents: &mut [Option<Box<dyn Agent>>],
    core: &mut SessionCore,
    queue: &mut EventQueue,
    id: AgentId,
    f: impl FnOnce(&mut dyn Agent, &mut Ctx),
) {
    let Some(slot) = agents.get_mut(id) else {
        return;
    };
    let Some(mut agent) = slot.take() else { return };
    {
        let mut ctx = Ctx {
            now: ns_to_secs(core.now_ns),
            agent_id: id,
            core,
            queue,
        };
        f(agent.as_mut(), &mut ctx);
    }
    agents[id] = Some(agent);
}

/// Process one engine [`Event`] against a session's state. `core.now_ns`
/// must already be set to the event's time.
#[inline]
fn dispatch_event(
    core: &mut SessionCore,
    agents: &mut [Option<Box<dyn Agent>>],
    queue: &mut EventQueue,
    event: Event,
) {
    match event {
        Event::LinkDone { link } => {
            core.link_done += 1;
            let l = &mut core.links[link as usize];
            let (pkt, size) = l.queue.pop_front().expect("busy link has head");
            l.stats.bytes_out += size as u64;
            let next = l.queue.front().map(|&(_, size)| size);
            l.busy = next.is_some();
            let arrive = core.now_ns.saturating_add(l.delay_ns());
            let next_done = next.map(|size| core.now_ns.saturating_add(l.tx_ns(size)));
            core.packets.get_mut(pkt).expect("queued packet is live").advance_hop();
            queue.schedule(core.now_ns, arrive, Event::Arrive { pkt });
            if let Some(done) = next_done {
                queue.schedule(core.now_ns, done, Event::LinkDone { link });
            }
        }
        Event::Arrive { pkt } => {
            let p = core.packets.get(pkt).expect("arriving packet is live");
            if p.at_destination() {
                core.deliver += 1;
                let pkt = core.packets.remove(pkt).expect("checked live");
                let id = pkt.dst;
                dispatch_agent(agents, core, queue, id, |a, ctx| a.on_packet(ctx, pkt));
            } else {
                core.forward += 1;
                route_packet(core, queue, pkt);
            }
        }
        Event::Timer { agent, token } => {
            core.timer += 1;
            dispatch_agent(agents, core, queue, agent as usize, |a, ctx| a.on_timer(ctx, token));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::cbr::{CbrAgent, CountingSink};
    use crate::link::{LinkTracePoint, QueueKind, RedConfig, TraceDriver, TraceSchedule};
    use crate::time::tx_time_ns;
    use crate::packet::{PacketKind, Route};

    /// Test agent: sends `count` packets to `peer` at `interval`, records
    /// arrivals with timestamps.
    struct Pinger {
        peer: AgentId,
        route: Route,
        count: u32,
        interval: f64,
        sent: u32,
    }
    struct Sink {
        arrivals: Vec<f64>,
    }

    impl Agent for Pinger {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(0.0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            if self.sent >= self.count {
                return;
            }
            ctx.send(Packet {
                flow: 1,
                size: 1_000,
                kind: PacketKind::Cbr,
                dst: self.peer,
                route: self.route.clone(),
                hop: 0,
            });
            self.sent += 1;
            ctx.set_timer_after(self.interval, 0);
        }
    }

    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx, _pkt: Packet) {
            self.arrivals.push(ctx.now);
        }
    }

    #[test]
    fn packets_traverse_link_with_tx_plus_prop_delay() {
        let mut w = World::new(1);
        // 100 KB/s, 10 ms delay: a 1000 B packet takes 10 ms + 10 ms.
        let l = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.01,
            queue_packets: 100,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l].into(),
            count: 1,
            interval: 1.0,
            sent: 0,
        }));
        w.run_until(1.0);
        let s: &Sink = w.agent(sink).unwrap();
        assert_eq!(s.arrivals.len(), 1);
        assert!(
            (s.arrivals[0] - 0.02).abs() < 1e-9,
            "arrival {}",
            s.arrivals[0]
        );
    }

    #[test]
    fn serialization_spaces_back_to_back_packets() {
        let mut w = World::new(1);
        let l = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.0,
            queue_packets: 100,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l].into(),
            count: 3,
            interval: 0.0, // all at t=0
            sent: 0,
        }));
        w.run_until(1.0);
        let s: &Sink = w.agent(sink).unwrap();
        assert_eq!(s.arrivals.len(), 3);
        // 10 ms serialization each: arrivals at 10, 20, 30 ms.
        for (i, &t) in s.arrivals.iter().enumerate() {
            assert!(
                (t - 0.01 * (i + 1) as f64).abs() < 1e-9,
                "arrival {i} at {t}"
            );
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let mut w = World::new(1);
        let l = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.0,
            queue_packets: 1,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l].into(),
            count: 5,
            interval: 0.0,
            sent: 0,
        }));
        w.run_until(1.0);
        // 1 in service + 1 queued accepted; 3 dropped.
        assert_eq!(w.link_stats(l).dropped, 3);
        let s: &Sink = w.agent(sink).unwrap();
        assert_eq!(s.arrivals.len(), 2);
    }

    #[test]
    fn multi_hop_route() {
        let mut w = World::new(1);
        let l1 = w.add_link(LinkConfig {
            bandwidth: 1e6,
            delay: 0.005,
            queue_packets: 10,
            ..LinkConfig::default()
        });
        let l2 = w.add_link(LinkConfig {
            bandwidth: 1e6,
            delay: 0.005,
            queue_packets: 10,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l1, l2].into(),
            count: 1,
            interval: 1.0,
            sent: 0,
        }));
        w.run_until(1.0);
        let s: &Sink = w.agent(sink).unwrap();
        assert_eq!(s.arrivals.len(), 1);
        // 2 × (1 ms tx + 5 ms prop) = 12 ms.
        assert!((s.arrivals[0] - 0.012).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = World::new(42);
            let l = w.add_link(LinkConfig {
                bandwidth: 50_000.0,
                delay: 0.003,
                queue_packets: 3,
                ..LinkConfig::default()
            });
            let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
            let _ = w.add_agent(Box::new(Pinger {
                peer: sink,
                route: vec![l].into(),
                count: 50,
                interval: 0.013,
                sent: 0,
            }));
            w.run_until(2.0);
            w.agent::<Sink>(sink).unwrap().arrivals.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn direct_delivery_without_route() {
        let mut w = World::new(1);
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![].into(),
            count: 1,
            interval: 1.0,
            sent: 0,
        }));
        w.run_until(0.5);
        assert_eq!(w.agent::<Sink>(sink).unwrap().arrivals.len(), 1);
    }

    #[test]
    fn time_advances_to_run_end() {
        let mut w = World::new(1);
        w.run_until(3.5);
        assert!((w.now() - 3.5).abs() < 1e-9);
    }

    /// Agent that rewrites a link's configuration at each step's time:
    /// `(at, bandwidth, delay, loss rate)`, recording the configuration it
    /// found before each step.
    struct Mutator {
        link: LinkId,
        steps: Vec<(f64, f64, f64, f64)>,
        observed: Vec<LinkConfig>,
    }

    impl Agent for Mutator {
        fn start(&mut self, ctx: &mut Ctx) {
            for (i, step) in self.steps.iter().enumerate() {
                ctx.set_timer_at(step.0, i as u64);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, i: u64) {
            let (_, bandwidth, delay, loss_rate) = self.steps[i as usize];
            self.observed.push(ctx.link_config(self.link));
            ctx.set_link_bandwidth(self.link, bandwidth);
            ctx.set_link_delay(self.link, delay);
            ctx.set_link_loss_rate(self.link, loss_rate);
        }
    }

    /// Sends one packet of each `(at, size)` to `peer` over `route`.
    struct Script {
        peer: AgentId,
        route: Route,
        sends: Vec<(f64, u32)>,
    }

    impl Agent for Script {
        fn start(&mut self, ctx: &mut Ctx) {
            for (i, &(at, _)) in self.sends.iter().enumerate() {
                ctx.set_timer_at(at, i as u64);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, i: u64) {
            ctx.send(Packet {
                flow: i as u32,
                size: self.sends[i as usize].1,
                kind: PacketKind::Cbr,
                dst: self.peer,
                route: self.route.clone(),
                hop: 0,
            });
        }
    }

    /// Bandwidth is read when a packet starts serializing and delay when it
    /// finishes, so every arrival lands at exactly `start + tx_time_ns(size,
    /// bandwidth) + secs_to_ns(delay)` of the values current then — also
    /// when the bandwidth returns to an earlier value, the size changes, or
    /// a trace point rewrites the bandwidth and leaves the delay alone.
    #[test]
    fn runtime_link_mutation_applies_to_later_packets() {
        let mut w = World::new(1);
        let l = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.01,
            queue_packets: 100,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        w.add_agent(Box::new(Script {
            peer: sink,
            route: vec![l].into(),
            sends: vec![
                (0.0, 1_000), // 100 KB/s, 10 ms
                (0.1, 1_000), // lost: loss rate 1
                (0.2, 1_000), // 50 KB/s, 50 ms
                (0.4, 1_000), // back to 100 KB/s, still 50 ms
                (0.5, 400),   // a new size, starting at the idle link...
                (0.5, 1_000), // ...and the old one behind it, at link-done
                (0.7, 400),   // 2 ms delay
                (0.8, 1_000), // serializing while the delay becomes 30 ms
            ],
        }));
        let m = w.add_agent(Box::new(Mutator {
            link: l,
            steps: vec![
                (0.05, 50_000.0, 0.05, 2.0), // loss clamps to 1
                (0.15, 50_000.0, 0.05, 0.0),
                (0.6, 100_000.0, 0.002, 0.0),
                (0.805, 100_000.0, 0.03, 0.0),
            ],
            observed: vec![],
        }));
        // The trace restores the bandwidth; the mutator's delay survives it.
        let trace = TraceSchedule::from_points(vec![LinkTracePoint {
            at: 0.3,
            bandwidth: 100_000.0,
        }]);
        w.add_agent(Box::new(TraceDriver::new(l, trace.unwrap())));
        w.run_until(1.0);
        let ms = |t: u64| t * 1_000_000;
        let hop = |start_ns, size, bw, delay| start_ns + tx_time_ns(size, bw) + secs_to_ns(delay);
        let second_start = ms(500) + tx_time_ns(400, 100_000.0);
        let want: Vec<f64> = [
            hop(0, 1_000, 100_000.0, 0.01),
            hop(ms(200), 1_000, 50_000.0, 0.05),
            hop(ms(400), 1_000, 100_000.0, 0.05),
            hop(ms(500), 400, 100_000.0, 0.05),
            hop(second_start, 1_000, 100_000.0, 0.05),
            hop(ms(700), 400, 100_000.0, 0.002),
            hop(ms(800), 1_000, 100_000.0, 0.03),
        ]
        .into_iter()
        .map(ns_to_secs)
        .collect();
        assert_eq!(w.agent::<Sink>(sink).unwrap().arrivals, want);
        assert_eq!(w.link_stats(l).random_losses, 1);
        let cfg = w.link_config(l);
        assert_eq!(
            (cfg.bandwidth, cfg.delay, cfg.loss_rate),
            (100_000.0, 0.03, 0.0)
        );
        let m: &Mutator = w.agent(m).unwrap();
        assert_eq!(
            m.observed[0].bandwidth, 100_000.0,
            "pre-mutation view intact"
        );
        assert_eq!(m.observed[1].loss_rate, 1.0, "loss rate clamped to 1");
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be finite and positive")]
    fn add_link_rejects_a_bandwidth_of_zero() {
        World::new(1).add_link(LinkConfig {
            bandwidth: 0.0,
            ..LinkConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "link delay must be finite and non-negative")]
    fn add_link_rejects_a_nan_delay() {
        World::new(1).add_link(LinkConfig {
            delay: f64::NAN,
            ..LinkConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "link loss rate must be finite")]
    fn add_link_rejects_an_infinite_loss_rate() {
        World::new(1).add_link(LinkConfig {
            loss_rate: f64::INFINITY,
            ..LinkConfig::default()
        });
    }

    /// Records every callback as `(now, what)`: the arriving packet's
    /// flow, or 0 for its own timer, armed at `timer_at`.
    struct Log {
        timer_at: f64,
        seen: Vec<(f64, u32)>,
    }

    impl Agent for Log {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(self.timer_at, 0);
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.seen.push((ctx.now, pkt.flow));
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.seen.push((ctx.now, 0));
        }
    }

    /// Sends one 1000-byte packet per `(flow, route)` at start, in order.
    struct Burst {
        dst: AgentId,
        sends: Vec<(u32, Route)>,
    }

    impl Agent for Burst {
        fn start(&mut self, ctx: &mut Ctx) {
            for (flow, route) in &self.sends {
                ctx.send(Packet {
                    flow: *flow,
                    size: 1_000,
                    kind: PacketKind::Cbr,
                    dst: self.dst,
                    route: route.clone(),
                    hop: 0,
                });
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
    }

    #[test]
    fn same_ns_ties_break_by_event_creation_order() {
        let link = |bandwidth, delay| LinkConfig {
            bandwidth,
            delay,
            ..LinkConfig::default()
        };
        let mut w = World::new(1);
        // 10 ms serialization + 10 ms propagation: arrives at 20 ms.
        let l20 = w.add_link(link(100_000.0, 0.010));
        // 10 + 15 ms and 20 + 5 ms: both arrive at 25 ms, but the
        // first link finishes serializing 10 ms earlier.
        let early_done = w.add_link(link(100_000.0, 0.015));
        let late_done = w.add_link(link(50_000.0, 0.005));
        // The sender starts first, so the 20 ms packet is *sent*
        // before the log arms its 20 ms timer — but its `Arrive` is
        // created only at link-done (10 ms), after the timer.
        let log = Log {
            timer_at: 0.020,
            seen: vec![],
        };
        let log_id = w.agents.len() + 1;
        w.add_agent(Box::new(Burst {
            dst: log_id,
            // The late link-done packet is sent (and allocated) first.
            sends: vec![
                (2, vec![late_done].into()),
                (1, vec![l20].into()),
                (3, vec![early_done].into()),
            ],
        }));
        assert_eq!(w.add_agent(Box::new(log)), log_id);
        w.run_until(1.0);
        let seen = &w.agent::<Log>(log_id).unwrap().seen;
        assert_eq!(seen, &[(0.020, 0), (0.020, 1), (0.025, 3), (0.025, 2)]);
    }

    /// Callbacks of the exactness worlds, in dispatch order: (time, who,
    /// what), shared by every agent of one world.
    type Shared = std::rc::Rc<std::cell::RefCell<Vec<(f64, &'static str, u64)>>>;

    /// Timer `j` at `j · 10 ms`, each armed `ahead` ticks early: its key
    /// is reserved at a feeder send, before or after the watchdog reserves
    /// a deadline on the same ns.
    struct Metronome {
        ahead: u64,
        until: u64,
        log: Shared,
    }

    impl Agent for Metronome {
        fn start(&mut self, ctx: &mut Ctx) {
            for j in 1..=self.ahead {
                ctx.set_timer_at(j as f64 * 0.01, j);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, j: u64) {
            self.log.borrow_mut().push((ctx.now, "tick", j));
            if j + self.ahead <= self.until {
                ctx.set_timer_at((j + self.ahead) as f64 * 0.01, j + self.ahead);
            }
        }
    }

    /// Delivers packet `k` to `dst` at `k · 10 ms` in bursts of 9 with
    /// gaps of 8 ticks, long enough for the watchdog to time out.
    struct Feeder {
        dst: AgentId,
        until: u64,
    }

    impl Agent for Feeder {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(0.0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, k: u64) {
            if k % 17 < 9 {
                ctx.send(Packet {
                    flow: k as u32,
                    size: 100,
                    kind: PacketKind::Cbr,
                    dst: self.dst,
                    route: vec![].into(),
                    hop: 0,
                });
            }
            if k < self.until {
                ctx.set_timer_at((k + 1) as f64 * 0.01, k + 1);
            }
        }
    }

    /// Re-arms a timeout on every callback: 30 ms after every third
    /// packet (the deadline moves earlier), 50 ms otherwise. `lazy` keeps
    /// one live event at reserved keys, as `TcpAgent`'s RTO does; else
    /// every arm schedules and stale fires are ignored by epoch.
    struct Watchdog {
        lazy: bool,
        epoch: u64,
        key: Option<TimerKey>,
        live: Option<(TimerKey, u64)>,
        log: Shared,
    }

    impl Watchdog {
        fn arm(&mut self, ctx: &mut Ctx, after: f64) {
            self.epoch += 1;
            if !self.lazy {
                ctx.set_timer_at(ctx.now + after, self.epoch);
                return;
            }
            let key = ctx.reserve_timer_at(ctx.now + after);
            self.key = Some(key);
            if self.live.is_none_or(|(live, _)| key < live) {
                self.push(ctx, key);
            }
        }
        fn push(&mut self, ctx: &mut Ctx, key: TimerKey) {
            ctx.set_timer_key(key, self.epoch);
            self.live = Some((key, self.epoch));
        }
    }

    impl Agent for Watchdog {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let flow = pkt.flow as u64;
            self.log.borrow_mut().push((ctx.now, "packet", flow));
            self.arm(ctx, if flow.is_multiple_of(3) { 0.03 } else { 0.05 });
        }
        fn on_timer(&mut self, ctx: &mut Ctx, epoch: u64) {
            if self.lazy {
                if self.live.take_if(|(_, live)| *live == epoch).is_none() {
                    return;
                }
                if epoch != self.epoch {
                    self.push(ctx, self.key.unwrap());
                    return;
                }
            } else if epoch != self.epoch {
                return;
            }
            self.log.borrow_mut().push((ctx.now, "timeout", epoch));
            self.arm(ctx, 0.05);
        }
    }

    /// Metronome, feeder and watchdog for 3 s; returns the callback log
    /// and the number of timer events dispatched.
    fn watchdog_world(lazy: bool) -> (Vec<(f64, &'static str, u64)>, u64) {
        let log = Shared::default();
        let mut w = World::new(1);
        let (ahead, until) = (3, 300);
        w.add_agent(Box::new(Metronome {
            ahead,
            until,
            log: log.clone(),
        }));
        let dog = w.add_agent(Box::new(Watchdog {
            lazy,
            epoch: 0,
            key: None,
            live: None,
            log: log.clone(),
        }));
        w.add_agent(Box::new(Feeder { dst: dog, until }));
        w.run_until(4.0);
        let seen = log.borrow().clone();
        (seen, w.core.timer)
    }

    #[test]
    fn lazy_rearm_at_reserved_keys_dispatches_like_eager_rearm() {
        let (eager, eager_timers) = watchdog_world(false);
        let (lazy, lazy_timers) = watchdog_world(true);
        assert_eq!(lazy, eager);
        assert!(
            lazy_timers < eager_timers,
            "{lazy_timers} vs {eager_timers}"
        );
        // The worlds are only a test if timeouts share their ns with
        // ticks, on either side of them.
        let ties = |first, second| {
            let tie = |p: &&[(f64, &str, u64)]| (p[0].0, p[0].1, p[1].1) == (p[1].0, first, second);
            lazy.windows(2).filter(tie).count()
        };
        let both_ways = ties("timeout", "tick") > 0 && ties("tick", "timeout") > 0;
        assert!(both_ways, "no same-ns tie on one side");
    }

    /// A 1000-byte CBR source at five times the 100 KB/s rate of a
    /// 50 ms bottleneck (`cfg` supplies its queue and drop processes),
    /// followed by a fast second hop, sending for 10 s.
    fn overload(cfg: LinkConfig) -> World {
        let mut w = World::new(3);
        let bottleneck = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.05,
            queue_packets: 20,
            ..cfg
        });
        let fast = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(CountingSink::default()));
        w.add_agent(Box::new(CbrAgent::new(
            sink,
            vec![bottleneck, fast],
            1,
            500_000.0,
            1_000,
            0.0,
            10.0,
        )));
        w
    }

    /// At a pause every live packet slot is in a link queue or in a
    /// pending `Arrive` (drains the event queue to count the latter).
    fn assert_conserved(mut w: World) {
        let queued: usize = w.core.links.iter().map(|l| l.queue.len()).sum();
        let live = w.core.packets.len();
        let mut arriving = 0;
        while let Some((_, _, event)) = w.queue.sched.pop_next_at_or_before(u64::MAX) {
            arriving += usize::from(matches!(event, Event::Arrive { .. }));
        }
        assert!(live > 0, "pause with nothing in flight");
        assert_eq!(live, queued + arriving);
    }

    #[test]
    fn packet_arena_holds_only_packets_in_flight() {
        let red = RedConfig {
            min_th: 5.0,
            max_th: 10.0,
            max_p: 0.5,
            wq: 1.0,
        };
        let cases = [
            ("tail drops", LinkConfig::default()),
            ("random losses", LinkConfig {
                loss_rate: 0.9,
                ..LinkConfig::default()
            }),
            ("RED drops", LinkConfig {
                queue_kind: QueueKind::Red(red),
                ..LinkConfig::default()
            }),
        ];
        for (what, cfg) in cases {
            for pause in [0.5, 3.3, 9.99] {
                let mut w = overload(cfg);
                w.run_until(pause);
                assert_conserved(w);
            }
            let mut w = overload(cfg);
            w.run_until(20.0);
            let stats = w.link_stats(0);
            let (tail_or_red, lost) = (stats.dropped, stats.random_losses);
            match what {
                "random losses" => assert!(lost > 0 && tail_or_red == 0, "{what}: {stats:?}"),
                _ => assert!(tail_or_red > 0 && lost == 0, "{what}: {stats:?}"),
            }
            if what == "RED drops" {
                assert!(stats.peak_queue <= 10, "RED, not the tail, dropped");
            }
            assert_eq!(w.core.packets.len(), 0, "{what}: quiescent world holds packets");
            // Queue bound + the one in service + 5 propagating on the
            // bottleneck (50 ms at one per 10 ms) + 1 on the fast hop;
            // 5 000 packets were offered.
            let footprint = w.core.packets.footprint();
            assert!(footprint <= 20 + 1 + 6 + 1, "{what}: arena grew to {footprint}");
        }
    }
}
