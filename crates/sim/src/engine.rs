//! The discrete-event engine: event queue, world, agent dispatch.
//!
//! Deterministic by construction: time is integer nanoseconds, ties are
//! broken by insertion sequence, and the only randomness flows through the
//! world's seeded RNG. The event queue itself is pluggable (see
//! [`crate::sched`]): the default hierarchical timer wheel and the
//! reference `BinaryHeap` drain in exactly the same `(time_ns, seq)`
//! order, so a world's trajectory is bit-identical under either.

use crate::link::{Link, LinkConfig, LinkStats};
use crate::packet::{AgentId, LinkId, Packet};
use crate::sched::{AnyScheduler, Scheduler, SchedulerKind};
use crate::time::{ns_to_secs, secs_to_ns, tx_time_ns};
use crate::rng::SimRng;
use std::any::Any;

/// Things that can happen.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// The head-of-line packet of `link` finished serializing.
    LinkDone { link: LinkId },
    /// `pkt` arrives at its next hop (link or destination agent).
    Arrive { pkt: Packet },
    /// Agent timer with an agent-defined token.
    Timer { agent: AgentId, token: u64 },
}

/// Everything one session owns except its agents and its event queue:
/// local clock, links, RNG, uid and event counters — the part of a
/// [`World`] an agent callback may touch through [`Ctx`] while the agent
/// itself is borrowed out of the agents vector.
struct SessionCore {
    now_ns: u64,
    links: Vec<Link>,
    next_uid: u64,
    rng: SimRng,
    /// Events dispatched so far — a plain (always-on, deterministic)
    /// counter used for run throughput summaries.
    events_processed: u64,
}

impl SessionCore {
    /// Fresh per-session state seeded from `seed`, clock at zero.
    fn fresh(seed: u64) -> Self {
        SessionCore {
            now_ns: 0,
            links: Vec::new(),
            next_uid: 0,
            rng: SimRng::seed_from_u64(seed),
            events_processed: 0,
        }
    }
}

/// A session's event queue: the pluggable scheduler plus the session's
/// insertion-sequence counter, bundled so every schedule site pays exactly
/// one direct call. `seq` is strictly increasing over this session's
/// inserts, which is all the `(time, seq)` dispatch order depends on.
struct EventQueue {
    sched: AnyScheduler<Event>,
    seq: u64,
}

impl EventQueue {
    fn new(kind: SchedulerKind) -> Self {
        EventQueue {
            sched: AnyScheduler::new(kind),
            seq: 0,
        }
    }

    /// Schedule `event` at `at_ns` (clamped to `now_ns`).
    #[inline]
    fn schedule(&mut self, now_ns: u64, at_ns: u64, event: Event) {
        self.sched.schedule(at_ns.max(now_ns), self.seq, event);
        self.seq += 1;
    }

    #[inline]
    fn pop_next_at_or_before(&mut self, bound_ns: u64) -> Option<(u64, u64, Event)> {
        self.sched.pop_next_at_or_before(bound_ns)
    }

    fn len(&self) -> usize {
        self.sched.len()
    }
}

/// Put `pkt` onto its next link (or deliver directly when routeless).
#[inline]
fn route_packet(core: &mut SessionCore, queue: &mut EventQueue, pkt: Packet) {
    match pkt.next_link() {
        None => {
            // Already at the destination: deliver immediately.
            queue.schedule(core.now_ns, core.now_ns, Event::Arrive { pkt });
        }
        Some(link_id) => {
            let was_busy = core.links[link_id].busy;
            let (u_loss, u_red) = (core.rng.next_f64(), core.rng.next_f64());
            if core.links[link_id].offer(pkt, u_loss, u_red) && !was_busy {
                core.links[link_id].busy = true;
                let head_size = core.links[link_id]
                    .queue
                    .front()
                    .map(|p| p.size)
                    .expect("offer accepted");
                let bw = core.links[link_id].cfg.bandwidth;
                let done = core.now_ns.saturating_add(tx_time_ns(head_size, bw));
                queue.schedule(core.now_ns, done, Event::LinkDone { link: link_id });
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
    /// Allocate a globally unique packet id.
    pub fn alloc_uid(&mut self) -> u64 {
        let uid = self.core.next_uid;
        self.core.next_uid += 1;
        uid
    }

    /// Transmit a packet along its route.
    #[inline]
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.now;
        route_packet(self.core, self.queue, pkt);
    }

    /// Arm a timer to fire at absolute time `at` seconds.
    #[inline]
    pub fn set_timer_at(&mut self, at: f64, token: u64) {
        let at_ns = secs_to_ns(at.max(0.0));
        self.queue.schedule(
            self.core.now_ns,
            at_ns,
            Event::Timer {
                agent: self.agent_id,
                token,
            },
        );
    }

    /// Arm a timer to fire `delay` seconds from now.
    pub fn set_timer_after(&mut self, delay: f64, token: u64) {
        self.set_timer_at(self.now + delay.max(0.0), token);
    }

    /// Uniform random number in `[0, 1)` from the world's seeded RNG.
    pub fn rand(&mut self) -> f64 {
        self.core.rng.next_f64()
    }

    /// Queue length of a link (packets), for diagnostics.
    pub fn link_queue_len(&self, link: LinkId) -> usize {
        self.core.links[link].queue_len()
    }

    /// Current configuration of a link.
    pub fn link_config(&self, link: LinkId) -> LinkConfig {
        self.core.links[link].cfg
    }

    /// Change a link's bandwidth at runtime (fault injection). The engine
    /// reads the configuration when each packet *starts* serializing, so a
    /// packet already in flight finishes at its old speed — exactly the
    /// physical behaviour of a rate change mid-transmission.
    pub fn set_link_bandwidth(&mut self, link: LinkId, bandwidth: f64) {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "link bandwidth must be finite and positive, got {bandwidth}"
        );
        self.core.links[link].cfg.bandwidth = bandwidth;
    }

    /// Change a link's propagation delay at runtime (RTT-spike injection).
    /// Applies to packets that *finish* serializing after the change;
    /// packets already propagating keep their old arrival time, so packet
    /// order on the wire can invert during a spike — as on a real rerouted
    /// path.
    pub fn set_link_delay(&mut self, link: LinkId, delay: f64) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "link delay must be finite and non-negative, got {delay}"
        );
        self.core.links[link].cfg.delay = delay;
    }

    /// Change a link's random (non-congestive) loss probability at runtime
    /// (burst-loss injection). Clamped to `[0, 1]`.
    pub fn set_link_loss_rate(&mut self, link: LinkId, loss_rate: f64) {
        assert!(
            loss_rate.is_finite(),
            "link loss rate must be finite, got {loss_rate}"
        );
        self.core.links[link].cfg.loss_rate = loss_rate.clamp(0.0, 1.0);
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
    /// New world with a deterministic RNG seed, on the default event
    /// scheduler (the timer wheel).
    pub fn new(seed: u64) -> Self {
        Self::with_scheduler(seed, SchedulerKind::default())
    }

    /// New world with an explicit event-scheduler implementation. The
    /// simulated trajectory is bit-identical for every kind; the choice
    /// only affects wall-clock speed.
    pub fn with_scheduler(seed: u64, kind: SchedulerKind) -> Self {
        World {
            core: SessionCore::fresh(seed),
            queue: EventQueue::new(kind),
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
        self.core.links[link].cfg
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
        start_agents(&mut self.agents, &mut self.core, &mut self.queue);
    }

    /// Run the event loop until simulated time `t_end` seconds (events at
    /// exactly `t_end` are processed).
    pub fn run_until(&mut self, t_end: f64) {
        self.ensure_started();
        let end_ns = secs_to_ns(t_end);
        while let Some((time_ns, _, event)) = self.queue.pop_next_at_or_before(end_ns) {
            self.core.now_ns = time_ns;
            self.core.events_processed += 1;
            let timed = if laqa_obs::enabled() {
                laqa_obs::counter!("engine.events").inc();
                laqa_obs::histogram!(
                    "engine.queue_depth",
                    &[8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0]
                )
                .observe(self.queue.len() as f64);
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

/// Call `start()` on every agent in slot order (the lazy-start sweep a
/// world runs on its first `run_until`).
fn start_agents(
    agents: &mut Vec<Option<Box<dyn Agent>>>,
    core: &mut SessionCore,
    queue: &mut EventQueue,
) {
    for id in 0..agents.len() {
        dispatch_agent(agents, core, queue, id, |a, ctx| a.start(ctx));
    }
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
            let (pkt, next_busy) = {
                let l = &mut core.links[link];
                let mut pkt = l.queue.pop_front().expect("busy link has head");
                l.stats.bytes_out += pkt.size as u64;
                pkt.advance_hop();
                let next = l.queue.front().map(|p| p.size);
                l.busy = next.is_some();
                (pkt, next)
            };
            let delay_ns = secs_to_ns(core.links[link].cfg.delay);
            let arrive = core.now_ns.saturating_add(delay_ns);
            queue.schedule(core.now_ns, arrive, Event::Arrive { pkt });
            if let Some(size) = next_busy {
                let bw = core.links[link].cfg.bandwidth;
                let done = core.now_ns.saturating_add(tx_time_ns(size, bw));
                queue.schedule(core.now_ns, done, Event::LinkDone { link });
            }
        }
        Event::Arrive { pkt } => {
            if pkt.at_destination() {
                let id = pkt.dst;
                dispatch_agent(agents, core, queue, id, |a, ctx| a.on_packet(ctx, pkt));
            } else {
                route_packet(core, queue, pkt);
            }
        }
        Event::Timer { agent, token } => {
            // Flight-record timer fires only (LinkDone/Arrive would swamp
            // the bounded rings at per-packet volume).
            if laqa_obs::flight::enabled() {
                laqa_obs::flight::instant("timer.fire", ns_to_secs(core.now_ns), token as f64);
            }
            dispatch_agent(agents, core, queue, agent, |a, ctx| a.on_timer(ctx, token));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        arrivals: Vec<(f64, u64)>,
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
            let uid = ctx.alloc_uid();
            ctx.send(Packet {
                uid,
                flow: 1,
                size: 1_000,
                kind: PacketKind::Cbr,
                dst: self.peer,
                route: self.route.clone(),
                hop: 0,
                sent_at: ctx.now,
            });
            self.sent += 1;
            ctx.set_timer_after(self.interval, 0);
        }
    }

    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.arrivals.push((ctx.now, pkt.uid));
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
            (s.arrivals[0].0 - 0.02).abs() < 1e-9,
            "arrival {}",
            s.arrivals[0].0
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
        for (i, &(t, _)) in s.arrivals.iter().enumerate() {
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
        assert!((s.arrivals[0].0 - 0.012).abs() < 1e-9);
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

    /// Agent that rewrites a link's configuration when its timer fires.
    struct Mutator {
        link: LinkId,
        at: f64,
        bandwidth: f64,
        delay: f64,
        observed_before: Option<LinkConfig>,
    }

    impl Agent for Mutator {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(self.at, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.observed_before = Some(ctx.link_config(self.link));
            ctx.set_link_bandwidth(self.link, self.bandwidth);
            ctx.set_link_delay(self.link, self.delay);
            ctx.set_link_loss_rate(self.link, 2.0); // clamps to 1.0
        }
    }

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
        // One packet at t=0 (old config: 10 ms tx + 10 ms prop = 0.020),
        // one at t=0.1 — after the mutator halves bandwidth and grows the
        // delay, so it takes 20 ms tx + 50 ms prop = arrival at 0.170...
        // except loss_rate is now 1.0, so it never arrives at all.
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l].into(),
            count: 2,
            interval: 0.1,
            sent: 0,
        }));
        let m = w.add_agent(Box::new(Mutator {
            link: l,
            at: 0.05,
            bandwidth: 50_000.0,
            delay: 0.05,
            observed_before: None,
        }));
        w.run_until(1.0);
        let s: &Sink = w.agent(sink).unwrap();
        assert_eq!(s.arrivals.len(), 1, "second packet randomly lost");
        assert!((s.arrivals[0].0 - 0.02).abs() < 1e-9);
        assert_eq!(w.link_stats(l).random_losses, 1);
        let cfg = w.link_config(l);
        assert_eq!(cfg.bandwidth, 50_000.0);
        assert_eq!(cfg.delay, 0.05);
        assert_eq!(cfg.loss_rate, 1.0, "loss rate clamped to 1");
        let m: &Mutator = w.agent(m).unwrap();
        let before = m.observed_before.expect("mutator ran");
        assert_eq!(before.bandwidth, 100_000.0, "pre-mutation view intact");
    }
}
