//! Link-bonding relay: stripes one flow's packets across two (or more)
//! parallel bottleneck paths with a deterministic policy.
//!
//! Models the sender-edge multipath scheduler of bonded-cellular setups:
//! the source addresses its packets to the relay over its access link;
//! the relay rewrites each packet's remaining route to one of the bonded
//! legs (strict round-robin) and forwards it to the real destination.
//! Because the legs follow independent trace schedules, their one-way
//! delays diverge and striping reorders packets at the receiver — exactly
//! the hostile reordering regime bonded links are known for (the
//! transport's reorder threshold decides what turns into spurious loss).
//!
//! The striping counter is the relay's only state and advances once per
//! forwarded packet, so the policy is a pure function of arrival order —
//! deterministic across schedulers, executors and thread counts like
//! everything else in the engine.

use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, Packet, Route};

/// Deterministic round-robin striping relay (see the module docs).
pub struct BondAgent {
    /// Real destination the relay forwards to.
    pub dst: AgentId,
    /// Remaining route of each bonded leg (relay → destination).
    pub paths: Vec<Route>,
    /// Next leg to use (round-robin cursor).
    pub next: usize,
    /// Packets forwarded per leg (diagnostics + outcome hashing).
    pub forwarded: Vec<u64>,
}

impl BondAgent {
    /// Relay forwarding to `dst`, striping across `paths` in order.
    pub fn new(dst: AgentId, paths: Vec<Route>) -> Self {
        let forwarded = vec![0; paths.len()];
        BondAgent {
            dst,
            paths,
            next: 0,
            forwarded,
        }
    }
}

impl Agent for BondAgent {
    fn on_packet(&mut self, ctx: &mut Ctx, mut pkt: Packet) {
        let leg = self.next;
        self.next = (self.next + 1) % self.paths.len();
        self.forwarded[leg] += 1;
        pkt.dst = self.dst;
        pkt.route = self.paths[leg];
        ctx.send(pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::link::LinkConfig;
    use crate::packet::PacketKind;

    /// Sink counting arrivals per inbound route head.
    #[derive(Default)]
    struct RouteCounter {
        by_first_link: std::collections::BTreeMap<usize, u64>,
    }

    impl Agent for RouteCounter {
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
            let first = pkt.route.first().map_or(usize::MAX, |&l| usize::from(l));
            *self.by_first_link.entry(first).or_insert(0) += 1;
        }
    }

    /// Source firing `n` packets at t=0 toward the relay.
    struct Burst {
        relay: AgentId,
        route: Route,
        n: u64,
    }

    impl Agent for Burst {
        fn start(&mut self, ctx: &mut Ctx) {
            for _ in 0..self.n {
                ctx.send(Packet {
                    flow: 0,
                    size: 100,
                    kind: PacketKind::Cbr,
                    dst: self.relay,
                    route: self.route,
                });
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
    }

    #[test]
    fn stripes_round_robin_across_legs() {
        let mut w = World::new(1);
        let access = w.add_link(LinkConfig::uncongested());
        let leg_a = w.add_link(LinkConfig::uncongested());
        let leg_b = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(RouteCounter::default()));
        let relay = w.add_agent(Box::new(BondAgent::new(
            sink,
            vec![Route::from([leg_a]), Route::from([leg_b])],
        )));
        w.add_agent(Box::new(Burst {
            relay,
            route: Route::from([access]),
            n: 9,
        }));
        w.run_until(1.0);
        let relay_ref: &BondAgent = w.agent(relay).unwrap();
        assert_eq!(relay_ref.forwarded, vec![5, 4], "strict round-robin");
        let counter: &RouteCounter = w.agent(sink).unwrap();
        assert_eq!(counter.by_first_link.get(&leg_a), Some(&5));
        assert_eq!(counter.by_first_link.get(&leg_b), Some(&4));
    }
}
