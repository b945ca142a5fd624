//! Constant-bit-rate (unresponsive) source — the paper's figure-13 burst
//! that claims half the bottleneck and forces the QA flow to shed layers.

use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, Packet, PacketKind, Route};

/// Unresponsive CBR traffic source.
pub struct CbrAgent {
    /// Destination agent.
    pub dst: AgentId,
    /// Forward route.
    pub route: Route,
    /// Flow id for stats.
    pub flow: u32,
    /// Send rate (bytes/s).
    pub rate: f64,
    /// Packet size (bytes).
    pub packet_size: u32,
    /// Start time (seconds).
    pub start_at: f64,
    /// Stop time (seconds).
    pub stop_at: f64,
    /// Packets sent (counter).
    pub sent: u64,
}

impl CbrAgent {
    /// New CBR source active in `[start_at, stop_at)`.
    pub fn new(
        dst: AgentId,
        route: impl Into<Route>,
        flow: u32,
        rate: f64,
        packet_size: u32,
        start_at: f64,
        stop_at: f64,
    ) -> Self {
        assert!(rate > 0.0 && packet_size > 0);
        CbrAgent {
            dst,
            route: route.into(),
            flow,
            rate,
            packet_size,
            start_at,
            stop_at,
            sent: 0,
        }
    }

    fn interval(&self) -> f64 {
        self.packet_size as f64 / self.rate
    }
}

impl Agent for CbrAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_at(self.start_at, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if ctx.now >= self.stop_at {
            return;
        }
        ctx.send(Packet {
            flow: self.flow,
            size: self.packet_size,
            kind: PacketKind::Cbr,
            dst: self.dst,
            route: self.route,
        });
        self.sent += 1;
        ctx.set_timer_after(self.interval(), 0);
    }
}

/// Counts arriving packets; shared null sink for CBR and diagnostics.
#[derive(Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
}

impl Agent for CountingSink {
    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        self.packets += 1;
        self.bytes += pkt.size as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::link::LinkConfig;

    #[test]
    fn cbr_sends_at_configured_rate() {
        let mut w = World::new(7);
        let l = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(CountingSink::default()));
        let cbr = w.add_agent(Box::new(CbrAgent::new(
            sink,
            vec![l],
            1,
            50_000.0,
            1_000,
            1.0,
            3.0,
        )));
        w.run_until(5.0);
        let c: &CountingSink = w.agent(sink).unwrap();
        // 2 s at 50 packets/s = 100 packets (±1 boundary).
        assert!(
            (99..=101).contains(&(c.packets as i64)),
            "{} packets",
            c.packets
        );
        let src: &CbrAgent = w.agent(cbr).unwrap();
        assert_eq!(src.sent, c.packets);
    }

    #[test]
    fn cbr_respects_start_stop_window() {
        let mut w = World::new(7);
        let l = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(CountingSink::default()));
        let _ = w.add_agent(Box::new(CbrAgent::new(
            sink,
            vec![l],
            1,
            10_000.0,
            1_000,
            2.0,
            2.5,
        )));
        w.run_until(1.9);
        assert_eq!(w.agent::<CountingSink>(sink).unwrap().packets, 0);
        w.run_until(10.0);
        let got = w.agent::<CountingSink>(sink).unwrap().packets;
        assert!((4..=6).contains(&got), "{got} packets in 0.5 s at 10/s");
    }
}
