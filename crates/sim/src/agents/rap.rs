//! Plain RAP flow agents (sender and sink) — the "9 additional RAP flows"
//! of the paper's tests, and the single flow of figure 1 — plus the
//! helpers every sender/sink pair in [`crate::agents`] shares.

use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, Packet, PacketKind, Route};
use laqa_rap::{RapConfig, RapEvent, RapReceiverState, RapSender, RateController};
use laqa_trace::TimeSeries;

const ACK_SIZE: u32 = 40;

/// Send an acknowledgement carrying `kind` from a sink back to its source
/// `dst` along `route`.
pub(super) fn send_ack(ctx: &mut Ctx, flow: u32, kind: PacketKind, dst: AgentId, route: &Route) {
    ctx.send(Packet {
        flow,
        size: ACK_SIZE,
        kind,
        dst,
        route: route.clone(),
        hop: 0,
    });
}

/// Re-arm a source's soft timer (token 0) for `next`, never closer than a
/// microsecond ahead. `armed_at` is when the timer last armed will fire:
/// a new one is set only when `next` is earlier or that one has fired —
/// the scheduler has no cancel, so sources ignore stale fires instead.
pub(super) fn rearm(ctx: &mut Ctx, armed_at: &mut f64, next: f64) {
    let next = next.max(ctx.now + 1e-6);
    // Tolerance absorbs f64->ns rounding of the event clock; without
    // it a fired timer can leave armed_at a hair in the future and the
    // chain dies.
    if next < *armed_at - 1e-9 || *armed_at <= ctx.now + 1e-7 {
        ctx.set_timer_at(next, 0);
        *armed_at = next;
    }
}

/// Count a fire that is no longer the armed one (stale), or is but lands
/// below its f64 target, rounded to the nearest ns (early).
pub(super) fn count_fire(ctx: &mut Ctx, armed_at: f64) {
    if armed_at > ctx.now + 1e-7 {
        ctx.count_stale_timer();
    } else if ctx.now < armed_at {
        ctx.count_early_timer();
    }
}

/// A greedy RAP source (always has data to send).
pub struct RapFlowAgent {
    sender: RapSender,
    /// Destination (sink) agent.
    pub dst: AgentId,
    /// Forward route.
    pub route: Route,
    /// Flow id.
    pub flow: u32,
    packet_size: u32,
    armed_at: f64,
    /// Time the flow starts sending (seconds).
    pub start_at: f64,
    /// Transmission-rate trace (sampled on every rate change) — figure 1.
    pub rate_trace: TimeSeries,
    /// Whether to record the rate trace (off for background flows to save
    /// memory).
    pub record_rate: bool,
    /// Backoffs observed.
    pub backoffs: u64,
    /// Packets sent.
    pub sent: u64,
    /// Packets reported lost.
    pub lost: u64,
    /// Reused buffer for draining sender events without reallocating.
    ev_scratch: Vec<RapEvent>,
}

impl RapFlowAgent {
    /// New RAP source with default protocol parameters.
    pub fn new(dst: AgentId, route: impl Into<Route>, flow: u32, cfg: RapConfig) -> Self {
        RapFlowAgent {
            packet_size: cfg.packet_size as u32,
            sender: RapSender::new(cfg, 0.0),
            dst,
            route: route.into(),
            flow,
            armed_at: f64::NEG_INFINITY,
            start_at: 0.0,
            rate_trace: TimeSeries::new("rap_rate"),
            record_rate: false,
            backoffs: 0,
            sent: 0,
            lost: 0,
            ev_scratch: Vec::new(),
        }
    }

    /// Current transmission rate (bytes/s).
    pub fn rate(&self) -> f64 {
        self.sender.rate()
    }

    fn drain_events(&mut self, now: f64) {
        let mut events = std::mem::take(&mut self.ev_scratch);
        self.sender.drain_events_into(&mut events);
        for e in events.drain(..) {
            match e {
                RapEvent::Backoff { rate, .. } => {
                    self.backoffs += 1;
                    if self.record_rate {
                        self.rate_trace.push(now, rate);
                    }
                }
                RapEvent::RateIncrease { time, rate } => {
                    if self.record_rate {
                        self.rate_trace.push(time, rate);
                    }
                }
                RapEvent::PacketLost { .. } => self.lost += 1,
                RapEvent::PacketAcked { .. } => {}
            }
        }
        self.ev_scratch = events;
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        self.sender.poll_timers(ctx.now);
        while ctx.now >= self.sender.next_send_time(ctx.now) {
            let seq = self
                .sender
                .register_send(ctx.now, self.packet_size as f64, 0);
            ctx.send(Packet {
                flow: self.flow,
                size: self.packet_size,
                kind: PacketKind::RapData {
                    seq,
                    layer: 0,
                    n_active: 1,
                },
                dst: self.dst,
                route: self.route.clone(),
                hop: 0,
            });
            self.sent += 1;
        }
        self.drain_events(ctx.now);
        let next = self
            .sender
            .next_send_time(ctx.now)
            .min(self.sender.next_timer());
        rearm(ctx, &mut self.armed_at, next);
    }
}

impl Agent for RapFlowAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        if self.start_at > 0.0 {
            self.sender.restart(self.start_at);
            ctx.set_timer_at(self.start_at, 0);
        } else {
            self.pump(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let PacketKind::RapAck(info) = pkt.kind {
            self.sender.on_ack(ctx.now, info);
            self.drain_events(ctx.now);
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        count_fire(ctx, self.armed_at);
        self.pump(ctx);
    }
}

/// RAP sink: acknowledges every data packet along the reverse route.
pub struct RapSinkAgent {
    rx: RapReceiverState,
    /// The sender agent to ACK to.
    src: AgentId,
    /// Reverse route.
    reverse_route: Route,
    /// Flow id.
    pub flow: u32,
    /// Bytes of data received.
    pub bytes_received: u64,
}

impl RapSinkAgent {
    /// New sink ACKing to `src` over `reverse_route`.
    pub fn new(src: AgentId, reverse_route: impl Into<Route>, flow: u32) -> Self {
        RapSinkAgent {
            rx: RapReceiverState::new(),
            src,
            reverse_route: reverse_route.into(),
            flow,
            bytes_received: 0,
        }
    }
}

impl Agent for RapSinkAgent {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let PacketKind::RapData { seq, .. } = pkt.kind {
            self.bytes_received += pkt.size as u64;
            let ack = PacketKind::RapAck(self.rx.on_data(seq));
            send_ack(ctx, self.flow, ack, self.src, &self.reverse_route);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::link::LinkConfig;

    /// One RAP flow over a bottleneck: build and run, return (world, src,
    /// sink, bottleneck link). Agent ids are assigned in creation order, so
    /// they are known up front (0 = sink, 1 = source).
    fn single_flow(
        bw: f64,
        queue: usize,
        dur: f64,
    ) -> (World, AgentId, AgentId, crate::packet::LinkId) {
        let mut w = World::new(11);
        let fwd = w.add_link(LinkConfig {
            bandwidth: bw,
            delay: 0.01,
            queue_packets: queue,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        let sink_id = 0;
        let src_id = 1;
        assert_eq!(
            w.add_agent(Box::new(RapSinkAgent::new(src_id, vec![rev], 1))),
            sink_id
        );
        let mut src_agent = RapFlowAgent::new(sink_id, vec![fwd], 1, RapConfig::default());
        src_agent.record_rate = true;
        assert_eq!(w.add_agent(Box::new(src_agent)), src_id);
        w.run_until(dur);
        (w, src_id, sink_id, fwd)
    }

    #[test]
    fn rap_flow_fills_and_oscillates_around_bottleneck() {
        // 50 KB/s bottleneck: the flow must back off repeatedly and its
        // long-run throughput must approach (but not exceed) the capacity.
        let (w, src, sink, fwd) = single_flow(50_000.0, 20, 30.0);
        let s: &RapFlowAgent = w.agent(src).unwrap();
        assert!(
            s.backoffs >= 3,
            "expected sawtooth, got {} backoffs",
            s.backoffs
        );
        let sk: &RapSinkAgent = w.agent(sink).unwrap();
        let throughput = sk.bytes_received as f64 / 30.0;
        assert!(
            throughput > 30_000.0 && throughput <= 51_000.0,
            "throughput {throughput}"
        );
        assert!(w.link_stats(fwd).dropped > 0, "losses drive the sawtooth");
    }

    #[test]
    fn rate_trace_is_sawtooth_shaped() {
        let (w, src, _, _) = single_flow(50_000.0, 20, 20.0);
        let s: &RapFlowAgent = w.agent(src).unwrap();
        let trace = &s.rate_trace;
        assert!(trace.len() > 20);
        // Sawtooth: strictly more small increases than big decreases, and
        // at least a few decreases.
        let mut ups = 0;
        let mut downs = 0;
        for w2 in trace.points.windows(2) {
            if w2[1].1 > w2[0].1 {
                ups += 1;
            } else if w2[1].1 < w2[0].1 {
                downs += 1;
            }
        }
        assert!(downs >= 3, "downs {downs}");
        assert!(ups > downs, "ups {ups} downs {downs}");
    }

    #[test]
    fn two_rap_flows_share_fairly() {
        let mut w = World::new(13);
        let fwd = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.01,
            queue_packets: 30,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        // ids: 0,1 sinks; 2,3 sources.
        let s0 = w.add_agent(Box::new(RapSinkAgent::new(2, vec![rev], 1)));
        let s1 = w.add_agent(Box::new(RapSinkAgent::new(3, vec![rev], 2)));
        let _f0 = w.add_agent(Box::new(RapFlowAgent::new(
            s0,
            vec![fwd],
            1,
            RapConfig::default(),
        )));
        let _f1 = w.add_agent(Box::new(RapFlowAgent::new(
            s1,
            vec![fwd],
            2,
            RapConfig::default(),
        )));
        w.run_until(60.0);
        let b0 = w.agent::<RapSinkAgent>(s0).unwrap().bytes_received as f64;
        let b1 = w.agent::<RapSinkAgent>(s1).unwrap().bytes_received as f64;
        let ratio = b0.max(b1) / b0.min(b1).max(1.0);
        assert!(ratio < 1.6, "unfair share: {b0} vs {b1}");
        // Combined utilization close to capacity.
        let total = (b0 + b1) / 60.0;
        assert!(total > 70_000.0, "total throughput {total}");
    }
}
