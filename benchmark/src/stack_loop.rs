//! `stack_loop`: the protocol stack with no simulator underneath. The
//! harness is the network — a fixed one-way delay each way, a token-bucket
//! bottleneck with a drop-tail backlog, seeded random loss — and drives a
//! rate controller, the QA controller, the RAP receiver state and the
//! layered playout buffer through their public calls, one event at a time
//! (the loop of `QaSourceAgent::pump`, with the engine taken out).
//!
//! Packets are 100 bytes, the smallest the stack is run with, so per-packet
//! cost dominates: about twenty packets go out per allocation tick.

use std::collections::VecDeque;

use laqa_core::{QaConfig, QaController};
use laqa_layered::{LayeredEncoding, LayeredReceiver};
use laqa_rap::{AckInfo, RapEvent, RapReceiverState, RateController};
use laqa_sim::Transport;
use laqa_trace::TraceHasher;

use crate::controllers::{with_controller, Drive, Params};
use crate::spans::Probe;
use crate::spec::{session_seeds, SplitMix};
use crate::workload::{Failure, PassOutcome};

const PACKET: f64 = 100.0;
const LAYERS: usize = 8;
const LAYER_RATE: f64 = 5_000.0;
const TICK_DT: f64 = 0.1;
/// One-way delay, each direction (seconds).
const OWD: f64 = 0.05;
/// Drop-tail backlog the bottleneck holds (packets).
const QUEUE_PACKETS: f64 = 25.0;
/// Sender rate cap: the full encoding plus filling headroom.
const MAX_RATE: f64 = 1.25 * LAYERS as f64 * LAYER_RATE;
/// Simulated seconds between batch-span flushes in the traced pass.
const FLUSH_EVERY: f64 = 10.0;
/// Simulated seconds per session, sized for a pass of 2 s and up here.
const SESSION_SECS: f64 = 900.0;

// Batch-span kinds: the sub-100 ns calls.
const B_NEXT_LAYER: usize = 0;
const B_REGISTER_SEND: usize = 1;
const B_RX_DATA: usize = 2;
const B_RX_ACK: usize = 3;
const B_ON_ACK: usize = 4;
const B_POLL: usize = 5;
const B_DELIVERED: usize = 6;
const B_ADVANCE: usize = 7;
pub const BATCH_NAMES: &[&str] = &[
    "core.next_packet_layer",
    "rap.register_send",
    "layered.on_data",
    "rap.receiver_on_data",
    "rap.on_ack",
    "rap.poll_timers",
    "core.on_packet_delivered",
    "layered.advance",
];

/// One session's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSession {
    pub controller: Transport,
    pub seed: u64,
    /// Bottleneck rate (bytes/s).
    pub bottleneck: f64,
    /// Random (non-congestive) loss probability per packet.
    pub loss: f64,
    pub duration: f64,
}

/// What one session did. Every field enters the pass fingerprint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StackResult {
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub in_flight: u64,
    pub backoffs: u64,
    pub ticks: u64,
    pub adds: usize,
    pub drops: usize,
    pub stalls: usize,
    pub underflows: u64,
    pub final_layers: usize,
    pub final_buffer: f64,
    pub efficiency: Option<f64>,
    /// First invariant that broke, if any.
    pub violation: Option<String>,
}

impl StackResult {
    /// Record an invariant violation; the first one is kept.
    fn violated(&mut self, what: String) {
        self.violation.get_or_insert(what);
    }
}

pub struct StackLoop {
    pub sessions: Vec<StackSession>,
}

fn qa_config(decrease_factor: f64) -> QaConfig {
    QaConfig {
        layer_rate: LAYER_RATE,
        max_layers: LAYERS,
        k_max: 2,
        underflow_slack_bytes: 4.0 * PACKET,
        decrease_factor,
        ..QaConfig::default()
    }
}

/// A data packet on its way to the receiver.
struct InFlight {
    arrive: f64,
    seq: u64,
    layer: usize,
    n_active: usize,
}

fn drive<C: RateController, P: Probe>(mut ctl: C, s: &StackSession, probe: &mut P) -> StackResult {
    let cfg = qa_config(ctl.decrease_factor());
    let slack = cfg.underflow_slack_bytes + cfg.epsilon_bytes;
    let startup = cfg.startup_buffer_secs;
    let mut qa = QaController::new(cfg).expect("valid QA config");
    let encoding = LayeredEncoding::linear(LAYERS, LAYER_RATE).expect("valid encoding");
    // The client waits twice the server's start-up buffer: the server
    // learns of deliveries a round trip late.
    let mut playout = LayeredReceiver::new(encoding, 1, 2.0 * startup);
    let mut rx = RapReceiverState::new();
    let mut rng = SplitMix(s.seed);

    let mut data: VecDeque<InFlight> = VecDeque::new();
    let mut acks: VecDeque<(f64, AckInfo)> = VecDeque::new();
    let mut events: Vec<RapEvent> = Vec::new();
    // When the bottleneck finishes serialising its backlog.
    let mut busy_until = 0.0f64;
    let mut next_tick = 0.0f64;
    let mut next_play = TICK_DT;
    let mut next_flush = FLUSH_EVERY;
    let mut now = 0.0f64;
    let mut r = StackResult::default();

    loop {
        // 1. Receiver: data that has arrived, each answered with an ACK.
        while data.front().is_some_and(|p| p.arrive <= now) {
            let p = data.pop_front().expect("front checked");
            probe.batched(B_RX_DATA, || {
                playout.on_data(now, p.layer, PACKET);
                playout.set_active_layers(p.n_active);
            });
            let ack = probe.batched(B_RX_ACK, || rx.on_data(p.seq));
            acks.push_back((now + OWD, ack));
            r.delivered += 1;
        }
        // 2. Receiver: playout clock.
        while now >= next_play {
            r.underflows += probe.batched(B_ADVANCE, || playout.advance(TICK_DT)) as u64;
            for layer in 0..LAYERS {
                let b = playout.buffered(layer);
                if !(b.is_finite() && b >= 0.0) {
                    r.violated(format!("receiver buffer {layer} = {b} at t={now:.3}"));
                }
            }
            next_play += TICK_DT;
        }
        // 3. Sender: ACKs that have arrived, timers, then their events.
        while acks.front().is_some_and(|a| a.0 <= now) {
            let (_, ack) = acks.pop_front().expect("front checked");
            probe.batched(B_ON_ACK, || ctl.on_ack(now, ack));
        }
        probe.batched(B_POLL, || {
            ctl.poll_timers(now);
            ctl.drain_events_into(&mut events);
        });
        for e in events.drain(..) {
            match e {
                RapEvent::Backoff { rate, .. } => {
                    r.backoffs += 1;
                    probe.call("core.on_backoff", || qa.on_backoff(now, rate));
                }
                RapEvent::PacketAcked { size, tag, .. } => {
                    probe.batched(B_DELIVERED, || qa.on_packet_delivered(tag as usize, size));
                }
                RapEvent::PacketLost { .. } | RapEvent::RateIncrease { .. } => {}
            }
        }
        // 4. Allocation tick.
        while now + 1e-12 >= next_tick {
            let rate = ctl.tick_rate();
            qa.set_slope(ctl.slope());
            probe.call("core.tick", || qa.tick(next_tick, rate, TICK_DT));
            r.ticks += 1;
            if let Some(b) = qa
                .buffers()
                .iter()
                .find(|b| !(b.is_finite() && **b >= -slack))
            {
                r.violated(format!("sender buffer estimate {b} at t={now:.3}"));
            }
            next_tick += TICK_DT;
        }
        // 5. Send whatever the controller allows now, through the
        // bottleneck.
        while now >= ctl.next_send_time(now) {
            let layer = probe.batched(B_NEXT_LAYER, || qa.next_packet_layer(PACKET));
            let seq = probe.batched(B_REGISTER_SEND, || {
                ctl.register_send(now, PACKET, layer as u32)
            });
            r.sent += 1;
            let backlog = (busy_until - now).max(0.0) * s.bottleneck / PACKET;
            if backlog >= QUEUE_PACKETS || rng.next_f64() < s.loss {
                r.lost += 1;
                continue;
            }
            busy_until = busy_until.max(now) + PACKET / s.bottleneck;
            data.push_back(InFlight {
                arrive: busy_until + OWD,
                seq,
                layer,
                n_active: qa.n_active(),
            });
        }
        if now >= next_flush {
            probe.flush();
            next_flush += FLUSH_EVERY;
        }

        // Next event: an arrival, a permitted send, a controller timer, a
        // tick or a playout step.
        let next = [
            data.front().map_or(f64::INFINITY, |p| p.arrive),
            acks.front().map_or(f64::INFINITY, |a| a.0),
            ctl.next_send_time(now),
            ctl.next_timer(),
            next_tick,
            next_play,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        // A controller timer already due would otherwise spin in place.
        now = if next > now { next } else { now + 1e-6 };
        if now >= s.duration {
            break;
        }
    }
    probe.flush();

    r.in_flight = data.len() as u64;
    if r.sent != r.delivered + r.lost + r.in_flight {
        r.violated(format!(
            "packets not conserved: sent {} != delivered {} + lost {} + in flight {}",
            r.sent, r.delivered, r.lost, r.in_flight
        ));
    }
    let m = qa.metrics();
    r.adds = m.adds();
    r.drops = m.drops();
    r.stalls = m.stalls();
    r.efficiency = m.efficiency();
    r.final_layers = qa.n_active();
    r.final_buffer = qa.total_buffer();
    if let Some(e) = r.efficiency.filter(|e| !(0.0..=1.0).contains(e)) {
        r.violated(format!("efficiency = {e} outside [0, 1]"));
    }
    if !r.final_buffer.is_finite() {
        r.violated(format!("final buffer = {}", r.final_buffer));
    }
    if r.delivered == 0 {
        r.violated("nothing delivered".to_string());
    }
    r
}

struct Session<'a, P> {
    spec: &'a StackSession,
    probe: &'a mut P,
}

impl<P: Probe> Drive for Session<'_, P> {
    type Out = StackResult;
    fn drive<C: RateController>(self, ctl: C) -> StackResult {
        drive(ctl, self.spec, self.probe)
    }
}

/// Run one session on the controller its spec names.
pub fn run_session<P: Probe>(s: &StackSession, probe: &mut P) -> StackResult {
    let params = Params {
        packet_size: PACKET,
        initial_rate: 10.0 * PACKET,
        initial_rtt: 2.0 * OWD,
        max_rate: MAX_RATE,
    };
    with_controller(s.controller, params, Session { spec: s, probe })
}

impl StackLoop {
    /// Four controllers × four seeds. The seed picks the random streams
    /// (which packets are lost); the bottleneck ladder is fixed, so the
    /// packet count — and with it every per-session cost — barely moves
    /// with the seed.
    pub fn new(seed: u64, smoke: bool) -> Self {
        const BOTTLENECK_LAYERS: [f64; 4] = [3.5, 4.25, 5.0, 5.75];
        let duration = if smoke { 40.0 } else { SESSION_SECS };
        let seeds = session_seeds(seed, "stack_loop", BOTTLENECK_LAYERS.len());
        let mut sessions = Vec::new();
        for controller in Transport::ALL {
            for (&session_seed, layers) in seeds.iter().zip(BOTTLENECK_LAYERS) {
                sessions.push(StackSession {
                    controller,
                    seed: session_seed,
                    bottleneck: layers * LAYER_RATE,
                    loss: 0.0015,
                    duration,
                });
            }
        }
        StackLoop { sessions }
    }

    pub fn warm_up(&self) {
        for s in self.sessions.iter().step_by(4).take(4) {
            std::hint::black_box(run_session(s, &mut crate::spans::Off));
        }
    }

    pub fn pass<P: Probe>(&self, probe: &mut P) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut all = TraceHasher::new();
        let mut underflows = 0u64;
        for (i, s) in self.sessions.iter().enumerate() {
            probe.set_session(i as u32);
            let span = probe.enter("harness.stack_session");
            let r = run_session(s, probe);
            probe.exit(span);
            let mut h = TraceHasher::new();
            h.u64(r.sent)
                .u64(r.delivered)
                .u64(r.lost)
                .u64(r.in_flight)
                .u64(r.backoffs)
                .u64(r.ticks)
                .u64(r.adds as u64)
                .u64(r.drops as u64)
                .u64(r.stalls as u64)
                .u64(r.underflows)
                .u64(r.final_layers as u64)
                .f64(r.final_buffer)
                .f64(r.efficiency.unwrap_or(f64::NEG_INFINITY));
            out.session_hashes.push(h.finish());
            all.u64(h.finish());
            underflows += r.underflows;
            if let Some(what) = r.violation {
                out.failures.push(Failure {
                    session: i,
                    what: format!("{}/seed{}: {what}", s.controller.label(), s.seed),
                });
            }
        }
        out.fingerprint = all.finish();
        out.counts.insert("layered.underflows", underflows as f64);
        out
    }

    pub fn qa_mix(&self) -> (Vec<QaConfig>, f64) {
        let mut configs: Vec<QaConfig> = Vec::new();
        for t in Transport::ALL {
            let cfg = qa_config(t.nominal_decrease());
            if !configs.contains(&cfg) {
                configs.push(cfg);
            }
        }
        (configs, TICK_DT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Off, SpanLog};

    fn session(controller: Transport) -> StackSession {
        StackSession {
            controller,
            seed: 11,
            bottleneck: 4.0 * LAYER_RATE,
            loss: 0.002,
            duration: 60.0,
        }
    }

    #[test]
    fn every_controller_conserves_bytes_and_keeps_buffers_valid() {
        for t in Transport::ALL {
            let r = run_session(&session(t), &mut Off);
            assert_eq!(r.violation, None, "{}", t.label());
            assert_eq!(r.sent, r.delivered + r.lost + r.in_flight);
            assert!(
                r.delivered > 1_000,
                "{}: {} delivered",
                t.label(),
                r.delivered
            );
            assert_eq!(r.ticks, 600);
        }
    }

    #[test]
    fn rap_session_adapts_quality_to_the_bottleneck() {
        let r = run_session(&session(Transport::Rap), &mut Off);
        assert!(r.backoffs > 5, "{} backoffs", r.backoffs);
        assert!(r.adds >= 1, "a 4-layer bottleneck lets layers come up");
        assert!(
            (1..LAYERS).contains(&r.final_layers),
            "{} layers",
            r.final_layers
        );
    }

    #[test]
    fn sessions_repeat_exactly_and_tracing_does_not_change_them() {
        let s = session(Transport::Nada);
        let plain = run_session(&s, &mut Off);
        assert_eq!(plain, run_session(&s, &mut Off));
        let mut log = SpanLog::new(BATCH_NAMES);
        assert_eq!(plain, run_session(&s, &mut log));
        let names: Vec<&str> = log.into_spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"core.tick"));
        assert!(names.contains(&"rap.on_ack"));
    }

    #[test]
    fn pass_fingerprint_repeats_and_depends_on_the_seed() {
        let w = StackLoop::new(1999, true);
        assert_eq!(w.sessions.len(), 16);
        let a = w.pass(&mut Off);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.fingerprint, w.pass(&mut Off).fingerprint);
        assert_ne!(
            a.fingerprint,
            StackLoop::new(2000, true).pass(&mut Off).fingerprint
        );
    }
}
