//! The RAP sender state machine.
//!
//! Transport-agnostic: the owner (the simulator's RAP agent) provides
//! the clock and the wire; this type provides the protocol — pacing,
//! per-SRTT additive increase, ACK processing, loss detection with
//! cluster suppression, and timeout collapse.
//!
//! # Driving it
//!
//! ```text
//! loop:
//!   poll_timers(now)                      // AIMD step + timeout checks
//!   if now >= next_send_time():
//!       seq = register_send(now, size, tag)
//!       put packet(seq) on the wire
//!   on ACK arrival: on_ack(now, info)
//!   drain take_events() → rate changes, backoffs, losses
//! ```
//!
//! One **backoff per loss event**: when a loss triggers a backoff, further
//! losses among packets already in flight (sequence at or below the highest
//! sent at backoff time) are reported but do not halve the rate again —
//! they belong to the same congestion event (cluster-loss suppression).

use crate::aimd::AimdState;
use crate::history::{PacketRecord, TransmissionHistory};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;

/// RAP sender configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RapConfig {
    /// Payload bytes per packet.
    pub packet_size: f64,
    /// Initial transmission rate (bytes/s). RAP starts slowly — one or two
    /// packets per assumed RTT.
    pub initial_rate: f64,
    /// Initial RTT guess (seconds) before the first sample.
    pub initial_rtt: f64,
    /// Packets after a hole before it is declared lost.
    pub reorder_threshold: u64,
    /// Optional rate ceiling (bytes/s), `INFINITY` for none.
    pub max_rate: f64,
}

impl Default for RapConfig {
    fn default() -> Self {
        RapConfig {
            packet_size: 1_000.0,
            initial_rate: 2_000.0,
            initial_rtt: 0.2,
            reorder_threshold: 3,
            max_rate: f64::INFINITY,
        }
    }
}

/// Why a backoff happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffCause {
    /// ACK-inferred packet loss.
    Loss,
    /// Retransmission-style timeout (no ACK progress for an RTO).
    Timeout,
}

/// Protocol events for the owner to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum RapEvent {
    /// Multiplicative decrease happened; `rate` is the post-backoff rate.
    Backoff {
        /// Event time.
        time: f64,
        /// Rate after the decrease (bytes/s).
        rate: f64,
        /// Rate immediately before the decrease (bytes/s), so consumers
        /// can recover the *actual* decrease factor `rate / pre_rate` —
        /// controllers other than RAP do not halve, and even RAP's floor
        /// clamp makes the realized factor differ from the nominal ½.
        pre_rate: f64,
        /// What triggered it.
        cause: BackoffCause,
    },
    /// A per-SRTT additive-increase step completed.
    RateIncrease {
        /// Event time.
        time: f64,
        /// Rate after the increase (bytes/s).
        rate: f64,
    },
    /// A packet's delivery was confirmed by the ACK stream. The QA layer
    /// credits receiver buffers on this event — crediting at *send* time
    /// would count bytes still sitting in the bottleneck queue as buffered
    /// and systematically overestimate the receiver's protection.
    PacketAcked {
        /// Event time.
        time: f64,
        /// Sequence of the acknowledged packet.
        seq: u64,
        /// Payload size (bytes).
        size: f64,
        /// Application tag attached at send time.
        tag: u32,
    },
    /// A packet was declared lost (reported even during cluster
    /// suppression so buffer accounting stays correct).
    PacketLost {
        /// Event time.
        time: f64,
        /// Sequence of the lost packet.
        seq: u64,
        /// Payload size (bytes).
        size: f64,
        /// Application tag attached at send time.
        tag: u32,
    },
}

impl RapEvent {
    pub(crate) fn acked(time: f64, seq: u64, record: PacketRecord) -> Self {
        RapEvent::PacketAcked {
            time,
            seq,
            size: record.size,
            tag: record.tag,
        }
    }

    pub(crate) fn lost(time: f64, seq: u64, record: PacketRecord) -> Self {
        RapEvent::PacketLost {
            time,
            seq,
            size: record.size,
            tag: record.tag,
        }
    }
}

/// Report the losses `history` infers from the ACKs so far as
/// [`RapEvent::PacketLost`]. Returns whether any of them lies beyond
/// `recovery_seq` — a new congestion event; losses at or below it were in
/// flight at the last backoff and belong to the event it answered.
pub(crate) fn report_losses(
    history: &mut TransmissionHistory,
    events: &mut Vec<RapEvent>,
    recovery_seq: Option<u64>,
    now: f64,
) -> bool {
    let mut new_event = false;
    history.detect_losses(|seq, record| {
        events.push(RapEvent::lost(now, seq, record));
        new_event |= recovery_seq.is_none_or(|r| seq > r);
    });
    new_event
}

/// RAP sender. See module docs for the driving loop.
#[derive(Debug, Clone)]
pub struct RapSender {
    cfg: RapConfig,
    aimd: AimdState,
    rtt: RttEstimator,
    history: TransmissionHistory,
    next_seq: u64,
    next_send: f64,
    next_step: f64,
    /// Highest sequence sent when the last backoff fired; losses at or
    /// below it are the same congestion event.
    recovery_seq: Option<u64>,
    /// Time of last ACK progress (for the timeout clock).
    last_progress: f64,
    /// Consecutive timeouts (stats only; the RTO backoff itself lives in
    /// the estimator so it stays capped and clamped in one place).
    timeouts_in_row: u32,
    events: Vec<RapEvent>,
}

impl RapSender {
    /// Create a sender whose clock starts at `now`.
    pub fn new(cfg: RapConfig, now: f64) -> Self {
        let mut aimd = AimdState::new(cfg.packet_size, cfg.initial_rate);
        aimd.set_max_rate(cfg.max_rate);
        let rtt = RttEstimator::new(cfg.initial_rtt);
        let srtt = rtt.srtt();
        RapSender {
            history: TransmissionHistory::new(cfg.reorder_threshold),
            aimd,
            rtt,
            next_seq: 0,
            next_send: now,
            next_step: now + srtt,
            recovery_seq: None,
            last_progress: now,
            timeouts_in_row: 0,
            events: Vec::new(),
            cfg,
        }
    }

    /// Current transmission rate (bytes/s).
    pub fn rate(&self) -> f64 {
        self.aimd.rate()
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.rtt.srtt()
    }

    /// Additive-increase slope `S = packet_size / srtt²` (bytes/s²) — what
    /// the quality-adaptation layer needs for its deficit geometry.
    pub fn slope(&self) -> f64 {
        self.aimd.slope(self.rtt.srtt())
    }

    /// Packets currently unresolved.
    pub fn in_flight(&self) -> usize {
        self.history.outstanding()
    }

    /// Consecutive timeouts without intervening ACK progress.
    pub fn timeouts_in_row(&self) -> u32 {
        self.timeouts_in_row
    }

    /// Configured packet size (bytes).
    pub fn packet_size(&self) -> f64 {
        self.cfg.packet_size
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &RapConfig {
        &self.cfg
    }

    /// Earliest time the next packet may be transmitted.
    pub fn next_send_time(&self) -> f64 {
        self.next_send
    }

    /// The next timer deadline (step or timeout) the owner should poll at.
    pub fn next_timer(&self) -> f64 {
        let timeout = self.timeout_deadline();
        self.next_step.min(timeout)
    }

    fn timeout_deadline(&self) -> f64 {
        if self.history.outstanding() == 0 {
            return f64::INFINITY;
        }
        // The estimator's RTO already carries the capped exponential
        // backoff and the [min_rto, max_rto] clamp — multiplying again
        // here compounded the backoff and could push the deadline far
        // past the intended ceiling.
        self.last_progress + self.rtt.rto()
    }

    /// Register a transmission of `size` bytes tagged `tag`; returns the
    /// sequence number to put on the wire and schedules the next send per
    /// the current IPG.
    pub fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.history.on_send(
            seq,
            PacketRecord {
                send_time: now,
                size,
                tag,
            },
        );
        let ipg = self.aimd.ipg();
        // Pace from the scheduled time, not `now`, so jitter in the owner's
        // loop does not accumulate rate error; but never fall behind by more
        // than one gap.
        self.next_send = self.next_send.max(now - ipg) + ipg;
        if self.history.outstanding() == 1 {
            // First packet in flight re-arms the timeout clock.
            self.last_progress = now;
        }
        seq
    }

    /// Process an arriving ACK.
    pub fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.last_progress = now;
        self.timeouts_in_row = 0;
        // ACK progress ends the RTO backoff (same eager reset the sender
        // has always applied to its consecutive-timeout counter — the
        // exponent merely lives in the estimator now).
        self.rtt.reset_backoff();
        let trigger = self.history.resolve_ack(&ack, |seq, record| {
            self.events.push(RapEvent::acked(now, seq, record));
        });
        // RTT sample from the acked packet, if it was still outstanding.
        if let Some(record) = trigger {
            let sample = now - record.send_time;
            self.rtt.sample(sample);
            laqa_obs::counter!("rap.rtt_samples").inc();
            laqa_obs::histogram!(
                "rap.rtt_ms",
                &[10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0]
            )
            .observe(sample * 1e3);
        }
        if report_losses(&mut self.history, &mut self.events, self.recovery_seq, now) {
            let pre_rate = self.aimd.rate();
            let rate = self.aimd.backoff();
            // Everything already in flight belongs to this congestion event.
            self.recovery_seq = self.next_seq.checked_sub(1);
            self.events.push(RapEvent::Backoff {
                time: now,
                rate,
                pre_rate,
                cause: BackoffCause::Loss,
            });
            laqa_obs::counter!("rap.backoffs_loss").inc();
            if laqa_obs::flight::enabled() {
                laqa_obs::flight::instant("rap.backoff_loss", now, rate);
            }
        }
    }

    /// Poll the per-SRTT increase timer and the timeout clock. Call at
    /// least as often as [`next_timer`](Self::next_timer) suggests.
    pub fn poll_timers(&mut self, now: f64) {
        // Timeout first: a dead flow must not keep increasing.
        if now >= self.timeout_deadline() {
            self.history.flush_all_as_lost(|seq, record| {
                self.events.push(RapEvent::lost(now, seq, record));
            });
            self.rtt.on_timeout();
            self.timeouts_in_row = self.timeouts_in_row.saturating_add(1);
            let pre_rate = self.aimd.rate();
            let rate = self.aimd.collapse();
            self.recovery_seq = self.next_seq.checked_sub(1);
            self.last_progress = now;
            self.events.push(RapEvent::Backoff {
                time: now,
                rate,
                pre_rate,
                cause: BackoffCause::Timeout,
            });
            laqa_obs::counter!("rap.backoffs_timeout").inc();
            if laqa_obs::flight::enabled() {
                laqa_obs::flight::instant("rap.backoff_timeout", now, rate);
            }
        }
        while now >= self.next_step {
            self.aimd.increase_step(self.rtt.srtt());
            laqa_obs::counter!("rap.increase_steps").inc();
            self.events.push(RapEvent::RateIncrease {
                time: self.next_step,
                rate: self.aimd.rate(),
            });
            self.next_step += self.rtt.srtt().max(1e-3);
        }
    }

    /// Drain accumulated protocol events.
    pub fn take_events(&mut self) -> Vec<RapEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drain accumulated protocol events into `out`, preserving both
    /// buffers' capacity — the zero-allocation alternative to
    /// [`take_events`](Self::take_events) for per-tick polling loops.
    pub fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;

    fn sender() -> RapSender {
        RapSender::new(
            RapConfig {
                initial_rate: 10_000.0,
                initial_rtt: 0.1,
                ..RapConfig::default()
            },
            0.0,
        )
    }

    /// Run a lossless send/ack loop for `dur` seconds with one-way delay
    /// `owd`; returns the final sender.
    fn run_clean(mut s: RapSender, dur: f64, owd: f64) -> RapSender {
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut in_flight: Vec<(f64, u64)> = Vec::new(); // (deliver_time, seq)
        while now < dur {
            s.poll_timers(now);
            // Deliver ACKs whose time has come (data owd + ack owd).
            while let Some(&(t, seq)) = in_flight.first() {
                if t <= now {
                    in_flight.remove(0);
                    let ack = rx.on_data(seq);
                    s.on_ack(t + owd, ack);
                } else {
                    break;
                }
            }
            if now >= s.next_send_time() {
                let seq = s.register_send(now, s.packet_size(), 0);
                in_flight.push((now + owd, seq));
            }
            now += 0.001;
        }
        s
    }

    #[test]
    fn rate_increases_linearly_without_loss() {
        let s = sender();
        let r0 = s.rate();
        let s = run_clean(s, 2.0, 0.05);
        // ~0.1 s SRTT → ~20 steps of +10 KB/s each over 2 s.
        assert!(s.rate() > r0 + 100_000.0, "rate {} after 2 s", s.rate());
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let s = run_clean(sender(), 2.0, 0.05);
        assert!((s.srtt() - 0.1).abs() < 0.02, "srtt {}", s.srtt());
    }

    #[test]
    fn loss_triggers_single_backoff_for_cluster() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        // Send 10 packets at t=0..0.9; drop seqs 3 and 5 (one congestion
        // event); ACK the rest in order at t=1.0+.
        for i in 0..10u64 {
            let seq = s.register_send(i as f64 * 0.1, 1_000.0, 0);
            assert_eq!(seq, i);
        }
        let mut now = 1.0;
        let mut backoffs = 0;
        let mut losses = 0;
        for seq in (0..10u64).filter(|s| *s != 3 && *s != 5) {
            let ack = rx.on_data(seq);
            s.on_ack(now, ack);
            now += 0.01;
        }
        for e in s.take_events() {
            match e {
                RapEvent::Backoff { .. } => backoffs += 1,
                RapEvent::PacketLost { .. } => losses += 1,
                _ => {}
            }
        }
        assert_eq!(losses, 2, "both losses reported");
        assert_eq!(backoffs, 1, "one backoff per congestion event");
    }

    #[test]
    fn separate_loss_events_backoff_twice() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        // First cluster: send 0..5, lose 1.
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 0);
        }
        for seq in [0u64, 2, 3, 4] {
            s.on_ack(0.2, rx.on_data(seq));
        }
        let backoffs1 = s
            .take_events()
            .iter()
            .filter(|e| matches!(e, RapEvent::Backoff { .. }))
            .count();
        assert_eq!(backoffs1, 1);
        // Second cluster: new packets sent after the backoff, lose 6.
        for i in 5..10u64 {
            s.register_send(0.3 + (i - 5) as f64 * 0.01, 1_000.0, 0);
        }
        for seq in [5u64, 7, 8, 9] {
            s.on_ack(0.5, rx.on_data(seq));
        }
        let backoffs2 = s
            .take_events()
            .iter()
            .filter(|e| matches!(e, RapEvent::Backoff { .. }))
            .count();
        assert_eq!(backoffs2, 1, "a loss after recovery is a new event");
    }

    #[test]
    fn timeout_collapses_rate_and_flushes() {
        let mut s = sender();
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 7);
        }
        let rate_before = s.rate();
        // No ACKs; poll far past the RTO.
        s.poll_timers(10.0);
        let events = s.take_events();
        let lost: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, RapEvent::PacketLost { .. }))
            .collect();
        assert_eq!(lost.len(), 5);
        let backoff = events.iter().find_map(|e| match e {
            RapEvent::Backoff { rate, cause, .. } => Some((*rate, *cause)),
            _ => None,
        });
        let (rate, cause) = backoff.expect("timeout must back off");
        assert_eq!(cause, BackoffCause::Timeout);
        assert!(rate < rate_before);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn rto_storm_backs_off_capped_then_recovers_on_ack() {
        // An unreachable receiver produces timeout after timeout: the gap
        // between consecutive RTOs must grow exponentially, saturate at the
        // cap instead of running away, and snap back once an ACK arrives.
        let mut s = sender();
        let mut now = 0.0;
        let mut gaps: Vec<f64> = Vec::new();
        for round in 0..9 {
            s.register_send(now, 1_000.0, 0); // re-arms the timeout clock
            let start = now;
            loop {
                now += 0.05;
                s.poll_timers(now);
                let fired = s.take_events().iter().any(|e| {
                    matches!(
                        e,
                        RapEvent::Backoff {
                            cause: BackoffCause::Timeout,
                            ..
                        }
                    )
                });
                if fired {
                    break;
                }
                assert!(
                    now - start < 120.0,
                    "round {round}: timeout never fired (deadline runaway)"
                );
            }
            gaps.push(now - start);
        }
        assert_eq!(s.timeouts_in_row(), 9);
        // Exponential growth until the 2^6 cap (base RTO 0.3 s → 19.2 s):
        for i in 0..5 {
            assert!(
                gaps[i + 1] > gaps[i] * 1.5,
                "gap {} -> {} did not back off",
                gaps[i],
                gaps[i + 1]
            );
        }
        assert!(
            (gaps[7] - gaps[6]).abs() < 0.11 && (gaps[8] - gaps[7]).abs() < 0.11,
            "backoff must saturate at the cap: {gaps:?}"
        );
        assert!(gaps[8] < 60.0, "RTO stays under the hard ceiling");
        // One ACK clears the storm: the next timeout is prompt again.
        let mut rx = RapReceiverState::new();
        let seq = s.register_send(now, 1_000.0, 0);
        s.on_ack(now + 0.1, rx.on_data(seq));
        assert_eq!(s.timeouts_in_row(), 0);
        let start = now;
        s.register_send(now, 1_000.0, 0);
        loop {
            now += 0.05;
            s.poll_timers(now);
            let fired = s
                .take_events()
                .iter()
                .any(|e| matches!(e, RapEvent::Backoff { .. }));
            if fired {
                break;
            }
            assert!(now - start < 10.0, "post-recovery timeout must be prompt");
        }
        assert!(
            now - start < 1.0,
            "backoff did not reset after ACK: gap {}",
            now - start
        );
    }

    #[test]
    fn pacing_respects_ipg() {
        let mut s = sender(); // 10 KB/s, 1 KB packets → IPG 0.1 s
        let t0 = s.next_send_time();
        s.register_send(t0, 1_000.0, 0);
        assert!((s.next_send_time() - (t0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn slope_tracks_srtt() {
        let s = run_clean(sender(), 1.0, 0.05);
        let expect = 1_000.0 / (s.srtt() * s.srtt());
        assert!((s.slope() - expect).abs() < 1e-6);
    }

    #[test]
    fn lost_packet_tags_surface() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        s.register_send(0.0, 1_000.0, 3);
        for i in 1..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 0);
        }
        // Lose seq 0.
        for seq in 1..5u64 {
            s.on_ack(0.2, rx.on_data(seq));
        }
        let tag = s.take_events().iter().find_map(|e| match e {
            RapEvent::PacketLost { tag, seq: 0, .. } => Some(*tag),
            _ => None,
        });
        assert_eq!(tag, Some(3));
    }

    #[test]
    fn sawtooth_with_periodic_loss_shows_aimd() {
        // Deterministic loss of every 50th packet: rate must oscillate, and
        // the long-run average must stay finite and positive.
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let owd = 0.02;
        let mut pipeline: Vec<(f64, u64)> = Vec::new();
        let mut peaks: Vec<f64> = Vec::new();
        let mut last_rate = s.rate();
        while now < 30.0 {
            s.poll_timers(now);
            while let Some(&(t, seq)) = pipeline.first() {
                if t <= now {
                    pipeline.remove(0);
                    let ack = rx.on_data(seq);
                    s.on_ack(now, ack);
                } else {
                    break;
                }
            }
            if now >= s.next_send_time() {
                let seq = s.register_send(now, 1_000.0, 0);
                if seq % 50 != 49 {
                    pipeline.push((now + owd, seq));
                }
            }
            if s.rate() < last_rate {
                peaks.push(last_rate);
            }
            last_rate = s.rate();
            now += 0.001;
        }
        assert!(
            peaks.len() > 5,
            "expected several backoffs, got {}",
            peaks.len()
        );
        assert!(s.rate() > 0.0);
    }
}
