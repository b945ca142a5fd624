//! The RAP sender state machine.
//!
//! Transport-agnostic: the owner (the simulator's RAP agent) provides
//! the clock and the wire; this type provides the protocol — pacing,
//! per-SRTT additive increase, ACK processing, loss detection with
//! cluster suppression, and timeout collapse.
//!
//! # Driving it
//!
//! Through [`RateController`], like every sender in this crate:
//!
//! ```text
//! loop:
//!   poll_timers(now)                      // AIMD step + timeout checks
//!   if now >= next_send_time(now):
//!       seq = register_send(now, size, tag)
//!       put packet(seq) on the wire
//!   on ACK arrival: on_ack(now, info)
//!   drain_events_into(..) → rate changes, backoffs, losses
//! ```
//!
//! The law here is the AIMD rate ([`AimdState`]) and its per-SRTT step;
//! sequence numbers, history, RTT, the timeout clock and the
//! one-backoff-per-loss-event rule are the shared `SenderShell`'s.

use crate::aimd::AimdState;
use crate::controller::{RateController, SenderCounts};
use crate::receiver::AckInfo;
use crate::shell::SenderShell;

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
    /// Optional rate ceiling (bytes/s), `INFINITY` for none.
    pub max_rate: f64,
}

impl Default for RapConfig {
    fn default() -> Self {
        RapConfig {
            packet_size: 1_000.0,
            initial_rate: 2_000.0,
            initial_rtt: 0.2,
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

/// RAP sender. See module docs for the driving loop.
#[derive(Debug)]
pub struct RapSender {
    cfg: RapConfig,
    aimd: AimdState,
    shell: SenderShell,
    next_step: f64,
}

impl RapSender {
    /// Create a sender whose clock starts at `now`.
    pub fn new(cfg: RapConfig, now: f64) -> Self {
        let mut aimd = AimdState::new(cfg.packet_size, cfg.initial_rate);
        aimd.set_max_rate(cfg.max_rate);
        let shell = SenderShell::new(cfg.initial_rtt, now);
        RapSender {
            next_step: now + shell.rtt.srtt(),
            aimd,
            shell,
            cfg,
        }
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.shell.rtt.srtt()
    }

    /// Packets currently unresolved.
    pub fn in_flight(&self) -> usize {
        self.shell.in_flight()
    }

    /// Consecutive timeouts without intervening ACK progress.
    pub fn timeouts_in_row(&self) -> u32 {
        self.shell.timeouts_in_row
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &RapConfig {
        &self.cfg
    }

    /// Drain accumulated protocol events.
    pub fn take_events(&mut self) -> Vec<RapEvent> {
        std::mem::take(&mut self.shell.events)
    }
}

impl RateController for RapSender {
    fn rate(&self) -> f64 {
        self.aimd.rate()
    }

    // `S = packet_size / srtt²` — what the quality-adaptation layer needs
    // for its deficit geometry.
    fn slope(&self) -> f64 {
        self.aimd.slope(self.shell.rtt.srtt())
    }

    fn next_send_time(&self, _now: f64) -> f64 {
        self.shell.next_send
    }

    fn next_timer(&self) -> f64 {
        self.next_step.min(self.shell.timeout_deadline())
    }

    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
        let seq = self.shell.register_send(now, size, tag);
        self.shell.pace(now, self.aimd.ipg());
        seq
    }

    fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.shell.on_ack(now, &ack, |_| {});
        if self.shell.report_losses(now) {
            let pre_rate = self.aimd.rate();
            let rate = self.aimd.backoff();
            self.shell.backoff(now, pre_rate, rate, BackoffCause::Loss);
        }
    }

    fn poll_timers(&mut self, now: f64) {
        // Timeout first: a dead flow must not keep increasing.
        if self.shell.timed_out(now, self.shell.timeout_deadline()) {
            let pre_rate = self.aimd.rate();
            let rate = self.aimd.collapse();
            self.shell
                .backoff(now, pre_rate, rate, BackoffCause::Timeout);
        }
        while now >= self.next_step {
            self.aimd.increase_step(self.shell.rtt.srtt());
            self.shell.counts.increase_steps += 1;
            self.shell.events.push(RapEvent::RateIncrease {
                time: self.next_step,
                rate: self.aimd.rate(),
            });
            self.next_step += self.shell.rtt.srtt().max(1e-3);
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.shell.events);
    }

    fn restart(&mut self, start_at: f64) {
        *self = RapSender::new(self.cfg.clone(), start_at);
    }

    fn counts(&self) -> SenderCounts {
        self.shell.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;
    use crate::shell::tests::{backoffs_and_losses, drive, echo, flight};

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

    /// Run a lossless echo path of round-trip `rtt` for `dur` seconds.
    fn run_clean(mut s: RapSender, dur: f64, rtt: f64) -> RapSender {
        drive(&mut s, dur, |_, _| Some(rtt));
        s
    }

    #[test]
    fn rate_increases_linearly_without_loss() {
        let s = sender();
        let r0 = s.rate();
        let s = run_clean(s, 2.0, 0.1);
        // ~0.1 s SRTT → ~20 steps of +10 KB/s each over 2 s.
        assert!(s.rate() > r0 + 100_000.0, "rate {} after 2 s", s.rate());
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let s = run_clean(sender(), 2.0, 0.1);
        assert!((s.srtt() - 0.1).abs() < 0.02, "srtt {}", s.srtt());
    }

    #[test]
    fn loss_triggers_single_backoff_for_cluster() {
        // Seqs 3 and 5 lost from one flight: one congestion event, and
        // RAP's answer to it is to halve.
        let mut s = sender();
        let r0 = s.rate();
        flight(&mut s, &mut RapReceiverState::new(), 0.0, 10, &[3, 5]);
        assert_eq!(s.rate(), r0 / 2.0);
        assert_eq!(backoffs_and_losses(&mut s), (1, 2));
    }

    #[test]
    fn separate_loss_events_backoff_twice() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        let r0 = s.rate();
        flight(&mut s, &mut rx, 0.0, 5, &[1]);
        // New packets sent after the backoff, one of them lost: a loss
        // after recovery is a new event.
        flight(&mut s, &mut rx, 0.3, 5, &[6]);
        assert_eq!(s.rate(), r0 / 4.0);
        assert_eq!(backoffs_and_losses(&mut s), (2, 2));
    }

    #[test]
    fn timeout_collapses_rate_and_flushes() {
        let mut s = sender();
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 7);
        }
        // No ACKs; poll far past the RTO.
        s.poll_timers(10.0);
        assert_eq!(s.in_flight(), 0);
        let collapsed = s.take_events().iter().find_map(|e| match e {
            RapEvent::Backoff { rate, cause, .. } => Some((*rate, *cause)),
            _ => None,
        });
        let floor = s.config().packet_size;
        assert_eq!(collapsed, Some((floor, BackoffCause::Timeout)));
    }

    /// Send one packet at `*now` (re-arming the timeout clock) and poll in
    /// 50 ms steps until the timeout fires; returns how long that took.
    fn gap_to_timeout(s: &mut RapSender, now: &mut f64, limit: f64) -> f64 {
        s.register_send(*now, 1_000.0, 0);
        let start = *now;
        while backoffs_and_losses(s).0 == 0 {
            assert!(
                *now - start < limit,
                "timeout never fired (deadline runaway)"
            );
            *now += 0.05;
            s.poll_timers(*now);
        }
        *now - start
    }

    #[test]
    fn rto_storm_backs_off_capped_then_recovers_on_ack() {
        // An unreachable receiver produces timeout after timeout: the gap
        // between consecutive RTOs must grow exponentially, saturate at the
        // cap instead of running away, and snap back once an ACK arrives.
        let mut s = sender();
        let mut now = 0.0;
        let gaps: Vec<f64> = (0..9)
            .map(|_| gap_to_timeout(&mut s, &mut now, 120.0))
            .collect();
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
        let seq = s.register_send(now, 1_000.0, 0);
        s.on_ack(now + 0.1, RapReceiverState::new().on_data(seq));
        assert_eq!(s.timeouts_in_row(), 0);
        let gap = gap_to_timeout(&mut s, &mut now, 10.0);
        assert!(gap < 1.0, "backoff did not reset after ACK: gap {gap}");
    }

    #[test]
    fn pacing_respects_ipg() {
        let mut s = sender(); // 10 KB/s, 1 KB packets → IPG 0.1 s
        let t0 = s.next_send_time(0.0);
        s.register_send(t0, 1_000.0, 0);
        assert!((s.next_send_time(0.0) - (t0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn slope_tracks_srtt() {
        let s = run_clean(sender(), 1.0, 0.1);
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
        // Deterministic loss of every 50th packet: the rate must saw, each
        // tooth a halving, and stay positive.
        let mut s = sender();
        let backoffs = drive(&mut s, 30.0, echo(50));
        assert!(
            backoffs.len() > 5,
            "expected several backoffs, got {}",
            backoffs.len()
        );
        assert!(backoffs
            .iter()
            .all(|&(pre, post)| post == (pre / 2.0).max(1_000.0)));
        assert!(s.rate() > 0.0);
    }
}
