//! A window-based AIMD sender — the paper's §7 plan to "extend the idea of
//! quality adaptation to other congestion control schemes that employ
//! AIMD algorithms", made concrete.
//!
//! Where RAP is rate-based (paced by an inter-packet gap), this sender is
//! **ACK-clocked** like TCP: it may transmit whenever fewer than `cwnd`
//! packets are in flight, grows the window by one packet per RTT
//! (congestion avoidance; slow start below `ssthresh`), and halves it per
//! loss event. The quality-adaptation layer is agnostic: it only consumes
//! the derived rate `cwnd·pkt/srtt`, the AIMD slope `pkt/srtt²` (identical
//! to RAP's — one packet per RTT per RTT), and the same [`RapEvent`]
//! stream.

use crate::controller::RateController;
use crate::receiver::AckInfo;
use crate::sender::{BackoffCause, RapEvent};
use crate::shell::SenderShell;

/// Window-sender configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Payload bytes per packet.
    pub packet_size: f64,
    /// Initial RTT guess (seconds).
    pub initial_rtt: f64,
    /// Window ceiling (packets).
    pub max_cwnd: f64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            packet_size: 1_000.0,
            initial_rtt: 0.2,
            max_cwnd: 10_000.0,
        }
    }
}

/// ACK-clocked AIMD sender with the same event interface as
/// [`crate::RapSender`].
#[derive(Debug, Clone)]
pub struct WindowSender {
    cfg: WindowConfig,
    cwnd: f64,
    ssthresh: f64,
    shell: SenderShell,
    /// EWMA of the derived rate. `cwnd/srtt` jumps a whole packet's worth
    /// per ACK in slow start; the QA allocation tick wants something
    /// steadier than that, so the trait's `tick_rate` reads this instead.
    smoothed_rate: f64,
}

/// EWMA gain for the smoothed tick rate.
const RATE_SMOOTHING: f64 = 0.25;

/// Initial congestion window (packets).
const INITIAL_CWND: f64 = 2.0;

/// Initial slow-start threshold (packets).
const INITIAL_SSTHRESH: f64 = 32.0;

impl WindowSender {
    /// New sender whose clock starts at `now`.
    pub fn new(cfg: WindowConfig, now: f64) -> Self {
        let smoothed_rate = INITIAL_CWND * cfg.packet_size / cfg.initial_rtt.max(1e-6);
        WindowSender {
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            shell: SenderShell::new(cfg.initial_rtt, now),
            smoothed_rate,
            cfg,
        }
    }

    /// Congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.shell.rtt.srtt()
    }

    /// EWMA-smoothed transmission rate (bytes/s) — a steadier signal than
    /// [`rate`](RateController::rate) for per-tick consumers like the QA
    /// allocator.
    pub fn smoothed_rate(&self) -> f64 {
        self.smoothed_rate
    }

    /// Packets in flight.
    pub fn in_flight(&self) -> usize {
        self.shell.in_flight()
    }

    /// Whether the window permits a transmission right now.
    pub fn can_send(&self) -> bool {
        (self.shell.in_flight() as f64) < self.cwnd.floor().max(1.0)
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Drain accumulated events.
    pub fn take_events(&mut self) -> Vec<RapEvent> {
        std::mem::take(&mut self.shell.events)
    }

    /// Multiplicative decrease: `ssthresh` is half the window; a loss
    /// continues from there, a timeout from one packet.
    fn shrink(&mut self, now: f64, cause: BackoffCause) {
        let pre_rate = self.rate();
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = match cause {
            BackoffCause::Loss => self.ssthresh,
            BackoffCause::Timeout => 1.0,
        };
        let rate = self.rate();
        self.smoothed_rate = rate;
        self.shell.backoff(now, pre_rate, rate, cause);
    }
}

impl RateController for WindowSender {
    // Derived: `cwnd · pkt / srtt`.
    fn rate(&self) -> f64 {
        self.cwnd * self.cfg.packet_size / self.shell.rtt.srtt().max(1e-6)
    }

    // `S = pkt/srtt²` — one packet per RTT gained each RTT, exactly like
    // RAP's.
    fn slope(&self) -> f64 {
        let srtt = self.shell.rtt.srtt().max(1e-6);
        self.cfg.packet_size / (srtt * srtt)
    }

    fn next_send_time(&self, now: f64) -> f64 {
        if self.can_send() {
            now
        } else {
            f64::INFINITY
        }
    }

    // The timeout clock is the only timer.
    fn next_timer(&self) -> f64 {
        self.shell.timeout_deadline()
    }

    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
        self.shell.register_send(now, size, tag)
    }

    fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.shell.on_ack(now, &ack, |_| {
            // Per-ACK growth: slow start below ssthresh, else CA.
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd.max(1.0);
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
        });
        self.smoothed_rate += RATE_SMOOTHING * (self.rate() - self.smoothed_rate);
        if self.shell.report_losses(now) {
            self.shrink(now, BackoffCause::Loss);
        }
    }

    fn poll_timers(&mut self, now: f64) {
        if self.shell.timed_out(now, self.next_timer()) {
            self.shrink(now, BackoffCause::Timeout);
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.shell.events);
    }

    fn restart(&mut self, start_at: f64) {
        *self = WindowSender::new(self.cfg.clone(), start_at);
    }

    fn tick_rate(&self) -> f64 {
        self.smoothed_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;
    use crate::shell::tests::{backoffs_and_losses, drive, echo, flight};

    fn sender() -> WindowSender {
        WindowSender::new(
            WindowConfig {
                initial_rtt: 0.05,
                ..WindowConfig::default()
            },
            0.0,
        )
    }

    /// Lossless echo path of 40 ms round trip.
    fn run_clean(mut s: WindowSender, dur: f64) -> WindowSender {
        drive(&mut s, dur, echo(0));
        s
    }

    #[test]
    fn window_opens_without_loss() {
        let s = run_clean(sender(), 2.0);
        assert!(s.cwnd() > 30.0, "cwnd {}", s.cwnd());
        assert!(s.rate() > 100_000.0);
        assert!(s.tick_rate() > 0.0 && s.tick_rate().is_finite());
    }

    #[test]
    fn can_send_respects_window() {
        // ACK-clocked: window open → send now; exhausted → never.
        let mut s = sender();
        for _ in 0..s.cwnd().floor() as usize {
            assert!(s.can_send());
            assert_eq!(s.next_send_time(1.0), 1.0);
            s.register_send(1.0, 1_000.0, 0);
        }
        assert!(!s.can_send(), "window exhausted");
        assert_eq!(s.next_send_time(1.0), f64::INFINITY);
    }

    #[test]
    fn loss_halves_window_once_per_cluster() {
        // 2 and 4 lost from the same flight: one congestion event. Four
        // ACKs open the window from 2 to 6, the first loss halves it to 3,
        // and the last two ACKs add congestion avoidance's 1/cwnd each.
        let mut s = sender();
        flight(&mut s, &mut RapReceiverState::new(), 0.0, 8, &[2, 4]);
        assert!((3.0..4.0).contains(&s.cwnd()), "cwnd {}", s.cwnd());
        assert_eq!(backoffs_and_losses(&mut s), (1, 2));
    }

    #[test]
    fn timeout_collapses_to_one_packet() {
        let mut s = sender();
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 3);
        }
        s.poll_timers(10.0);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(backoffs_and_losses(&mut s), (1, 5));
    }

    #[test]
    fn timeout_deadline_is_the_estimators_rto_and_ack_progress_resets_it() {
        // After n consecutive timeouts the deadline is the estimator's
        // RTO, which already carries the 2ⁿ backoff — doubling, not 4ⁿ.
        // Base RTO from the 50 ms seed: max(0.05 + 4·0.025, min_rto) = 0.2 s.
        let mut s = sender();
        for (n, rto) in [0.2, 0.2 * 2.0, 0.2 * 4.0].into_iter().enumerate() {
            let now = n as f64 * 10.0;
            s.register_send(now, 1_000.0, 0);
            assert!((s.next_timer() - (now + rto)).abs() < 1e-12, "timeout {n}");
            s.poll_timers(s.next_timer());
            assert_eq!(backoffs_and_losses(&mut s), (1, 1), "timeout {n}");
        }
        // A late ACK for a packet the timeout already wrote off yields no
        // RTT sample, but it is progress: the backoff resets, as in every
        // other sender.
        s.on_ack(30.0, RapReceiverState::new().on_data(0));
        s.register_send(30.0, 1_000.0, 0);
        assert!((s.next_timer() - (30.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn slope_matches_rap_formula() {
        let s = run_clean(sender(), 1.0);
        let srtt = s.srtt();
        assert!((s.slope() - 1_000.0 / (srtt * srtt)).abs() < 1e-6);
    }

    #[test]
    fn acked_events_carry_tags() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        let seq = s.register_send(0.0, 1_000.0, 7);
        s.on_ack(0.05, rx.on_data(seq));
        let tag = s.take_events().iter().find_map(|e| match e {
            RapEvent::PacketAcked { tag, .. } => Some(*tag),
            _ => None,
        });
        assert_eq!(tag, Some(7));
    }
}
