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

use crate::history::{PacketRecord, TransmissionHistory};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use crate::sender::{report_losses, BackoffCause, RapEvent};

/// Window-sender configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Payload bytes per packet.
    pub packet_size: f64,
    /// Initial congestion window (packets).
    pub initial_cwnd: f64,
    /// Slow-start threshold (packets).
    pub initial_ssthresh: f64,
    /// Initial RTT guess (seconds).
    pub initial_rtt: f64,
    /// Packets after a hole before it is declared lost.
    pub reorder_threshold: u64,
    /// Window ceiling (packets).
    pub max_cwnd: f64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            packet_size: 1_000.0,
            initial_cwnd: 2.0,
            initial_ssthresh: 32.0,
            initial_rtt: 0.2,
            reorder_threshold: 3,
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
    rtt: RttEstimator,
    history: TransmissionHistory,
    next_seq: u64,
    recovery_seq: Option<u64>,
    last_progress: f64,
    timeouts_in_row: u32,
    /// EWMA of the derived rate. `cwnd/srtt` jumps a whole packet's worth
    /// per ACK in slow start; the QA allocation tick wants something
    /// steadier than that, so the trait's `tick_rate` reads this instead.
    smoothed_rate: f64,
    events: Vec<RapEvent>,
}

/// EWMA gain for the smoothed tick rate.
const RATE_SMOOTHING: f64 = 0.25;

impl WindowSender {
    /// New sender whose clock starts at `now`.
    pub fn new(cfg: WindowConfig, now: f64) -> Self {
        let cwnd = cfg.initial_cwnd.max(1.0);
        let smoothed_rate = cwnd * cfg.packet_size / cfg.initial_rtt.max(1e-6);
        WindowSender {
            cwnd,
            ssthresh: cfg.initial_ssthresh,
            rtt: RttEstimator::new(cfg.initial_rtt),
            history: TransmissionHistory::new(cfg.reorder_threshold),
            next_seq: 0,
            recovery_seq: None,
            last_progress: now,
            timeouts_in_row: 0,
            smoothed_rate,
            events: Vec::new(),
            cfg,
        }
    }

    /// Congestion window (packets).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.rtt.srtt()
    }

    /// Derived transmission rate (bytes/s): `cwnd · pkt / srtt`.
    pub fn rate(&self) -> f64 {
        self.cwnd * self.cfg.packet_size / self.rtt.srtt().max(1e-6)
    }

    /// EWMA-smoothed transmission rate (bytes/s) — a steadier signal than
    /// [`rate`](Self::rate) for per-tick consumers like the QA allocator.
    pub fn smoothed_rate(&self) -> f64 {
        self.smoothed_rate
    }

    /// AIMD slope `S = pkt/srtt²` (bytes/s²) — one packet per RTT gained
    /// each RTT, exactly like RAP's.
    pub fn slope(&self) -> f64 {
        let srtt = self.rtt.srtt().max(1e-6);
        self.cfg.packet_size / (srtt * srtt)
    }

    /// Packets in flight.
    pub fn in_flight(&self) -> usize {
        self.history.outstanding()
    }

    /// Whether the window permits a transmission right now.
    pub fn can_send(&self) -> bool {
        (self.history.outstanding() as f64) < self.cwnd.floor().max(1.0)
    }

    /// Configured packet size.
    pub fn packet_size(&self) -> f64 {
        self.cfg.packet_size
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Next timer deadline (timeout clock) the owner should poll at.
    pub fn next_timer(&self) -> f64 {
        if self.history.outstanding() == 0 {
            return f64::INFINITY;
        }
        let rto = self.rtt.rto() * 2f64.powi(self.timeouts_in_row.min(6) as i32);
        self.last_progress + rto
    }

    /// Register a transmission; returns the sequence number.
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
        if self.history.outstanding() == 1 {
            self.last_progress = now;
        }
        seq
    }

    /// Process an ACK: RTT sampling, per-ACK window growth, loss handling.
    pub fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.last_progress = now;
        self.timeouts_in_row = 0;
        let trigger = self.history.resolve_ack(&ack, |seq, record| {
            self.events.push(RapEvent::acked(now, seq, record));
            // Per-ACK growth: slow start below ssthresh, else CA.
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd.max(1.0);
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
        });
        if let Some(record) = trigger {
            self.rtt.sample(now - record.send_time);
        }
        self.smoothed_rate += RATE_SMOOTHING * (self.rate() - self.smoothed_rate);
        if report_losses(&mut self.history, &mut self.events, self.recovery_seq, now) {
            let pre_rate = self.rate();
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
            self.recovery_seq = self.next_seq.checked_sub(1);
            let rate = self.rate();
            self.smoothed_rate = rate;
            self.events.push(RapEvent::Backoff {
                time: now,
                rate,
                pre_rate,
                cause: BackoffCause::Loss,
            });
        }
    }

    /// Poll the timeout clock.
    pub fn poll_timers(&mut self, now: f64) {
        if now >= self.next_timer() {
            self.history.flush_all_as_lost(|seq, record| {
                self.events.push(RapEvent::lost(now, seq, record));
            });
            self.rtt.on_timeout();
            self.timeouts_in_row = self.timeouts_in_row.saturating_add(1);
            let pre_rate = self.rate();
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = 1.0;
            self.recovery_seq = self.next_seq.checked_sub(1);
            self.last_progress = now;
            let rate = self.rate();
            self.smoothed_rate = rate;
            self.events.push(RapEvent::Backoff {
                time: now,
                rate,
                pre_rate,
                cause: BackoffCause::Timeout,
            });
        }
    }

    /// Drain accumulated events.
    pub fn take_events(&mut self) -> Vec<RapEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drain accumulated events into `out`, preserving both buffers'
    /// capacity — the zero-allocation alternative to
    /// [`take_events`](Self::take_events) for per-tick polling loops.
    pub fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;

    fn sender() -> WindowSender {
        WindowSender::new(
            WindowConfig {
                initial_rtt: 0.05,
                ..WindowConfig::default()
            },
            0.0,
        )
    }

    /// Lossless echo path with one-way delay `owd`.
    fn run_clean(mut s: WindowSender, dur: f64, owd: f64) -> WindowSender {
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut pipe: Vec<(f64, u64)> = Vec::new();
        while now < dur {
            s.poll_timers(now);
            while !pipe.is_empty() && pipe[0].0 <= now {
                let (_, seq) = pipe.remove(0);
                s.on_ack(now, rx.on_data(seq));
            }
            while s.can_send() {
                let seq = s.register_send(now, s.packet_size(), 0);
                pipe.push((now + 2.0 * owd, seq));
            }
            now += 0.001;
        }
        s
    }

    #[test]
    fn window_opens_without_loss() {
        let s = run_clean(sender(), 2.0, 0.02);
        assert!(s.cwnd() > 30.0, "cwnd {}", s.cwnd());
        assert!(s.rate() > 100_000.0);
    }

    #[test]
    fn can_send_respects_window() {
        let mut s = sender();
        assert!(s.can_send());
        let w = s.cwnd().floor() as usize;
        for _ in 0..w {
            assert!(s.can_send());
            s.register_send(0.0, 1_000.0, 0);
        }
        assert!(!s.can_send(), "window exhausted");
    }

    #[test]
    fn loss_halves_window_once_per_cluster() {
        let mut s = sender();
        let mut rx = RapReceiverState::new();
        // Open the window a little first.
        for i in 0..8u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 0);
        }
        // Lose 2 and 4 from the same flight.
        for seq in [0u64, 1, 3, 5, 6, 7] {
            s.on_ack(0.2, rx.on_data(seq));
        }
        let backoffs = s
            .take_events()
            .iter()
            .filter(|e| matches!(e, RapEvent::Backoff { .. }))
            .count();
        assert_eq!(backoffs, 1, "one backoff per congestion event");
    }

    #[test]
    fn timeout_collapses_to_one_packet() {
        let mut s = sender();
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 3);
        }
        s.poll_timers(10.0);
        assert_eq!(s.cwnd(), 1.0);
        let events = s.take_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, RapEvent::PacketLost { .. }))
                .count(),
            5
        );
    }

    #[test]
    fn slope_matches_rap_formula() {
        let s = run_clean(sender(), 1.0, 0.02);
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
