//! The [`RateController`] abstraction: what the quality-adaptation layer
//! actually consumes of a congestion controller.
//!
//! The paper's QA machinery (§3–§4) needs remarkably little from the
//! transport underneath it: the current transmission rate, the additive
//! slope of its increase phase (for the deficit-triangle geometry), backoff
//! notifications carrying the *realized* decrease, and a way to pace or
//! clock packets out. This trait captures exactly that surface so the QA
//! agent can run unchanged over RAP (rate-paced AIMD), a TCP-like windowed
//! sender, a BBR-style delivery-rate prober, or a NADA-style delay-gradient
//! controller.
//!
//! # Pacing vs ACK-clocking
//!
//! The one genuine impedance mismatch between those families is *when a
//! packet may leave*. Paced senders own a future deadline; ACK-clocked
//! senders can only answer "now or not now". [`next_send_time`] bridges
//! both: it takes the current time and returns the earliest permissible
//! transmission instant — a paced sender ignores `now` and returns its
//! deadline, an ACK-clocked sender returns `now` while the window has room
//! and `INFINITY` once it is exhausted. The owner's loop
//! `while now >= ctl.next_send_time(now) { send }` is then correct for
//! every controller.
//!
//! [`next_send_time`]: RateController::next_send_time

use crate::receiver::AckInfo;
use crate::sender::RapEvent;

/// What a sender's shell counts, always on, from its construction or last
/// [`RateController::restart`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderCounts {
    /// RTT samples fed to the estimator.
    pub rtt_samples: u64,
    /// Backoffs answering an ACK-inferred loss.
    pub backoffs_loss: u64,
    /// Backoffs answering a timeout.
    pub backoffs_timeout: u64,
    /// AIMD increase steps (RAP only; 0 under the other laws).
    pub increase_steps: u64,
}

/// A congestion controller usable underneath the quality-adaptation layer.
///
/// Implementations must be deterministic: the same sequence of calls with
/// the same arguments must produce the same state and events, bit for bit
/// — the simulator's replay fingerprints depend on it.
pub trait RateController {
    /// Current transmission rate (bytes/s).
    fn rate(&self) -> f64;

    /// Additive-increase slope `S` (bytes/s²) the QA geometry should plan
    /// with. For controllers whose probing is not strictly additive this
    /// is the local linearization of the increase phase.
    fn slope(&self) -> f64;

    /// Earliest time a packet may be transmitted. Paced controllers ignore
    /// `now`; ACK-clocked controllers return `now` while the window has
    /// room and `f64::INFINITY` otherwise (see module docs).
    fn next_send_time(&self, now: f64) -> f64;

    /// Next timer deadline (increase step, probe-cycle advance, or timeout
    /// clock) the owner should poll at.
    fn next_timer(&self) -> f64;

    /// Register a transmission of `size` bytes tagged `tag`; returns the
    /// sequence number to put on the wire.
    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64;

    /// Process an arriving ACK.
    fn on_ack(&mut self, now: f64, ack: AckInfo);

    /// Poll internal timers. Call at least as often as
    /// [`next_timer`](Self::next_timer) suggests.
    fn poll_timers(&mut self, now: f64);

    /// Drain accumulated protocol events into `out`, preserving both
    /// buffers' capacity.
    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>);

    /// Reset to the freshly-constructed state with the clock at
    /// `start_at` (delayed flow start, fault-recovery restart).
    fn restart(&mut self, start_at: f64);

    /// What this sender has counted since construction or the last
    /// [`restart`](Self::restart).
    fn counts(&self) -> SenderCounts;

    /// The rate the per-tick QA allocation should plan with. Defaults to
    /// the instantaneous [`rate`](Self::rate); controllers whose
    /// instantaneous rate is jumpy (ACK-clocked windows in slow start)
    /// override this with a smoothed variant.
    fn tick_rate(&self) -> f64 {
        self.rate()
    }

    /// Nominal multiplicative decrease factor of this controller: a
    /// backoff from rate `R` lands near `R · decrease_factor`. The QA
    /// layer threads this into its recovery geometry
    /// (`QaConfig::decrease_factor`). Must lie strictly in `(0, 1)`.
    fn decrease_factor(&self) -> f64 {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::tests::{drive, echo};
    use crate::{RapConfig, RapSender, WindowConfig, WindowSender};

    #[test]
    fn window_sender_clocks_on_acks() {
        // The owner's `while now >= next_send_time(now)` loop, correct for
        // paced senders, must also open an ACK-clocked window.
        let cfg = WindowConfig {
            initial_rtt: 0.05,
            ..WindowConfig::default()
        };
        let mut w = WindowSender::new(cfg, 0.0);
        drive(&mut w, 2.0, echo(0));
        assert!(w.rate() > 100_000.0, "window must open: {}", w.rate());
        assert!(w.tick_rate() > 0.0 && w.tick_rate().is_finite());
    }

    #[test]
    fn restart_resets_to_fresh_state() {
        let mut s = RapSender::new(RapConfig::default(), 0.0);
        drive(&mut s, 1.0, echo(0));
        s.restart(5.0);
        let fresh = RapSender::new(RapConfig::default(), 5.0);
        assert_eq!(s.rate().to_bits(), fresh.rate().to_bits());
        assert_eq!(s.next_send_time(5.0), 5.0);
        assert_eq!(s.next_timer().to_bits(), fresh.next_timer().to_bits());
    }

    #[test]
    fn nominal_decrease_factors_in_unit_interval() {
        let s = RapSender::new(RapConfig::default(), 0.0);
        let w = WindowSender::new(WindowConfig::default(), 0.0);
        for f in [s.decrease_factor(), w.decrease_factor()] {
            assert!(f > 0.0 && f < 1.0, "nominal factor {f}");
        }
    }
}
