//! A NADA-style delay-gradient controller behind the [`RateController`]
//! trait (after RFC 8698's "Network-Assisted Dynamic Adaptation", here in
//! its receiver-assistance-free form).
//!
//! The controller folds queueing delay and loss into one **unified
//! congestion signal**
//!
//! ```text
//! x = d_queue + DLOSS · (p / p_ref)²
//! ```
//!
//! where `d_queue = srtt − min_rtt` is the standing-queue estimate, `p` an
//! EWMA of the per-packet loss indicator, and `DLOSS` the delay-units
//! penalty of reference-level loss. Between loss events the rate follows a
//! proportional update toward the operating point `x = x_ref`:
//!
//! ```text
//! R ← R + η · (x_ref − x) / x_ref · packet_size / srtt     (once per SRTT)
//! ```
//!
//! — on an uncongested path (`x = 0`) that is exactly η packets per SRTT
//! per SRTT, i.e. RAP's additive slope scaled by η, which is what
//! [`slope`](RateController::slope) reports to the QA geometry. Loss
//! *clusters* (same suppression rule as RAP) trigger a multiplicative
//! decrease whose factor adapts to the measured loss level:
//!
//! ```text
//! γ = clamp( 1 / (1 + p/p_ref), GAMMA_MIN, GAMMA_MAX )
//! ```
//!
//! light loss backs off gently (γ → 0.95), reference-level loss halves
//! near-TCP-style (γ → 0.5). Timeouts collapse to the floor rate. All
//! state is a pure function of the ACK stream and the polled clock.

use crate::controller::{RateController, SenderCounts};
use crate::receiver::AckInfo;
use crate::sender::{BackoffCause, RapConfig, RapEvent};
use crate::shell::SenderShell;

/// Softest permitted multiplicative decrease.
pub const GAMMA_MAX: f64 = 0.95;

/// Hardest permitted multiplicative decrease (TCP-equivalent halving).
pub const GAMMA_MIN: f64 = 0.5;

/// Nominal decrease factor surfaced to the QA geometry: the γ the
/// controller realizes at reference-level loss pressure sits midway
/// between the clamps.
pub const NOMINAL_GAMMA: f64 = 0.75;

/// Target congestion signal (seconds of equivalent delay).
const X_REF: f64 = 0.02;

/// Reference loss fraction (the level that costs [`D_LOSS`]).
const P_REF: f64 = 0.01;

/// Delay-units penalty of reference-level loss (seconds).
const D_LOSS: f64 = 0.1;

/// Rate-update gain: packets per SRTT gained when uncongested.
const ETA: f64 = 1.0;

/// EWMA gain for the loss-fraction estimate.
const LOSS_ALPHA: f64 = 0.01;

/// NADA-style sender configuration: the same four parameters as RAP's.
pub type NadaConfig = RapConfig;

/// NADA-style unified-congestion-signal sender. Paced, like RAP; drive it
/// with the same loop (see [`RateController`]).
#[derive(Debug)]
pub struct NadaSender {
    cfg: NadaConfig,
    shell: SenderShell,
    rate: f64,
    /// Running minimum of raw RTT samples (the propagation-delay anchor
    /// for the queueing-delay gradient).
    min_rtt: f64,
    /// EWMA loss fraction over resolved packets.
    loss_ewma: f64,
    next_update: f64,
}

impl NadaSender {
    /// New sender whose clock starts at `now`.
    pub fn new(cfg: NadaConfig, now: f64) -> Self {
        let shell = SenderShell::new(cfg.initial_rtt, now);
        NadaSender {
            rate: cfg.initial_rate.max(cfg.packet_size),
            min_rtt: f64::INFINITY,
            loss_ewma: 0.0,
            next_update: now + shell.rtt.srtt(),
            shell,
            cfg,
        }
    }

    /// Floor rate: one packet per second, same as RAP's AIMD floor.
    fn min_rate(&self) -> f64 {
        self.cfg.packet_size
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.shell.rtt.srtt()
    }

    /// Standing-queue estimate `srtt − min_rtt` (seconds, ≥ 0).
    pub fn d_queue(&self) -> f64 {
        if self.min_rtt.is_finite() {
            (self.shell.rtt.srtt() - self.min_rtt).max(0.0)
        } else {
            0.0
        }
    }

    /// The unified congestion signal `x = d_queue + DLOSS·(p/p_ref)²`.
    pub fn signal(&self) -> f64 {
        let p_term = self.loss_ewma / P_REF;
        self.d_queue() + D_LOSS * p_term * p_term
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &NadaConfig {
        &self.cfg
    }

    /// Per-SRTT proportional rate update toward `x = x_ref`.
    fn rate_update(&mut self, at: f64) {
        let srtt = self.shell.rtt.srtt().max(1e-3);
        let x = self.signal();
        let step = ETA * (X_REF - x) / X_REF * self.cfg.packet_size / srtt;
        let before = self.rate;
        self.rate = (self.rate + step).clamp(self.min_rate(), self.cfg.max_rate);
        if self.rate > before {
            self.shell.events.push(RapEvent::RateIncrease {
                time: at,
                rate: self.rate,
            });
        }
    }

    /// Fold the outcome of `packets` resolved packets, one at a time,
    /// into the loss EWMA.
    fn observe(&mut self, lost: bool, packets: usize) {
        let y = if lost { 1.0 } else { 0.0 };
        for _ in 0..packets {
            self.loss_ewma += LOSS_ALPHA * (y - self.loss_ewma);
        }
    }

    /// Report ACK-inferred losses; a new congestion event backs off by the
    /// loss-adaptive γ.
    fn handle_losses(&mut self, now: f64) {
        // γ reflects the loss level *standing at event time*: folding the
        // current cluster into the EWMA first would let any single loss
        // saturate the formula at the hard clamp.
        let p_at_event = self.loss_ewma;
        let reported = self.shell.events.len();
        let new_event = self.shell.report_losses(now);
        self.observe(true, self.shell.events.len() - reported);
        if new_event {
            let pre_rate = self.rate;
            let gamma = (1.0 / (1.0 + p_at_event / P_REF)).clamp(GAMMA_MIN, GAMMA_MAX);
            self.rate = (self.rate * gamma).max(self.min_rate());
            self.shell
                .backoff(now, pre_rate, self.rate, BackoffCause::Loss);
        }
    }
}

impl RateController for NadaSender {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn slope(&self) -> f64 {
        // The uncongested increase is η packets per SRTT per SRTT — RAP's
        // slope scaled by the gain.
        let srtt = self.shell.rtt.srtt().max(1e-6);
        ETA * self.cfg.packet_size / (srtt * srtt)
    }

    fn next_send_time(&self, _now: f64) -> f64 {
        self.shell.next_send
    }

    fn next_timer(&self) -> f64 {
        self.next_update.min(self.shell.timeout_deadline())
    }

    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
        let seq = self.shell.register_send(now, size, tag);
        self.shell.pace(now, self.cfg.packet_size / self.rate);
        seq
    }

    fn on_ack(&mut self, now: f64, ack: AckInfo) {
        let acked = self.shell.events.len();
        if let Some(sample) = self.shell.on_ack(now, &ack, |_| {}) {
            if sample > 0.0 && sample < self.min_rtt {
                self.min_rtt = sample;
            }
        }
        self.observe(false, self.shell.events.len() - acked);
        self.handle_losses(now);
    }

    fn poll_timers(&mut self, now: f64) {
        let flushed = self.shell.events.len();
        if self.shell.timed_out(now, self.shell.timeout_deadline()) {
            self.observe(true, self.shell.events.len() - flushed);
            let pre_rate = self.rate;
            self.rate = self.min_rate();
            self.shell
                .backoff(now, pre_rate, self.rate, BackoffCause::Timeout);
        }
        while now >= self.next_update {
            let at = self.next_update;
            self.rate_update(at);
            self.next_update += self.shell.rtt.srtt().max(1e-3);
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.shell.events);
    }

    fn restart(&mut self, start_at: f64) {
        *self = NadaSender::new(self.cfg.clone(), start_at);
    }

    fn counts(&self) -> SenderCounts {
        self.shell.counts
    }

    fn decrease_factor(&self) -> f64 {
        NOMINAL_GAMMA
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;
    use crate::shell::tests::{drive, echo};

    fn sender(max_rate: f64) -> NadaSender {
        NadaSender::new(
            NadaConfig {
                initial_rate: 10_000.0,
                initial_rtt: 0.1,
                max_rate,
                ..NadaConfig::default()
            },
            0.0,
        )
    }

    /// [`drive`] over [`echo`]. Returns (sender, `(pre, post)` backoffs).
    fn run(mut s: NadaSender, dur: f64, loss_every: u64) -> (NadaSender, Vec<(f64, f64)>) {
        let backoffs = drive(&mut s, dur, echo(loss_every));
        (s, backoffs)
    }

    #[test]
    fn uncongested_path_increases_additively() {
        let (s, backoffs) = run(sender(f64::INFINITY), 3.0, 0);
        assert!(backoffs.is_empty());
        // η=1, srtt 40 ms: about one packet per srtt per srtt of growth
        // over 3 s from 10 KB/s — well past 100 KB/s.
        assert!(s.rate() > 100_000.0, "rate {}", s.rate());
        assert!((s.srtt() - 0.04).abs() < 0.02);
        assert!(s.d_queue() < 0.01, "no standing queue on an echo path");
    }

    #[test]
    fn respects_rate_bounds() {
        let (s, _) = run(sender(30_000.0), 3.0, 0);
        assert!(s.rate() <= 30_000.0 + 1e-9);
        let (s, _) = run(sender(f64::INFINITY), 20.0, 5);
        assert!(s.rate() >= s.config().packet_size);
    }

    #[test]
    fn backoff_gamma_tracks_loss_pressure_within_clamps() {
        // Inject one fresh loss event at different standing loss levels
        // and read the realized post/pre ratio. Rate far above the floor
        // so no clamp obscures γ itself.
        let gamma_at = |p: f64| {
            let mut s = sender(f64::INFINITY);
            for i in 0..10u64 {
                s.register_send(i as f64 * 0.01, 1_000.0, 0);
            }
            s.loss_ewma = p;
            s.rate = 100_000.0;
            // Only the last of the ten arrives: everything more than the
            // reorder threshold below it is one loss cluster.
            s.on_ack(1.0, RapReceiverState::new().on_data(9));
            s.rate / 100_000.0
        };
        let r_none = gamma_at(0.0);
        let r_ref = gamma_at(0.002);
        let r_heavy = gamma_at(0.2);
        assert_eq!(r_none, GAMMA_MAX, "no standing loss → softest backoff");
        assert_eq!(r_heavy, GAMMA_MIN, "heavy loss saturates at halving");
        assert!(
            r_heavy < r_ref && r_ref < r_none,
            "gamma must fall with loss pressure: {r_heavy} {r_ref} {r_none}"
        );
    }

    #[test]
    fn every_backoff_ratio_in_unit_interval() {
        let (_, backoffs) = run(sender(f64::INFINITY), 10.0, 30);
        assert!(!backoffs.is_empty());
        for (pre, post) in backoffs {
            let r = post / pre;
            assert!(r > 0.0 && r <= 1.0, "ratio {r}");
        }
    }

    #[test]
    fn standing_queue_caps_the_rate_without_loss() {
        // Feed ACKs whose RTT grows with the send rate (a synthetic
        // self-induced queue: delay proportional to how far the rate sits
        // above 50 KB/s): the signal must push back before any loss.
        let mut s = sender(f64::INFINITY);
        let mut peak = 0.0f64;
        drive(&mut s, 8.0, |s, _| {
            peak = peak.max(s.rate());
            Some(0.04 + ((s.rate() - 50_000.0) / 50_000.0).max(0.0) * 0.1)
        });
        assert!(
            peak < 200_000.0,
            "delay gradient must arrest growth long before 200 KB/s: {peak}"
        );
        assert!(s.d_queue() > 0.0 || s.rate() < 80_000.0);
    }

    #[test]
    fn timeout_collapses_to_floor() {
        let mut s = sender(f64::INFINITY);
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 0);
        }
        s.poll_timers(30.0);
        assert_eq!(s.rate(), s.config().packet_size);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let (a, _) = run(sender(f64::INFINITY), 5.0, 40);
        let (b, _) = run(sender(f64::INFINITY), 5.0, 40);
        assert_eq!(a.rate().to_bits(), b.rate().to_bits());
        assert_eq!(a.signal().to_bits(), b.signal().to_bits());
    }
}
