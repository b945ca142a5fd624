//! A BBR-style model-based controller behind the [`RateController`] trait.
//!
//! Where RAP probes with a blind AIMD sawtooth, this sender builds an
//! explicit model of the path — a windowed **max-filter over delivery-rate
//! samples** (the bottleneck bandwidth estimate `BtlBw`) — and paces at
//! `pacing_gain · BtlBw`. The gain follows the classic probe cycle: one
//! round at 1.25× to look for newly-free bandwidth, one at 0.75× to drain
//! the queue the probe built, then six rounds at 1× to cruise.
//!
//! The QA layer's contract is honoured as follows:
//!
//! * **rate** — the paced rate `gain · BtlBw`, clamped to
//!   `[min, max_rate]`;
//! * **slope** — the local linearization `packet_size / srtt²`: a probe
//!   round lifts the estimate by at most a packet-per-RTT-ish amount per
//!   round for a paced flow sharing a drop-tail bottleneck, so the RAP
//!   slope is the right planning number (and keeps the deficit-triangle
//!   geometry finite);
//! * **backoff** — loss clusters discount the bandwidth model by
//!   [`LOSS_BETA`] (once per congestion event, same cluster suppression as
//!   RAP) and report the realized post/pre ratio; a timeout collapses the
//!   model to the floor rate. The nominal decrease factor surfaced to the
//!   QA geometry is therefore `LOSS_BETA`.
//!
//! Everything is deterministic: filters are pure functions of the ACK
//! stream and the polled clock.

use crate::controller::{RateController, SenderCounts};
use crate::receiver::AckInfo;
use crate::sender::{BackoffCause, RapConfig, RapEvent};
use crate::shell::SenderShell;
use std::collections::VecDeque;

/// Multiplicative discount applied to the bandwidth model on a loss
/// cluster — the controller's nominal decrease factor.
pub const LOSS_BETA: f64 = 0.85;

/// Pacing-gain cycle after startup: probe up, drain, cruise ×6.
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Startup pacing gain (fast initial ramp, ~2/ln2 in real BBR).
const STARTUP_GAIN: f64 = 2.0;

/// Rounds without ≥ [`FULL_BW_THRESH`] bandwidth growth before startup
/// exits into the steady-state cycle.
const FULL_BW_ROUNDS: u32 = 3;

/// Per-round growth that still counts as "filling the pipe".
const FULL_BW_THRESH: f64 = 1.25;

/// Bandwidth max-filter window (probe rounds).
const BTLBW_ROUNDS: u64 = 10;

/// BBR-style sender configuration: the same four parameters as RAP's
/// (`initial_rate` seeds the model before it has samples).
pub type BbrConfig = RapConfig;

/// BBR-style delivery-rate-model sender. Paced, like RAP; drive it with
/// the same loop (see [`RateController`]).
#[derive(Debug)]
pub struct BbrSender {
    cfg: BbrConfig,
    shell: SenderShell,
    /// Windowed max over delivery-rate samples: `(round, sample)` kept
    /// monotone decreasing in `sample`.
    bw_filter: VecDeque<(u64, f64)>,
    /// Model fallback when the filter is empty (initial rate, or the
    /// floor after a timeout collapse).
    fallback_bw: f64,
    /// Cumulative acked bytes (delivery-rate numerator).
    delivered: f64,
    /// Recent `(time, delivered)` checkpoints spanning about one SRTT.
    delivery_samples: VecDeque<(f64, f64)>,
    /// Probe-round counter (advances once per SRTT).
    round: u64,
    next_round: f64,
    /// Startup state: true until the bandwidth estimate plateaus.
    startup: bool,
    full_bw: f64,
    full_bw_count: u32,
    /// A loss happened during startup: exit it at the next round
    /// boundary. Exiting inside the loss handler would change the pacing
    /// gain mid-backoff and corrupt the reported post/pre ratio.
    loss_ends_startup: bool,
    /// Index into [`GAIN_CYCLE`] once out of startup.
    cycle_idx: usize,
}

impl BbrSender {
    /// New sender whose clock starts at `now`.
    pub fn new(cfg: BbrConfig, now: f64) -> Self {
        let shell = SenderShell::new(cfg.initial_rtt, now);
        BbrSender {
            bw_filter: VecDeque::new(),
            fallback_bw: cfg.initial_rate.max(cfg.packet_size),
            delivered: 0.0,
            delivery_samples: VecDeque::new(),
            round: 0,
            next_round: now + shell.rtt.srtt(),
            startup: true,
            full_bw: 0.0,
            full_bw_count: 0,
            loss_ends_startup: false,
            cycle_idx: 0,
            shell,
            cfg,
        }
    }

    /// Floor rate: one packet per second, same as RAP's AIMD floor.
    fn min_rate(&self) -> f64 {
        self.cfg.packet_size
    }

    /// Bottleneck-bandwidth estimate (bytes/s): the filter max, or the
    /// fallback before any sample exists.
    pub fn btlbw(&self) -> f64 {
        self.bw_filter.front().map_or(self.fallback_bw, |&(_, s)| s)
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.shell.rtt.srtt()
    }

    /// Current pacing gain.
    fn gain(&self) -> f64 {
        if self.startup {
            STARTUP_GAIN
        } else {
            GAIN_CYCLE[self.cycle_idx]
        }
    }

    fn paced_rate(&self) -> f64 {
        (self.gain() * self.btlbw()).clamp(self.min_rate(), self.cfg.max_rate)
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &BbrConfig {
        &self.cfg
    }

    /// Fold a delivery-rate sample into the windowed max-filter.
    fn push_bw_sample(&mut self, sample: f64) {
        if !(sample.is_finite() && sample > 0.0) {
            return;
        }
        while self.bw_filter.back().is_some_and(|&(_, s)| s <= sample) {
            self.bw_filter.pop_back();
        }
        self.bw_filter.push_back((self.round, sample));
        self.expire_bw();
    }

    fn expire_bw(&mut self) {
        while self
            .bw_filter
            .front()
            .is_some_and(|&(r, _)| self.round.saturating_sub(r) > BTLBW_ROUNDS)
            && self.bw_filter.len() > 1
        {
            self.bw_filter.pop_front();
        }
    }

    /// Update the delivery-rate estimate after `delivered` grew.
    fn sample_delivery_rate(&mut self, now: f64) {
        self.delivery_samples.push_back((now, self.delivered));
        let horizon = now - self.shell.rtt.srtt().max(1e-3);
        while self.delivery_samples.len() > 2 && self.delivery_samples[1].0 <= horizon {
            self.delivery_samples.pop_front();
        }
        if let (Some(&(t0, d0)), Some(&(t1, d1))) =
            (self.delivery_samples.front(), self.delivery_samples.back())
        {
            if t1 > t0 {
                self.push_bw_sample((d1 - d0) / (t1 - t0));
            }
        }
    }

    fn advance_round(&mut self, at: f64) {
        self.round += 1;
        self.expire_bw();
        let rate_before = self.paced_rate();
        if self.startup && self.loss_ends_startup {
            // The pipe is demonstrably full; drain the queue the probe
            // built, then cruise.
            self.startup = false;
            self.cycle_idx = 1;
        } else if self.startup {
            let bw = self.btlbw();
            if bw >= self.full_bw * FULL_BW_THRESH {
                self.full_bw = bw;
                self.full_bw_count = 0;
            } else {
                self.full_bw_count += 1;
                if self.full_bw_count >= FULL_BW_ROUNDS {
                    self.startup = false;
                    self.cycle_idx = 0;
                }
            }
        } else {
            self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
        }
        let rate = self.paced_rate();
        if rate > rate_before {
            self.shell
                .events
                .push(RapEvent::RateIncrease { time: at, rate });
        }
    }

    /// Report ACK-inferred losses; a new congestion event discounts the
    /// bandwidth model.
    fn handle_losses(&mut self, now: f64) {
        if !self.shell.report_losses(now) {
            return;
        }
        let pre_rate = self.paced_rate();
        // Discount the whole model, not just the current max — the
        // shadowed samples would otherwise resurface undiscounted as
        // the front expires.
        for (_, s) in self.bw_filter.iter_mut() {
            *s *= LOSS_BETA;
        }
        self.fallback_bw = (self.fallback_bw * LOSS_BETA).max(self.min_rate());
        self.loss_ends_startup = true;
        self.shell
            .backoff(now, pre_rate, self.paced_rate(), BackoffCause::Loss);
    }
}

impl RateController for BbrSender {
    fn rate(&self) -> f64 {
        self.paced_rate()
    }

    fn slope(&self) -> f64 {
        let srtt = self.shell.rtt.srtt().max(1e-6);
        self.cfg.packet_size / (srtt * srtt)
    }

    fn next_send_time(&self, _now: f64) -> f64 {
        self.shell.next_send
    }

    fn next_timer(&self) -> f64 {
        self.next_round.min(self.shell.timeout_deadline())
    }

    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
        let seq = self.shell.register_send(now, size, tag);
        self.shell
            .pace(now, self.cfg.packet_size / self.paced_rate());
        seq
    }

    fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.shell
            .on_ack(now, &ack, |record| self.delivered += record.size);
        self.sample_delivery_rate(now);
        self.handle_losses(now);
    }

    fn poll_timers(&mut self, now: f64) {
        if self.shell.timed_out(now, self.shell.timeout_deadline()) {
            let pre_rate = self.paced_rate();
            // Collapse the model: the path stopped answering, so nothing
            // it learned is trustworthy. Cruise gain (not startup) so the
            // post-collapse rate is the floor itself — re-entering startup
            // here would make the "backoff" *raise* the rate when the
            // model was already at the floor.
            self.bw_filter.clear();
            self.fallback_bw = self.min_rate();
            self.delivery_samples.clear();
            self.startup = false;
            self.cycle_idx = 2;
            self.full_bw = 0.0;
            self.full_bw_count = 0;
            self.loss_ends_startup = false;
            self.shell
                .backoff(now, pre_rate, self.paced_rate(), BackoffCause::Timeout);
        }
        while now >= self.next_round {
            let at = self.next_round;
            self.advance_round(at);
            self.next_round += self.shell.rtt.srtt().max(1e-3);
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.shell.events);
    }

    fn restart(&mut self, start_at: f64) {
        *self = BbrSender::new(self.cfg.clone(), start_at);
    }

    fn counts(&self) -> SenderCounts {
        self.shell.counts
    }

    fn decrease_factor(&self) -> f64 {
        LOSS_BETA
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;
    use crate::shell::tests::{drive, echo, flight};

    fn sender(max_rate: f64) -> BbrSender {
        BbrSender::new(
            BbrConfig {
                initial_rate: 10_000.0,
                initial_rtt: 0.1,
                max_rate,
                ..BbrConfig::default()
            },
            0.0,
        )
    }

    /// [`drive`] over [`echo`]. Returns (sender, `(pre, post)` backoffs).
    fn run(mut s: BbrSender, dur: f64, loss_every: u64) -> (BbrSender, Vec<(f64, f64)>) {
        let backoffs = drive(&mut s, dur, echo(loss_every));
        (s, backoffs)
    }

    #[test]
    fn learns_the_path_without_loss() {
        // Unlimited echo path: startup must ramp the model well past the
        // initial rate, and the RTT estimate must find the 40 ms path.
        let (s, backoffs) = run(sender(f64::INFINITY), 3.0, 0);
        assert!(s.btlbw() > 100_000.0, "btlbw {}", s.btlbw());
        assert!((s.srtt() - 0.04).abs() < 0.02, "srtt {}", s.srtt());
        assert!(backoffs.is_empty());
    }

    #[test]
    fn respects_max_rate_bound() {
        let (s, _) = run(sender(50_000.0), 3.0, 0);
        assert!(s.rate() <= 50_000.0 + 1e-9);
    }

    #[test]
    fn loss_discounts_model_once_per_cluster() {
        // 3 and 5 lost from the same flight: one congestion event, and
        // BBR's answer to it is the nominal discount.
        let mut s = sender(f64::INFINITY);
        let pre = s.rate();
        flight(&mut s, &mut RapReceiverState::new(), 0.0, 10, &[3, 5]);
        let ratio = s.rate() / pre;
        assert!(
            (ratio - LOSS_BETA).abs() < 1e-9,
            "realized factor {ratio} vs nominal {LOSS_BETA}"
        );
    }

    #[test]
    fn every_backoff_ratio_in_unit_interval() {
        let (s, backoffs) = run(sender(f64::INFINITY), 10.0, 40);
        assert!(!backoffs.is_empty(), "periodic loss must back off");
        for (pre, post) in backoffs {
            assert!(pre > 0.0 && post > 0.0);
            let ratio = post / pre;
            assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio} out of (0, 1]");
        }
        assert!(s.rate() >= s.config().packet_size);
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
        let (a, _) = run(sender(f64::INFINITY), 5.0, 60);
        let (b, _) = run(sender(f64::INFINITY), 5.0, 60);
        assert_eq!(a.btlbw().to_bits(), b.btlbw().to_bits());
        assert_eq!(a.rate().to_bits(), b.rate().to_bits());
    }
}
