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

use crate::controller::RateController;
use crate::history::{PacketRecord, TransmissionHistory};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use crate::sender::{report_losses, BackoffCause, RapEvent};

/// Softest permitted multiplicative decrease.
pub const GAMMA_MAX: f64 = 0.95;

/// Hardest permitted multiplicative decrease (TCP-equivalent halving).
pub const GAMMA_MIN: f64 = 0.5;

/// Nominal decrease factor surfaced to the QA geometry: the γ the
/// controller realizes at reference-level loss pressure sits midway
/// between the clamps.
pub const NOMINAL_GAMMA: f64 = 0.75;

/// NADA-style sender configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NadaConfig {
    /// Payload bytes per packet.
    pub packet_size: f64,
    /// Initial transmission rate (bytes/s).
    pub initial_rate: f64,
    /// Initial RTT guess (seconds).
    pub initial_rtt: f64,
    /// Packets after a hole before it is declared lost.
    pub reorder_threshold: u64,
    /// Rate ceiling (bytes/s), `INFINITY` for none.
    pub max_rate: f64,
    /// Target congestion signal (seconds of equivalent delay).
    pub x_ref: f64,
    /// Reference loss fraction (the level that costs `d_loss`).
    pub p_ref: f64,
    /// Delay-units penalty of reference-level loss (seconds).
    pub d_loss: f64,
    /// Rate-update gain: packets per SRTT gained when uncongested.
    pub eta: f64,
    /// EWMA gain for the loss-fraction estimate.
    pub loss_alpha: f64,
}

impl Default for NadaConfig {
    fn default() -> Self {
        NadaConfig {
            packet_size: 1_000.0,
            initial_rate: 2_000.0,
            initial_rtt: 0.2,
            reorder_threshold: 3,
            max_rate: f64::INFINITY,
            x_ref: 0.02,
            p_ref: 0.01,
            d_loss: 0.1,
            eta: 1.0,
            loss_alpha: 0.01,
        }
    }
}

/// NADA-style unified-congestion-signal sender. Paced, like RAP; drive it
/// with the same loop (see [`RateController`]).
#[derive(Debug, Clone)]
pub struct NadaSender {
    cfg: NadaConfig,
    rtt: RttEstimator,
    history: TransmissionHistory,
    rate: f64,
    /// Running minimum of raw RTT samples (the propagation-delay anchor
    /// for the queueing-delay gradient).
    min_rtt: f64,
    /// EWMA loss fraction over resolved packets.
    loss_ewma: f64,
    next_update: f64,
    next_seq: u64,
    next_send: f64,
    recovery_seq: Option<u64>,
    last_progress: f64,
    timeouts_in_row: u32,
    events: Vec<RapEvent>,
}

impl NadaSender {
    /// New sender whose clock starts at `now`.
    pub fn new(cfg: NadaConfig, now: f64) -> Self {
        let rtt = RttEstimator::new(cfg.initial_rtt);
        let srtt = rtt.srtt();
        NadaSender {
            history: TransmissionHistory::new(cfg.reorder_threshold),
            rtt,
            rate: cfg.initial_rate.max(cfg.packet_size),
            min_rtt: f64::INFINITY,
            loss_ewma: 0.0,
            next_update: now + srtt,
            next_seq: 0,
            next_send: now,
            recovery_seq: None,
            last_progress: now,
            timeouts_in_row: 0,
            events: Vec::new(),
            cfg,
        }
    }

    /// Floor rate: one packet per second, same as RAP's AIMD floor.
    fn min_rate(&self) -> f64 {
        self.cfg.packet_size
    }

    /// Smoothed RTT (seconds).
    pub fn srtt(&self) -> f64 {
        self.rtt.srtt()
    }

    /// Standing-queue estimate `srtt − min_rtt` (seconds, ≥ 0).
    pub fn d_queue(&self) -> f64 {
        if self.min_rtt.is_finite() {
            (self.rtt.srtt() - self.min_rtt).max(0.0)
        } else {
            0.0
        }
    }

    /// The unified congestion signal `x = d_queue + DLOSS·(p/p_ref)²`.
    pub fn signal(&self) -> f64 {
        let p_term = self.loss_ewma / self.cfg.p_ref;
        self.d_queue() + self.cfg.d_loss * p_term * p_term
    }

    /// Configured packet size (bytes).
    pub fn packet_size(&self) -> f64 {
        self.cfg.packet_size
    }

    /// The configuration this sender was built with.
    pub fn config(&self) -> &NadaConfig {
        &self.cfg
    }

    /// Consecutive timeouts without intervening ACK progress.
    pub fn timeouts_in_row(&self) -> u32 {
        self.timeouts_in_row
    }

    fn timeout_deadline(&self) -> f64 {
        if self.history.outstanding() == 0 {
            return f64::INFINITY;
        }
        self.last_progress + self.rtt.rto()
    }

    /// Per-SRTT proportional rate update toward `x = x_ref`.
    fn rate_update(&mut self, at: f64) {
        let srtt = self.rtt.srtt().max(1e-3);
        let x = self.signal();
        let step =
            self.cfg.eta * (self.cfg.x_ref - x) / self.cfg.x_ref * self.cfg.packet_size / srtt;
        let before = self.rate;
        self.rate = (self.rate + step).clamp(self.min_rate(), self.cfg.max_rate);
        if self.rate > before {
            self.events.push(RapEvent::RateIncrease {
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
            self.loss_ewma += self.cfg.loss_alpha * (y - self.loss_ewma);
        }
    }

    /// Report ACK-inferred losses; a new congestion event backs off by the
    /// loss-adaptive γ.
    fn handle_losses(&mut self, now: f64) {
        // γ reflects the loss level *standing at event time*: folding the
        // current cluster into the EWMA first would let any single loss
        // saturate the formula at the hard clamp.
        let p_at_event = self.loss_ewma;
        let reported = self.events.len();
        let new_event = report_losses(&mut self.history, &mut self.events, self.recovery_seq, now);
        self.observe(true, self.events.len() - reported);
        if new_event {
            let pre_rate = self.rate;
            let gamma =
                (1.0 / (1.0 + p_at_event / self.cfg.p_ref)).clamp(GAMMA_MIN, GAMMA_MAX);
            self.rate = (self.rate * gamma).max(self.min_rate());
            self.recovery_seq = self.next_seq.checked_sub(1);
            self.events.push(RapEvent::Backoff {
                time: now,
                rate: self.rate,
                pre_rate,
                cause: BackoffCause::Loss,
            });
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
        let srtt = self.rtt.srtt().max(1e-6);
        self.cfg.eta * self.cfg.packet_size / (srtt * srtt)
    }

    fn next_send_time(&self, _now: f64) -> f64 {
        self.next_send
    }

    fn next_timer(&self) -> f64 {
        self.next_update.min(self.timeout_deadline())
    }

    fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
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
        let ipg = self.cfg.packet_size / self.rate;
        // Pace from the scheduled time (same rule as RAP).
        self.next_send = self.next_send.max(now - ipg) + ipg;
        if self.history.outstanding() == 1 {
            self.last_progress = now;
        }
        seq
    }

    fn on_ack(&mut self, now: f64, ack: AckInfo) {
        self.last_progress = now;
        self.timeouts_in_row = 0;
        self.rtt.reset_backoff();
        let acked = self.events.len();
        let trigger = self.history.resolve_ack(&ack, |seq, record| {
            self.events.push(RapEvent::acked(now, seq, record));
        });
        if let Some(record) = trigger {
            let sample = now - record.send_time;
            self.rtt.sample(sample);
            if sample > 0.0 && sample < self.min_rtt {
                self.min_rtt = sample;
            }
        }
        self.observe(false, self.events.len() - acked);
        self.handle_losses(now);
    }

    fn poll_timers(&mut self, now: f64) {
        if now >= self.timeout_deadline() {
            let flushed = self.events.len();
            self.history.flush_all_as_lost(|seq, record| {
                self.events.push(RapEvent::lost(now, seq, record));
            });
            self.observe(true, self.events.len() - flushed);
            self.rtt.on_timeout();
            self.timeouts_in_row = self.timeouts_in_row.saturating_add(1);
            let pre_rate = self.rate;
            self.rate = self.min_rate();
            self.recovery_seq = self.next_seq.checked_sub(1);
            self.last_progress = now;
            self.events.push(RapEvent::Backoff {
                time: now,
                rate: self.rate,
                pre_rate,
                cause: BackoffCause::Timeout,
            });
        }
        while now >= self.next_update {
            let at = self.next_update;
            self.rate_update(at);
            self.next_update += self.rtt.srtt().max(1e-3);
        }
    }

    fn drain_events_into(&mut self, out: &mut Vec<RapEvent>) {
        out.append(&mut self.events);
    }

    fn restart(&mut self, start_at: f64) {
        *self = NadaSender::new(self.cfg.clone(), start_at);
    }

    fn decrease_factor(&self) -> f64 {
        NOMINAL_GAMMA
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::RapReceiverState;

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

    /// Echo path with one-way delay `owd` dropping every `loss_every`-th
    /// packet (0 = lossless). Returns (sender, `(pre, post)` backoffs).
    fn run(
        mut s: NadaSender,
        dur: f64,
        owd: f64,
        loss_every: u64,
    ) -> (NadaSender, Vec<(f64, f64)>) {
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut pipe: Vec<(f64, u64)> = Vec::new();
        let mut backoffs = Vec::new();
        let mut events = Vec::new();
        while now < dur {
            s.poll_timers(now);
            while !pipe.is_empty() && pipe[0].0 <= now {
                let (_, seq) = pipe.remove(0);
                s.on_ack(now, rx.on_data(seq));
            }
            while now >= RateController::next_send_time(&s, now) {
                let seq = RateController::register_send(&mut s, now, 1_000.0, 0);
                if loss_every == 0 || seq % loss_every != loss_every - 1 {
                    pipe.push((now + 2.0 * owd, seq));
                }
            }
            s.drain_events_into(&mut events);
            for e in events.drain(..) {
                if let RapEvent::Backoff { rate, pre_rate, .. } = e {
                    backoffs.push((pre_rate, rate));
                }
            }
            now += 0.001;
        }
        (s, backoffs)
    }

    #[test]
    fn uncongested_path_increases_additively() {
        let (s, backoffs) = run(sender(f64::INFINITY), 3.0, 0.02, 0);
        assert!(backoffs.is_empty());
        // η=1, srtt 40 ms: about one packet per srtt per srtt of growth
        // over 3 s from 10 KB/s — well past 100 KB/s.
        assert!(RateController::rate(&s) > 100_000.0, "rate {}", RateController::rate(&s));
        assert!((s.srtt() - 0.04).abs() < 0.02);
        assert!(s.d_queue() < 0.01, "no standing queue on an echo path");
    }

    #[test]
    fn respects_rate_bounds() {
        let (s, _) = run(sender(30_000.0), 3.0, 0.02, 0);
        assert!(RateController::rate(&s) <= 30_000.0 + 1e-9);
        let (s, _) = run(sender(f64::INFINITY), 20.0, 0.02, 5);
        assert!(RateController::rate(&s) >= s.packet_size());
    }

    #[test]
    fn backoff_gamma_tracks_loss_pressure_within_clamps() {
        // Inject one fresh loss event at different standing loss levels
        // and read the realized post/pre ratio off the Backoff event. Rate
        // far above the floor so no clamp obscures γ itself.
        let gamma_at = |p: f64| {
            let mut s = sender(f64::INFINITY);
            for i in 0..10u64 {
                RateController::register_send(&mut s, i as f64 * 0.01, 1_000.0, 0);
            }
            s.loss_ewma = p;
            s.rate = 100_000.0;
            // Only the last of the ten arrives: everything more than the
            // reorder threshold below it is one loss cluster.
            s.on_ack(1.0, RapReceiverState::new().on_data(9));
            let mut events = Vec::new();
            s.drain_events_into(&mut events);
            events
                .iter()
                .find_map(|e| match e {
                    RapEvent::Backoff { rate, pre_rate, .. } => Some(rate / pre_rate),
                    _ => None,
                })
                .expect("loss event must back off")
        };
        let r_none = gamma_at(0.0);
        let r_ref = gamma_at(0.002);
        let r_heavy = gamma_at(0.2);
        for r in [r_none, r_ref, r_heavy] {
            assert!(
                (GAMMA_MIN - 1e-9..=GAMMA_MAX + 1e-9).contains(&r),
                "gamma {r} outside clamps"
            );
        }
        assert_eq!(r_none, GAMMA_MAX, "no standing loss → softest backoff");
        assert_eq!(r_heavy, GAMMA_MIN, "heavy loss saturates at halving");
        assert!(
            r_heavy < r_ref && r_ref < r_none,
            "gamma must fall with loss pressure: {r_heavy} {r_ref} {r_none}"
        );
    }

    #[test]
    fn every_backoff_ratio_in_unit_interval() {
        let (_, backoffs) = run(sender(f64::INFINITY), 10.0, 0.02, 30);
        assert!(!backoffs.is_empty());
        for (pre, post) in backoffs {
            let r = post / pre;
            assert!(r > 0.0 && r <= 1.0, "ratio {r}");
        }
    }

    #[test]
    fn standing_queue_caps_the_rate_without_loss() {
        // Feed ACKs whose RTT grows with the send rate (a synthetic
        // self-induced queue): the signal must push back before any loss.
        let mut s = sender(f64::INFINITY);
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut pipe: Vec<(f64, u64)> = Vec::new();
        let mut peak = 0.0f64;
        while now < 8.0 {
            s.poll_timers(now);
            // Queue delay proportional to how far the rate sits above
            // 50 KB/s: a crude single-bottleneck model.
            let extra = ((RateController::rate(&s) - 50_000.0) / 50_000.0).max(0.0) * 0.1;
            while !pipe.is_empty() && pipe[0].0 <= now {
                let (_, seq) = pipe.remove(0);
                s.on_ack(now, rx.on_data(seq));
            }
            while now >= RateController::next_send_time(&s, now) {
                let seq = RateController::register_send(&mut s, now, 1_000.0, 0);
                pipe.push((now + 0.04 + extra, seq));
            }
            peak = peak.max(RateController::rate(&s));
            now += 0.001;
        }
        assert!(
            peak < 200_000.0,
            "delay gradient must arrest growth long before 200 KB/s: {peak}"
        );
        assert!(s.d_queue() > 0.0 || RateController::rate(&s) < 80_000.0);
    }

    #[test]
    fn timeout_collapses_to_floor() {
        let mut s = sender(f64::INFINITY);
        for i in 0..5u64 {
            RateController::register_send(&mut s, i as f64 * 0.01, 1_000.0, 0);
        }
        s.poll_timers(30.0);
        assert_eq!(RateController::rate(&s), s.packet_size());
        let mut events = Vec::new();
        s.drain_events_into(&mut events);
        let (pre, post) = events
            .iter()
            .find_map(|e| match e {
                RapEvent::Backoff {
                    rate,
                    pre_rate,
                    cause: BackoffCause::Timeout,
                    ..
                } => Some((*pre_rate, *rate)),
                _ => None,
            })
            .expect("timeout backoff");
        assert!(post <= pre && post > 0.0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let (a, _) = run(sender(f64::INFINITY), 5.0, 0.02, 40);
        let (b, _) = run(sender(f64::INFINITY), 5.0, 0.02, 40);
        assert_eq!(
            RateController::rate(&a).to_bits(),
            RateController::rate(&b).to_bits()
        );
        assert_eq!(a.signal().to_bits(), b.signal().to_bits());
    }
}
