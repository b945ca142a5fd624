//! The sender shell: everything a sender does that is not its control law.
//!
//! Sequence numbers, the transmission history, the RTT estimator, the
//! timeout clock, loss-cluster suppression, IPG pacing and the event queue
//! are the same under every controller in this crate. Each sender owns one
//! [`SenderShell`] and keeps only its law's state (AIMD rate, bandwidth
//! model, delay-loss signal, window) and its reactions to what the shell
//! reports.
//!
//! One **backoff per loss event**: [`SenderShell::backoff`] records the
//! highest sequence sent so far, and [`SenderShell::report_losses`] answers
//! "new congestion event" only for a loss beyond it — losses among packets
//! already in flight at the last backoff are reported but belong to the
//! event it answered (cluster-loss suppression).

use crate::controller::SenderCounts;
use crate::history::{PacketRecord, TransmissionHistory};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use crate::sender::{BackoffCause, RapEvent};

/// Packets after a hole before it is declared lost.
const REORDER_THRESHOLD: u64 = 3;

/// Transport bookkeeping shared by the four senders. Not `Clone`: dropping
/// it adds its counts to obs, and a copy would add them twice.
#[derive(Debug)]
pub(crate) struct SenderShell {
    pub(crate) rtt: RttEstimator,
    history: TransmissionHistory,
    next_seq: u64,
    /// Earliest time the next paced packet may leave.
    pub(crate) next_send: f64,
    /// Highest sequence sent when the last backoff fired; losses at or
    /// below it are the same congestion event.
    recovery_seq: Option<u64>,
    /// Time of last ACK progress (for the timeout clock).
    pub(crate) last_progress: f64,
    /// Consecutive timeouts (stats only; the RTO backoff itself lives in
    /// the estimator so it stays capped and clamped in one place).
    pub(crate) timeouts_in_row: u32,
    pub(crate) events: Vec<RapEvent>,
    /// Always on; added to obs when the shell drops (a `restart` drops it).
    pub(crate) counts: SenderCounts,
}

impl SenderShell {
    /// Fresh shell whose clock starts at `now`.
    pub(crate) fn new(initial_rtt: f64, now: f64) -> Self {
        SenderShell {
            rtt: RttEstimator::new(initial_rtt),
            history: TransmissionHistory::new(REORDER_THRESHOLD),
            next_seq: 0,
            next_send: now,
            recovery_seq: None,
            last_progress: now,
            timeouts_in_row: 0,
            events: Vec::new(),
            counts: SenderCounts::default(),
        }
    }

    /// Packets currently unresolved.
    pub(crate) fn in_flight(&self) -> usize {
        self.history.outstanding()
    }

    /// Record a transmission of `size` bytes tagged `tag`; returns the
    /// sequence number to put on the wire.
    pub(crate) fn register_send(&mut self, now: f64, size: f64, tag: u32) -> u64 {
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
            // First packet in flight re-arms the timeout clock.
            self.last_progress = now;
        }
        seq
    }

    /// Schedule the next send one gap `ipg` on — from the scheduled time,
    /// not `now`, so jitter in the owner's loop does not accumulate rate
    /// error, but never more than one gap behind.
    pub(crate) fn pace(&mut self, now: f64, ipg: f64) {
        self.next_send = self.next_send.max(now - ipg) + ipg;
    }

    /// When the flow times out: never with nothing in flight. The
    /// estimator's RTO already carries the capped exponential backoff and
    /// its clamp — multiplying again here would compound it.
    pub(crate) fn timeout_deadline(&self) -> f64 {
        if self.history.outstanding() == 0 {
            return f64::INFINITY;
        }
        self.last_progress + self.rtt.rto()
    }

    /// Process an ACK: progress, one [`RapEvent::PacketAcked`] per packet
    /// it resolves (each record also handed to `acked`), and the RTT
    /// sample it yields, already fed to the estimator.
    pub(crate) fn on_ack(
        &mut self,
        now: f64,
        ack: &AckInfo,
        mut acked: impl FnMut(PacketRecord),
    ) -> Option<f64> {
        // ACK progress ends the RTO backoff, even an ACK that yields no
        // usable sample.
        self.rtt.reset_backoff();
        self.last_progress = now;
        self.timeouts_in_row = 0;
        let events = &mut self.events;
        let trigger = self.history.resolve_ack(ack, |seq, record| {
            events.push(RapEvent::PacketAcked {
                time: now,
                seq,
                size: record.size,
                tag: record.tag,
            });
            acked(record);
        });
        // The acked packet times the path if it was still outstanding.
        let sample = now - trigger?.send_time;
        self.rtt.sample(sample);
        self.counts.rtt_samples += 1;
        laqa_obs::histogram!(
            "rap.rtt_ms",
            &[10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0]
        )
        .observe(sample * 1e3);
        Some(sample)
    }

    /// Report the losses the ACKs so far imply as [`RapEvent::PacketLost`]
    /// (even during cluster suppression, so buffer accounting stays
    /// correct). Returns whether any of them is a new congestion event.
    pub(crate) fn report_losses(&mut self, now: f64) -> bool {
        let (events, recovery_seq) = (&mut self.events, self.recovery_seq);
        let mut new_event = false;
        self.history.detect_losses(|seq, record| {
            events.push(lost(now, seq, record));
            new_event |= recovery_seq.is_none_or(|r| seq > r);
        });
        new_event
    }

    /// If `now` has reached `deadline`: everything in flight is lost, the
    /// RTO backs off and the timeout clock restarts. Returns whether it
    /// fired; the caller then collapses its law and calls `backoff`.
    pub(crate) fn timed_out(&mut self, now: f64, deadline: f64) -> bool {
        let fired = now >= deadline;
        if fired {
            let events = &mut self.events;
            self.history
                .flush_all_as_lost(|seq, record| events.push(lost(now, seq, record)));
            self.rtt.on_timeout();
            self.timeouts_in_row = self.timeouts_in_row.saturating_add(1);
            self.last_progress = now;
        }
        fired
    }

    /// Record a multiplicative decrease from `pre_rate` to `rate`.
    pub(crate) fn backoff(&mut self, now: f64, pre_rate: f64, rate: f64, cause: BackoffCause) {
        // Everything already in flight belongs to this congestion event.
        self.recovery_seq = self.next_seq.checked_sub(1);
        self.events.push(RapEvent::Backoff {
            time: now,
            rate,
            pre_rate,
            cause,
        });
        match cause {
            BackoffCause::Loss => self.counts.backoffs_loss += 1,
            BackoffCause::Timeout => self.counts.backoffs_timeout += 1,
        }
    }
}

impl Drop for SenderShell {
    /// Add what this shell counted to the `laqa-obs` view, once.
    fn drop(&mut self) {
        let c = self.counts;
        laqa_obs::add_counts(&[
            ("rap.rtt_samples", c.rtt_samples),
            ("rap.backoffs_loss", c.backoffs_loss),
            ("rap.backoffs_timeout", c.backoffs_timeout),
            ("rap.increase_steps", c.increase_steps),
        ]);
    }
}

fn lost(time: f64, seq: u64, record: PacketRecord) -> RapEvent {
    RapEvent::PacketLost {
        time,
        seq,
        size: record.size,
        tag: record.tag,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::controller::RateController;
    use crate::receiver::RapReceiverState;
    use crate::sender::{BackoffCause, RapEvent};
    use crate::{
        BbrConfig, BbrSender, NadaConfig, NadaSender, RapConfig, RapSender, WindowConfig,
        WindowSender,
    };
    use std::fmt::Debug;

    /// The one echo-path driver of this crate's unit tests: run `ctl` for
    /// `dur` seconds in 1 ms steps through the trait surface only.
    /// `path(ctl, seq)` decides each packet's fate when it is sent: the
    /// delay after which its ACK arrives, or `None` when it is lost.
    /// Returns the `(pre, post)` rates of every backoff.
    pub(crate) fn drive<C: RateController>(
        ctl: &mut C,
        dur: f64,
        mut path: impl FnMut(&C, u64) -> Option<f64>,
    ) -> Vec<(f64, f64)> {
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut pipe: Vec<(f64, u64)> = Vec::new();
        let mut backoffs = Vec::new();
        let mut events = Vec::new();
        while now < dur {
            ctl.poll_timers(now);
            while !pipe.is_empty() && pipe[0].0 <= now {
                let (_, seq) = pipe.remove(0);
                ctl.on_ack(now, rx.on_data(seq));
            }
            while now >= ctl.next_send_time(now) {
                let seq = ctl.register_send(now, 1_000.0, 0);
                if let Some(rtt) = path(ctl, seq) {
                    pipe.push((now + rtt, seq));
                }
            }
            ctl.drain_events_into(&mut events);
            for e in events.drain(..) {
                if let RapEvent::Backoff { rate, pre_rate, .. } = e {
                    backoffs.push((pre_rate, rate));
                }
            }
            now += 0.001;
        }
        backoffs
    }

    /// A [`drive`] path: 40 ms round trip, every `loss_every`-th packet
    /// lost (0 = lossless).
    pub(crate) fn echo<C>(loss_every: u64) -> impl FnMut(&C, u64) -> Option<f64> {
        move |_, seq| (loss_every == 0 || seq % loss_every != loss_every - 1).then_some(0.04)
    }

    /// Drain `ctl` and count its (backoffs, reported losses).
    pub(crate) fn backoffs_and_losses<C: RateController>(ctl: &mut C) -> (usize, usize) {
        let mut events = Vec::new();
        ctl.drain_events_into(&mut events);
        let count = |f: fn(&RapEvent) -> bool| events.iter().filter(|e| f(e)).count();
        (
            count(|e| matches!(e, RapEvent::Backoff { .. })),
            count(|e| matches!(e, RapEvent::PacketLost { .. })),
        )
    }

    /// Send `n` packets 10 ms apart from `t0`, then ACK all but the
    /// sequences in `lose` together 100 ms after the last send.
    pub(crate) fn flight<C: RateController>(
        ctl: &mut C,
        rx: &mut RapReceiverState,
        t0: f64,
        n: u64,
        lose: &[u64],
    ) {
        let sent: Vec<u64> = (0..n)
            .map(|i| ctl.register_send(t0 + i as f64 * 0.01, 1_000.0, 0))
            .collect();
        for seq in sent.into_iter().filter(|s| !lose.contains(s)) {
            ctl.on_ack(t0 + n as f64 * 0.01 + 0.1, rx.on_data(seq));
        }
    }

    /// The shell's contract, the same under every control law.
    fn shell_contract<C: RateController + Debug>(name: &str, make: impl Fn(f64) -> C) {
        // One backoff per loss cluster: 3 and 5 are lost from one flight;
        // a loss among packets sent after the backoff is a new event.
        let mut s = make(0.0);
        let mut rx = RapReceiverState::new();
        flight(&mut s, &mut rx, 0.0, 10, &[3, 5]);
        assert_eq!(backoffs_and_losses(&mut s), (1, 2), "{name}: first cluster");
        flight(&mut s, &mut rx, 0.3, 10, &[14]);
        assert_eq!(
            backoffs_and_losses(&mut s),
            (1, 1),
            "{name}: second cluster"
        );

        // Everything resolved: nothing in flight, so no timeout however late.
        s.poll_timers(1e3);
        assert_eq!(backoffs_and_losses(&mut s), (0, 0), "{name}: idle timeout");

        // A timeout reports every outstanding packet lost, once.
        let mut s = make(0.0);
        for i in 0..5u64 {
            s.register_send(i as f64 * 0.01, 1_000.0, 7);
        }
        let rate_before = s.rate();
        s.poll_timers(100.0);
        let mut events = Vec::new();
        s.drain_events_into(&mut events);
        let lost = events
            .iter()
            .filter(|e| matches!(e, RapEvent::PacketLost { tag: 7, .. }))
            .count();
        assert_eq!(lost, 5, "{name}: timeout flushes the flight");
        let timeouts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                RapEvent::Backoff {
                    rate,
                    pre_rate,
                    cause: BackoffCause::Timeout,
                    ..
                } => Some((*pre_rate, *rate)),
                _ => None,
            })
            .collect();
        assert_eq!(timeouts.len(), 1, "{name}: one timeout backoff");
        assert_eq!(timeouts[0].0, rate_before, "{name}: pre-rate");
        assert!(
            timeouts[0].1 <= rate_before,
            "{name}: timeout raised the rate"
        );
        s.poll_timers(200.0);
        assert_eq!(backoffs_and_losses(&mut s), (0, 0), "{name}: fired twice");

        // restart(t) is new(cfg, t).
        let mut s = make(0.0);
        drive(&mut s, 1.0, echo(20));
        s.restart(5.0);
        assert_eq!(
            format!("{s:?}"),
            format!("{:?}", make(5.0)),
            "{name}: restart"
        );
    }

    #[test]
    fn shell_contract_holds_under_all_four_laws() {
        shell_contract("rap", |t| RapSender::new(RapConfig::default(), t));
        shell_contract("bbr", |t| BbrSender::new(BbrConfig::default(), t));
        shell_contract("nada", |t| NadaSender::new(NadaConfig::default(), t));
        shell_contract("tcp", |t| WindowSender::new(WindowConfig::default(), t));
    }
}
