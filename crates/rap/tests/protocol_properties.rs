//! Property-based tests for the RAP protocol machinery: arbitrary loss,
//! reordering and duplication patterns must never wedge the sender,
//! corrupt its accounting, or break AIMD invariants.
//!
//! Randomization comes from `laqa_check` (a seeded in-repo harness) rather
//! than proptest, so the suite runs with zero registry access.

use laqa_check::{cases, Gen};
use laqa_rap::{
    AckInfo, BackoffCause, BbrConfig, BbrSender, NadaConfig, NadaSender, RapConfig, RapEvent,
    RapReceiverState, RapSender, RateController, SenderCounts, WindowConfig, WindowSender,
    RECEPTION_HORIZON,
};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Random per-packet fate codes in `0..=3` (see [`drive`]).
fn fate_vec(g: &mut Gen, len_lo: usize, len_hi: usize) -> Vec<u8> {
    let len = g.usize_in(len_lo, len_hi);
    (0..len).map(|_| g.u32_in(0, 3) as u8).collect()
}

/// The four controllers, fresh, labelled.
fn controllers() -> [(&'static str, Box<dyn RateController>); 4] {
    let (initial_rate, initial_rtt) = (10_000.0, 0.05);
    [
        (
            "rap",
            Box::new(RapSender::new(
                RapConfig {
                    initial_rate,
                    initial_rtt,
                    ..RapConfig::default()
                },
                0.0,
            )),
        ),
        (
            "bbr",
            Box::new(BbrSender::new(
                BbrConfig {
                    initial_rate,
                    initial_rtt,
                    ..BbrConfig::default()
                },
                0.0,
            )),
        ),
        (
            "nada",
            Box::new(NadaSender::new(
                NadaConfig {
                    initial_rate,
                    initial_rtt,
                    ..NadaConfig::default()
                },
                0.0,
            )),
        ),
        (
            "tcp",
            Box::new(WindowSender::new(
                WindowConfig {
                    initial_rtt,
                    ..WindowConfig::default()
                },
                0.0,
            )),
        ),
    ]
}

/// What a sender reported over one [`drive`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    acked: u64,
    lost: u64,
    backoffs: u64,
    /// Of `backoffs`, those answering a timeout.
    timeouts: u64,
    /// ACKs whose own packet was still outstanding: the ones that time
    /// the path.
    rtt_samples: u64,
}

impl Tally {
    /// Drain `ctl` into the tally. `ack_seq` names the packet whose ACK
    /// was just processed, if one was.
    fn absorb(&mut self, ctl: &mut dyn RateController, ack_seq: Option<u64>) {
        let mut events = Vec::new();
        ctl.drain_events_into(&mut events);
        for e in events {
            match e {
                RapEvent::PacketAcked { seq, .. } => {
                    self.acked += 1;
                    self.rtt_samples += u64::from(ack_seq == Some(seq));
                }
                RapEvent::PacketLost { .. } => self.lost += 1,
                RapEvent::Backoff { cause, .. } => {
                    self.backoffs += 1;
                    self.timeouts += u64::from(cause == BackoffCause::Timeout);
                }
                RapEvent::RateIncrease { .. } => {}
            }
        }
    }
}

/// The one sender driver of this file: replay a randomized path through
/// the trait surface — per-packet fates (0 | 1 delivered, 2 duplicated,
/// 3 lost) and a bounded reorder depth — in 1 ms steps, then keep the
/// clock running until every packet sent is resolved.
fn drive(ctl: &mut dyn RateController, fates: &[u8], reorder: usize) -> Tally {
    let mut rx = RapReceiverState::new();
    let owd = 0.02;
    let mut now = 0.0;
    let mut pipeline: Vec<(f64, u64)> = Vec::new();
    let mut tally = Tally::default();
    let mut i = 0usize;
    while tally.acked + tally.lost < fates.len() as u64 {
        assert!(
            now < 1e4,
            "sender wedged: {tally:?} of {} sent",
            fates.len()
        );
        now += 0.001;
        if pipeline.is_empty() {
            // Nothing happens before the sender's next deadline: jump to
            // it (a window sender backed off 4ⁿ would otherwise idle for
            // minutes of 1 ms steps).
            let unsent = i < fates.len();
            let next_send = if unsent { ctl.next_send_time(now) } else { 1e4 };
            now = now.max(ctl.next_timer().min(next_send));
        }
        ctl.poll_timers(now);
        tally.absorb(ctl, None);
        // Deliver due packets (allowing bounded reordering).
        while !pipeline.is_empty() && pipeline[0].0 <= now {
            let take = if pipeline.len() > reorder
                && reorder > 0
                && fates[i % fates.len()].is_multiple_of(2)
            {
                reorder.min(pipeline.len() - 1)
            } else {
                0
            };
            let (_, seq) = pipeline.remove(take);
            ctl.on_ack(now, rx.on_data(seq));
            tally.absorb(ctl, Some(seq));
        }
        if i < fates.len() && now >= ctl.next_send_time(now) {
            let seq = ctl.register_send(now, 1_000.0, (i % 5) as u32);
            match fates[i] {
                0 | 1 => pipeline.push((now + owd, seq)),
                2 => {
                    pipeline.push((now + owd, seq));
                    pipeline.push((now + owd + 0.001, seq));
                }
                _ => {}
            }
            i += 1;
        }
    }
    tally
}

/// The obs registry is process-global: tests that drive a sender take
/// this so the one that reads the `rap.rtt_ms` histogram sees only its own.
static SENDERS: Mutex<()> = Mutex::new(());

#[test]
fn every_packet_resolves_exactly_once() {
    let _serial = SENDERS.lock().unwrap();
    cases("every_packet_resolves_exactly_once", 24, |g, _| {
        let fates = fate_vec(g, 50, 199);
        let reorder = g.usize_in(0, 2);
        for (name, mut ctl) in controllers() {
            // The sum of resolutions equals the number of sends
            // (duplicates resolve once), however the path misbehaved.
            let t = drive(ctl.as_mut(), &fates, reorder);
            assert_eq!(
                (t.acked + t.lost) as usize,
                fates.len(),
                "{name}: {t:?} != sent {}",
                fates.len()
            );
            assert!(ctl.rate() > 0.0 && ctl.rate().is_finite(), "{name}");
        }
    });
}

#[test]
fn srtt_stays_positive_and_finite() {
    let _serial = SENDERS.lock().unwrap();
    cases("srtt_stays_positive_and_finite", 24, |g, _| {
        let fates = fate_vec(g, 50, 149);
        for (name, mut ctl) in controllers() {
            drive(ctl.as_mut(), &fates, 0);
            // Every slope is a positive multiple of packet_size / srtt².
            assert!(ctl.slope() > 0.0 && ctl.slope().is_finite(), "{name}");
        }
    });
}

#[test]
fn backoffs_never_exceed_loss_events() {
    let _serial = SENDERS.lock().unwrap();
    cases("backoffs_never_exceed_loss_events", 24, |g, _| {
        let fates = fate_vec(g, 80, 199);
        for (name, mut ctl) in controllers() {
            // Cluster suppression: every backoff, loss or timeout, answers
            // at least one loss of its own.
            let t = drive(ctl.as_mut(), &fates, 0);
            assert!(t.backoffs <= t.lost, "{name}: {t:?}");
        }
    });
}

#[test]
fn obs_counters_match_the_drained_events_under_every_controller() {
    let _serial = SENDERS.lock().unwrap();
    cases("obs_counters_match_drained_events", 8, |g, _| {
        let fates = fate_vec(g, 80, 199);
        for (name, mut ctl) in controllers() {
            laqa_obs::reset();
            laqa_obs::set_enabled(true);
            let t = drive(ctl.as_mut(), &fates, 0);
            laqa_obs::set_enabled(false);
            // The sender's own counts, one per Backoff event by cause and
            // one per sample; obs adds them only when it is dropped.
            let SenderCounts {
                rtt_samples,
                backoffs_loss,
                backoffs_timeout,
                ..
            } = ctl.counts();
            assert_eq!(backoffs_loss, t.backoffs - t.timeouts, "{name}: loss");
            assert_eq!(backoffs_timeout, t.timeouts, "{name}: timeout");
            assert_eq!(rtt_samples, t.rtt_samples, "{name}");
            let snap = laqa_obs::snapshot();
            assert_eq!(
                snap.histogram("rap.rtt_ms").map_or(0, |h| h.count),
                t.rtt_samples,
                "{name}: one rap.rtt_ms observation per sample"
            );
            assert!(t.backoffs > 0 && t.rtt_samples > 0, "{name}: vacuous");
        }
    });
    laqa_obs::reset();
}

#[test]
fn receiver_ack_info_is_self_consistent() {
    cases("receiver_ack_info_is_self_consistent", 24, |g, _| {
        let n = g.usize_in(1, 299);
        let seqs: Vec<u64> = (0..n).map(|_| g.u64_in(0, 499)).collect();
        let mut rx = RapReceiverState::new();
        let mut last: Option<AckInfo> = None;
        for &seq in &seqs {
            let ack = rx.on_data(seq);
            // The ack proves its own trigger and the cumulative prefix.
            assert!(ack.proves_received(ack.ack_seq));
            if ack.cum_seq != u64::MAX {
                assert!(ack.proves_received(ack.cum_seq));
                assert!(ack.cum_seq <= ack.highest);
            }
            assert!(ack.ack_seq <= ack.highest);
            // Highest and cum never move backwards.
            if let Some(prev) = last {
                assert!(ack.highest >= prev.highest);
                if prev.cum_seq != u64::MAX {
                    assert!(ack.cum_seq != u64::MAX && ack.cum_seq >= prev.cum_seq);
                }
            }
            last = Some(ack);
        }
    });
}

/// The receiver as it stood before the run set: one `BTreeSet` key per
/// out-of-order reception, probed per packet. Kept here, verbatim, as the
/// reference the run-length receiver must match ACK for ACK.
#[derive(Default)]
struct TreeReceiver {
    cum: Option<u64>,
    pending: BTreeSet<u64>,
    highest: Option<u64>,
    received: u64,
    duplicates: u64,
}

impl TreeReceiver {
    fn on_data(&mut self, seq: u64) -> AckInfo {
        self.received += 1;
        let already = match self.cum {
            Some(c) if seq <= c => true,
            _ => self.pending.contains(&seq),
        };
        if already {
            self.duplicates += 1;
        } else {
            self.pending.insert(seq);
            loop {
                let next = self.cum.map_or(0, |c| c + 1);
                if self.pending.remove(&next) {
                    self.cum = Some(next);
                } else {
                    break;
                }
            }
        }
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
        let highest = self.highest.unwrap();
        let mut mask = 0u64;
        if let (Some(c), true) = (self.cum, highest >= 1) {
            let lo = highest - 1;
            if c >= lo {
                mask = u64::MAX;
            } else if lo - c < 64 {
                mask = u64::MAX << (lo - c);
            }
        }
        for &p in self.pending.range(highest.saturating_sub(64)..highest) {
            mask |= 1 << (highest - 1 - p);
        }
        if highest < 64 {
            mask &= (1u64 << highest) - 1;
        }
        AckInfo {
            ack_seq: seq,
            cum_seq: self.cum.unwrap_or(u64::MAX),
            highest,
            mask,
        }
    }
}

/// Feed `arrivals` to both receivers; every ACK and every counter must
/// agree after every packet.
fn assert_receivers_agree(arrivals: &[u64]) {
    let mut rx = RapReceiverState::new();
    let mut reference = TreeReceiver::default();
    for (i, &seq) in arrivals.iter().enumerate() {
        let at = || format!("arrival {i} (seq {seq}) of {arrivals:?}");
        assert_eq!(rx.on_data(seq), reference.on_data(seq), "{}", at());
        assert_eq!(rx.duplicates(), reference.duplicates, "{}", at());
        assert_eq!(
            rx.unique_received(),
            reference.received - reference.duplicates,
            "{}",
            at()
        );
        assert_eq!(rx.cumulative(), reference.cum, "{}", at());
    }
}

#[test]
fn run_set_receiver_matches_the_tree_receiver_on_random_paths() {
    cases("run_set_matches_tree_receiver", 400, |g, case| {
        let sent = g.u64_in(1, 600);
        // A quarter of the paths lose nothing, so the prefix keeps moving.
        let loss = g.f64_range(0.0, 0.2);
        let loss = if case % 4 == 0 { 0.0 } else { loss };
        let dup = g.f64_range(0.0, 0.1);
        let depth = g.usize_in(0, 70);
        let mut wire: Vec<u64> = Vec::new();
        for seq in 0..sent {
            if g.bool(loss) {
                continue;
            }
            wire.push(seq);
            if g.bool(dup) {
                wire.push(seq);
            }
        }
        // Bounded reordering: a packet may overtake up to `depth` others,
        // which also carries duplicates far from their originals and fills
        // holes late.
        let mut arrivals = Vec::with_capacity(wire.len());
        while !wire.is_empty() {
            let reach = depth.min(wire.len() - 1);
            let take = if g.bool(0.3) { g.usize_in(0, reach) } else { 0 };
            arrivals.push(wire.remove(take));
        }
        assert_receivers_agree(&arrivals);
    });
}

#[test]
fn run_set_receiver_matches_the_tree_receiver_on_directed_paths() {
    let cases: [(&str, Vec<u64>); 8] = [
        ("seq 0 missing, then filled last", vec![1, 2, 3, 5, 4, 0, 6]),
        ("a jump past the mask", vec![0, 1, 2, 200, 201, 100, 3]),
        ("highest below 64, holes", vec![0, 1, 5, 9, 62, 63, 64, 65]),
        ("a late fill merges two runs", vec![0, 2, 3, 5, 6, 4, 8, 1]),
        ("a late fill at cum + 1", vec![0, 2, 3, 4, 7, 1, 5, 6]),
        ("duplicates everywhere", vec![0, 2, 3, 4, 3, 0, 4, 4, 1, 2]),
        ("descending arrival", (0..70).rev().collect()),
        (
            "a hole every third packet across two mask windows",
            (0..200).filter(|s| s % 3 != 1).chain([100, 1, 4]).collect(),
        ),
    ];
    for (what, arrivals) in cases {
        eprintln!("directed: {what}");
        assert_receivers_agree(&arrivals);
    }
}

/// A lossy, duplicating stream of `sent` sequences in which each packet
/// is held back by a delay in `0..=max_delay` sequences with probability
/// `p_late`: it arrives after every packet of a lower delivery key
/// (`seq + delay`). When it arrives, no sequence above `seq + max_delay`
/// has, so `max_delay` bounds how far below the highest any arrival lands.
fn delayed_stream(g: &mut Gen, sent: u64, max_delay: u64, p_late: f64) -> Vec<u64> {
    let loss = g.f64_range(0.0, 0.2);
    let dup = g.f64_range(0.0, 0.05);
    let mut wire: Vec<(u64, u64)> = Vec::new();
    for seq in 0..sent {
        if g.bool(loss) {
            continue;
        }
        let copies = if g.bool(dup) { 2 } else { 1 };
        for _ in 0..copies {
            let delay = if g.bool(p_late) {
                g.u64_in(0, max_delay)
            } else {
                0
            };
            wire.push((seq + delay, seq));
        }
    }
    wire.sort_by_key(|&(key, seq)| (key, seq));
    wire.into_iter().map(|(_, seq)| seq).collect()
}

#[test]
fn the_reception_horizon_changes_no_ack_under_shallower_reordering() {
    // Streams long enough that the receiver forgets thousands of holes,
    // reordered at most `RECEPTION_HORIZON` deep: every ACK and counter
    // equals the exact reference receiver's, and nothing is counted.
    cases("horizon_exact_under_shallow_reordering", 48, |g, _| {
        let sent = g.u64_in(1, 6_000);
        let max_delay = g.u64_in(0, RECEPTION_HORIZON);
        let p_late = g.f64_range(0.0, 0.3);
        let arrivals = delayed_stream(g, sent, max_delay, p_late);
        assert_receivers_agree(&arrivals);
        let mut rx = RapReceiverState::new();
        for &seq in &arrivals {
            rx.on_data(seq);
        }
        assert_eq!(rx.beyond_horizon(), 0, "max delay {max_delay}");
    });
}

#[test]
fn the_horizon_counter_counts_every_arrival_below_it() {
    // Reordering up to three horizons deep: the counter counts exactly
    // the arrivals above the receiver's in-order prefix and more than
    // the horizon below the highest sequence, and every ACK before the
    // first of them equals the exact reference receiver's.
    let mut counted = 0;
    cases("horizon_counter_counts_late_arrivals", 48, |g, _| {
        let sent = g.u64_in(1, 6_000);
        let max_delay = g.u64_in(0, 3 * RECEPTION_HORIZON);
        let p_late = g.f64_range(0.0, 0.3);
        let arrivals = delayed_stream(g, sent, max_delay, p_late);
        let mut rx = RapReceiverState::new();
        let mut reference = TreeReceiver::default();
        let (mut next, mut highest, mut late) = (0u64, None::<u64>, 0u64);
        for (i, &seq) in arrivals.iter().enumerate() {
            if highest.is_some_and(|h| seq >= next && seq + RECEPTION_HORIZON < h) {
                late += 1;
            }
            let (ack, want) = (rx.on_data(seq), reference.on_data(seq));
            assert_eq!(rx.beyond_horizon(), late, "arrival {i} (seq {seq})");
            if late == 0 {
                assert_eq!(ack, want, "arrival {i} (seq {seq}), none late yet");
            }
            next = ack.cum_seq.wrapping_add(1);
            highest = Some(ack.highest);
        }
        counted += late;
    });
    assert!(counted > 0, "no case reordered past the horizon");
}
