//! Property-based tests for the RAP protocol machinery: arbitrary loss,
//! reordering and duplication patterns must never wedge the sender,
//! corrupt its accounting, or break AIMD invariants.
//!
//! Randomization comes from `laqa_check` (a seeded in-repo harness) rather
//! than proptest, so the suite runs with zero registry access.

use laqa_check::{cases, Gen};
use laqa_rap::{AckInfo, RapConfig, RapEvent, RapReceiverState, RapSender};
use std::collections::BTreeSet;

/// Random per-packet fate codes in `0..=3` (see `run_fates`).
fn fate_vec(g: &mut Gen, len_lo: usize, len_hi: usize) -> Vec<u8> {
    let len = g.usize_in(len_lo, len_hi);
    (0..len).map(|_| g.u32_in(0, 3) as u8).collect()
}

/// Replay a randomized path: per-packet fates (delivered / lost /
/// duplicated) and a bounded reorder depth.
fn run_fates(fates: &[u8], reorder: usize) -> (RapSender, u64, u64) {
    let mut s = RapSender::new(
        RapConfig {
            initial_rate: 10_000.0,
            initial_rtt: 0.05,
            ..RapConfig::default()
        },
        0.0,
    );
    let mut rx = RapReceiverState::new();
    let owd = 0.02;
    let mut now = 0.0;
    let mut pipeline: Vec<(f64, u64)> = Vec::new();
    let mut acked = 0u64;
    let mut lost = 0u64;
    let mut i = 0usize;
    while i < fates.len() {
        now += 0.001;
        s.poll_timers(now);
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
            let ack = rx.on_data(seq);
            s.on_ack(now, ack);
        }
        if now >= s.next_send_time() {
            let seq = s.register_send(now, 1_000.0, (seq_tag(i)) as u32);
            match fates[i] % 4 {
                0 | 1 => pipeline.push((now + owd, seq)), // delivered
                2 => {
                    // duplicated
                    pipeline.push((now + owd, seq));
                    pipeline.push((now + owd + 0.001, seq));
                }
                _ => {} // lost
            }
            i += 1;
        }
        for e in s.take_events() {
            match e {
                RapEvent::PacketAcked { .. } => acked += 1,
                RapEvent::PacketLost { .. } => lost += 1,
                _ => {}
            }
        }
    }
    // Drain the tail of the pipeline.
    for _ in 0..10_000 {
        now += 0.001;
        s.poll_timers(now);
        while !pipeline.is_empty() && pipeline[0].0 <= now {
            let (_, seq) = pipeline.remove(0);
            let ack = rx.on_data(seq);
            s.on_ack(now, ack);
        }
        if pipeline.is_empty() && s.in_flight() == 0 {
            break;
        }
    }
    for e in s.take_events() {
        match e {
            RapEvent::PacketAcked { .. } => acked += 1,
            RapEvent::PacketLost { .. } => lost += 1,
            _ => {}
        }
    }
    (s, acked, lost)
}

fn seq_tag(i: usize) -> u8 {
    (i % 5) as u8
}

#[test]
fn every_packet_resolves_exactly_once() {
    cases("every_packet_resolves_exactly_once", 24, |g, _| {
        let fates = fate_vec(g, 50, 199);
        let reorder = g.usize_in(0, 2);
        let (s, acked, lost) = run_fates(&fates, reorder);
        // After the drain loop, nothing is in flight and the sum of
        // resolutions equals the number of sends (duplicates resolve once).
        assert_eq!(s.in_flight(), 0, "unresolved packets remain");
        assert_eq!(
            (acked + lost) as usize,
            fates.len(),
            "acked {acked} + lost {lost} != sent {}",
            fates.len()
        );
        // Rate stays within sane bounds.
        assert!(s.rate() >= 1_000.0 - 1e-9);
        assert!(s.rate().is_finite());
    });
}

#[test]
fn srtt_stays_positive_and_finite() {
    cases("srtt_stays_positive_and_finite", 24, |g, _| {
        let fates = fate_vec(g, 50, 149);
        let (s, _, _) = run_fates(&fates, 0);
        assert!(s.srtt() > 0.0 && s.srtt().is_finite());
        assert!(s.slope() > 0.0 && s.slope().is_finite());
    });
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

#[test]
fn backoffs_never_exceed_loss_events() {
    cases("backoffs_never_exceed_loss_events", 24, |g, _| {
        let fates = fate_vec(g, 80, 199);
        // Count backoffs vs distinct losses: cluster suppression means
        // backoffs <= losses (and also <= sends).
        let mut s = RapSender::new(
            RapConfig {
                initial_rate: 20_000.0,
                initial_rtt: 0.05,
                ..RapConfig::default()
            },
            0.0,
        );
        let mut rx = RapReceiverState::new();
        let mut now = 0.0;
        let mut pipeline: Vec<(f64, u64)> = Vec::new();
        let mut backoffs = 0u64;
        let mut losses = 0u64;
        let mut i = 0;
        while i < fates.len() {
            now += 0.001;
            s.poll_timers(now);
            while !pipeline.is_empty() && pipeline[0].0 <= now {
                let (_, seq) = pipeline.remove(0);
                s.on_ack(now, rx.on_data(seq));
            }
            if now >= s.next_send_time() {
                let seq = s.register_send(now, 1_000.0, 0);
                if fates[i] != 3 {
                    pipeline.push((now + 0.02, seq));
                }
                i += 1;
            }
            for e in s.take_events() {
                match e {
                    RapEvent::Backoff { .. } => backoffs += 1,
                    RapEvent::PacketLost { .. } => losses += 1,
                    _ => {}
                }
            }
        }
        assert!(backoffs <= losses + 1, "backoffs {backoffs} losses {losses}");
    });
}
