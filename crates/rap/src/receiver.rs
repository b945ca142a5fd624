//! RAP receiver: acknowledges every data packet with redundant reception
//! information.
//!
//! Each ACK carries the sequence being acknowledged, the highest in-order
//! sequence (cumulative ACK), and a 64-bit bitmask of receptions just below
//! the highest received sequence. The redundancy makes loss detection
//! robust to ACK loss on the reverse path — any later ACK repairs the
//! sender's view.
//!
//! What has arrived is kept as a [`RunSet`]: the in-order prefix plus
//! run-length-coded receptions above it, a run per standing hole, and the
//! usual arrival — one past the last run — is a compare and an increment.
//! RAP never re-sends a sequence number, so a flow's first loss freezes
//! the prefix for the rest of the session and its holes never fill. The
//! receiver therefore forgets the runs that end more than
//! [`RECEPTION_HORIZON`] below the highest sequence: an ACK reads only
//! the 64 sequences below it, and the state stays bounded by the horizon,
//! not by the session's losses. An arrival that lands in the forgotten
//! stretch is counted ([`RapReceiverState::beyond_horizon`]); while that
//! count is 0, every ACK equals the one an exact set would mint.

use std::collections::VecDeque;

/// How far below the highest sequence received a [`RapReceiverState`]
/// keeps track of receptions, in sequences. It must cover the ACK mask's
/// 64; above that it bounds how deep a reordering can be before ACKs stop
/// being exact (the deepest measured on the default grid, the faults
/// sweep and the hostile corpus is in DESIGN.md §6j).
pub const RECEPTION_HORIZON: u64 = 256;
const _: () = assert!(
    RECEPTION_HORIZON >= 64,
    "the horizon must cover the ACK mask"
);

/// Acknowledgement contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Sequence of the data packet that triggered this ACK.
    pub ack_seq: u64,
    /// Highest sequence such that all sequences `<= cum_seq` arrived
    /// (`u64::MAX` encodes "nothing in order yet" — i.e. packet 0 missing).
    pub cum_seq: u64,
    /// Highest sequence received so far.
    pub highest: u64,
    /// Reception bitmask: bit `i` set ⇔ sequence `highest − 1 − i`
    /// arrived (for `i` in `0..64`).
    pub mask: u64,
}

impl AckInfo {
    /// Whether this ACK proves reception of `seq`.
    pub fn proves_received(&self, seq: u64) -> bool {
        if seq == self.ack_seq || seq == self.highest {
            return true;
        }
        if self.cum_seq != u64::MAX && seq <= self.cum_seq {
            return true;
        }
        if seq < self.highest {
            let dist = self.highest - 1 - seq;
            if dist < 64 {
                return self.mask & (1u64 << dist) != 0;
            }
        }
        false
    }
}

/// The set of sequence numbers received so far, for reassembly: every
/// sequence below [`next_expected`](Self::next_expected), plus an
/// ascending list of disjoint, non-adjacent inclusive runs `(lo, hi)`
/// above it. Memory is one run per standing hole, however many packets
/// arrive, unless [`forget_below`](Self::forget_below) drops old ones.
/// Sequences stay below `u64::MAX` (which [`AckInfo::cum_seq`] reserves).
#[derive(Debug, Clone, Default)]
pub struct RunSet {
    /// Lowest sequence not yet received.
    next: u64,
    /// Receptions above `next`; every `lo > next`, every gap between
    /// neighbours at least one sequence wide.
    runs: VecDeque<(u64, u64)>,
}

impl RunSet {
    /// Lowest sequence not yet received (everything below it has arrived).
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Highest sequence received, if any.
    pub fn highest(&self) -> Option<u64> {
        match self.runs.back() {
            Some(&(_, hi)) => Some(hi),
            None => self.next.checked_sub(1),
        }
    }

    /// Record the arrival of `seq`; `false` when it had arrived before.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if seq == self.next {
            // In order, or the hole at the cumulative point filled: the
            // prefix swallows the front run when it now touches it.
            self.next += 1;
            if let Some(&(lo, hi)) = self.runs.front() {
                if lo == self.next {
                    self.next = hi + 1;
                    self.runs.pop_front();
                }
            }
            return true;
        }
        match self.runs.back_mut() {
            Some(last) if seq - 1 == last.1 => last.1 = seq,
            Some(last) if seq <= last.1 => return self.insert_below_last(seq),
            _ => self.runs.push_back((seq, seq)),
        }
        true
    }

    /// Forget the runs that end below `floor`: their sequences read as
    /// missing from then on. The prefix below
    /// [`next_expected`](Self::next_expected) stays.
    pub fn forget_below(&mut self, floor: u64) {
        while self.runs.front().is_some_and(|&(_, hi)| hi < floor) {
            self.runs.pop_front();
        }
    }

    /// Reordered arrival: `next < seq <= ` the last run's `hi`.
    fn insert_below_last(&mut self, seq: u64) -> bool {
        // First run ending at or after `seq`; the last run does.
        let i = self.runs.partition_point(|&(_, hi)| hi < seq);
        let (lo, hi) = self.runs[i];
        if lo <= seq {
            return false;
        }
        let joins_left = i > 0 && self.runs[i - 1].1 == seq - 1;
        match (joins_left, seq + 1 == lo) {
            (true, true) => {
                self.runs[i - 1].1 = hi;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 = seq,
            (false, true) => self.runs[i].0 = seq,
            (false, false) => self.runs.insert(i, (seq, seq)),
        }
        true
    }

    /// Reception bitmask of the 64 sequences ending at `top` (bit `i` ⇔
    /// sequence `top − i`), walking runs from the back.
    fn mask_ending_at(&self, top: u64) -> u64 {
        let floor = top.saturating_sub(63);
        // Bits of the inclusive run `lo..=hi`, clipped to `floor..=top`.
        let bits = |lo: u64, hi: u64| {
            let (lo, hi) = (lo.max(floor), hi.min(top));
            if lo > hi {
                0
            } else {
                (u64::MAX >> (63 - (hi - lo))) << (top - hi)
            }
        };
        let mut mask = self.next.checked_sub(1).map_or(0, |cum| bits(0, cum));
        for &(lo, hi) in self.runs.iter().rev() {
            if hi < floor {
                break;
            }
            mask |= bits(lo, hi);
        }
        mask
    }
}

/// Receiver-side reception state that mints [`AckInfo`]s, remembering
/// receptions back to [`RECEPTION_HORIZON`] below the highest sequence.
#[derive(Debug, Clone, Default)]
pub struct RapReceiverState {
    seen: RunSet,
    /// Count of received packets (including duplicates).
    received: u64,
    /// Count of duplicate receptions.
    duplicates: u64,
    /// Arrivals above the prefix but below the horizon.
    beyond_horizon: u64,
}

impl RapReceiverState {
    /// Fresh receiver state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets received (excluding duplicates).
    pub fn unique_received(&self) -> u64 {
        self.received - self.duplicates
    }

    /// Duplicate receptions observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Arrivals that landed above the in-order prefix but more than
    /// [`RECEPTION_HORIZON`] below the highest sequence then received,
    /// where receptions are no longer tracked. While this is 0, every
    /// ACK, [`cumulative`](Self::cumulative), [`duplicates`](Self::duplicates)
    /// and [`unique_received`](Self::unique_received) equal what a receiver
    /// that forgot nothing would report; after that they may not.
    pub fn beyond_horizon(&self) -> u64 {
        self.beyond_horizon
    }

    /// Highest in-order sequence, if any.
    pub fn cumulative(&self) -> Option<u64> {
        self.seen.next.checked_sub(1)
    }

    /// Process an arriving data packet and mint the ACK to send back.
    pub fn on_data(&mut self, seq: u64) -> AckInfo {
        self.received += 1;
        let horizon = self.seen.highest().map_or(0, horizon_below);
        if seq >= self.seen.next && seq < horizon {
            self.beyond_horizon += 1;
        }
        if !self.seen.insert(seq) {
            self.duplicates += 1;
        }
        let highest = self.seen.highest().expect("a sequence was just inserted");
        self.seen.forget_below(horizon_below(highest));
        AckInfo {
            ack_seq: seq,
            cum_seq: self.cumulative().unwrap_or(u64::MAX),
            highest,
            // Bit 0 names `highest − 1`; at `highest == 0` nothing does.
            mask: highest
                .checked_sub(1)
                .map_or(0, |top| self.seen.mask_ending_at(top)),
        }
    }
}

/// The lowest sequence a receiver whose highest is `highest` tracks.
fn horizon_below(highest: u64) -> u64 {
    highest.saturating_sub(RECEPTION_HORIZON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_arrival_advances_cumulative() {
        let mut r = RapReceiverState::new();
        for seq in 0..5 {
            let ack = r.on_data(seq);
            assert_eq!(ack.cum_seq, seq);
            assert_eq!(ack.ack_seq, seq);
        }
        assert_eq!(r.unique_received(), 5);
    }

    #[test]
    fn gap_freezes_cumulative_until_filled() {
        let mut r = RapReceiverState::new();
        r.on_data(0);
        let ack = r.on_data(2);
        assert_eq!(ack.cum_seq, 0);
        assert_eq!(ack.highest, 2);
        let ack = r.on_data(1);
        assert_eq!(ack.cum_seq, 2);
    }

    #[test]
    fn mask_encodes_recent_receptions() {
        let mut r = RapReceiverState::new();
        r.on_data(0);
        r.on_data(1);
        let ack = r.on_data(4); // 2 and 3 missing
        assert_eq!(ack.highest, 4);
        // bit 0 → seq 3 (missing), bit 1 → seq 2 (missing), bit 2 → seq 1,
        // bit 3 → seq 0.
        assert!(ack.proves_received(0));
        assert!(ack.proves_received(1));
        assert!(!ack.proves_received(2));
        assert!(!ack.proves_received(3));
        assert!(ack.proves_received(4));
    }

    #[test]
    fn missing_first_packet_encoded_as_max() {
        let mut r = RapReceiverState::new();
        let ack = r.on_data(3);
        assert_eq!(ack.cum_seq, u64::MAX);
        assert!(!ack.proves_received(0));
        assert!(ack.proves_received(3));
    }

    #[test]
    fn duplicates_counted() {
        let mut r = RapReceiverState::new();
        r.on_data(0);
        r.on_data(0);
        r.on_data(1);
        r.on_data(1);
        assert_eq!(r.duplicates(), 2);
        assert_eq!(r.unique_received(), 2);
    }

    #[test]
    fn proves_received_beyond_mask_window_via_cum() {
        let mut r = RapReceiverState::new();
        for seq in 0..200 {
            r.on_data(seq);
        }
        let ack = r.on_data(200);
        // Sequence 10 is far below the mask window but covered by cum.
        assert!(ack.proves_received(10));
    }

    #[test]
    fn far_hole_beyond_mask_not_proven() {
        let mut r = RapReceiverState::new();
        r.on_data(0);
        // Jump far ahead: seq 100. Holes 1..=99; mask covers 36..=99.
        let ack = r.on_data(100);
        assert_eq!(ack.cum_seq, 0);
        assert!(!ack.proves_received(50));
        assert!(ack.proves_received(0));
        assert!(ack.proves_received(100));
    }

    #[test]
    fn permanent_holes_cost_one_run_each() {
        // RAP never re-sends: 10 000 packets with 40 or 400 permanent
        // holes leave at most a run per hole within the horizon behind,
        // not one entry per packet nor one per hole, and no arrival is
        // late.
        for every in [250u64, 25] {
            let mut r = RapReceiverState::new();
            let n = 10_000u64;
            for seq in (0..n).filter(|s| s % every != every - 1) {
                r.on_data(seq);
            }
            let within = (RECEPTION_HORIZON / every + 1) as usize;
            assert!(r.seen.runs.len() <= within, "{} runs", r.seen.runs.len());
            assert_eq!(r.cumulative(), Some(every - 2));
            assert_eq!(r.unique_received(), n - n / every);
            assert_eq!(r.beyond_horizon(), 0);
        }
    }

    #[test]
    fn a_late_arrival_below_the_horizon_is_counted() {
        let mut r = RapReceiverState::new();
        r.on_data(0);
        let top = 1 + RECEPTION_HORIZON;
        for seq in 2..=top {
            r.on_data(seq);
        }
        // 1 is the hole at the prefix, just within the horizon of `top`:
        // filling it is exact.
        assert_eq!(r.on_data(1).cum_seq, top);
        // Holes at `top + 1` and `top + 5`, then a run far enough past
        // them that the run between the two is forgotten: a late copy of
        // the first hole lands below the horizon.
        for seq in (top + 2..=top + 4).chain(top + 6..=top + 6 + RECEPTION_HORIZON) {
            r.on_data(seq);
        }
        assert_eq!(r.beyond_horizon(), 0);
        let ack = r.on_data(top + 1);
        assert_eq!(r.beyond_horizon(), 1);
        // An exact set would report everything through `top + 4` in
        // order; this one stops at the late arrival.
        assert_eq!(ack.cum_seq, top + 1);
        // Below the prefix is a duplicate, not a horizon miss.
        r.on_data(5);
        assert_eq!((r.beyond_horizon(), r.duplicates()), (1, 1));
    }

    #[test]
    fn reordered_arrivals_merge_runs() {
        let mut s = RunSet::default();
        for seq in [2, 4, 8, 6] {
            assert!(s.insert(seq));
        }
        assert_eq!(s.runs, [(2, 2), (4, 4), (6, 6), (8, 8)]);
        assert!(s.insert(3), "joins both neighbours");
        assert!(s.insert(7));
        assert_eq!(s.runs, [(2, 4), (6, 8)]);
        assert!(s.insert(9), "extends the last run");
        assert!(s.insert(5));
        assert_eq!(s.runs, [(2, 9)]);
        assert!(!s.insert(6), "inside a run");
        assert!(s.insert(0));
        assert_eq!((s.next_expected(), s.runs.len()), (1, 1));
        assert!(s.insert(1), "the prefix swallows the front run");
        assert_eq!((s.next_expected(), s.highest()), (10, Some(9)));
        assert!(s.runs.is_empty());
        assert!(!s.insert(9), "below the prefix");
    }
}
