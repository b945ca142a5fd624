//! RAP receiver: acknowledges every data packet with redundant reception
//! information.
//!
//! Each ACK carries the sequence being acknowledged, the highest in-order
//! sequence (cumulative ACK), and a 64-bit bitmask of receptions just below
//! the highest received sequence. The redundancy makes loss detection
//! robust to ACK loss on the reverse path — any later ACK repairs the
//! sender's view.

use std::collections::BTreeSet;

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

/// Receiver-side reception state that mints [`AckInfo`]s.
#[derive(Debug, Clone, Default)]
pub struct RapReceiverState {
    /// Highest in-order sequence (None until seq 0 arrives).
    cum: Option<u64>,
    /// Out-of-order receptions above `cum`.
    pending: BTreeSet<u64>,
    /// Highest sequence seen.
    highest: Option<u64>,
    /// Count of received packets (including duplicates).
    received: u64,
    /// Count of duplicate receptions.
    duplicates: u64,
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

    /// Highest in-order sequence, if any.
    pub fn cumulative(&self) -> Option<u64> {
        self.cum
    }

    /// Process an arriving data packet and mint the ACK to send back.
    pub fn on_data(&mut self, seq: u64) -> AckInfo {
        self.received += 1;
        let already = match self.cum {
            Some(c) if seq <= c => true,
            _ => self.pending.contains(&seq),
        };
        if already {
            self.duplicates += 1;
        } else {
            self.pending.insert(seq);
            // Advance the cumulative pointer through any now-contiguous run.
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
        // Build the mask for highest-1 down to highest-64: bit `i` covers
        // sequence `highest - 1 - i`, received iff at/below the cumulative
        // pointer or parked in `pending`. Both sources translate to bit
        // runs directly — the cumulative prefix is one shifted all-ones
        // word, and `pending` (out-of-order holes only, normally empty)
        // contributes one bit per member in window — so no per-bit probe
        // loop is needed on this per-packet path.
        let mut mask = 0u64;
        if let (Some(c), true) = (self.cum, highest >= 1) {
            let lo = highest - 1; // sequence covered by bit 0
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
            // Bits at and above `highest` would name negative sequences.
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
}
