//! Sender-side transmission history and ACK-driven loss detection.
//!
//! RAP detects losses from the ACK stream rather than retransmission
//! timers: the receiver acknowledges every packet, each ACK carrying enough
//! redundancy (cumulative sequence + a bitmask of recent receptions) for
//! the sender to reconstruct which packets arrived. A packet is declared
//! lost once the receiver has demonstrably received `reorder_threshold`
//! (default 3, mirroring TCP's duplicate-ACK rule) packets sent after it.
//! RAP does not retransmit — the stream is loss-tolerant — but the loss
//! report feeds both the AIMD backoff and the quality-adaptation buffer
//! accounting.

use std::collections::VecDeque;

/// Record of one transmitted, not-yet-resolved packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Transmission time (seconds).
    pub send_time: f64,
    /// Payload size (bytes).
    pub size: f64,
    /// Opaque tag the application attaches (the QA layer stores the layer
    /// index here so losses can be charged to the right buffer).
    pub tag: u32,
}

/// A resolved loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LostPacket {
    /// Sequence number of the lost packet.
    pub seq: u64,
    /// Its record.
    pub record: PacketRecord,
}

/// Outstanding-packet table with loss inference.
///
/// Sequence numbers from a RAP sender are assigned consecutively, so the
/// unresolved set is a dense sliding window: it lives in a `VecDeque`
/// ring indexed by `seq - base` rather than a tree, making every hot-path
/// operation O(1) amortized with **zero steady-state allocation** (the
/// ring's buffer is reused as the window slides). Resolved slots become
/// `None` in place; the front is trimmed so the window never grows past
/// the true in-flight span. All observable orders (resolution, loss
/// reporting, byte summation) remain ascending-sequence, exactly as the
/// previous `BTreeMap` implementation produced them.
#[derive(Debug, Clone, Default)]
pub struct TransmissionHistory {
    /// Window of sends, `window[i]` holding sequence `base + i`
    /// (`None` once resolved).
    window: VecDeque<Option<PacketRecord>>,
    /// Sequence number of `window[0]`.
    base: u64,
    /// Unresolved (`Some`) entries in the window.
    live: usize,
    /// Highest sequence the receiver has demonstrably received.
    highest_received: Option<u64>,
    reorder_threshold: u64,
}

impl TransmissionHistory {
    /// New history with the given reorder threshold (packets received after
    /// a hole before the hole is declared lost).
    pub fn new(reorder_threshold: u64) -> Self {
        TransmissionHistory {
            window: VecDeque::new(),
            base: 0,
            live: 0,
            highest_received: None,
            reorder_threshold: reorder_threshold.max(1),
        }
    }

    /// Number of unresolved packets.
    pub fn outstanding(&self) -> usize {
        self.live
    }

    /// Bytes in flight (unresolved).
    pub fn outstanding_bytes(&self) -> f64 {
        // Summed in ascending-sequence order (same order the tree
        // iterated), so accumulated floating point is bit-identical.
        self.window
            .iter()
            .filter_map(|slot| slot.as_ref().map(|r| r.size))
            .sum()
    }

    /// Send time of the oldest unresolved packet.
    pub fn oldest_send_time(&self) -> Option<f64> {
        // The front slot is live whenever the window is non-empty (the
        // trim invariant), but scan defensively rather than rely on it.
        self.window
            .iter()
            .find_map(|slot| slot.as_ref().map(|r| r.send_time))
    }

    /// Drop resolved slots off the front so `window[0]` is live (or the
    /// window is empty). Keeps the ring bounded by the in-flight span.
    fn trim_front(&mut self) {
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Register a transmission. Sequences are normally consecutive and
    /// increasing (the sender's counter); any gap is represented by
    /// resolved filler slots so out-of-pattern callers stay correct.
    pub fn on_send(&mut self, seq: u64, record: PacketRecord) {
        if self.window.is_empty() {
            self.base = seq;
            self.window.push_back(Some(record));
            self.live += 1;
            return;
        }
        if seq < self.base {
            while self.base - seq > 1 {
                self.window.push_front(None);
                self.base -= 1;
            }
            self.window.push_front(Some(record));
            self.base = seq;
            self.live += 1;
            return;
        }
        let i = (seq - self.base) as usize;
        if i < self.window.len() {
            if self.window[i].replace(record).is_none() {
                self.live += 1;
            }
            return;
        }
        while self.window.len() < i {
            self.window.push_back(None);
        }
        self.window.push_back(Some(record));
        self.live += 1;
    }

    /// Mark `seq` as received; returns its record (for RTT sampling) when it
    /// was outstanding.
    pub fn mark_received(&mut self, seq: u64) -> Option<PacketRecord> {
        self.highest_received = Some(self.highest_received.map_or(seq, |h| h.max(seq)));
        if seq < self.base {
            return None;
        }
        let i = (seq - self.base) as usize;
        let record = self.window.get_mut(i)?.take()?;
        self.live -= 1;
        self.trim_front();
        Some(record)
    }

    /// Mark every sequence `<= cum` as received (cumulative ACK), calling
    /// `resolved` once per record in ascending sequence order. The
    /// allocation-free core of [`mark_received_upto`].
    pub fn for_each_received_upto(
        &mut self,
        cum: u64,
        mut resolved: impl FnMut(u64, PacketRecord),
    ) {
        self.highest_received = Some(self.highest_received.map_or(cum, |h| h.max(cum)));
        while !self.window.is_empty() && self.base <= cum {
            let seq = self.base;
            let slot = self.window.pop_front().expect("checked non-empty");
            self.base += 1;
            if let Some(record) = slot {
                self.live -= 1;
                resolved(seq, record);
            }
        }
        self.trim_front();
    }

    /// Mark every sequence `<= cum` as received (cumulative ACK); returns
    /// the records resolved by this call (for delivery accounting).
    pub fn mark_received_upto(&mut self, cum: u64) -> Vec<(u64, PacketRecord)> {
        let mut out = Vec::new();
        self.for_each_received_upto(cum, |seq, record| out.push((seq, record)));
        out
    }

    /// Infer losses: every outstanding packet that precedes the highest
    /// received sequence by at least `reorder_threshold` is declared lost
    /// and removed. Returns the losses in sequence order.
    pub fn detect_losses(&mut self) -> Vec<LostPacket> {
        let Some(h) = self.highest_received else {
            return Vec::new();
        };
        if h < self.reorder_threshold {
            return Vec::new();
        }
        let cutoff = h - self.reorder_threshold;
        let mut lost = Vec::new();
        while !self.window.is_empty() && self.base <= cutoff {
            let seq = self.base;
            let slot = self.window.pop_front().expect("checked non-empty");
            self.base += 1;
            if let Some(record) = slot {
                self.live -= 1;
                lost.push(LostPacket { seq, record });
            }
        }
        self.trim_front();
        lost
    }

    /// Declare every outstanding packet lost (timeout). Returns them in
    /// sequence order.
    pub fn flush_all_as_lost(&mut self) -> Vec<LostPacket> {
        let base = self.base;
        let out = self
            .window
            .drain(..)
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.map(|record| LostPacket {
                    seq: base + i as u64,
                    record,
                })
            })
            .collect();
        self.live = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64) -> PacketRecord {
        PacketRecord {
            send_time: t,
            size: 1_000.0,
            tag: 0,
        }
    }

    #[test]
    fn received_packets_resolve() {
        let mut h = TransmissionHistory::new(3);
        h.on_send(1, rec(0.0));
        h.on_send(2, rec(0.1));
        assert_eq!(h.outstanding(), 2);
        let r = h.mark_received(1).unwrap();
        assert_eq!(r.send_time, 0.0);
        assert_eq!(h.outstanding(), 1);
    }

    #[test]
    fn loss_declared_after_reorder_threshold() {
        let mut h = TransmissionHistory::new(3);
        for seq in 1..=6 {
            h.on_send(seq, rec(seq as f64 * 0.1));
        }
        // 2 is lost; receive 1, 3, 4.
        h.mark_received(1);
        h.mark_received(3);
        h.mark_received(4);
        assert!(h.detect_losses().is_empty(), "only 2 packets past the hole");
        h.mark_received(5);
        let lost = h.detect_losses();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].seq, 2);
        assert_eq!(h.outstanding(), 1); // seq 6 still in flight
    }

    #[test]
    fn cumulative_ack_clears_prefix() {
        let mut h = TransmissionHistory::new(3);
        for seq in 1..=10 {
            h.on_send(seq, rec(0.0));
        }
        h.mark_received_upto(7);
        assert_eq!(h.outstanding(), 3);
        assert!(h.oldest_send_time().is_some());
    }

    #[test]
    fn reordering_within_threshold_not_lost() {
        let mut h = TransmissionHistory::new(3);
        for seq in 1..=4 {
            h.on_send(seq, rec(0.0));
        }
        // Receive out of order: 2, 1, 4, 3 — no losses.
        for seq in [2, 1, 4, 3] {
            h.mark_received(seq);
            assert!(h.detect_losses().is_empty());
        }
        assert_eq!(h.outstanding(), 0);
    }

    #[test]
    fn flush_all_reports_everything() {
        let mut h = TransmissionHistory::new(3);
        for seq in 1..=5 {
            h.on_send(seq, rec(seq as f64));
        }
        h.mark_received(3);
        let lost = h.flush_all_as_lost();
        assert_eq!(lost.len(), 4);
        assert_eq!(
            lost.iter().map(|l| l.seq).collect::<Vec<_>>(),
            vec![1, 2, 4, 5]
        );
        assert_eq!(h.outstanding(), 0);
    }

    #[test]
    fn outstanding_bytes_tracks_sizes() {
        let mut h = TransmissionHistory::new(3);
        h.on_send(
            1,
            PacketRecord {
                send_time: 0.0,
                size: 700.0,
                tag: 1,
            },
        );
        h.on_send(
            2,
            PacketRecord {
                send_time: 0.0,
                size: 300.0,
                tag: 2,
            },
        );
        assert_eq!(h.outstanding_bytes(), 1_000.0);
        h.mark_received(1);
        assert_eq!(h.outstanding_bytes(), 300.0);
    }

    #[test]
    fn tags_preserved_through_loss() {
        let mut h = TransmissionHistory::new(1);
        h.on_send(
            1,
            PacketRecord {
                send_time: 0.0,
                size: 1.0,
                tag: 42,
            },
        );
        h.mark_received(5);
        let lost = h.detect_losses();
        assert_eq!(lost[0].record.tag, 42);
    }
}
