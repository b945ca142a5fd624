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
//!
//! Every sender in this crate reads an ACK through the one walk in
//! [`TransmissionHistory::resolve_ack`], so the order in which an ACK's
//! three proofs resolve packets is decided here and nowhere else.

use crate::receiver::AckInfo;
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Record of one transmitted, not-yet-resolved packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Transmission time (seconds).
    pub send_time: f64,
    /// Payload size: whole bytes, at least one
    /// ([`TransmissionHistory::on_send`] panics otherwise).
    pub size: f64,
    /// Opaque tag the application attaches (the QA layer stores the layer
    /// index here so losses can be charged to the right buffer).
    pub tag: u32,
}

/// A [`PacketRecord`] as the window keeps it, in 16 bytes: the size is a
/// whole number of bytes, at least one, so it fits a `NonZeroU32`, whose
/// niche lets `None` mark a resolved slot at no extra cost.
#[derive(Debug, Clone, Copy)]
struct Slot {
    send_time: f64,
    size: NonZeroU32,
    tag: u32,
}

// A field that re-bloats the window's slots must fail the build.
const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 16);

impl Slot {
    /// # Panics
    /// If `record.size` is not a whole number of bytes in `1..=u32::MAX`.
    fn new(record: PacketRecord) -> Self {
        let size = record.size;
        assert!(
            size.fract() == 0.0 && (1.0..=f64::from(u32::MAX)).contains(&size),
            "a sent packet is a whole number of bytes, at least one: {size}"
        );
        Slot {
            send_time: record.send_time,
            size: NonZeroU32::new(size as u32).expect("checked at least one"),
            tag: record.tag,
        }
    }

    fn record(self) -> PacketRecord {
        PacketRecord {
            send_time: self.send_time,
            size: f64::from(self.size.get()),
            tag: self.tag,
        }
    }
}

/// Outstanding-packet table with loss inference.
///
/// Sequence numbers from a RAP sender are assigned consecutively, so the
/// unresolved set is a dense sliding window: it lives in a `VecDeque`
/// ring indexed by `seq - base` rather than a tree, with **zero
/// steady-state allocation** (the ring's buffer is reused as the window
/// slides). A send and a single-seq resolve are O(1) amortized; an ACK
/// costs O(1) plus the records it resolves plus its mask bits that name
/// sequences in `[base, highest)` — at most 64, and no more than the live
/// window spans, since bits below `base` are cleared before the walk.
/// Resolved slots become `None` in place; the front is trimmed so the
/// window never grows past the true in-flight span. Records leave through
/// visitors ([`resolve_ack`](Self::resolve_ack), [`detect_losses`](Self::detect_losses),
/// [`flush_all_as_lost`](Self::flush_all_as_lost)) in ascending sequence
/// order, so an ACK or a loss report costs its sender no allocation either.
#[derive(Debug, Clone, Default)]
pub struct TransmissionHistory {
    /// Window of sends, `window[i]` holding sequence `base + i`
    /// (`None` once resolved).
    window: VecDeque<Option<Slot>>,
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
    ///
    /// # Panics
    /// If `record.size` is not a whole number of bytes in `1..=u32::MAX`.
    pub fn on_send(&mut self, seq: u64, record: PacketRecord) {
        let record = Slot::new(record);
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

    /// Mark `seq` as received; returns its record when it was outstanding.
    fn mark_received(&mut self, seq: u64) -> Option<PacketRecord> {
        self.highest_received = self.highest_received.max(Some(seq));
        if seq < self.base {
            return None;
        }
        let i = (seq - self.base) as usize;
        let slot = self.window.get_mut(i)?.take()?;
        self.live -= 1;
        self.trim_front();
        Some(slot.record())
    }

    /// Pop every slot at or below `limit` off the front, calling `visit`
    /// once per unresolved record in ascending sequence order.
    fn pop_through(&mut self, limit: u64, mut visit: impl FnMut(u64, PacketRecord)) {
        while !self.window.is_empty() && self.base <= limit {
            let seq = self.base;
            let slot = self.window.pop_front().expect("checked non-empty");
            self.base += 1;
            if let Some(slot) = slot {
                self.live -= 1;
                visit(seq, slot.record());
            }
        }
        self.trim_front();
    }

    /// Resolve every outstanding packet `ack` proves received — the one
    /// ACK walk all senders share. `resolved` sees each record once:
    /// `ack_seq` first, then the cumulative prefix in ascending sequence
    /// order, then the mask's set bits in ascending bit order. Returns
    /// `ack_seq`'s record when it was still outstanding: the one whose
    /// send time makes an RTT sample.
    pub fn resolve_ack(
        &mut self,
        ack: &AckInfo,
        mut resolved: impl FnMut(u64, PacketRecord),
    ) -> Option<PacketRecord> {
        let trigger = self.mark_received(ack.ack_seq);
        if let Some(record) = trigger {
            resolved(ack.ack_seq, record);
        }
        if ack.cum_seq != u64::MAX {
            self.highest_received = self.highest_received.max(Some(ack.cum_seq));
            self.pop_through(ack.cum_seq, &mut resolved);
        }
        // Bit `i` names sequence `highest - 1 - i`; bits at or above
        // `highest` would name negative sequences.
        if let Some(top) = ack.highest.checked_sub(1) {
            let mut bits = ack.mask & (u64::MAX >> 63u64.saturating_sub(top));
            // A seq below `base` is resolved: marking it would only raise
            // `highest_received`. So raise that once, to the highest seq
            // the mask names, and walk only the bits at or above `base`
            // (`base` only grows during the walk, so no live seq is cut).
            if bits != 0 {
                let named = top - u64::from(bits.trailing_zeros());
                self.highest_received = self.highest_received.max(Some(named));
            }
            if top < self.base {
                bits = 0;
            } else if top - self.base < 63 {
                bits &= u64::MAX >> (63 - (top - self.base));
            }
            while bits != 0 {
                let seq = top - u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                if let Some(record) = self.mark_received(seq) {
                    resolved(seq, record);
                }
            }
        }
        trigger
    }

    /// Infer losses: every outstanding packet that precedes the highest
    /// received sequence by at least `reorder_threshold` is declared lost,
    /// removed, and handed to `lost` in ascending sequence order.
    pub fn detect_losses(&mut self, lost: impl FnMut(u64, PacketRecord)) {
        if let Some(cutoff) = self
            .highest_received
            .and_then(|h| h.checked_sub(self.reorder_threshold))
        {
            self.pop_through(cutoff, lost);
        }
    }

    /// Declare every outstanding packet lost (timeout), handing each to
    /// `lost` in ascending sequence order.
    pub fn flush_all_as_lost(&mut self, mut lost: impl FnMut(u64, PacketRecord)) {
        for (seq, slot) in (self.base..).zip(self.window.drain(..)) {
            if let Some(slot) = slot {
                lost(seq, slot.record());
            }
        }
        self.live = 0;
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

    /// Sequences `detect_losses` reports, in the order it reports them.
    fn losses(h: &mut TransmissionHistory) -> Vec<u64> {
        let mut out = Vec::new();
        h.detect_losses(|seq, _| out.push(seq));
        out
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
    fn a_record_comes_back_as_it_was_sent() {
        let mut h = TransmissionHistory::new(3);
        let sent = PacketRecord {
            send_time: 0.1 + 0.2,
            size: f64::from(u32::MAX),
            tag: u32::MAX,
        };
        h.on_send(9, sent);
        h.on_send(10, rec(1.0));
        assert_eq!(h.mark_received(9), Some(sent));
        assert_eq!(h.mark_received(10), Some(rec(1.0)));
    }

    #[test]
    #[should_panic(expected = "whole number of bytes, at least one: 999.5")]
    fn a_fractional_size_is_refused() {
        let record = PacketRecord {
            size: 999.5,
            ..rec(0.0)
        };
        TransmissionHistory::new(3).on_send(0, record);
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
        assert!(losses(&mut h).is_empty(), "only 2 packets past the hole");
        h.mark_received(5);
        assert_eq!(losses(&mut h), [2]);
        assert_eq!(h.outstanding(), 1); // seq 6 still in flight
    }

    #[test]
    fn cumulative_ack_clears_prefix() {
        let mut h = TransmissionHistory::new(3);
        for seq in 1..=10 {
            h.on_send(seq, rec(seq as f64));
        }
        let ack = AckInfo {
            ack_seq: 7,
            cum_seq: 7,
            highest: 7,
            mask: 0,
        };
        let mut seen = Vec::new();
        let trigger = h.resolve_ack(&ack, |seq, _| seen.push(seq));
        assert_eq!(trigger, Some(rec(7.0)));
        assert_eq!(seen, [7, 1, 2, 3, 4, 5, 6]);
        assert_eq!(h.outstanding(), 3);
        assert_eq!(h.base, 8, "the front of the window is the oldest live send");
    }

    #[test]
    fn ack_walk_visits_trigger_then_prefix_then_mask_bits_once_each() {
        let mut h = TransmissionHistory::new(3);
        for seq in 0..80 {
            h.on_send(seq, rec(seq as f64));
        }
        // Bit i names 70 - 1 - i: bits 0, 2, 9, 63 are 69, 67, 60, 6; 6
        // also lies under the prefix, 67 is the trigger. Bit 5 (64) was
        // resolved by an earlier ACK.
        h.mark_received(64);
        let ack = AckInfo {
            ack_seq: 67,
            cum_seq: 9,
            highest: 70,
            mask: 1 | 1 << 2 | 1 << 5 | 1 << 9 | 1 << 63,
        };
        let mut seen = Vec::new();
        let trigger = h.resolve_ack(&ack, |seq, record| {
            assert_eq!(record.send_time, seq as f64, "record of another packet");
            seen.push(seq);
        });
        assert_eq!(trigger.map(|r| r.send_time), Some(67.0));
        assert_eq!(seen, [67, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 69, 60]);
        assert_eq!(h.outstanding(), 80 - 1 - seen.len());
        // The same ACK again (a duplicate on the wire) resolves nothing.
        let again = h.resolve_ack(&ack, |seq, _| panic!("{seq} resolved twice"));
        assert_eq!(again, None);
        // Below 64 the mask's upper bits name no sequence: highest = 3
        // leaves bits 0..3 (sequences 2, 1, 0) valid.
        let mut h = TransmissionHistory::new(3);
        for seq in 0..5 {
            h.on_send(seq, rec(0.0));
        }
        let ack = AckInfo {
            ack_seq: 3,
            cum_seq: u64::MAX,
            highest: 3,
            mask: u64::MAX,
        };
        let mut seen = Vec::new();
        h.resolve_ack(&ack, |seq, _| seen.push(seq));
        assert_eq!(seen, [3, 2, 1, 0]);
        assert_eq!(h.outstanding(), 1);
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
            assert!(losses(&mut h).is_empty());
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
        let mut lost = Vec::new();
        h.flush_all_as_lost(|seq, record| lost.push((seq, record.send_time)));
        assert_eq!(lost, [(1, 1.0), (2, 2.0), (4, 4.0), (5, 5.0)]);
        assert_eq!(h.outstanding(), 0);
        h.flush_all_as_lost(|seq, _| panic!("{seq} reported twice"));
        // The emptied window restarts wherever the next send lands.
        h.on_send(6, rec(6.0));
        assert_eq!(h.outstanding(), 1);
        assert_eq!(h.mark_received(6), Some(rec(6.0)));
    }

    #[test]
    fn tags_preserved_through_loss() {
        let mut h = TransmissionHistory::new(1);
        for seq in 1..=3 {
            h.on_send(
                seq,
                PacketRecord {
                    send_time: 0.0,
                    size: 1.0,
                    tag: 40 + seq as u32,
                },
            );
        }
        h.mark_received(5);
        let mut lost = Vec::new();
        h.detect_losses(|seq, record| lost.push((seq, record.tag)));
        assert_eq!(lost, [(1, 41), (2, 42), (3, 43)]);
        assert!(losses(&mut h).is_empty(), "a loss is reported once");
    }

    /// The ACK walk before it cleared the mask bits below `base`: every
    /// seq the mask names goes through `mark_received`. Reference for
    /// [`TransmissionHistory::resolve_ack`].
    fn resolve_ack_full_mask(
        h: &mut TransmissionHistory,
        ack: &AckInfo,
        mut resolved: impl FnMut(u64, PacketRecord),
    ) -> Option<PacketRecord> {
        let trigger = h.mark_received(ack.ack_seq);
        if let Some(record) = trigger {
            resolved(ack.ack_seq, record);
        }
        if ack.cum_seq != u64::MAX {
            h.highest_received = h.highest_received.max(Some(ack.cum_seq));
            h.pop_through(ack.cum_seq, &mut resolved);
        }
        if let Some(top) = ack.highest.checked_sub(1) {
            let mut bits = ack.mask & (u64::MAX >> 63u64.saturating_sub(top));
            while bits != 0 {
                let seq = top - u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                if let Some(record) = h.mark_received(seq) {
                    resolved(seq, record);
                }
            }
        }
        trigger
    }

    /// Which edges of the walk one ACK exercises, counted over a run.
    #[derive(Debug, Default)]
    struct Edges {
        no_cum: u64,
        highest_zero: u64,
        top_below_base: u64,
        span_63_plus: u64,
        duplicate: u64,
        bits_cleared: u64,
    }

    /// Feed `ack` to both histories and require the same visits, trigger,
    /// outstanding count, `highest_received` and loss report.
    fn ack_both(
        fast: &mut TransmissionHistory,
        full: &mut TransmissionHistory,
        ack: &AckInfo,
        edges: &mut Edges,
    ) {
        if let Some(top) = ack.highest.checked_sub(1) {
            // Bits `0..=top - base` name seqs at or above `base`.
            let at_or_above_base = match top.checked_sub(fast.base) {
                None => 0,
                Some(span) if span < 63 => u64::MAX >> (63 - span),
                Some(_) => u64::MAX,
            };
            let named = ack.mask & (u64::MAX >> 63u64.saturating_sub(top));
            edges.top_below_base += u64::from(top < fast.base);
            edges.span_63_plus += u64::from(at_or_above_base == u64::MAX);
            edges.bits_cleared += u64::from(named & !at_or_above_base != 0);
        }
        edges.no_cum += u64::from(ack.cum_seq == u64::MAX);
        edges.highest_zero += u64::from(ack.highest == 0);
        let (mut seen_fast, mut seen_full) = (Vec::new(), Vec::new());
        let trigger_fast = fast.resolve_ack(ack, |seq, r| seen_fast.push((seq, r)));
        let trigger_full = resolve_ack_full_mask(full, ack, |seq, r| seen_full.push((seq, r)));
        assert_eq!(seen_fast, seen_full, "visits for {ack:?}");
        assert_eq!(trigger_fast, trigger_full, "trigger for {ack:?}");
        assert_eq!(
            fast.outstanding(),
            full.outstanding(),
            "outstanding after {ack:?}"
        );
        assert_eq!(
            fast.highest_received, full.highest_received,
            "highest after {ack:?}"
        );
        assert_eq!(losses(fast), losses(full), "losses after {ack:?}");
    }

    #[test]
    fn ack_walk_matches_the_full_mask_walk() {
        use crate::receiver::RapReceiverState;
        let mut edges = Edges::default();
        laqa_check::cases("ack walk = full mask walk", 300, |g, _| {
            let mut fast = TransmissionHistory::new(g.u64_in(1, 4));
            let mut full = fast.clone();
            let mut rx = RapReceiverState::new();
            // Sends on the wire, ACKs on the way back, data already ACKed.
            let (mut wire, mut acks, mut arrived) = (Vec::new(), Vec::new(), Vec::new());
            let mut next = if g.bool(0.5) { 0 } else { g.u64_in(1, 500) };
            let (data_loss, ack_loss) = (g.f64_range(0.0, 0.3), g.f64_range(0.0, 0.3));
            for _ in 0..g.usize_in(50, 400) {
                // Mostly small bursts, now and then more than the mask spans.
                let burst = if g.bool(0.05) {
                    g.usize_in(60, 150)
                } else {
                    g.usize_in(0, 3)
                };
                for _ in 0..burst {
                    let record = PacketRecord {
                        send_time: next as f64,
                        size: 100.0,
                        tag: next as u32,
                    };
                    fast.on_send(next, record);
                    full.on_send(next, record);
                    if !g.bool(data_loss) {
                        wire.push(next);
                    }
                    next += 1;
                }
                // Deliver one packet: the oldest, or any (reordering), or
                // one already delivered again (a duplicate).
                if !wire.is_empty() && g.bool(0.9) {
                    let i = if g.bool(0.7) {
                        0
                    } else {
                        g.usize_in(0, wire.len() - 1)
                    };
                    let seq = wire.remove(i);
                    arrived.push(seq);
                    acks.push(rx.on_data(seq));
                } else if !arrived.is_empty() {
                    edges.duplicate += 1;
                    acks.push(rx.on_data(*g.pick(&arrived)));
                }
                // Return one ACK, oldest first or out of order, or lose it.
                if !acks.is_empty() && g.bool(0.8) {
                    let i = if g.bool(0.7) {
                        0
                    } else {
                        g.usize_in(0, acks.len() - 1)
                    };
                    let ack = acks.remove(i);
                    if !g.bool(ack_loss) {
                        ack_both(&mut fast, &mut full, &ack, &mut edges);
                    }
                }
                // A forged ACK naming anything near the window.
                if g.bool(0.05) {
                    let near = |g: &mut laqa_check::Gen| next.saturating_sub(g.u64_in(0, 200));
                    let ack = AckInfo {
                        ack_seq: near(g),
                        cum_seq: if g.bool(0.5) { u64::MAX } else { near(g) },
                        highest: if g.bool(0.2) { 0 } else { near(g) },
                        mask: g.next_u64(),
                    };
                    ack_both(&mut fast, &mut full, &ack, &mut edges);
                }
                // An out-of-pattern send behind the window re-opens it
                // below `base`, where a stale `highest_received` shows.
                if g.bool(0.02) {
                    let seq = fast.base.saturating_sub(g.u64_in(1, 100));
                    fast.on_send(seq, rec(seq as f64));
                    full.on_send(seq, rec(seq as f64));
                }
                // A timeout empties both windows.
                if g.bool(0.01) {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    fast.flush_all_as_lost(|seq, r| a.push((seq, r)));
                    full.flush_all_as_lost(|seq, r| b.push((seq, r)));
                    assert_eq!(a, b);
                }
            }
        });
        // The run is only a test if it reached every edge of the walk.
        for (what, n) in [
            ("cum_seq == u64::MAX", edges.no_cum),
            ("highest == 0", edges.highest_zero),
            ("top < base", edges.top_below_base),
            ("top - base >= 63", edges.span_63_plus),
            ("a duplicate", edges.duplicate),
            ("bits below base", edges.bits_cleared),
        ] {
            assert!(n > 0, "no ACK with {what}: {edges:?}");
        }
    }
}
