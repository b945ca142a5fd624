//! Per-layer receiver buffer.
//!
//! The receiver holds arrived-but-not-yet-played data per layer (figure 2's
//! horizontal arrival→playout bars). The quality-adaptation analysis only
//! needs byte counts, but the buffer also tracks arrival metadata so the
//! experiments can reconstruct the paper's figure-2 playout diagram and
//! measure actual (not estimated) occupancy.

use std::collections::VecDeque;

/// One buffered chunk (usually one packet's payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedChunk {
    /// Arrival time at the receiver (seconds).
    pub arrival: f64,
    /// Bytes in the chunk.
    pub bytes: f64,
}

/// FIFO byte buffer for one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerBuffer {
    chunks: VecDeque<BufferedChunk>,
    buffered: f64,
    /// Cumulative bytes that were demanded but missing (underflow volume).
    starved: f64,
    /// Number of distinct consume calls that hit an empty/short buffer.
    underflow_events: u64,
    /// Cumulative bytes thrown away by [`LayerBuffer::clear`] — data that
    /// arrived but was written off when its layer was dropped. Without this
    /// the efficiency/starvation summaries under-report loss.
    discarded: f64,
}

impl LayerBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `bytes` that arrived at time `arrival`.
    pub fn push(&mut self, arrival: f64, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        self.chunks.push_back(BufferedChunk { arrival, bytes });
        self.buffered += bytes;
        self.debug_check_invariant();
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> f64 {
        self.buffered
    }

    /// Total bytes that could not be supplied on demand.
    pub fn starved_bytes(&self) -> f64 {
        self.starved
    }

    /// Number of consume calls that found insufficient data.
    pub fn underflow_events(&self) -> u64 {
        self.underflow_events
    }

    /// Cumulative bytes discarded by [`LayerBuffer::clear`].
    pub fn discarded_bytes(&self) -> f64 {
        self.discarded
    }

    /// Consume up to `bytes` from the head of the buffer; returns the bytes
    /// actually supplied. A short supply is recorded as an underflow.
    pub fn consume(&mut self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mut remaining = bytes;
        while remaining > 0.0 {
            match self.chunks.front_mut() {
                None => break,
                Some(chunk) => {
                    if chunk.bytes > remaining {
                        chunk.bytes -= remaining;
                        self.buffered -= remaining;
                        remaining = 0.0;
                    } else {
                        remaining -= chunk.bytes;
                        self.buffered -= chunk.bytes;
                        self.chunks.pop_front();
                    }
                }
            }
        }
        // `buffered` is maintained by repeated subtraction and can drift a
        // few ULPs from the chunk sum over long runs — clamp so it can
        // never go (or report) negative, and resynchronize exactly when
        // the buffer empties.
        if self.chunks.is_empty() || self.buffered < 0.0 {
            self.buffered = 0.0;
        }
        self.debug_check_invariant();
        if remaining > 1e-9 {
            self.starved += remaining;
            self.underflow_events += 1;
        }
        bytes - remaining
    }

    /// Discard everything (e.g. when the layer is dropped and its data is
    /// written off for recovery purposes). The thrown-away bytes are
    /// accounted in [`LayerBuffer::discarded_bytes`]; returns the amount
    /// discarded by this call.
    pub fn clear(&mut self) -> f64 {
        let dropped = self.buffered.max(0.0);
        self.discarded += dropped;
        self.chunks.clear();
        self.buffered = 0.0;
        dropped
    }

    /// Debug-build invariant: `buffered` tracks the chunk sum.
    #[inline]
    fn debug_check_invariant(&self) {
        #[cfg(debug_assertions)]
        {
            let sum: f64 = self.chunks.iter().map(|c| c.bytes).sum();
            debug_assert!(
                (self.buffered - sum).abs() <= 1e-6 * sum.max(1.0),
                "buffered {} drifted from chunk sum {}",
                self.buffered,
                sum
            );
            debug_assert!(self.buffered >= 0.0, "buffered went negative");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_consume_round_trip() {
        let mut b = LayerBuffer::new();
        b.push(0.0, 1_000.0);
        b.push(0.1, 500.0);
        assert_eq!(b.buffered(), 1_500.0);
        assert_eq!(b.consume(600.0), 600.0);
        assert_eq!(b.buffered(), 900.0);
        assert_eq!(b.underflow_events(), 0);
    }

    #[test]
    fn consume_across_chunk_boundaries() {
        let mut b = LayerBuffer::new();
        for i in 0..10 {
            b.push(i as f64, 100.0);
        }
        assert_eq!(b.consume(950.0), 950.0);
        assert!((b.buffered() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn underflow_recorded_once_per_call() {
        let mut b = LayerBuffer::new();
        b.push(0.0, 100.0);
        assert_eq!(b.consume(250.0), 100.0);
        assert_eq!(b.underflow_events(), 1);
        assert_eq!(b.starved_bytes(), 150.0);
        assert_eq!(b.buffered(), 0.0);
    }

    #[test]
    fn zero_and_negative_ops_are_noops() {
        let mut b = LayerBuffer::new();
        b.push(0.0, 0.0);
        b.push(0.0, -5.0);
        assert_eq!(b.buffered(), 0.0);
        assert_eq!(b.consume(0.0), 0.0);
        assert_eq!(b.consume(-1.0), 0.0);
        assert_eq!(b.underflow_events(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let mut b = LayerBuffer::new();
        b.push(0.0, 100.0);
        b.consume(200.0);
        b.push(1.0, 300.0);
        b.clear();
        assert_eq!(b.buffered(), 0.0);
        assert_eq!(b.underflow_events(), 1);
    }

    #[test]
    fn clear_accounts_discarded_bytes() {
        let mut b = LayerBuffer::new();
        b.push(0.0, 400.0);
        b.push(0.1, 100.0);
        b.consume(150.0);
        assert_eq!(b.clear(), 350.0);
        assert_eq!(b.discarded_bytes(), 350.0);
        // A second clear of an empty buffer discards nothing more.
        assert_eq!(b.clear(), 0.0);
        assert_eq!(b.discarded_bytes(), 350.0);
        // Discards accumulate across drop episodes.
        b.push(1.0, 25.0);
        b.clear();
        assert_eq!(b.discarded_bytes(), 375.0);
    }

    #[test]
    fn long_randomized_run_never_drifts_negative() {
        // Awkward non-dyadic sizes maximize float drift; after hundreds of
        // thousands of push/consume rounds the running total must still
        // match the chunk sum and never report negative.
        let mut b = LayerBuffer::new();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / (1u64 << 24) as f64
        };
        for i in 0..200_000 {
            let r = rand();
            if r < 0.5 {
                b.push(i as f64, 0.1 + 1_000.0 * rand() / 3.0);
            } else {
                // Often drain exactly to (or past) empty.
                let want = if r < 0.6 {
                    b.buffered() + 1.0
                } else {
                    b.buffered() * rand() / 7.0
                };
                b.consume(want);
            }
            assert!(b.buffered() >= 0.0, "buffered negative at op {i}");
        }
        b.consume(b.buffered() + 1.0);
        assert_eq!(b.buffered(), 0.0, "empty buffer must report exactly zero");
    }
}
