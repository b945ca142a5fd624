//! Per-layer receiver buffer.
//!
//! The receiver holds arrived-but-not-yet-played data per layer (figure 2's
//! horizontal arrival→playout bars). Playout and the quality-adaptation
//! analysis read byte counts only, so the buffer keeps no arrival times:
//! its FIFO holds runs of equal-size chunks, and a stream of equal-size
//! packets is one run however many are buffered.

use std::collections::VecDeque;

/// `count` consecutive chunks of `bytes` each.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    bytes: f64,
    count: u64,
}

/// FIFO byte buffer for one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerBuffer {
    /// The buffered chunks in arrival order, equal neighbours merged.
    runs: VecDeque<Run>,
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

    /// Add a chunk of `bytes` at the tail.
    pub fn push(&mut self, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        match self.runs.back_mut() {
            Some(run) if run.bytes.to_bits() == bytes.to_bits() => run.count += 1,
            _ => self.runs.push_back(Run { bytes, count: 1 }),
        }
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
    ///
    /// Chunk by chunk, in order: a whole chunk leaves with one subtraction
    /// from `remaining` and from `buffered`, a partly played one is cut
    /// once, so every float result is the one a per-chunk FIFO computes.
    pub fn consume(&mut self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mut remaining = bytes;
        while remaining > 0.0 {
            let Some(run) = self.runs.front_mut() else {
                break;
            };
            if run.bytes > remaining {
                let rest = run.bytes - remaining;
                self.buffered -= remaining;
                remaining = 0.0;
                if run.count == 1 {
                    run.bytes = rest;
                } else {
                    run.count -= 1;
                    self.runs.push_front(Run {
                        bytes: rest,
                        count: 1,
                    });
                }
            } else {
                remaining -= run.bytes;
                self.buffered -= run.bytes;
                run.count -= 1;
                if run.count == 0 {
                    self.runs.pop_front();
                }
            }
        }
        // `buffered` is maintained by repeated subtraction and can drift a
        // few ULPs from the chunk sum over long runs — clamp so it can
        // never go (or report) negative, and resynchronize exactly when
        // the buffer empties.
        if self.runs.is_empty() || self.buffered < 0.0 {
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
        self.runs.clear();
        self.buffered = 0.0;
        dropped
    }

    /// Debug-build invariant: `buffered` tracks the chunk sum.
    #[inline]
    fn debug_check_invariant(&self) {
        #[cfg(debug_assertions)]
        {
            let sum: f64 = self.runs.iter().map(|r| r.bytes * r.count as f64).sum();
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
        b.push(1_000.0);
        b.push(500.0);
        assert_eq!(b.buffered(), 1_500.0);
        assert_eq!(b.consume(600.0), 600.0);
        assert_eq!(b.buffered(), 900.0);
        assert_eq!(b.underflow_events(), 0);
    }

    #[test]
    fn consume_across_chunk_boundaries() {
        let mut b = LayerBuffer::new();
        for _ in 0..10 {
            b.push(100.0);
        }
        assert_eq!(b.consume(950.0), 950.0);
        assert!((b.buffered() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn equal_chunks_share_a_run() {
        let mut b = LayerBuffer::new();
        for _ in 0..1_000 {
            b.push(250.0);
        }
        assert_eq!(b.runs.len(), 1);
        // Cutting into the head chunk splits it off; the rest stay one run.
        assert_eq!(b.consume(100.0), 100.0);
        let runs: Vec<(f64, u64)> = b.runs.iter().map(|r| (r.bytes, r.count)).collect();
        assert_eq!(runs, [(150.0, 1), (250.0, 999)]);
        b.push(100.0);
        b.push(250.0);
        assert_eq!(b.runs.len(), 4);
        assert_eq!(b.consume(150.0 + 250.0 * 999.0), 150.0 + 250.0 * 999.0);
        let runs: Vec<(f64, u64)> = b.runs.iter().map(|r| (r.bytes, r.count)).collect();
        assert_eq!(runs, [(100.0, 1), (250.0, 1)]);
        assert_eq!(b.buffered(), 350.0);
    }

    #[test]
    fn underflow_recorded_once_per_call() {
        let mut b = LayerBuffer::new();
        b.push(100.0);
        assert_eq!(b.consume(250.0), 100.0);
        assert_eq!(b.underflow_events(), 1);
        assert_eq!(b.starved_bytes(), 150.0);
        assert_eq!(b.buffered(), 0.0);
    }

    #[test]
    fn zero_and_negative_ops_are_noops() {
        let mut b = LayerBuffer::new();
        b.push(0.0);
        b.push(-5.0);
        assert_eq!(b.buffered(), 0.0);
        assert_eq!(b.consume(0.0), 0.0);
        assert_eq!(b.consume(-1.0), 0.0);
        assert_eq!(b.underflow_events(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let mut b = LayerBuffer::new();
        b.push(100.0);
        b.consume(200.0);
        b.push(300.0);
        b.clear();
        assert_eq!(b.buffered(), 0.0);
        assert_eq!(b.underflow_events(), 1);
    }

    #[test]
    fn clear_accounts_discarded_bytes() {
        let mut b = LayerBuffer::new();
        b.push(400.0);
        b.push(100.0);
        b.consume(150.0);
        assert_eq!(b.clear(), 350.0);
        assert_eq!(b.discarded_bytes(), 350.0);
        // A second clear of an empty buffer discards nothing more.
        assert_eq!(b.clear(), 0.0);
        assert_eq!(b.discarded_bytes(), 350.0);
        // Discards accumulate across drop episodes.
        b.push(25.0);
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
                b.push(0.1 + 1_000.0 * rand() / 3.0);
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
