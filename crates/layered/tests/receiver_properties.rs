//! Property-based tests for the layered media substrate.
//!
//! Randomization comes from `laqa_check` (a seeded in-repo harness) rather
//! than proptest, so the suite runs with zero registry access.

use laqa_check::{cases, DEFAULT_CASES};
use laqa_layered::{LayerBuffer, LayeredEncoding, LayeredReceiver};
use std::collections::VecDeque;

#[test]
fn buffer_conserves_bytes() {
    cases("buffer_conserves_bytes", DEFAULT_CASES, |g, _| {
        let n_ops = g.usize_in(1, 199);
        let ops: Vec<(f64, bool)> = (0..n_ops)
            .map(|_| (g.f64_range(0.0, 10_000.0), g.bool(0.5)))
            .collect();
        let mut b = LayerBuffer::new();
        let mut pushed = 0.0;
        let mut consumed = 0.0;
        for &(amount, is_push) in &ops {
            if is_push {
                b.push(amount);
                pushed += amount;
            } else {
                consumed += b.consume(amount);
            }
            assert!(b.buffered() >= -1e-9);
        }
        assert!(
            (pushed - consumed - b.buffered()).abs() < 1e-6,
            "pushed {pushed} consumed {consumed} left {}",
            b.buffered()
        );
    });
}

#[test]
fn consume_never_returns_more_than_requested() {
    cases(
        "consume_never_returns_more_than_requested",
        DEFAULT_CASES,
        |g, _| {
            let pushes = g.vec_f64(0.0, 5_000.0, 1, 49);
            let want = g.f64_range(0.0, 100_000.0);
            let mut b = LayerBuffer::new();
            for &p in &pushes {
                b.push(p);
            }
            let got = b.consume(want);
            assert!(got <= want + 1e-9);
            assert!(got <= pushes.iter().sum::<f64>() + 1e-9);
        },
    );
}

/// A FIFO of one entry per pushed chunk: the buffer as it was before equal
/// chunks shared a run, kept here as the reference the run-length buffer
/// must match bit for bit.
#[derive(Default)]
struct ChunkFifo {
    chunks: VecDeque<f64>,
    buffered: f64,
    starved: f64,
    underflow_events: u64,
    discarded: f64,
}

impl ChunkFifo {
    fn push(&mut self, bytes: f64) {
        if bytes > 0.0 {
            self.chunks.push_back(bytes);
            self.buffered += bytes;
        }
    }

    fn consume(&mut self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let mut remaining = bytes;
        while remaining > 0.0 {
            let Some(chunk) = self.chunks.front_mut() else {
                break;
            };
            if *chunk > remaining {
                *chunk -= remaining;
                self.buffered -= remaining;
                remaining = 0.0;
            } else {
                remaining -= *chunk;
                self.buffered -= *chunk;
                self.chunks.pop_front();
            }
        }
        if self.chunks.is_empty() || self.buffered < 0.0 {
            self.buffered = 0.0;
        }
        if remaining > 1e-9 {
            self.starved += remaining;
            self.underflow_events += 1;
        }
        bytes - remaining
    }

    fn clear(&mut self) -> f64 {
        let dropped = self.buffered.max(0.0);
        self.discarded += dropped;
        self.chunks.clear();
        self.buffered = 0.0;
        dropped
    }
}

#[test]
fn run_length_buffer_matches_a_per_chunk_fifo() {
    cases(
        "run_length_buffer_matches_a_per_chunk_fifo",
        DEFAULT_CASES,
        |g, _| {
            // A few sizes, repeated, so runs form, split and merge; some
            // awkward non-dyadic ones, and zero.
            let odd = g.f64_range(1.0, 2_000.0);
            let sizes: Vec<f64> = (0..g.usize_in(1, 4))
                .map(|_| *g.pick(&[0.0, 100.0, 250.0, 1_000.0 / 3.0, odd]))
                .collect();
            let mut b = LayerBuffer::new();
            let mut fifo = ChunkFifo::default();
            for op in 0..g.usize_in(1, 300) {
                let r = g.f64_unit();
                if r < 0.55 {
                    let bytes = *g.pick(&sizes);
                    b.push(bytes);
                    fifo.push(bytes);
                } else if r < 0.97 {
                    // Partial plays, exact drains and overdrafts.
                    let want = match g.usize_in(0, 2) {
                        0 => g.f64_range(0.0, 1.5) * fifo.buffered,
                        1 => fifo.buffered,
                        _ => g.f64_range(0.0, 700.0),
                    };
                    let (got, want_got) = (b.consume(want), fifo.consume(want));
                    assert_eq!(got.to_bits(), want_got.to_bits(), "consume at op {op}");
                } else {
                    assert_eq!(b.clear().to_bits(), fifo.clear().to_bits(), "op {op}");
                }
                let bits = |b: &LayerBuffer| {
                    [b.buffered(), b.starved_bytes(), b.discarded_bytes()].map(f64::to_bits)
                };
                let reference = [fifo.buffered, fifo.starved, fifo.discarded].map(f64::to_bits);
                assert_eq!(bits(&b), reference, "after op {op}");
                assert_eq!(b.underflow_events(), fifo.underflow_events, "op {op}");
            }
        },
    );
}

#[test]
fn receiver_position_advances_iff_playing() {
    cases(
        "receiver_position_advances_iff_playing",
        DEFAULT_CASES,
        |g, _| {
            let feeds = g.vec_f64(0.0, 2_000.0, 10, 99);
            let enc = LayeredEncoding::linear(3, 10_000.0).unwrap();
            let mut r = LayeredReceiver::new(enc, 2, 0.5);
            let mut t = 0.0;
            for &f in &feeds {
                r.on_data(t, 0, f);
                r.on_data(t, 1, f);
                let was_playing = r.playing();
                let pos_before = r.position();
                r.advance(0.1);
                if was_playing {
                    assert!((r.position() - pos_before - 0.1).abs() < 1e-9);
                } else if !r.playing() {
                    assert_eq!(r.position(), 0.0);
                }
                t += 0.1;
            }
        },
    );
}
