//! Property-based tests for the layered media substrate.
//!
//! Randomization comes from `laqa_check` (a seeded in-repo harness) rather
//! than proptest, so the suite runs with zero registry access.

use laqa_check::{cases, DEFAULT_CASES};
use laqa_layered::{LayerBuffer, LayeredEncoding, LayeredReceiver};

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
        for (i, &(amount, is_push)) in ops.iter().enumerate() {
            if is_push {
                b.push(i as f64, amount);
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
            for (i, &p) in pushes.iter().enumerate() {
                b.push(i as f64, p);
            }
            let got = b.consume(want);
            assert!(got <= want + 1e-9);
            assert!(got <= pushes.iter().sum::<f64>() + 1e-9);
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
