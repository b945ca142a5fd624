//! Simulation time: integer nanoseconds for determinism.
//!
//! All event ordering uses `u64` nanoseconds (with a tie-breaking sequence
//! number), so runs are bit-for-bit reproducible; agent-facing APIs convert
//! to `f64` seconds at the boundary.
//!
//! Seconds round to the nearest nanosecond, half away from zero (the rule
//! of `f64::round`), by a truncation and a compare: no libm call.

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Convert seconds to simulation nanoseconds (saturating, rounding half
/// away from zero; non-finite or non-positive seconds are 0).
pub fn secs_to_ns(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    round_ns(secs * NANOS_PER_SEC as f64)
}

/// `ns.round() as u64` for positive `ns`, saturating. Below 2^52 the
/// truncation and `ns - t` are exact; from 2^52 up `ns` is whole.
#[inline]
fn round_ns(ns: f64) -> u64 {
    if ns >= u64::MAX as f64 {
        return u64::MAX;
    }
    let t = ns as u64;
    t + u64::from(ns - t as f64 >= 0.5)
}

/// Convert simulation nanoseconds to seconds.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / NANOS_PER_SEC as f64
}

/// Transmission (serialization) time of `bytes` at `bytes_per_sec`, in ns.
pub fn tx_time_ns(bytes: u32, bytes_per_sec: f64) -> u64 {
    if bytes_per_sec <= 0.0 {
        return u64::MAX;
    }
    secs_to_ns(bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for &s in &[0.0, 1e-9, 0.001, 1.0, 3600.0] {
            let ns = secs_to_ns(s);
            assert!((ns_to_secs(ns) - s).abs() < 1e-9, "s={s}");
        }
    }

    #[test]
    fn garbage_seconds_clamp_to_zero() {
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(f64::NAN), 0);
    }

    #[test]
    fn huge_seconds_saturate() {
        assert_eq!(secs_to_ns(1e30), u64::MAX);
    }

    /// `secs_to_ns` as it was written with libm's `round`.
    fn secs_to_ns_libm(secs: f64) -> u64 {
        if !secs.is_finite() || secs <= 0.0 {
            return 0;
        }
        let ns = secs * NANOS_PER_SEC as f64;
        if ns >= u64::MAX as f64 {
            u64::MAX
        } else {
            ns.round() as u64
        }
    }

    #[test]
    fn rounding_matches_libm_round_on_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            two(52) - 1.5,
            two(52) - 0.5,
            two(52) - 1.0,
            two(52),
            two(52) + 1.0,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64) - 2048.0,
            two(64),
            f64::MAX,
        ];
        for x in edges.clone() {
            edges.extend([x.next_down(), x.next_up()]);
        }
        for ns in edges {
            let libm = if ns >= u64::MAX as f64 {
                u64::MAX
            } else {
                ns.round() as u64
            };
            assert_eq!(round_ns(ns), libm, "ns = {ns:e}");
        }
        assert_eq!(round_ns(0.5), 1, "half away from zero");
        assert_eq!(round_ns(2.5), 3, "not half to even");
        assert_eq!(round_ns(0.49999999999999994), 0);
        assert_eq!(round_ns(two(64) - 2048.0), u64::MAX - 2047);
        assert_eq!(secs_to_ns(two(64) / 1e9), u64::MAX, "saturates");
        assert_eq!(secs_to_ns(f64::MAX), u64::MAX);
    }

    #[test]
    fn rounding_matches_libm_round_on_a_sweep() {
        // Log-uniform over 1 ps .. 1e10 s, plus seconds near half a nanosecond.
        let mut rng = crate::rng::SimRng::seed_from_u64(42);
        for i in 0..1_000_000u64 {
            let secs = 10f64.powf(-12.0 + 22.0 * rng.next_f64());
            assert_eq!(secs_to_ns(secs), secs_to_ns_libm(secs), "secs = {secs:e}");
            let half = (i as f64 + 0.5) / 1e9;
            assert_eq!(secs_to_ns(half), secs_to_ns_libm(half), "secs = {half:e}");
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        // 1000 bytes at 100 KB/s → 10 ms.
        assert_eq!(tx_time_ns(1_000, 100_000.0), 10_000_000);
        assert_eq!(tx_time_ns(1_000, 0.0), u64::MAX);
    }
}
