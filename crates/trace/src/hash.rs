//! Order-sensitive 64-bit fingerprinting of event traces.
//!
//! The campaign engine (laqa-sim) proves bit-reproducibility by hashing
//! each session's full event trace and asserting the digest is identical
//! no matter how many worker threads ran the sweep. FNV-1a is used
//! because it is trivially stable across platforms and Rust versions —
//! unlike `DefaultHasher`, whose algorithm is explicitly unspecified.
//! Floats are folded in via their IEEE-754 bit patterns, so "equal" means
//! bit-equal, not approximately equal.

/// Streaming FNV-1a 64-bit hasher for trace fingerprints.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl TraceHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        TraceHasher { state: FNV_OFFSET }
    }

    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold in a `u64` (little-endian).
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Fold in an `f64` via its exact bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// Fold in a string (length-prefixed so `("ab","c")` ≠ `("a","bc")`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Fold in a `(time, value)` sample sequence.
    pub fn samples(&mut self, points: impl ExactSizeIterator<Item = (f64, f64)>) -> &mut Self {
        self.u64(points.len() as u64);
        for (t, v) in points {
            self.f64(t).f64(v);
        }
        self
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64-bit of "hello" (cross-checked against an independent
        // implementation) — pins the exact algorithm and constants.
        let mut h = TraceHasher::new();
        h.bytes(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn order_matters() {
        let mut a = TraceHasher::new();
        a.u64(1).u64(2);
        let mut b = TraceHasher::new();
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn string_boundaries_matter() {
        let mut a = TraceHasher::new();
        a.str("ab").str("c");
        let mut b = TraceHasher::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_not_values() {
        let mut pos = TraceHasher::new();
        pos.f64(0.0);
        let mut neg = TraceHasher::new();
        neg.f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn samples_fingerprint_is_stable() {
        let pts = [(0.0, 1.0), (0.5, 2.0)];
        let mut a = TraceHasher::new();
        a.samples(pts.into_iter());
        let mut b = TraceHasher::new();
        b.samples(pts.into_iter());
        assert_eq!(a.finish(), b.finish());
    }
}
