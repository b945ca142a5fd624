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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Fold in a [`Section`]: its item count, then its digest.
    pub fn section(&mut self, section: &Section) -> &mut Self {
        self.u64(section.count).u64(section.digest())
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

/// One streamed part of a digest: how many items were folded into it and
/// their own FNV-1a digest, fed one item at a time as a run produces
/// them, so a section stores nothing however long its stream grows.
///
/// FNV-1a can be neither resumed nor concatenated, so a digest that
/// folds a stream's length *before* its items needs every item kept
/// until the stream ends. A section counts as it goes instead, and the
/// enclosing digest folds the pair afterwards ([`TraceHasher::section`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Section {
    count: u64,
    items: TraceHasher,
}

impl Section {
    /// Count one more item and hand back the hasher its fields fold into.
    pub fn item(&mut self) -> &mut TraceHasher {
        self.count += 1;
        &mut self.items
    }

    /// Fold one `(time, value)` sample as an item.
    pub fn sample(&mut self, t: f64, v: f64) {
        self.item().f64(t).f64(v);
    }

    /// Items folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Digest of the items folded so far.
    pub fn digest(&self) -> u64 {
        self.items.finish()
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
    fn a_section_folds_its_count_after_its_items() {
        let mut s = Section::default();
        s.sample(0.0, 1.0);
        s.sample(0.5, 2.0);
        assert_eq!(s.count(), 2);
        let mut items = TraceHasher::new();
        items.f64(0.0).f64(1.0).f64(0.5).f64(2.0);
        assert_eq!(s.digest(), items.finish());
        let mut folded = TraceHasher::new();
        folded.section(&s);
        let mut want = TraceHasher::new();
        want.u64(2).u64(items.finish());
        assert_eq!(folded, want);
        // An empty section still folds its zero count.
        let mut empty = TraceHasher::new();
        empty.section(&Section::default());
        assert_ne!(empty, TraceHasher::new());
    }
}
