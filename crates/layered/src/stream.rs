//! Synthetic layered stream content.
//!
//! The paper streams stored, pre-encoded video; the adaptation mechanism
//! never looks inside the frames, only at per-layer byte positions and their
//! inter-layer timing. This module models exactly that: each layer is a
//! byte stream consumed at its constant rate, packetized into fixed-size
//! packets whose *playout deadline* follows from their byte offset. Packet
//! payloads are generated deterministically so an end-to-end transfer can
//! verify integrity without shipping real video.

use crate::encoding::LayeredEncoding;

/// Identifies one packet of one layer within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    /// Layer index (0 = base).
    pub layer: u8,
    /// Zero-based packet sequence number within the layer.
    pub seq: u64,
}

/// A stored layered stream: an encoding, a duration, and a packetization.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredStream {
    encoding: LayeredEncoding,
    /// Stream duration (seconds).
    duration: f64,
    /// Payload bytes per packet.
    packet_size: usize,
}

impl LayeredStream {
    /// Create a stream of `duration` seconds packetized into
    /// `packet_size`-byte packets.
    pub fn new(encoding: LayeredEncoding, duration: f64, packet_size: usize) -> Self {
        assert!(duration > 0.0, "duration must be positive");
        assert!(packet_size > 0, "packet size must be positive");
        LayeredStream {
            encoding,
            duration,
            packet_size,
        }
    }

    /// The encoding backing the stream.
    pub fn encoding(&self) -> &LayeredEncoding {
        &self.encoding
    }

    /// Stream duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Packet payload size in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Playout deadline of a packet: the media time (seconds from stream
    /// start) at which its first byte is consumed.
    pub fn deadline(&self, id: PacketId) -> f64 {
        let offset = id.seq as f64 * self.packet_size as f64;
        offset / self.encoding.rate(id.layer as usize)
    }

    /// Deterministic payload for a packet: a cheap keyed pattern that lets
    /// the receiving side verify integrity. Returns `len` bytes.
    pub fn payload(&self, id: PacketId, len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64
            ^ (id.seq.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            ^ ((id.layer as u64) << 56);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            // xorshift64* — deterministic, fast, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Verify that `data` matches the deterministic payload for `id`.
    pub fn verify_payload(&self, id: PacketId, data: &[u8]) -> bool {
        self.payload(id, data.len()) == data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::LayeredEncoding;

    fn stream() -> LayeredStream {
        LayeredStream::new(LayeredEncoding::linear(3, 10_000.0).unwrap(), 60.0, 1_000)
    }

    #[test]
    fn deadline_is_offset_over_rate() {
        let s = stream();
        assert_eq!(s.deadline(PacketId { layer: 0, seq: 0 }), 0.0);
        // Packet 100: offset 100_000 B at 10 KB/s → 10 s.
        assert!((s.deadline(PacketId { layer: 0, seq: 100 }) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn payload_deterministic_and_distinct() {
        let s = stream();
        let a = s.payload(PacketId { layer: 0, seq: 7 }, 64);
        let b = s.payload(PacketId { layer: 0, seq: 7 }, 64);
        let c = s.payload(PacketId { layer: 0, seq: 8 }, 64);
        let d = s.payload(PacketId { layer: 1, seq: 7 }, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn verify_payload_round_trips() {
        let s = stream();
        let id = PacketId { layer: 2, seq: 123 };
        let p = s.payload(id, 1_000);
        assert!(s.verify_payload(id, &p));
        let mut bad = p.clone();
        bad[500] ^= 0xFF;
        assert!(!s.verify_payload(id, &bad));
    }

    #[test]
    fn payload_handles_odd_lengths() {
        let s = stream();
        for len in [0usize, 1, 7, 8, 9, 1500] {
            assert_eq!(s.payload(PacketId { layer: 0, seq: 1 }, len).len(), len);
        }
    }
}
