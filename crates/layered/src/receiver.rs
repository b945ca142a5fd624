//! The layered receiver: per-layer buffers plus a playout clock.
//!
//! The receiver is the ground truth the sender's `laqa-core` estimates
//! approximate: packets arrive into per-layer buffers, and once playout has
//! started every *active* layer is consumed at its encoding rate. Underflows
//! are recorded per layer; a base-layer underflow is a visible playback
//! stall, a top-layer underflow accompanies (or forces) a quality drop.

use crate::buffer::LayerBuffer;
use crate::encoding::LayeredEncoding;

/// A receiving endpoint for a layered stream.
#[derive(Debug, Clone)]
pub struct LayeredReceiver {
    encoding: LayeredEncoding,
    buffers: Vec<LayerBuffer>,
    /// Number of layers currently being decoded.
    active: usize,
    /// Seconds of base-layer content required before playout starts.
    startup_secs: f64,
    playing: bool,
    /// Media position in seconds.
    position: f64,
}

impl LayeredReceiver {
    /// Create a receiver for `encoding`, initially decoding `active` layers,
    /// starting playout once `startup_secs` of base-layer data is buffered.
    pub fn new(encoding: LayeredEncoding, active: usize, startup_secs: f64) -> Self {
        let n = encoding.n_layers();
        LayeredReceiver {
            buffers: (0..n).map(|_| LayerBuffer::new()).collect(),
            active: active.clamp(1, n),
            startup_secs: startup_secs.max(0.0),
            playing: false,
            position: 0.0,
            encoding,
        }
    }

    /// Change the decoded layer count (server adds/drops are signalled in
    /// the data stream; the receiver follows).
    pub fn set_active_layers(&mut self, n: usize) {
        self.active = n.clamp(1, self.encoding.n_layers());
    }

    /// Layers the encoding has.
    pub fn n_layers(&self) -> usize {
        self.buffers.len()
    }

    /// Whether playout has started.
    pub fn playing(&self) -> bool {
        self.playing
    }

    /// Media position (seconds consumed since playout start).
    pub fn position(&self) -> f64 {
        self.position
    }

    /// Bytes buffered for `layer`.
    pub fn buffered(&self, layer: usize) -> f64 {
        self.buffers[layer].buffered()
    }

    /// The buffer of `layer`: its underflow, starvation and discard
    /// counters.
    pub fn layer(&self, layer: usize) -> &LayerBuffer {
        &self.buffers[layer]
    }

    /// Deliver `bytes` of `layer` data arriving at time `_now` (the
    /// buffers keep byte counts, not arrival times).
    pub fn on_data(&mut self, _now: f64, layer: usize, bytes: f64) {
        if layer >= self.buffers.len() {
            return;
        }
        self.buffers[layer].push(bytes);
    }

    /// Advance wall-clock time by `dt` seconds: start playout when the
    /// startup condition is met, then consume every active layer at its
    /// rate. Returns the number of layers that underflowed during this step.
    pub fn advance(&mut self, dt: f64) -> usize {
        if dt <= 0.0 {
            return 0;
        }
        if !self.playing {
            let need = self.encoding.rate(0) * self.startup_secs;
            if self.buffers[0].buffered() >= need {
                self.playing = true;
            } else {
                return 0;
            }
        }
        let mut underflows = 0;
        for layer in 0..self.active {
            let want = self.encoding.rate(layer) * dt;
            let got = self.buffers[layer].consume(want);
            if got + 1e-9 < want {
                underflows += 1;
            }
        }
        self.position += dt;
        underflows
    }

    /// Total bytes written off across all layers by buffer discards.
    pub fn total_discarded(&self) -> f64 {
        self.buffers.iter().map(|b| b.discarded_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::LayeredEncoding;

    fn receiver(active: usize) -> LayeredReceiver {
        LayeredReceiver::new(LayeredEncoding::linear(4, 10_000.0).unwrap(), active, 0.5)
    }

    #[test]
    fn playout_waits_for_startup_buffer() {
        let mut r = receiver(1);
        r.on_data(0.0, 0, 4_000.0); // < 5000 needed
        assert_eq!(r.advance(0.1), 0);
        assert!(!r.playing());
        assert_eq!(r.position(), 0.0);
        r.on_data(0.1, 0, 2_000.0);
        r.advance(0.1);
        assert!(r.playing());
        assert!(r.position() > 0.0);
    }

    #[test]
    fn consumption_drains_active_layers_only() {
        let mut r = receiver(2);
        for l in 0..4 {
            r.on_data(0.0, l, 10_000.0);
        }
        r.advance(0.5);
        assert!((r.buffered(0) - 5_000.0).abs() < 1e-9);
        assert!((r.buffered(1) - 5_000.0).abs() < 1e-9);
        assert_eq!(r.buffered(2), 10_000.0);
        assert_eq!(r.buffered(3), 10_000.0);
    }

    #[test]
    fn underflow_counted_per_layer() {
        let mut r = receiver(3);
        r.on_data(0.0, 0, 20_000.0);
        r.on_data(0.0, 1, 1_000.0);
        // Layer 2 empty, layer 1 short: 1 s of playout needs 10 KB each.
        let u = r.advance(1.0);
        assert_eq!(u, 2);
        let underflows = (0..4).map(|l| r.layer(l).underflow_events());
        assert_eq!(underflows.collect::<Vec<_>>(), [0, 1, 1, 0]);
    }

    #[test]
    fn set_active_layers_clamped() {
        let mut r = receiver(2);
        r.set_active_layers(0);
        assert_eq!(r.active, 1);
        r.set_active_layers(99);
        assert_eq!(r.active, 4);
    }

    #[test]
    fn discarded_bytes_surface_in_stats() {
        let mut r = receiver(3);
        r.on_data(0.0, 1, 2_000.0);
        r.on_data(0.0, 2, 7_500.0);
        r.buffers[2].clear();
        r.buffers[1].clear();
        r.on_data(1.0, 2, 500.0);
        r.buffers[2].clear();
        let discarded = (0..4).map(|l| r.layer(l).discarded_bytes());
        assert_eq!(discarded.collect::<Vec<_>>(), [0.0, 2_000.0, 8_000.0, 0.0]);
        assert_eq!(r.total_discarded(), 10_000.0);
        // Discarded data is not starvation: no underflows were charged.
        assert!((0..4).all(|l| r.layer(l).underflow_events() == 0));
    }

    #[test]
    fn data_for_unknown_layer_ignored() {
        let mut r = receiver(1);
        let before = format!("{r:?}");
        r.on_data(0.0, 9, 1_000.0);
        assert!((0..4).all(|l| r.buffered(l) == 0.0));
        assert_eq!(format!("{r:?}"), before, "no state moved");
    }

    #[test]
    fn steady_state_no_underflow_when_fed_at_rate() {
        let mut r = receiver(2);
        r.on_data(0.0, 0, 6_000.0);
        r.on_data(0.0, 1, 6_000.0);
        let mut underflows = 0;
        for i in 0..100 {
            let t = i as f64 * 0.1;
            r.on_data(t, 0, 1_000.0);
            r.on_data(t, 1, 1_000.0);
            underflows += r.advance(0.1);
        }
        assert_eq!(underflows, 0);
        assert!((r.position() - 10.0).abs() < 1e-9);
    }
}
