//! Layered (hierarchical) encodings.
//!
//! A hierarchically encoded stream consists of a base layer and a stack of
//! enhancement layers; an enhancement layer is only decodable when every
//! layer below it is available (§1.3). The paper's analysis assumes
//! *linearly spaced* layers — every layer consumed at the same constant rate
//! `C` — and notes that non-linear spacing is future work (§7). Both are
//! modelled here; the quality-adaptation controller's closed forms apply to
//! the linear case, while the simulator and receiver handle either.

use std::fmt;

/// Errors constructing an encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodingError {
    /// An encoding needs at least a base layer.
    NoLayers,
    /// Every layer rate must be finite and strictly positive.
    NonPositiveRate {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::NoLayers => write!(f, "encoding must have at least one layer"),
            EncodingError::NonPositiveRate { layer } => {
                write!(f, "layer {layer} has a non-positive consumption rate")
            }
        }
    }
}

impl std::error::Error for EncodingError {}

/// One layer of a hierarchical encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Constant consumption rate of this layer (bytes/s).
    pub rate: f64,
}

/// A hierarchical encoding: base layer plus enhancement layers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredEncoding {
    layers: Vec<LayerSpec>,
}

impl LayeredEncoding {
    /// Build an encoding from explicit layer specs.
    pub fn new(layers: Vec<LayerSpec>) -> Result<Self, EncodingError> {
        if layers.is_empty() {
            return Err(EncodingError::NoLayers);
        }
        for (i, l) in layers.iter().enumerate() {
            if !(l.rate.is_finite() && l.rate > 0.0) {
                return Err(EncodingError::NonPositiveRate { layer: i });
            }
        }
        Ok(LayeredEncoding { layers })
    }

    /// Linearly spaced encoding: `n` layers, each consuming `rate` bytes/s —
    /// the paper's model.
    pub fn linear(n: usize, rate: f64) -> Result<Self, EncodingError> {
        Self::new(vec![LayerSpec { rate }; n])
    }

    /// Exponentially spaced encoding: layer `i` consumes `base * factor^i`
    /// bytes/s (the "non-linear distribution of bandwidth among layers" the
    /// paper lists as future work; receiver-driven multicast schemes
    /// typically use `factor = 2`).
    pub fn exponential(n: usize, base: f64, factor: f64) -> Result<Self, EncodingError> {
        let layers = (0..n)
            .map(|i| LayerSpec {
                rate: base * factor.powi(i as i32),
            })
            .collect();
        Self::new(layers)
    }

    /// Number of layers in the encoding.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer specs.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Consumption rate of layer `i`.
    pub fn rate(&self, layer: usize) -> f64 {
        self.layers[layer].rate
    }

    /// Aggregate consumption rate of the lowest `n` layers.
    pub fn cumulative_rate(&self, n: usize) -> f64 {
        self.layers.iter().take(n).map(|l| l.rate).sum()
    }

    /// The largest number of layers whose cumulative rate fits within
    /// `bandwidth` bytes/s.
    pub fn layers_within(&self, bandwidth: f64) -> usize {
        let mut acc = 0.0;
        let mut n = 0;
        for l in &self.layers {
            if acc + l.rate > bandwidth {
                break;
            }
            acc += l.rate;
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_encoding_has_equal_rates() {
        let e = LayeredEncoding::linear(4, 10_000.0).unwrap();
        assert_eq!(e.n_layers(), 4);
        assert_eq!(e.cumulative_rate(4), 40_000.0);
        assert_eq!(e.cumulative_rate(2), 20_000.0);
    }

    #[test]
    fn exponential_encoding_doubles() {
        let e = LayeredEncoding::exponential(3, 8_000.0, 2.0).unwrap();
        assert_eq!(e.rate(0), 8_000.0);
        assert_eq!(e.rate(1), 16_000.0);
        assert_eq!(e.rate(2), 32_000.0);
        assert_eq!(e.cumulative_rate(3), 56_000.0);
    }

    #[test]
    fn rejects_empty_encoding() {
        assert_eq!(
            LayeredEncoding::linear(0, 10_000.0).unwrap_err(),
            EncodingError::NoLayers
        );
    }

    #[test]
    fn rejects_non_positive_rate() {
        let err = LayeredEncoding::new(vec![LayerSpec { rate: 10.0 }, LayerSpec { rate: 0.0 }])
            .unwrap_err();
        assert_eq!(err, EncodingError::NonPositiveRate { layer: 1 });
    }

    #[test]
    fn layers_within_bandwidth() {
        let e = LayeredEncoding::linear(5, 10_000.0).unwrap();
        assert_eq!(e.layers_within(0.0), 0);
        assert_eq!(e.layers_within(9_999.0), 0);
        assert_eq!(e.layers_within(10_000.0), 1);
        assert_eq!(e.layers_within(29_000.0), 2);
        assert_eq!(e.layers_within(1e9), 5);
    }
}
