//! Layered (hierarchical) encodings.
//!
//! A hierarchically encoded stream consists of a base layer and a stack of
//! enhancement layers; an enhancement layer is only decodable when every
//! layer below it is available (§1.3). The paper analyses and evaluates
//! *linearly spaced* layers only — every layer consumed at the same constant
//! rate `C` — and leaves non-linear spacing to future work (§7), so that is
//! the one encoding modelled here.

use std::fmt;

/// Errors constructing an encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodingError {
    /// An encoding needs at least a base layer.
    NoLayers,
    /// The layer rate must be finite and strictly positive.
    NonPositiveRate,
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::NoLayers => write!(f, "encoding must have at least one layer"),
            EncodingError::NonPositiveRate => write!(f, "the layer rate is not positive"),
        }
    }
}

impl std::error::Error for EncodingError {}

/// A hierarchical encoding: a base layer plus enhancement layers, every
/// layer consumed at the same constant rate `C` (the paper's model).
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredEncoding {
    n: usize,
    rate: f64,
}

impl LayeredEncoding {
    /// Linearly spaced encoding: `n` layers, each consuming `rate` bytes/s.
    pub fn linear(n: usize, rate: f64) -> Result<Self, EncodingError> {
        if n == 0 {
            return Err(EncodingError::NoLayers);
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(EncodingError::NonPositiveRate);
        }
        Ok(LayeredEncoding { n, rate })
    }

    /// Number of layers in the encoding.
    pub fn n_layers(&self) -> usize {
        self.n
    }

    /// Consumption rate of layer `layer`. Panics if `layer` is not below
    /// [`n_layers`](Self::n_layers).
    pub fn rate(&self, layer: usize) -> f64 {
        assert!(
            layer < self.n,
            "layer {layer} of a {}-layer encoding",
            self.n
        );
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_encoding_has_equal_rates() {
        let e = LayeredEncoding::linear(4, 10_000.0).unwrap();
        assert_eq!(e.n_layers(), 4);
        assert!((0..4).all(|i| e.rate(i) == 10_000.0));
    }

    #[test]
    #[should_panic(expected = "layer 4 of a 4-layer encoding")]
    fn rate_refuses_a_layer_past_the_top() {
        LayeredEncoding::linear(4, 10_000.0).unwrap().rate(4);
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
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                LayeredEncoding::linear(2, rate).unwrap_err(),
                EncodingError::NonPositiveRate
            );
        }
    }
}
