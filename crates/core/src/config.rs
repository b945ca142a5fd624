//! Configuration for the quality-adaptation controller.
//!
//! The paper's analysis (§2) assumes linearly spaced layers: every layer is
//! consumed at the same constant rate `C`. That assumption is captured by
//! [`QaConfig::layer_rate`]. Non-linear layer spacing is future work in the
//! paper (§7) and is not modelled.

use std::fmt;

/// Errors produced when validating a [`QaConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `layer_rate` must be a finite, strictly positive number of bytes/s.
    NonPositiveLayerRate,
    /// `max_layers` must be at least 1 (the base layer always exists).
    ZeroMaxLayers,
    /// `max_layers` must not exceed [`MAX_LAYERS`], the capacity of a
    /// [`TickReport`](crate::TickReport)'s inline per-layer rates.
    TooManyLayers,
    /// `k_max` (the smoothing factor) must be at least 1; `K_max = 1` is the
    /// un-smoothed single-backoff mechanism of §2.
    ZeroKMax,
    /// `k_max` must not exceed [`FILL_HORIZON_BACKOFFS`].
    KMaxAboveHorizon,
    /// `startup_buffer_secs` must be finite and non-negative.
    NegativeStartupBuffer,
    /// `underflow_slack_bytes` must be finite and non-negative.
    NegativeUnderflowSlack,
    /// `decrease_factor` must be finite and strictly inside `(0, 1)`.
    BadDecreaseFactor,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositiveLayerRate => {
                write!(f, "layer_rate must be finite and > 0 bytes/s")
            }
            ConfigError::ZeroMaxLayers => write!(f, "max_layers must be >= 1"),
            ConfigError::TooManyLayers => {
                write!(f, "max_layers must be <= {MAX_LAYERS} (MAX_LAYERS)")
            }
            ConfigError::ZeroKMax => write!(f, "k_max (smoothing factor) must be >= 1"),
            ConfigError::KMaxAboveHorizon => {
                write!(
                    f,
                    "k_max must be <= {FILL_HORIZON_BACKOFFS} (the fill horizon)"
                )
            }
            ConfigError::NegativeStartupBuffer => {
                write!(f, "startup_buffer_secs must be finite and >= 0")
            }
            ConfigError::NegativeUnderflowSlack => {
                write!(f, "underflow_slack_bytes must be finite and >= 0")
            }
            ConfigError::BadDecreaseFactor => {
                write!(f, "decrease_factor must be finite and in (0, 1)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// When every `k <= k_max` state is satisfied but the add conditions do
/// not hold (e.g. the 2.9-layer modem link of §3.1), filling continues
/// toward states with `k` up to this horizon so spare bandwidth is still
/// invested in protective buffering rather than discarded. It is also the
/// largest `k_max` a [`QaConfig`] may ask for.
pub const FILL_HORIZON_BACKOFFS: u32 = 16;

/// The most layers a [`QaConfig`] may ask for: a
/// [`TickReport`](crate::TickReport) carries its per-layer rates inline in
/// an array of this length, so a tick allocates nothing. Every encoding in
/// the paper and in this repository has at most 10 layers.
pub const MAX_LAYERS: usize = 32;

/// Parameters of the quality-adaptation mechanism.
///
/// Rates are in **bytes per second**, buffer amounts in **bytes**, times in
/// **seconds**, and the additive-increase slope `S` in **bytes per second
/// per second** — the units used throughout the paper's Appendix A once its
/// "one packet per RTT" increase is expressed as a rate slope.
#[derive(Debug, Clone, PartialEq)]
pub struct QaConfig {
    /// Per-layer consumption rate `C` (bytes/s). The paper's simulations use
    /// `C = 10 KB/s` (figure 11's consumption-rate gridlines).
    pub layer_rate: f64,
    /// Hard cap on the number of encoded layers available at the server.
    pub max_layers: usize,
    /// Smoothing factor `K_max` (§3.1): the number of backoffs the receiver
    /// buffer must be able to absorb, in both extremal scenarios, before a
    /// new layer may be added.
    pub k_max: u32,
    /// Slack (bytes) used when comparing a buffer level against a target, so
    /// floating-point dust does not flap add/drop decisions.
    pub epsilon_bytes: f64,
    /// Playout starts once the base layer has buffered this many seconds of
    /// data (the paper's target environment demands low startup latency,
    /// §1.1; a fraction of a second of base-layer data is enough to ride
    /// out packetization jitter).
    pub startup_buffer_secs: f64,
    /// How far (bytes) a layer's sender-side buffer estimate may go
    /// negative before it is declared a real underflow. The estimate is a
    /// fluid model of a packetized stream: a layer fed exactly at its
    /// consumption rate oscillates by up to a couple of packets around
    /// zero, which is jitter, not starvation. Typically 2–4 packet sizes.
    pub underflow_slack_bytes: f64,
    /// Multiplicative decrease factor of the underlying congestion
    /// controller: a backoff from rate `R` lands at `R · decrease_factor`.
    /// The paper assumes clean AIMD halvings (`0.5`, the default, which
    /// also keeps every pre-existing trajectory bit-identical); gentler
    /// controllers (BBR-style 0.85, NADA-style variable γ) thread their
    /// nominal factor here so the deficit-triangle geometry anticipates
    /// the backoffs they actually perform. Must lie strictly in `(0, 1)`.
    pub decrease_factor: f64,
}

impl Default for QaConfig {
    fn default() -> Self {
        // The paper's simulation setup: C = 10 KB/s per layer, K_max = 2,
        // and enough layers that the 800 Kb/s bottleneck is never the cap.
        QaConfig {
            layer_rate: 10_000.0,
            max_layers: 10,
            k_max: 2,
            epsilon_bytes: 1.0,
            startup_buffer_secs: 0.5,
            underflow_slack_bytes: 2_000.0,
            decrease_factor: 0.5,
        }
    }
}

impl QaConfig {
    /// Validate the configuration, returning it unchanged on success.
    pub fn validated(self) -> Result<Self, ConfigError> {
        if !(self.layer_rate.is_finite() && self.layer_rate > 0.0) {
            return Err(ConfigError::NonPositiveLayerRate);
        }
        if self.max_layers == 0 {
            return Err(ConfigError::ZeroMaxLayers);
        }
        if self.max_layers > MAX_LAYERS {
            return Err(ConfigError::TooManyLayers);
        }
        if self.k_max == 0 {
            return Err(ConfigError::ZeroKMax);
        }
        if self.k_max > FILL_HORIZON_BACKOFFS {
            return Err(ConfigError::KMaxAboveHorizon);
        }
        if !(self.startup_buffer_secs.is_finite() && self.startup_buffer_secs >= 0.0) {
            return Err(ConfigError::NegativeStartupBuffer);
        }
        if !(self.underflow_slack_bytes.is_finite() && self.underflow_slack_bytes >= 0.0) {
            return Err(ConfigError::NegativeUnderflowSlack);
        }
        if !(self.decrease_factor.is_finite()
            && self.decrease_factor > 0.0
            && self.decrease_factor < 1.0)
        {
            return Err(ConfigError::BadDecreaseFactor);
        }
        Ok(self)
    }

    /// Aggregate consumption rate `n_a * C` for `n_active` layers.
    pub fn consumption(&self, n_active: usize) -> f64 {
        n_active as f64 * self.layer_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        QaConfig::default()
            .validated()
            .expect("default must validate");
    }

    #[test]
    fn rejects_zero_layer_rate() {
        let cfg = QaConfig {
            layer_rate: 0.0,
            ..QaConfig::default()
        };
        assert_eq!(
            cfg.validated().unwrap_err(),
            ConfigError::NonPositiveLayerRate
        );
    }

    #[test]
    fn rejects_nan_layer_rate() {
        let cfg = QaConfig {
            layer_rate: f64::NAN,
            ..QaConfig::default()
        };
        assert_eq!(
            cfg.validated().unwrap_err(),
            ConfigError::NonPositiveLayerRate
        );
    }

    #[test]
    fn rejects_zero_k_max() {
        let cfg = QaConfig {
            k_max: 0,
            ..QaConfig::default()
        };
        assert_eq!(cfg.validated().unwrap_err(), ConfigError::ZeroKMax);
    }

    #[test]
    fn rejects_zero_max_layers() {
        let cfg = QaConfig {
            max_layers: 0,
            ..QaConfig::default()
        };
        assert_eq!(cfg.validated().unwrap_err(), ConfigError::ZeroMaxLayers);
    }

    #[test]
    fn rejects_more_layers_than_a_report_holds() {
        let with_layers = |max_layers| QaConfig {
            max_layers,
            ..QaConfig::default()
        };
        assert!(with_layers(MAX_LAYERS).validated().is_ok());
        assert_eq!(
            with_layers(MAX_LAYERS + 1).validated().unwrap_err(),
            ConfigError::TooManyLayers
        );
        // 256 layers would also wrap the simulator's `u8` layer tags.
        assert_eq!(
            with_layers(256).validated().unwrap_err(),
            ConfigError::TooManyLayers
        );
    }

    #[test]
    fn too_many_layers_message_names_the_bound() {
        let msg = ConfigError::TooManyLayers.to_string();
        assert!(msg.contains("max_layers"), "{msg}");
        assert!(msg.contains(&MAX_LAYERS.to_string()), "{msg}");
    }

    #[test]
    fn rejects_horizon_below_k_max() {
        let with_k_max = |k_max| QaConfig {
            k_max,
            ..QaConfig::default()
        };
        // The boundary is `FILL_HORIZON_BACKOFFS`; the benchmark's
        // `qa_fluid` workload runs at exactly 16.
        assert!(with_k_max(16).validated().is_ok());
        assert_eq!(
            with_k_max(17).validated().unwrap_err(),
            ConfigError::KMaxAboveHorizon
        );
    }

    #[test]
    fn rejects_decrease_factor_outside_unit_interval() {
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = QaConfig {
                decrease_factor: bad,
                ..QaConfig::default()
            };
            assert_eq!(
                cfg.validated().unwrap_err(),
                ConfigError::BadDecreaseFactor,
                "factor {bad} must be rejected"
            );
        }
        for ok in [0.1, 0.5, 0.7, 0.85, 0.99] {
            let cfg = QaConfig {
                decrease_factor: ok,
                ..QaConfig::default()
            };
            assert!(cfg.validated().is_ok(), "factor {ok} must validate");
        }
    }

    #[test]
    fn consumption_scales_linearly() {
        let cfg = QaConfig::default();
        assert_eq!(cfg.consumption(0), 0.0);
        assert_eq!(cfg.consumption(3), 3.0 * cfg.layer_rate);
    }
}
