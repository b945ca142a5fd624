//! Non-linear layer spacing — the paper's §7 future work ("quality
//! adaptation with a non-linear distribution of bandwidth among layers"),
//! worked out.
//!
//! The §2 analysis assumes every layer consumes the same rate `C`. Real
//! hierarchical codecs often space layers exponentially (each enhancement
//! doubling the rate). The deficit-triangle geometry generalizes cleanly:
//! stack the layers with the base at the bottom — layer `i` occupies the
//! bandwidth band `[H_i, H_i + c_i)` where `H_i = Σ_{j<i} c_j` — and serve
//! the top of the stack from the network, the bottom `d(t)` from buffers.
//! Layer `i` then drains at `clamp(d(t) − H_i, 0, c_i)` and its optimal
//! buffer share is the area of its (now unequal-height) band of the
//! triangle.
//!
//! Everything below reduces exactly to the linear-case functions of
//! [`crate::geometry`]/[`crate::scenario`] when all rates are equal
//! (cross-checked by tests and property tests). What does not depend on the
//! individual layer rates is not repeated here: `k₁`
//! ([`crate::scenario::min_backoffs_below`]) and the Scenario totals
//! ([`crate::scenario::buf_total`]) see the stack only through its aggregate
//! consumption [`LayerRates::consumption`].

use crate::geometry::{deficit, triangle_area};
use crate::scenario::{min_backoffs_below, Scenario};

/// A heterogeneous layer stack (bytes/s per layer, base first).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRates {
    rates: Vec<f64>,
    /// Cumulative heights: `heights[i] = Σ_{j<i} rates[j]`, plus the total
    /// as the final element.
    heights: Vec<f64>,
}

impl LayerRates {
    /// Build from per-layer rates; every rate must be finite and positive.
    pub fn new(rates: Vec<f64>) -> Option<Self> {
        if rates.is_empty() || rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
            return None;
        }
        let mut heights = Vec::with_capacity(rates.len() + 1);
        let mut acc = 0.0;
        for &r in &rates {
            heights.push(acc);
            acc += r;
        }
        heights.push(acc);
        Some(LayerRates { rates, heights })
    }

    /// Uniform stack (the paper's linear spacing).
    pub fn linear(n: usize, c: f64) -> Option<Self> {
        Self::new(vec![c; n])
    }

    /// Exponential stack: layer `i` consumes `base · factor^i`.
    pub fn exponential(n: usize, base: f64, factor: f64) -> Option<Self> {
        Self::new((0..n).map(|i| base * factor.powi(i as i32)).collect())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when there are no layers (cannot happen for a constructed
    /// value; kept for clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Per-layer rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Rate of layer `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.rates[i]
    }

    /// Height of the bottom of layer `i`'s band (`Σ_{j<i} c_j`).
    pub fn height(&self, i: usize) -> f64 {
        self.heights[i]
    }

    /// Aggregate consumption of the lowest `n` layers.
    pub fn consumption(&self, n: usize) -> f64 {
        self.heights[n.min(self.rates.len())]
    }

    /// Aggregate consumption of the full stack.
    pub fn total(&self) -> f64 {
        *self.heights.last().unwrap()
    }
}

/// Area of layer `i`'s band of a deficit triangle with initial deficit
/// `d0` and recovery slope `slope`:
/// `(1/S) · ∫₀^{d0} clamp(x − H_i, 0, c_i) dx`.
pub fn nl_band_area(rates: &LayerRates, i: usize, d0: f64, slope: f64) -> f64 {
    debug_assert!(slope > 0.0);
    if d0 <= 0.0 {
        return 0.0;
    }
    let lo = rates.height(i);
    let hi = lo + rates.rate(i);
    let c = rates.rate(i);
    if d0 <= lo {
        return 0.0;
    }
    let area_x = if d0 >= hi {
        // Full wedge c²/2 plus the rectangle above the band.
        c * c / 2.0 + (d0 - hi) * c
    } else {
        let h = d0 - lo;
        h * h / 2.0
    };
    area_x / slope
}

/// Optimal per-layer buffer shares for the `n` lowest layers against a
/// deficit `d0` (generalizes [`crate::geometry::band_allocation_into`]). Any
/// part of the triangle above the covered stack is folded into the base
/// layer so total protection is preserved.
pub fn nl_band_allocation(rates: &LayerRates, n: usize, d0: f64, slope: f64) -> Vec<f64> {
    let n = n.min(rates.len());
    let mut shares: Vec<f64> = (0..n).map(|i| nl_band_area(rates, i, d0, slope)).collect();
    if n > 0 && d0 > rates.consumption(n) {
        let covered: f64 = shares.iter().sum();
        let missing = triangle_area(d0, slope) - covered;
        if missing > 0.0 {
            shares[0] += missing;
        }
    }
    shares
}

/// Instantaneous drain rate of layer `i` at deficit `d`: the part of the
/// deficit inside the layer's band (generalizes
/// [`crate::geometry::band_drain_rate`]).
pub fn nl_band_drain_rate(rates: &LayerRates, i: usize, d: f64) -> f64 {
    (d - rates.height(i)).clamp(0.0, rates.rate(i))
}

/// Per-layer optimal targets to survive `k` backoffs in `scenario` with the
/// `n` lowest layers active and multiplicative decrease factor
/// `decrease_factor` (generalizes [`crate::scenario::per_layer`]). Sums to
/// [`crate::scenario::buf_total`] at the stack's consumption
/// `rates.consumption(n)`.
#[allow(clippy::too_many_arguments)]
pub fn nl_per_layer(
    rates: &LayerRates,
    n: usize,
    scenario: Scenario,
    k: u32,
    rate: f64,
    slope: f64,
    decrease_factor: f64,
) -> Vec<f64> {
    let n = n.min(rates.len());
    if n == 0 {
        return Vec::new();
    }
    let consumption = rates.consumption(n);
    if consumption <= 0.0 || k == 0 {
        return vec![0.0; n];
    }
    let k1 = min_backoffs_below(rate, consumption, decrease_factor);
    if k < k1 {
        return vec![0.0; n];
    }
    match scenario {
        Scenario::One => {
            let d0 = deficit(consumption, rate * decrease_factor.powi(k as i32));
            nl_band_allocation(rates, n, d0, slope)
        }
        Scenario::Two => {
            let d_first = deficit(consumption, rate * decrease_factor.powi(k1 as i32));
            let mut shares = nl_band_allocation(rates, n, d_first, slope);
            if k > k1 {
                let rec =
                    nl_band_allocation(rates, n, consumption * (1.0 - decrease_factor), slope);
                let mult = (k - k1) as f64;
                for (s, r) in shares.iter_mut().zip(rec) {
                    *s += mult * r;
                }
            }
            shares
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{band_allocation_into, band_drain_rate};
    use crate::scenario::{buf_total, per_layer};

    const C: f64 = 10_000.0;
    const S: f64 = 12_500.0;

    fn linear(n: usize) -> LayerRates {
        LayerRates::linear(n, C).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(LayerRates::new(vec![]).is_none());
        assert!(LayerRates::new(vec![1.0, -1.0]).is_none());
        assert!(LayerRates::new(vec![1.0, f64::NAN]).is_none());
        let r = LayerRates::exponential(3, 4_000.0, 2.0).unwrap();
        assert_eq!(r.rates(), &[4_000.0, 8_000.0, 16_000.0]);
        assert_eq!(r.total(), 28_000.0);
        assert_eq!(r.height(2), 12_000.0);
        assert!(!r.is_empty());
    }

    #[test]
    fn reduces_to_linear_band_allocation() {
        let r = linear(5);
        for &d0 in &[3_000.0, 10_000.0, 27_500.0, 48_000.0] {
            let nl = nl_band_allocation(&r, 5, d0, S);
            let mut lin = Vec::new();
            band_allocation_into(d0, C, S, 5, &mut lin);
            for (a, b) in nl.iter().zip(lin.iter()) {
                assert!((a - b).abs() < 1e-6, "d0={d0}: {nl:?} vs {lin:?}");
            }
        }
    }

    #[test]
    fn reduces_to_linear_drain_rates() {
        let r = linear(4);
        for &d in &[0.0, 5_000.0, 23_000.0, 100_000.0] {
            for i in 0..4 {
                assert_eq!(
                    nl_band_drain_rate(&r, i, d),
                    band_drain_rate(d, C, i),
                    "d={d}"
                );
            }
        }
    }

    #[test]
    fn reduces_to_linear_scenarios() {
        let r = linear(3);
        assert_eq!(r.consumption(3), 3.0 * C);
        for f in [0.5, 0.75, 0.85] {
            for k in 1..=5u32 {
                for &scenario in &Scenario::ALL {
                    let nlp = nl_per_layer(&r, 3, scenario, k, 40_000.0, S, f);
                    let linp = per_layer(scenario, k, 40_000.0, 3, C, S, f);
                    for (a, b) in nlp.iter().zip(linp.iter()) {
                        assert!((a - b).abs() < 1e-6, "f={f} {scenario} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn exponential_bands_tile_triangle() {
        let r = LayerRates::exponential(4, 2_000.0, 2.0).unwrap(); // 2,4,8,16 K
        let total = r.total(); // 30 KB/s
        for &d0 in &[1_500.0, 6_000.0, 14_000.0, total] {
            let shares = nl_band_allocation(&r, 4, d0, S);
            let sum: f64 = shares.iter().sum();
            let area = triangle_area(deficit(d0, 0.0), S);
            assert!((sum - area).abs() < 1e-6 * area.max(1.0), "d0={d0}");
        }
    }

    #[test]
    fn exponential_band_matches_numeric_integral() {
        let r = LayerRates::exponential(4, 2_000.0, 2.0).unwrap();
        let d0 = 11_000.0;
        let t_end = d0 / S;
        let steps = 100_000;
        let dt = t_end / steps as f64;
        for i in 0..4 {
            let mut acc = 0.0;
            for k in 0..steps {
                let t = (k as f64 + 0.5) * dt;
                let d = d0 - S * t;
                acc += (d - r.height(i)).clamp(0.0, r.rate(i)) * dt;
            }
            let closed = nl_band_area(&r, i, d0, S);
            assert!((acc - closed).abs() < 1.0, "layer {i}: {acc} vs {closed}");
        }
    }

    #[test]
    fn base_layer_protected_most_in_time_terms() {
        // With exponential spacing the *byte* shares are no longer
        // monotone, but the base layer still drains for the longest time:
        // its share divided by its rate (seconds of protection) dominates.
        let r = LayerRates::exponential(4, 2_000.0, 2.0).unwrap();
        let d0 = 20_000.0;
        let shares = nl_band_allocation(&r, 4, d0, S);
        let secs: Vec<f64> = shares.iter().zip(r.rates()).map(|(s, c)| s / c).collect();
        for w in secs.windows(2) {
            assert!(
                w[0] + 1e-9 >= w[1],
                "protection seconds must decrease: {secs:?}"
            );
        }
    }

    #[test]
    fn drain_rates_cover_deficit_up_to_stack() {
        let r = LayerRates::exponential(3, 3_000.0, 2.0).unwrap(); // 3,6,12 K
        for &d in &[2_000.0, 8_000.0, 25_000.0] {
            let sum: f64 = (0..3).map(|i| nl_band_drain_rate(&r, i, d)).sum();
            assert!((sum - d.min(r.total())).abs() < 1e-9, "d={d}: {sum}");
        }
    }

    #[test]
    fn excess_deficit_folds_into_base() {
        let r = LayerRates::exponential(2, 3_000.0, 2.0).unwrap(); // 3,6 K
        let d0 = 15_000.0; // above the 9 K stack
        let shares = nl_band_allocation(&r, 2, d0, S);
        let sum: f64 = shares.iter().sum();
        let area = d0 * d0 / (2.0 * S);
        assert!((sum - area).abs() < 1e-6 * area);
    }

    #[test]
    fn per_layer_sums_to_total_exponential() {
        let r = LayerRates::exponential(5, 1_500.0, 1.7).unwrap();
        for f in [0.5, 0.75, 0.85] {
            for &scenario in &Scenario::ALL {
                for k in 1..=6u32 {
                    for n in 1..=5usize {
                        let shares = nl_per_layer(&r, n, scenario, k, 30_000.0, S, f);
                        let sum: f64 = shares.iter().sum();
                        let total = buf_total(scenario, k, 30_000.0, r.consumption(n), S, f);
                        assert!(
                            (sum - total).abs() < 1e-6 * total.max(1.0),
                            "f={f} {scenario} k={k} n={n}: {sum} vs {total}"
                        );
                    }
                }
            }
        }
    }
}
