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
//! (cross-checked by tests and property tests).

use crate::scenario::Scenario;

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
/// deficit `d0` (generalizes [`crate::geometry::band_allocation`]). Any
/// part of the triangle above the covered stack is folded into the base
/// layer so total protection is preserved.
pub fn nl_band_allocation(rates: &LayerRates, n: usize, d0: f64, slope: f64) -> Vec<f64> {
    let n = n.min(rates.len());
    let mut shares: Vec<f64> = (0..n).map(|i| nl_band_area(rates, i, d0, slope)).collect();
    if n > 0 && d0 > rates.consumption(n) {
        let covered: f64 = shares.iter().sum();
        let total = d0 * d0 / (2.0 * slope);
        let missing = total - covered;
        if missing > 0.0 {
            shares[0] += missing;
        }
    }
    shares
}

/// Instantaneous per-layer drain rates at deficit `d` (generalizes
/// [`crate::geometry::band_drain_rates`]).
pub fn nl_band_drain_rates(rates: &LayerRates, n: usize, d: f64) -> Vec<f64> {
    let n = n.min(rates.len());
    (0..n)
        .map(|i| (d - rates.height(i)).clamp(0.0, rates.rate(i)))
        .collect()
}

/// Smallest number of backoffs `k₁ ≥ 1` bringing `rate` strictly below the
/// consumption of the `n` lowest layers.
pub fn nl_min_backoffs_below(rates: &LayerRates, n: usize, rate: f64) -> u32 {
    let consumption = rates.consumption(n);
    debug_assert!(consumption > 0.0);
    let mut k = 1u32;
    let mut r = rate / 2.0;
    while r >= consumption && k < 64 {
        r /= 2.0;
        k += 1;
    }
    k
}

/// Total buffering to survive `k` backoffs in `scenario` with the `n`
/// lowest layers active (generalizes [`crate::scenario::buf_total`]).
pub fn nl_buf_total(
    rates: &LayerRates,
    n: usize,
    scenario: Scenario,
    k: u32,
    rate: f64,
    slope: f64,
) -> f64 {
    let consumption = rates.consumption(n);
    if consumption <= 0.0 || k == 0 {
        return 0.0;
    }
    let k1 = nl_min_backoffs_below(rates, n, rate);
    if k < k1 {
        return 0.0;
    }
    let tri = |d: f64| if d > 0.0 { d * d / (2.0 * slope) } else { 0.0 };
    match scenario {
        Scenario::One => tri(consumption - rate / 2f64.powi(k as i32)),
        Scenario::Two => {
            let first = tri(consumption - rate / 2f64.powi(k1 as i32));
            first + (k - k1) as f64 * tri(consumption / 2.0)
        }
    }
}

/// Per-layer optimal targets to survive `k` backoffs in `scenario`
/// (generalizes [`crate::scenario::per_layer`]). Sums to
/// [`nl_buf_total`].
pub fn nl_per_layer(
    rates: &LayerRates,
    n: usize,
    scenario: Scenario,
    k: u32,
    rate: f64,
    slope: f64,
) -> Vec<f64> {
    let n = n.min(rates.len());
    if n == 0 {
        return Vec::new();
    }
    let consumption = rates.consumption(n);
    if consumption <= 0.0 || k == 0 {
        return vec![0.0; n];
    }
    let k1 = nl_min_backoffs_below(rates, n, rate);
    if k < k1 {
        return vec![0.0; n];
    }
    match scenario {
        Scenario::One => {
            let d0 = (consumption - rate / 2f64.powi(k as i32)).max(0.0);
            nl_band_allocation(rates, n, d0, slope)
        }
        Scenario::Two => {
            let d_first = (consumption - rate / 2f64.powi(k1 as i32)).max(0.0);
            let mut shares = nl_band_allocation(rates, n, d_first, slope);
            if k > k1 {
                let rec = nl_band_allocation(rates, n, consumption / 2.0, slope);
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
    use crate::geometry::{band_allocation, band_drain_rates, deficit, triangle_area};
    use crate::scenario::{buf_total, min_backoffs_below, per_layer};

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
            let lin = band_allocation(d0, C, S, 5);
            for (a, b) in nl.iter().zip(lin.iter()) {
                assert!((a - b).abs() < 1e-6, "d0={d0}: {nl:?} vs {lin:?}");
            }
        }
    }

    #[test]
    fn reduces_to_linear_drain_rates() {
        let r = linear(4);
        for &d in &[0.0, 5_000.0, 23_000.0, 100_000.0] {
            let nl = nl_band_drain_rates(&r, 4, d);
            let lin = band_drain_rates(d, C, 4);
            assert_eq!(nl, lin, "d={d}");
        }
    }

    #[test]
    fn reduces_to_linear_scenarios() {
        let r = linear(3);
        for k in 1..=5u32 {
            for &scenario in &Scenario::ALL {
                let nl = nl_buf_total(&r, 3, scenario, k, 40_000.0, S);
                let lin = buf_total(scenario, k, 40_000.0, 3, C, S);
                assert!((nl - lin).abs() < 1e-6, "{scenario} k={k}");
                let nlp = nl_per_layer(&r, 3, scenario, k, 40_000.0, S);
                let linp = per_layer(scenario, k, 40_000.0, 3, C, S);
                for (a, b) in nlp.iter().zip(linp.iter()) {
                    assert!((a - b).abs() < 1e-6);
                }
            }
        }
        assert_eq!(
            nl_min_backoffs_below(&r, 3, 130_000.0),
            min_backoffs_below(130_000.0, 30_000.0)
        );
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
            let rates = nl_band_drain_rates(&r, 3, d);
            let sum: f64 = rates.iter().sum();
            assert!((sum - d.min(r.total())).abs() < 1e-9, "d={d}: {rates:?}");
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
        for &scenario in &Scenario::ALL {
            for k in 1..=6u32 {
                for n in 1..=5usize {
                    let shares = nl_per_layer(&r, n, scenario, k, 30_000.0, S);
                    let sum: f64 = shares.iter().sum();
                    let total = nl_buf_total(&r, n, scenario, k, 30_000.0, S);
                    assert!(
                        (sum - total).abs() < 1e-6 * total.max(1.0),
                        "{scenario} k={k} n={n}: {sum} vs {total}"
                    );
                }
            }
        }
    }
}
