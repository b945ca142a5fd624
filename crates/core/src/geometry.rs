//! Deficit-triangle geometry of the AIMD sawtooth (paper §2, Appendix A).
//!
//! # The draining triangle
//!
//! An AIMD congestion-controlled flow transmits at rate `R`; when a packet
//! loss is detected the rate is halved and then recovers linearly with slope
//! `S` (bytes/s²). While the transmission rate is below the aggregate
//! consumption rate `n_a·C` of the active layers, the difference — the
//! *deficit* — must be supplied from the receiver's buffers (figure 3).
//!
//! With `d₀ = n_a·C − R/2` the deficit at the instant of the backoff, the
//! deficit shrinks linearly, `d(t) = d₀ − S·t`, and reaches zero after
//! `T = d₀/S` seconds. The total buffer needed to survive the backoff is the
//! area of the triangle (paper equation (1) / Appendix A.1):
//!
//! ```text
//! Buf_req = d₀² / (2·S)
//! ```
//!
//! # Optimal per-layer bands (§2.4, figure 4)
//!
//! At time `t` into the draining phase the network supplies `r(t) = R/2 +
//! S·t` bytes/s. Maximal efficiency allocates the network supply to the
//! *highest* layers (which should hold the least buffer) and serves the
//! *lowest* layers from buffer. Stacking the layers with the base layer at
//! the bottom — layer `i` occupying the bandwidth band `[i·C, (i+1)·C)` —
//! the buffers must cover the bottom `d(t)` of the stack. Layer `i`
//! therefore drains at rate `clamp(d(t) − i·C, 0, C)` and its total drain is
//! the area of the horizontal band of the triangle between heights `i·C`
//! and `(i+1)·C`:
//!
//! * full band (`(i+1)·C ≤ d₀`):  `Buf_i = C·(d₀ − (i+1)·C)/S + C²/(2S)`
//! * top partial band (`i·C < d₀ < (i+1)·C`): `Buf_i = (d₀ − i·C)²/(2S)`
//! * above the triangle (`i·C ≥ d₀`): `Buf_i = 0`
//!
//! The number of layers with a non-zero band is `n_b = ceil(d₀/C)` (§2.4's
//! "minimum number of buffering layers"). The bands sum exactly to the
//! triangle area; this invariant is enforced by tests and property tests.
//!
//! The same band construction on the *one-backoff-larger* deficit gives the
//! §2.1 adding condition, and on a `k`-backoff deficit gives the Scenario 1
//! allocations of §4 (see [`crate::scenario`]).

/// Instantaneous deficit `max(0, consumption − rate)` in bytes/s.
///
/// `consumption` is the aggregate consumption rate `n_a·C` of the active
/// layers and `rate` the current transmission rate.
pub fn deficit(consumption: f64, rate: f64) -> f64 {
    (consumption - rate).max(0.0)
}

/// Area of the draining triangle: buffer (bytes) needed to bridge a deficit
/// of `deficit_rate` bytes/s that shrinks linearly with slope `slope`
/// (bytes/s²). Returns 0 when there is no deficit.
///
/// This is the paper's equation (1): `A = L_ce² / (2S)`.
pub fn triangle_area(deficit_rate: f64, slope: f64) -> f64 {
    debug_assert!(slope > 0.0, "slope must be positive, got {slope}");
    if deficit_rate <= 0.0 {
        return 0.0;
    }
    deficit_rate * deficit_rate / (2.0 * slope)
}

/// Buffer required to survive a single backoff from transmission rate
/// `rate_at_backoff` while playing `consumption` bytes/s (§2.1 condition 2):
/// the backoff lands at `rate_at_backoff · decrease_factor`. The paper's
/// AIMD halving is `decrease_factor = 0.5`; gentler controllers use factors
/// above ½, so they leave a smaller deficit and need less buffer.
pub fn recovery_buffer(
    consumption: f64,
    rate_at_backoff: f64,
    slope: f64,
    decrease_factor: f64,
) -> f64 {
    debug_assert!(
        decrease_factor > 0.0 && decrease_factor < 1.0,
        "decrease_factor must be in (0,1), got {decrease_factor}"
    );
    triangle_area(
        deficit(consumption, rate_at_backoff * decrease_factor),
        slope,
    )
}

/// Number of *buffering layers* `n_b = ceil(d₀/C)`: how many of the lowest
/// layers must hold buffered data to absorb a deficit of `deficit_rate`
/// when no layer's buffer can drain faster than its consumption rate
/// `layer_rate` (§2.4).
pub fn buffering_layer_count(deficit_rate: f64, layer_rate: f64) -> usize {
    debug_assert!(layer_rate > 0.0);
    if deficit_rate <= 0.0 {
        return 0;
    }
    (deficit_rate / layer_rate).ceil() as usize
}

/// Maximally efficient per-layer buffer shares for a deficit triangle,
/// written into `shares` (cleared and resized to `n_layers`, so hot paths
/// such as the per-tick state path recycle the allocation).
///
/// Entry `i` is the optimal number of bytes buffered for layer `i` (layer 0
/// = base). Layers at or above the deficit get zero. The shares sum to
/// [`triangle_area`] of the deficit (up to floating-point rounding), except
/// when `n_layers` is too small to absorb the whole deficit — then the
/// uncoverable top of the triangle is credited to the base layer so the
/// total protection is preserved (this can only happen when the caller asks
/// for fewer layers than `n_b`, e.g. when a drop decision is being
/// evaluated).
pub fn band_allocation_into(
    deficit_rate: f64,
    layer_rate: f64,
    slope: f64,
    n_layers: usize,
    shares: &mut Vec<f64>,
) {
    debug_assert!(layer_rate > 0.0 && slope > 0.0);
    shares.clear();
    shares.resize(n_layers, 0.0);
    if deficit_rate <= 0.0 || n_layers == 0 {
        return;
    }
    let c = layer_rate;
    let d0 = deficit_rate;
    let n_b = buffering_layer_count(d0, c);
    let covered = n_b.min(n_layers);
    for (i, share) in shares.iter_mut().enumerate().take(covered) {
        let lo = i as f64 * c;
        let hi = (i + 1) as f64 * c;
        *share = if hi <= d0 {
            // Full band: rectangle while d(t) >= hi, plus the C²/(2S) wedge
            // while the deficit sweeps through the band.
            c * (d0 - hi) / slope + c * c / (2.0 * slope)
        } else {
            // Top partial band: residual triangle above i·C.
            let h = d0 - lo;
            h * h / (2.0 * slope)
        };
    }
    if n_b > n_layers {
        // The deficit extends above the available layers; fold the excess
        // area into the base layer so the total still covers the triangle.
        let total: f64 = shares.iter().sum();
        let missing = triangle_area(d0, slope) - total;
        if missing > 0.0 {
            shares[0] += missing;
        }
    }
}

/// Drain rate of `layer` at a given instant of the draining phase, under
/// the maximally efficient pattern (network feeds the top of the layer
/// stack, buffers feed the bottom `deficit_rate` of it): the part of the
/// instantaneous deficit `n_a·C − r(t)` that falls inside the layer's
/// bandwidth band. Summed over `n_layers` layers the profile is
/// `min(deficit_rate, n_layers·C)` for a non-negative deficit.
pub fn band_drain_rate(deficit_rate: f64, layer_rate: f64, layer: usize) -> f64 {
    (deficit_rate - layer as f64 * layer_rate).clamp(0.0, layer_rate)
}

/// Solve the §2.2 drop rule: the largest number of layers `n` (`0 ≤ n ≤
/// n_active`) that the currently buffered total can carry through recovery
/// from the current (post-backoff) rate.
///
/// The rule in the paper iterates `WHILE n_a·C − R > sqrt(2·S·Σbuf) DO
/// n_a -= 1`; this returns the fixed point directly. The base layer is never
/// counted out: the result is at least 1 when `n_active >= 1` (the paper
/// sends the base layer unconditionally).
pub fn sustainable_layers(
    n_active: usize,
    layer_rate: f64,
    current_rate: f64,
    slope: f64,
    total_buffer: f64,
) -> usize {
    debug_assert!(layer_rate > 0.0 && slope > 0.0);
    if n_active <= 1 {
        return n_active;
    }
    let absorbable = (2.0 * slope * total_buffer.max(0.0)).sqrt();
    let mut n = n_active;
    while n > 1 {
        let deficit = n as f64 * layer_rate - current_rate;
        if deficit <= absorbable {
            break;
        }
        n -= 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 10_000.0; // 10 KB/s, the paper's per-layer rate
    const S: f64 = 25_000.0; // bytes/s² (1 KB packet, 200 ms SRTT → PS/SRTT²)

    fn bands(d0: f64, c: f64, slope: f64, n: usize) -> Vec<f64> {
        let mut shares = Vec::new();
        band_allocation_into(d0, c, slope, n, &mut shares);
        shares
    }

    fn drain_profile(d: f64, c: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| band_drain_rate(d, c, i)).collect()
    }

    #[test]
    fn deficit_is_zero_when_rate_covers_consumption() {
        assert_eq!(deficit(30_000.0, 40_000.0), 0.0);
        assert_eq!(deficit(30_000.0, 30_000.0), 0.0);
    }

    #[test]
    fn deficit_positive_when_rate_below_consumption() {
        assert_eq!(deficit(30_000.0, 20_000.0), 10_000.0);
    }

    #[test]
    fn triangle_area_matches_hand_computation() {
        // d0 = 20 KB/s, S = 25 KB/s² → T = 0.8 s, area = 20_000 * 0.8 / 2 = 8000 B
        let area = triangle_area(20_000.0, S);
        assert!((area - 8_000.0).abs() < 1e-6, "area = {area}");
    }

    #[test]
    fn triangle_area_zero_for_no_deficit() {
        assert_eq!(triangle_area(0.0, S), 0.0);
        assert_eq!(triangle_area(-5.0, S), 0.0);
    }

    #[test]
    fn recovery_buffer_uses_halved_rate() {
        // 3 layers * 10 KB/s = 30 KB/s consumption; backoff from 40 KB/s
        // leaves 20 KB/s → deficit 10 KB/s → area 10_000²/(2*25_000) = 2000 B.
        let b = recovery_buffer(30_000.0, 40_000.0, S, 0.5);
        assert!((b - 2_000.0).abs() < 1e-6, "b = {b}");
    }

    #[test]
    fn recovery_buffer_zero_when_half_rate_still_sufficient() {
        assert_eq!(recovery_buffer(30_000.0, 80_000.0, S, 0.5), 0.0);
    }

    #[test]
    fn buffering_layer_count_matches_ceil() {
        assert_eq!(buffering_layer_count(0.0, C), 0);
        assert_eq!(buffering_layer_count(5_000.0, C), 1);
        assert_eq!(buffering_layer_count(10_000.0, C), 1);
        assert_eq!(buffering_layer_count(10_001.0, C), 2);
        assert_eq!(buffering_layer_count(25_000.0, C), 3);
    }

    #[test]
    fn bands_sum_to_triangle_area() {
        for &d0 in &[1_000.0, 9_999.0, 10_000.0, 15_000.0, 25_000.0, 40_000.0] {
            let shares = bands(d0, C, S, 8);
            let total: f64 = shares.iter().sum();
            let area = triangle_area(d0, S);
            assert!(
                (total - area).abs() < 1e-6 * area.max(1.0),
                "d0={d0}: sum {total} != area {area}"
            );
        }
    }

    #[test]
    fn base_layer_gets_largest_band() {
        let shares = bands(25_000.0, C, S, 5);
        for w in shares.windows(2) {
            assert!(w[0] >= w[1], "shares must be non-increasing: {shares:?}");
        }
        assert!(shares[0] > 0.0);
    }

    #[test]
    fn layers_above_deficit_get_nothing() {
        let shares = bands(15_000.0, C, S, 5);
        assert!(shares[0] > 0.0);
        assert!(shares[1] > 0.0);
        assert_eq!(shares[2], 0.0);
        assert_eq!(shares[3], 0.0);
    }

    #[test]
    fn truncated_layer_count_folds_excess_into_base() {
        // Deficit spans 3 bands but only 2 layers exist: total protection
        // must still equal the triangle area.
        let d0 = 25_000.0;
        let shares = bands(d0, C, S, 2);
        let total: f64 = shares.iter().sum();
        let area = triangle_area(d0, S);
        assert!((total - area).abs() < 1e-6 * area);
    }

    #[test]
    fn full_band_formula_matches_integral() {
        // Numerically integrate the band overlap and compare.
        let d0 = 27_500.0;
        let shares = bands(d0, C, S, 6);
        let t_end = d0 / S;
        let steps = 200_000;
        let dt = t_end / steps as f64;
        for (i, &share) in shares.iter().enumerate() {
            let mut acc = 0.0;
            for k in 0..steps {
                let t = (k as f64 + 0.5) * dt;
                let d = d0 - S * t;
                acc += (d - i as f64 * C).clamp(0.0, C) * dt;
            }
            assert!(
                (acc - share).abs() < 1.0,
                "layer {i}: integral {acc} vs closed form {share}"
            );
        }
    }

    #[test]
    fn drain_rates_cover_deficit() {
        let rates = drain_profile(23_000.0, C, 5);
        let total: f64 = rates.iter().sum();
        assert!((total - 23_000.0).abs() < 1e-9);
        assert_eq!(rates[0], C);
        assert_eq!(rates[1], C);
        assert!((rates[2] - 3_000.0).abs() < 1e-9);
        assert_eq!(rates[3], 0.0);
    }

    #[test]
    fn drain_rates_saturate_at_all_layers() {
        // Deficit larger than the whole stack: every layer drains at C.
        let rates = drain_profile(100_000.0, C, 3);
        assert_eq!(rates, vec![C, C, C]);
    }

    #[test]
    fn sustainable_layers_keeps_all_with_ample_buffer() {
        // 4 layers, rate 20 KB/s → deficit 20 KB/s needs 8000 B.
        assert_eq!(sustainable_layers(4, C, 20_000.0, S, 9_000.0), 4);
    }

    #[test]
    fn sustainable_layers_drops_until_deficit_absorbable() {
        // With no buffer the flow can only keep layers covered by the rate:
        // rate 20 KB/s covers exactly 2 layers.
        assert_eq!(sustainable_layers(4, C, 20_000.0, S, 0.0), 2);
    }

    #[test]
    fn sustainable_layers_never_drops_base() {
        assert_eq!(sustainable_layers(3, C, 0.0, S, 0.0), 1);
        assert_eq!(sustainable_layers(1, C, 0.0, S, 0.0), 1);
        assert_eq!(sustainable_layers(0, C, 0.0, S, 0.0), 0);
    }

    #[test]
    fn gentler_decrease_factor_needs_less_recovery_buffer() {
        // A 0.85 backoff from 40 KB/s lands at 34 KB/s (deficit 0 for 3
        // layers); 0.7 lands at 28 KB/s (deficit 2 KB/s); 0.5 at 20 KB/s
        // (deficit 10 KB/s). Requirement must fall monotonically in f.
        let b50 = recovery_buffer(30_000.0, 40_000.0, S, 0.5);
        let b70 = recovery_buffer(30_000.0, 40_000.0, S, 0.7);
        let b85 = recovery_buffer(30_000.0, 40_000.0, S, 0.85);
        assert!(b50 > b70, "{b50} vs {b70}");
        assert!(b70 > b85, "{b70} vs {b85}");
        assert!((b70 - 2_000.0f64.powi(2) / (2.0 * S)).abs() < 1e-9);
        assert_eq!(b85, 0.0, "34 KB/s covers 30 KB/s consumption");
    }

    #[test]
    fn factor_derived_bands_keep_base_largest_and_strand_nothing() {
        // The satellite invariant: for deficits produced by non-half
        // backoffs, the optimal allocation still puts the largest band in
        // the base layer (non-increasing shares) and puts *nothing* in the
        // layers above the deficit — exactly the layers the §2.2 drop rule
        // sheds first, so a drop strands no buffered data.
        for &f in &[0.7, 0.85] {
            for n in 2..=6usize {
                let rate = n as f64 * C * 1.3;
                let d0 = deficit(n as f64 * C, rate * f);
                let shares = bands(d0, C, S, n);
                for w in shares.windows(2) {
                    assert!(w[0] >= w[1], "f={f} n={n}: {shares:?}");
                }
                for (i, &s) in shares.iter().enumerate() {
                    if i as f64 * C >= d0 {
                        assert_eq!(s, 0.0, "f={f} n={n} layer {i} stranded: {shares:?}");
                    }
                }
                let total: f64 = shares.iter().sum();
                let area = triangle_area(d0, S);
                assert!((total - area).abs() < 1e-6 * area.max(1.0));
            }
        }
    }

    #[test]
    fn sustainable_layers_matches_paper_while_loop() {
        // Cross-check against a literal transcription of the §2.2 loop.
        for n_active in 1..=8usize {
            for &rate in &[5_000.0, 15_000.0, 33_000.0, 79_000.0] {
                for &buf in &[0.0, 500.0, 2_000.0, 10_000.0, 50_000.0] {
                    let absorbable = (2.0 * S * buf).sqrt();
                    let mut n = n_active;
                    while n > 1 && (n as f64 * C - rate) > absorbable {
                        n -= 1;
                    }
                    assert_eq!(
                        sustainable_layers(n_active, C, rate, S, buf),
                        n,
                        "n_active={n_active} rate={rate} buf={buf}"
                    );
                }
            }
        }
    }
}
