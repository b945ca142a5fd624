//! Multi-backoff buffer requirements: Scenario 1 and Scenario 2 (§4,
//! Appendix A.4/A.5, figures 7 and 14).
//!
//! Real loss patterns are near-random (§3), so the mechanism buffers for up
//! to `K_max` backoffs before adding a layer. The optimal allocation for `k`
//! backoffs depends on *when* they happen; the paper bounds all cases with
//! two extremes:
//!
//! * **Scenario 1** — all `k` backoffs occur back-to-back at the sawtooth
//!   peak: the rate steps from `R` straight down to `R/2^k` and then
//!   recovers linearly. One big deficit triangle.
//! * **Scenario 2** — the backoffs are maximally spread: `k₁` backoffs at
//!   the peak bring the rate just below the consumption rate `n_a·C`, and
//!   each of the remaining `k − k₁` backoffs occurs exactly when the rate
//!   has recovered to `n_a·C` (figure 14). One initial triangle of height
//!   `n_a·C − R/2^{k₁}` plus `k − k₁` identical triangles of height
//!   `n_a·C/2`.
//!
//! `k₁` is the minimum number of backoffs needed to push the transmission
//! rate strictly below the consumption rate; with fewer backoffs there is no
//! draining phase at all and the required buffering is zero.
//!
//! Scenario 1 needs the **most buffering layers** (tallest triangle);
//! Scenario 2 needs the most **total** buffering for the same `k` once
//! `k > k₁`. Buffered data for a *higher* layer can substitute for missing
//! buffer in a *lower* layer (the drain bands can be permuted downward) but
//! not vice versa — which is why the filling order of §4.1 satisfies
//! Scenario 1 states before Scenario 2 states of equal total (see
//! [`crate::states`]).

use crate::geometry::{band_allocation_into, deficit, triangle_area};

/// The two extremal multi-backoff loss patterns of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// All `k` backoffs at once at the sawtooth peak.
    One,
    /// `k₁` backoffs at the peak, the rest spread at consumption-rate
    /// crossings (figure 14).
    Two,
}

impl Scenario {
    /// Both scenarios, in the order the paper enumerates them.
    pub const ALL: [Scenario; 2] = [Scenario::One, Scenario::Two];
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::One => write!(f, "S1"),
            Scenario::Two => write!(f, "S2"),
        }
    }
}

/// Minimum number of backoffs `k₁ ≥ 1` required to bring `rate` strictly
/// below `consumption` (Appendix A.4). Saturates at 64 (rate underflows to
/// zero long before).
///
/// Equivalent to [`min_backoffs_below_with`] at the paper's AIMD halving
/// factor `0.5` (bit-identical: `x / 2.0 ≡ x * 0.5`).
pub fn min_backoffs_below(rate: f64, consumption: f64) -> u32 {
    min_backoffs_below_with(rate, consumption, 0.5)
}

/// [`min_backoffs_below`] generalized to an arbitrary multiplicative
/// decrease factor: each backoff scales the rate by `decrease_factor`, so
/// gentler controllers need *more* backoffs to fall below consumption.
pub fn min_backoffs_below_with(rate: f64, consumption: f64, decrease_factor: f64) -> u32 {
    debug_assert!(consumption > 0.0);
    debug_assert!(decrease_factor > 0.0 && decrease_factor < 1.0);
    let mut k = 1u32;
    let mut r = rate * decrease_factor;
    while r >= consumption && k < 64 {
        r *= decrease_factor;
        k += 1;
    }
    k
}

/// Total buffer (bytes) required to survive `k` backoffs in `scenario`,
/// starting from transmission rate `rate` with `n_active` layers of
/// consumption `layer_rate` each and additive-increase slope `slope`
/// (Appendix A.4).
pub fn buf_total(
    scenario: Scenario,
    k: u32,
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
) -> f64 {
    buf_total_with(scenario, k, rate, n_active, layer_rate, slope, 0.5)
}

/// [`buf_total`] generalized to an arbitrary multiplicative decrease
/// factor `f`: `k` back-to-back backoffs take the rate to `R·f^k`
/// (Scenario 1), and each spread Scenario-2 backoff from the consumption
/// rate leaves a recurring triangle of height `n_a·C·(1−f)`. Bit-identical
/// to the ungeneralized form at `f = 0.5` (`x / 2^k ≡ x · 0.5^k` and
/// `x / 2 ≡ x · (1 − 0.5)` for every f64).
#[allow(clippy::too_many_arguments)]
pub fn buf_total_with(
    scenario: Scenario,
    k: u32,
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
    decrease_factor: f64,
) -> f64 {
    let consumption = n_active as f64 * layer_rate;
    if consumption <= 0.0 || k == 0 {
        return 0.0;
    }
    let k1 = min_backoffs_below_with(rate, consumption, decrease_factor);
    if k < k1 {
        // Not enough backoffs to create a draining phase at all.
        return 0.0;
    }
    match scenario {
        Scenario::One => {
            let post = rate * decrease_factor.powi(k as i32);
            triangle_area(deficit(consumption, post), slope)
        }
        Scenario::Two => {
            let post = rate * decrease_factor.powi(k1 as i32);
            let first = triangle_area(deficit(consumption, post), slope);
            let recurring = triangle_area(consumption * (1.0 - decrease_factor), slope);
            first + (k - k1) as f64 * recurring
        }
    }
}

/// Maximally efficient per-layer buffer targets (bytes, index 0 = base
/// layer) to survive `k` backoffs in `scenario` (Appendix A.5).
///
/// Scenario 1 is the single-backoff band allocation on the larger triangle
/// (`R` replaced by `R/2^{k-1}` so the post-backoff rate is `R/2^k`).
/// Scenario 2 is the band allocation of the initial triangle plus
/// `k − k₁` times the band allocation of the recurring half-consumption
/// triangle, accumulated per layer.
///
/// The targets always sum to [`buf_total`] for the same arguments (tested,
/// including by property tests).
pub fn per_layer(
    scenario: Scenario,
    k: u32,
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
) -> Vec<f64> {
    per_layer_with(scenario, k, rate, n_active, layer_rate, slope, 0.5)
}

/// [`per_layer`] generalized to an arbitrary decrease factor (see
/// [`buf_total_with`]); bit-identical to the ungeneralized form at `0.5`.
///
/// This is the one-state-at-a-time form. The per-tick path
/// ([`crate::states::StateSequence::rebuild_with`]) needs every `k` of a
/// path at once and composes the same two pieces — [`scenario_one_into`]
/// and [`recurring_band_into`] — computing `k₁` and the two Scenario-2
/// triangles once per path instead of once per state.
#[allow(clippy::too_many_arguments)]
pub fn per_layer_with(
    scenario: Scenario,
    k: u32,
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
    decrease_factor: f64,
) -> Vec<f64> {
    let consumption = n_active as f64 * layer_rate;
    if consumption <= 0.0 || k == 0 {
        return vec![0.0; n_active];
    }
    let k1 = min_backoffs_below_with(rate, consumption, decrease_factor);
    if k < k1 {
        return vec![0.0; n_active];
    }
    let mut out = Vec::new();
    match scenario {
        Scenario::One => {
            scenario_one_into(k, rate, n_active, layer_rate, slope, decrease_factor, &mut out);
        }
        Scenario::Two => {
            scenario_one_into(k1, rate, n_active, layer_rate, slope, decrease_factor, &mut out);
            if k > k1 {
                let mut recurring = Vec::new();
                recurring_band_into(n_active, layer_rate, slope, decrease_factor, &mut recurring);
                let mult = (k - k1) as f64;
                for (s, r) in out.iter_mut().zip(recurring.iter()) {
                    *s += mult * r;
                }
            }
        }
    }
    out
}

/// Scenario-1 targets for `k ≥ k₁` back-to-back backoffs, written into
/// `out`: the band allocation of the single triangle left by the rate
/// falling to `R·f^k`. At `k = k₁` this is also the initial triangle of
/// every Scenario-2 state.
pub(crate) fn scenario_one_into(
    k: u32,
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
    decrease_factor: f64,
    out: &mut Vec<f64>,
) {
    let consumption = n_active as f64 * layer_rate;
    let post = rate * decrease_factor.powi(k as i32);
    band_allocation_into(deficit(consumption, post), layer_rate, slope, n_active, out);
}

/// Band allocation of the triangle each spread Scenario-2 backoff leaves
/// (height `n_a·C·(1−f)`), written into `out`. A Scenario-2 state for `k`
/// backoffs is the initial triangle plus `k − k₁` of these, per layer.
pub(crate) fn recurring_band_into(
    n_active: usize,
    layer_rate: f64,
    slope: f64,
    decrease_factor: f64,
    out: &mut Vec<f64>,
) {
    let consumption = n_active as f64 * layer_rate;
    band_allocation_into(
        consumption * (1.0 - decrease_factor),
        layer_rate,
        slope,
        n_active,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    #[test]
    fn k1_is_one_when_one_backoff_suffices() {
        // rate 40 KB/s, consumption 30 KB/s: 20 < 30 after one backoff.
        assert_eq!(min_backoffs_below(40_000.0, 30_000.0), 1);
    }

    #[test]
    fn k1_grows_with_rate_headroom() {
        // rate 130 KB/s, consumption 30 KB/s: 65, 32.5, 16.25 → k1 = 3.
        assert_eq!(min_backoffs_below(130_000.0, 30_000.0), 3);
    }

    #[test]
    fn k1_boundary_requires_strict_drop() {
        // rate/2 exactly equals consumption → no deficit yet, need one more.
        assert_eq!(min_backoffs_below(60_000.0, 30_000.0), 2);
    }

    #[test]
    fn k1_when_rate_already_at_or_below_consumption() {
        assert_eq!(min_backoffs_below(30_000.0, 30_000.0), 1);
        assert_eq!(min_backoffs_below(10_000.0, 30_000.0), 1);
    }

    #[test]
    fn scenarios_agree_at_k_equals_k1() {
        let rate = 40_000.0;
        let n = 3;
        let t1 = buf_total(Scenario::One, 1, rate, n, C, S);
        let t2 = buf_total(Scenario::Two, 1, rate, n, C, S);
        assert!((t1 - t2).abs() < 1e-9);
        assert!(t1 > 0.0);
    }

    #[test]
    fn below_k1_requires_no_buffering() {
        // rate 130 KB/s, 3 layers (30 KB/s): k1 = 3, so k = 2 needs nothing.
        assert_eq!(buf_total(Scenario::One, 2, 130_000.0, 3, C, S), 0.0);
        assert_eq!(buf_total(Scenario::Two, 2, 130_000.0, 3, C, S), 0.0);
    }

    #[test]
    fn scenario1_total_matches_triangle() {
        // rate 40 KB/s, 3 layers, k = 2 → post-rate 10 KB/s, deficit 20 KB/s.
        let t = buf_total(Scenario::One, 2, 40_000.0, 3, C, S);
        let expect = 20_000.0f64.powi(2) / (2.0 * S);
        assert!((t - expect).abs() < 1e-6);
    }

    #[test]
    fn scenario2_total_adds_recurring_triangles() {
        // rate 40 KB/s, 3 layers: k1 = 1, first triangle deficit 10 KB/s.
        // k = 3 adds two triangles of deficit 15 KB/s each.
        let t = buf_total(Scenario::Two, 3, 40_000.0, 3, C, S);
        let first = 10_000.0f64.powi(2) / (2.0 * S);
        let rec = 15_000.0f64.powi(2) / (2.0 * S);
        assert!((t - (first + 2.0 * rec)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn scenario2_needs_more_total_than_scenario1_for_spread_losses() {
        // Paper §4: for the same k > k1 the spread pattern eventually costs
        // more total buffering than the all-at-once pattern cannot keep up
        // with, because each recovery climbs all the way back to n_a·C.
        let rate = 40_000.0;
        let n = 3;
        let s1 = buf_total(Scenario::One, 5, rate, n, C, S);
        let s2 = buf_total(Scenario::Two, 5, rate, n, C, S);
        assert!(s2 > s1, "s2 {s2} should exceed s1 {s1} at large k");
    }

    #[test]
    fn scenario1_needs_more_buffering_layers() {
        // Scenario 1's triangle is taller → spreads over more layers.
        let rate = 40_000.0;
        let n = 5;
        let p1 = per_layer(Scenario::One, 3, rate, n, C, S);
        let p2 = per_layer(Scenario::Two, 3, rate, n, C, S);
        let n_b1 = p1.iter().filter(|&&x| x > 0.0).count();
        let n_b2 = p2.iter().filter(|&&x| x > 0.0).count();
        assert!(n_b1 >= n_b2, "p1={p1:?} p2={p2:?}");
    }

    #[test]
    fn per_layer_sums_to_total_both_scenarios() {
        for &scenario in &Scenario::ALL {
            for k in 1..=8u32 {
                for n in 1..=6usize {
                    for &rate in &[15_000.0, 40_000.0, 90_000.0, 200_000.0] {
                        let shares = per_layer(scenario, k, rate, n, C, S);
                        let total: f64 = shares.iter().sum();
                        let expect = buf_total(scenario, k, rate, n, C, S);
                        assert!(
                            (total - expect).abs() < 1e-6 * expect.max(1.0),
                            "{scenario} k={k} n={n} rate={rate}: {total} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_layer_is_non_increasing_with_layer_index() {
        for &scenario in &Scenario::ALL {
            let shares = per_layer(scenario, 4, 55_000.0, 5, C, S);
            for w in shares.windows(2) {
                assert!(w[0] >= w[1] - 1e-9, "{scenario}: {shares:?}");
            }
        }
    }

    #[test]
    fn buf_total_monotone_in_k() {
        for &scenario in &Scenario::ALL {
            let mut prev = 0.0;
            for k in 1..=10 {
                let t = buf_total(scenario, k, 80_000.0, 4, C, S);
                assert!(t >= prev, "{scenario} k={k}: {t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn half_factor_variants_are_bit_identical() {
        for &scenario in &Scenario::ALL {
            for k in 1..=8u32 {
                for n in 1..=5usize {
                    for &rate in &[15_000.0, 40_000.0, 90_000.0, 131_072.0, 200_000.0] {
                        let t_old = buf_total(scenario, k, rate, n, C, S);
                        let t_new = buf_total_with(scenario, k, rate, n, C, S, 0.5);
                        assert_eq!(
                            t_old.to_bits(),
                            t_new.to_bits(),
                            "{scenario} k={k} n={n} rate={rate}"
                        );
                        let p_old = per_layer(scenario, k, rate, n, C, S);
                        let p_new = per_layer_with(scenario, k, rate, n, C, S, 0.5);
                        for (a, b) in p_old.iter().zip(p_new.iter()) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                        assert_eq!(
                            min_backoffs_below(rate, n as f64 * C),
                            min_backoffs_below_with(rate, n as f64 * C, 0.5)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gentler_factor_needs_more_backoffs_below_consumption() {
        // 130 KB/s over 30 KB/s: halving needs 3 backoffs; at 0.85 the rate
        // shrinks ~15% per backoff and needs 10.
        assert_eq!(min_backoffs_below_with(130_000.0, 30_000.0, 0.5), 3);
        assert_eq!(min_backoffs_below_with(130_000.0, 30_000.0, 0.7), 5);
        assert_eq!(min_backoffs_below_with(130_000.0, 30_000.0, 0.85), 10);
    }

    #[test]
    fn gentler_factor_shrinks_scenario_totals() {
        // Same k back-to-back backoffs: a gentler controller retains more
        // rate, so both the Scenario-1 triangle and the Scenario-2
        // recurring triangles shrink monotonically with the factor.
        let rate = 40_000.0;
        let n = 3;
        for &scenario in &Scenario::ALL {
            let t50 = buf_total_with(scenario, 4, rate, n, C, S, 0.5);
            let t70 = buf_total_with(scenario, 4, rate, n, C, S, 0.7);
            let t85 = buf_total_with(scenario, 4, rate, n, C, S, 0.85);
            assert!(t50 > t70 && t70 > t85, "{scenario}: {t50} {t70} {t85}");
        }
    }

    #[test]
    fn per_layer_with_sums_to_total_for_nonhalf_factors() {
        for &f in &[0.7, 0.85] {
            for &scenario in &Scenario::ALL {
                for k in 1..=8u32 {
                    for n in 1..=6usize {
                        for &rate in &[15_000.0, 40_000.0, 90_000.0] {
                            let shares = per_layer_with(scenario, k, rate, n, C, S, f);
                            let total: f64 = shares.iter().sum();
                            let expect = buf_total_with(scenario, k, rate, n, C, S, f);
                            assert!(
                                (total - expect).abs() < 1e-6 * expect.max(1.0),
                                "f={f} {scenario} k={k} n={n} rate={rate}: {total} vs {expect}"
                            );
                            for w in shares.windows(2) {
                                assert!(w[0] >= w[1] - 1e-9, "f={f}: {shares:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_layers_yield_empty_or_zero() {
        assert!(per_layer(Scenario::One, 2, 40_000.0, 0, C, S).is_empty());
        assert_eq!(buf_total(Scenario::One, 2, 40_000.0, 0, C, S), 0.0);
    }
}
