//! Multi-backoff buffer requirements: Scenario 1 and Scenario 2 (§4,
//! Appendix A.4/A.5, figures 7 and 14).
//!
//! Real loss patterns are near-random (§3), so the mechanism buffers for up
//! to `K_max` backoffs before adding a layer. The optimal allocation for `k`
//! backoffs depends on *when* they happen; the paper bounds all cases with
//! two extremes:
//!
//! * **Scenario 1** — all `k` backoffs occur back-to-back at the sawtooth
//!   peak: the rate steps from `R` straight down to `R·f^k` and then
//!   recovers linearly. One big deficit triangle.
//! * **Scenario 2** — the backoffs are maximally spread: `k₁` backoffs at
//!   the peak bring the rate just below the consumption rate `n_a·C`, and
//!   each of the remaining `k − k₁` backoffs occurs exactly when the rate
//!   has recovered to `n_a·C` (figure 14). One initial triangle of height
//!   `n_a·C − R·f^{k₁}` plus `k − k₁` identical triangles of height
//!   `n_a·C·(1 − f)`.
//!
//! `f` is the multiplicative decrease factor of the congestion controller;
//! the paper's AIMD halving (`R/2`) is `f = ½`, and every function here takes
//! `f` as an argument.
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
/// below `consumption` (Appendix A.4): `min{k ≥ 1 : rate·f^k < consumption}`
/// for the multiplicative decrease factor `f` (the paper's `R/2` is
/// `f = ½`), so gentler controllers need *more* backoffs to fall below
/// consumption. Saturates at 64 (rate underflows to zero long before).
pub fn min_backoffs_below(rate: f64, consumption: f64, decrease_factor: f64) -> u32 {
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
/// starting from transmission rate `rate` while the active layers consume
/// `consumption = n_a·C` bytes/s, with additive-increase slope `slope` and
/// multiplicative decrease factor `f` (Appendix A.4, where `f = ½`): `k`
/// back-to-back backoffs take the rate to `R·f^k` (Scenario 1), and each
/// spread Scenario-2 backoff from the consumption rate leaves a recurring
/// triangle of height `n_a·C·(1−f)`.
pub fn buf_total(
    scenario: Scenario,
    k: u32,
    rate: f64,
    consumption: f64,
    slope: f64,
    decrease_factor: f64,
) -> f64 {
    if consumption <= 0.0 || k == 0 {
        return 0.0;
    }
    let k1 = min_backoffs_below(rate, consumption, decrease_factor);
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
/// layer) to survive `k` backoffs in `scenario` (Appendix A.5), for
/// `n_active` layers of `layer_rate` each and decrease factor `f`.
///
/// Scenario 1 is the single-backoff band allocation on the larger triangle
/// (the post-backoff rate is `R·f^k`). Scenario 2 is the band allocation of
/// the initial triangle plus `k − k₁` times the band allocation of the
/// recurring `n_a·C·(1−f)` triangle, accumulated per layer.
///
/// The targets always sum to [`buf_total`] for the same arguments (tested,
/// including by property tests). This is the one-state-at-a-time form; the
/// per-tick path ([`crate::states::StateSequence::reset`]) walks the `k` of
/// a path in order and composes the same two pieces, computing `k₁` and
/// the two Scenario-2 triangles once per path instead of once per state.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
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
    let k1 = min_backoffs_below(rate, consumption, decrease_factor);
    if k < k1 {
        return vec![0.0; n_active];
    }
    let mut out = Vec::new();
    match scenario {
        Scenario::One => {
            scenario_one_into(
                k,
                rate,
                n_active,
                layer_rate,
                slope,
                decrease_factor,
                &mut out,
            );
        }
        Scenario::Two => {
            scenario_one_into(
                k1,
                rate,
                n_active,
                layer_rate,
                slope,
                decrease_factor,
                &mut out,
            );
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
        assert_eq!(min_backoffs_below(40_000.0, 30_000.0, 0.5), 1);
    }

    #[test]
    fn k1_grows_with_rate_headroom() {
        // rate 130 KB/s, consumption 30 KB/s: 65, 32.5, 16.25 → k1 = 3.
        assert_eq!(min_backoffs_below(130_000.0, 30_000.0, 0.5), 3);
    }

    #[test]
    fn k1_boundary_requires_strict_drop() {
        // rate/2 exactly equals consumption → no deficit yet, need one more.
        assert_eq!(min_backoffs_below(60_000.0, 30_000.0, 0.5), 2);
    }

    #[test]
    fn k1_when_rate_already_at_or_below_consumption() {
        assert_eq!(min_backoffs_below(30_000.0, 30_000.0, 0.5), 1);
        assert_eq!(min_backoffs_below(10_000.0, 30_000.0, 0.5), 1);
    }

    #[test]
    fn scenarios_agree_at_k_equals_k1() {
        let rate = 40_000.0;
        let n = 3;
        let t1 = buf_total(Scenario::One, 1, rate, n as f64 * C, S, 0.5);
        let t2 = buf_total(Scenario::Two, 1, rate, n as f64 * C, S, 0.5);
        assert!((t1 - t2).abs() < 1e-9);
        assert!(t1 > 0.0);
    }

    #[test]
    fn below_k1_requires_no_buffering() {
        // rate 130 KB/s, 3 layers (30 KB/s): k1 = 3, so k = 2 needs nothing.
        assert_eq!(buf_total(Scenario::One, 2, 130_000.0, 3.0 * C, S, 0.5), 0.0);
        assert_eq!(buf_total(Scenario::Two, 2, 130_000.0, 3.0 * C, S, 0.5), 0.0);
    }

    #[test]
    fn scenario1_total_matches_triangle() {
        // rate 40 KB/s, 3 layers, k = 2 → post-rate 10 KB/s, deficit 20 KB/s.
        let t = buf_total(Scenario::One, 2, 40_000.0, 3.0 * C, S, 0.5);
        let expect = 20_000.0f64.powi(2) / (2.0 * S);
        assert!((t - expect).abs() < 1e-6);
    }

    #[test]
    fn scenario2_total_adds_recurring_triangles() {
        // rate 40 KB/s, 3 layers: k1 = 1, first triangle deficit 10 KB/s.
        // k = 3 adds two triangles of deficit 15 KB/s each.
        let t = buf_total(Scenario::Two, 3, 40_000.0, 3.0 * C, S, 0.5);
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
        let s1 = buf_total(Scenario::One, 5, rate, n as f64 * C, S, 0.5);
        let s2 = buf_total(Scenario::Two, 5, rate, n as f64 * C, S, 0.5);
        assert!(s2 > s1, "s2 {s2} should exceed s1 {s1} at large k");
    }

    #[test]
    fn scenario1_needs_more_buffering_layers() {
        // Scenario 1's triangle is taller → spreads over more layers.
        let rate = 40_000.0;
        let n = 5;
        let p1 = per_layer(Scenario::One, 3, rate, n, C, S, 0.5);
        let p2 = per_layer(Scenario::Two, 3, rate, n, C, S, 0.5);
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
                        let shares = per_layer(scenario, k, rate, n, C, S, 0.5);
                        let total: f64 = shares.iter().sum();
                        let expect = buf_total(scenario, k, rate, n as f64 * C, S, 0.5);
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
            let shares = per_layer(scenario, 4, 55_000.0, 5, C, S, 0.5);
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
                let t = buf_total(scenario, k, 80_000.0, 4.0 * C, S, 0.5);
                assert!(t >= prev, "{scenario} k={k}: {t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn gentler_factor_needs_more_backoffs_below_consumption() {
        // 130 KB/s over 30 KB/s: halving needs 3 backoffs; at 0.85 the rate
        // shrinks ~15% per backoff and needs 10.
        assert_eq!(min_backoffs_below(130_000.0, 30_000.0, 0.5), 3);
        assert_eq!(min_backoffs_below(130_000.0, 30_000.0, 0.7), 5);
        assert_eq!(min_backoffs_below(130_000.0, 30_000.0, 0.85), 10);
    }

    #[test]
    fn gentler_factor_shrinks_scenario_totals() {
        // Same k back-to-back backoffs: a gentler controller retains more
        // rate, so both the Scenario-1 triangle and the Scenario-2
        // recurring triangles shrink monotonically with the factor.
        let rate = 40_000.0;
        let n = 3;
        for &scenario in &Scenario::ALL {
            let t50 = buf_total(scenario, 4, rate, n as f64 * C, S, 0.5);
            let t70 = buf_total(scenario, 4, rate, n as f64 * C, S, 0.7);
            let t85 = buf_total(scenario, 4, rate, n as f64 * C, S, 0.85);
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
                            let shares = per_layer(scenario, k, rate, n, C, S, f);
                            let total: f64 = shares.iter().sum();
                            let expect = buf_total(scenario, k, rate, n as f64 * C, S, f);
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
        assert!(per_layer(Scenario::One, 2, 40_000.0, 0, C, S, 0.5).is_empty());
        assert_eq!(buf_total(Scenario::One, 2, 40_000.0, 0.0, S, 0.5), 0.0);
    }
}
