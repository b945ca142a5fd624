//! Coarse-grain layer add/drop conditions (§2.1, §2.2, §3.1).
//!
//! **Adding** (§2.1 refined by §3.1): a new layer may start only when
//!
//! 1. the *instantaneous* transmission rate exceeds the consumption rate of
//!    the existing layers plus the new one (`R ≥ (n_a+1)·C`), so the new
//!    layer can play out immediately with no inter-layer timing guesswork,
//!    and
//! 2. the receiver buffers satisfy every optimal state with `k ≤ K_max` on
//!    the monotone path — the smoothing condition that replaces the naive
//!    "survive one backoff" rule and prevents layers flapping with every
//!    sawtooth cycle.
//!
//! **Dropping** (§2.2): after a backoff, iteratively drop the highest layer
//! while the total buffering is below the recovery deficit at the current
//! (post-backoff) rate. The base layer is never dropped.

use crate::geometry::{recovery_buffer, sustainable_layers};
use crate::states::StateSequence;

/// Result of evaluating the add conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddCheck {
    /// Condition 1: instantaneous rate covers existing + new layer.
    pub bandwidth_ok: bool,
    /// Condition 2 (smoothed): buffers satisfy all `k ≤ K_max` states.
    pub buffer_ok: bool,
    /// Room left in the encoding (below `max_layers`).
    pub capacity_ok: bool,
}

impl AddCheck {
    /// All conditions hold.
    pub fn all_ok(&self) -> bool {
        self.bandwidth_ok && self.buffer_ok && self.capacity_ok
    }
}

/// Inputs to [`check_add`] beyond the two state sequences: the current
/// buffer distribution, transmission rate, and the controller limits.
#[derive(Debug, Clone, Copy)]
pub struct AddInputs<'a> {
    /// Per-layer buffered bytes (sender estimates).
    pub bufs: &'a [f64],
    /// Current transmission rate (bytes/s).
    pub rate: f64,
    /// Layers currently active.
    pub n_active: usize,
    /// Layers the encoding offers at most.
    pub max_layers: usize,
    /// Smoothing factor `K_max`.
    pub k_max: u32,
    /// Comparison slack (bytes).
    pub eps: f64,
}

/// Evaluate the add conditions for growing from `n_active` to `n_active+1`
/// layers. `seq` must be the current filling-phase state sequence (built for
/// `n_active` layers at the current rate) and `next_seq` the sequence for
/// the *post-add* configuration (`n_active+1` layers, same rate).
///
/// The buffer condition is checked against both: the current path (§3.1
/// verbatim) and the post-add path (see
/// [`StateSequence::satisfied_up_to_k_post_add`]). The second check matters
/// most when consumption is small relative to the rate — the current path's
/// triangles are then tiny and near-vacuous, yet the moment the layer is
/// added the deficit a backoff must bridge jumps by a whole `C`, and the
/// buffers have to already carry that protection.
pub fn check_add(
    seq: &mut StateSequence,
    next_seq: &mut StateSequence,
    inputs: &AddInputs,
) -> AddCheck {
    let c = seq.layer_rate;
    AddCheck {
        bandwidth_ok: inputs.rate >= (inputs.n_active as f64 + 1.0) * c,
        buffer_ok: seq.satisfied_up_to_k(inputs.bufs, inputs.k_max, inputs.eps)
            && next_seq.satisfied_up_to_k_post_add(
                inputs.bufs,
                inputs.k_max,
                inputs.eps,
                inputs.n_active,
            ),
        capacity_ok: inputs.n_active < inputs.max_layers,
    }
}

/// Number of layers to drop right now (0 when none): the §2.2 rule at the
/// current post-backoff rate. Never drops the base layer.
pub fn drop_count(
    n_active: usize,
    layer_rate: f64,
    current_rate: f64,
    slope: f64,
    total_buffer: f64,
) -> usize {
    n_active - sustainable_layers(n_active, layer_rate, current_rate, slope, total_buffer)
}

/// The recovery buffer the §2.2 rule compares against when `n` layers are
/// playing and the *current* rate is `rate` (post-backoff, so no further
/// decrease is applied — the deficit is `n·C − rate`).
///
/// [`recovery_buffer`] models a future backoff from a filling-phase rate
/// and scales its rate argument by the decrease factor; here the backoff
/// already happened, so the pre-backoff peak is first reconstructed as
/// `rate / decrease_factor`, un-doing exactly the decrease the controller
/// applied. Analytically the result is the deficit triangle at the
/// post-backoff `rate` for every factor; at the paper's halving (`0.5`)
/// the reconstruction `rate / 0.5 ≡ rate · 2` is exact.
pub fn required_recovery_buffer(
    n: usize,
    layer_rate: f64,
    rate: f64,
    slope: f64,
    decrease_factor: f64,
) -> f64 {
    recovery_buffer(
        n as f64 * layer_rate,
        rate / decrease_factor,
        slope,
        decrease_factor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::StateSequence;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    fn check(rate: f64, bufs: &[f64], n: usize, max_layers: usize) -> AddCheck {
        let mut seq = StateSequence::build(rate, n, C, S, 8);
        let mut next = StateSequence::build(rate, n + 1, C, S, 8);
        check_add(
            &mut seq,
            &mut next,
            &AddInputs {
                bufs,
                rate,
                n_active: n,
                max_layers,
                k_max: 2,
                eps: 1.0,
            },
        )
    }

    #[test]
    fn add_requires_instantaneous_headroom() {
        let c = check(35_000.0, &[1e9; 3], 3, 10);
        assert!(!c.bandwidth_ok, "35 KB/s cannot carry 4 layers");
        assert!(c.buffer_ok);
        assert!(!c.all_ok());

        let c = check(41_000.0, &[1e9; 3], 3, 10);
        assert!(c.all_ok());
    }

    #[test]
    fn add_requires_buffer_condition() {
        let c = check(50_000.0, &[0.0; 3], 3, 10);
        assert!(c.bandwidth_ok);
        assert!(!c.buffer_ok);
        assert!(!c.all_ok());
    }

    #[test]
    fn add_requires_post_add_protection() {
        // The buffers satisfy the 1-layer path (whose requirements are
        // tiny: rate far above C makes k1 large and the triangles small) but
        // not the base-layer share of the 2-layer path the add would enter.
        let rate = 31_000.0;
        let mut seq = StateSequence::build(rate, 1, C, S, 8);
        let bufs = [400.0];
        assert!(
            seq.satisfied_up_to_k(&bufs, 2, 1.0),
            "current path alone must pass, or this test shows nothing"
        );
        let c = check(rate, &bufs, 1, 10);
        assert!(c.bandwidth_ok);
        assert!(
            !c.buffer_ok,
            "post-add path must demand real base-layer reserve"
        );
    }

    #[test]
    fn add_blocked_at_max_layers() {
        let c = check(50_000.0, &[1e9; 3], 3, 3);
        assert!(!c.capacity_ok);
        assert!(!c.all_ok());
    }

    #[test]
    fn drop_count_zero_with_sufficient_buffer() {
        // 3 layers at 15 KB/s: deficit 15 KB/s needs 4500 B.
        assert_eq!(drop_count(3, C, 15_000.0, S, 5_000.0), 0);
    }

    #[test]
    fn drop_count_sheds_layers_without_buffer() {
        // 3 layers, rate 15 KB/s, no buffer: only rate-covered layers and
        // one partially-covered survive the while-loop: 3C-15k=15k>0 →
        // drop to 2; 2C-15k=5k>0 → drop to 1? sqrt(0)=0, 5k>0 → n=1.
        assert_eq!(drop_count(3, C, 15_000.0, S, 0.0), 2);
    }

    #[test]
    fn required_recovery_buffer_matches_triangle() {
        // 3 layers, current rate 10 KB/s: deficit 20 KB/s → 20k²/(2·25k).
        let req = required_recovery_buffer(3, C, 10_000.0, S, 0.5);
        assert!((req - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn required_recovery_buffer_zero_when_rate_covers() {
        assert_eq!(required_recovery_buffer(2, C, 25_000.0, S, 0.5), 0.0);
    }

    #[test]
    fn required_recovery_buffer_with_half_is_bit_identical() {
        // At the paper's halving the peak reconstruction is exact: the
        // threshold is the recovery triangle of a backoff from `2·rate`.
        for n in 1..=6usize {
            for &rate in &[0.0, 5_000.0, 10_000.0, 23_456.78, 40_000.0] {
                let peak = crate::geometry::recovery_buffer(n as f64 * C, 2.0 * rate, S, 0.5);
                let req = required_recovery_buffer(n, C, rate, S, 0.5);
                assert_eq!(peak.to_bits(), req.to_bits(), "n={n} rate={rate}");
            }
        }
    }

    #[test]
    fn required_recovery_buffer_factor_invariant_at_post_rate() {
        // The §2.2 comparison operates on the *post-backoff* rate: whatever
        // factor produced it, the deficit (and so the requirement) is the
        // same up to float dust from the peak reconstruction round-trip.
        for &f in &[0.7, 0.85] {
            for n in 1..=5usize {
                for &rate in &[5_000.0, 12_500.0, 30_000.0] {
                    let want = crate::geometry::triangle_area(
                        crate::geometry::deficit(n as f64 * C, rate),
                        S,
                    );
                    let got = required_recovery_buffer(n, C, rate, S, f);
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "f={f} n={n} rate={rate}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gentler_factor_backoffs_shed_fewer_layers() {
        // Same peak (52 KB/s, 4 layers, no buffer), three controllers: the
        // harder the backoff, the more layers the drop rule sheds.
        let peak = 52_000.0;
        let drops_at = |f: f64| drop_count(4, C, peak * f, S, 0.0);
        let d50 = drops_at(0.5);
        let d70 = drops_at(0.7);
        let d85 = drops_at(0.85);
        assert!(d50 >= d70 && d70 >= d85, "{d50} {d70} {d85}");
        assert!(
            d50 > d85,
            "halving from 52 KB/s must shed more than a 0.85 backoff"
        );
    }
}
