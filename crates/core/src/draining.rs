//! Draining-phase allocation (§2.4 figure 5, §4.2).
//!
//! While the transmission rate is below the aggregate consumption rate, the
//! deficit must be pulled from receiver buffers. Two structures govern the
//! plan:
//!
//! 1. **The band profile** (§2.4, figure 4): at instantaneous deficit `d`,
//!    the maximally efficient split serves the *top* of the layer stack
//!    from the network and the *bottom* from buffers — layer `i` drains at
//!    `clamp(d − i·C, 0, C)`. This keeps each layer's drain rate matched to
//!    its optimal band, so small upper-layer bands are not burned early
//!    (draining a thin band at full rate `C` strands the phase later, when
//!    the deficit still spans that band's height but the buffer is gone).
//! 2. **The reverse path** (§4.2): when a lower layer lacks the buffer its
//!    band asks for, *higher*-layer buffer substitutes (never vice versa),
//!    and the substitution respects the per-layer floors of the preceding
//!    optimal state on the monotone path — the most advanced protection
//!    that can still be kept is kept.
//!
//! Hard constraints from the paper: a layer drains at most at its
//! consumption rate `C`, and the plan reports any uncoverable remainder —
//! a *critical situation* (§2.2) the controller resolves by dropping
//! layers.

use crate::geometry::band_drain_rate;
use crate::states::StateSequence;

/// Plan one draining period of `dt` seconds at transmission rate `rate`.
///
/// `seq` must be the state sequence computed at the *pre-backoff* peak rate
/// (the controller tracks it), so the floors correspond to the states that
/// were being filled. `bufs` is the current per-layer buffer estimate
/// (negative entries are fluid-model debt and treated as empty).
///
/// `drain` receives the bytes to drain from each layer's buffer during the
/// period and `per_layer_rate` each layer's send rate (bytes/s: consumption
/// minus the buffered part, summing to the offered rate when the deficit is
/// covered); whatever they held is discarded. The return value is the
/// deficit bytes the buffers could *not* cover — 0.0 in normal operation; a
/// positive value is a critical situation and the controller must drop
/// layers immediately. The floors are borrowed from the sequence's states,
/// which is grown only up to the first state `bufs` misses, and the band
/// profile is read one layer at a time, so once the vectors have held
/// `seq.n_active` entries nothing is allocated (the controller calls this
/// every period).
pub fn plan_draining_into(
    seq: &mut StateSequence,
    bufs: &[f64],
    rate: f64,
    dt: f64,
    eps: f64,
    drain: &mut Vec<f64>,
    per_layer_rate: &mut Vec<f64>,
) -> f64 {
    let n = seq.n_active;
    let c = seq.layer_rate;
    let consumption = n as f64 * c;
    drain.clear();
    drain.resize(n, 0.0);
    per_layer_rate.clear();
    if dt <= 0.0 {
        per_layer_rate.resize(n, c);
        return 0.0;
    }
    // The rate recovers linearly (slope S) within the period, so the
    // period's true deficit is the midpoint value; planning on the
    // start-of-period deficit would systematically over-draw and strand an
    // exactly-provisioned buffer before the phase ends.
    let deficit_rate = (consumption - rate - seq.slope * dt / 2.0).max(0.0);
    let mut need = deficit_rate * dt;
    let cap = c * dt;
    let avail = |i: usize| bufs.get(i).copied().unwrap_or(0.0).max(0.0);

    if need > 0.0 {
        // Floors start at the predecessor of the most advanced state the
        // buffers satisfy, and relax backwards as the walk continues.
        let mut floor_idx: isize = match seq.last_satisfied(bufs, eps) {
            Some(i) => i as isize - 1,
            None => -1,
        };
        // Layer `i`'s floor: its target in state `idx` of the path, nothing
        // once the walk has stepped back past the first state. The floors
        // never pass the state `last_satisfied` has just emitted.
        let states = seq.emitted();
        let floor = |idx: isize, i: usize| {
            if idx >= 0 {
                states
                    .get(idx as usize)
                    .expect("floor state emitted")
                    .per_layer[i]
            } else {
                0.0
            }
        };
        // Pass A: the §2.4 band profile, bounded by caps, floors and
        // availability.
        for (i, drained) in drain.iter_mut().enumerate() {
            let want = band_drain_rate(deficit_rate, c, i) * dt;
            let room = (avail(i) - floor(floor_idx, i)).max(0.0);
            let take = want.min(cap).min(room).min(need);
            if take > 0.0 {
                *drained += take;
                need -= take;
            }
        }
        // Pass B: substitute the remainder from higher layers first
        // (higher-layer buffer may stand in for lower, §4), stepping the
        // floors back along the path until they vanish.
        while need > 0.0 {
            for i in (0..n).rev() {
                if need <= 0.0 {
                    break;
                }
                let room = (avail(i) - drain[i] - floor(floor_idx, i)).max(0.0);
                let take = need.min(cap - drain[i]).min(room);
                if take > 0.0 {
                    drain[i] += take;
                    need -= take;
                }
            }
            if need <= 0.0 || floor_idx < 0 {
                break;
            }
            floor_idx -= 1;
        }
    }

    per_layer_rate.extend(drain.iter().map(|d| c - d / dt));
    need.max(0.0)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-parallel asserts read clearer
mod tests {
    use super::*;
    use crate::states::StateSequence;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    fn seq(rate: f64, n: usize) -> StateSequence {
        StateSequence::build(rate, n, C, S, 8)
    }

    struct Plan {
        drain: Vec<f64>,
        per_layer_rate: Vec<f64>,
        shortfall: f64,
    }

    /// One period of [`plan_draining_into`] on fresh vectors.
    fn plan_period(seq: &mut StateSequence, bufs: &[f64], rate: f64, dt: f64) -> Plan {
        let (mut drain, mut per_layer_rate) = (vec![], vec![]);
        let shortfall =
            plan_draining_into(seq, bufs, rate, dt, 1.0, &mut drain, &mut per_layer_rate);
        Plan {
            drain,
            per_layer_rate,
            shortfall,
        }
    }

    /// Buffers that satisfy every state on the path.
    /// Midpoint deficit the planner charges for a period.
    fn mid_deficit(n: usize, rate: f64, dt: f64) -> f64 {
        (n as f64 * C - rate - S * dt / 2.0).max(0.0)
    }

    fn full_buffers(seq: &mut StateSequence) -> Vec<f64> {
        let n = seq.n_active;
        seq.path()
            .last()
            .map_or_else(|| vec![0.0; n], |s| s.per_layer.to_vec())
    }

    #[test]
    fn no_deficit_no_drain() {
        let mut s = seq(40_000.0, 3);
        let plan = plan_period(&mut s, &[1e6; 3], 35_000.0, 0.1);
        assert!(plan.drain.iter().all(|&d| d == 0.0));
        assert_eq!(plan.shortfall, 0.0);
        assert_eq!(plan.per_layer_rate, vec![C; 3]);
    }

    #[test]
    fn drain_covers_deficit_exactly() {
        let mut s = seq(40_000.0, 3);
        let bufs = full_buffers(&mut s);
        let dt = 0.1;
        let plan = plan_period(&mut s, &bufs, 20_000.0, dt);
        let drained: f64 = plan.drain.iter().sum();
        let need = mid_deficit(3, 20_000.0, dt) * dt;
        assert!((drained - need).abs() < 1e-6);
        assert_eq!(plan.shortfall, 0.0);
        let total: f64 = plan.per_layer_rate.iter().sum();
        assert!((total - (30_000.0 - need / dt)).abs() < 1e-6);
    }

    #[test]
    fn per_layer_drain_capped_at_consumption() {
        let mut s = seq(40_000.0, 3);
        let bufs = full_buffers(&mut s);
        let dt = 0.1;
        let plan = plan_period(&mut s, &bufs, 0.0, dt);
        for &d in &plan.drain {
            assert!(d <= C * dt + 1e-9);
        }
    }

    #[test]
    fn band_profile_preferred_when_buffers_allow() {
        // Deficit 13 KB/s over 3 layers: the band profile drains L0 at C
        // and L1 at 3 KB/s; L2 (above the deficit) is served by the
        // network and must not drain.
        let mut s = seq(40_000.0, 3);
        let bufs = [1e6, 1e6, 1e6];
        let dt = 0.1;
        let plan = plan_period(&mut s, &bufs, 17_000.0, dt);
        let d = mid_deficit(3, 17_000.0, dt); // 11 750 B/s
        assert!((plan.drain[0] - C * dt).abs() < 1e-6, "{:?}", plan.drain);
        assert!(
            (plan.drain[1] - (d - C) * dt).abs() < 1e-6,
            "{:?}",
            plan.drain
        );
        assert_eq!(plan.drain[2], 0.0);
        assert_eq!(plan.shortfall, 0.0);
    }

    #[test]
    fn higher_layers_substitute_for_missing_lower_buffer() {
        // L0 has nothing: its band share must come from the highest layer
        // that holds data (downward substitution), not be reported short.
        let mut s = seq(40_000.0, 3);
        let bufs = [0.0, 1e6, 1e6];
        let dt = 0.1;
        let plan = plan_period(&mut s, &bufs, 17_000.0, dt);
        assert_eq!(plan.drain[0], 0.0);
        assert_eq!(plan.shortfall, 0.0);
        let drained: f64 = plan.drain.iter().sum();
        assert!((drained - mid_deficit(3, 17_000.0, dt) * dt).abs() < 1e-6);
        // The substitute comes preferentially from the top.
        assert!(plan.drain[2] >= plan.drain[1] - 1e-9, "{:?}", plan.drain);
    }

    #[test]
    fn exact_band_buffers_survive_whole_draining_phase() {
        // The crucial efficiency property: with buffers equal to the exact
        // single-backoff band allocation, the planner must cover every
        // period of the draining phase with zero shortfall — thin upper
        // bands must not be burned early. Parameterized over the decrease
        // factor: the post-backoff rate is `rate · f`, and the property
        // must hold for gentle (0.7, 0.85) backoffs as well as the paper's
        // AIMD halving.
        for &factor in &[0.5f64, 0.7, 0.85] {
            for n in 2..=6usize {
                for &mult in &[1.2f64, 1.5, 1.9] {
                    let rate = mult * n as f64 * C;
                    let mut sq = StateSequence::default();
                    sq.rebuild(rate, n, C, S, 1, factor);
                    let mut bufs = Vec::new();
                    crate::geometry::band_allocation_into(
                        crate::geometry::deficit(n as f64 * C, rate * factor),
                        C,
                        S,
                        n,
                        &mut bufs,
                    );
                    let dt = 0.05;
                    let mut cur = rate * factor;
                    while cur < n as f64 * C {
                        let plan = plan_period(&mut sq, &bufs, cur, dt);
                        assert!(
                            plan.shortfall < 1.0,
                            "f={factor} n={n} mult={mult} rate={cur}: shortfall {}",
                            plan.shortfall
                        );
                        for i in 0..n {
                            bufs[i] -= plan.drain[i];
                            assert!(bufs[i] > -1e-6, "f={factor} n={n} mult={mult}");
                        }
                        cur += S * dt;
                    }
                }
            }
        }
    }

    #[test]
    fn shortfall_reported_when_buffers_empty() {
        let mut s = seq(40_000.0, 3);
        let dt = 0.1;
        let plan = plan_period(&mut s, &[0.0; 3], 20_000.0, dt);
        assert!((plan.shortfall - mid_deficit(3, 20_000.0, dt) * dt).abs() < 1e-6);
    }

    #[test]
    fn shortfall_reported_when_rate_cap_binds() {
        // Only the base layer holds buffer, but the deficit spans two
        // layers' worth of bandwidth: the base layer can contribute at most
        // C·dt, so half the deficit is uncoverable — §2.3's "insufficient
        // distribution" example.
        let mut s = seq(40_000.0, 3);
        let dt = 0.1;
        let bufs = [1e6, 0.0, 0.0];
        let plan = plan_period(&mut s, &bufs, 10_000.0, dt);
        assert!((plan.drain[0] - C * dt).abs() < 1e-6);
        let need = mid_deficit(3, 10_000.0, dt) * dt;
        assert!((plan.shortfall - (need - C * dt)).abs() < 1e-6);
    }

    #[test]
    fn negative_buffer_debt_treated_as_empty() {
        let mut s = seq(40_000.0, 3);
        let dt = 0.1;
        let bufs = [-500.0, 1e6, 1e6];
        let plan = plan_period(&mut s, &bufs, 17_000.0, dt);
        assert_eq!(plan.drain[0], 0.0, "debt must not be drained");
        assert_eq!(plan.shortfall, 0.0);
    }

    #[test]
    fn multi_period_drain_never_increases_satisfied_state() {
        let mut s = seq(40_000.0, 3);
        let mut bufs = full_buffers(&mut s);
        let dt = 0.05;
        let mut rate = 20_000.0;
        let mut last_idx = s
            .last_satisfied(&bufs, 1.0)
            .map(|i| i as isize)
            .unwrap_or(-1);
        for _ in 0..200 {
            if rate >= 30_000.0 {
                break;
            }
            let plan = plan_period(&mut s, &bufs, rate, dt);
            assert_eq!(plan.shortfall, 0.0, "unexpected shortfall");
            for i in 0..3 {
                bufs[i] -= plan.drain[i];
                assert!(bufs[i] >= -1e-6);
            }
            let idx = s
                .last_satisfied(&bufs, 1.0)
                .map(|i| i as isize)
                .unwrap_or(-1);
            assert!(idx <= last_idx, "satisfied index increased while draining");
            last_idx = idx;
            rate += S * dt;
        }
    }

    #[test]
    fn send_rates_never_negative() {
        let mut s = seq(40_000.0, 4);
        let bufs = full_buffers(&mut s);
        let plan = plan_period(&mut s, &bufs, 0.0, 0.5);
        for &r in &plan.per_layer_rate {
            assert!(r >= -1e-9);
        }
    }
}
