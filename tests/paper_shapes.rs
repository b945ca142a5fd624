//! Integration: the paper's headline result *shapes*, asserted.
//!
//! These are the claims EXPERIMENTS.md records — if one of these fails,
//! the reproduction no longer reproduces.

use laqa_core::scenario::{buf_total, Scenario};
use laqa_core::StateSequence;
use laqa_sim::{run_scenario, ScenarioConfig};

/// Figure 12's shape: higher K_max → fewer steady-state quality changes
/// and more peak buffering.
#[test]
fn smoothing_reduces_quality_changes() {
    let changes_and_buffer = |k_max: u32| {
        let out = run_scenario(&ScenarioConfig::t1(k_max, 60.0, 7));
        let steady: Vec<f64> = out
            .traces
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t > 15.0)
            .map(|&(_, v)| v)
            .collect();
        let changes = steady
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-9)
            .count();
        let buffers = &out.traces.buffer;
        let peak_buf: f64 = (0..buffers[0].points.len())
            .map(|i| {
                buffers
                    .iter()
                    .map(|b| b.points.get(i).map(|&(_, v)| v.max(0.0)).unwrap_or(0.0))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        (changes, peak_buf)
    };
    let (c2, b2) = changes_and_buffer(2);
    let (c4, b4) = changes_and_buffer(4);
    assert!(c4 < c2, "K_max=4 changes {c4} !< K_max=2 changes {c2}");
    assert!(b4 > b2, "K_max=4 peak buffer {b4} !> K_max=2 {b2}");
}

/// Table 2's T1 shape: essentially no drops attributable to poor buffer
/// distribution under the plain T1 load.
#[test]
fn t1_drops_are_not_distribution_failures() {
    let out = run_scenario(&ScenarioConfig::t1(2, 90.0, 7));
    if let Some(f) = out.metrics.avoidable_drop_fraction() {
        assert!(f <= 0.15, "avoidable drop fraction {f:.2} too high for T1");
    }
}

/// Table 1's shape: buffering efficiency near 1 — dropped layers carry
/// almost no stranded buffering.
#[test]
fn dropped_layers_strand_little_buffer() {
    let out = run_scenario(&ScenarioConfig::t1(3, 90.0, 7));
    if let Some(e) = out.metrics.efficiency() {
        // The paper reports ~99% at C = 10 KB/s with 1 KB packets; at this
        // scaled-down operating point (C = 1.25 KB/s, 250 B packets) a
        // single stranded packet costs several percent, so the bound is
        // proportionally looser while still asserting "almost nothing
        // stranded".
        assert!(e > 0.7, "efficiency {e:.3}");
    }
}

/// Figure 13's shape: a half-bottleneck CBR burst forces layers down and
/// the base layer survives.
#[test]
fn responsiveness_shape() {
    let cfg = ScenarioConfig::t2(4, 60.0, 7);
    let (start, stop, _) = cfg.cbr.unwrap();
    let out = run_scenario(&cfg);
    let window_mean = |lo: f64, hi: f64| {
        let v: Vec<f64> = out
            .traces
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    assert!(window_mean(start + 3.0, stop) < window_mean(10.0, start));
    assert_eq!(out.metrics.stalls(), 0);
}

/// §4's analytic shape: both scenario requirements grow with k; scenario
/// 1 saturates (its post-backoff rate bottoms out at zero, capping the
/// triangle) while scenario 2 keeps growing linearly, so S2 eventually
/// dominates — which is why figure 9's ordering interleaves the two
/// scenario families rather than alternating strictly.
#[test]
fn scenario_requirements_shape() {
    let (rate, n, c, s) = (40_000.0, 3usize, 10_000.0, 12_500.0);
    let mut prev1 = 0.0;
    let mut prev2 = 0.0;
    let mut s1_led_somewhere = false;
    for k in 1..=8u32 {
        let t1 = buf_total(Scenario::One, k, rate, n as f64 * c, s, 0.5);
        let t2 = buf_total(Scenario::Two, k, rate, n as f64 * c, s, 0.5);
        assert!(t1 >= prev1 && t2 >= prev2, "monotone in k");
        if t1 > t2 {
            s1_led_somewhere = true;
        }
        if k >= 6 {
            assert!(t2 > t1, "k={k}: S2 {t2} must eventually exceed S1 {t1}");
        }
        prev1 = t1;
        prev2 = t2;
    }
    assert!(
        s1_led_somewhere,
        "the orderings should interleave (figure 9)"
    );
}

/// Figures 9/10's shape: the naive total-ordered state path requires
/// draining some layer between consecutive states; the monotone path does
/// not.
#[test]
fn monotone_path_exists_and_is_needed() {
    let mut seq = StateSequence::build(60_000.0, 5, 10_000.0, 12_500.0, 5);
    let mut naive_violations = 0;
    for (a, b) in seq.path().pairs() {
        for i in 0..5 {
            if b.raw_per_layer[i] < a.raw_per_layer[i] - 1e-6 {
                naive_violations += 1;
            }
            assert!(
                b.per_layer[i] + 1e-9 >= a.per_layer[i],
                "monotone path violated at layer {i}"
            );
        }
    }
    assert!(
        naive_violations > 0,
        "the fig-9 inversion should appear here"
    );
}
