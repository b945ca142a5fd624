//! Property tests for the TraceLink schedule machinery.
//!
//! These pin the contracts the hostile-network axis leans on:
//!
//! - sampling a schedule is a monotone step function of time, and looping
//!   wrap-around lands exactly on the same step (no discontinuity);
//! - the seeded LTE / bufferbloat generators are pure functions of their
//!   seed — two runs produce identical schedules, and a longer horizon is
//!   a strict extension of a shorter one (chunk-boundary identity);
//! - replaying a schedule through [`LinkTraceState`] visits the same values
//!   as direct sampling, across cycle boundaries.

use laqa_sim::{LinkTracePoint, LinkTraceState, TraceSchedule};

fn pt(at: f64, bandwidth: f64) -> LinkTracePoint {
    LinkTracePoint {
        at,
        bandwidth,
        delay: None,
        loss: None,
    }
}

#[test]
fn sample_is_a_monotone_step_function_of_time() {
    // The step selected for time t must never move backwards as t grows
    // within a cycle: the active point's `at` is non-decreasing in t.
    for seed in [7u64, 21, 99] {
        let s = TraceSchedule::lte(seed, 100_000.0, 30.0);
        let pts = s.points();
        assert!(pts.len() > 10, "LTE over 30s must produce many swings");
        for w in pts.windows(2) {
            assert!(w[0].at < w[1].at, "points strictly increasing in time");
        }
        let mut last_at = f64::NEG_INFINITY;
        let mut t = 0.0;
        while t < 30.0 {
            let active = s.sample(t);
            // Find the point we sampled; its `at` must not regress.
            let at = pts
                .iter()
                .rev()
                .find(|p| p.at <= t)
                .map(|p| p.at)
                .unwrap_or(pts[0].at);
            assert_eq!(active.bandwidth, s.sample(t).bandwidth);
            assert!(at >= last_at, "step regressed at t={t}");
            last_at = at;
            t += 0.05;
        }
    }
}

#[test]
fn looping_wraps_without_discontinuity() {
    let s = TraceSchedule::diurnal(100_000.0, 60.0);
    let period = s.period().expect("diurnal loops");
    assert_eq!(period, 60.0);
    let mut t = 0.0;
    while t < 2.0 * period {
        let a = s.sample(t);
        let b = s.sample(t + period);
        assert_eq!(
            a.bandwidth, b.bandwidth,
            "wrap must be bitwise-identical at t={t}"
        );
        t += 0.73;
    }
    // The diurnal curve actually dips: min well below max.
    let bws: Vec<f64> = s.points().iter().map(|p| p.bandwidth).collect();
    let max = bws.iter().cloned().fold(f64::MIN, f64::max);
    let min = bws.iter().cloned().fold(f64::MAX, f64::min);
    assert!(min < 0.5 * max, "diurnal trough must be a real dip");
}

#[test]
fn seeded_generators_are_pure_functions_of_their_seed() {
    for seed in [1u64, 42, 1337] {
        assert_eq!(
            TraceSchedule::lte(seed, 100_000.0, 20.0),
            TraceSchedule::lte(seed, 100_000.0, 20.0),
            "LTE generator must be deterministic"
        );
        assert_eq!(
            TraceSchedule::bufferbloat(seed, 100_000.0, 20.0),
            TraceSchedule::bufferbloat(seed, 100_000.0, 20.0),
            "bufferbloat generator must be deterministic"
        );
    }
    assert_ne!(
        TraceSchedule::lte(1, 100_000.0, 20.0),
        TraceSchedule::lte(2, 100_000.0, 20.0),
        "different seeds must diverge"
    );
    assert_ne!(
        TraceSchedule::lte(1, 100_000.0, 20.0),
        TraceSchedule::bufferbloat(1, 100_000.0, 20.0),
        "generator salts must keep the families independent"
    );
}

#[test]
fn longer_horizon_extends_shorter_without_perturbing_the_prefix() {
    // Chunk-boundary identity: a schedule generated for 2×D seconds agrees
    // point-for-point with the D-second schedule over [0, D): the schedule
    // a session sees must not depend on how far ahead it was materialized.
    for seed in [7u64, 21] {
        let short = TraceSchedule::lte(seed, 100_000.0, 15.0);
        let long = TraceSchedule::lte(seed, 100_000.0, 30.0);
        let prefix: Vec<_> = long
            .points()
            .iter()
            .take(short.points().len())
            .cloned()
            .collect();
        assert_eq!(short.points(), &prefix[..], "LTE prefix must be stable");

        let short = TraceSchedule::bufferbloat(seed, 100_000.0, 15.0);
        let long = TraceSchedule::bufferbloat(seed, 100_000.0, 30.0);
        let prefix: Vec<_> = long
            .points()
            .iter()
            .take(short.points().len())
            .cloned()
            .collect();
        assert_eq!(short.points(), &prefix[..], "bloat prefix must be stable");
    }
}

#[test]
fn state_replay_matches_direct_sampling_across_cycles() {
    let s = TraceSchedule::from_points(
        vec![pt(0.0, 100_000.0), pt(1.5, 40_000.0), pt(3.0, 80_000.0)],
        Some(4.0),
    )
    .unwrap();
    let mut st = LinkTraceState::new(s.clone());
    let mut cfg = laqa_sim::LinkConfig::default();
    // Walk two full cycles through the cursor API; after consuming every
    // point due at or before t, the config must equal the direct sample.
    let mut applied = 0u32;
    while let Some(at) = st.next_change_at() {
        if at >= 8.0 {
            break;
        }
        assert!(st.apply_next(&mut cfg));
        applied += 1;
        assert_eq!(
            cfg.bandwidth,
            s.sample(at).bandwidth,
            "cursor replay diverged from sample() at t={at}"
        );
    }
    assert_eq!(applied, 6, "3 points x 2 cycles inside 8s");
}
