//! Property tests for the TraceLink schedule machinery.
//!
//! These pin the contracts the hostile-network axis leans on:
//!
//! - sampling a schedule is a monotone step function of time;
//! - the diurnal cycle ends exactly where it began;
//! - the seeded LTE / bufferbloat generators are pure functions of their
//!   seed — two runs produce identical schedules, and a longer horizon is
//!   a strict extension of a shorter one (chunk-boundary identity);
//! - replaying a schedule through a [`TraceDriver`] visits the same values
//!   as direct sampling, and holds the last one once the schedule ends.

use laqa_sim::{LinkConfig, LinkTracePoint, TraceDriver, TraceSchedule, World};

fn pt(at: f64, bandwidth: f64) -> LinkTracePoint {
    LinkTracePoint { at, bandwidth }
}

#[test]
fn sample_is_a_monotone_step_function_of_time() {
    // The step selected for time t must never move backwards as t grows:
    // the active point's `at` is non-decreasing in t.
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
fn diurnal_cycle_ends_where_it_began() {
    let s = TraceSchedule::diurnal(100_000.0, 60.0);
    let pts = s.points();
    assert_eq!(pts.len(), 49, "48 steps plus the closing point");
    let (first, last) = (pts[0], pts[48]);
    assert_eq!((first.at, last.at), (0.0, 60.0));
    assert_eq!(
        last.bandwidth.to_bits(),
        first.bandwidth.to_bits(),
        "the cycle must close bitwise-exactly"
    );
    for w in pts.windows(2) {
        assert!(w[0].at < w[1].at, "points strictly increasing in time");
    }
    // The diurnal curve actually dips: min well below max.
    let bws: Vec<f64> = pts.iter().map(|p| p.bandwidth).collect();
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
fn driver_replay_matches_direct_sampling() {
    let s = TraceSchedule::from_points(vec![
        pt(0.0, 100_000.0),
        pt(1.5, 40_000.0),
        pt(3.0, 80_000.0),
    ])
    .unwrap();
    let mut w = World::new(1);
    let link = w.add_link(LinkConfig::default());
    let driver = w.add_agent(Box::new(TraceDriver::new(link, s.clone())));
    // After the driver consumes every point due at or before t, the link's
    // bandwidth must equal the direct sample.
    for t in [0.0, 0.7, 1.5, 2.2, 3.0, 3.1] {
        w.run_until(t);
        assert_eq!(
            w.link_config(link).bandwidth,
            s.sample(t).bandwidth,
            "driver replay diverged from sample() at t={t}"
        );
    }
    // No loop: the last point holds and nothing more is applied.
    w.run_until(10.0);
    assert_eq!(w.link_config(link).bandwidth, 80_000.0);
    assert_eq!(w.agent::<TraceDriver>(driver).unwrap().changes, 3);
}
