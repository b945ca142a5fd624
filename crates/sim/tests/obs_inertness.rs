//! Observability must be inert: enabling `laqa-obs` instrumentation may
//! not change a single bit of any campaign fingerprint. The
//! `campaign --obs` CLI path that switches it on is driven by
//! `crates/bench/tests/cli.rs`.
//!
//! One test function on purpose: the obs enabled flag and registries are
//! process-global, and a single test body is the only way to guarantee
//! the off-run really executes with obs off.

use laqa_core::{DropReason, QaEvent};
use laqa_sim::{run_campaign, run_scenario, CampaignSpec, SessionSpec, TestKind, Transport};

#[test]
fn fingerprints_identical_with_obs_on_and_off() {
    // 8 s per session: the QA flow joins at t = 5 s (ScenarioConfig
    // default), so anything shorter never exercises the qa.* sites.
    let mut spec = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 8.0);
    // One cell over a non-RAP controller: the `rap.*` sites sit in the
    // shell all four senders share, so they fire under BBR too.
    spec.sessions.push(SessionSpec {
        transport: Transport::Bbr,
        ..spec.sessions[0].clone()
    });

    // Reference sweep with observability off (the default).
    assert!(!laqa_obs::enabled(), "obs must start disabled");
    let off = run_campaign(&spec, 2);
    let off_snapshot = laqa_obs::snapshot();
    assert!(
        off_snapshot.is_empty(),
        "disabled instrumentation recorded state: {off_snapshot:?}"
    );

    // Same sweep with every instrumentation site live.
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    let on = run_campaign(&spec, 2);
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();

    assert_eq!(
        off.fingerprint(),
        on.fingerprint(),
        "enabling obs changed the campaign fingerprint"
    );

    // The enabled run must actually have gone through the instrumented
    // paths — otherwise this test would pass vacuously.
    assert!(snap.counter("qa.ticks").unwrap_or(0) > 0, "no qa.ticks");
    assert!(
        snap.counter("engine.events").unwrap_or(0) > 0,
        "no engine.events"
    );
    assert_eq!(
        snap.counter("campaign.sessions"),
        Some(spec.len() as u64),
        "one campaign.sessions increment per session"
    );
    let dispatch = snap
        .histogram("sched.dispatch_ns")
        .expect("no sched.dispatch_ns histogram");
    assert_eq!(
        Some(dispatch.count),
        snap.counter("engine.events"),
        "every event is timed exactly once"
    );
    assert!(
        dispatch.quantile(0.99).is_some(),
        "dispatch p99 unavailable despite observations"
    );
    assert!(
        snap.histogram("sched.wheel_horizon_ns").map_or(0, |h| h.count) > 0,
        "no sched.wheel_horizon_ns observations"
    );

    // Per-session metrics are deterministic even though wall time is not.
    for (a, b) in off.sessions.iter().zip(on.sessions.iter()) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(
            a.events_processed, b.events_processed,
            "event count diverged for {:?}",
            a.spec
        );
    }

    // Flight recorder: same contract one level up. With the recorder (and
    // obs) live the fingerprint still cannot move, and the trace must
    // carry the per-session timeline sites.
    assert!(
        on.sessions.iter().all(|s| s.flight.is_empty()),
        "recorder off, yet a session carries a timeline"
    );
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    laqa_obs::flight::set_enabled(true);
    let flight_on = run_campaign(&spec, 2);
    laqa_obs::flight::set_enabled(false);
    laqa_obs::set_enabled(false);
    let flight = flight_on.flight();
    laqa_obs::reset();

    assert_eq!(
        off.fingerprint(),
        flight_on.fingerprint(),
        "enabling the flight recorder changed the campaign fingerprint"
    );
    assert!(!flight.records.is_empty(), "no flight records");
    let has = |name: &str| flight.records.iter().any(|r| r.name == name);
    assert!(has("qa.buf_base"), "no base-buffer samples in flight trace");
    assert!(
        flight
            .records
            .iter()
            .any(|r| r.kind == laqa_obs::FlightKind::State),
        "no QA phase state records in flight trace"
    );

    // Only the QA flow's own backoffs are on its track: the background
    // RAP flows share the sender shell but record nothing.
    assert!(
        !flight.records.iter().any(|r| r.name.starts_with("rap.")),
        "a rap.* record landed on a session track"
    );

    // The timeline carries every quality change and every QA backoff:
    // per session, each add, each drop (by reason) in the controller's own
    // MetricsCollector and each backoff has exactly one instant on that
    // session's track.
    let mut drops_checked = 0;
    for (i, session) in spec.sessions.iter().enumerate() {
        let metrics = run_scenario(&session.scenario()).metrics;
        let instants = |name: &str| {
            flight
                .records
                .iter()
                .filter(|r| r.session == i as u64 && r.name == name)
                .count()
        };
        let label = session.label();
        assert_eq!(instants("qa.layer_add"), metrics.adds(), "{label}: adds");
        assert_eq!(
            instants("qa.backoff") as u64,
            flight_on.sessions[i].backoffs,
            "{label}: backoffs"
        );
        for reason in [
            DropReason::InsufficientTotalBuffer,
            DropReason::DistributionShortfall,
            DropReason::Underflow,
        ] {
            let logged = metrics
                .events()
                .iter()
                .filter(|e| matches!(e, QaEvent::LayerDropped { reason: r, .. } if *r == reason))
                .count();
            let name = format!("qa.layer_drop.{}", reason.label());
            assert_eq!(instants(&name), logged, "{label}: {name}");
            drops_checked += logged;
        }
    }
    assert!(drops_checked > 0, "grid never dropped a layer");
}
