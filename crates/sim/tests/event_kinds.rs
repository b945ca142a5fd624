//! The per-kind event split on one T1 cell: the four
//! `engine.events.{link_done,forward,deliver,timer}` counters partition
//! the session's `events_processed`, and `engine.events` (folded once per
//! `run_until` beside them) equals it too. Timer fires that did nothing
//! (`engine.events.timer_stale`) stay under 1 % of the events: the TCP
//! RTO keeps one live event instead of one per ACK (≈ 5 % before).
//!
//! A test binary of its own: the obs registry is process-global, and no
//! other session may run while the flag is up.

use laqa_sim::{run_scenario, ScenarioConfig};

#[test]
fn event_kind_counts_sum_to_events_processed() {
    laqa_obs::set_enabled(true);
    let outcome = run_scenario(&ScenarioConfig::t1(2, 10.0, 7));
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let kinds = ["link_done", "forward", "deliver", "timer"]
        .map(|kind| count(&format!("engine.events.{kind}")));
    assert!(kinds.iter().all(|&n| n > 0), "a kind never fired: {kinds:?}");
    assert_eq!(kinds.iter().sum::<u64>(), outcome.events_processed);
    assert_eq!(count("engine.events"), outcome.events_processed);
    let stale = count("engine.events.timer_stale");
    assert!(
        stale * 100 < outcome.events_processed,
        "{stale} stale timer fires of {} events",
        outcome.events_processed
    );
    let early = snap.counter("engine.events.timer_early");
    assert!(early.is_some(), "timer_early not folded");
}
