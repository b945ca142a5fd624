//! The per-kind event split on one T1 cell: the five
//! `engine.events.{link_done,forward,deliver,timer,arrive_stale}` counters
//! partition the session's `events_processed`, and `engine.events` equals
//! it too: the world adds its counts to the obs view once, when
//! `run_scenario` drops it. Timer fires that did nothing
//! (`engine.events.timer_stale`) stay under 1 % of the events: the TCP RTO
//! keeps one live event instead of one per ACK (≈ 5 % before).
//! Link-dones stay under a fifth of the events: a hop is one `Arrive`, and
//! a link-done fires only for a packet that waited (17.1 % on this cell;
//! 43.4 % when every hop cost both).
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
    assert!(
        kinds.iter().all(|&n| n > 0),
        "a kind never fired: {kinds:?}"
    );
    // No delay changes on a T1 cell, so no `Arrive` is ever superseded.
    assert_eq!(count("engine.events.arrive_stale"), 0);
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
    let link_done = kinds[0];
    assert!(
        link_done * 5 < outcome.events_processed,
        "{link_done} link-dones of {} events",
        outcome.events_processed
    );
}
