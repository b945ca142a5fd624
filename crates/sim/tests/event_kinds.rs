//! The per-kind event split on one T1 cell: the four
//! `engine.events.{link_done,forward,deliver,timer}` counters partition
//! the session's `events_processed`, and `engine.events` (folded once per
//! `run_until` beside them) equals it too.
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
}
