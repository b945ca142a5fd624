//! Warm-pool correctness for trace-driven (TraceLink) cells.
//!
//! A recycled link shell must start the next session with no stale
//! schedule and no mid-trace cursor — [`laqa_sim::Link::reset`] discards
//! the [`laqa_sim::LinkTraceState`] when `World::add_link` hands the
//! shell out again. If it didn't, a hostile cell retired into the pool
//! could bleed its half-replayed schedule into whichever session reuses
//! the shell next. This suite pins both layers of that contract:
//!
//! - engine-level: after salvage + rebuild, the recycled link carries no
//!   trace state until the new session attaches one;
//! - campaign-level: warm and cold executors produce
//!   fingerprint-identical results on a mixed traced/untraced grid, in
//!   both interleavings (traced-then-steady and steady-then-traced).

use laqa_sim::{
    run_campaign_opts, run_session_pooled, run_session_with, CampaignOptions, CampaignSpec,
    LinkConfig, SchedulerKind, SessionSpec, TestKind, TraceKind, TraceSchedule, Transport, World,
    WorldPool,
};

fn spec(seed: u64, trace: Option<TraceKind>) -> SessionSpec {
    SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed,
        duration: 6.0,
        fault_intensity: None,
        transport: Transport::Rap,
        trace,
    }
}

#[test]
fn recycled_link_shells_carry_no_trace_state() {
    let mut w = World::new(7);
    let link = w.add_link(LinkConfig::default());
    w.set_link_trace(link, TraceSchedule::lte(7, 100_000.0, 10.0));
    assert!(w.link_trace(link).is_some());

    // Rebuild from the salvage, exactly like a warm campaign worker.
    let salvage = w.salvage();
    let mut w = World::with_salvage(21, SchedulerKind::Wheel, salvage);
    let link = w.add_link(LinkConfig::default());
    assert!(
        w.link_trace(link).is_none(),
        "Link::reset must discard the previous session's schedule and cursor"
    );
}

#[test]
fn traced_sessions_replay_identically_through_a_warm_pool() {
    let traced = spec(11, Some(TraceKind::Lte));
    let steady = spec(11, None);
    let mut pool = WorldPool::new();

    // Interleave traced and steady sessions through ONE pool so every
    // session after the first runs on recycled shells from the other
    // kind, then compare each against its cold standalone twin.
    let warm: Vec<u64> = [&traced, &steady, &traced, &steady, &traced]
        .iter()
        .map(|s| run_session_pooled(s, SchedulerKind::Wheel, &mut pool).trace_hash)
        .collect();
    let cold_traced = run_session_with(&traced, SchedulerKind::Wheel).trace_hash;
    let cold_steady = run_session_with(&steady, SchedulerKind::Wheel).trace_hash;
    assert_eq!(
        warm,
        vec![cold_traced, cold_steady, cold_traced, cold_steady, cold_traced],
        "warm-pool reuse must be invisible to traced and steady cells alike"
    );
}

#[test]
fn hostile_campaign_fingerprints_agree_warm_and_cold() {
    // Mixed grid: every trace family plus an untraced control, same seed,
    // so executor shells get recycled across cell kinds.
    let mut sessions = vec![spec(11, None)];
    sessions.extend(TraceKind::ALL.iter().map(|&t| spec(11, Some(t))));
    let grid = CampaignSpec { sessions };

    let warm = run_campaign_opts(&grid, CampaignOptions::new(1));
    let cold = run_campaign_opts(&grid, CampaignOptions::new(1).cold());
    assert_eq!(
        warm.fingerprint(),
        cold.fingerprint(),
        "warm pools must not perturb hostile cells"
    );
}
