//! Differential replay: the timer-wheel scheduler must be observationally
//! indistinguishable from the reference `BinaryHeap` scheduler.
//!
//! Every test runs the same workload once per [`SchedulerKind`] and
//! requires bit-identical trace fingerprints. The heap implementation is
//! the oracle — it is the original engine queue kept verbatim — so any
//! divergence is a wheel ordering bug, not a tolerance question. Covered
//! surface: the goldens' scenario configs (T1/T2 across `K_max`), the
//! fault suite across intensities, and the threaded campaign grid.

use laqa_sim::campaign::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind};
use laqa_sim::faults::FaultPlan;
use laqa_sim::{hash_outcome, run_scenario_with, ScenarioConfig, SchedulerKind};

/// Run `cfg` under both schedulers and assert identical outcome hashes.
fn assert_scenario_agrees(cfg: &ScenarioConfig, what: &str) {
    let heap = run_scenario_with(cfg, SchedulerKind::Reference);
    let wheel = run_scenario_with(cfg, SchedulerKind::Wheel);
    assert_eq!(
        hash_outcome(&heap),
        hash_outcome(&wheel),
        "{what}: wheel trace diverged from heap oracle"
    );
    assert_eq!(
        heap.events_processed, wheel.events_processed,
        "{what}: event counts diverged"
    );
    assert_eq!(heap.fault_stats, wheel.fault_stats);
}

#[test]
fn goldens_scenarios_agree_between_schedulers() {
    // The scenario configs underlying the repo's golden traces: T1 across
    // the K_max values the figures sweep, and T2 with its CBR burst.
    for k in [1, 2, 4] {
        assert_scenario_agrees(&ScenarioConfig::t1(k, 10.0, 7), &format!("t1 k={k}"));
    }
    assert_scenario_agrees(&ScenarioConfig::t2(2, 12.0, 21), "t2 k=2");
}

#[test]
fn smoothing_sweep_agrees_between_schedulers() {
    // The figure-12 style sweep varies the QA smoothing horizon; each
    // point is a distinct event-cadence pattern for the scheduler.
    for k in [1, 3] {
        for seed in [7, 42] {
            let cfg = ScenarioConfig::t1(k, 8.0, seed);
            assert_scenario_agrees(&cfg, &format!("smoothing k={k} seed={seed}"));
        }
    }
}

#[test]
fn fault_suite_agrees_between_schedulers_across_intensities() {
    // Faults exercise the scheduler paths a clean run never touches:
    // cancels (link-down flushes), same-tick cascades from burst loss,
    // and long-horizon church timers that land in the overflow tree.
    for &intensity in &[0.0, 0.5, 1.0] {
        let mut cfg = ScenarioConfig::t1(2, 12.0, 7);
        cfg.faults = FaultPlan::suite(intensity);
        assert_scenario_agrees(&cfg, &format!("fault suite intensity={intensity}"));
    }
}

#[test]
fn campaign_grid_agrees_between_schedulers_and_thread_counts() {
    // The full cross product: 2 schedulers × {1, 2, 8} threads must give
    // one fingerprint. This pins both invariants at once — scheduler
    // independence and thread-count independence — and guards their
    // interaction (per-thread worlds each build their own scheduler).
    let spec = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 6.0);
    let oracle = CampaignOptions::new(1).sched(SchedulerKind::Reference);
    let reference = run_campaign_opts(&spec, oracle);
    let fp = reference.fingerprint();
    for kind in SchedulerKind::ALL {
        for threads in [1, 2, 8] {
            let got = run_campaign_opts(&spec, CampaignOptions::new(threads).sched(kind));
            assert_eq!(
                got.fingerprint(),
                fp,
                "campaign fingerprint diverged under {} with {threads} threads",
                kind.label()
            );
        }
    }
}

#[test]
fn faulted_campaign_agrees_between_schedulers() {
    let spec = CampaignSpec::faults_grid(&[TestKind::T1], &[2], &[0.0, 1.0], &[7], 12.0);
    let two = CampaignOptions::new(2);
    let heap = run_campaign_opts(&spec, two.sched(SchedulerKind::Reference));
    let wheel = run_campaign_opts(&spec, two.sched(SchedulerKind::Wheel));
    assert_eq!(heap.fingerprint(), wheel.fingerprint());
    for (a, b) in heap.sessions.iter().zip(&wheel.sessions) {
        assert_eq!(a.trace_hash, b.trace_hash, "cell {} diverged", a.spec.label());
        assert_eq!(a.fault_transitions, b.fault_transitions);
    }
}
