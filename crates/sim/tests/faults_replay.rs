//! Fault-injection acceptance tests: campaigns under faults must replay
//! bit-exactly per seed, actually perturb the world, and never panic or
//! starve the base layer into an unresolved stall — the §2.2 contract
//! ("quality yields before continuity") under weather the paper never
//! simulated.

use laqa_sim::campaign::{run_campaign, run_session, CampaignSpec, SessionSpec, TestKind};
use laqa_sim::Transport;
use laqa_sim::{hash_outcome, run_scenario, ScenarioConfig};

fn faulted_t1(intensity: f64, duration: f64, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::t1(2, duration, seed);
    cfg.fault_intensity = Some(intensity);
    cfg
}

#[test]
fn zero_intensity_suite_is_fingerprint_identical_to_faultless_baseline() {
    // A zero fault intensity must compose onto any scenario as a perfect
    // no-op: not "statistically similar", but the *same bits* — no
    // injector agent, no extra RNG draws, no extra scheduler events.
    for cfg in [
        ScenarioConfig::t1(2, 10.0, 7),
        ScenarioConfig::t1(4, 8.0, 42),
        ScenarioConfig::t2(2, 12.0, 21),
    ] {
        let mut faulted = cfg.clone();
        faulted.fault_intensity = Some(0.0);
        let base_out = run_scenario(&cfg);
        let faulted_out = run_scenario(&faulted);
        assert_eq!(
            hash_outcome(&base_out),
            hash_outcome(&faulted_out),
            "intensity 0.0 perturbed the trajectory"
        );
        assert_eq!(base_out.events_processed, faulted_out.events_processed);
        assert_eq!(faulted_out.fault_stats.transitions(), 0);
    }
}

#[test]
fn fault_run_replays_bit_identically_per_seed() {
    let cfg = faulted_t1(0.8, 12.0, 7);
    let a = run_scenario(&cfg);
    let b = run_scenario(&cfg);
    assert_eq!(
        hash_outcome(&a),
        hash_outcome(&b),
        "same seed + same plan must reproduce the exact trace"
    );
    assert_eq!(a.fault_stats, b.fault_stats);
}

#[test]
fn faults_actually_perturb_the_baseline() {
    let faulted = run_scenario(&faulted_t1(0.8, 12.0, 7));
    let baseline = run_scenario(&ScenarioConfig::t1(2, 12.0, 7));
    assert!(
        faulted.fault_stats.transitions() > 0,
        "the suite at 0.8 must fire within 12 s (stats: {:?})",
        faulted.fault_stats
    );
    assert_ne!(
        hash_outcome(&faulted),
        hash_outcome(&baseline),
        "an active fault plan must change the trajectory"
    );
    assert_eq!(
        baseline.fault_stats.transitions(),
        0,
        "no injector in a fault-free run"
    );
}

#[test]
fn full_intensity_sweep_survives_and_degrades_gracefully() {
    // The acceptance bar for the QA controller under the full suite: every
    // intensity completes (no panic), critical situations resolve through
    // layer drops rather than base-layer stalls, and the starvation
    // metrics come back for the run summary.
    for &intensity in &[0.25, 0.5, 1.0] {
        let out = run_scenario(&faulted_t1(intensity, 30.0, 7));
        assert!(
            out.metrics.drops() > 0,
            "intensity {intensity}: faults must force layer drops"
        );
        assert!(
            out.metrics.stalls() <= 2,
            "intensity {intensity}: base layer must stay essentially \
             continuous, got {} stalls",
            out.metrics.stalls()
        );
        assert!(
            out.base_starved_bytes.is_finite() && out.base_starved_bytes >= 0.0,
            "starvation metric must be reported"
        );
        assert!(out.events_processed > 0, "run actually simulated");
    }
}

#[test]
fn faults_campaign_fingerprint_is_thread_invariant() {
    // Long enough to pass the suite's start time (8 s) so the faulted cell
    // genuinely diverges from the baseline cell.
    let (t1, rap) = ([TestKind::T1], [Transport::Rap]);
    let spec = CampaignSpec::product(&t1, &[], &rap, &[2], &[0.0, 1.0], &[7], 12.0);
    let serial = run_campaign(&spec, 1);
    let parallel = run_campaign(&spec, 4);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "fault sweeps must stay scheduling-independent"
    );
    // The baseline and the faulted cell share seed and workload; only the
    // injector separates them.
    assert_ne!(serial.sessions[0].trace_hash, serial.sessions[1].trace_hash);
    assert_eq!(serial.sessions[0].fault_transitions, 0);
}

#[test]
fn fault_session_result_reports_recovery_metrics() {
    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        duration: 30.0,
        fault_intensity: Some(1.0),
        transport: Transport::Rap,
        trace: None,
    };
    let r = run_session(&spec);
    assert!(r.fault_transitions > 0);
    assert!(r.layer_change_rate > 0.0);
    assert!(
        r.recovery_secs_mean.is_some(),
        "a 30 s full-suite run must drop and re-add at least once"
    );
    assert!(r.recovery_secs_mean.unwrap() > 0.0);
}

#[test]
fn fault_mutations_and_trace_schedules_compose_deterministically() {
    // Campaign level: the full suite at 1.0 on an LTE trace must replay
    // bit-identically and keep both perturbation sources active.
    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 5,
        duration: 12.0,
        fault_intensity: Some(1.0),
        transport: Transport::Rap,
        trace: Some(laqa_sim::TraceKind::Lte),
    };
    let a = run_session(&spec);
    let b = run_session(&spec);
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "faults-on-trace must replay bit-identically"
    );
    assert!(a.fault_transitions > 0, "the suite must fire");
    assert!(a.trace_changes > 0, "the trace must keep applying points");
    assert!(a.stalls <= 4, "composition must stay survivable");
}

#[test]
fn trace_points_reassert_link_params_over_fault_mutations() {
    // The pinned precedence rule: last writer wins. A fault that rewrites
    // the link's bandwidth between schedule points holds exactly until the
    // trace's next point reasserts its own absolute value — the trace
    // never "remembers" the fault, and the fault never survives a point.
    // A trace owns bandwidth only, so a fault's delay outlives every point.
    use laqa_sim::{
        Agent, Ctx, LinkConfig, LinkId, LinkTracePoint, Packet, TraceDriver, TraceSchedule, World,
    };

    struct Meddler {
        link: LinkId,
    }
    impl Agent for Meddler {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(1.0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            // Stand-in for a FaultInjector degradation transition.
            ctx.set_link_bandwidth(self.link, 12_345.0);
            ctx.set_link_delay(self.link, 0.25);
        }
    }

    let pt = |at, bandwidth| LinkTracePoint { at, bandwidth };
    let mut w = World::new(7);
    let link = w.add_link(LinkConfig::default());
    let schedule = TraceSchedule::from_points(vec![pt(0.0, 100_000.0), pt(1.5, 50_000.0)]).unwrap();
    w.add_agent(Box::new(TraceDriver::new(link, schedule)));
    w.add_agent(Box::new(Meddler { link }));

    w.run_until(1.2);
    assert_eq!(
        w.link_config(link).bandwidth,
        12_345.0,
        "between schedule points the fault's value must hold"
    );
    w.run_until(2.0);
    assert_eq!(
        w.link_config(link).bandwidth,
        50_000.0,
        "the next schedule point must reassert the trace's value"
    );
    assert_eq!(
        w.link_config(link).delay,
        0.25,
        "a schedule point never overwrites the fault's delay"
    );
}
