//! Differential suite for the hostile-network (TraceLink) campaign axis.
//!
//! A trace-driven cell is only usable as a regression anchor if its
//! fingerprint survives every thread-count choice. This suite runs a
//! hostile grid — every [`TraceKind`] including the bonded two-path
//! cell — on 1, 2 and 8 threads and demands cell-by-cell trace-hash
//! equality, then composes
//! the full-intensity fault suite on top of an LTE/bufferbloat trace and
//! demands the run both survives and replays bit-identically.

use laqa_sim::{
    run_campaign_opts, CampaignOptions, CampaignSpec, SessionResult, TestKind, TraceKind, Transport,
};

fn hostile_spec(duration: f64, fault_intensity: Option<f64>) -> CampaignSpec {
    CampaignSpec::hostile_grid(
        &[TestKind::T1],
        &TraceKind::ALL,
        &[Transport::Rap],
        &[2],
        &[11],
        duration,
        fault_intensity,
    )
}

fn cell_hashes(results: &[SessionResult]) -> Vec<(String, u64)> {
    results
        .iter()
        .map(|s| (s.spec.label(), s.trace_hash))
        .collect()
}

#[test]
fn hostile_grid_is_invariant_across_thread_counts() {
    let spec = hostile_spec(6.0, None);
    assert_eq!(spec.sessions.len(), TraceKind::ALL.len());

    let baseline = run_campaign_opts(&spec, CampaignOptions::new(1));
    for s in &baseline.sessions {
        assert!(
            s.trace_changes > 0,
            "{}: the trace must actually move the link",
            s.spec.label()
        );
    }
    let want = cell_hashes(&baseline.sessions);

    for threads in [2usize, 8] {
        let got = run_campaign_opts(&spec, CampaignOptions::new(threads));
        assert_eq!(
            cell_hashes(&got.sessions),
            want,
            "{threads} threads diverged cell-by-cell"
        );
        assert_eq!(
            got.fingerprint(),
            baseline.fingerprint(),
            "{threads} threads: campaign fingerprint drifted"
        );
    }
}

#[test]
fn bonded_cell_stripes_across_both_legs() {
    let spec = CampaignSpec::hostile_grid(
        &[TestKind::T1],
        &[TraceKind::Bonded],
        &[Transport::Rap],
        &[2],
        &[11],
        8.0,
        None,
    );
    let result = run_campaign_opts(&spec, CampaignOptions::new(1));
    let s = &result.sessions[0];
    let leg_bytes = s
        .bond_leg_bytes
        .expect("bonded cell must report second-leg stats");
    assert!(
        leg_bytes > 0,
        "the second path must carry real traffic, not just exist"
    );
    assert!(
        s.layer_change_rate.is_finite() && s.backoffs > 0,
        "bonded cell must complete with sane metrics"
    );
}

#[test]
fn hostile_cells_diverge_from_the_steady_baseline_and_each_other() {
    // The axis must not be cosmetic: each trace family has to change the
    // trajectory, and the families must be mutually distinguishable.
    let steady = CampaignSpec::grid(&[TestKind::T1], &[2], &[11], 6.0);
    let flat = run_campaign_opts(&steady, CampaignOptions::new(1));
    let hostile = run_campaign_opts(&hostile_spec(6.0, None), CampaignOptions::new(1));
    let mut seen = vec![flat.sessions[0].trace_hash];
    for s in &hostile.sessions {
        assert!(
            !seen.contains(&s.trace_hash),
            "{}: trace cell collided with an earlier trajectory",
            s.spec.label()
        );
        seen.push(s.trace_hash);
    }
}

#[test]
fn faults_compose_with_traces_at_full_intensity() {
    // The hardest cell in the corpus: the complete fault suite at
    // intensity 1.0 running on top of a hostile trace. It must survive
    // with bounded base-layer damage and replay bit-identically at
    // another thread count.
    let spec = CampaignSpec::hostile_grid(
        &[TestKind::T1],
        &[TraceKind::Lte, TraceKind::Bloat],
        &[Transport::Rap],
        &[2],
        &[11],
        12.0,
        Some(1.0),
    );
    let a = run_campaign_opts(&spec, CampaignOptions::new(2));
    let b = run_campaign_opts(&spec, CampaignOptions::new(1));
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "faults-on-trace must stay thread-invariant"
    );
    for s in &a.sessions {
        assert!(
            s.fault_transitions > 0,
            "{}: the suite at 1.0 must fire within 12 s",
            s.spec.label()
        );
        assert!(
            s.trace_changes > 0,
            "{}: the trace must keep moving under faults",
            s.spec.label()
        );
        assert!(
            s.layer_change_rate.is_finite() && s.base_starved_bytes.is_finite(),
            "{}: metrics must stay finite",
            s.spec.label()
        );
        assert!(
            s.stalls <= 4,
            "{}: base layer must not wedge (stalls {})",
            s.spec.label(),
            s.stalls
        );
    }
}
