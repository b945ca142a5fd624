//! QA × transport interop matrix acceptance tests.
//!
//! The quality-adaptation machine runs over any [`laqa_rap::RateController`];
//! these tests pin the contract of the `transport` campaign axis that runs
//! the paper's workloads under RAP, a BBR-style delivery-rate controller, a
//! NADA-style delay-gradient controller, and the ACK-clocked TCP baseline:
//!
//! - RAP cells keep byte-identical labels and summary parameters (the axis
//!   must be invisible to every historical golden);
//! - every transport completes the paper's scenarios with finite,
//!   non-degenerate metrics and a per-seed deterministic trace.

use laqa_sim::{run_campaign, CampaignSpec, ScenarioConfig, SessionSpec, TestKind, Transport};

fn spec_for(transport: Transport) -> SessionSpec {
    SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        duration: 10.0,
        fault_intensity: None,
        transport,
        trace: None,
    }
}

#[test]
fn product_enumerates_transport_major() {
    let spec = CampaignSpec::product(
        &[TestKind::T1],
        &[],
        &Transport::ALL,
        &[2, 4],
        &[0.0],
        &[7, 21],
        8.0,
    );
    assert_eq!(spec.sessions.len(), 4 * 2 * 2);
    // Transport-major: each controller's cells stay contiguous, and the
    // leading block is the unchanged RAP grid.
    for (i, s) in spec.sessions.iter().enumerate() {
        assert_eq!(s.transport, Transport::ALL[i / 4]);
    }
    assert_eq!(spec.sessions[0].label(), "T1/k2/seed7");
    assert_eq!(spec.sessions[4].label(), "T1/k2/seed7/bbr");
    assert_eq!(spec.sessions[8].label(), "T1/k2/seed7/nada");
    assert_eq!(spec.sessions[12].label(), "T1/k2/seed7/tcp");
}

#[test]
fn rap_labels_and_summaries_stay_backcompat() {
    // The default transport must not change a single byte of the label or
    // the summary parameter set: goldens and EXPERIMENTS.md tooling key on
    // both.
    let rap = spec_for(Transport::Rap);
    assert_eq!(rap.label(), "T1/k2/seed7");
    let bbr = spec_for(Transport::Bbr);
    assert_eq!(bbr.label(), "T1/k2/seed7/bbr");

    let result = run_campaign(
        &CampaignSpec {
            sessions: vec![rap, bbr],
        },
        1,
    );
    let rap_summary = result.sessions[0].summary();
    assert!(
        !rap_summary.params.contains_key("transport"),
        "RAP rows must keep the historical parameter set"
    );
    let bbr_summary = result.sessions[1].summary();
    assert_eq!(
        bbr_summary.params.get("transport").map(String::as_str),
        Some("bbr")
    );
}

#[test]
fn with_transport_threads_the_nominal_decrease_factor() {
    // The tentpole bugfix: the QA geometry's per-backoff decrease factor
    // must follow the controller instead of hardcoding AIMD's ½.
    let cases = [
        (Transport::Rap, 0.5),
        (Transport::Tcp, 0.5),
        (Transport::Bbr, laqa_rap::bbr::LOSS_BETA),
        (Transport::Nada, laqa_rap::nada::NOMINAL_GAMMA),
    ];
    for (transport, expect) in cases {
        let cfg = ScenarioConfig::t1(2, 8.0, 7).with_transport(transport);
        assert_eq!(cfg.transport, transport);
        assert_eq!(
            cfg.qa.decrease_factor,
            expect,
            "{} must install its nominal decrease factor",
            transport.label()
        );
    }
    // The geometry's assumed factor is the one each controller reports.
    let rap = ScenarioConfig::t1(2, 8.0, 7).rap;
    for transport in Transport::ALL {
        assert_eq!(
            transport.controller(&rap).decrease_factor(),
            transport.nominal_decrease(),
            "{}: nominal_decrease and the controller's decrease_factor disagree",
            transport.label()
        );
    }
}

#[test]
fn every_transport_produces_finite_metrics_and_replays() {
    for &transport in Transport::ALL.iter() {
        let spec = CampaignSpec {
            sessions: vec![spec_for(transport)],
        };
        let a = run_campaign(&spec, 1);
        let b = run_campaign(&spec, 1);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{}: same seed must replay bit-identically",
            transport.label()
        );
        let s = &a.sessions[0];
        assert!(
            s.backoffs > 0,
            "{}: the bottleneck must force at least one backoff",
            transport.label()
        );
        assert!(
            s.layer_change_rate.is_finite() && s.layer_change_rate >= 0.0,
            "{}: layer change rate {} must be finite",
            transport.label(),
            s.layer_change_rate
        );
        assert!(
            s.base_starved_bytes.is_finite() && s.base_starved_bytes >= 0.0,
            "{}: base starvation {} must be finite",
            transport.label(),
            s.base_starved_bytes
        );
        if let Some(r) = s.recovery_secs_mean {
            assert!(
                r.is_finite() && r >= 0.0,
                "{}: recovery time {r} must be finite",
                transport.label()
            );
        }
        assert_eq!(
            s.stalls,
            0,
            "{}: a fault-free run must never stall the base layer",
            transport.label()
        );
    }
}

#[test]
fn transports_actually_diverge_from_rap() {
    // The axis must not be cosmetic: a non-RAP controller has to change
    // the simulated trajectory, not just the label.
    let rap = run_campaign(
        &CampaignSpec {
            sessions: vec![spec_for(Transport::Rap)],
        },
        1,
    );
    for &transport in &[Transport::Bbr, Transport::Nada, Transport::Tcp] {
        let other = run_campaign(
            &CampaignSpec {
                sessions: vec![spec_for(transport)],
            },
            1,
        );
        assert_ne!(
            rap.sessions[0].trace_hash,
            other.sessions[0].trace_hash,
            "{}: transport axis changed nothing",
            transport.label()
        );
    }
}

#[test]
fn faulted_interop_cells_complete_under_every_transport() {
    // The faults suite re-run across the matrix: every controller must
    // survive the full-intensity suite without panicking or starving the
    // base layer into an unresolved stall.
    let t1 = [TestKind::T1];
    let spec = CampaignSpec::product(&t1, &[], &Transport::ALL, &[2], &[1.0], &[7], 12.0);
    let result = run_campaign(&spec, 2);
    for s in &result.sessions {
        assert!(
            s.fault_transitions > 0,
            "{}: the suite at 1.0 must fire within 12 s",
            s.spec.label()
        );
        assert!(
            s.layer_change_rate.is_finite(),
            "{}: metrics must stay finite under faults",
            s.spec.label()
        );
        // RAP is the tuned controller the paper's continuity contract is
        // written against; the other transports are characterized, not
        // tuned, so they get a looser bound that still catches a
        // controller wedging the base layer outright.
        let stall_budget = if s.spec.transport == Transport::Rap {
            2
        } else {
            8
        };
        assert!(
            s.stalls <= stall_budget,
            "{}: base layer must stay essentially continuous (stalls {})",
            s.spec.label(),
            s.stalls
        );
    }
}
