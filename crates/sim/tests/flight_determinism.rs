//! Flight-recorder determinism: two identical multi-worker campaign runs
//! must merge to byte-identical Chrome trace exports.
//!
//! The work-stealing executor assigns cells to workers nondeterministically,
//! so this only holds because each session's records travel in its own
//! result, stamped with deterministic sim time, and the trace places them
//! by grid index. A single test function keeps the global flight toggle
//! race-free within this binary.

use laqa_sim::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind};

#[test]
fn eight_worker_flight_exports_are_byte_identical() {
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2, 4], &[7, 21, 35, 49], 6.0);
    assert_eq!(spec.len(), 8, "one session per worker");

    let run = || {
        laqa_obs::flight::set_enabled(true);
        let result = run_campaign_opts(&spec, CampaignOptions::new(8));
        laqa_obs::flight::set_enabled(false);
        (result.fingerprint(), result.flight())
    };
    let (fp_a, trace_a) = run();
    let (fp_b, trace_b) = run();

    assert_eq!(fp_a, fp_b, "campaign itself must replay bit-identically");
    assert!(
        !trace_a.records.is_empty(),
        "flight recorder produced no records with recording enabled"
    );

    let chrome_a = trace_a.to_chrome().to_compact();
    let chrome_b = trace_b.to_chrome().to_compact();
    assert_eq!(
        chrome_a, chrome_b,
        "merged chrome export must be byte-identical across 8-worker runs"
    );

    let parsed = laqa_trace::parse_json(&chrome_a).expect("export parses");
    let stats = laqa_trace::validate_chrome(&parsed).expect("export validates");
    assert_eq!(
        stats.session_tracks(),
        8,
        "one non-empty track per campaign session"
    );

    // The flight JSON round-trip must reproduce the same export too, so
    // `campaign --obs DIR` + `laqa obs-trace` sees exactly this trace.
    let flight_json = trace_a.to_json().to_compact();
    let reloaded = laqa_obs::FlightTrace::from_json(
        &laqa_trace::parse_json(&flight_json).expect("flight.json parses"),
    )
    .expect("flight.json round-trips");
    assert_eq!(reloaded.to_chrome().to_compact(), chrome_a);
}
