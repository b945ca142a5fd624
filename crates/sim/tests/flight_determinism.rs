//! Flight-recorder determinism: two identical multi-worker campaign runs
//! must merge to byte-identical Chrome trace exports.
//!
//! The work-stealing executor assigns cells to workers nondeterministically,
//! so this only holds because each session's records travel in its own
//! result, stamped with deterministic sim time, and the export places
//! them by grid index. A single test function keeps the global flight toggle
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
        let tracks = result.sessions.iter().map(|s| s.flight.as_slice());
        let chrome = laqa_obs::flight::to_chrome(tracks).to_compact();
        (result.fingerprint(), chrome)
    };
    let (fp_a, chrome_a) = run();
    let (fp_b, chrome_b) = run();

    assert_eq!(fp_a, fp_b, "campaign itself must replay bit-identically");
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
}
