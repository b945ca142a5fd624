//! The repo's pinned campaign digests, asserted exactly.
//!
//! Every behaviour-preserving PR claims "fp0 and the interop / hostile
//! / fault digests are unchanged"; this is the test that holds it to
//! that. The eleven campaigns below are recomputed and compared bit for bit with the
//! constants in this file — under default options, and at another
//! thread count — so a change that moves a simulated trajectory fails
//! `cargo test`, and one that moves it on purpose has to edit a constant
//! in the same diff. The digests date from before the timer wheel: the
//! original `BinaryHeap` queue produced them, so they also hold the wheel
//! to the heap at the world level.

use laqa_sim::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind, TraceKind, Transport};

/// T1 × K{2,4} × seeds {7,21,35,49,63,77,91,105} × 8 s, RAP, steady links.
const FP0: u64 = 0xf4a4_0c57_8d4c_39c8;

/// T1 × K2 × seeds {7,21} × 8 s per transport, in [`Transport::ALL`] order.
const INTEROP: [u64; 4] = [
    0xb89d_8b99_0c73_b861, // rap
    0x0437_deb8_c295_653b, // bbr
    0x9ae4_95b6_5bad_265d, // nada
    // tcp: 47dd5aaa0e7dcc11 until WindowSender's timeout deadline became
    // the shell's (the estimator's RTO, reset on ACK progress) instead of
    // compounding that RTO by 2^timeouts_in_row again.
    0xeb46_7c35_bcc0_a601, // tcp
];

/// The same grid per hostile trace family, in [`TraceKind::ALL`] order.
const HOSTILE: [u64; 4] = [
    0xeaf2_2ef9_d9a0_92a6, // lte
    0xa411_6560_e56d_4593, // bloat
    0x357c_3dca_3dd9_51e8, // diurnal
    0x4601_75e6_970a_4a9b, // bonded
];

/// T1 × K2 × intensities {0.5, 1.0} × seeds {7,21} × 30 s: past the
/// suite's 8 s start, so every fault family fires.
const FAULTS: u64 = 0x58f5_e62b_7b5e_cc3b;

/// T1 × every hostile trace × RAP × K2 × seeds {7,21} × 20 s with the
/// full fault suite composed on top.
const HOSTILE_FAULTS: u64 = 0xeda0_3b94_e498_0f46;

/// Past `qa_start` (5 s), so the QA controller ticks in every session.
const DURATION: f64 = 8.0;

/// `(name, campaign, pinned digest)` for all eleven pins.
fn pins() -> Vec<(String, CampaignSpec, u64)> {
    let seeds = [7, 21, 35, 49, 63, 77, 91, 105];
    let small = |traces: &[TraceKind], transport: Transport| {
        let (t1, k2) = ([TestKind::T1], [2]);
        CampaignSpec::product(&t1, traces, &[transport], &k2, &[0.0], &[7, 21], DURATION)
    };
    let mut pins = vec![(
        "fp0".to_string(),
        CampaignSpec::grid(&[TestKind::T1], &[2, 4], &seeds, DURATION),
        FP0,
    )];
    for (transport, want) in Transport::ALL.into_iter().zip(INTEROP) {
        let name = format!("interop/{}", transport.label());
        pins.push((name, small(&[], transport), want));
    }
    for (trace, want) in TraceKind::ALL.into_iter().zip(HOSTILE) {
        let name = format!("hostile/{}", trace.label());
        pins.push((name, small(&[trace], Transport::Rap), want));
    }
    let (t1, rap) = ([TestKind::T1], [Transport::Rap]);
    pins.push((
        "faults".to_string(),
        CampaignSpec::product(&t1, &[], &rap, &[2], &[0.5, 1.0], &[7, 21], 30.0),
        FAULTS,
    ));
    pins.push((
        "hostile+faults".to_string(),
        CampaignSpec::product(&t1, &TraceKind::ALL, &rap, &[2], &[1.0], &[7, 21], 20.0),
        HOSTILE_FAULTS,
    ));
    pins
}

/// Recompute every pin with `fingerprint` and fail, listing all eleven, if
/// any differs from its constant.
fn assert_pinned(how: &str, fingerprint: impl Fn(&CampaignSpec) -> u64) {
    let mut moved = 0;
    let mut report = String::new();
    for (name, spec, want) in pins() {
        let got = fingerprint(&spec);
        moved += usize::from(got != want);
        report.push_str(&format!(
            "  {name:<16} expected {want:016x}  actual {got:016x}  {}\n",
            if got == want { "ok" } else { "MOVED" }
        ));
    }
    assert!(
        moved == 0,
        "{moved} pinned fingerprint(s) moved ({how}):\n{report}\
         If the simulated behaviour was meant to change, copy the `actual` values into the \
         constants in crates/sim/tests/pinned_fingerprints.rs and say why in CHANGES.md."
    );
}

#[test]
fn pinned_under_default_options() {
    assert_pinned("default options, 1 thread", |spec| {
        run_campaign_opts(spec, CampaignOptions::new(1)).fingerprint()
    });
}

#[test]
fn pinned_at_another_thread_count() {
    assert_pinned("default options, 2 threads", |spec| {
        run_campaign_opts(spec, CampaignOptions::new(2)).fingerprint()
    });
}
