//! Deterministic-replay guarantee: a campaign sweep produces byte-identical
//! per-seed results no matter how many worker threads run it.
//!
//! This is the contract the parallel campaign engine is built around —
//! work-stealing changes *which thread* runs a session, never *what the
//! session computes*, because every session owns its seed-derived RNG and
//! results land in spec-order slots.

use laqa_check::{cases, Gen};
use laqa_sim::{
    run_campaign, run_session, CampaignSpec, SessionSpec, TestKind, TraceKind, Transport,
};

fn sweep() -> CampaignSpec {
    CampaignSpec::grid(&TestKind::ALL, &[2, 4], &[7, 21, 42], 6.0)
}

/// Worker threads the executor actually spawns for a request: clamped to
/// the session count and the host's parallelism (PR 10 — oversubscribing
/// a small host buys no scaling, only merge overhead).
fn clamped(requested: usize, sessions: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.max(1).min(sessions.max(1)).min(cores)
}

#[test]
fn fingerprint_identical_across_1_2_and_8_threads() {
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let two = run_campaign(&spec, 2);
    let eight = run_campaign(&spec, 8);
    assert_eq!(one.fingerprint(), two.fingerprint());
    assert_eq!(one.fingerprint(), eight.fingerprint());
    assert_eq!(one.threads, 1);
    assert_eq!(two.threads, clamped(2, spec.len()));
    // Thread count is capped at the session count and host parallelism,
    // not the request.
    assert_eq!(eight.threads, clamped(8, spec.len()));
}

#[test]
fn per_session_traces_identical_across_thread_counts() {
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let eight = run_campaign(&spec, 8);
    assert_eq!(one.sessions.len(), eight.sessions.len());
    for (a, b) in one.sessions.iter().zip(&eight.sessions) {
        assert_eq!(a.spec, b.spec, "slot order must match spec order");
        assert_eq!(
            a.trace_hash,
            b.trace_hash,
            "trace diverged for {}",
            a.spec.label()
        );
        assert_eq!(
            a.efficiency.map(f64::to_bits),
            b.efficiency.map(f64::to_bits)
        );
        assert_eq!(
            a.avoidable_drops.map(f64::to_bits),
            b.avoidable_drops.map(f64::to_bits)
        );
        assert_eq!(a.quality_changes, b.quality_changes);
        assert_eq!(a.adds, b.adds);
        assert_eq!(a.drops, b.drops);
    }
}

#[test]
fn campaign_sessions_match_standalone_runs() {
    // Running a session inside a parallel campaign must give the same
    // result as running it alone — no cross-session state leaks.
    let spec = sweep();
    let campaign = run_campaign(&spec, 4);
    for (spec, from_campaign) in spec.sessions.iter().zip(&campaign.sessions) {
        let alone = run_session(spec);
        assert_eq!(
            alone.trace_hash,
            from_campaign.trace_hash,
            "campaign run of {} differs from standalone run",
            spec.label()
        );
    }
}

#[test]
fn fingerprint_identical_with_16_workers() {
    // More workers than CPU cores and (with the tiny grid below) more
    // workers than sessions: heavy oversubscription must not perturb a
    // single bit of the aggregate.
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let sixteen = run_campaign(&spec, 16);
    assert_eq!(one.fingerprint(), sixteen.fingerprint());
    assert_eq!(sixteen.threads, clamped(16, spec.len()));
}

#[test]
fn more_threads_than_sessions_clamps_and_replays() {
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], 4.0);
    let wide = run_campaign(&spec, 64);
    assert_eq!(
        wide.threads,
        clamped(64, 2),
        "threads clamp to the session count and host parallelism"
    );
    assert_eq!(wide.sessions.len(), 2);
    let narrow = run_campaign(&spec, 1);
    assert_eq!(wide.fingerprint(), narrow.fingerprint());
}

#[test]
fn empty_campaign_runs_to_an_empty_result() {
    let spec = CampaignSpec::default();
    let r = run_campaign(&spec, 8);
    assert!(r.sessions.is_empty());
    assert_eq!(r.threads, 1, "an empty sweep still clamps to one worker");
    // The fingerprint of emptiness is still well-defined and stable.
    assert_eq!(r.fingerprint(), run_campaign(&spec, 1).fingerprint());
}

/// Draw one random session: workload, smoothing, seed, duration (past the
/// QA flow's 5 s join so the controller ticks), fault intensity, transport
/// and link trace — bonded cells carry an extra bottleneck leg and a relay
/// agent, faulted ones an injector and churn sink, so consecutive draws
/// rarely share a topology.
fn gen_session(g: &mut Gen) -> SessionSpec {
    SessionSpec {
        test: if g.bool(0.7) {
            TestKind::T1
        } else {
            TestKind::T2
        },
        k_max: *g.pick(&[1, 2, 4]),
        seed: g.u64_in(1, 1 << 40),
        duration: g.f64_range(5.5, 7.5),
        fault_intensity: g.bool(0.4).then(|| g.f64_range(0.3, 1.0)),
        transport: *g.pick(&Transport::ALL),
        trace: g.bool(0.5).then(|| *g.pick(&TraceKind::ALL)),
    }
}

#[test]
fn random_campaign_cells_match_isolated_sessions() {
    // The fixed grids above only ever hand a worker same-shaped sessions.
    // Here a campaign is a list of independently drawn sessions (so their
    // order is already a random shuffle): consecutive cells on one worker
    // differ in link count, agent count or queue kind — and each cell
    // must still equal the same spec run alone.
    cases("random_campaign_cells_match_isolated", 4, |g, case| {
        let spec = CampaignSpec {
            sessions: (0..g.usize_in(5, 8)).map(|_| gen_session(g)).collect(),
        };
        let campaign = run_campaign(&spec, g.usize_in(1, 2));
        for (i, (spec, cell)) in spec.sessions.iter().zip(&campaign.sessions).enumerate() {
            let alone = run_session(spec);
            assert_eq!(
                cell.trace_hash,
                alone.trace_hash,
                "case {case}: cell {i} ({}) differs from its isolated run",
                spec.label()
            );
            assert_eq!(cell.events_processed, alone.events_processed);
        }
    });
}

#[test]
fn different_seeds_produce_different_traces() {
    // Guards against a bug where the seed is ignored and every session
    // replays the same history (which would make the replay tests above
    // pass vacuously).
    let spec = sweep();
    let result = run_campaign(&spec, 2);
    let mut hashes: Vec<u64> = result.sessions.iter().map(|s| s.trace_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), spec.len(), "duplicate traces across the grid");
}
