//! Steady-state allocation guard for the warm-world campaign path and the
//! in-place state-sequence rebuild.
//!
//! PR 4 pinned the in-session allocator win (266k → 29k allocs per run);
//! this pins the two reuse paths that remain. Once a worker's
//! [`WorldPool`] is warm, the next session must run within a small fixed
//! allocation budget — engine storage (scheduler slab, link ring buffers,
//! agents vector) is recycled, so only agent construction, trace growth
//! and result extraction still allocate. And once a [`StateSequence`] has
//! held as many states as an operating point needs, rebuilding it for
//! that point allocates nothing: the per-tick rebuild is what made a
//! geometry memo look worthwhile, and the memo is gone.
//!
//! Lives in `crates/bench/tests` because the laqa crates are
//! `deny(unsafe_code)` and the counting `#[global_allocator]` is the one
//! unavoidable unsafe surface. Single `#[test]` on purpose: the counter is
//! process-global, and sibling tests running on other threads would bleed
//! into the measurement.

use laqa_core::StateSequence;
use laqa_sim::{
    run_campaign_opts, run_session_pooled, run_session_with, CampaignOptions, CampaignSpec,
    SchedulerKind, SessionSpec, TestKind, Transport, WorldPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations allowed for a warm pool's second session. Measured: 1 880
/// at 8 s (agent construction, trace growth, result extraction clones).
/// The budget leaves slack for allocator-library drift without letting a
/// cold-start regression sneak past.
const WARM_SESSION_ALLOC_BUDGET: u64 = 2_000;

/// Same for the cold first session (measured: 1 957), so the in-session
/// paths — the per-tick sequence rebuild above all — cannot quietly start
/// allocating again.
const COLD_SESSION_ALLOC_BUDGET: u64 = 2_100;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - a0, out)
}

/// `rebuild_with` on a warmed sequence — one that already holds at least
/// as many states and layers as the new operating point needs — allocates
/// nothing while the path has at most 20 states (the stable sort's
/// in-place range) and at most the sort's one scratch buffer above that.
fn assert_warmed_rebuild_allocates_nothing() {
    let mut seq = StateSequence::default();
    let mut checked_above_20 = false;
    // The default horizon of 16 yields up to 31 states; gentler decrease
    // factors raise k1 and shrink the path.
    for (k_horizon, factor) in [(8u32, 0.5), (16, 0.5), (16, 0.7), (16, 0.85), (32, 0.5)] {
        for n in (1..=6usize).rev() {
            for x in [0.6, 1.0, 1.7, 3.1] {
                let rate = x * n as f64 * 10_000.0;
                let mut rebuild = || {
                    let held = (seq.states.len(), seq.n_active);
                    let (allocs, ()) = allocs_during(|| {
                        seq.rebuild_with(rate, n, 10_000.0, 25_000.0, k_horizon, factor)
                    });
                    (held, allocs)
                };
                // First visit may grow the sequence; the repeat never does.
                let first = rebuild();
                let repeat = rebuild();
                let states = seq.states.len();
                assert!(states > 0, "every point here has a draining phase");
                checked_above_20 |= states > 20;
                for ((held_states, held_layers), allocs) in [first, repeat] {
                    if held_states >= states && held_layers >= n {
                        assert!(
                            allocs <= u64::from(states > 20),
                            "warmed rebuild to {states} states x {n} layers \
                             (k_h {k_horizon}, f {factor}) allocated {allocs} times"
                        );
                    }
                }
            }
        }
    }
    assert!(checked_above_20, "the walk must reach the sort-scratch range");
}

#[test]
fn warm_sessions_and_rebuilds_stay_under_alloc_budgets() {
    assert_warmed_rebuild_allocates_nothing();

    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        // Past qa_start (5 s): the QA controller must actually tick.
        duration: 8.0,
        fault_intensity: None,
        transport: Transport::Rap,
        trace: None,
    };
    let mut pool = WorldPool::new();

    // Session 1: cold — pays world construction.
    let (cold_allocs, first) =
        allocs_during(|| run_session_pooled(&spec, SchedulerKind::Wheel, &mut pool));
    assert!(pool.is_warm(), "pool must bank the retired world");

    // Session 2: steady state — the guarded measurement.
    let (warm_allocs, second) =
        allocs_during(|| run_session_pooled(&spec, SchedulerKind::Wheel, &mut pool));

    assert_eq!(
        first.trace_hash, second.trace_hash,
        "same spec through the same pool must replay bit-identically"
    );
    let standalone = run_session_with(&spec, SchedulerKind::Wheel);
    assert_eq!(
        standalone.trace_hash, second.trace_hash,
        "pooled session must match a cold standalone run"
    );

    assert!(
        warm_allocs <= WARM_SESSION_ALLOC_BUDGET,
        "steady-state warm session allocated {warm_allocs} times \
         (budget {WARM_SESSION_ALLOC_BUDGET}); the warm-world reuse path regressed"
    );
    assert!(
        cold_allocs <= COLD_SESSION_ALLOC_BUDGET,
        "cold session allocated {cold_allocs} times (budget {COLD_SESSION_ALLOC_BUDGET})"
    );

    // Bench-path parity: the exact comparison BENCH_campaign.json makes.
    // A warm campaign (pooled worlds — the default) must not allocate
    // more per session than the same grid run cold; the counts are
    // deterministic, so an exact <= holds.
    let parity = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 8.0);
    let (warm_total, warm_campaign) =
        allocs_during(|| run_campaign_opts(&parity, CampaignOptions::new(1)));
    let (cold_total, cold_campaign) =
        allocs_during(|| run_campaign_opts(&parity, CampaignOptions::new(1).cold()));
    let warm_per_session = warm_total / parity.len() as u64;
    let cold_per_session = cold_total / parity.len() as u64;
    assert_eq!(warm_campaign.fingerprint(), cold_campaign.fingerprint());
    eprintln!(
        "warm_alloc: cold={cold_allocs} warm={warm_allocs} \
         campaign warm/session={warm_per_session} cold/session={cold_per_session}"
    );
    assert!(
        warm_per_session <= cold_per_session,
        "warm campaign cells allocated {warm_per_session} times per session vs \
         {cold_per_session} cold; the warm bench path lost alloc parity"
    );
}
