//! Property-based tests for the quality-adaptation invariants.
//!
//! These encode the paper's structural claims as properties over randomized
//! operating points: the band allocation always tiles the deficit triangle,
//! the state path is monotone, filling conserves bandwidth, draining never
//! over-drains, and the controller upholds its safety invariants under
//! arbitrary rate trajectories.
//!
//! Randomization comes from `laqa_check` (a seeded in-repo harness) rather
//! than proptest, so the suite runs with zero registry access; failures
//! print the exact generator seed for replay.
#![allow(clippy::needless_range_loop)] // index-parallel asserts read clearer

use laqa_check::{cases, Gen, DEFAULT_CASES};
use laqa_core::adddrop::{check_add, drop_count, required_recovery_buffer, AddInputs};
use laqa_core::config::FILL_HORIZON_BACKOFFS;
use laqa_core::draining::plan_draining_into;
use laqa_core::filling::{allocate_filling_into, next_fill_layer};
use laqa_core::geometry::{
    band_allocation_into, buffering_layer_count, deficit, sustainable_layers, triangle_area,
};
use laqa_core::scenario::{buf_total, min_backoffs_below, per_layer, Scenario};
use laqa_core::{
    DropReason, MetricsCollector, Phase, QaConfig, QaController, QaEvent, StateSequence,
};

/// The decrease factors `Transport::nominal_decrease` installs: AIMD
/// halving (RAP, TCP), NADA's nominal γ and BBR's loss β.
const FACTORS: [f64; 3] = [0.5, 0.75, 0.85];

/// Plausible operating point: (rate, n_active, layer rate C, slope S).
fn op_point(g: &mut Gen) -> (f64, usize, f64, f64) {
    (
        g.f64_range(1_000.0, 500_000.0),
        g.usize_in(1, 10),
        g.f64_range(1_000.0, 50_000.0),
        g.f64_range(500.0, 200_000.0),
    )
}

/// The state path for the operating point, built in a fresh sequence.
fn path(rate: f64, n: usize, c: f64, s: f64, k_h: u32, f: f64) -> StateSequence {
    let mut seq = StateSequence::default();
    seq.rebuild(rate, n, c, s, k_h, f);
    seq
}

/// Optimal band shares for deficit `d0` over `n` layers.
fn bands(d0: f64, c: f64, s: f64, n: usize) -> Vec<f64> {
    let mut shares = Vec::new();
    band_allocation_into(d0, c, s, n, &mut shares);
    shares
}

#[test]
fn bands_tile_triangle() {
    cases("bands_tile_triangle", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let d0 = deficit(n as f64 * c, rate / 2.0);
        let n_b = buffering_layer_count(d0, c);
        let shares = bands(d0, c, s, n.max(n_b));
        let total: f64 = shares.iter().sum();
        let area = triangle_area(d0, s);
        assert!(
            (total - area).abs() <= 1e-9 * area.max(1.0) + 1e-9,
            "bands {total} vs area {area}"
        );
        // Non-increasing shares: lower layers hold at least as much.
        for w in shares.windows(2) {
            assert!(w[0] + 1e-9 >= w[1]);
        }
    });
}

#[test]
fn scenario_per_layer_sums_to_total() {
    cases("scenario_per_layer_sums_to_total", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let k = g.u32_in(1, 10);
        let f = *g.pick(&FACTORS);
        for &scenario in &Scenario::ALL {
            let shares = per_layer(scenario, k, rate, n, c, s, f);
            let total: f64 = shares.iter().sum();
            let expect = buf_total(scenario, k, rate, n as f64 * c, s, f);
            assert!((total - expect).abs() <= 1e-9 * expect.max(1.0) + 1e-9);
        }
    });
}

#[test]
fn scenario_totals_monotone_in_k() {
    cases("scenario_totals_monotone_in_k", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let f = *g.pick(&FACTORS);
        for &scenario in &Scenario::ALL {
            let mut prev = 0.0;
            for k in 1..=10u32 {
                let t = buf_total(scenario, k, rate, n as f64 * c, s, f);
                assert!(t + 1e-9 >= prev);
                prev = t;
            }
        }
    });
}

#[test]
fn scenario1_distribution_covers_scenario2_of_same_k() {
    cases(
        "scenario1_distribution_covers_scenario2_of_same_k",
        DEFAULT_CASES,
        |g, _| {
            let (rate, n, c, s) = op_point(g);
            let k = g.u32_in(1, 6);
            let f = *g.pick(&FACTORS);
            // §4's key observation, restated: scenario 1 concentrates at
            // least as much buffering in *every suffix* of the layer
            // stack... in fact the tractable direction is: S1 uses at least
            // as many layers and its per-layer shares are bounded by C·T, so
            // the check we encode is that S1's total never exceeds S2's
            // total for k > k1 (S2 is the total-dominating extreme).
            let consumption = n as f64 * c;
            let k1 = min_backoffs_below(rate, consumption, f);
            if k > k1 {
                let t1 = buf_total(Scenario::One, k, rate, consumption, s, f);
                let t2 = buf_total(Scenario::Two, k, rate, consumption, s, f);
                // S1 is one triangle no taller than n_a·C; S2 holds k − k1
                // recurring triangles of height n_a·C·(1 − f) besides its
                // first one, so it dominates outright once their areas add
                // up to the n_a·C triangle's. Before that the totals are
                // only known to be close at the paper's halving: a gentler
                // backoff leaves recurring triangles too small for S2 to
                // catch up within a few backoffs.
                let recurring = triangle_area(consumption * (1.0 - f), s);
                assert!(t1 <= triangle_area(consumption, s) * (1.0 + 1e-12));
                assert!(t2 >= (k - k1) as f64 * recurring * (1.0 - 1e-12));
                let dominates = (k - k1) as f64 * (1.0 - f) * (1.0 - f) >= 1.0;
                if dominates {
                    assert!(t2 + 1e-6 >= t1, "f={f}: t1={t1} t2={t2}");
                } else if f == 0.5 {
                    assert!(
                        t2 + 1e-6 >= t1 || (t1 - t2) / t1.max(1.0) < 0.5,
                        "S2 should dominate or be close: t1={t1} t2={t2}"
                    );
                }
            }
        },
    );
}

#[test]
fn state_sequence_monotone() {
    cases("state_sequence_monotone", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let k_h = g.u32_in(1, 8);
        let mut seq = path(rate, n, c, s, k_h, *g.pick(&FACTORS));
        let mut prev = vec![0.0f64; n];
        for st in seq.path().iter() {
            for i in 0..n {
                assert!(st.per_layer[i] + 1e-9 >= prev[i]);
                assert!(st.per_layer[i] + 1e-9 >= st.raw_per_layer[i]);
            }
            prev = st.per_layer.to_vec();
        }
    });
}

#[test]
fn rebuild_in_place_equals_fresh_build_along_random_walk() {
    cases(
        "rebuild_in_place_equals_fresh_build",
        DEFAULT_CASES,
        |g, _| {
            // One sequence carried through a walk of operating points whose
            // state counts grow and shrink (n, k_horizon and the rate all
            // move), so every slot is reused with stale contents of another
            // shape before being compared.
            let mut seq = StateSequence::default();
            for step in 0..12 {
                let (rate, n, c, s) = op_point(g);
                let k_h = g.u32_in(1, 10);
                let f = *g.pick(&[0.5, 0.7, 0.85]);
                seq.rebuild(rate, n, c, s, k_h, f);
                let fresh = path(rate, n, c, s, k_h, f);
                // Debug output separates -0.0 from 0.0, so this is bit equality.
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{fresh:?}"),
                    "step {step}: rate={rate} n={n} k_h={k_h} f={f}"
                );
            }
        },
    );
}

/// One state of [`reference_path`]: `(scenario, k, raw targets, clamped
/// targets)`.
type ReferenceState = (Scenario, u32, Vec<f64>, Vec<f64>);

/// The state path built the plain way, one [`per_layer`] call per
/// candidate state in generation order (`k` ascending, Scenario 1 before
/// Scenario 2), a stable sort by path order (raw total, then Scenario 1
/// first) with totals summed inside the comparator, then the running
/// per-layer maximum. `rebuild` shares work between states and merges the
/// two scenario streams instead of sorting; this is what it has to keep
/// equal to, bit for bit, whole or grown one state at a time.
fn reference_path(
    rate: f64,
    n: usize,
    c: f64,
    s: f64,
    k_h: u32,
    f: f64,
) -> (u32, Vec<ReferenceState>) {
    let consumption = n as f64 * c;
    let k1 = if consumption > 0.0 {
        min_backoffs_below(rate, consumption, f)
    } else {
        1
    };
    let mut states: Vec<ReferenceState> = Vec::new();
    for k in 1..=k_h {
        for &scenario in &Scenario::ALL {
            if scenario == Scenario::Two && k <= k1 {
                continue;
            }
            let raw = per_layer(scenario, k, rate, n, c, s, f);
            if raw.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            states.push((scenario, k, raw.clone(), raw));
        }
    }
    states.sort_by(|a, b| {
        let total = |st: &ReferenceState| st.2.iter().sum::<f64>();
        let rank = |st: &ReferenceState| match st.0 {
            Scenario::One => 0,
            Scenario::Two => 1,
        };
        total(a)
            .partial_cmp(&total(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| rank(a).cmp(&rank(b)))
    });
    for i in 1..states.len() {
        let prev = states[i - 1].3.clone();
        for (target, floor) in states[i].3.iter_mut().zip(prev) {
            if *target < floor {
                *target = floor;
            }
        }
    }
    (k1, states)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Rebuild `seq` in place for the operating point and hold the result
/// against [`reference_path`], bit for bit. Returns the reference.
fn rebuild_and_compare_with_reference(
    seq: &mut StateSequence,
    rate: f64,
    n: usize,
    c: f64,
    s: f64,
    k_h: u32,
    f: f64,
) -> Vec<ReferenceState> {
    let at = format!("rate={rate} n={n} c={c} s={s} k_h={k_h} f={f}");
    seq.rebuild(rate, n, c, s, k_h, f);
    let (k1, want) = reference_path(rate, n, c, s, k_h, f);
    assert_eq!(seq.k1, k1, "{at}");
    assert_eq!(seq.emitted().len(), want.len(), "{at}");
    for (i, (got, (scenario, k, raw, clamped))) in seq.emitted().iter().zip(&want).enumerate() {
        assert_eq!((got.scenario, got.k), (*scenario, *k), "{at}: state {i}");
        assert_eq!(bits(got.raw_per_layer), bits(raw), "{at}: state {i} raw");
        assert_eq!(bits(got.per_layer), bits(clamped), "{at}: state {i}");
    }
    want
}

#[test]
fn rebuild_equals_per_state_reference_bit_for_bit() {
    // One sequence carried through the whole sweep, so every rebuild
    // starts from another operating point's leftovers.
    let mut seq = StateSequence::default();
    let mut visited = 0usize;
    let mut empty_paths = 0usize;
    let mut same_scenario_ties = 0usize;
    let mut cross_scenario_ties = 0usize;
    let mut check = |rate: f64, n: usize, c: f64, s: f64, k_h: u32, f: f64| {
        let want = rebuild_and_compare_with_reference(&mut seq, rate, n, c, s, k_h, f);
        visited += 1;
        empty_paths += usize::from(want.is_empty());
        for w in want.windows(2) {
            if w[0].2.iter().sum::<f64>() == w[1].2.iter().sum::<f64>() {
                if w[0].0 == w[1].0 {
                    same_scenario_ties += 1;
                } else {
                    cross_scenario_ties += 1;
                }
            }
        }
    };
    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;
    for f in [0.5, 0.7, 0.85] {
        for k_h in 1..=32u32 {
            for n in 0..=12usize {
                // Below, at and above consumption; 40x above puts k1 past
                // short horizons (6 halvings, 24 steps of 0.85), and from a
                // rate of zero every Scenario-1 total is the same.
                for x in [0.0, 0.4, 1.0, 1.3, 2.0, 3.7, 40.0] {
                    check(x * n.max(1) as f64 * C, n, C, S, k_h, f);
                }
            }
            // No consumption with layers present.
            check(30_000.0, 3, 0.0, S, k_h, f);
        }
    }
    // A decrease factor one ulp short of 1: the recurring triangle is too
    // small to register in the sums, so every Scenario-2 total equals the
    // Scenario-1 total at k1 and only the scenario rank orders them.
    for n in 1..=6usize {
        check(0.75 * n as f64 * C, n, C, S, 12, 1.0 - f64::EPSILON / 2.0);
    }
    assert!(
        visited > 8_000 && empty_paths > 100,
        "{visited} {empty_paths}"
    );
    assert!(
        same_scenario_ties > 0 && cross_scenario_ties > 0,
        "the sweep must reach exact ties: {same_scenario_ties} {cross_scenario_ties}"
    );
}

#[test]
fn rebuild_equals_per_state_reference_at_random_operating_points() {
    cases(
        "rebuild_equals_per_state_reference",
        DEFAULT_CASES,
        |g, _| {
            let mut seq = StateSequence::default();
            for _ in 0..6 {
                let (rate, n, c, s) = op_point(g);
                let k_h = g.u32_in(1, 32);
                let f = *g.pick(&[0.5, 0.7, 0.85]);
                rebuild_and_compare_with_reference(&mut seq, rate, n, c, s, k_h, f);
            }
        },
    );
}

/// Grow `seq` from a reset one state at a time and hold every prefix
/// against [`reference_path`], bit for bit. Returns the reference.
fn grow_and_compare_with_reference(
    seq: &mut StateSequence,
    rate: f64,
    n: usize,
    c: f64,
    s: f64,
    k_h: u32,
    f: f64,
) -> (u32, Vec<ReferenceState>) {
    let at = format!("rate={rate} n={n} c={c} s={s} k_h={k_h} f={f}");
    seq.reset(rate, n, c, s, k_h, f);
    assert!(seq.emitted().is_empty(), "{at}: reset emitted states");
    let (k1, want) = reference_path(rate, n, c, s, k_h, f);
    assert_eq!(seq.k1, k1, "{at}");
    for (i, (scenario, k, raw, clamped)) in want.iter().enumerate() {
        let got = seq
            .state(i)
            .unwrap_or_else(|| panic!("{at}: the merge ended before state {i}"));
        assert_eq!((got.scenario, got.k), (*scenario, *k), "{at}: state {i}");
        assert_eq!(bits(got.raw_per_layer), bits(raw), "{at}: state {i} raw");
        assert_eq!(bits(got.per_layer), bits(clamped), "{at}: state {i}");
        assert_eq!(seq.emitted().len(), i + 1, "{at}: grown past state {i}");
    }
    assert!(
        seq.state(want.len()).is_none(),
        "{at}: the merge ran past the path"
    );
    (k1, want)
}

#[test]
fn merge_grown_on_demand_equals_sorted_reference_prefix_by_prefix() {
    // Both sequences are carried across every operating point, so each
    // starts from another point's leftovers.
    let mut lazy = StateSequence::default();
    let mut eager = StateSequence::default();
    let (mut points, mut empty_k1, mut cross_ties) = (0usize, 0usize, 0usize);
    let mut check = |rate: f64, n: usize, c: f64, s: f64, k_h: u32, f: f64| {
        let (k1, want) = grow_and_compare_with_reference(&mut lazy, rate, n, c, s, k_h, f);
        rebuild_and_compare_with_reference(&mut eager, rate, n, c, s, k_h, f);
        points += 1;
        // A k1 whose Scenario-1 triangle rounds to empty: the merge must
        // skip it in one stream while the other stream's head stands.
        let has_k1 = want.iter().any(|st| st.0 == Scenario::One && st.1 == k1);
        empty_k1 += usize::from(n > 0 && c > 0.0 && k1 <= k_h && !has_k1);
        cross_ties += want
            .windows(2)
            .filter(|w| {
                w[0].0 != w[1].0 && w[0].2.iter().sum::<f64>() == w[1].2.iter().sum::<f64>()
            })
            .count();
    };
    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;
    cases(
        "merge_grown_on_demand_equals_sorted_reference",
        24,
        |g, _| {
            for f in [0.5, 0.7, 0.85] {
                for k_h in [1u32, 2, 8, 16, 32] {
                    for n in 1..=12usize {
                        let consumption = n as f64 * C;
                        // From below consumption to 8x above it.
                        check(g.f64_range(0.3, 8.0) * consumption, n, C, S, k_h, f);
                        // The k1 edges: a rate whose j-th backoff lands on
                        // consumption, give or take a few ulps, where the
                        // iterated k1 and the powi post-backoff rate round
                        // apart.
                        let j = g.u32_in(1, 4);
                        let edge = consumption / f.powi(j as i32);
                        let ulps = g.u64_in(0, 8) as i64 - 4;
                        check(
                            f64::from_bits((edge.to_bits() as i64 + ulps) as u64),
                            n,
                            C,
                            S,
                            k_h,
                            f,
                        );
                    }
                }
            }
        },
    );
    // Exact ties between the streams: a decrease factor one ulp short of
    // 1 leaves the recurring triangle too small to register, so every
    // Scenario-2 total equals the Scenario-1 total at k1 (and at a rate
    // of zero every Scenario-1 total is the same).
    for n in 1..=6usize {
        for k_h in [2u32, 8, 16, 32] {
            check(0.75 * n as f64 * C, n, C, S, k_h, 1.0 - f64::EPSILON / 2.0);
            check(0.0, n, C, S, k_h, 0.5);
        }
    }
    eprintln!("merge sweep: {points} points, {empty_k1} empty k1 triangles, {cross_ties} ties");
    assert!(points > 4_000, "{points}");
    assert!(
        empty_k1 > 0 && cross_ties > 0,
        "the sweep must reach empty k1 triangles and ties between the \
         streams: {empty_k1} {cross_ties}"
    );
}

/// Buffers somewhere along `seq`'s path: one state's targets scaled per
/// layer by 0.9 to 1.1, now and then empty, huge, cut short or in debt.
fn bufs_along(g: &mut Gen, seq: &mut StateSequence) -> Vec<f64> {
    let n = seq.n_active;
    let path = seq.path();
    let mut bufs = match (g.usize_in(0, 9), path.len()) {
        (0, _) | (_, 0) => vec![0.0; n],
        (1, _) => vec![1e12; n],
        (_, len) => path
            .get(g.usize_in(0, len - 1))
            .unwrap()
            .per_layer
            .iter()
            .map(|x| x * g.f64_range(0.9, 1.1))
            .collect(),
    };
    if g.bool(0.1) {
        bufs.truncate(g.usize_in(0, n));
    }
    if let Some(b) = bufs.first_mut().filter(|_| g.bool(0.1)) {
        *b = -100.0;
    }
    bufs
}

#[test]
fn readers_on_demand_equal_eager_answers_and_stop_early() {
    let mut work = (0usize, 0usize);
    cases("readers_on_demand_equal_eager", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let k_h = *g.pick(&[1u32, 2, 8, 16, 32]);
        let f = *g.pick(&[0.5, 0.7, 0.85]);
        let mut eager = path(rate, n, c, s, k_h, f);
        let full = eager.path().len();
        let lazy = || {
            let mut seq = StateSequence::default();
            seq.reset(rate, n, c, s, k_h, f);
            seq
        };
        let bufs = bufs_along(g, &mut eager);
        let k_max = g.u32_in(1, 16);
        let existing = g.usize_in(0, n);
        let eps = 1.0;

        let mut seq = lazy();
        let first = seq.first_unsatisfied(&bufs, eps);
        assert_eq!(first, eager.first_unsatisfied(&bufs, eps));
        assert_eq!(seq.emitted().len(), first.map_or(full, |i| i + 1));
        assert_eq!(
            lazy().last_satisfied(&bufs, eps),
            eager.last_satisfied(&bufs, eps)
        );

        let mut seq = lazy();
        let ok = seq.satisfied_up_to_k(&bufs, k_max, eps);
        assert_eq!(ok, eager.satisfied_up_to_k(&bufs, k_max, eps));
        // Stopped at the first miss, or with every k ≤ K_max state out.
        let read = seq.emitted().len();
        match ok {
            false => {
                let last = seq.emitted().get(read - 1).unwrap();
                assert!(last.k <= k_max && !last.satisfied_by(&bufs, eps));
            }
            true => assert!(eager.path().iter().skip(read).all(|st| st.k > k_max)),
        }
        work = (work.0 + read, work.1 + full);
        let mut seq = lazy();
        assert_eq!(
            seq.satisfied_up_to_k_post_add(&bufs, k_max, eps, existing),
            eager.satisfied_up_to_k_post_add(&bufs, k_max, eps, existing)
        );

        let dt = *g.pick(&[0.0, 0.02, 0.1, 0.7]);
        let rate_now = g.f64_range(0.0, 2.0) * n as f64 * c;
        let mut seq = lazy();
        let (want_rates, want_gain) = fill_fresh(&mut eager, &bufs, rate_now, dt);
        let (got_rates, got_gain) = fill_fresh(&mut seq, &bufs, rate_now, dt);
        assert_eq!(bits(&got_gain), bits(&want_gain), "fill gain");
        assert_eq!(bits(&got_rates), bits(&want_rates), "fill rates");
        let (want_drain, want_rates, want_short) = drain_fresh(&mut eager, &bufs, rate_now, dt);
        // The same sequence again, grown by the filling walk: a reader
        // picks up where the last one stopped.
        let (got_drain, got_rates, got_short) = drain_fresh(&mut seq, &bufs, rate_now, dt);
        assert_eq!(bits(&got_drain), bits(&want_drain), "drain");
        assert_eq!(bits(&got_rates), bits(&want_rates), "drain rates");
        assert_eq!(got_short.to_bits(), want_short.to_bits(), "shortfall");
        // Whatever was read is a prefix of the eager path.
        let read = seq.emitted().len();
        assert!(seq.emitted().iter().eq(eager.path().iter().take(read)));
    });
    eprintln!("add check read {} of {} states", work.0, work.1);
    assert!(
        2 * work.0 < work.1,
        "the add check read most of the path: {work:?}"
    );
}

/// Scratch vectors as a previous call on another layer count left them.
fn dirty(g: &mut Gen) -> Vec<f64> {
    g.vec_f64(-1e9, 1e9, 0, 15)
}

/// [`allocate_filling_into`] on fresh vectors: `(per_layer_rate,
/// buffer_gain)`.
fn fill_fresh(seq: &mut StateSequence, bufs: &[f64], rate: f64, dt: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut projected, mut gain, mut rates) = (vec![], vec![], vec![]);
    allocate_filling_into(
        seq,
        bufs,
        rate,
        dt,
        1.0,
        &mut projected,
        &mut gain,
        &mut rates,
    );
    (rates, gain)
}

/// [`plan_draining_into`] on fresh vectors: `(drain, per_layer_rate,
/// shortfall)`.
fn drain_fresh(
    seq: &mut StateSequence,
    bufs: &[f64],
    rate: f64,
    dt: f64,
) -> (Vec<f64>, Vec<f64>, f64) {
    let (mut drain, mut rates) = (vec![], vec![]);
    let shortfall = plan_draining_into(seq, bufs, rate, dt, 1.0, &mut drain, &mut rates);
    (drain, rates, shortfall)
}

#[test]
fn into_allocators_on_dirty_scratch_equal_fresh_scratch() {
    cases("into_allocators_on_dirty_scratch", DEFAULT_CASES, |g, _| {
        let (peak, n, c, s) = op_point(g);
        let peak = peak.max(n as f64 * c);
        let mut seq = StateSequence::build(peak, n, c, s, 8);
        let fill_frac = g.f64_range(0.0, 1.5);
        let mut bufs: Vec<f64> = seq
            .path()
            .last()
            .map(|st| st.per_layer.iter().map(|x| x * fill_frac).collect())
            .unwrap_or_else(|| vec![0.0; n]);
        if g.bool(0.3) {
            // A shorter slice reads as empty layers; a debt as empty.
            bufs.truncate(g.usize_in(0, n));
        }
        if let Some(b) = bufs.first_mut().filter(|_| g.bool(0.2)) {
            *b = -100.0;
        }
        // Both early returns and both sides of the consumption line.
        let dt = *g.pick(&[0.0, -1.0, 0.02, 0.1, 0.7]);
        let rate = g.f64_range(0.0, 2.0) * n as f64 * c;

        // Whatever the vectors held — another layer count's values, of
        // any length — the result is the one fresh vectors get.
        let (want_rates, want_gain) = fill_fresh(&mut seq, &bufs, rate, dt);
        let (mut projected, mut gain, mut rates) = (dirty(g), dirty(g), dirty(g));
        allocate_filling_into(
            &mut seq,
            &bufs,
            rate,
            dt,
            1.0,
            &mut projected,
            &mut gain,
            &mut rates,
        );
        assert_eq!(bits(&gain), bits(&want_gain), "fill gain");
        assert_eq!(bits(&rates), bits(&want_rates), "fill rates");

        let (want_drain, want_rates, want_shortfall) = drain_fresh(&mut seq, &bufs, rate, dt);
        let (mut drained, mut rates) = (dirty(g), dirty(g));
        let shortfall =
            plan_draining_into(&mut seq, &bufs, rate, dt, 1.0, &mut drained, &mut rates);
        assert_eq!(bits(&drained), bits(&want_drain), "drain");
        assert_eq!(bits(&rates), bits(&want_rates), "drain rates");
        assert_eq!(shortfall.to_bits(), want_shortfall.to_bits());
    });
}

#[test]
fn draining_relaxes_floors_several_states_back_on_recycled_vectors() {
    // Buffers exactly at the last of 15 states, then one period with the
    // network gone: the band profile is held back by the floor one state
    // down, and Pass B has to step the floors back state after state to
    // find the rest.
    let (n, c, s, dt) = (4usize, 10_000.0, 25_000.0, 0.25);
    let mut seq = StateSequence::build(50_000.0, n, c, s, 8);
    let top = seq.path().len() - 1;
    let bufs = seq.state(top).unwrap().per_layer.to_vec();
    assert_eq!(seq.last_satisfied(&bufs, 1.0), Some(top));

    let (mut drained, mut rates) = (vec![7.0; 9], vec![-3.0; 1]);
    let shortfall = plan_draining_into(&mut seq, &bufs, 0.0, dt, 1.0, &mut drained, &mut rates);
    assert_eq!(shortfall, 0.0);
    let left: Vec<f64> = bufs.iter().zip(&drained).map(|(b, d)| b - d).collect();
    let kept = seq.last_satisfied(&left, 1.0).map_or(-1, |i| i as isize);
    // The floors start at `top - 1` and every relaxation gives up one more
    // state, so a result below `top - 3` took at least three of them.
    assert!(
        kept < top as isize - 3,
        "the plan kept state {kept} of {top}: Pass B barely relaxed"
    );
    let (want_drain, want_rates, _) = drain_fresh(&mut seq, &bufs, 0.0, dt);
    assert_eq!(bits(&drained), bits(&want_drain));
    assert_eq!(bits(&rates), bits(&want_rates));
    for d in &drained {
        assert!(*d <= c * dt + 1e-9, "cap violated: {drained:?}");
    }
}

#[test]
fn lazy_add_decision_equals_eager_check_add_along_hostile_walk() {
    // The controller builds the post-add path only when the add rule's
    // cheaper conditions hold. Whatever it is fed — the hostile mix of
    // `adversarial_inputs_never_panic_or_kill_base_layer` included — each
    // tick must add a layer exactly when `check_add`, given both paths
    // built from scratch, says all conditions hold. A filling tick drops
    // nothing after settling the buffers and an add appends an empty
    // layer, so the inputs of the decision can be read back afterwards.
    // Over all cases: adds, then ticks refused for bandwidth, for buffers
    // (with bandwidth to spare) and for capacity.
    let (mut adds, mut refusals) = (0usize, [0usize; 3]);
    cases("lazy_add_equals_eager_check_add", 48, |g, _| {
        let cfg = QaConfig {
            layer_rate: 10_000.0,
            max_layers: g.usize_in(2, 8),
            k_max: *g.pick(&[1, 2, 4, 16]),
            decrease_factor: *g.pick(&[0.5, 0.7, 0.85]),
            ..QaConfig::default()
        };
        let mut ctl = QaController::new(cfg.clone()).unwrap();
        ctl.set_slope(25_000.0);
        let hostile = |g: &mut Gen, scale: f64| match g.usize_in(0, 15) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -scale,
            4 => 0.0,
            5 => scale * 1e9,
            _ => g.f64_unit() * scale,
        };
        let mut now = 0.0;
        for _ in 0..600 {
            match g.usize_in(0, 9) {
                0 => ctl.on_backoff(now, hostile(g, 90_000.0)),
                1 => ctl.set_slope(hostile(g, 50_000.0)),
                2 => ctl.on_packet_delivered(g.usize_in(0, 9), hostile(g, 20_000.0)),
                _ => {
                    let rate = hostile(g, 90_000.0);
                    let dt = if g.bool(0.9) { 0.1 } else { hostile(g, 0.5) };
                    let report = ctl.tick(now, rate, dt);
                    now += 0.1;
                    // A faithful transport most of the time, so buffers
                    // build and adds do happen.
                    if g.bool(0.9) {
                        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
                            ctl.on_packet_delivered(layer, r * 0.1);
                        }
                    }
                    if report.phase == Phase::Draining {
                        assert_eq!(report.added, 0, "add while draining");
                        continue;
                    }
                    let rate = if rate.is_finite() { rate.max(0.0) } else { 0.0 };
                    let n = report.n_active - report.added;
                    let path_for = |layers| {
                        path(
                            rate,
                            layers,
                            cfg.layer_rate,
                            ctl.slope(),
                            FILL_HORIZON_BACKOFFS,
                            cfg.decrease_factor,
                        )
                    };
                    let eager = check_add(
                        &mut path_for(n),
                        &mut path_for(n + 1),
                        &AddInputs {
                            bufs: &ctl.buffers()[..n],
                            rate,
                            n_active: n,
                            max_layers: cfg.max_layers,
                            k_max: cfg.k_max,
                            eps: cfg.epsilon_bytes,
                        },
                    );
                    assert_eq!(
                        report.added == 1,
                        eager.all_ok(),
                        "t={now:.1} rate={rate} n={n}: {eager:?} vs {report:?}"
                    );
                    adds += report.added;
                    refusals[0] += usize::from(!eager.bandwidth_ok);
                    refusals[1] += usize::from(eager.bandwidth_ok && !eager.buffer_ok);
                    refusals[2] += usize::from(!eager.capacity_ok);
                }
            }
        }
    });
    eprintln!("lazy add walk: {adds} adds, refusals {refusals:?}");
    assert!(
        adds > 50 && refusals.iter().all(|&r| r > 50),
        "the walk must reach every outcome: {adds} adds, refusals {refusals:?}"
    );
}

#[test]
fn filling_conserves_rate() {
    cases("filling_conserves_rate", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let dt = g.f64_range(0.01, 1.0);
        let fill = g.f64_range(0.0, 2.0);
        // Only meaningful in the filling phase.
        let rate = rate.max(n as f64 * c);
        let mut seq = StateSequence::build(rate, n, c, s, 8);
        let bufs: Vec<f64> = seq
            .path()
            .last()
            .map(|st| st.per_layer.iter().map(|x| x * fill).collect())
            .unwrap_or_else(|| vec![0.0; n]);
        let (per_layer_rate, _) = fill_fresh(&mut seq, &bufs, rate, dt);
        let total: f64 = per_layer_rate.iter().sum();
        assert!(
            (total - rate).abs() <= 1e-6 * rate.max(1.0),
            "allocated {total} vs rate {rate}"
        );
        for (i, &r) in per_layer_rate.iter().enumerate() {
            assert!(r + 1e-9 >= c, "layer {i} starved: {r} < {c}");
        }
    });
}

#[test]
fn fill_layer_respects_path() {
    cases("fill_layer_respects_path", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let rate = rate.max(n as f64 * c);
        let mut seq = StateSequence::build(rate, n, c, s, 4);
        // From empty buffers, the first packet goes to the base — whenever
        // any state demands more than the comparison slack from it (states
        // whose every target is sub-epsilon count as already satisfied).
        let base_target = seq.path().last().map(|st| st.per_layer[0]).unwrap_or(0.0);
        if base_target > 1.0 {
            assert_eq!(next_fill_layer(&mut seq, &vec![0.0; n], 1.0), Some(0));
        }
        // With all targets met, no fill layer is suggested.
        let full: Vec<f64> = (0..n)
            .map(|i| {
                seq.path()
                    .iter()
                    .map(|st| st.per_layer[i])
                    .fold(0.0, f64::max)
            })
            .collect();
        assert_eq!(next_fill_layer(&mut seq, &full, 1.0), None);
    });
}

#[test]
fn draining_never_overdraws() {
    cases("draining_never_overdraws", DEFAULT_CASES, |g, _| {
        let (rate, n, c, s) = op_point(g);
        let dt = g.f64_range(0.01, 1.0);
        let fill = g.f64_range(0.0, 1.5);
        let rate_frac = g.f64_range(0.0, 1.0);
        let peak = rate.max(n as f64 * c);
        let mut seq = StateSequence::build(peak, n, c, s, 8);
        let bufs: Vec<f64> = seq
            .path()
            .last()
            .map(|st| st.per_layer.iter().map(|x| x * fill).collect())
            .unwrap_or_else(|| vec![0.0; n]);
        let cur_rate = rate_frac * n as f64 * c;
        let (per_layer, rates, shortfall) = drain_fresh(&mut seq, &bufs, cur_rate, dt);
        // The planner charges the midpoint deficit of the period (the rate
        // recovers at slope S within it).
        let need = (n as f64 * c - cur_rate - seq.slope * dt / 2.0).max(0.0) * dt;
        let drained: f64 = per_layer.iter().sum();
        // Drained + shortfall exactly covers the need.
        assert!((drained + shortfall - need).abs() <= 1e-6 * need.max(1.0) + 1e-6);
        for i in 0..n {
            assert!(per_layer[i] <= c * dt + 1e-9, "cap violated");
            assert!(per_layer[i] <= bufs[i] + 1e-9, "overdraft on layer {i}");
            assert!(rates[i] >= -1e-9);
        }
    });
}

#[test]
fn drop_rule_result_always_recoverable() {
    cases(
        "drop_rule_result_always_recoverable",
        DEFAULT_CASES,
        |g, _| {
            let (rate, n, c, s) = op_point(g);
            let buf = g.f64_range(0.0, 1_000_000.0);
            let kept = sustainable_layers(n, c, rate, s, buf);
            assert!(kept <= n);
            assert!(kept >= 1 || n == 0);
            // After the drop, either the deficit is absorbable or we're at the
            // base layer.
            if kept > 1 {
                let deficit = kept as f64 * c - rate;
                assert!(deficit <= (2.0 * s * buf).sqrt() + 1e-9);
            }
            assert_eq!(drop_count(n, c, rate, s, buf), n - kept);
        },
    );
}

#[test]
fn controller_survives_arbitrary_rate_walk() {
    cases("controller_survives_arbitrary_rate_walk", 64, |g, _| {
        let seed_rates = g.vec_f64(1_000.0, 80_000.0, 20, 119);
        let dt = g.f64_range(0.02, 0.2);
        let cfg = QaConfig {
            max_layers: 8,
            ..QaConfig::default()
        };
        let mut ctl = QaController::new(cfg).unwrap();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        let mut prev_rate = seed_rates[0];
        for &rate in &seed_rates {
            if rate < prev_rate * 0.6 {
                ctl.on_backoff(now, rate);
            }
            let report = ctl.tick(now, rate, dt);
            // Invariants: at least the base layer, allocation length
            // matches, the report's inline rates are the controller's
            // allocation, rates finite and non-negative.
            assert!(report.n_active >= 1);
            assert_eq!(report.per_layer_rate.len(), report.n_active);
            assert_eq!(report.per_layer_rate.as_slice(), ctl.allocation());
            for &r in &report.per_layer_rate {
                assert!(r.is_finite() && r >= -1e-9);
            }
            // Emulate a faithful transport.
            for (layer, &r) in report.per_layer_rate.iter().enumerate() {
                ctl.on_packet_delivered(layer, r * dt);
            }
            // Buffer estimates stay finite and above the underflow debt
            // floor (small negatives are legal fluid-model jitter).
            let floor = -ctl.config().underflow_slack_bytes - 2.0;
            for &b in ctl.buffers() {
                assert!(b.is_finite() && b >= floor, "buffer {b} below {floor}");
            }
            now += dt;
            prev_rate = rate;
        }
    });
}

#[test]
fn controller_packet_scheduler_never_picks_inactive_layer() {
    cases(
        "controller_packet_scheduler_never_picks_inactive_layer",
        64,
        |g, _| {
            let rates = g.vec_f64(5_000.0, 60_000.0, 10, 39);
            let pkt = g.f64_range(100.0, 2_000.0);
            let mut ctl = QaController::new(QaConfig::default()).unwrap();
            ctl.set_slope(25_000.0);
            let mut now = 0.0;
            for &rate in &rates {
                let report = ctl.tick(now, rate, 0.1);
                let mut budget = rate * 0.1;
                while budget > pkt {
                    let layer = ctl.next_packet_layer(pkt);
                    assert!(layer < report.n_active);
                    ctl.on_packet_delivered(layer, pkt);
                    budget -= pkt;
                }
                now += 0.1;
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Add/drop rule invariants — adddrop.rs
// ---------------------------------------------------------------------------

#[test]
fn drop_rule_never_strands_optimally_buffered_layers() {
    cases(
        "drop_rule_never_strands_optimally_buffered_layers",
        DEFAULT_CASES,
        |g, _| {
            let (rate, n, c, s) = op_point(g);
            // A receiver holding the full optimal allocation for the
            // post-backoff deficit can absorb that deficit by definition
            // (the bands tile the recovery triangle), so the §2.2 rule must
            // keep every layer: buffered data is never stranded in a layer
            // the rule then drops.
            let post = rate * *g.pick(&FACTORS);
            let d0 = deficit(n as f64 * c, post);
            let shares = bands(d0, c, s, n.max(buffering_layer_count(d0, c)));
            let total: f64 = shares.iter().sum::<f64>() * (1.0 + 1e-9);
            let kept = sustainable_layers(n, c, post, s, total);
            assert_eq!(
                kept,
                n,
                "optimal allocation (total {total}) stranded {} layers",
                n - kept
            );
        },
    );
}

#[test]
fn required_recovery_buffer_is_the_drop_threshold() {
    cases(
        "required_recovery_buffer_is_the_drop_threshold",
        DEFAULT_CASES,
        |g, _| {
            let (rate, n, c, s) = op_point(g);
            let f = *g.pick(&FACTORS);
            let req = required_recovery_buffer(n, c, rate, s, f);
            assert!(req >= 0.0 && req.is_finite());
            // Holding exactly the required buffer (plus rounding slack)
            // sustains all n layers; a clear shortfall drops at least one
            // whenever more than the base layer is at stake.
            assert_eq!(sustainable_layers(n, c, rate, s, req * (1.0 + 1e-9)), n);
            if req > 1e-6 && n > 1 {
                let kept = sustainable_layers(n, c, rate, s, req * 0.25);
                assert!(kept < n, "f={f}: shortfall kept all {n} layers (req {req})");
            }
        },
    );
}

/// The metrics over a whole decision log, computed afterwards the way a
/// collector that kept the log would: `(adds, drops, drops per reason,
/// stalls, efficiency, avoidable fraction, mean recovery)`.
type BatchMetrics = (
    usize,
    usize,
    [usize; 4],
    usize,
    Option<f64>,
    Option<f64>,
    Option<f64>,
);

fn batch_metrics(log: &[QaEvent]) -> BatchMetrics {
    let reasons = [
        DropReason::InsufficientTotalBuffer,
        DropReason::DistributionShortfall,
        DropReason::TopLayerUnderflow,
        DropReason::BaseDebt,
    ];
    let adds = log
        .iter()
        .filter(|e| matches!(e, QaEvent::LayerAdded { .. }))
        .count();
    let stalls = log
        .iter()
        .filter(|e| matches!(e, QaEvent::BaseStall { .. }))
        .count();
    let drops: Vec<_> = log
        .iter()
        .filter_map(|e| match *e {
            QaEvent::LayerDropped {
                buf_total,
                buf_drop,
                required,
                reason,
                ..
            } => Some((buf_total, buf_drop, required, reason)),
            _ => None,
        })
        .collect();
    let by_reason = reasons.map(|r| drops.iter().filter(|d| d.3 == r).count());
    let shares: Vec<f64> = drops
        .iter()
        .filter(|d| d.0 > 0.0)
        .map(|d| (d.0 - d.1) / d.0)
        .collect();
    let mut sum = 0.0;
    shares.iter().for_each(|e| sum += e);
    let efficiency = (!shares.is_empty()).then(|| sum / shares.len() as f64);
    let avoidable = drops
        .iter()
        .filter(|d| d.0 >= d.2 && d.3 != DropReason::InsufficientTotalBuffer)
        .count();
    let avoidable = (!drops.is_empty()).then(|| avoidable as f64 / drops.len() as f64);
    let mut gaps = Vec::new();
    let mut episode_start = None;
    for e in log {
        match *e {
            QaEvent::LayerDropped { time, .. } => {
                episode_start.get_or_insert(time);
            }
            QaEvent::LayerAdded { time, .. } => {
                if let Some(t0) = episode_start.take() {
                    gaps.push(time - t0);
                }
            }
            QaEvent::BaseStall { .. } => {}
        }
    }
    let recovery = (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64);
    let n_drops = drops.len();
    (
        adds, n_drops, by_reason, stalls, efficiency, avoidable, recovery,
    )
}

#[test]
fn running_metrics_equal_the_batch_forms_bit_for_bit() {
    // The collector keeps sums, not the log: each metric must equal the
    // one computed over the whole log afterwards, floats by bit pattern.
    cases(
        "running_metrics_equal_the_batch_forms_bit_for_bit",
        DEFAULT_CASES,
        |g, _| {
            let reasons = [
                DropReason::InsufficientTotalBuffer,
                DropReason::DistributionShortfall,
                DropReason::TopLayerUnderflow,
                DropReason::BaseDebt,
            ];
            let mut log = Vec::new();
            let mut time = 0.0;
            for _ in 0..g.usize_in(0, 60) {
                // Repeated times make zero-length recovery gaps.
                if g.bool(0.7) {
                    time += g.f64_range(0.0, 5.0);
                }
                let n_active = g.usize_in(1, 10);
                log.push(match g.usize_in(0, 3) {
                    0 => QaEvent::LayerAdded { time, n_active },
                    1 => QaEvent::BaseStall { time },
                    _ => {
                        let buf_total = if g.bool(0.2) {
                            0.0
                        } else {
                            g.f64_range(0.0, 5e4)
                        };
                        QaEvent::LayerDropped {
                            time,
                            layer: n_active,
                            n_active,
                            buf_total,
                            buf_drop: buf_total * g.f64_unit(),
                            required: g.f64_range(0.0, 5e4),
                            reason: *g.pick(&reasons),
                        }
                    }
                });
            }
            let mut m = MetricsCollector::new();
            log.iter().for_each(|e| m.record(e));
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            let (adds, drops, by_reason, stalls, eff, avoid, recovery) = batch_metrics(&log);
            assert_eq!((m.adds(), m.drops(), m.stalls()), (adds, drops, stalls));
            assert_eq!(m.quality_changes(), adds + drops);
            assert_eq!(reasons.map(|r| m.drops_for(r)), by_reason);
            assert_eq!(bits(m.efficiency()), bits(eff));
            assert_eq!(bits(m.avoidable_drop_fraction()), bits(avoid));
            assert_eq!(bits(m.recovery_secs_mean()), bits(recovery));
        },
    );
}
