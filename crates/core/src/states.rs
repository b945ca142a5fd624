//! The sequence of optimal buffer states traversed during filling and
//! draining (§4.1, figures 8–10).
//!
//! For every `k = 1..=k_horizon` and both scenarios we get an optimal buffer
//! state — a total requirement and a per-layer split. The filling phase
//! walks these states in increasing order of total buffering, always working
//! toward the next one; the draining phase walks the same path backwards.
//!
//! Sorting by total alone is not enough: moving from one state to the next
//! may then require *draining* a layer that the previous state had filled
//! (the paper shows `{S2,k=2} → {S1,k=2}` draining L2, and `{S1,k=4} →
//! {S2,k=3}` draining L3 for its figure-9 parameters). Because buffered data
//! for a higher layer can substitute for missing lower-layer buffer (but not
//! vice versa), the paper constrains the per-layer targets so that both the
//! total and every per-layer amount increase monotonically along the path
//! (figure 10). We realize that constraint as a running per-layer maximum
//! over the sorted sequence, which is exactly "no less than every earlier
//! state" and keeps the path drain-free; the pre-clamp targets are kept
//! available for the ablation benchmarks.

use crate::scenario::{min_backoffs_below, recurring_band_into, scenario_one_into, Scenario};
use std::cmp::Ordering;

/// One optimal buffer state `(scenario, k)` with its per-layer targets.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferState {
    /// Which extremal loss pattern this state protects against.
    pub scenario: Scenario,
    /// Number of backoffs survived.
    pub k: u32,
    /// Raw per-layer optimal allocation (bytes, index 0 = base), before the
    /// monotonicity clamp.
    pub raw_per_layer: Vec<f64>,
    /// Per-layer targets after the figure-10 monotonicity constraint.
    pub per_layer: Vec<f64>,
}

impl BufferState {
    /// Total buffering of the *raw* optimal allocation.
    pub fn raw_total(&self) -> f64 {
        self.raw_per_layer.iter().sum()
    }

    /// Total buffering of the clamped targets (≥ `raw_total`).
    pub fn total(&self) -> f64 {
        self.per_layer.iter().sum()
    }

    /// True when `bufs` meets every per-layer target within `eps` bytes.
    pub fn satisfied_by(&self, bufs: &[f64], eps: f64) -> bool {
        self.per_layer
            .iter()
            .zip(bufs.iter().chain(std::iter::repeat(&0.0)))
            .all(|(target, have)| have + eps >= *target)
    }
}

/// The ordered, monotone path of buffer states for a given operating point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateSequence {
    /// Transmission rate (bytes/s) the sequence was computed for — the rate
    /// from which the hypothetical backoffs occur.
    pub rate: f64,
    /// Number of active layers.
    pub n_active: usize,
    /// Per-layer consumption rate `C`.
    pub layer_rate: f64,
    /// Additive-increase slope `S`.
    pub slope: f64,
    /// `k₁` for this operating point.
    pub k1: u32,
    /// States in increasing order of total required buffering, after the
    /// monotonicity clamp. Never empty for `n_active ≥ 1` and `k_horizon ≥ 1`.
    pub states: Vec<BufferState>,
    /// Storage [`rebuild`](Self::rebuild) recycles between calls.
    scratch: RebuildScratch,
}

/// Working storage of [`StateSequence::rebuild`]. It holds leftovers
/// of the last rebuild, never part of the sequence's value: `Debug` prints
/// a fixed token and every scratch equals every other, so the derived
/// `Debug` / `PartialEq` of [`StateSequence`] still compare values only.
#[derive(Clone, Default)]
struct RebuildScratch {
    /// Scenario-2 initial triangle (the Scenario-1 bands at `k₁`).
    base: Vec<f64>,
    /// Scenario-2 recurring triangle.
    recurring: Vec<f64>,
    /// One sort key per candidate state, in generation order.
    keys: Vec<SortKey>,
    /// States a shorter path had no use for, vectors intact, for the next
    /// longer one.
    spare: Vec<BufferState>,
}

impl std::fmt::Debug for RebuildScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RebuildScratch")
    }
}

impl PartialEq for RebuildScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// What the path is ordered by, computed once per candidate.
#[derive(Clone, Copy)]
struct SortKey {
    raw_total: f64,
    scenario: Scenario,
    /// Slot of `states` the candidate was generated into.
    slot: usize,
}

impl SortKey {
    /// Raw total ascending, Scenario 1 first on equal totals.
    fn path_order(&self, other: &SortKey) -> Ordering {
        let rank = |s: Scenario| match s {
            Scenario::One => 0,
            Scenario::Two => 1,
        };
        self.raw_total
            .partial_cmp(&other.raw_total)
            .unwrap_or(Ordering::Equal)
            .then_with(|| rank(self.scenario).cmp(&rank(other.scenario)))
    }
}

impl StateSequence {
    /// Build the sequence for backoff counts `1..=k_horizon` at the paper's
    /// AIMD halving: [`rebuild`](Self::rebuild) into a new sequence with
    /// decrease factor `0.5`.
    pub fn build(rate: f64, n_active: usize, layer_rate: f64, slope: f64, k_horizon: u32) -> Self {
        let mut seq = StateSequence::default();
        seq.rebuild(rate, n_active, layer_rate, slope, k_horizon, 0.5);
        seq
    }

    /// Recompute the sequence in place for the operating point `rate`,
    /// `n_active` layers of `layer_rate`, slope `slope`, backoff counts
    /// `1..=k_horizon` and multiplicative decrease factor `decrease_factor`.
    ///
    /// States with zero requirement (fewer than `k₁` backoffs) and duplicate
    /// `(S1,k₁) == (S2,k₁)` states are pruned. The result is sorted by raw
    /// total with Scenario 1 first on ties (its taller-triangle distribution
    /// can stand in for the Scenario 2 one of equal total, §4), then the
    /// running per-layer maximum is applied.
    ///
    /// The previous contents' allocations are recycled: a caller ticking
    /// every period (the QA controller) reuses the state and per-layer
    /// vectors instead of reallocating ~2 `Vec`s per state per tick.
    ///
    /// Candidate `n` is computed straight into slot `n` of `states`, the
    /// path order is found by an in-place insertion sort over one key per
    /// candidate, the states are permuted by swaps, and the states a
    /// shorter path leaves over are kept for the next longer one. So once
    /// the sequence has held as many states as the new operating point
    /// needs, each with that many layers, nothing is allocated at any path
    /// length.
    ///
    /// What every state of a path shares is computed once: `k₁`, and the
    /// two triangles each Scenario-2 state is a sum of. Each value is still
    /// the result of the float operations [`per_layer`] performs for
    /// that state, in the same order.
    ///
    /// [`per_layer`]: crate::scenario::per_layer
    pub fn rebuild(
        &mut self,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
        decrease_factor: f64,
    ) {
        let consumption = n_active as f64 * layer_rate;
        let k1 = if consumption > 0.0 {
            min_backoffs_below(rate, consumption, decrease_factor)
        } else {
            1
        };
        let states = &mut self.states;
        let RebuildScratch {
            base,
            recurring,
            keys,
            spare,
        } = &mut self.scratch;
        keys.clear();
        // Fewer than k₁ backoffs leave no draining phase and nothing to
        // protect, so candidates start at k₁; without consumption there
        // are none at all.
        if consumption > 0.0 && k1 <= k_horizon {
            scenario_one_into(k1, rate, n_active, layer_rate, slope, decrease_factor, base);
            recurring_band_into(n_active, layer_rate, slope, decrease_factor, recurring);
            for k in k1..=k_horizon {
                for &scenario in &Scenario::ALL {
                    if scenario == Scenario::Two && k == k1 {
                        // Identical to Scenario 1 with k = k1; skip duplicates.
                        continue;
                    }
                    let slot = keys.len();
                    if slot == states.len() {
                        let state = spare.pop().unwrap_or_else(|| {
                            // A state the sequence never owned. Make room
                            // for every owned state in `spare` while
                            // allocating anyway, so that retiring states
                            // below never does.
                            spare.reserve(states.len() + 1);
                            BufferState {
                                scenario,
                                k,
                                raw_per_layer: Vec::new(),
                                per_layer: Vec::new(),
                            }
                        });
                        states.push(state);
                    }
                    let state = &mut states[slot];
                    let raw = &mut state.raw_per_layer;
                    match scenario {
                        Scenario::One if k == k1 => {
                            raw.clear();
                            raw.extend_from_slice(base);
                        }
                        Scenario::One => scenario_one_into(
                            k,
                            rate,
                            n_active,
                            layer_rate,
                            slope,
                            decrease_factor,
                            raw,
                        ),
                        Scenario::Two => {
                            let mult = (k - k1) as f64;
                            raw.clear();
                            raw.extend(base.iter().zip(recurring.iter()).map(|(b, r)| b + mult * r));
                        }
                    }
                    let raw_total = state.raw_total();
                    if raw_total <= 0.0 {
                        // Float rounding at the k₁ boundary can leave an
                        // empty triangle; the next candidate reuses the slot.
                        continue;
                    }
                    state.scenario = scenario;
                    state.k = k;
                    keys.push(SortKey {
                        raw_total,
                        scenario,
                        slot,
                    });
                }
            }
        }
        let n = keys.len();
        spare.extend(states.drain(n..));
        // Stable insertion sort: candidates are generated nearly in path
        // order, and unlike `sort_by` it never needs a scratch buffer.
        for i in 1..n {
            let mut j = i;
            while j > 0 && keys[j - 1].path_order(&keys[j]) == Ordering::Greater {
                keys.swap(j - 1, j);
                j -= 1;
            }
        }
        // Move the state generated into `keys[p].slot` to position `p`. A
        // slot below `p` was swapped away when its own position was
        // filled; the chain of keys leads to where its contents went.
        for p in 0..n {
            let mut from = keys[p].slot;
            while from < p {
                from = keys[from].slot;
            }
            states.swap(p, from);
        }
        // Figure-10 monotonicity: running per-layer maximum. Each state's
        // clamped targets already dominate every earlier state's, so the
        // maximum is taken pairwise against the previous state.
        for i in 0..n {
            let (done, rest) = states.split_at_mut(i);
            let BufferState {
                raw_per_layer,
                per_layer,
                ..
            } = &mut rest[0];
            per_layer.clear();
            match done.last() {
                Some(prev) => per_layer.extend(
                    raw_per_layer
                        .iter()
                        .zip(&prev.per_layer)
                        .map(|(&raw, &floor)| if raw < floor { floor } else { raw }),
                ),
                None => per_layer.extend_from_slice(raw_per_layer),
            }
        }
        self.rate = rate;
        self.n_active = n_active;
        self.layer_rate = layer_rate;
        self.slope = slope;
        self.k1 = k1;
    }

    /// Index of the first state not yet satisfied by `bufs`, or `None` when
    /// every state on the path is satisfied.
    pub fn first_unsatisfied(&self, bufs: &[f64], eps: f64) -> Option<usize> {
        self.states.iter().position(|s| !s.satisfied_by(bufs, eps))
    }

    /// Index of the last (largest) state fully satisfied by `bufs`, or
    /// `None` when not even the first state is satisfied.
    pub fn last_satisfied(&self, bufs: &[f64], eps: f64) -> Option<usize> {
        match self.first_unsatisfied(bufs, eps) {
            Some(0) => None,
            Some(i) => Some(i - 1),
            None => self.states.len().checked_sub(1),
        }
    }

    /// True when `bufs` satisfies every state with `k ≤ k_max` (the §3.1
    /// smoothing condition for adding a layer).
    pub fn satisfied_up_to_k(&self, bufs: &[f64], k_max: u32, eps: f64) -> bool {
        self.states
            .iter()
            .filter(|s| s.k <= k_max)
            .all(|s| s.satisfied_by(bufs, eps))
    }

    /// The §3.1 smoothing condition evaluated against a *post-add* path:
    /// for every state with `k ≤ k_max`, the first `existing` layers' shares
    /// must be covered in aggregate, and the base layer's share must be
    /// covered individually. The aggregate form reflects §4.2 substitution —
    /// buffered data for a higher layer can stand in for a lower one — and
    /// keeps the requirement reachable (the filling allocator parks leftover
    /// rate in the base, not in upper layers). The base share is demanded
    /// per-layer because nothing can substitute for it or refill it quickly
    /// once the add lands and consumption jumps by a whole `C`. The
    /// candidate layer's own share is excluded: it cannot have buffered
    /// anything before it starts.
    pub fn satisfied_up_to_k_post_add(
        &self,
        bufs: &[f64],
        k_max: u32,
        eps: f64,
        existing: usize,
    ) -> bool {
        let have_base = bufs.first().copied().unwrap_or(0.0);
        let have_total: f64 = bufs.iter().take(existing).map(|b| b.max(0.0)).sum();
        self.states.iter().filter(|s| s.k <= k_max).all(|s| {
            let want_base = s.per_layer.first().copied().unwrap_or(0.0);
            let want_total: f64 = s.per_layer.iter().take(existing).sum();
            have_base + eps >= want_base && have_total + eps >= want_total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    fn seq(rate: f64, n: usize, k: u32) -> StateSequence {
        StateSequence::build(rate, n, C, S, k)
    }

    fn rebuilt(rate: f64, n: usize, k: u32, f: f64) -> StateSequence {
        let mut seq = StateSequence::default();
        seq.rebuild(rate, n, C, S, k, f);
        seq
    }

    #[test]
    fn sequence_sorted_by_raw_total() {
        let s = seq(40_000.0, 3, 5);
        for w in s.states.windows(2) {
            assert!(w[0].raw_total() <= w[1].raw_total() + 1e-9);
        }
        assert!(!s.states.is_empty());
    }

    #[test]
    fn clamped_targets_monotone_per_layer() {
        let s = seq(40_000.0, 4, 6);
        for w in s.states.windows(2) {
            for i in 0..4 {
                assert!(
                    w[0].per_layer[i] <= w[1].per_layer[i] + 1e-9,
                    "layer {i} not monotone: {:?} -> {:?}",
                    w[0].per_layer,
                    w[1].per_layer
                );
            }
        }
    }

    #[test]
    fn clamp_never_reduces_targets_below_raw() {
        let s = seq(70_000.0, 4, 6);
        for state in &s.states {
            for (t, r) in state.per_layer.iter().zip(state.raw_per_layer.iter()) {
                assert!(t + 1e-9 >= *r);
            }
        }
    }

    #[test]
    fn duplicate_s2_states_at_or_below_k1_pruned() {
        let s = seq(40_000.0, 3, 5); // k1 = 1
        assert_eq!(s.k1, 1);
        assert!(!s
            .states
            .iter()
            .any(|st| st.scenario == Scenario::Two && st.k <= 1));
        // Exactly one state per k=1 (the shared S1/S2 state).
        assert_eq!(s.states.iter().filter(|st| st.k == 1).count(), 1);
    }

    #[test]
    fn zero_requirement_states_pruned() {
        // rate 130 KB/s, 3 layers → k1 = 3: k = 1, 2 need no buffering.
        let s = seq(130_000.0, 3, 5);
        assert_eq!(s.k1, 3);
        assert!(s.states.iter().all(|st| st.k >= 3));
        assert!(s.states.iter().all(|st| st.raw_total() > 0.0));
    }

    #[test]
    fn first_unsatisfied_walks_with_buffer_level() {
        let s = seq(40_000.0, 3, 4);
        // Empty buffers: first state unsatisfied.
        assert_eq!(s.first_unsatisfied(&[0.0, 0.0, 0.0], 1.0), Some(0));
        // Satisfy exactly the first state's targets.
        let t0 = s.states[0].per_layer.clone();
        assert_eq!(s.first_unsatisfied(&t0, 1.0), Some(1));
        // Satisfy everything.
        let last = s.states.last().unwrap().per_layer.clone();
        assert_eq!(s.first_unsatisfied(&last, 1.0), None);
        assert_eq!(s.last_satisfied(&last, 1.0), Some(s.states.len() - 1));
    }

    #[test]
    fn last_satisfied_none_with_empty_buffers() {
        let s = seq(40_000.0, 3, 4);
        assert_eq!(s.last_satisfied(&[0.0, 0.0, 0.0], 1.0), None);
    }

    #[test]
    fn satisfied_up_to_k_gates_adding() {
        let s = seq(40_000.0, 3, 8);
        let k_max = 2;
        let needed: Vec<f64> = (0..3)
            .map(|i| {
                s.states
                    .iter()
                    .filter(|st| st.k <= k_max)
                    .map(|st| st.per_layer[i])
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(s.satisfied_up_to_k(&needed, k_max, 1.0));
        let mut short = needed.clone();
        short[0] -= 10.0;
        assert!(!s.satisfied_up_to_k(&short, k_max, 1.0));
    }

    #[test]
    fn satisfied_by_tolerates_short_buffer_slice() {
        let s = seq(40_000.0, 3, 2);
        // A slice shorter than n_active is treated as zeros beyond its end.
        let state = &s.states[0];
        assert!(!state.satisfied_by(&[1e9], 1.0) || state.per_layer[1] == 0.0);
        assert!(state.satisfied_by(&[1e9, 1e9, 1e9], 1.0));
    }

    #[test]
    fn traversal_without_clamp_would_require_draining() {
        // Reproduce the figure-9 phenomenon: somewhere in the sorted raw
        // sequence a layer's optimal share *decreases* from one state to the
        // next — the motivation for the clamp. Search a few operating points
        // for at least one occurrence.
        let mut found = false;
        'outer: for &rate in &[40_000.0, 55_000.0, 70_000.0, 90_000.0] {
            for n in 2..=5usize {
                let s = StateSequence::build(rate, n, C, S, 6);
                for w in s.states.windows(2) {
                    for i in 0..n {
                        if w[1].raw_per_layer[i] < w[0].raw_per_layer[i] - 1e-6 {
                            found = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(found, "expected at least one non-monotone raw transition");
    }

    #[test]
    fn single_layer_sequence_has_base_only_states() {
        let s = seq(15_000.0, 1, 3);
        for st in &s.states {
            assert_eq!(st.per_layer.len(), 1);
            assert!(st.per_layer[0] > 0.0);
        }
    }

    #[test]
    fn build_equals_rebuild_at_half_bit_for_bit() {
        for &rate in &[15_000.0, 40_000.0, 70_000.0, 130_000.0] {
            for n in 1..=5usize {
                let a = StateSequence::build(rate, n, C, S, 6);
                let b = rebuilt(rate, n, 6, 0.5);
                assert_eq!(a.k1, b.k1);
                assert_eq!(a.states.len(), b.states.len());
                for (sa, sb) in a.states.iter().zip(&b.states) {
                    assert_eq!(sa.scenario, sb.scenario);
                    assert_eq!(sa.k, sb.k);
                    for (x, y) in sa.per_layer.iter().zip(&sb.per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    for (x, y) in sa.raw_per_layer.iter().zip(&sb.raw_per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn nonhalf_factor_sequence_stays_sorted_and_monotone() {
        for &f in &[0.7, 0.85] {
            let s = rebuilt(40_000.0, 4, 6, f);
            assert!(!s.states.is_empty(), "f={f}");
            for w in s.states.windows(2) {
                assert!(w[0].raw_total() <= w[1].raw_total() + 1e-9, "f={f}");
                for i in 0..4 {
                    assert!(w[0].per_layer[i] <= w[1].per_layer[i] + 1e-9, "f={f}");
                }
            }
        }
    }
}
