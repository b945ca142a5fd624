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
//! over the ordered sequence, which is exactly "no less than every earlier
//! state" and keeps the path drain-free; the pre-clamp targets are kept
//! available for the ablation benchmarks.
//!
//! The candidates arrive in two streams that are each already in path
//! order: Scenario-1 totals grow with `k` (every extra backoff deepens the
//! one triangle) and Scenario-2 totals grow by one recurring triangle per
//! `k`. The path is therefore a two-way merge of the streams, Scenario 1
//! first on equal totals, and since the clamp looks back only at the
//! previous state, each state is final the moment the merge emits it. A
//! reader that needs only a prefix of the path — the controller's filling
//! walk, add check and draining floor search — grows the sequence just as
//! far as it reads ([`StateSequence::reset`], [`StateSequence::state`]).
//!
//! The emitted states are stored as rows: one buffer of raw targets and
//! one of clamped targets, `n_active` entries per state, beside a list of
//! each state's `(scenario, k)`. A [`BufferState`] is a view of one row;
//! [`States`] is a view of consecutive rows.

use crate::scenario::{min_backoffs_below, recurring_band_into, scenario_one_into, Scenario};

/// One optimal buffer state `(scenario, k)` with its per-layer targets: a
/// view of one row of a [`StateSequence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferState<'a> {
    /// Which extremal loss pattern this state protects against.
    pub scenario: Scenario,
    /// Number of backoffs survived.
    pub k: u32,
    /// Raw per-layer optimal allocation (bytes, index 0 = base), before the
    /// monotonicity clamp.
    pub raw_per_layer: &'a [f64],
    /// Per-layer targets after the figure-10 monotonicity constraint.
    pub per_layer: &'a [f64],
}

impl BufferState<'_> {
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

/// Consecutive states of a path from its first, in path order: the whole
/// path ([`StateSequence::path`]) or the prefix emitted so far
/// ([`StateSequence::emitted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct States<'a> {
    /// `(scenario, k)` of each state.
    labels: &'a [(Scenario, u32)],
    /// Raw targets, `stride` per state.
    raw: &'a [f64],
    /// Clamped targets, `stride` per state.
    clamped: &'a [f64],
    /// Layers per state.
    stride: usize,
}

impl<'a> States<'a> {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there is no state.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// State `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<BufferState<'a>> {
        let &(scenario, k) = self.labels.get(i)?;
        let row = i * self.stride..(i + 1) * self.stride;
        Some(BufferState {
            scenario,
            k,
            raw_per_layer: &self.raw[row.clone()],
            per_layer: &self.clamped[row],
        })
    }

    /// The last state, or `None` when there is none.
    pub fn last(&self) -> Option<BufferState<'a>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Each state with its successor, in path order.
    pub fn pairs(&self) -> impl Iterator<Item = (BufferState<'a>, BufferState<'a>)> + 'a {
        self.iter().zip(self.iter().skip(1))
    }

    /// The states in path order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = BufferState<'a>> + ExactSizeIterator + Clone + 'a {
        let states = *self;
        (0..states.len()).map(move |i| states.get(i).expect("index below len"))
    }
}

/// The ordered, monotone path of buffer states for a given operating point.
///
/// The states are read through [`path`](Self::path) (the whole path) or
/// [`state`](Self::state) (one state), both of which emit whatever they
/// need first, so no reader sees a prefix in place of the path. Two
/// sequences compare equal when they are at the same operating point: they
/// then describe the same path, however much of it either has emitted.
#[derive(Debug, Clone, Default)]
pub struct StateSequence {
    /// Transmission rate (bytes/s) the sequence was computed for — the rate
    /// from which the hypothetical backoffs occur.
    pub rate: f64,
    /// Number of active layers: the row stride.
    pub n_active: usize,
    /// Per-layer consumption rate `C`.
    pub layer_rate: f64,
    /// Additive-increase slope `S`.
    pub slope: f64,
    /// `k₁` for this operating point.
    pub k1: u32,
    /// `(scenario, k)` of each state emitted so far, in increasing order of
    /// total required buffering.
    labels: Vec<(Scenario, u32)>,
    /// Raw targets of the emitted states, one row of `n_active` per state.
    raw: Vec<f64>,
    /// Targets of the emitted states after the monotonicity clamp, rows as
    /// in `raw`.
    clamped: Vec<f64>,
    /// Largest backoff count on the path.
    k_horizon: u32,
    /// Multiplicative decrease factor the path is computed for.
    decrease_factor: f64,
    /// Where the merge of the two scenario streams stands.
    merge: Merge,
}

/// The two-stream merge behind [`StateSequence`]: the heads of both
/// streams and the triangles their states are built from. None of it is
/// part of the sequence's value (the operating point determines it), so
/// `Debug` prints a fixed token.
#[derive(Clone, Default)]
struct Merge {
    /// Scenario-1 targets at `k₁`: also the initial triangle of every
    /// Scenario-2 state.
    base: Vec<f64>,
    /// Scenario-2 recurring triangle.
    recurring: Vec<f64>,
    /// The Scenario-1 and Scenario-2 streams, indexed by `Scenario as
    /// usize`.
    streams: [Stream; 2],
}

/// One scenario's candidates, in increasing `k`.
#[derive(Clone, Default)]
struct Stream {
    /// Backoff count of the next candidate.
    k: u32,
    /// Whether `raw` and `raw_total` hold that candidate (always with a
    /// positive total).
    ready: bool,
    /// The candidate's raw per-layer targets.
    raw: Vec<f64>,
    /// Their sum, the merge key.
    raw_total: f64,
}

impl std::fmt::Debug for Merge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Merge")
    }
}

impl PartialEq for StateSequence {
    fn eq(&self, other: &Self) -> bool {
        self.rate == other.rate
            && self.n_active == other.n_active
            && self.layer_rate == other.layer_rate
            && self.slope == other.slope
            && self.k_horizon == other.k_horizon
            && self.decrease_factor == other.decrease_factor
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

    /// Recompute the whole sequence in place for the operating point
    /// `rate`, `n_active` layers of `layer_rate`, slope `slope`, backoff
    /// counts `1..=k_horizon` and multiplicative decrease factor
    /// `decrease_factor`: [`reset`](Self::reset), then emit every state.
    ///
    /// States with zero requirement (fewer than `k₁` backoffs, or an empty
    /// triangle at `k₁`) and the duplicate `(S2,k₁) == (S1,k₁)` state are
    /// pruned. The states come in increasing raw total with Scenario 1
    /// first on ties (its taller-triangle distribution can stand in for the
    /// Scenario 2 one of equal total, §4), each clamped to the running
    /// per-layer maximum.
    pub fn rebuild(
        &mut self,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
        decrease_factor: f64,
    ) {
        self.reset(
            rate,
            n_active,
            layer_rate,
            slope,
            k_horizon,
            decrease_factor,
        );
        while self.emit() {}
    }

    /// Point the sequence at a new operating point (the arguments of
    /// [`rebuild`](Self::rebuild)) without emitting any state: the path is
    /// emitted as [`state`](Self::state), [`path`](Self::path) and the
    /// readers below ask for more of it, so a reader that stops early never
    /// computes the rest.
    ///
    /// The rows are emptied, not freed: a caller resetting every period
    /// (the QA controller) reuses them. Once the sequence has held as many
    /// states, and as many targets in all, as the new operating point
    /// needs, and as many layers, nothing is allocated at any path length.
    ///
    /// What every state of a path shares is computed here once: `k₁`, and
    /// the two triangles each Scenario-2 state is a sum of. Each emitted
    /// value is still the result of the float operations [`per_layer`]
    /// performs for that state, in the same order.
    ///
    /// [`per_layer`]: crate::scenario::per_layer
    pub fn reset(
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
        self.labels.clear();
        self.raw.clear();
        self.clamped.clear();
        // Fewer than k₁ backoffs leave no draining phase and nothing to
        // protect, so candidates start at k₁; without consumption there
        // are none at all. Scenario 2 at k₁ is Scenario 1 at k₁.
        let Merge {
            base,
            recurring,
            streams: [one, two],
        } = &mut self.merge;
        if consumption > 0.0 && k1 <= k_horizon {
            scenario_one_into(k1, rate, n_active, layer_rate, slope, decrease_factor, base);
            recurring_band_into(n_active, layer_rate, slope, decrease_factor, recurring);
            one.k = k1;
            two.k = k1 + 1;
        } else {
            one.k = k_horizon.saturating_add(1);
            two.k = k_horizon.saturating_add(1);
        }
        one.ready = false;
        two.ready = false;
        self.rate = rate;
        self.n_active = n_active;
        self.layer_rate = layer_rate;
        self.slope = slope;
        self.k1 = k1;
        self.k_horizon = k_horizon;
        self.decrease_factor = decrease_factor;
    }

    /// State `i` of the path, emitting the states before it first; `None`
    /// when the path has no state `i`.
    pub fn state(&mut self, i: usize) -> Option<BufferState<'_>> {
        while self.labels.len() <= i {
            if !self.emit() {
                return None;
            }
        }
        self.emitted().get(i)
    }

    /// The whole path, emitting whatever of it is still to come first:
    /// never empty for `n_active ≥ 1` and `k_horizon ≥ 1` unless the rate
    /// leaves no draining phase (`k₁ > k_horizon`).
    pub fn path(&mut self) -> States<'_> {
        while self.emit() {}
        self.emitted()
    }

    /// The states emitted since the last [`reset`](Self::reset): only a
    /// prefix of the path, as far as the readers have read. For a reader
    /// that has just grown it as far as it reads, and for checking how far
    /// that was; [`path`](Self::path) is the whole path.
    pub fn emitted(&self) -> States<'_> {
        States {
            labels: &self.labels,
            raw: &self.raw,
            clamped: &self.clamped,
            stride: self.n_active,
        }
    }

    /// Append the next state of the path as a new row; false when the path
    /// is complete.
    fn emit(&mut self) -> bool {
        self.fill_head(Scenario::One);
        self.fill_head(Scenario::Two);
        let [one, two] = &mut self.merge.streams;
        let (stream, scenario) = match (one.ready, two.ready) {
            (true, true) if two.raw_total < one.raw_total => (two, Scenario::Two),
            (true, _) => (one, Scenario::One),
            (false, true) => (two, Scenario::Two),
            (false, false) => return false,
        };
        self.labels.push((scenario, stream.k));
        stream.ready = false;
        stream.k += 1;
        let row = self.raw.len();
        self.raw.extend_from_slice(&stream.raw);
        // Figure-10 monotonicity: running per-layer maximum. The previous
        // row's clamped targets already dominate every earlier state's, so
        // the maximum is taken pairwise against it. A state always has
        // `n_active ≥ 1` layers, so only the first row starts at 0.
        match row.checked_sub(self.n_active) {
            Some(prev) => {
                self.clamped.extend_from_within(prev..row);
                for (target, &raw) in self.clamped[row..].iter_mut().zip(&self.raw[row..]) {
                    *target = if raw < *target { *target } else { raw };
                }
            }
            None => self.clamped.extend_from_slice(&self.raw[row..]),
        }
        true
    }

    /// Compute `scenario`'s next candidate with a positive total, unless it
    /// is already there or the stream is past the horizon.
    fn fill_head(&mut self, scenario: Scenario) {
        let Merge {
            base,
            recurring,
            streams,
        } = &mut self.merge;
        let stream = &mut streams[scenario as usize];
        if stream.ready {
            return;
        }
        while stream.k <= self.k_horizon {
            let k = stream.k;
            let raw = &mut stream.raw;
            match scenario {
                Scenario::One if k == self.k1 => {
                    raw.clear();
                    raw.extend_from_slice(base);
                }
                Scenario::One => scenario_one_into(
                    k,
                    self.rate,
                    self.n_active,
                    self.layer_rate,
                    self.slope,
                    self.decrease_factor,
                    raw,
                ),
                Scenario::Two => {
                    let mult = (k - self.k1) as f64;
                    raw.clear();
                    raw.extend(base.iter().zip(recurring.iter()).map(|(b, r)| b + mult * r));
                }
            }
            stream.raw_total = raw.iter().sum();
            if stream.raw_total > 0.0 {
                stream.ready = true;
                return;
            }
            // Float rounding at the k₁ boundary can leave an empty
            // triangle; the next candidate reuses the vector.
            stream.k += 1;
        }
    }

    /// True when `keep` holds for every state with `k ≤ k_max`. Stops at
    /// the first such state that fails, or once both streams are past
    /// `k_max`: every state still to come has `k > k_max`.
    fn all_up_to_k(&mut self, k_max: u32, keep: impl Fn(BufferState<'_>) -> bool) -> bool {
        let mut i = 0;
        loop {
            if i == self.labels.len() {
                let [one, two] = &self.merge.streams;
                if (one.k > k_max && two.k > k_max) || !self.emit() {
                    return true;
                }
            }
            if self.labels[i].1 <= k_max && !keep(self.emitted().get(i).expect("state emitted")) {
                return false;
            }
            i += 1;
        }
    }

    /// Index of the first state not yet satisfied by `bufs`, or `None` when
    /// every state on the path is satisfied. Emits the path up to that
    /// state.
    pub fn first_unsatisfied(&mut self, bufs: &[f64], eps: f64) -> Option<usize> {
        let mut i = 0;
        while let Some(state) = self.state(i) {
            if !state.satisfied_by(bufs, eps) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Index of the last (largest) state fully satisfied by `bufs`, or
    /// `None` when not even the first state is satisfied. Emits the path
    /// up to the first unsatisfied state.
    pub fn last_satisfied(&mut self, bufs: &[f64], eps: f64) -> Option<usize> {
        match self.first_unsatisfied(bufs, eps) {
            Some(0) => None,
            Some(i) => Some(i - 1),
            None => self.labels.len().checked_sub(1),
        }
    }

    /// True when `bufs` satisfies every state with `k ≤ k_max` (the §3.1
    /// smoothing condition for adding a layer). Emits the path up to the
    /// first such state `bufs` misses, or until no state with `k ≤ k_max`
    /// is left to come.
    pub fn satisfied_up_to_k(&mut self, bufs: &[f64], k_max: u32, eps: f64) -> bool {
        self.all_up_to_k(k_max, |s| s.satisfied_by(bufs, eps))
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
    /// anything before it starts. Emits the path as far as
    /// [`satisfied_up_to_k`](Self::satisfied_up_to_k) does.
    pub fn satisfied_up_to_k_post_add(
        &mut self,
        bufs: &[f64],
        k_max: u32,
        eps: f64,
        existing: usize,
    ) -> bool {
        let have_base = bufs.first().copied().unwrap_or(0.0);
        let have_total: f64 = bufs.iter().take(existing).map(|b| b.max(0.0)).sum();
        self.all_up_to_k(k_max, |s| {
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

    /// The path of [`seq`] after a reset: nothing emitted yet.
    fn lazy(rate: f64, n: usize, k: u32) -> StateSequence {
        let mut seq = StateSequence::default();
        seq.reset(rate, n, C, S, k, 0.5);
        seq
    }

    #[test]
    fn readers_emit_only_the_states_they_read() {
        // rate 40 KB/s, 3 layers: k1 = 1, so horizon 16 has 31 states.
        let mut eager = seq(40_000.0, 3, 16);
        assert_eq!(eager.emitted().len(), 31);
        let bufs = eager.emitted().get(4).unwrap().per_layer.to_vec();
        let want = eager.first_unsatisfied(&bufs, 1.0).unwrap();
        let eager_path = eager.emitted();
        let mut s = lazy(40_000.0, 3, 16);
        assert!(s.emitted().is_empty());

        // Empty buffers miss the first state, which has k = 1.
        assert!(!s.satisfied_up_to_k(&[0.0; 3], 2, 1.0));
        assert_eq!(s.emitted().len(), 1);

        // Met buffers: every k ≤ 2 state must be read, and nothing once
        // both scenarios' next states have k > 2.
        let mut s = lazy(40_000.0, 3, 16);
        assert!(s.satisfied_up_to_k(&[1e12; 3], 2, 1.0));
        let read = s.emitted().len();
        assert!((3..31).contains(&read), "{read}");
        assert_eq!(s.emitted().iter().filter(|st| st.k <= 2).count(), 3);

        // The filling and draining walks stop at the first miss.
        let mut s = lazy(40_000.0, 3, 16);
        assert_eq!(s.first_unsatisfied(&bufs, 1.0), Some(want));
        assert_eq!(s.emitted().len(), want + 1);
        assert_eq!(s.last_satisfied(&bufs, 1.0), Some(want - 1));
        assert_eq!(s.emitted().len(), want + 1);

        // `state` grows to exactly the state asked for and no further,
        // the grown prefix is the eager path's, and `path` grows the rest.
        assert_eq!(s.state(20), eager_path.get(20));
        assert_eq!(s.emitted().len(), 21);
        assert!(s.emitted().iter().eq(eager_path.iter().take(21)));
        assert_eq!(s.state(31), None);
        assert_eq!(s.emitted().len(), 31);
        let mut s = lazy(40_000.0, 3, 16);
        assert_eq!(s, eager, "same operating point, whatever has been read");
        assert_eq!(s.path(), eager_path);
    }

    #[test]
    fn reset_without_draining_phase_emits_nothing() {
        // k1 = 3 past a horizon of 2, and no consumption at all.
        let mut s = lazy(130_000.0, 3, 2);
        assert_eq!(s.k1, 3);
        assert_eq!(s.state(0), None);
        assert_eq!(s.first_unsatisfied(&[0.0; 3], 1.0), None);
        assert!(s.satisfied_up_to_k(&[0.0; 3], 16, 1.0));
        let mut s = lazy(30_000.0, 0, 8);
        assert_eq!(s.state(0), None);
    }

    #[test]
    fn sequence_sorted_by_raw_total() {
        let mut s = seq(40_000.0, 3, 5);
        for (a, b) in s.path().pairs() {
            assert!(a.raw_total() <= b.raw_total() + 1e-9);
        }
        assert!(!s.path().is_empty());
    }

    #[test]
    fn clamped_targets_monotone_per_layer() {
        let mut s = seq(40_000.0, 4, 6);
        for (a, b) in s.path().pairs() {
            for i in 0..4 {
                assert!(
                    a.per_layer[i] <= b.per_layer[i] + 1e-9,
                    "layer {i} not monotone: {:?} -> {:?}",
                    a.per_layer,
                    b.per_layer
                );
            }
        }
    }

    #[test]
    fn clamp_never_reduces_targets_below_raw() {
        let mut s = seq(70_000.0, 4, 6);
        for state in s.path().iter() {
            for (t, r) in state.per_layer.iter().zip(state.raw_per_layer.iter()) {
                assert!(t + 1e-9 >= *r);
            }
        }
    }

    #[test]
    fn duplicate_s2_states_at_or_below_k1_pruned() {
        let mut s = seq(40_000.0, 3, 5); // k1 = 1
        assert_eq!(s.k1, 1);
        assert!(!s
            .path()
            .iter()
            .any(|st| st.scenario == Scenario::Two && st.k <= 1));
        // Exactly one state per k=1 (the shared S1/S2 state).
        assert_eq!(s.path().iter().filter(|st| st.k == 1).count(), 1);
    }

    #[test]
    fn zero_requirement_states_pruned() {
        // rate 130 KB/s, 3 layers → k1 = 3: k = 1, 2 need no buffering.
        let mut s = seq(130_000.0, 3, 5);
        assert_eq!(s.k1, 3);
        assert!(s.path().iter().all(|st| st.k >= 3));
        assert!(s.path().iter().all(|st| st.raw_total() > 0.0));
    }

    #[test]
    fn first_unsatisfied_walks_with_buffer_level() {
        let mut s = seq(40_000.0, 3, 4);
        // Empty buffers: first state unsatisfied.
        assert_eq!(s.first_unsatisfied(&[0.0, 0.0, 0.0], 1.0), Some(0));
        // Satisfy exactly the first state's targets.
        let t0 = s.state(0).unwrap().per_layer.to_vec();
        assert_eq!(s.first_unsatisfied(&t0, 1.0), Some(1));
        // Satisfy everything.
        let last = s.path().last().unwrap().per_layer.to_vec();
        assert_eq!(s.first_unsatisfied(&last, 1.0), None);
        assert_eq!(s.last_satisfied(&last, 1.0), Some(s.path().len() - 1));
    }

    #[test]
    fn last_satisfied_none_with_empty_buffers() {
        let mut s = seq(40_000.0, 3, 4);
        assert_eq!(s.last_satisfied(&[0.0, 0.0, 0.0], 1.0), None);
    }

    #[test]
    fn satisfied_up_to_k_gates_adding() {
        let mut s = seq(40_000.0, 3, 8);
        let k_max = 2;
        let needed: Vec<f64> = (0..3)
            .map(|i| {
                s.path()
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
        let mut s = seq(40_000.0, 3, 2);
        // A slice shorter than n_active is treated as zeros beyond its end.
        let state = s.state(0).unwrap();
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
                let mut s = StateSequence::build(rate, n, C, S, 6);
                for (a, b) in s.path().pairs() {
                    for i in 0..n {
                        if b.raw_per_layer[i] < a.raw_per_layer[i] - 1e-6 {
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
        let mut s = seq(15_000.0, 1, 3);
        for st in s.path().iter() {
            assert_eq!(st.per_layer.len(), 1);
            assert!(st.per_layer[0] > 0.0);
        }
    }

    #[test]
    fn build_equals_rebuild_at_half_bit_for_bit() {
        for &rate in &[15_000.0, 40_000.0, 70_000.0, 130_000.0] {
            for n in 1..=5usize {
                let mut a = StateSequence::build(rate, n, C, S, 6);
                let mut b = rebuilt(rate, n, 6, 0.5);
                assert_eq!(a.k1, b.k1);
                assert_eq!(a.path().len(), b.path().len());
                for (sa, sb) in a.path().iter().zip(b.path().iter()) {
                    assert_eq!(sa.scenario, sb.scenario);
                    assert_eq!(sa.k, sb.k);
                    for (x, y) in sa.per_layer.iter().zip(sb.per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    for (x, y) in sa.raw_per_layer.iter().zip(sb.raw_per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn nonhalf_factor_sequence_stays_sorted_and_monotone() {
        for &f in &[0.7, 0.85] {
            let mut s = rebuilt(40_000.0, 4, 6, f);
            assert!(!s.path().is_empty(), "f={f}");
            for (a, b) in s.path().pairs() {
                assert!(a.raw_total() <= b.raw_total() + 1e-9, "f={f}");
                for i in 0..4 {
                    assert!(a.per_layer[i] <= b.per_layer[i] + 1e-9, "f={f}");
                }
            }
        }
    }
}
