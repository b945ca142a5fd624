//! Filling-phase bandwidth allocation (§2.4, §4.1, figure 10).
//!
//! While the transmission rate exceeds the aggregate consumption rate, every
//! active layer receives its consumption rate `C` (so playout never stalls)
//! and the *excess* `R − n_a·C` is invested in receiver buffering. The
//! excess is steered along the monotone state path: within the first
//! unsatisfied state, lower layers are topped up first (the sequential
//! filling pattern of figure 5); when a state completes, filling moves to
//! the next state on the path.
//!
//! Two granularities are provided:
//!
//! * [`next_fill_layer`] — the literal per-packet decision of the paper's
//!   `SendPacket` pseudocode: which layer should own the next transmitted
//!   packet's worth of buffering.
//! * [`allocate_filling_into`] — a per-period rate split (consumption plus
//!   excess shares), which is what the transport senders consume; it
//!   produces the per-layer bandwidth "spikes" visible in the paper's
//!   figure 11.

use crate::states::StateSequence;

/// Per-packet filling decision: the layer whose buffer the next packet
/// should extend, or `None` when every state on the path is satisfied.
///
/// Implements the sequential pattern of §2.4: find the first unsatisfied
/// state on the monotone path, then the lowest layer still below that
/// state's target.
pub fn next_fill_layer(seq: &mut StateSequence, bufs: &[f64], eps: f64) -> Option<usize> {
    let idx = seq.first_unsatisfied(bufs, eps)?;
    seq.state(idx)?
        .per_layer
        .iter()
        .enumerate()
        .find(|(i, target)| bufs.get(*i).copied().unwrap_or(0.0) + eps < **target)
        .map(|(i, _)| i)
}

/// Split the offered `rate` across the active layers for a period of `dt`
/// seconds: `per_layer_rate` receives each layer's total send rate (its
/// consumption `C` plus its share of the excess; the entries sum to `rate`
/// up to float rounding) and `buffer_gain` the bytes of new buffering each
/// layer is assigned. Whatever the two vectors held is discarded;
/// `projected` is working storage. State targets are read in place from
/// the sequence, which is grown only as far as the excess reaches, so once
/// the vectors have held `seq.n_active` entries nothing is allocated (the
/// controller calls this every period).
///
/// Preconditions: `rate ≥ n_a·C` (filling phase) — callers in a draining
/// phase must use [`crate::draining`]. If called with a deficit anyway, the
/// shortfall is taken evenly from every layer's consumption share and no
/// buffering is added (a safe degenerate behaviour used only transiently).
#[allow(clippy::too_many_arguments)]
pub fn allocate_filling_into(
    seq: &mut StateSequence,
    bufs: &[f64],
    rate: f64,
    dt: f64,
    eps: f64,
    projected: &mut Vec<f64>,
    buffer_gain: &mut Vec<f64>,
    per_layer_rate: &mut Vec<f64>,
) {
    let n = seq.n_active;
    let c = seq.layer_rate;
    let consumption = n as f64 * c;
    buffer_gain.clear();
    buffer_gain.resize(n, 0.0);
    per_layer_rate.clear();
    if dt <= 0.0 {
        per_layer_rate.resize(n, c);
        return;
    }

    if rate < consumption {
        // Degenerate: not actually a filling phase. Scale consumption down
        // proportionally; the controller will switch to draining.
        let scale = if consumption > 0.0 {
            rate / consumption
        } else {
            0.0
        };
        per_layer_rate.resize(n, c * scale);
        return;
    }

    let mut excess = (rate - consumption) * dt;
    projected.clear();
    projected.extend((0..n).map(|i| bufs.get(i).copied().unwrap_or(0.0)));

    let mut next = 0;
    'states: while let Some(state) = seq.state(next) {
        next += 1;
        for i in 0..n {
            let target = state.per_layer[i];
            let gap = target - projected[i];
            if gap > eps {
                let give = gap.min(excess);
                projected[i] += give;
                buffer_gain[i] += give;
                excess -= give;
                if excess <= 0.0 {
                    break 'states;
                }
            }
        }
    }
    if excess > 0.0 {
        // Every state up to the horizon is satisfied; park the remainder in
        // the base layer — the most protective place for it (§2.3).
        buffer_gain[0] += excess;
    }

    per_layer_rate.extend(buffer_gain.iter().map(|g| c + g / dt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::StateSequence;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    fn seq(rate: f64, n: usize) -> StateSequence {
        StateSequence::build(rate, n, C, S, 8)
    }

    struct Fill {
        per_layer_rate: Vec<f64>,
        buffer_gain: Vec<f64>,
    }

    /// One period of [`allocate_filling_into`] on fresh vectors.
    fn fill(seq: &mut StateSequence, bufs: &[f64], rate: f64, dt: f64) -> Fill {
        let (mut projected, mut buffer_gain, mut per_layer_rate) = (vec![], vec![], vec![]);
        allocate_filling_into(
            seq,
            bufs,
            rate,
            dt,
            1.0,
            &mut projected,
            &mut buffer_gain,
            &mut per_layer_rate,
        );
        Fill {
            per_layer_rate,
            buffer_gain,
        }
    }

    #[test]
    fn next_fill_layer_prefers_base_when_empty() {
        let mut s = seq(40_000.0, 3);
        assert_eq!(next_fill_layer(&mut s, &[0.0, 0.0, 0.0], 1.0), Some(0));
    }

    #[test]
    fn next_fill_layer_moves_up_once_base_target_met() {
        let mut s = seq(40_000.0, 3);
        // Give the base layer a huge buffer: the first unsatisfied state's
        // base target is met, so the decision moves to a higher layer
        // (unless that state only buffers the base layer — then the next
        // state drives it; either way the result is not forced to 0).
        let mut bufs = [1e9, 0.0, 0.0];
        let layer = next_fill_layer(&mut s, &bufs, 1.0);
        assert!(layer.is_some());
        assert_ne!(layer, Some(0));
        // And fully met buffers yield None.
        bufs = [1e9, 1e9, 1e9];
        assert_eq!(next_fill_layer(&mut s, &bufs, 1.0), None);
    }

    #[test]
    fn fill_sequentially_reaches_every_state() {
        // Simulate per-packet filling and check the states get satisfied in
        // path order.
        let mut s = seq(40_000.0, 3);
        let pkt = 250.0;
        let mut bufs = vec![0.0; 3];
        let mut satisfied_order = Vec::new();
        let mut last = None;
        for _ in 0..100_000 {
            match next_fill_layer(&mut s, &bufs, 1.0) {
                Some(layer) => bufs[layer] += pkt,
                None => break,
            }
            let now = s.last_satisfied(&bufs, 1.0);
            if now != last {
                if let Some(i) = now {
                    satisfied_order.push(i);
                }
                last = now;
            }
        }
        assert_eq!(next_fill_layer(&mut s, &bufs, 1.0), None);
        // States were reached strictly in order.
        for w in satisfied_order.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(*satisfied_order.last().unwrap(), s.path().len() - 1);
    }

    #[test]
    fn allocation_conserves_rate() {
        let mut s = seq(50_000.0, 3);
        let alloc = fill(&mut s, &[0.0, 0.0, 0.0], 50_000.0, 0.1);
        let total: f64 = alloc.per_layer_rate.iter().sum();
        assert!((total - 50_000.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn allocation_gives_every_layer_consumption() {
        let mut s = seq(50_000.0, 3);
        let alloc = fill(&mut s, &[0.0; 3], 50_000.0, 0.1);
        for &r in &alloc.per_layer_rate {
            assert!(r + 1e-9 >= C, "layer rate {r} below consumption");
        }
    }

    #[test]
    fn excess_goes_to_base_first_when_buffers_empty() {
        let mut s = seq(50_000.0, 3);
        let alloc = fill(&mut s, &[0.0; 3], 50_000.0, 0.1);
        assert!(alloc.buffer_gain[0] > 0.0);
        assert!(alloc.buffer_gain[0] >= alloc.buffer_gain[1]);
        assert!(alloc.buffer_gain[1] >= alloc.buffer_gain[2]);
    }

    #[test]
    fn saturated_path_parks_excess_in_base() {
        let mut s = seq(50_000.0, 2);
        let huge = [1e12, 1e12];
        let alloc = fill(&mut s, &huge, 50_000.0, 0.1);
        let excess = (50_000.0 - 2.0 * C) * 0.1;
        assert!((alloc.buffer_gain[0] - excess).abs() < 1e-6);
        assert_eq!(alloc.buffer_gain[1], 0.0);
        assert!(s.satisfied_up_to_k(&huge, 2, 1.0));
    }

    #[test]
    fn targets_met_reflects_k_max_condition() {
        let mut s = seq(40_000.0, 2);
        assert!(!s.satisfied_up_to_k(&[0.0; 2], 2, 1.0));
        assert!(s.satisfied_up_to_k(&[1e9, 1e9], 2, 1.0));
    }

    #[test]
    fn degenerate_deficit_call_scales_consumption() {
        let mut s = seq(40_000.0, 4); // consumption 40 KB/s
        let alloc = fill(&mut s, &[0.0; 4], 20_000.0, 0.1);
        let total: f64 = alloc.per_layer_rate.iter().sum();
        assert!((total - 20_000.0).abs() < 1e-6);
        assert!(alloc.buffer_gain.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn buffer_gain_matches_rate_minus_consumption() {
        let mut s = seq(55_000.0, 3);
        let dt = 0.25;
        let alloc = fill(&mut s, &[500.0, 100.0, 0.0], 55_000.0, dt);
        let gain: f64 = alloc.buffer_gain.iter().sum();
        let expect = (55_000.0 - 30_000.0) * dt;
        assert!((gain - expect).abs() < 1e-6, "gain {gain} expect {expect}");
    }
}
