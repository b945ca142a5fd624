//! The engine's event queue behind the [`Scheduler`] trait.
//!
//! [`TimerWheelScheduler`] is the engine's only event queue
//! ([`crate::engine`] holds one per world, inline): a hierarchical timer
//! wheel. Near-future events hash into integer-nanosecond bucket slots
//! (O(1) insert), far-future events overflow into a `BTreeMap` ordered by
//! exact key, and every record is parked once in a [`Slab`] arena so only
//! 24-byte `WheelKey`s circulate.
//!
//! **Ordering contract.** Events drain in strictly increasing
//! `(time_ns, seq)` order — exactly the tie-break the engine has always
//! used. `seq` values must be unique and a scheduled `(time_ns, seq)`
//! never behind the last pop; `seq` need not grow call to call, since the
//! engine may push a timer at a key reserved when it was armed. Under that
//! contract the wheel is *bit-identical* to the original `BinaryHeap`
//! queue: `sched_properties.rs` keeps that heap as the oracle and checks
//! the two op by op over random insert / bounded-pop traces with
//! out-of-order reserved `seq`s, and the digests pinned in
//! `pinned_fingerprints.rs` — which the heap itself produced before the
//! wheel existed — hold it at the world level.
//!
//! There is no cancellation: an event, once scheduled, is popped exactly
//! once. The TCP RTO keeps one live event and re-pushes it at its latest
//! reserved key; RAP/QA soft timers (`armed_at`) re-arm only earlier and
//! ignore the stale fire.

use crate::arena::Slab;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The event-queue contract: a min-queue on `(time_ns, seq)`.
pub trait Scheduler<T> {
    /// Insert `item` to fire at `time_ns`. `seq` must be unique on this
    /// scheduler, and `(time_ns, seq)` not behind the last pop.
    fn schedule(&mut self, time_ns: u64, seq: u64, item: T);

    /// Remove and return the next event as `(time_ns, seq, item)` if it
    /// fires at or before `bound_ns` (the engine hot loop's only entry
    /// point).
    fn pop_next_at_or_before(&mut self, bound_ns: u64) -> Option<(u64, u64, T)>;

    /// Number of scheduled, not yet popped events.
    fn len(&self) -> usize;

    /// True when no events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Timer-wheel implementation.
// ---------------------------------------------------------------------------

/// Bucket granularity: `2^21` ns ≈ 2.1 ms per slot. Coarse enough that a
/// slot batches several events at simulation packet rates (the batch is
/// sorted once and drained O(1) per event), fine enough that sorts stay
/// tiny. Granularity does not limit precision — exact `time_ns` is kept
/// in the key and ordered within the slot.
const GRAN_SHIFT: u32 = 21;
/// `2^12 = 4096` slots → a horizon of ~8.6 s of simulated time. Events
/// farther out (session starts, RTO backoffs, CBR burst edges) go to the
/// overflow tree and re-enter through the cursor scan.
const SLOT_BITS: u32 = 12;
const SLOT_COUNT: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOT_COUNT as u64) - 1;
/// Bitmap words covering the slots (64 slots per word).
const BITMAP_WORDS: usize = SLOT_COUNT / 64;

/// Compact key circulated through wheel structures; the record itself
/// stays in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WheelKey {
    time_ns: u64,
    seq: u64,
    idx: u32,
}

/// Index sentinel terminating a slot's intrusive chain.
const NONE_IDX: u32 = u32::MAX;

/// One scheduled event parked in the slab. `next` threads the record into
/// its slot's intrusive LIFO chain (unused — `NONE_IDX` — for records
/// referenced by `drain` or `overflow`), so steady-state scheduling
/// performs no allocation at all: slot buckets are linked lists through
/// slab storage, not per-slot vectors.
#[derive(Debug, Clone)]
struct Rec<T> {
    time_ns: u64,
    seq: u64,
    next: u32,
    item: T,
}

/// Hierarchical timer-wheel scheduler (see module docs).
///
/// * **Near future** (`< ~8.6 s` ahead of the cursor): O(1) push into
///   `slots[tick & MASK]`; a per-word occupancy bitmap lets the cursor
///   skip runs of empty slots 64 at a time.
/// * **Far future**: exact-keyed `BTreeMap` — O(log m) on the small
///   population of long timers only.
/// * **Active tick**: when the cursor lands on a tick its events are
///   sorted once (keys are unique, so `sort_unstable` is deterministic)
///   and drained back-to-front; events scheduled *at or behind* the
///   active tick while it drains (the engine's "deliver now" path) are
///   merged into the sorted drain vector by binary-search insertion —
///   such events fire almost immediately, so they land at or near the
///   pop end and the shift is effectively free, preserving exact
///   `(time_ns, seq)` order without a side heap.
#[derive(Debug)]
pub struct TimerWheelScheduler<T> {
    /// Event records, addressed by the `idx` of a [`WheelKey`]; one per
    /// scheduled event, so `slab.len()` is the queue length.
    slab: Slab<Rec<T>>,
    /// Near-future buckets: head index of each slot's intrusive chain
    /// (`NONE_IDX` when empty).
    slots: Box<[u32]>,
    /// One bit per slot: set while the slot's chain is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Tick (time_ns >> GRAN_SHIFT) the wheel is currently draining.
    cursor_tick: u64,
    /// Current tick's events, sorted descending so `pop()` is O(1).
    /// Same-tick schedules merge in by sorted insertion.
    drain: Vec<WheelKey>,
    /// Far-future events beyond the wheel horizon, exact-keyed.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Inserts by path, always on: at or behind the active tick, within
    /// the window, into the overflow. A world adds them to the obs view.
    pub(crate) inserts: [u64; 3],
}

impl<T> Default for TimerWheelScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheelScheduler<T> {
    /// New empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheelScheduler {
            slab: Slab::new(),
            slots: vec![NONE_IDX; SLOT_COUNT].into_boxed_slice(),
            occupied: [0u64; BITMAP_WORDS],
            cursor_tick: 0,
            drain: Vec::new(),
            overflow: BTreeMap::new(),
            inserts: [0; 3],
        }
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// First tick in `(from, from + SLOT_COUNT]` whose slot list is
    /// non-empty, found by scanning the occupancy bitmap word-wise.
    fn next_occupied_tick(&self, from: u64) -> Option<u64> {
        let start = (from + 1) & SLOT_MASK;
        let mut scanned = 0usize;
        let mut word_idx = (start >> 6) as usize;
        let mut bit = (start & 63) as u32;
        while scanned < SLOT_COUNT {
            let word = self.occupied[word_idx] >> bit;
            if word != 0 {
                let slot = ((word_idx as u64) << 6) + u64::from(bit + word.trailing_zeros());
                // Translate the slot back to an absolute tick > `from`.
                let base = (from + 1) & !SLOT_MASK;
                let tick = if slot >= ((from + 1) & SLOT_MASK) {
                    base + slot
                } else {
                    base + SLOT_COUNT as u64 + slot
                };
                return Some(tick);
            }
            scanned += 64 - bit as usize;
            word_idx = (word_idx + 1) % BITMAP_WORDS;
            bit = 0;
        }
        None
    }

    /// Move the cursor to the next tick holding events and load them into
    /// `drain`. Returns `false` when the wheel holds no events.
    fn advance_cursor(&mut self) -> bool {
        if self.slab.is_empty() {
            return false;
        }
        let mut from = self.cursor_tick;
        loop {
            let slot_tick = self.next_occupied_tick(from);
            let overflow_tick = self
                .overflow
                .first_key_value()
                .map(|((t, _), _)| t >> GRAN_SHIFT);
            let target = match (slot_tick, overflow_tick) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                // Events parked but nothing in slots within a lap or in
                // the overflow: the remaining events sit in slots more
                // than a full lap behind their fire tick, which cannot
                // happen — every slot insert targets a tick within one lap.
                (None, None) => unreachable!("parked events but no occupied slot or overflow"),
            };
            // Collect the target tick's events by walking the slot chain;
            // future-lap residents are relinked (bucket order is
            // irrelevant — the drain sort below restores exact order).
            let slot = (target & SLOT_MASK) as usize;
            if slot_tick == Some(target) {
                let mut idx = self.slots[slot];
                let mut kept = NONE_IDX;
                while idx != NONE_IDX {
                    let rec = self.slab.get(idx).expect("slot chain entry is parked");
                    let (time_ns, seq, next) = (rec.time_ns, rec.seq, rec.next);
                    if time_ns >> GRAN_SHIFT == target {
                        self.drain.push(WheelKey { time_ns, seq, idx });
                    } else {
                        self.slab.get_mut(idx).expect("just read").next = kept;
                        kept = idx;
                    }
                    idx = next;
                }
                self.slots[slot] = kept;
                if kept == NONE_IDX {
                    self.clear_bit(slot);
                }
            }
            // ...and any overflow entries that fire on the same tick.
            while let Some((&(t, s), &idx)) = self.overflow.first_key_value() {
                if t >> GRAN_SHIFT != target {
                    break;
                }
                self.overflow.remove(&(t, s));
                self.drain.push(WheelKey {
                    time_ns: t,
                    seq: s,
                    idx,
                });
            }
            self.cursor_tick = target;
            if self.drain.is_empty() {
                // Bitmap hit was a future-lap entry; keep scanning.
                from = target;
                continue;
            }
            // Descending sort: unique keys make this fully deterministic.
            self.drain
                .sort_unstable_by_key(|k| Reverse((k.time_ns, k.seq)));
            return true;
        }
    }
}

impl<T> Scheduler<T> for TimerWheelScheduler<T> {
    #[inline]
    fn schedule(&mut self, time_ns: u64, seq: u64, item: T) {
        let tick = time_ns >> GRAN_SHIFT;
        // Arming horizon: its ~1 s p99 is RTO / QA-join timers, well inside
        // the window, not lateness (DESIGN §6c).
        laqa_obs::histogram!("sched.wheel_horizon_ns", laqa_obs::LOG_NS_BOUNDS)
            .observe(time_ns.saturating_sub(self.cursor_tick << GRAN_SHIFT) as f64);
        if tick <= self.cursor_tick {
            self.inserts[0] += 1;
            // At (or — for clamped times — behind) the active tick: merge
            // into the sorted drain vector so ordering against the
            // partially drained tick stays exact. Such events fire nearly
            // immediately, so the insertion point is at or near the pop
            // end and the shift is a few keys at most.
            let idx = self.slab.insert(Rec {
                time_ns,
                seq,
                next: NONE_IDX,
                item,
            });
            let pos = self
                .drain
                .partition_point(|k| (k.time_ns, k.seq) > (time_ns, seq));
            self.drain.insert(pos, WheelKey { time_ns, seq, idx });
        } else if tick - self.cursor_tick < SLOT_COUNT as u64 {
            self.inserts[1] += 1;
            let slot = (tick & SLOT_MASK) as usize;
            let idx = self.slab.insert(Rec {
                time_ns,
                seq,
                next: self.slots[slot],
                item,
            });
            self.slots[slot] = idx;
            self.set_bit(slot);
        } else {
            self.inserts[2] += 1;
            let idx = self.slab.insert(Rec {
                time_ns,
                seq,
                next: NONE_IDX,
                item,
            });
            self.overflow.insert((time_ns, seq), idx);
        }
    }

    #[inline]
    fn pop_next_at_or_before(&mut self, bound_ns: u64) -> Option<(u64, u64, T)> {
        if self.drain.is_empty() && !self.advance_cursor() {
            return None;
        }
        let key = *self.drain.last().expect("advance_cursor staged a head");
        if key.time_ns > bound_ns {
            return None;
        }
        self.drain.pop();
        let rec = self
            .slab
            .remove(key.idx)
            .expect("a staged key is its record's sole reference");
        Some((key.time_ns, key.seq, rec.item))
    }

    fn len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop<S: Scheduler<u32>>(s: &mut S) -> Option<(u64, u64, u32)> {
        s.pop_next_at_or_before(u64::MAX)
    }

    fn drain_all<S: Scheduler<u32>>(s: &mut S) -> Vec<(u64, u64, u32)> {
        std::iter::from_fn(|| pop(s)).collect()
    }

    #[test]
    fn drains_in_time_seq_order() {
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        // Same-time burst (seq breaks ties), plus out-of-order inserts.
        let events = [
            (5_000u64, 0u64),
            (1_000, 1),
            (5_000, 2),
            (1_000, 3),
            (70_000_000, 4), // different near slot
            (5_000, 5),
        ];
        for &(t, s) in &events {
            w.schedule(t, s, s as u32);
        }
        let expect = vec![
            (1_000, 1, 1),
            (1_000, 3, 3),
            (5_000, 0, 0),
            (5_000, 2, 2),
            (5_000, 5, 5),
            (70_000_000, 4, 4),
        ];
        assert_eq!(drain_all(&mut w), expect);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        let horizon = (SLOT_COUNT as u64) << GRAN_SHIFT;
        w.schedule(horizon * 10, 0, 10);
        w.schedule(3, 1, 1);
        w.schedule(horizon * 3, 2, 3);
        w.schedule(u64::MAX, 3, 99);
        assert_eq!(
            drain_all(&mut w),
            vec![
                (3, 1, 1),
                (horizon * 3, 2, 3),
                (horizon * 10, 0, 10),
                (u64::MAX, 3, 99),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn insert_at_active_tick_during_drain_keeps_order() {
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        w.schedule(100, 0, 0);
        w.schedule(200, 1, 1);
        assert_eq!(pop(&mut w), Some((100, 0, 0)));
        // The engine's "deliver now" path: schedule at the popped time.
        w.schedule(100, 2, 2);
        w.schedule(150, 3, 3);
        assert_eq!(pop(&mut w), Some((100, 2, 2)));
        assert_eq!(pop(&mut w), Some((150, 3, 3)));
        assert_eq!(pop(&mut w), Some((200, 1, 1)));
    }

    #[test]
    fn reserved_key_below_a_staged_seq_drains_in_key_order() {
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        w.schedule(100, 5, 5);
        w.schedule(300, 7, 7);
        assert_eq!(pop(&mut w), Some((100, 5, 5)));
        // Keys reserved before (300, 7) and pushed only now, while it is
        // staged: both seqs are below 7 and 3 is below the last pop's, yet
        // neither key is behind that pop.
        w.schedule(300, 3, 3);
        w.schedule(200, 6, 6);
        assert_eq!(w.drain.len(), 3, "all in the active tick's drain");
        let expect = vec![(200, 6, 6), (300, 3, 3), (300, 7, 7)];
        assert_eq!(drain_all(&mut w), expect);
    }

    #[test]
    fn wheel_empties_and_restarts_cleanly() {
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        w.schedule(1 << 20, 0, 0);
        assert_eq!(drain_all(&mut w), vec![(1 << 20, 0, 0)]);
        assert_eq!(pop(&mut w), None);
        // Restart after empty, at a later time (monotone contract).
        w.schedule(1 << 21, 1, 1);
        w.schedule((1 << 20) + 5, 2, 2);
        assert_eq!(
            drain_all(&mut w),
            vec![((1 << 20) + 5, 2, 2), (1 << 21, 1, 1)]
        );
    }

    #[test]
    fn slot_collision_across_laps_resolves() {
        // Two events a whole lap apart share a slot; the earlier must
        // drain first and the later must survive in the slot.
        let lap = (SLOT_COUNT as u64) << GRAN_SHIFT;
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        let t0 = 7 << GRAN_SHIFT;
        w.schedule(t0, 0, 0);
        assert_eq!(pop(&mut w), Some((t0, 0, 0)));
        // Cursor now at tick 7; same slot, next lap, is within horizon.
        w.schedule(t0 + lap, 1, 1);
        w.schedule(t0 + 5, 2, 2); // active tick
        assert_eq!(pop(&mut w), Some((t0 + 5, 2, 2)));
        assert_eq!(pop(&mut w), Some((t0 + lap, 1, 1)));
    }

    #[test]
    fn far_future_timer_stays_in_window_and_fires_on_time() {
        // PR 10 satellite: the benched `wheel_slack_p99 ≈ 1.03e9` was
        // misread as timers firing a second late. A timer armed ~1 s
        // ahead of the cursor sits well inside the 4096-slot window
        // (~8.6 s), never in the overflow tree, and is delivered at
        // exactly its due time — the histogram measures arming horizon.
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        let one_sec = 1_030_000_000u64; // the reported p99 horizon
        let window = (SLOT_COUNT as u64) << GRAN_SHIFT; // ~8.59 s
        w.schedule(one_sec, 0, 1);
        assert!(w.overflow.is_empty(), "a ~1 s timer must use a wheel slot");
        w.schedule(window + 1, 1, 2);
        assert_eq!(w.overflow.len(), 1, "a past-window timer must overflow");
        assert_eq!(pop(&mut w), Some((one_sec, 0, 1)));
        assert_eq!(pop(&mut w), Some((window + 1, 1, 2)));
        assert_eq!(pop(&mut w), None);
    }

    #[test]
    fn horizon_histogram_pins_far_future_arming() {
        // Arming a timer `d` ns ahead of the cursor records exactly `d`
        // into sched.wheel_horizon_ns: the metric's p99 reports how far
        // ahead timers are armed, not how late they fire.
        let d = 1_030_000_000u64;
        let bucket = |snap: &laqa_obs::Snapshot| -> u64 {
            snap.histogram("sched.wheel_horizon_ns").map_or(0, |h| {
                let idx = h.bounds.partition_point(|&b| b < d as f64);
                h.counts[idx]
            })
        };
        let before = laqa_obs::snapshot();
        laqa_obs::set_enabled(true);
        let mut w: TimerWheelScheduler<u32> = TimerWheelScheduler::new();
        w.schedule(d, 0, 0);
        laqa_obs::set_enabled(false);
        let after = laqa_obs::snapshot();
        // Strictly-greater, not equal-plus-one: the registry is
        // process-global and parallel tests may arm wheels of their own
        // while the flag is up.
        assert!(
            bucket(&after) > bucket(&before),
            "the 1.03e9-horizon bucket did not advance"
        );
        assert_eq!(pop(&mut w), Some((d, 0, 0)), "delivery is still exact");
    }
}
