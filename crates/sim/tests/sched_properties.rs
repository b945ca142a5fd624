//! Property tests for the engine's timer wheel against an oracle, driven
//! by `laqa_check`'s seeded generator. The contract has three operations
//! — insert, pop bounded by a time, length — so a workload is random
//! inserts and pops with random *finite* bounds (the engine's `run_until`
//! entry point): a pop never returns an event past its bound, events
//! drain in strict `(time_ns, seq)` order across `None`s, and the wheel
//! agrees with the heap below item-for-item, `None`s included. Some
//! inserts use a key reserved earlier, as a lazily re-armed timer does,
//! so `seq`s arrive out of order; the contract only asks that `seq` be
//! unique and a key never be behind the last pop.

use laqa_check::{cases, Gen};
use laqa_sim::{Scheduler, TimerWheelScheduler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The original engine queue, a `BinaryHeap` min-ordered by
/// `(time_ns, seq)`: the oracle the wheel is checked against. No world
/// runs on it.
#[derive(Debug, Default)]
struct HeapScheduler<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry<T> {
    time_ns: u64,
    seq: u64,
    item: T,
}

impl<T: PartialEq> Eq for HeapEntry<T> {}
impl<T: PartialEq> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: PartialEq> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

impl<T: PartialEq> Scheduler<T> for HeapScheduler<T> {
    fn schedule(&mut self, time_ns: u64, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEntry { time_ns, seq, item }));
    }

    fn pop_next_at_or_before(&mut self, bound_ns: u64) -> Option<(u64, u64, T)> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.time_ns <= bound_ns => {
                self.heap.pop().map(|Reverse(e)| (e.time_ns, e.seq, e.item))
            }
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The wheel's slot window, `SLOT_COUNT << GRAN_SHIFT` in `sched.rs`
/// (4096 slots of 2.1 ms ≈ 8.6 s): a deadline at least this far ahead of
/// the cursor goes to the overflow tree.
const WHEEL_HORIZON_NS: u64 = 1 << 33;

/// One scripted step of a scheduler workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta_ns`.
    Insert { delta_ns: u64 },
    /// Reserve the key `(now + delta_ns, next seq)` without scheduling.
    Reserve { delta_ns: u64 },
    /// Schedule the `pick`-th held reservation (modulo their number), or
    /// drop it if its key is now behind the last pop.
    PushReserved { pick: usize },
    /// Pop the head if it fires at or before `now + ahead_ns`, advancing
    /// `now` to its deadline.
    Pop { ahead_ns: u64 },
}

/// Generate a workload mixing near-future inserts, same-tick bursts,
/// in-window and far-future (overflow-tree) deadlines, reservations
/// scheduled later, and pops whose bounds fall short of, inside and
/// beyond the pending events.
fn gen_ops(g: &mut Gen, len: usize) -> Vec<Op> {
    const FAR: u64 = 40_000_000_000; // 40 s — deep overflow territory
    (0..len)
        .map(|_| match g.u32_in(0, 11) {
            // Dense near-future inserts, including zero-delay (same tick
            // as `now` — must still pop after already-due earlier seqs).
            0..=2 => Op::Insert {
                delta_ns: g.u64_in(0, 2_000_000),
            },
            // Same-tick burst: identical deadline, seq must break the tie.
            3 => Op::Insert { delta_ns: 65_536 },
            // Mid-range: within the wheel's 8.6 s slot window.
            4 => Op::Insert {
                delta_ns: g.u64_in(0, WHEEL_HORIZON_NS - 1),
            },
            // Far future: a full window or more ahead of `now`, so the
            // overflow tree unless the cursor has run ahead of `now`.
            5 => Op::Insert {
                delta_ns: g.u64_in(WHEEL_HORIZON_NS, FAR),
            },
            // Bounds from "due right now" to past every pending deadline.
            6 => Op::Pop { ahead_ns: 0 },
            7 => Op::Pop {
                ahead_ns: g.u64_in(0, 2_000_000),
            },
            8 => Op::Pop {
                ahead_ns: g.u64_in(0, 200_000_000),
            },
            // An RTO-like deadline, often pushed after later inserts and
            // pops; half of them tie with a same-tick burst, so a lower
            // `seq` lands beside higher ones already staged.
            9 => Op::Reserve {
                delta_ns: match g.u32_in(0, 3) {
                    0 => 0,
                    1 => 65_536,
                    _ => g.u64_in(0, 400_000_000),
                },
            },
            10 => Op::PushReserved {
                pick: g.usize_in(0, 7),
            },
            _ => Op::Pop {
                ahead_ns: g.u64_in(0, 2 * FAR),
            },
        })
        .collect()
}

/// Replay `ops` against `sched`, checking the bound and the strict drain
/// order as we go. Returns every pop's answer, `None`s included.
fn replay(sched: &mut dyn Scheduler<u64>, ops: &[Op]) -> Vec<Option<(u64, u64, u64)>> {
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut scheduled = 0u64;
    let mut held: Vec<(u64, u64)> = Vec::new();
    let mut answers = Vec::new();
    let mut last: Option<(u64, u64)> = None;
    let mut pop = |sched: &mut dyn Scheduler<u64>, now: &mut u64, last: &mut Option<_>, bound| {
        let answer = sched.pop_next_at_or_before(bound);
        if let Some((t, s, item)) = answer {
            assert!(t <= bound, "popped {t} past the bound {bound}");
            assert!(t >= *now, "time went backwards: {t} < {now}");
            assert!(
                last.is_none_or(|prev| (t, s) > prev),
                "drain order violated: {:?} after {last:?}",
                (t, s)
            );
            assert_eq!(item, s, "item/seq pairing corrupted");
            *last = Some((t, s));
            *now = t;
        }
        answers.push(answer);
        answer.is_some()
    };
    for op in ops {
        match *op {
            Op::Insert { delta_ns } => {
                sched.schedule(now + delta_ns, seq, seq);
                seq += 1;
                scheduled += 1;
            }
            Op::Reserve { delta_ns } => {
                held.push((now + delta_ns, seq));
                seq += 1;
            }
            Op::PushReserved { pick } => {
                if held.is_empty() {
                    continue;
                }
                let (t, s) = held.swap_remove(pick % held.len());
                if last.is_none_or(|prev| (t, s) > prev) {
                    sched.schedule(t, s, s);
                    scheduled += 1;
                }
            }
            Op::Pop { ahead_ns } => {
                let bound = now + ahead_ns;
                pop(sched, &mut now, &mut last, bound);
            }
        }
    }
    // Drain the rest; order must stay strict.
    while pop(sched, &mut now, &mut last, u64::MAX) {}
    let popped = answers.iter().flatten().count() as u64;
    assert_eq!(popped, scheduled, "every scheduled event pops exactly once");
    assert!(
        sched.is_empty(),
        "drained scheduler reports len {}",
        sched.len()
    );
    answers
}

#[test]
fn random_workloads_drain_identically_on_both_schedulers() {
    cases("sched_differential_ops", 200, |g, case| {
        let len = g.usize_in(10, 400);
        let ops = gen_ops(g, len);
        let mut heap = HeapScheduler::<u64>::default();
        let mut wheel = TimerWheelScheduler::<u64>::new();
        let a = replay(&mut heap, &ops);
        let b = replay(&mut wheel, &ops);
        assert_eq!(a, b, "case {case}: wheel answers differ from heap oracle");
    });
}

#[test]
fn same_tick_bursts_drain_in_seq_order() {
    cases("sched_same_tick", 50, |g, _case| {
        let n = g.usize_in(2, 300);
        let t = g.u64_in(0, 1 << 40);
        let mut heap = HeapScheduler::<u64>::default();
        let mut wheel = TimerWheelScheduler::<u64>::new();
        for (name, s) in [
            ("heap", &mut heap as &mut dyn Scheduler<u64>),
            ("wheel", &mut wheel),
        ] {
            for seq in 0..n as u64 {
                s.schedule(t, seq, seq);
            }
            assert_eq!(s.len(), n, "{name}");
            if t > 0 {
                assert_eq!(s.pop_next_at_or_before(t - 1), None, "{name}");
            }
            for expect in 0..n as u64 {
                let popped = s.pop_next_at_or_before(t);
                assert_eq!(popped, Some((t, expect, expect)), "{name}");
            }
            assert!(s.pop_next_at_or_before(u64::MAX).is_none());
        }
    });
}

#[test]
fn max_horizon_far_future_events_survive_round_trip() {
    cases("sched_far_future", 50, |g, _case| {
        let mut wheel = TimerWheelScheduler::<u64>::new();
        // A near event, then outliers across the whole u64-safe horizon
        // (days of simulated time) that must pop in deadline order.
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let n = g.usize_in(2, 40);
        for seq in 0..n as u64 {
            let t = if seq == 0 { 0 } else { g.u64_in(1, 1 << 50) };
            wheel.schedule(t, seq, seq);
            expect.push((t, seq));
        }
        expect.sort_unstable();
        for &(t, s) in &expect {
            assert_eq!(wheel.pop_next_at_or_before(u64::MAX), Some((t, s, s)));
        }
        assert!(wheel.is_empty());
    });
}

#[test]
fn heap_oracle_answers_the_wheel_unit_cases() {
    // `sched.rs` pins these two cases for the wheel; the oracle must
    // answer them the same way.
    fn drain(s: &mut dyn Scheduler<u64>) -> Vec<(u64, u64, u64)> {
        std::iter::from_fn(|| s.pop_next_at_or_before(u64::MAX)).collect()
    }
    // Same-time burst (seq breaks ties), plus out-of-order inserts.
    let mut heap = HeapScheduler::default();
    let events = [
        (5_000, 0),
        (1_000, 1),
        (5_000, 2),
        (1_000, 3),
        (70_000_000, 4),
        (5_000, 5),
    ];
    for (t, seq) in events {
        heap.schedule(t, seq, seq);
    }
    let mut want: Vec<_> = events.iter().map(|&(t, seq)| (t, seq, seq)).collect();
    want.sort_unstable();
    assert_eq!(drain(&mut heap), want);

    // Keys reserved before a staged (300, 7) and pushed only after a pop.
    let mut heap = HeapScheduler::default();
    heap.schedule(100, 5, 5);
    heap.schedule(300, 7, 7);
    assert_eq!(heap.pop_next_at_or_before(u64::MAX), Some((100, 5, 5)));
    heap.schedule(300, 3, 3);
    heap.schedule(200, 6, 6);
    assert_eq!(drain(&mut heap), [(200, 6, 6), (300, 3, 3), (300, 7, 7)]);
}
