//! The RAP receivers' reception horizon never loses an arrival on the
//! grids the repo pins.
//!
//! A `RapReceiverState` forgets receptions more than
//! `laqa_rap::RECEPTION_HORIZON` below the highest sequence; its ACKs are
//! exact only while no arrival lands in that forgotten stretch. The
//! bonded legs and the fault suite's delay changes reorder packets (the
//! deepest measured is 95 sequences, DESIGN.md §6j), so this runs every
//! session of the Tables 1-2 grid, the `laqa campaign --faults` sweep, the
//! hostile corpus and the pinned hostile-plus-faults grid, where that
//! deepest reordering happens, and requires the count to stay 0 at every
//! RAP receiver.

use laqa_sim::{run_scenario, CampaignSpec, SessionSpec, TestKind, TraceKind, Transport};

/// The grids: Tables 1-2 (T1 + T2, five `K_max`, five seeds, 90 s), the
/// faults sweep (five intensities, three seeds, 45 s), the hostile corpus
/// (every trace family × every transport, fault suite at 0.5, 60 s) and
/// `pinned_fingerprints.rs`' hostile-plus-faults grid (every trace
/// family, fault suite at 1.0, 20 s).
fn grids() -> Vec<(&'static str, CampaignSpec)> {
    let (t1, rap) = ([TestKind::T1], [Transport::Rap]);
    let intensities = [0.0, 0.25, 0.5, 0.75, 1.0];
    vec![
        (
            "tables",
            CampaignSpec::grid(&TestKind::ALL, &[2, 3, 4, 5, 8], &[7, 21, 42, 77, 99], 90.0),
        ),
        (
            "faults",
            CampaignSpec::product(&t1, &[], &rap, &[2], &intensities, &[7, 21, 42], 45.0),
        ),
        (
            "hostile",
            CampaignSpec::hostile_grid(
                &t1,
                &TraceKind::ALL,
                &Transport::ALL,
                &[2, 4],
                &[7, 21],
                60.0,
                Some(0.5),
            ),
        ),
        (
            "hostile+faults",
            CampaignSpec::product(&t1, &TraceKind::ALL, &rap, &[2], &[1.0], &[7, 21], 20.0),
        ),
    ]
}

/// `(label, arrivals below the horizon)` of every session in `cells`.
fn misses(cells: &[SessionSpec]) -> Vec<(String, u64)> {
    let run = |s: &SessionSpec| (s.label(), run_scenario(&s.scenario()).rx_beyond_horizon);
    cells.iter().map(run).collect()
}

#[test]
fn no_arrival_lands_below_the_reception_horizon() {
    for (name, spec) in grids() {
        // Two halves on two threads: the grids hold 137 sessions.
        let (a, b) = spec.sessions.split_at(spec.len() / 2);
        let mut got = std::thread::scope(|s| {
            let first = s.spawn(|| misses(a));
            let mut got = misses(b);
            got.splice(0..0, first.join().expect("the first half"));
            got
        });
        assert_eq!(got.len(), spec.len());
        got.retain(|&(_, n)| n > 0);
        assert!(
            got.is_empty(),
            "{name}: arrivals below the horizon: {got:?}"
        );
    }
}
