//! Property test of [`LayerColumns`]: whatever groups a periodic recorder
//! declares — named single columns, prefixed groups of one, several or
//! none — and whatever rows it pushes — columns that start at once, late
//! or never, rows shorter than the table, `-0.0`, NaN and zeros inside a
//! started column — every column it hands back is, bit for bit, the
//! series a plain per-column `Vec<TimeSeries>` recording of the same rows
//! holds. The table keeps one time column, and with a horizon each column
//! that started fills the room it reserved.

use laqa_check::{cases, Gen};
use laqa_trace::{LayerColumns, TimeSeries};

/// Names of single-column groups.
const NAMES: [&str; 3] = ["tx_rate", "n_active", "x"];
/// Prefixes of per-layer groups.
const PREFIXES: [&str; 3] = ["layer_rate_", "buffer_", "b_"];

/// One sample for a column that may have started: mostly ordinary
/// values, with the bit patterns a column must keep as they are.
fn sample(g: &mut Gen) -> f64 {
    match g.usize_in(0, 9) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::from_bits(g.next_u64()),
        _ => g.f64_range(-1e6, 1e6),
    }
}

fn bits(s: &TimeSeries) -> Vec<(u64, u64)> {
    s.points
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

#[test]
fn columns_hand_back_what_a_per_layer_recording_holds() {
    cases("grouped columns equal per-column series", 512, |g, _| {
        let groups: Vec<(&'static str, usize)> = (0..g.usize_in(0, 5))
            .map(|_| {
                if g.bool(0.4) {
                    (*g.pick(&NAMES), 1)
                } else {
                    (*g.pick(&PREFIXES), g.usize_in(0, 8))
                }
            })
            .collect();
        let mut naive: Vec<TimeSeries> = Vec::new();
        for &(name, width) in &groups {
            if name.ends_with('_') {
                naive.extend((0..width).map(|i| TimeSeries::new(format!("{name}{i}"))));
            } else {
                naive.push(TimeSeries::new(name));
            }
        }
        let width = naive.len();
        let rows = g.usize_in(0, 300);
        // The row from which each column leaves +0.0 (`rows` or more:
        // never), drawn to cover the first row, late ones and none.
        let starts: Vec<usize> = (0..width)
            .map(|_| match g.usize_in(0, 3) {
                0 => 0,
                1 => rows + 1,
                _ => g.usize_in(0, rows),
            })
            .collect();
        let (first, period) = (g.f64_range(0.0, 10.0), g.f64_range(0.01, 1.0));
        let reserve = g.bool(0.7);
        let mut columns = LayerColumns::new(&groups);
        if reserve {
            let until = first + period * (rows as f64 - g.f64_range(0.0, 1.0));
            columns.reserve_periodic(first, period, until);
        }
        let mut t = first;
        for row in 0..rows {
            // A row may stop short of the last columns: those read +0.0.
            let short = g.usize_in(0, width);
            let values: Vec<f64> = (0..short)
                .map(|i| if row < starts[i] { 0.0 } else { sample(g) })
                .collect();
            for (i, series) in naive.iter_mut().enumerate() {
                series.push(t, values.get(i).copied().unwrap_or(0.0));
            }
            columns.push_row(t, values);
            t += period;
        }
        assert_eq!(columns.width(), width);
        assert_eq!(columns.to_series().len(), width);
        let mut next = 0;
        for (group, &(_, n)) in groups.iter().enumerate() {
            assert_eq!(columns.group(group), next..next + n);
            next += n;
        }
        for (i, want) in naive.iter().enumerate() {
            let got = columns.series(i);
            assert_eq!(got.name, want.name);
            assert_eq!(bits(&got), bits(want), "column {i}");
            assert_eq!(columns.points(i).len(), rows, "column {i}");
        }
        // Exactly one time column, then one per value column: each holds
        // its samples from its first nonzero bit pattern on; with a horizon
        // it was sized once for them, up to two slots over.
        assert_eq!(columns.room().count(), 1 + width);
        let mut room = columns.room();
        let (times, _) = room.next().expect("the time column");
        assert_eq!(times, rows);
        for ((len, cap), want) in room.zip(&naive) {
            let started = want.points.iter().position(|p| p.1.to_bits() != 0);
            assert_eq!(len, started.map_or(0, |s| rows - s), "{}", want.name);
            if reserve && len > 0 {
                assert!(len <= cap && cap <= len + 2, "{len} in {cap}");
            }
        }
    });
}
