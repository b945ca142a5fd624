//! Property test of [`LayerColumns`]: whatever rows a periodic recorder
//! pushes — layers that start at once, late or never, rows shorter than
//! the layer count, `-0.0`, NaN and zeros inside a started column — every
//! layer it hands back is, bit for bit, the series a plain per-layer
//! `Vec<TimeSeries>` recording of the same rows holds. With a horizon,
//! each column that started fills the room it reserved.

use laqa_check::{cases, Gen};
use laqa_trace::{LayerColumns, TimeSeries};

/// One sample for a layer whose column may have started: mostly ordinary
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
    cases("layer columns equal per-layer series", 512, |g, _| {
        let layers = g.usize_in(0, 12);
        let rows = g.usize_in(0, 300);
        // The row from which each layer leaves +0.0 (`rows` or more:
        // never), drawn to cover the first row, late ones and none.
        let starts: Vec<usize> = (0..layers)
            .map(|_| match g.usize_in(0, 3) {
                0 => 0,
                1 => rows + 1,
                _ => g.usize_in(0, rows),
            })
            .collect();
        let (first, period) = (g.f64_range(0.0, 10.0), g.f64_range(0.01, 1.0));
        let reserve = g.bool(0.7);
        let mut columns = LayerColumns::new("layer_", layers);
        if reserve {
            let until = first + period * (rows as f64 - g.f64_range(0.0, 1.0));
            columns.reserve_periodic(first, period, until);
        }
        let mut naive: Vec<TimeSeries> = (0..layers)
            .map(|i| TimeSeries::new(format!("layer_{i}")))
            .collect();
        let mut t = first;
        for row in 0..rows {
            // A row may stop short of the last layers: those read +0.0.
            let width = g.usize_in(0, layers);
            let values: Vec<f64> = (0..width)
                .map(|i| if row < starts[i] { 0.0 } else { sample(g) })
                .collect();
            for (i, series) in naive.iter_mut().enumerate() {
                series.push(t, values.get(i).copied().unwrap_or(0.0));
            }
            columns.push_row(t, values);
            t += period;
        }
        assert_eq!((columns.layers(), columns.len()), (layers, rows));
        assert_eq!(columns.to_series().len(), layers);
        for (i, want) in naive.iter().enumerate() {
            let got = columns.series(i);
            assert_eq!(got.name, want.name);
            assert_eq!(bits(&got), bits(want), "layer {i}");
            let values: Vec<u64> = columns.values(i).map(f64::to_bits).collect();
            let want_values: Vec<u64> = want.points.iter().map(|p| p.1.to_bits()).collect();
            assert_eq!(values, want_values, "layer {i}");
        }
        // A column holds its samples from its first nonzero bit pattern on;
        // with a horizon it was sized once for them, up to two slots over.
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
