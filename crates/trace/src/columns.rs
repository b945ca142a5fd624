//! Per-layer samples of a periodic recorder, stored as one column per
//! layer that starts at the layer's first nonzero sample.

use crate::series::{periodic_slots, TimeSeries};
use std::iter;

/// The per-layer samples of a periodic recorder: one row per tick, one
/// column per layer, and one time column shared by all of them.
///
/// A layer's column starts at the first row whose value is not `+0.0`
/// (compared by bit pattern, so `-0.0` starts it): every earlier sample
/// is `+0.0` by construction and is not stored, and a layer that never
/// leaves `+0.0` holds nothing. After [`reserve_periodic`], a column is
/// sized once, when it starts, for the rows left up to the horizon.
///
/// [`series`] hands any layer back as the [`TimeSeries`] named
/// `<prefix><layer>` that pushing every row into a `Vec<TimeSeries>`
/// would have built, bit for bit.
///
/// [`reserve_periodic`]: LayerColumns::reserve_periodic
/// [`series`]: LayerColumns::series
#[derive(Debug, Clone, Default)]
pub struct LayerColumns {
    prefix: &'static str,
    times: Vec<f64>,
    /// Layer `i`'s samples from its first nonzero one to the last row.
    columns: Vec<Vec<f64>>,
    /// Rows up to the horizon (0 until `reserve_periodic` sets one).
    horizon_rows: usize,
}

impl LayerColumns {
    /// No rows yet for `layers` layers, named `<prefix><layer>`.
    pub fn new(prefix: &'static str, layers: usize) -> Self {
        LayerColumns {
            prefix,
            times: Vec::new(),
            columns: vec![Vec::new(); layers],
            horizon_rows: 0,
        }
    }

    /// Size the time column, in one allocation, for a row every `period`
    /// seconds from `first` through `until` (with the same slack as
    /// [`TimeSeries::reserve_periodic`]), and each column, when it
    /// starts, for the rows left of those.
    pub fn reserve_periodic(&mut self, first: f64, period: f64, until: f64) {
        if let Some(rows) = periodic_slots(first, period, until) {
            self.horizon_rows = rows;
            self.times.reserve_exact(rows);
        }
    }

    /// Append the row at time `t`: layer `i` takes the `i`-th value of
    /// `row`, or `+0.0` past its end.
    pub fn push_row(&mut self, t: f64, row: impl IntoIterator<Item = f64>) {
        let at = self.times.len();
        self.times.push(t);
        let row = row.into_iter().chain(iter::repeat(0.0));
        for (column, v) in self.columns.iter_mut().zip(row) {
            if column.is_empty() {
                if v.to_bits() == 0 {
                    continue;
                }
                column.reserve_exact(self.horizon_rows.saturating_sub(at));
            }
            column.push(v);
        }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Layer `layer`'s value in every row, `+0.0` before its column
    /// starts.
    pub fn values(&self, layer: usize) -> impl Iterator<Item = f64> + '_ {
        let column = &self.columns[layer];
        let zeros = self.times.len() - column.len();
        iter::repeat_n(0.0, zeros).chain(column.iter().copied())
    }

    /// Layer `layer` as the series a per-layer recording would hold.
    pub fn series(&self, layer: usize) -> TimeSeries {
        TimeSeries {
            name: format!("{}{layer}", self.prefix),
            points: self.times.iter().copied().zip(self.values(layer)).collect(),
        }
    }

    /// Every layer's [`series`](Self::series), in layer order.
    pub fn to_series(&self) -> Vec<TimeSeries> {
        (0..self.layers()).map(|layer| self.series(layer)).collect()
    }

    /// `(samples, capacity)` of the time column, then of each layer's
    /// column in layer order: how well the up-front sizing fits.
    pub fn room(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        iter::once(&self.times)
            .chain(&self.columns)
            .map(|c| (c.len(), c.capacity()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_start_at_the_first_nonzero_bit_pattern() {
        let mut c = LayerColumns::new("buf_", 3);
        c.push_row(0.0, [0.0, 0.0]);
        c.push_row(0.5, [1.0, -0.0, 0.0]);
        c.push_row(1.0, [0.0]);
        assert_eq!((c.len(), c.layers()), (3, 3));
        // Layer 0 starts at row 1, layer 1 at row 1 (-0.0), layer 2 never.
        let held: Vec<usize> = c.room().skip(1).map(|(len, _)| len).collect();
        assert_eq!(held, [2, 2, 0]);
        let s = c.series(1);
        assert_eq!(s.name, "buf_1");
        let bits: Vec<(f64, u64)> = s.points.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        let want = [(0.0, 0), (0.5, (-0.0f64).to_bits()), (1.0, 0)];
        assert_eq!(bits, want);
        assert_eq!(c.series(0).points, [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]);
        assert_eq!(c.series(2).points, [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn a_column_is_sized_once_for_the_rows_left() {
        let mut c = LayerColumns::new("x_", 2);
        c.reserve_periodic(0.0, 0.5, 4.0); // 9 rows, plus one
        for k in 0..10 {
            c.push_row(k as f64 * 0.5, [0.0, if k >= 6 { 2.0 } else { 0.0 }]);
        }
        let room: Vec<(usize, usize)> = c.room().collect();
        assert_eq!(room, [(10, 10), (0, 0), (4, 4)]);
        // Without a horizon the columns grow as they must.
        let mut e = LayerColumns::new("e_", 1);
        e.reserve_periodic(0.0, 0.0, 4.0);
        e.push_row(0.0, [1.0]);
        assert_eq!(e.series(0).points, [(0.0, 1.0)]);
    }
}
