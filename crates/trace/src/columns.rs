//! A periodic recorder's samples as one table: one time column, and one
//! value column per quantity that starts at its first nonzero sample.

use crate::series::{periodic_slots, TimeSeries};
use std::iter;
use std::ops::Range;

/// The samples of a periodic recorder: one row per tick, one time column
/// shared by every quantity, and one value column per quantity. The
/// columns come in named groups: a group whose name ends in `_` names its
/// columns `<name><i>` (one per layer, say), any other its one `<name>`.
///
/// A column starts at the first row whose value is not `+0.0` (compared
/// by bit pattern, so `-0.0` starts it): every earlier sample is `+0.0`
/// by construction and is not stored, and a column that never leaves
/// `+0.0` holds nothing. After [`reserve_periodic`], a column is sized
/// once, when it starts, for the rows left up to the horizon. [`series`]
/// hands a column back as the [`TimeSeries`] that recording it alone
/// would have built, bit for bit.
///
/// [`reserve_periodic`]: LayerColumns::reserve_periodic
/// [`series`]: LayerColumns::series
#[derive(Debug, Clone, Default)]
pub struct LayerColumns {
    /// `(name, columns)` per group, in column order.
    groups: Vec<(&'static str, usize)>,
    times: Vec<f64>,
    /// Column `i`'s samples from its first nonzero one to the last row.
    columns: Vec<Vec<f64>>,
    /// Rows up to the horizon (0 until `reserve_periodic` sets one).
    horizon_rows: usize,
}

impl LayerColumns {
    /// No rows yet, for `groups` of `(name, columns)` in column order.
    pub fn new(groups: &[(&'static str, usize)]) -> Self {
        LayerColumns {
            groups: groups.to_vec(),
            times: Vec::new(),
            columns: vec![Vec::new(); groups.iter().map(|g| g.1).sum()],
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

    /// Append the row at time `t`: column `i` takes the `i`-th value of
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

    /// Number of value columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The columns of group `group` (its index in the list given to
    /// [`new`](Self::new)).
    pub fn group(&self, group: usize) -> Range<usize> {
        let start = self.groups[..group].iter().map(|g| g.1).sum();
        start..start + self.groups[group].1
    }

    /// Column `column`'s `(time, value)` in every row, `+0.0` before it
    /// starts.
    pub fn points(&self, column: usize) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        let values = &self.columns[column];
        let zeros = self.times.len() - values.len();
        let value = move |row: usize| row.checked_sub(zeros).map_or(0.0, |i| values[i]);
        let point = move |row: usize| (self.times[row], value(row));
        (0..self.times.len()).map(point)
    }

    /// Column `column` as the series recording it alone would hold.
    pub fn series(&self, column: usize) -> TimeSeries {
        let group = |&(name, n): &(&'static str, usize)| (0..n).map(move |i| (name, i));
        let mut names = self.groups.iter().flat_map(group);
        let name = match names.nth(column).expect("a column of the table") {
            (prefix, i) if prefix.ends_with('_') => format!("{prefix}{i}"),
            (name, _) => name.to_owned(),
        };
        let points = self.points(column).collect();
        TimeSeries { name, points }
    }

    /// Every column's [`series`](Self::series), in column order.
    pub fn to_series(&self) -> Vec<TimeSeries> {
        (0..self.width()).map(|c| self.series(c)).collect()
    }

    /// `(samples, capacity)` of the time column, then of each value
    /// column in order: how well the up-front sizing fits.
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
        let mut c = LayerColumns::new(&[("n", 1), ("buf_", 3)]);
        c.push_row(0.0, [0.0, 0.0, 0.0]);
        c.push_row(0.5, [2.0, 1.0, -0.0, 0.0]);
        c.push_row(1.0, [0.0]);
        assert_eq!((c.width(), c.group(1)), (4, 1..4));
        // `n` and buf_0 start at row 1, buf_1 at row 1 (-0.0), buf_2 never.
        let held: Vec<usize> = c.room().skip(1).map(|(len, _)| len).collect();
        assert_eq!(held, [2, 2, 2, 0]);
        let s = c.series(2);
        assert_eq!(s.name, "buf_1");
        let bits: Vec<(f64, u64)> = s.points.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        let want = [(0.0, 0), (0.5, (-0.0f64).to_bits()), (1.0, 0)];
        assert_eq!(bits, want);
        assert_eq!(c.series(0).name, "n");
        assert_eq!(c.series(1).points, [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]);
        assert_eq!(c.series(3).points, [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn a_column_is_sized_once_for_the_rows_left() {
        let mut c = LayerColumns::new(&[("x_", 2)]);
        c.reserve_periodic(0.0, 0.5, 4.0); // 9 rows, plus one
        for k in 0..10 {
            c.push_row(k as f64 * 0.5, [0.0, if k >= 6 { 2.0 } else { 0.0 }]);
        }
        let room: Vec<(usize, usize)> = c.room().collect();
        assert_eq!(room, [(10, 10), (0, 0), (4, 4)]);
        // Without a horizon the columns grow as they must.
        let mut e = LayerColumns::new(&[("e_", 1)]);
        e.reserve_periodic(0.0, 0.0, 4.0);
        e.push_row(0.0, [1.0]);
        assert_eq!(e.series(0).points, [(0.0, 1.0)]);
        assert_eq!(e.series(0).name, "e_0");
    }
}
