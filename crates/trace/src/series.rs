//! Time series: the raw material of every figure.

/// A named `(time, value)` series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Series name (used as a CSV column header).
    pub name: String,
    /// Sample points, in insertion order (normally time-sorted).
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, t: f64, v: f64) {
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Minimum value, if any.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Maximum value, if any.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Time-weighted mean over the sampled span (treats the series as a
    /// step function held between samples). `None` with fewer than two
    /// samples.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0 - w[0].0;
            if dt > 0.0 {
                area += w[0].1 * dt;
                span += dt;
            }
        }
        (span > 0.0).then(|| area / span)
    }

    /// Value at time `t` (step interpolation; `None` before the first
    /// sample).
    pub fn at(&self, t: f64) -> Option<f64> {
        let mut last = None;
        for &(pt, pv) in &self.points {
            if pt > t {
                break;
            }
            last = Some(pv);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        s.push(2.0, 2.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn empty_stats_are_none() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.time_weighted_mean(), None);
    }

    #[test]
    fn time_weighted_mean_weights_held_values() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 10.0); // held for 9 s
        s.push(9.0, 0.0); // held for 1 s
        s.push(10.0, 99.0); // terminal sample, zero weight
        assert_eq!(s.time_weighted_mean(), Some(9.0));
    }

    #[test]
    fn step_interpolation() {
        let mut s = TimeSeries::new("x");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.at(0.5), None);
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(1.9), Some(10.0));
        assert_eq!(s.at(5.0), Some(20.0));
    }
}
