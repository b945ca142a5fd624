//! The experiment regenerators: the figure registry `laqa figures` runs,
//! the `laqa campaign` sweep driver behind Tables 1–2, command-line
//! parsing, terminal plots and common run-analysis helpers.

use laqa_trace::TimeSeries;

pub mod campaign;
pub mod cli;
pub mod figures;

/// Render a series as a compact ASCII strip chart (one row, `width`
/// buckets, bucket = time-mean, glyph = value quantile) so the shape is
/// visible straight from the terminal.
pub fn ascii_plot(series: &TimeSeries, width: usize) -> String {
    const GLYPHS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.points.len() < 2 || width == 0 {
        return String::new();
    }
    let t0 = series.points.first().unwrap().0;
    let t1 = series.points.last().unwrap().0;
    let span = (t1 - t0).max(1e-9);
    let mut sums = vec![0.0f64; width];
    let mut counts = vec![0usize; width];
    for &(t, v) in &series.points {
        let idx = (((t - t0) / span) * width as f64).min(width as f64 - 1.0) as usize;
        sums[idx] += v;
        counts[idx] += 1;
    }
    let buckets: Vec<Option<f64>> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| (c > 0).then(|| s / c as f64))
        .collect();
    let max = buckets.iter().flatten().cloned().fold(f64::MIN, f64::max);
    let min = buckets.iter().flatten().cloned().fold(f64::MAX, f64::min);
    let range = (max - min).max(1e-12);
    buckets
        .iter()
        .map(|b| match b {
            None => ' ',
            Some(v) => {
                let q = ((v - min) / range * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[q.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

/// Mean of the values of a series within `[t_lo, t_hi)`.
pub fn window_mean(series: &TimeSeries, t_lo: f64, t_hi: f64) -> Option<f64> {
    let vals: Vec<f64> = series
        .points
        .iter()
        .filter(|&&(t, _)| t >= t_lo && t < t_hi)
        .map(|&(_, v)| v)
        .collect();
    (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
}

/// Count value changes of a (step) series within `[t_lo, t_hi)`.
pub(crate) fn window_changes(series: &TimeSeries, t_lo: f64, t_hi: f64) -> usize {
    let vals: Vec<f64> = series
        .points
        .iter()
        .filter(|&&(t, _)| t >= t_lo && t < t_hi)
        .map(|&(_, v)| v)
        .collect();
    vals.windows(2)
        .filter(|w| (w[0] - w[1]).abs() > 1e-9)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_plot_shapes() {
        let mut s = TimeSeries::new("x");
        for i in 0..100 {
            s.push(i as f64, i as f64);
        }
        let plot = ascii_plot(&s, 10);
        assert_eq!(plot.chars().count(), 10);
        let first = plot.chars().next().unwrap();
        let last = plot.chars().last().unwrap();
        assert_ne!(first, last, "ramp should span glyphs: {plot}");
    }

    #[test]
    fn ascii_plot_degenerate_inputs() {
        let s = TimeSeries::new("x");
        assert_eq!(ascii_plot(&s, 10), "");
    }

    #[test]
    fn window_helpers() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(1.0, 1.0);
        s.push(2.0, 2.0);
        s.push(3.0, 3.0);
        assert_eq!(window_mean(&s, 0.0, 2.0), Some(1.0));
        assert_eq!(window_changes(&s, 0.0, 4.0), 2);
        assert_eq!(window_mean(&s, 10.0, 20.0), None);
    }
}
