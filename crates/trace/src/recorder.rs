//! A bag of named time series plus CSV export.

use crate::series::TimeSeries;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Collects named [`TimeSeries`] during a run and exports them.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    series: BTreeMap<String, TimeSeries>,
}

impl Recorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample to series `name` (created on first use).
    pub fn record(&mut self, name: &str, t: f64, v: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .push(t, v);
    }

    /// Insert a completed series (replacing any previous one of that name).
    pub fn insert(&mut self, series: TimeSeries) {
        self.series.insert(series.name.clone(), series);
    }

    /// Get a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Number of series held.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series are held.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Write one series per CSV file (`<dir>/<name>.csv`, `time,value`
    /// rows). Creates `dir` if needed.
    pub fn write_csv_dir(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for (name, series) in &self.series {
            let safe: String = name
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() || c == '-' || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            let mut f = std::fs::File::create(dir.join(format!("{safe}.csv")))?;
            writeln!(f, "time,{name}")?;
            for &(t, v) in &series.points {
                writeln!(f, "{t},{v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_creates_series() {
        let mut r = Recorder::new();
        r.record("a", 0.0, 1.0);
        r.record("a", 1.0, 2.0);
        r.record("b", 0.0, 9.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a").unwrap().len(), 2);
        assert_eq!(r.names(), vec!["a", "b"]);
    }

    #[test]
    fn csv_dir_round_trip() {
        let mut r = Recorder::new();
        r.record("tx rate", 0.0, 1.5);
        r.record("tx rate", 1.0, 2.5);
        let dir = std::env::temp_dir().join(format!("laqa_trace_test_{}", std::process::id()));
        r.write_csv_dir(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("tx_rate.csv")).unwrap();
        assert!(content.contains("time,tx rate"));
        assert!(content.contains("0,1.5"));
        assert!(content.contains("1,2.5"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
