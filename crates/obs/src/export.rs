//! Snapshot/export layer: everything the registry has accumulated,
//! frozen into one value and rendered through `laqa-trace` — JSON for
//! `campaign --obs <dir>`, aligned text tables for `laqa obs-report`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use laqa_trace::{JsonValue, Table};

use crate::registry::{self, HistogramSnapshot};

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Always 0: nothing in `laqa-obs` evicts. Kept because `benchmark/`
    /// reads this field.
    pub events_evicted: u64,
}

impl Snapshot {
    /// Freeze the current state of every registry.
    pub fn collect() -> Snapshot {
        Snapshot {
            counters: registry::snapshot_counters(),
            histograms: registry::snapshot_histograms(),
            events_evicted: 0,
        }
    }

    /// Counter value by name, `None` if never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Histogram by name, `None` if never registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing was recorded (all zeros).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.histograms.iter().all(|h| h.count == 0)
    }

    fn metrics_json(&self) -> JsonValue {
        let counters = JsonValue::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                .collect(),
        );
        let histograms = JsonValue::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(h.name.clone())),
                        (
                            "bounds".into(),
                            JsonValue::Arr(h.bounds.iter().map(|&b| JsonValue::Num(b)).collect()),
                        ),
                        (
                            "counts".into(),
                            JsonValue::Arr(
                                h.counts.iter().map(|&c| JsonValue::Num(c as f64)).collect(),
                            ),
                        ),
                        ("count".into(), JsonValue::Num(h.count as f64)),
                        ("sum".into(), JsonValue::Num(h.sum)),
                    ])
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }

    /// Write `metrics.json` into `dir` (created if missing).
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("metrics.json"), self.metrics_json().to_pretty())?;
        Ok(())
    }

    /// Read a snapshot previously written by [`Snapshot::write_dir`].
    pub fn read_dir(dir: &Path) -> io::Result<Snapshot> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());

        let text = std::fs::read_to_string(dir.join("metrics.json"))?;
        let metrics =
            laqa_trace::json::parse(&text).map_err(|e| bad(&format!("metrics.json: {e}")))?;
        let mut snap = Snapshot::default();
        for (k, v) in metrics
            .get("counters")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| bad("metrics.json: missing counters"))?
        {
            snap.counters
                .insert(k.clone(), v.as_num().unwrap_or(0.0) as u64);
        }
        for h in metrics
            .get("histograms")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| bad("metrics.json: missing histograms"))?
        {
            snap.histograms.push(HistogramSnapshot {
                name: h
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("histogram missing name"))?
                    .to_string(),
                bounds: h
                    .get("bounds")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| bad("histogram missing bounds"))?
                    .iter()
                    .filter_map(JsonValue::as_num)
                    .collect(),
                counts: h
                    .get("counts")
                    .and_then(JsonValue::as_arr)
                    .ok_or_else(|| bad("histogram missing counts"))?
                    .iter()
                    .filter_map(|v| v.as_num().map(|n| n as u64))
                    .collect(),
                count: h.get("count").and_then(JsonValue::as_num).unwrap_or(0.0) as u64,
                sum: h.get("sum").and_then(JsonValue::as_num).unwrap_or(0.0),
            });
        }
        Ok(snap)
    }

    /// Render counters and histograms as aligned text tables
    /// (the `laqa obs-report` format).
    pub fn render(&self) -> String {
        let mut out = String::new();

        let mut counters = Table::new("Counters", &["counter", "value"]);
        for (name, v) in &self.counters {
            counters.row(vec![name.clone(), v.to_string()]);
        }
        out.push_str(&counters.render());
        out.push('\n');

        if !self.histograms.is_empty() {
            let fmt_q = |h: &HistogramSnapshot, q: f64| {
                h.quantile(q)
                    .map_or_else(|| "-".into(), |v| format!("{v:.4}"))
            };
            let mut hists = Table::new(
                "Histograms",
                &["histogram", "count", "mean", "p50", "p90", "p99"],
            );
            for h in &self.histograms {
                hists.row(vec![
                    h.name.clone(),
                    h.count.to_string(),
                    h.mean().map_or_else(|| "-".into(), |m| format!("{m:.4}")),
                    fmt_q(h, 0.50),
                    fmt_q(h, 0.90),
                    fmt_q(h, 0.99),
                ]);
            }
            out.push_str(&hists.render());
            out.push('\n');
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{counter, histogram};

    #[test]
    fn snapshot_write_read_round_trip() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        counter!("export.test.ctr").add(7);
        histogram!("export.test.hist", &[1.0, 4.0]).observe(2.0);
        crate::set_enabled(false);

        let snap = crate::snapshot();
        let dir = std::env::temp_dir().join("laqa-obs-export-test");
        snap.write_dir(&dir).unwrap();
        let back = Snapshot::read_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(back.counter("export.test.ctr"), Some(7));
        let h = back.histogram("export.test.hist").unwrap();
        assert_eq!(h.counts, vec![0, 1, 0]);
        assert_eq!(back, snap);
    }

    #[test]
    fn render_includes_all_sections() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        counter!("export.render.ctr").inc();
        histogram!("export.render.all", &[1.0]).observe(0.5);
        crate::set_enabled(false);

        let text = crate::snapshot().render();
        assert!(text.contains("== Counters =="));
        assert!(text.contains("export.render.ctr"));
        assert!(text.contains("== Histograms =="));
        assert!(text.contains("export.render.all"));
    }

    #[test]
    fn render_shows_quantile_columns() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        for v in [1.0, 2.0, 3.0, 40.0] {
            histogram!("export.render.hist", &[2.0, 8.0, 32.0]).observe(v);
        }
        crate::set_enabled(false);
        let text = crate::snapshot().render();
        assert!(text.contains("p50"));
        assert!(text.contains("p99"));
        assert!(!text.contains("<=2:"));
    }
}
