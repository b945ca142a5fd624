//! Snapshot/export layer: everything the registry has accumulated,
//! frozen into one value and rendered through `laqa-trace` as the aligned
//! text tables `laqa campaign --obs <dir>` writes to `report.txt`.

use std::collections::BTreeMap;

use laqa_trace::Table;

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
            counters: registry::COUNTS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .map(|(&name, &n)| (name.to_string(), n))
                .collect(),
            histograms: registry::snapshot_histograms(),
            events_evicted: 0,
        }
    }

    /// Counter total by name, `None` if nothing added it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Histogram by name, `None` if never registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render counters and histograms as aligned text tables
    /// (`report.txt` under `laqa campaign --obs DIR`).
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
    use crate::tests::TEST_LOCK;
    use crate::{add_counts, histogram};

    #[test]
    fn render_includes_all_sections() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        add_counts(&[("export.render.ctr", 1)]);
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
