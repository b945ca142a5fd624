//! Aligned text tables — the format the experiment binaries print so the
//! output can be compared line-for-line with the paper's Tables 1 and 2.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Render to an aligned text block.
    pub fn render(&self) -> String {
        let n_cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; n_cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            line.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
            let total: usize = widths
                .iter()
                .map(|w| w + 2)
                .sum::<usize>()
                .saturating_sub(2);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a fraction as a percentage with two decimals ("99.77%"), or "-"
/// for `None` — the paper's Table 1/2 cell style.
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.2}%", v * 100.0),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["k", "value"]);
        t.row(vec!["2".into(), "99.77%".into()]);
        t.row(vec!["10".into(), "9%".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[2].starts_with('-'));
        // Right-aligned: the "2" sits under the "k" column end.
        assert!(lines[3].contains(" 2"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("", &["a,b", "c"]);
        t.row(vec!["1".into(), "x\"y".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c"));
        assert!(csv.contains("\"x\"\"y\""));
    }

    #[test]
    fn pct_formats_like_paper() {
        assert_eq!(pct(Some(0.9977)), "99.77%");
        assert_eq!(pct(Some(0.0)), "0.00%");
        assert_eq!(pct(None), "-");
    }

    #[test]
    fn ragged_rows_handled() {
        let mut t = Table::new("", &["a"]);
        t.row(vec!["1".into(), "extra".into()]);
        assert!(t.render().contains("extra"));
    }
}
