//! `compare A B`: hold two output directories of this benchmark against
//! the end-to-end bounds. One row per workload × metric; `worse` on any
//! row makes the command fail.

use std::path::Path;

use laqa_trace::{parse_json, JsonValue};

use crate::metrics::{worse_by, Better, EndToEnd, END_TO_END, FAILED_FRAC};
use crate::stats;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread exceeds the bound, so the medians cannot
    /// show "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for one metric given side A's and side B's samples.
///
/// `worse` needs B's value (the metric's statistic over its samples: best
/// pass for wall-clock metrics, median otherwise) worse than A's by more
/// than the bound *and*
/// the samples able to show it: a spread inside the bound, or every B
/// value worse than every A value. A spread beyond the bound is
/// `unresolved` unless every B value is better than every A value.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let cost = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x * sign).collect() };
    let (ca, cb) = (cost(a), cost(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let all_b_better = max(&cb) < min(&ca);
    let all_b_worse = min(&cb) > max(&ca);
    let spread = stats::spread(a).max(stats::spread(b));
    let worse = worse_by(m.better, m.value(a), m.value(b));
    if worse > m.bound && (spread <= m.bound || all_b_worse) {
        Verdict::Worse
    } else if spread > m.bound && !all_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(dir: &Path, workload: &str) -> Result<JsonValue, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples(doc: &JsonValue, metric: &str) -> Vec<f64> {
    doc.get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(|v| v.as_arr())
        .map(|v| v.iter().filter_map(|x| x.as_num()).collect())
        .unwrap_or_default()
}

fn host_of(doc: &JsonValue) -> String {
    let field = |k: &str| {
        doc.get("host")
            .and_then(|h| h.get(k))
            .map_or("?".to_string(), |v| match v {
                JsonValue::Str(s) => s.clone(),
                other => other.to_compact(),
            })
    };
    format!("{} x {}", field("nproc"), field("cpu_model"))
}

/// Print the comparison; `Ok(true)` when no row is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread A", "spread B"
    );
    for (workload, _) in WORKLOADS {
        let (da, db) = (load(a, workload)?, load(b, workload)?);
        if host_of(&da) != host_of(&db) {
            return Err(format!(
                "{workload}: hosts differ ({} vs {}); numbers are not compared across hardware",
                host_of(&da),
                host_of(&db)
            ));
        }
        for m in END_TO_END.iter().chain([&FAILED_FRAC]) {
            let (sa, sb) = (samples(&da, m.name), samples(&db, m.name));
            let v = verdict(m, &sa, &sb);
            all_ok &= v != Verdict::Worse;
            println!(
                "{:<12} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>7.2}%  {}",
                workload,
                m.name,
                m.value(&sa),
                m.value(&sb),
                worse_by(m.better, m.value(&sa), m.value(&sb)) * 100.0,
                stats::spread(&sa) * 100.0,
                stats::spread(&sb) * 100.0,
                v.label()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = END_TO_END[1];
    const RATE: EndToEnd = END_TO_END[0];

    #[test]
    fn inside_the_bound_is_ok_beyond_it_is_worse() {
        assert_eq!((WALL.name, WALL.better), ("wall_s", Better::Lower));
        let a = [1.00, 1.01, 0.99];
        let shifted = |by: f64| a.map(|x| x * (1.0 + by));
        assert_eq!(verdict(&WALL, &a, &shifted(WALL.bound - 0.02)), Verdict::Ok);
        assert_eq!(
            verdict(&WALL, &a, &shifted(WALL.bound + 0.02)),
            Verdict::Worse
        );
        assert_eq!(verdict(&WALL, &a, &shifted(-0.5)), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert_eq!(RATE.better, Better::Higher);
        let a = [100.0, 101.0, 99.0];
        let shifted = |by: f64| a.map(|x| x * (1.0 + by));
        assert_eq!(
            verdict(&RATE, &a, &shifted(-RATE.bound - 0.02)),
            Verdict::Worse
        );
        assert_eq!(verdict(&RATE, &a, &shifted(0.2)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let noisy = [1.0, 1.5, 0.6, 1.4, 0.7];
        assert!(stats::spread(&noisy) > WALL.bound);
        assert_eq!(verdict(&WALL, &noisy, &noisy), Verdict::Unresolved);
        // Every B run better than every A run: resolved in B's favour.
        assert_eq!(verdict(&WALL, &noisy, &[0.3, 0.5, 0.4]), Verdict::Ok);
        // Every B run worse than every A run, median far beyond the bound.
        assert_eq!(verdict(&WALL, &noisy, &[2.0, 3.1, 1.9]), Verdict::Worse);
    }

    #[test]
    fn failed_frac_may_not_worsen_at_all() {
        assert_eq!(verdict(&FAILED_FRAC, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(verdict(&FAILED_FRAC, &[0.0], &[0.01]), Verdict::Worse);
        assert_eq!(verdict(&FAILED_FRAC, &[0.02], &[0.01]), Verdict::Ok);
    }

    #[test]
    fn setup_bound_is_the_largest_and_a_plain_share() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // No absolute floor: 0.20 s -> 0.26 s is 30 % worse and says so,
        // exactly as the acceptance gate would.
        let a = [0.20, 0.21, 0.19, 0.20, 0.20];
        assert_eq!(verdict(setup, &a, &a.map(|x| x * 1.2)), Verdict::Ok);
        assert_eq!(verdict(setup, &a, &a.map(|x| x * 1.3)), Verdict::Worse);
    }

    #[test]
    fn missing_samples_are_unresolved() {
        assert_eq!(verdict(&WALL, &[], &[1.0]), Verdict::Unresolved);
    }
}
