//! Rendering a [`Report`]: the human-readable metric lines, the result
//! line the driver reads, and the two output files per workload.

use std::io;
use std::path::Path;

use laqa_trace::JsonValue;

use crate::run::{Report, RunOpts};
use crate::spans::{self_times, Span, ROOT};
use crate::{host, stats};

/// Raw spans written per file; the self-time table always covers all.
const MAX_SPANS_WRITTEN: usize = 50_000;

fn num(x: f64) -> JsonValue {
    JsonValue::Num(x)
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_string())
}

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One line per metric, name and unit first.
pub fn print_human(r: &Report) {
    println!(
        "== {}: {} passes x {} sessions, {} simulated s per pass, fingerprint {:016x}",
        r.workload, r.passes, r.sessions, r.sim_seconds, r.fingerprint
    );
    let gated = if r.end_to_end.is_empty() {
        Vec::new() // traced-only run: no end-to-end table at all
    } else {
        r.gated()
    };
    for (m, values) in &gated {
        let (q1, med, q3) = stats::quartiles(values);
        println!(
            "{:<12} {:<28} {:>16.6} {:<8} {} of {}: q1 {:.6} median {:.6} q3 {:.6} (may worsen by {}%)",
            r.workload,
            m.name,
            m.value(values),
            m.unit,
            m.stat.label(),
            values.len(),
            q1,
            med,
            q3,
            m.bound * 100.0
        );
    }
    for (name, unit, value) in &r.per_layer {
        println!("{:<12} {:<28} {:>16.6} {}", r.workload, name, value, unit);
    }
    for (stem, n) in &r.sample_sizes {
        let highest =
            stats::highest_supported_percentile(*n).map_or("none".to_string(), |p| format!("p{p}"));
        println!(
            "{:<12} {stem}: {n} samples, highest percentile with 10 beyond it: {highest}",
            r.workload
        );
    }
    for m in &r.messages {
        println!("{:<12} FAILED {m}", r.workload);
    }
    println!(
        "{:<12} attempted {} failed {} -> {}",
        r.workload,
        r.attempted,
        r.failed,
        if r.correct() {
            "correct"
        } else {
            "NOT correct"
        }
    );
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every metric this run measured.
pub fn result_line(r: &Report) -> String {
    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    for (m, values) in &r.end_to_end {
        metrics.push((
            m.name.to_string(),
            obj(vec![
                ("value", num(m.value(values))),
                ("unit", text(m.unit)),
            ]),
        ));
    }
    for (name, unit, value) in &r.per_layer {
        metrics.push((
            name.to_string(),
            obj(vec![("value", num(*value)), ("unit", text(unit))]),
        ));
    }
    obj(vec![
        ("correct", JsonValue::Bool(r.correct())),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ])
    .to_compact()
}

fn report_json(r: &Report, opts: &RunOpts, host: JsonValue) -> JsonValue {
    let end_to_end = r
        .gated()
        .iter()
        .map(|(m, values)| {
            let (q1, median, q3) = stats::quartiles(values);
            (
                m.name.to_string(),
                obj(vec![
                    ("unit", text(m.unit)),
                    ("better", text(m.better.label())),
                    ("bound", num(m.bound)),
                    ("stat", text(m.stat.label())),
                    ("value", num(m.value(values))),
                    ("median", num(median)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", num(values.len() as f64)),
                    (
                        "values",
                        JsonValue::Arr(values.iter().copied().map(num).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let per_layer = r
        .per_layer
        .iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                obj(vec![("value", num(*value)), ("unit", text(unit))]),
            )
        })
        .collect();
    let samples = r
        .sample_sizes
        .iter()
        .map(|(stem, n)| {
            let highest = stats::highest_supported_percentile(*n).map_or(JsonValue::Null, num);
            (
                stem.to_string(),
                obj(vec![
                    ("n", num(*n as f64)),
                    ("highest_supported_percentile", highest),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", text(r.workload)),
        ("why", text(r.why)),
        ("seed", num(opts.seed as f64)),
        ("smoke", JsonValue::Bool(opts.smoke)),
        ("host", host),
        ("passes", num(r.passes as f64)),
        ("sessions_per_pass", num(r.sessions as f64)),
        ("sim_seconds_per_pass", num(r.sim_seconds)),
        ("fingerprint", text(&format!("{:016x}", r.fingerprint))),
        ("correct", JsonValue::Bool(r.correct())),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        (
            "failures",
            JsonValue::Arr(r.messages.iter().map(|m| text(m)).collect()),
        ),
        ("end_to_end", JsonValue::Obj(end_to_end)),
        ("per_layer", JsonValue::Obj(per_layer)),
        ("timing_samples", JsonValue::Obj(samples)),
        (
            "model_validation",
            text("unvalidated: the repository holds no ns-2 reference output, so no accuracy figure is given"),
        ),
    ])
}

fn spans_json(spans: &[Span], host: JsonValue) -> JsonValue {
    let table = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            obj(vec![
                ("name", text(name)),
                ("spans", num(t.spans as f64)),
                ("calls", num(t.calls as f64)),
                ("total_ns", num(t.total_ns as f64)),
                ("self_ns", num(t.self_ns as f64)),
            ])
        })
        .collect();
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|s| {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = if s.parent == ROOT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            JsonValue::Arr(vec![
                num(name as f64),
                num(f64::from(s.session)),
                num(parent),
                num(s.start_ns as f64),
                num(s.end_ns as f64),
                num(s.calls as f64),
            ])
        })
        .collect();
    obj(vec![
        ("host", host),
        ("self_time", JsonValue::Arr(table)),
        ("spans_recorded", num(spans.len() as f64)),
        (
            "spans_written",
            num(spans.len().min(MAX_SPANS_WRITTEN) as f64),
        ),
        (
            "columns",
            JsonValue::Arr(
                ["name", "session", "parent", "start_ns", "end_ns", "calls"]
                    .into_iter()
                    .map(text)
                    .collect(),
            ),
        ),
        (
            "names",
            JsonValue::Arr(names.iter().map(|n| text(n)).collect()),
        ),
        ("spans", JsonValue::Arr(rows)),
    ])
}

/// Write `<out>/<workload>.json` and, after a traced run,
/// `<out>/<workload>.spans.json`.
pub fn write_files(r: &Report, opts: &RunOpts, out: &Path) -> io::Result<()> {
    std::fs::create_dir_all(out)?;
    let host = host::stamp();
    std::fs::write(
        out.join(format!("{}.json", r.workload)),
        report_json(r, opts, host.clone()).to_pretty() + "\n",
    )?;
    if !r.spans.is_empty() {
        std::fs::write(
            out.join(format!("{}.spans.json", r.workload)),
            spans_json(&r.spans, host).to_compact() + "\n",
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use laqa_trace::parse_json;

    fn report() -> Report {
        Report {
            workload: "tables",
            why: "because",
            passes: 3,
            sessions: 2,
            sim_seconds: 20.0,
            attempted: 6,
            failed: 0,
            messages: Vec::new(),
            fingerprint: 0xabcd,
            end_to_end: END_TO_END
                .into_iter()
                .map(|m| (m, vec![1.5, 2.5, 3.5]))
                .collect(),
            per_layer: vec![("engine.events", "count", 1234.0)],
            sample_sizes: vec![("core.tick_ns", 1_000)],
            spans: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let doc = parse_json(&result_line(&report())).expect("one JSON object");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_num(), Some(6.0));
        let metric = |name: &str| doc.get("metrics").unwrap().get(name).unwrap();
        let wall = metric("wall_s");
        assert_eq!(
            wall.get("value").unwrap().as_num(),
            Some(1.5),
            "fastest pass"
        );
        assert_eq!(
            metric("sim_s_per_wall_s").get("value").unwrap().as_num(),
            Some(3.5)
        );
        assert_eq!(
            metric("peak_rss_mb").get("value").unwrap().as_num(),
            Some(2.5)
        );
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert!(doc.get("metrics").unwrap().get("engine.events").is_some());
        assert!(doc.get("metrics").unwrap().get("failed_frac").is_none());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = report();
        r.failed = 1;
        let doc = parse_json(&result_line(&r)).unwrap();
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
    }
}
