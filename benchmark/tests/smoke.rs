//! `run --smoke` end to end through the built binary: every workload in
//! its own child, both output files written, the driver's result line
//! last, and `compare` able to read what `run` wrote.

use std::path::{Path, PathBuf};
use std::process::Command;

use laqa_trace::{parse_json, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_laqa-benchmark");
const WORKLOADS: [&str; 4] = ["tables", "hostile", "stack_loop", "qa_fluid"];

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn load(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_run_writes_every_output_and_compares_clean_against_itself() {
    let dir = out_dir("smoke-all");
    let dir_arg = dir.to_str().expect("utf-8 path");
    let (ok, stdout) = run(&["run", "--smoke", "--seed", "7", "--out", dir_arg]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("== all workloads correct"));

    for w in WORKLOADS {
        let doc = load(&dir.join(format!("{w}.json")));
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)), "{w}");
        assert_eq!(doc.get("seed").and_then(JsonValue::as_num), Some(7.0));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_num), Some(0.0));
        for field in ["nproc", "cpu_model", "rustc", "git_commit"] {
            assert!(
                doc.get("host").and_then(|h| h.get(field)).is_some(),
                "{w}: host.{field}"
            );
        }
        let e2e = doc
            .get("end_to_end")
            .and_then(JsonValue::as_obj)
            .expect("end_to_end");
        assert_eq!(e2e.len(), 7, "{w}: six gated metrics and failed_frac");
        let layers = doc
            .get("per_layer")
            .and_then(JsonValue::as_obj)
            .expect("per_layer");
        assert_eq!(layers.len(), 50, "{w}");
        let spans = load(&dir.join(format!("{w}.spans.json")));
        assert!(
            spans.get("spans_recorded").and_then(JsonValue::as_num) > Some(0.0),
            "{w}"
        );
    }

    let (ok, table) = run(&["compare", dir_arg, dir_arg]);
    assert!(ok, "a directory is never worse than itself:\n{table}");
    assert_eq!(table.lines().count(), 1 + WORKLOADS.len() * 7);
    assert!(!table.contains("worse\n"));
}

#[test]
fn driver_invocation_ends_with_the_result_line() {
    for (trace, expect, reject) in [("0", "wall_s", "core.ticks"), ("1", "core.ticks", "wall_s")] {
        let dir = out_dir(&format!("smoke-trace{trace}"));
        let (ok, stdout) = run(&[
            "run",
            "--smoke",
            "--workload",
            "qa_fluid",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out",
            dir.to_str().expect("utf-8 path"),
        ]);
        assert!(ok, "{stdout}");
        let last = stdout.lines().last().expect("output");
        let doc = parse_json(last).expect("the last line is one JSON object");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(doc.get("attempted").and_then(JsonValue::as_num) >= Some(1.0));
        let metrics = doc.get("metrics").expect("metrics");
        assert!(
            metrics.get(expect).is_some(),
            "--trace {trace} reports {expect}"
        );
        assert!(
            metrics.get(reject).is_none(),
            "--trace {trace} omits {reject}"
        );
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(BIN)
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let out = Command::new(BIN).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
