//! The command-line contract of the `campaign` and `laqa` binaries that
//! no library test can see: exit code 2 for a command line the binary
//! cannot honour, `--smoke` reading its grid from the command line, the
//! default tables mode's replay check, `--transport` / `--trace` grids
//! equal to the library's `CampaignSpec::product`, the
//! `campaign --obs DIR` → `laqa obs-report` / `laqa obs-trace` round trip
//! over real files.

use laqa_sim::{run_campaign, CampaignSpec, TestKind, TraceKind, Transport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const LAQA: &str = env!("CARGO_BIN_EXE_laqa");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_has(text: &str, want: &str) {
    assert!(text.contains(want), "{text:?} lacks {want:?}");
}

/// A fresh directory under cargo's per-target scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_command_lines_exit_2_and_name_the_problem() {
    // Each of these once ran a sweep on defaults instead: an option the
    // binary does not take, a flag given a value (`--smoke 1` ran the full
    // campaign), a valued option given none (`--obs` wrote to ./true), a
    // stray positional, an option the selected mode never reads. A fault
    // intensity outside [0, 1] ran a duplicate cell under its own label. A
    // K_max the controller refuses panicked every worker, a NaN loss rate
    // panicked the link and a loss above 1 ran at 1. A zero or negative
    // layer rate or slope tripped a debug assertion (garbage in release),
    // a NaN rate printed a state path, and an option the selected spacing
    // never reads was silently ignored. An option given twice ran only its
    // last value, a list naming a value twice ran its cells twice under
    // one label, and a NaN, zero or negative duration ran empty sessions.
    let cases: [(&str, &[&str], &str); 41] = [
        (CAMPAIGN, &["--smoke", "--nope"], "unknown option --nope"),
        (CAMPAIGN, &["--smoke", "1"], "invalid value '1' for --smoke"),
        (CAMPAIGN, &["--smoke", "--obs"], "missing value for --obs"),
        (CAMPAIGN, &["smoke"], "unexpected argument 'smoke'"),
        (
            CAMPAIGN,
            &["--smoke", "--threads", "8"],
            "--threads is not read in --smoke mode",
        ),
        (
            CAMPAIGN,
            &["--smoke", "--out", "d"],
            "--out is not read in --smoke mode",
        ),
        (
            CAMPAIGN,
            &["--intensity", "0.5"],
            "--intensity is not read in the default",
        ),
        (
            CAMPAIGN,
            &["--faults", "--intensity", "0.5,2"],
            "--intensity 2 is outside [0, 1]",
        ),
        (
            CAMPAIGN,
            &["--faults", "--intensity", "nan"],
            "--intensity nan is outside [0, 1]",
        ),
        (
            CAMPAIGN,
            &["--faults", "--intensity", "-0.5"],
            "--intensity -0.5 is outside [0, 1]",
        ),
        (
            CAMPAIGN,
            &["--smoke", "--kmax", "17"],
            "--kmax 17: k_max must be <= 16",
        ),
        (
            CAMPAIGN,
            &["--kmax", "2,0"],
            "--kmax 0: k_max (smoothing factor) must be >= 1",
        ),
        (
            LAQA,
            &["sim", "--kmax", "0"],
            "--kmax 0: k_max (smoothing factor) must be >= 1",
        ),
        (LAQA, &["sim", "--kmax", "17"], "--kmax 17: k_max must be <= 16"),
        (LAQA, &["sim", "--loss", "nan"], "--loss NaN is outside [0, 1]"),
        (LAQA, &["sim", "--loss", "2"], "--loss 2 is outside [0, 1]"),
        (LAQA, &["sim", "--loss", "-0.1"], "--loss -0.1 is outside [0, 1]"),
        (LAQA, &["states", "--c", "0"], "--c must be finite and > 0"),
        (LAQA, &["states", "--slope", "0"], "--slope must be finite and > 0"),
        (LAQA, &["states", "--slope", "-5"], "--slope must be finite and > 0"),
        (LAQA, &["states", "--rate", "nan"], "--rate must be finite and > 0"),
        (LAQA, &["states", "--layers", "0"], "--layers must be >= 1"),
        (LAQA, &["bands", "--deficit", "-1"], "--deficit must be finite and >= 0"),
        (LAQA, &["bands", "--slope", "inf"], "--slope must be finite and > 0"),
        (
            LAQA,
            &["bands", "--exp-factor", "3"],
            "--exp-factor is not read without --exp-base",
        ),
        (
            LAQA,
            &["bands", "--exp-base", "2000", "--c", "5"],
            "--c is not read with --exp-base",
        ),
        (
            CAMPAIGN,
            &["--smoke", "--seeds", "7", "--seeds", "21"],
            "--seeds given more than once",
        ),
        (CAMPAIGN, &["--smoke", "--kmax", "2,2"], "--kmax lists 2 more than once"),
        (CAMPAIGN, &["--seeds", "7,21,7"], "--seeds lists 7 more than once"),
        (
            CAMPAIGN,
            &["--faults", "--intensity", "0,0.5,0.50"],
            "--intensity lists 0.50 more than once",
        ),
        (
            CAMPAIGN,
            &["--smoke", "--transport", "rap,rap"],
            "--transport lists rap more than once",
        ),
        (
            CAMPAIGN,
            &["--faults", "--trace", "lte,bloat,lte"],
            "--trace lists lte more than once",
        ),
        (
            CAMPAIGN,
            &["--smoke", "--duration", "nan"],
            "--duration must be finite and > 0",
        ),
        (
            CAMPAIGN,
            &["--faults", "--duration", "-3"],
            "--duration must be finite and > 0",
        ),
        (CAMPAIGN, &["--duration", "0"], "--duration must be finite and > 0"),
        (LAQA, &["sim", "--seed", "1", "--seed", "2"], "--seed given more than once"),
        (LAQA, &["sim", "--duration", "nan"], "--duration must be finite and > 0"),
        (LAQA, &["sim", "--duration", "-1"], "--duration must be finite and > 0"),
        (LAQA, &["sim", "--nope", "1"], "unknown option --nope"),
        (LAQA, &["frobnicate"], "unknown subcommand 'frobnicate'"),
        (LAQA, &[], "missing subcommand"),
    ];
    for (bin, args, want) in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert_has(&stderr(&out), want);
        let ran = stdout(&out).contains("fingerprint");
        assert!(!ran, "{bin} {args:?} must not run anything");
    }
}

#[test]
fn smoke_honours_kmax_and_seeds() {
    // `--smoke` once hard-coded K_max {2, 4} x seeds {7, 21} and ran eight
    // cells here whatever the command line said.
    let args = "--smoke --kmax 3 --seeds 5 --transport rap,tcp";
    let out = run(CAMPAIGN, &args.split(' ').collect::<Vec<_>>());
    assert!(out.status.success(), "campaign: {}", stderr(&out));
    let text = stdout(&out);
    let cells: Vec<&str> = text
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("T1/"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(cells, ["T1/k3/seed5", "T1/k3/seed5/tcp"], "{text}");
    assert_has(&text, "smoke ok: 2 sessions");
}

#[test]
fn tables_mode_checks_replay() {
    // The default Table 1+2 mode once skipped the cross-thread replay
    // check every other mode runs.
    let dir = scratch("cli-tables");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let mut args: Vec<&str> = "--duration 2 --kmax 2 --seeds 7 --out".split(' ').collect();
    args.push(dir_arg);
    let out = run(CAMPAIGN, &args);
    assert!(out.status.success(), "campaign: {}", stderr(&out));
    assert_has(&stdout(&out), "replay check: 2 sessions");
}

/// The fingerprint `campaign` printed on its replay-check line.
fn printed_fingerprint(text: &str) -> u64 {
    let line = text.lines().find(|l| l.starts_with("replay check:"));
    let line = line.unwrap_or_else(|| panic!("no replay line in {text}"));
    let hex = line.split("fingerprint ").nth(1).and_then(|r| r.split(' ').next());
    u64::from_str_radix(hex.expect("fingerprint field"), 16).expect("hex fingerprint")
}

#[test]
fn transport_and_trace_axes_build_the_library_grid() {
    // The binary builds its grid only through `CampaignSpec::product`: the
    // printed fingerprint is the in-process one of the same axes, in
    // smoke mode (T1) and in tables mode (T1 + T2).
    let dir = scratch("cli-axes");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let axes = "--transport rap,tcp --trace lte --kmax 2 --seeds 7 --duration 6";
    let smoke = format!("--smoke {axes}");
    let tables = format!("{axes} --out {dir_arg}");
    for (line, tests) in [(&smoke, &[TestKind::T1][..]), (&tables, &TestKind::ALL[..])] {
        let out = run(CAMPAIGN, &line.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "campaign {line}: {}", stderr(&out));
        let text = stdout(&out);
        assert_has(&text, "interop matrix: QA metrics by transport");
        assert_has(&text, "hostile grid: QA damage by trace family");
        let transports = [Transport::Rap, Transport::Tcp];
        let spec =
            CampaignSpec::product(tests, &[TraceKind::Lte], &transports, &[2], &[0.0], &[7], 6.0);
        assert_has(&text, &format!("replay check: {} sessions", spec.len()));
        let want = run_campaign(&spec, 1).fingerprint();
        assert_eq!(printed_fingerprint(&text), want, "campaign {line}");
    }
    assert_eq!(std::fs::read_dir(&dir).expect("--out DIR").count(), 4);
}

/// `campaign --faults --smoke --obs DIR`, then both `laqa` readers over
/// what it wrote.
#[test]
fn obs_export_round_trips_through_report_and_trace() {
    let dir = scratch("cli-obs");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let campaign = run(CAMPAIGN, &["--faults", "--smoke", "--obs", dir_arg]);
    assert!(campaign.status.success(), "campaign: {}", stderr(&campaign));
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("campaign --obs created the directory")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["flight.json", "metrics.json"],
        "campaign --obs writes exactly these"
    );
    let report = run(LAQA, &["obs-report", "--dir", dir_arg]);
    assert!(report.status.success(), "obs-report: {}", stderr(&report));
    let trace = run(LAQA, &["obs-trace", "--dir", dir_arg]);
    assert!(trace.status.success(), "obs-trace: {}", stderr(&trace));

    assert_has(&stdout(&campaign), "replay check:");
    assert_has(&stdout(&report), "campaign.sessions");
    // The replay check runs with obs off: the 2-session grid is counted
    // once, not once per run.
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json");
    let sessions = laqa_trace::parse_json(&metrics)
        .expect("metrics.json parses")
        .get("counters")
        .and_then(|c| c.get("campaign.sessions"))
        .and_then(laqa_trace::JsonValue::as_num);
    assert_eq!(sessions, Some(2.0), "campaign.sessions in metrics.json");
    // obs-trace re-parses and validates what it wrote.
    assert!(dir.join("trace.json").is_file());
    assert_has(&stdout(&trace), "session 0");
    assert_has(&stdout(&trace), "session 1");
    for out in [&campaign, &report, &trace] {
        assert!(!stderr(out).contains("warning:"), "{}", stderr(out));
    }
}
