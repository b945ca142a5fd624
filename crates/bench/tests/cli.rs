//! The command-line contract of the `laqa` binary that no library test
//! can see: exit code 2 for a command line a subcommand cannot honour,
//! `campaign --smoke` reading its grid from the command line, the default
//! tables mode's replay check and a report that does not depend on the
//! thread count, `--transport` / `--trace` grids equal to the library's
//! `CampaignSpec::product`, the report and Perfetto trace
//! `campaign --obs DIR` writes, `laqa figures` writing to
//! `--out` and checking its reports and files against it, and `--help`.

use laqa_sim::{run_campaign, CampaignSpec, TestKind, TraceKind, Transport};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LAQA: &str = env!("CARGO_BIN_EXE_laqa");

fn run(args: &[&str]) -> Output {
    Command::new(LAQA).args(args).output().expect("spawn laqa")
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
    // and a NaN rate printed a state path. `bands --exp-base` and
    // `sim --retransmit` ran the non-linear spacing and the selective
    // retransmission that are gone. An option given twice ran only its
    // last value, a list naming a value twice ran its cells twice under
    // one label, and a NaN, zero or negative duration ran empty sessions.
    // A value that did not parse exited 1 where every other usage error
    // exited 2. `states --kmax 0` printed an empty path, `--kmax 17` a
    // path the controller refuses, and `bands --layers 100000000` ran on
    // for seconds. `obs-report` and `obs-trace` read intermediate files
    // that `campaign --obs` no longer writes.
    let cases: [(&[&str], &str); 50] = [
        (&["campaign", "--smoke", "--nope"], "unknown option --nope"),
        (
            &["campaign", "--smoke", "1"],
            "invalid value '1' for --smoke",
        ),
        (&["campaign", "--smoke", "--obs"], "missing value for --obs"),
        (&["campaign", "smoke"], "unexpected argument 'smoke'"),
        (
            &["campaign", "--smoke", "--threads", "8"],
            "--threads is not read in --smoke mode",
        ),
        (
            &["campaign", "--smoke", "--out", "d"],
            "--out is not read in --smoke mode",
        ),
        (
            &["campaign", "--intensity", "0.5"],
            "--intensity is not read in the default",
        ),
        (
            &["campaign", "--faults", "--intensity", "0.5,2"],
            "--intensity 2 is outside [0, 1]",
        ),
        (
            &["campaign", "--faults", "--intensity", "nan"],
            "--intensity nan is outside [0, 1]",
        ),
        (
            &["campaign", "--faults", "--intensity", "-0.5"],
            "--intensity -0.5 is outside [0, 1]",
        ),
        (
            &["campaign", "--smoke", "--kmax", "17"],
            "--kmax 17: k_max must be <= 16",
        ),
        (
            &["campaign", "--kmax", "2,0"],
            "--kmax 0: k_max (smoothing factor) must be >= 1",
        ),
        (
            &["sim", "--kmax", "0"],
            "--kmax 0: k_max (smoothing factor) must be >= 1",
        ),
        (&["sim", "--kmax", "17"], "--kmax 17: k_max must be <= 16"),
        (&["sim", "--loss", "nan"], "--loss NaN is outside [0, 1]"),
        (&["sim", "--loss", "2"], "--loss 2 is outside [0, 1]"),
        (&["sim", "--loss", "-0.1"], "--loss -0.1 is outside [0, 1]"),
        (&["states", "--c", "0"], "--c must be finite and > 0"),
        (
            &["states", "--slope", "0"],
            "--slope must be finite and > 0",
        ),
        (
            &["states", "--slope", "-5"],
            "--slope must be finite and > 0",
        ),
        (
            &["states", "--rate", "nan"],
            "--rate must be finite and > 0",
        ),
        (&["states", "--layers", "0"], "--layers must be >= 1"),
        (
            &["bands", "--deficit", "-1"],
            "--deficit must be finite and >= 0",
        ),
        (
            &["bands", "--slope", "inf"],
            "--slope must be finite and > 0",
        ),
        (
            &["bands", "--exp-base", "2000"],
            "unknown option --exp-base",
        ),
        (&["sim", "--retransmit", "1"], "unknown option --retransmit"),
        (
            &["campaign", "--smoke", "--seeds", "7", "--seeds", "21"],
            "--seeds given more than once",
        ),
        (
            &["campaign", "--smoke", "--kmax", "2,2"],
            "--kmax lists 2 more than once",
        ),
        (
            &["campaign", "--seeds", "7,21,7"],
            "--seeds lists 7 more than once",
        ),
        (
            &["campaign", "--faults", "--intensity", "0,0.5,0.50"],
            "--intensity lists 0.50 more than once",
        ),
        (
            &["campaign", "--smoke", "--transport", "rap,rap"],
            "--transport lists rap more than once",
        ),
        (
            &["campaign", "--faults", "--trace", "lte,bloat,lte"],
            "--trace lists lte more than once",
        ),
        (
            &["campaign", "--smoke", "--duration", "nan"],
            "--duration must be finite and > 0",
        ),
        (
            &["campaign", "--faults", "--duration", "-3"],
            "--duration must be finite and > 0",
        ),
        (
            &["campaign", "--duration", "0"],
            "--duration must be finite and > 0",
        ),
        (
            &["sim", "--seed", "1", "--seed", "2"],
            "--seed given more than once",
        ),
        (
            &["sim", "--duration", "nan"],
            "--duration must be finite and > 0",
        ),
        (
            &["sim", "--duration", "-1"],
            "--duration must be finite and > 0",
        ),
        (&["sim", "--nope", "1"], "unknown option --nope"),
        (&["frobnicate"], "unknown subcommand 'frobnicate'"),
        (&["obs-report"], "unknown subcommand 'obs-report'"),
        (&["obs-trace"], "unknown subcommand 'obs-trace'"),
        (&["figures", "--only", "fig99"], "unknown figure 'fig99'"),
        (&[], "missing subcommand"),
        (
            &["sim", "--seed", "banana"],
            "invalid value 'banana' for --seed",
        ),
        (
            &["campaign", "--kmax", "banana"],
            "invalid value 'banana' for --kmax",
        ),
        (
            &["states", "--kmax", "0"],
            "--kmax 0: k_max (smoothing factor) must be >= 1",
        ),
        (
            &["states", "--kmax", "17"],
            "--kmax 17: k_max must be <= 16",
        ),
        (
            &["states", "--layers", "33"],
            "--layers must be >= 1 and <= 32",
        ),
        (
            &["bands", "--layers", "100000000"],
            "--layers must be >= 1 and <= 32",
        ),
    ];
    for (args, want) in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "laqa {args:?}");
        // Every usage error names the problem, then prints the usage text.
        let usage = "\n\nlaqa — layered quality adaptation toolkit";
        assert_has(&stderr(&out), want);
        assert_has(&stderr(&out), usage);
        let ran = stdout(&out).contains("fingerprint");
        assert!(!ran, "laqa {args:?} must not run anything");
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    // `--help` and `-h` once exited 2 with `error: missing subcommand`.
    for arg in ["help", "--help", "-h"] {
        let out = run(&[arg]);
        assert_eq!(out.status.code(), Some(0), "laqa {arg}: {}", stderr(&out));
        assert!(stdout(&out).starts_with("laqa — layered quality adaptation toolkit"));
        assert_has(&stdout(&out), "--only ID, one of: fig01");
        assert_eq!(stderr(&out), "", "laqa {arg}");
    }
}

#[test]
fn smoke_honours_kmax_and_seeds() {
    // `--smoke` once hard-coded K_max {2, 4} x seeds {7, 21} and ran eight
    // cells here whatever the command line said.
    let args = "campaign --smoke --kmax 3 --seeds 5 --transport rap,tcp";
    let out = run(&args.split(' ').collect::<Vec<_>>());
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
    // check every other mode runs. Its report once named the thread
    // counts and the wall time, so it differed from host to host: at 1
    // and at 2 threads it must now print the same lines, less `wrote`,
    // and write the same summaries.
    let runs = ["1", "2"].map(|threads| {
        let dir = scratch(&format!("cli-tables-{threads}"));
        let dir_arg = dir.to_str().expect("utf-8 scratch path");
        let line = "campaign --duration 2 --kmax 2 --seeds 7 --threads";
        let mut args: Vec<&str> = line.split(' ').collect();
        args.extend([threads, "--out", dir_arg]);
        let out = run(&args);
        assert!(out.status.success(), "campaign: {}", stderr(&out));
        (dir, stdout(&out))
    });
    let report = |text: &str| {
        let lines = text.lines().filter(|l| !l.starts_with("wrote "));
        lines.collect::<Vec<_>>().join("\n")
    };
    assert_has(&runs[0].1, "replay check: 2 sessions");
    assert_eq!(report(&runs[0].1), report(&runs[1].1));
    let files = |dir: &Path| {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("--out DIR")
            .map(|e| {
                let path = e.expect("dir entry").path();
                let bytes = std::fs::read(&path).expect("summary");
                (
                    path.strip_prefix(dir).expect("under dir").to_path_buf(),
                    bytes,
                )
            })
            .collect();
        files.sort();
        files
    };
    let written = files(&runs[0].0);
    assert_eq!(written.len(), 2, "one summary per session");
    assert_eq!(written, files(&runs[1].0));
}

/// The fingerprint `laqa campaign` printed on its replay-check line.
fn printed_fingerprint(text: &str) -> u64 {
    let line = text.lines().find(|l| l.starts_with("replay check:"));
    let line = line.unwrap_or_else(|| panic!("no replay line in {text}"));
    let hex = line
        .split("fingerprint ")
        .nth(1)
        .and_then(|r| r.split(' ').next());
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
    let smoke = format!("campaign --smoke {axes}");
    let tables = format!("campaign {axes} --out {dir_arg}");
    for (line, tests) in [(&smoke, &[TestKind::T1][..]), (&tables, &TestKind::ALL[..])] {
        let out = run(&line.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "{line}: {}", stderr(&out));
        let text = stdout(&out);
        assert_has(&text, "interop matrix: QA metrics by transport");
        assert_has(&text, "hostile grid: QA damage by trace family");
        let transports = [Transport::Rap, Transport::Tcp];
        let spec = CampaignSpec::product(
            tests,
            &[TraceKind::Lte],
            &transports,
            &[2],
            &[0.0],
            &[7],
            6.0,
        );
        assert_has(&text, &format!("replay check: {} sessions", spec.len()));
        let want = run_campaign(&spec, 1).fingerprint();
        assert_eq!(printed_fingerprint(&text), want, "{line}");
    }
    assert_eq!(std::fs::read_dir(&dir).expect("--out DIR").count(), 4);
}

/// `laqa campaign --faults --smoke --obs DIR` writes the counter report
/// and the Perfetto trace of the sweep.
#[test]
fn obs_export_writes_report_and_trace() {
    let dir = scratch("cli-obs");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let campaign = run(&["campaign", "--faults", "--smoke", "--obs", dir_arg]);
    assert!(campaign.status.success(), "campaign: {}", stderr(&campaign));
    assert!(
        !stderr(&campaign).contains("warning:"),
        "{}",
        stderr(&campaign)
    );
    assert_has(&stdout(&campaign), "replay check:");
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("campaign --obs created the directory")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["report.txt", "trace.json"],
        "campaign --obs writes exactly these"
    );
    // The replay check runs with obs off: the 2-session grid is counted
    // once, not once per run.
    let report = std::fs::read_to_string(dir.join("report.txt")).expect("report.txt");
    let sessions: Vec<&str> = report
        .lines()
        .filter_map(|l| l.trim().strip_prefix("campaign.sessions"))
        .map(str::trim)
        .collect();
    assert_eq!(sessions, ["2"], "campaign.sessions row in {report}");
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let trace = laqa_trace::parse_json(&trace).expect("trace.json parses");
    let stats = laqa_trace::validate_chrome(&trace).expect("trace.json is well-formed");
    assert_eq!(stats.session_tracks(), 2, "one non-empty track per session");
}

/// The workspace root: `laqa figures` run from here defaults to its
/// `results/`.
fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir`, relative to it, with its length and
/// modification time.
fn listing(dir: &Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
    let mut files = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).expect("readable directory") {
            let path = entry.expect("dir entry").path();
            let meta = std::fs::metadata(&path).expect("metadata");
            if meta.is_dir() {
                todo.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                files.push((rel, meta.len(), meta.modified().expect("mtime")));
            }
        }
    }
    files.sort();
    files
}

fn names(files: &[(PathBuf, u64, std::time::SystemTime)]) -> Vec<String> {
    files.iter().map(|f| f.0.display().to_string()).collect()
}

#[test]
fn figures_write_one_figure_under_out_only() {
    // Figures once wrote to a results/ directory fixed at compile time.
    let root = checkout();
    let results = listing(&root.join("results"));
    let dir = scratch("cli-figures");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let args = ["figures", "--only", "fig05", "--out", dir_arg];
    let out = Command::new(LAQA).args(args).current_dir(&root).output();
    let out = out.expect("spawn laqa");
    assert!(out.status.success(), "figures: {}", stderr(&out));
    assert_eq!(names(&listing(&dir)), ["fig05/summary.json", "fig05.out"]);
    let saved = std::fs::read_to_string(dir.join("fig05.out")).expect("fig05.out");
    assert_eq!(stdout(&out), saved, "prints what it saves");
    let wrote = format!("wrote {}\n", dir.join("fig05").display());
    assert!(saved.ends_with(&wrote), "{saved}");
    assert_eq!(
        listing(&root.join("results")),
        results,
        "results/ untouched"
    );
}

/// Copy `results/<id>.out` and every file under `results/<id>/` into a
/// fresh scratch directory named `name`; returns it.
fn copy_results(name: &str, id: &str) -> PathBuf {
    let dir = scratch(name);
    std::fs::create_dir_all(dir.join(id)).expect("scratch dir");
    let results = checkout().join("results");
    for (file, _, _) in listing(&results.join(id)) {
        std::fs::copy(results.join(id).join(&file), dir.join(id).join(&file)).expect("copy");
    }
    let report = format!("{id}.out");
    std::fs::copy(results.join(&report), dir.join(&report)).expect("copy the report");
    dir
}

/// `text` with the first digit of its first line that has one after line
/// `skip` bumped by one (mod 10); returns the new text, that line's
/// number (from 1) and the changed line.
fn bump_a_digit(text: &str, skip: usize) -> (String, usize, String) {
    let (n, line) = text
        .lines()
        .enumerate()
        .skip(skip)
        .find(|(_, l)| l.contains(|c: char| c.is_ascii_digit()))
        .expect("a line with a digit");
    let at = line.find(|c: char| c.is_ascii_digit()).expect("digit");
    let digit = line.as_bytes()[at] - b'0';
    let changed = format!("{}{}{}", &line[..at], (digit + 1) % 10, &line[at + 1..]);
    let mut lines: Vec<&str> = text.lines().collect();
    lines[n] = &changed;
    (lines.join("\n") + "\n", n + 1, changed)
}

#[test]
fn figures_check_names_the_figure_and_its_first_differing_line() {
    let dir = copy_results("cli-figures-check", "fig05");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let copy = dir.join("fig05.out");
    let committed = std::fs::read_to_string(&copy).expect("committed fig05.out");
    let check = || run(&["figures", "--check", "--only", "fig05", "--out", dir_arg]);

    let out = check();
    assert!(out.status.success(), "check: {}", stderr(&out));
    assert_has(&stdout(&out), "fig05: matches");
    assert_eq!(
        names(&listing(&dir)),
        ["fig05/summary.json", "fig05.out"],
        "--check writes nothing"
    );

    // One digit of the copy changed: the check fails on that line.
    let (edited, line, changed) = bump_a_digit(&committed, 0);
    std::fs::write(&copy, edited).expect("edit the copy");
    let out = check();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_has(
        &stderr(&out),
        &format!("fig05 differs from {} at line {line}", copy.display()),
    );
    assert_has(&stderr(&out), &changed);
}

#[test]
fn figures_check_compares_every_file_a_figure_writes() {
    // `--check` once compared only `<id>.out`, so a CSV or summary that
    // drifted while the report did not passed.
    let dir = copy_results("cli-figures-check-files", "fig11");
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let check = || run(&["figures", "--check", "--only", "fig11", "--out", dir_arg]);
    let out = check();
    assert!(out.status.success(), "check: {}", stderr(&out));
    assert_has(&stdout(&out), "fig11: matches");

    // One digit of one sample of a per-layer buffer CSV changed.
    let csv = dir.join("fig11/buffer_1.csv");
    let committed = std::fs::read_to_string(&csv).expect("committed buffer_1.csv");
    let (edited, line, changed) = bump_a_digit(&committed, 1);
    std::fs::write(&csv, edited).expect("edit the copy");
    let out = check();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_has(
        &stderr(&out),
        &format!("fig11 differs from {} at line {line}", csv.display()),
    );
    assert_has(&stderr(&out), &changed);

    // A file the figure writes that the directory lacks fails too.
    std::fs::remove_file(&csv).expect("remove the copy");
    let out = check();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_has(&stderr(&out), "fig11 wrote buffer_1.csv, which");
}
