//! `laqa campaign` — parallel sweep driver over the paper's T1/T2 workloads.
//!
//! Derives Tables 1 and 2 as one multi-threaded campaign and doubles as the
//! determinism harness: every mode cross-checks the campaign fingerprint
//! at another thread count and fails loudly on any divergence.
//!
//! ```text
//! laqa campaign                 # full Table 1+2 sweep (50 sessions, 90 s each)
//! laqa campaign --smoke         # seconds-long sweep on 2 threads
//! laqa campaign --faults        # fault-injection intensity sweep (recovery time,
//!                               # layer-change rate, base-layer starvation)
//! laqa campaign --faults --smoke  # seconds-long fault sweep
//! options: --duration S  --kmax 2,3,4  --seeds 7,21
//!          --threads N  --out DIR   # every mode but plain --smoke
//!          --intensity 0,0.5,1   # fault-suite intensities in [0, 1] (--faults only)
//!          --transport rap,bbr,nada,tcp  # QA-flow controllers (default rap)
//!          --trace lte,bloat,diurnal,bonded  # link traces (default: steady)
//!          --obs DIR      # enable laqa-obs + the flight recorder and
//!                         # write DIR/report.txt + DIR/trace.json
//! ```
//!
//! Each mode is a `Preset` run by the one function `run`: the command
//! line overrides the preset's axes, [`CampaignSpec::product`] builds the
//! grid (test → trace → transport → `K_max` → intensity → seed), and each
//! axis given several values gets a per-axis summary table. The report
//! names no thread count, wall time or path, so it is the same on every
//! host; `laqa figures` runs the default mode as its `tables` entry.
//!
//! `--obs DIR` writes `report.txt` (the counter and histogram tables) and
//! `trace.json` (the flight recorder's Perfetto timeline) for the sweep
//! alone: the replay check runs with obs off. Observability is inert, so
//! fingerprints are bit-identical with and without it.

use crate::cli::{ArgError, Args};
use laqa_sim::{
    run_campaign, CampaignResult, CampaignSpec, ScenarioConfig, SessionResult, SessionSpec,
    TestKind, TraceKind, Transport,
};
use laqa_trace::{pct, RunSummary, Table};
use std::error::Error;
use std::io::{self, Write};
use std::path::Path;

/// One mode's defaults. The command line overrides every axis but
/// `tests`; an option the mode never reads is refused in [`cmd`].
struct Preset {
    name: &'static str,
    tests: &'static [TestKind],
    duration: f64,
    seeds: &'static [u64],
    k_values: &'static [u32],
    /// Fault intensities; `[0.0]` is the one fault-free cell.
    intensities: &'static [f64],
    /// Worker threads; `None` = the host's parallelism.
    threads: Option<usize>,
}

const SMOKE: Preset = Preset {
    name: "smoke",
    tests: &[TestKind::T1],
    duration: 8.0,
    seeds: &[7, 21],
    k_values: &[2, 4],
    intensities: &[0.0],
    threads: Some(2),
};

const FAULTS: Preset = Preset {
    name: "faults",
    tests: &[TestKind::T1],
    duration: 45.0,
    seeds: &[7, 21, 42],
    k_values: &[2],
    intensities: &[0.0, 0.25, 0.5, 0.75, 1.0],
    threads: None,
};

const FAULTS_SMOKE: Preset = Preset {
    duration: 12.0,
    seeds: &[7],
    k_values: &[2],
    intensities: &[0.0, 1.0],
    threads: Some(2),
    ..FAULTS
};

/// The paper's Tables 1–2 grid: the default mode.
const TABLES: Preset = Preset {
    name: "tables",
    tests: &TestKind::ALL,
    duration: 90.0,
    seeds: &[7, 21, 42, 77, 99],
    k_values: &[2, 3, 4, 5, 8],
    intensities: &[0.0],
    threads: None,
};

/// `laqa figures`' `tables` entry: the default grid, its report and one
/// summary per session.
pub(crate) fn tables(_dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let result = run(&Args::default(), &TABLES, w).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(result.summaries())
}

/// `laqa campaign`: the mode the flags select, run over the command
/// line's axes, then the `--obs` export and the `--out` summaries.
pub fn cmd(args: &Args) -> Result<(), Box<dyn Error>> {
    // An option the selected mode never reads is a usage error, not a
    // silent fallback: `--smoke` alone always checks 2 threads against 1
    // and writes no summaries, and only `--faults` sweeps intensities.
    let (preset, mode, unread): (&Preset, &str, &[&str]) =
        match (args.flag("faults"), args.flag("smoke")) {
            (true, true) => (&FAULTS_SMOKE, "--faults", &[]),
            (true, false) => (&FAULTS, "--faults", &[]),
            (false, true) => (&SMOKE, "--smoke", &["threads", "out", "intensity"]),
            (false, false) => (&TABLES, "the default Table 1+2", &["intensity"]),
        };
    if let Some(key) = unread.iter().find(|k| args.options.contains_key(**k)) {
        return Err(ArgError::Usage(format!("--{key} is not read in {mode} mode")).into());
    }
    let obs_dir = args.options.get("obs").map(Path::new);
    laqa_obs::set_enabled(obs_dir.is_some());
    laqa_obs::flight::set_enabled(obs_dir.is_some());
    let result = run(args, preset, &mut io::stdout().lock())?;
    if let Some(dir) = obs_dir {
        export_obs(dir, &result)?;
    }
    if let Some(dir) = args.options.get("out") {
        crate::figures::write_summaries(Path::new(dir), &result.summaries())?;
        println!("wrote {} summaries to {dir}", result.sessions.len());
    }
    Ok(())
}

/// Write the sweep's obs snapshot to `dir` as `report.txt` (counter and
/// histogram tables) and its flight-recorder timeline as `trace.json`
/// (Chrome trace-event JSON for Perfetto / `chrome://tracing`).
fn export_obs(dir: &Path, sweep: &CampaignResult) -> Result<(), Box<dyn Error>> {
    let tracks = sweep.sessions.iter().map(|s| s.flight.as_slice());
    let trace = laqa_obs::flight::to_chrome(tracks).to_compact();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("report.txt"), laqa_obs::snapshot().render())?;
    std::fs::write(dir.join("trace.json"), trace)?;
    println!("obs: wrote report.txt and trace.json to {}", dir.display());
    Ok(())
}

/// Run `preset` over the command line's axes and write its report to `w`:
/// the grid and its tables, then the replay check. Returns the sweep.
fn run(args: &Args, preset: &Preset, w: &mut dyn Write) -> Result<CampaignResult, Box<dyn Error>> {
    let host = || std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let threads: usize = args.get("threads", preset.threads.unwrap_or_else(host))?;
    let duration: f64 = args.get("duration", preset.duration)?;
    if !(duration.is_finite() && duration > 0.0) {
        // A NaN, zero or negative duration runs sessions with no events.
        let msg = format!("--duration must be finite and > 0, got {duration}");
        return Err(ArgError::Usage(msg).into());
    }
    // Each intensity is one cell of the suite, whose domain is [0, 1]:
    // anything above clamps onto the 1.0 cell and anything else runs the
    // baseline, under labels that claim otherwise.
    let outside = |v: &&str| v.parse::<f64>().is_ok_and(|i| !(0.0..=1.0).contains(&i));
    let intensities = args.options.get("intensity").map_or("", String::as_str);
    if let Some(bad) = intensities.split(',').map(str::trim).find(outside) {
        return Err(ArgError::Usage(format!("--intensity {bad} is outside [0, 1]")).into());
    }
    let seeds: Vec<u64> = args.get_list("seeds", preset.seeds)?;
    let k_values: Vec<u32> = args.get_list("kmax", preset.k_values)?;
    for &k in &k_values {
        check_kmax(k)?;
    }
    let intensities: Vec<f64> = args.get_list("intensity", preset.intensities)?;
    let transports: Vec<Transport> = args.get_list("transport", &[Transport::Rap])?;
    let traces: Vec<TraceKind> = args.get_list("trace", &[])?;
    let spec = CampaignSpec::product(
        preset.tests,
        &traces,
        &transports,
        &k_values,
        &intensities,
        &seeds,
        duration,
    );
    let n = spec.len();
    match preset.name {
        "faults" => writeln!(
            w,
            "faults_suite: {n} sessions ({duration:.0}s each), intensities {intensities:?}"
        )?,
        "tables" => writeln!(w, "running {n} sessions ({duration:.0}s simulated each)...")?,
        _ => {}
    }
    let result = run_campaign(&spec, threads);
    writeln!(w, "{}", result.table())?;
    match preset.name {
        "faults" => {
            let by = |s: &SessionSpec, i: f64| s.fault_intensity.unwrap_or(0.0) == i;
            let label = |i: f64| format!("{i:.2}");
            writeln!(
                w,
                "{}",
                BY_INTENSITY.render(&result, &intensities, label, by)
            )?;
        }
        "tables" => print_tables(w, &result, &transports, &k_values)?,
        _ => {}
    }
    if transports.len() > 1 {
        let by = |s: &SessionSpec, t: Transport| s.transport == t;
        let label = |t: Transport| t.label().into();
        writeln!(
            w,
            "{}",
            BY_TRANSPORT.render(&result, &transports, label, by)
        )?;
    }
    if !traces.is_empty() {
        let by = |s: &SessionSpec, t: TraceKind| s.trace == Some(t);
        let label = |t: TraceKind| t.label().into();
        writeln!(w, "{}", BY_TRACE.render(&result, &traces, label, by))?;
    }
    // The sweep must reproduce bit-identically on another thread count.
    // Obs is off for the replay, so `--obs` describes the sweep once.
    laqa_obs::set_enabled(false);
    laqa_obs::flight::set_enabled(false);
    let (fp, on) = (result.fingerprint(), result.threads);
    let replay = run_campaign(&spec, if on == 1 { 2 } else { 1 });
    let (replay_fp, replay_on) = (replay.fingerprint(), replay.threads);
    if replay_fp != fp {
        return Err(format!(
            "NON-DETERMINISM: fingerprint {replay_fp:016x} with {replay_on} threads vs \
             {fp:016x} with {on}"
        )
        .into());
    }
    writeln!(
        w,
        "replay check: {n} sessions, fingerprint {fp:016x} identical at another thread count"
    )?;
    if preset.name != "tables" {
        writeln!(w, "{} ok: {n} sessions", preset.name)?;
    }
    Ok(result)
}

/// Refuse a `K_max` the QA controller refuses (it would panic every
/// worker that builds a cell with it), with the controller's reason.
pub fn check_kmax(k: u32) -> Result<(), ArgError> {
    match ScenarioConfig::t1(k, 0.0, 0).qa.validated() {
        Ok(_) => Ok(()),
        Err(e) => Err(ArgError::Usage(format!("--kmax {k}: {e}"))),
    }
}

/// Tables 1 and 2 (mean over each test × `K_max` cell's seeds). With
/// several transports each gets its own pair (a cross-transport mean
/// would compare nothing meaningful); one transport keeps the exact
/// titles the paper uses.
fn print_tables(
    w: &mut dyn Write,
    result: &CampaignResult,
    transports: &[Transport],
    k_values: &[u32],
) -> io::Result<()> {
    let mut headers = vec!["test".to_string()];
    headers.extend(k_values.iter().map(|k| format!("K_max={k}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    for &t in transports {
        let suffix = (transports.len() > 1).then(|| format!(" [{}]", t.label()));
        let suffix = suffix.unwrap_or_default();
        let mean = |test: TestKind, k: u32, metric: fn(&SessionResult) -> Option<f64>| {
            result.mean_metric(
                |s| s.test == test && s.k_max == k && s.transport == t,
                metric,
            )
        };
        let t1 = format!("Table 1{suffix}: buffering efficiency e (mean over drop events)");
        let t2 = format!("Table 2{suffix}: avoidable drops / quality changes (mean per run)");
        let (mut t1, mut t2) = (Table::new(t1, &headers), Table::new(t2, &headers));
        for test in TestKind::ALL {
            let mut row1 = vec![test.label().to_string()];
            let mut row2 = row1.clone();
            for &k in k_values {
                row1.push(pct(mean(test, k, |s| s.efficiency)));
                let avoid = pct(mean(test, k, |s| s.avoidable_drops));
                let changes = mean(test, k, |s| Some(s.quality_changes as f64));
                row2.push(format!("{avoid} / {:.1}", changes.unwrap_or(0.0)));
            }
            t1.row(row1);
            t2.row(row2);
        }
        writeln!(w, "{}", t1.render())?;
        writeln!(w, "{}", t2.render())?;
    }
    Ok(())
}

/// One column of a per-axis summary: header, per-cell sample (`None`: no
/// sample, e.g. no drop to rate), and the decimals and unit of the mean.
type Column = (
    &'static str,
    fn(&SessionResult) -> Option<f64>,
    usize,
    &'static str,
);

const EFF: Column = ("eff", |s| s.efficiency, 4, "");
const CHG: Column = ("chg/s", |s| Some(s.layer_change_rate), 3, "");
const RECOVERY: Column = ("recovery", |s| s.recovery_secs_mean, 2, "s");
const STARVED: Column = ("starved B", |s| Some(s.base_starved_bytes), 0, "");
const DISCARDED: Column = ("discarded B", |s| Some(s.discarded_bytes), 0, "");
const STALLS: Column = ("stalls", |s| Some(s.stalls as f64), 1, "");
const DROPS: Column = ("drops", |s| Some(s.drops as f64), 1, "");
const BACKOFFS: Column = ("backoffs", |s| Some(s.backoffs as f64), 1, "");
const UNDERFLOWS: Column = ("underflows", |s| Some(s.rx_underflows as f64), 1, "");
const TRACE_PTS: Column = ("trace pts", |s| Some(s.trace_changes as f64), 0, "");
const BOND: Column = ("bond B", |s| s.bond_leg_bytes.map(|b| b as f64), 0, "");

/// A per-axis summary: a row per axis value, a column per metric, each
/// cell the mean over that value's sessions (`-`: none has a sample).
struct AxisTable {
    title: &'static str,
    axis: &'static str,
    columns: &'static [Column],
}

/// The fault suite's hardening metrics per intensity.
const BY_INTENSITY: AxisTable = AxisTable {
    title: "fault suite: stability vs intensity (mean over seeds)",
    axis: "intensity",
    columns: &[CHG, RECOVERY, STARVED, STALLS, DROPS],
};

/// The QA × transport interop matrix, one row per controller.
const BY_TRANSPORT: AxisTable = AxisTable {
    title: "interop matrix: QA metrics by transport (mean over cells)",
    axis: "transport",
    columns: &[EFF, CHG, RECOVERY, STARVED, STALLS, BACKOFFS, UNDERFLOWS],
};

/// How fast quality recovers once the link turns on the session, what
/// the damage cost, and the trace activity itself, per trace family.
const BY_TRACE: AxisTable = AxisTable {
    title: "hostile grid: QA damage by trace family (mean over cells)",
    axis: "trace",
    columns: &[CHG, RECOVERY, STARVED, DISCARDED, STALLS, TRACE_PTS, BOND],
};

impl AxisTable {
    /// Render over `values`; `cell(spec, v)` selects the sessions of `v`.
    fn render<V: Copy>(
        &self,
        result: &CampaignResult,
        values: &[V],
        label: impl Fn(V) -> String,
        cell: impl Fn(&SessionSpec, V) -> bool,
    ) -> String {
        let mut headers = vec![self.axis];
        headers.extend(self.columns.iter().map(|c| c.0));
        let mut tbl = Table::new(self.title, &headers);
        for &v in values {
            let mut row = vec![label(v)];
            for &(_, metric, decimals, unit) in self.columns {
                row.push(match result.mean_metric(|s| cell(s, v), metric) {
                    Some(m) => format!("{m:.decimals$}{unit}"),
                    None => "-".to_string(),
                });
            }
            tbl.row(row);
        }
        tbl.render()
    }
}
