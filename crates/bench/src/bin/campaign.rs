//! `campaign` — parallel sweep driver over the paper's T1/T2 workloads.
//!
//! Derives Tables 1 and 2 as one multi-threaded campaign (the repo's only
//! regenerator for them) and doubles as the determinism harness: every
//! mode cross-checks the campaign fingerprint across thread counts and
//! fails loudly on any divergence.
//!
//! ```text
//! campaign                 # full Table 1+2 sweep (50 sessions, 90 s each)
//!                          # + replay check on another thread count;
//!                          # summaries to --out (default results/campaign)
//! campaign --smoke         # seconds-long sweep + 1-vs-2-thread replay check
//! campaign --faults        # fault-injection intensity sweep (recovery time,
//!                          # layer-change rate, base-layer starvation)
//! campaign --faults --smoke  # seconds-long fault sweep + replay check
//! options: --duration S  --kmax 2,3,4  --seeds 7,21
//!          --threads N  --out DIR   # every mode but plain --smoke (2 threads
//!                         # checked against 1, nothing written)
//!          --intensity 0,0.5,1   # fault-suite intensities in [0, 1] (--faults only)
//!          --transport rap,bbr,nada,tcp  # QA-flow controllers (default rap)
//!          --trace lte,bloat,diurnal,bonded  # link traces (default: steady)
//!          --obs DIR      # enable laqa-obs + the flight recorder and
//!                         # export snapshot + flight trace to DIR
//! ```
//!
//! Each mode is a [`Preset`] run by the one function [`run`]: the command
//! line overrides the preset's axes, [`CampaignSpec::product`] builds the
//! grid (test → trace → transport → `K_max` → intensity → seed), and each
//! axis given several values gets a per-axis summary table. An option
//! given twice, a list naming one value twice, and a `--duration` that is
//! not finite and > 0 are usage errors (exit 2).
//!
//! `--obs DIR` writes `metrics.json` and `flight.json` (read them with
//! `laqa obs-report` / `laqa obs-trace`) for the sweep alone: the replay
//! check runs with obs off. Observability is inert, so fingerprints are
//! bit-identical with and without it.

use laqa_bench::cli::{ArgError, Args};
use laqa_sim::{
    run_campaign, CampaignResult, CampaignSpec, ScenarioConfig, SessionResult, SessionSpec,
    TestKind, TraceKind, Transport,
};
use laqa_trace::{pct, Table};

/// Every option this binary takes (see the module docs): mode flags,
/// then the options that carry a value.
const FLAGS: &[&str] = &["smoke", "faults"];
const VALUED: &[&str] = &[
    "threads",
    "duration",
    "kmax",
    "seeds",
    "intensity",
    "transport",
    "trace",
    "out",
    "obs",
];

/// One mode's defaults. The command line overrides every axis but
/// `tests`; an option the mode never reads is refused in `main`.
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
    /// Write summaries to `results/campaign/`, under the working
    /// directory, when `--out` is absent.
    summaries: bool,
}

const SMOKE: Preset = Preset {
    name: "smoke",
    tests: &[TestKind::T1],
    duration: 8.0,
    seeds: &[7, 21],
    k_values: &[2, 4],
    intensities: &[0.0],
    threads: Some(2),
    summaries: false,
};

const FAULTS: Preset = Preset {
    name: "faults",
    tests: &[TestKind::T1],
    duration: 45.0,
    seeds: &[7, 21, 42],
    k_values: &[2],
    intensities: &[0.0, 0.25, 0.5, 0.75, 1.0],
    threads: None,
    summaries: false,
};

const FAULTS_SMOKE: Preset = Preset {
    duration: 12.0,
    seeds: &[7],
    k_values: &[2],
    intensities: &[0.0, 1.0],
    threads: Some(2),
    ..FAULTS
};

const TABLES: Preset = Preset {
    name: "tables",
    tests: &TestKind::ALL,
    duration: 90.0,
    seeds: &[7, 21, 42, 77, 99],
    k_values: &[2, 3, 4, 5, 8],
    intensities: &[0.0],
    threads: None,
    summaries: true,
};

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_none_or(|a| a.starts_with("--")) {
        raw.insert(0, "run".to_string());
    }
    let args = Args::parse(raw, FLAGS, VALUED).unwrap_or_else(|e| usage_error(e.to_string()));
    if args.command != "run" {
        // Catch e.g. `campaign smoke` (meaning `--smoke`) before it
        // silently runs the full 50-session sweep instead.
        let options: Vec<String> = FLAGS
            .iter()
            .chain(VALUED)
            .map(|o| format!("--{o}"))
            .collect();
        let (cmd, options) = (&args.command, options.join(", "));
        usage_error(format!(
            "unexpected argument '{cmd}' — this binary takes options only ({options})"
        ));
    }
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
        usage_error(format!("--{key} is not read in {mode} mode"));
    }
    // Each intensity is one cell of the suite, whose domain is [0, 1]:
    // anything above clamps onto the 1.0 cell and anything else runs the
    // baseline, under labels that claim otherwise.
    let outside = |v: &&str| v.parse::<f64>().is_ok_and(|i| !(0.0..=1.0).contains(&i));
    let intensities = args.options.get("intensity").map_or("", String::as_str);
    if let Some(bad) = intensities.split(',').map(str::trim).find(outside) {
        usage_error(format!("--intensity {bad} is outside [0, 1]"));
    }
    // A K_max the QA controller refuses would panic every worker that
    // builds a cell with it; refuse it here with the controller's reason.
    let kmax = args.options.get("kmax").map_or("", String::as_str);
    for k in kmax.split(',').filter_map(|v| v.trim().parse::<u32>().ok()) {
        if let Err(e) = ScenarioConfig::t1(k, 0.0, 0).qa.validated() {
            usage_error(format!("--kmax {k}: {e}"));
        }
    }
    let obs_dir = args.options.get("obs").map(std::path::Path::new);
    laqa_obs::set_enabled(obs_dir.is_some());
    laqa_obs::flight::set_enabled(obs_dir.is_some());
    let result =
        run(&args, preset).and_then(|sweep| obs_dir.map_or(Ok(()), |dir| export_obs(dir, &sweep)));
    if let Err(e) = result {
        // A list naming one value twice is a usage error like the ones
        // above; anything else failed at run time.
        let repeated = matches!(e.downcast_ref(), Some(ArgError::RepeatedValue { .. }));
        eprintln!("error: {e}");
        std::process::exit(if repeated { 2 } else { 1 });
    }
}

/// Refuse a command line the binary cannot honour: exit 2, run nothing.
fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Write the sweep's obs snapshot to `dir` (`metrics.json`) plus its
/// flight-recorder trace (`flight.json`).
fn export_obs(dir: &std::path::Path, sweep: &CampaignResult) -> Result<(), AnyError> {
    let (snap, shown) = (laqa_obs::snapshot(), dir.display());
    snap.write_dir(dir)?;
    let (counters, histograms) = (snap.counters.len(), snap.histograms.len());
    println!(
        "obs: wrote snapshot to {shown} ({counters} counters, {histograms} histograms) — \
         render with `laqa obs-report --dir {shown}`"
    );
    let flight = sweep.flight();
    if !flight.records.is_empty() {
        std::fs::write(dir.join("flight.json"), flight.to_json().to_compact())?;
        let (records, tracks) = (flight.records.len(), flight.session_ids().len());
        println!(
            "obs: wrote flight.json ({records} records on {tracks} tracks) — \
             convert with `laqa obs-trace --dir {shown}`"
        );
    }
    Ok(())
}

type AnyError = Box<dyn std::error::Error>;

/// Run `preset` over the command line's axes: the grid and its tables,
/// the replay check, and the summaries on disk. Returns the sweep.
fn run(args: &Args, preset: &Preset) -> Result<CampaignResult, AnyError> {
    let host = || std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let threads: usize = args.get("threads", preset.threads.unwrap_or_else(host))?;
    let duration: f64 = args.get("duration", preset.duration)?;
    if !(duration.is_finite() && duration > 0.0) {
        // A NaN, zero or negative duration runs sessions with no events.
        usage_error(format!("--duration must be finite and > 0, got {duration}"));
    }
    let seeds: Vec<u64> = args.get_list("seeds", preset.seeds)?;
    let k_values: Vec<u32> = args.get_list("kmax", preset.k_values)?;
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
        "faults" => println!(
            "faults_suite: {n} sessions ({duration:.0}s each) on {threads} threads, \
             intensities {intensities:?}"
        ),
        "tables" => {
            println!("running {n} sessions ({duration:.0}s simulated each) on {threads} threads...")
        }
        _ => {}
    }
    let result = run_campaign(&spec, threads);
    println!("{}", result.table());
    match preset.name {
        "faults" => {
            let by = |s: &SessionSpec, i: f64| s.fault_intensity.unwrap_or(0.0) == i;
            let label = |i: f64| format!("{i:.2}");
            println!("{}", BY_INTENSITY.render(&result, &intensities, label, by));
        }
        "tables" => print_tables(&result, &transports, &k_values),
        _ => {}
    }
    if transports.len() > 1 {
        let by = |s: &SessionSpec, t: Transport| s.transport == t;
        println!(
            "{}",
            BY_TRANSPORT.render(&result, &transports, |t| t.label().into(), by)
        );
    }
    if !traces.is_empty() {
        let by = |s: &SessionSpec, t: TraceKind| s.trace == Some(t);
        println!(
            "{}",
            BY_TRACE.render(&result, &traces, |t| t.label().into(), by)
        );
    }
    // The sweep must reproduce bit-identically on another thread count.
    // Obs is off for the replay, so `--obs` describes the sweep once.
    laqa_obs::set_enabled(false);
    laqa_obs::flight::set_enabled(false);
    let (fp, on, wall) = (result.fingerprint(), result.threads, result.wall_secs);
    let replay = run_campaign(&spec, if on == 1 { 2 } else { 1 });
    let (replay_fp, replay_on) = (replay.fingerprint(), replay.threads);
    if replay_fp != fp {
        return Err(format!(
            "NON-DETERMINISM: fingerprint {replay_fp:016x} with {replay_on} threads vs \
             {fp:016x} with {on}"
        )
        .into());
    }
    println!(
        "replay check: {n} sessions, fingerprint {fp:016x} identical at {on} and \
         {replay_on} threads"
    );

    let out = args.options.get("out").map(String::as_str);
    if let Some(dir) = out.or(preset.summaries.then_some("results/campaign")) {
        let dir = std::path::Path::new(dir);
        for summary in result.summaries() {
            let name = summary.experiment.replace('/', "_");
            summary.write_json(dir.join(format!("{name}.json")))?;
        }
        print!("wrote {n} summaries to {}", dir.display());
        match preset.name {
            "tables" => println!(" (campaign fingerprint {fp:016x}, {wall:.1}s wall)"),
            _ => println!(),
        }
    }
    if preset.name != "tables" {
        println!("{} ok: {n} sessions in {wall:.2}s", preset.name);
    }
    Ok(result)
}

/// Tables 1 and 2 (mean over each test × `K_max` cell's seeds). With
/// several transports each gets its own pair (a cross-transport mean
/// would compare nothing meaningful); one transport keeps the exact
/// titles the paper uses.
fn print_tables(result: &CampaignResult, transports: &[Transport], k_values: &[u32]) {
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
        println!("{}", t1.render());
        println!("{}", t2.render());
    }
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
