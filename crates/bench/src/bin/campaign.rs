//! `campaign` — parallel sweep driver over the paper's T1/T2 workloads.
//!
//! Derives Tables 1 and 2 as one multi-threaded campaign (the repo's only
//! regenerator for them) and doubles as the determinism harness: every
//! mode cross-checks the campaign fingerprint across thread counts and
//! fails loudly on any divergence.
//!
//! ```text
//! campaign                 # full Table 1+2 sweep (50 sessions, 90 s each)
//!                          # + replay check on another thread count
//! campaign --smoke         # seconds-long sweep + 1-vs-2-thread replay check
//! campaign --faults        # fault-injection intensity sweep (recovery time,
//!                          # layer-change rate, base-layer starvation)
//! campaign --faults --smoke  # seconds-long fault sweep + replay check
//! options: --duration S  --kmax 2,3,4  --seeds 7,21
//!          --threads N  --out DIR   # every mode but plain --smoke (2 threads
//!                         # checked against 1, nothing written)
//!          --intensity 0,0.5,1   # fault-suite intensities in [0, 1] (--faults only)
//!          --transport rap,bbr,nada,tcp  # QA-flow congestion controllers:
//!                         # every selected transport runs the full grid,
//!                         # turning the sweep into the QA × transport
//!                         # interop matrix (default rap only)
//!          --trace lte,bloat,diurnal,bonded  # hostile-network (TraceLink)
//!                         # axis: every selected trace family runs the full
//!                         # grid on a schedule-driven bottleneck (LTE-style
//!                         # capacity swings, on-off bufferbloat with a deep
//!                         # standing buffer, diurnal ramps, or a bonded
//!                         # two-path bottleneck). Composes with --transport
//!                         # and --faults (default: steady links)
//!          --obs DIR      # enable laqa-obs + the flight recorder and
//!                         # export snapshot + flight trace to DIR
//! ```
//!
//! `--obs` turns the workspace-wide instrumentation (and the flight
//! recorder) on for the run and writes `metrics.json` and
//! `flight.json` to DIR afterwards (render with
//! `laqa obs-report --dir DIR`, convert the flight trace with
//! `laqa obs-trace --dir DIR`). Observability is inert: fingerprints are
//! bit-identical with and without it.

use laqa_bench::cli::Args;
use laqa_bench::outdir;
use laqa_sim::{
    run_campaign, CampaignResult, CampaignSpec, ScenarioConfig, SessionResult, TestKind,
    TraceKind, Transport,
};
use laqa_trace::{pct, Table};

/// Parse `--transport rap,bbr,nada,tcp` (default: RAP only).
fn parse_transports(args: &Args) -> Result<Vec<Transport>, AnyError> {
    Ok(args.get_list("transport", &[Transport::Rap])?)
}

/// Parse `--trace lte,bloat,diurnal,bonded` (default: no trace axis —
/// steady links, byte-identical to the historical sweeps).
fn parse_traces(args: &Args) -> Result<Vec<TraceKind>, AnyError> {
    Ok(args.get_list("trace", &[])?)
}

/// Expand a sweep across the selected transports: every session of the
/// base grid runs once per transport, transport-major so each
/// controller's cells stay contiguous in the output table. A plain
/// `[Rap]` selection returns the grid untouched (byte-identical labels
/// and fingerprints to the pre-interop sweeps).
fn expand_transports(mut spec: CampaignSpec, transports: &[Transport]) -> CampaignSpec {
    if transports == [Transport::Rap] {
        return spec;
    }
    let base = std::mem::take(&mut spec.sessions);
    spec.sessions = transports
        .iter()
        .flat_map(|&transport| {
            base.iter().cloned().map(move |mut s| {
                s.transport = transport;
                s
            })
        })
        .collect();
    spec
}

/// Expand a sweep across the selected trace families, trace-major (each
/// family's cells stay contiguous, mirroring [`expand_transports`]). An
/// empty selection returns the grid untouched — steady links, with the
/// historical labels and fingerprints.
fn expand_traces(mut spec: CampaignSpec, traces: &[TraceKind]) -> CampaignSpec {
    if traces.is_empty() {
        return spec;
    }
    let base = std::mem::take(&mut spec.sessions);
    spec.sessions = traces
        .iter()
        .flat_map(|&trace| {
            base.iter().cloned().map(move |mut s| {
                s.trace = Some(trace);
                s
            })
        })
        .collect();
    spec
}

/// Per-trace-family hostile summary: how fast quality recovers after the
/// link turns on the session, and what the damage cost — recovery time,
/// base-layer starvation, discarded bytes — plus the trace activity
/// itself (schedule points applied, second-leg bytes on bonded cells).
fn hostile_table(result: &CampaignResult, traces: &[TraceKind]) -> String {
    let mut tbl = Table::new(
        "hostile grid: QA damage by trace family (mean over cells)",
        &[
            "trace", "chg/s", "recovery", "starved B", "discarded B", "stalls", "trace pts",
            "bond B",
        ],
    );
    for &t in traces {
        let cells: Vec<&SessionResult> = result
            .sessions
            .iter()
            .filter(|s| s.spec.trace == Some(t))
            .collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&SessionResult) -> f64| cells.iter().map(|s| f(s)).sum::<f64>() / n;
        let recoveries: Vec<f64> = cells.iter().filter_map(|s| s.recovery_secs_mean).collect();
        let recovery = if recoveries.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.2}s",
                recoveries.iter().sum::<f64>() / recoveries.len() as f64
            )
        };
        let bond: Vec<u64> = cells.iter().filter_map(|s| s.bond_leg_bytes).collect();
        let bond = if bond.is_empty() {
            "-".to_string()
        } else {
            format!("{:.0}", bond.iter().sum::<u64>() as f64 / bond.len() as f64)
        };
        tbl.row(vec![
            t.label().to_string(),
            format!("{:.3}", mean(&|s| s.layer_change_rate)),
            recovery,
            format!("{:.0}", mean(&|s| s.base_starved_bytes)),
            format!("{:.0}", mean(&|s| s.discarded_bytes)),
            format!("{:.1}", mean(&|s| s.stalls as f64)),
            format!("{:.0}", mean(&|s| s.trace_changes as f64)),
            bond,
        ]);
    }
    tbl.render()
}

/// Per-transport interop summary: the hardening metrics the QA ×
/// transport matrix is judged on (recovery time after drops, layer-change
/// rate, base-layer starvation), one row per transport.
fn interop_table(result: &CampaignResult, transports: &[Transport]) -> String {
    let mut tbl = Table::new(
        "interop matrix: QA metrics by transport (mean over cells)",
        &[
            "transport", "eff", "chg/s", "recovery", "starved B", "stalls", "backoffs",
            "underflows",
        ],
    );
    for &t in transports {
        let cells: Vec<&SessionResult> = result
            .sessions
            .iter()
            .filter(|s| s.spec.transport == t)
            .collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&SessionResult) -> f64| cells.iter().map(|s| f(s)).sum::<f64>() / n;
        let effs: Vec<f64> = cells.iter().filter_map(|s| s.efficiency).collect();
        let eff = if effs.is_empty() {
            "-".to_string()
        } else {
            format!("{:.4}", effs.iter().sum::<f64>() / effs.len() as f64)
        };
        let recoveries: Vec<f64> = cells.iter().filter_map(|s| s.recovery_secs_mean).collect();
        let recovery = if recoveries.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.2}s",
                recoveries.iter().sum::<f64>() / recoveries.len() as f64
            )
        };
        tbl.row(vec![
            t.label().to_string(),
            eff,
            format!("{:.3}", mean(&|s| s.layer_change_rate)),
            recovery,
            format!("{:.0}", mean(&|s| s.base_starved_bytes)),
            format!("{:.1}", mean(&|s| s.stalls as f64)),
            format!("{:.1}", mean(&|s| s.backoffs as f64)),
            format!("{:.1}", mean(&|s| s.rx_underflows as f64)),
        ]);
    }
    tbl.render()
}

/// Every option this binary takes (see the module docs): mode flags,
/// then the options that carry a value.
const FLAGS: &[&str] = &["smoke", "faults"];
const VALUED: &[&str] = &[
    "threads", "duration", "kmax", "seeds", "intensity", "transport", "trace", "out", "obs",
];

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_none_or(|a| a.starts_with("--")) {
        raw.insert(0, "run".to_string());
    }
    let args = match Args::parse(raw, FLAGS, VALUED) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.command != "run" {
        // Catch e.g. `campaign smoke` (meaning `--smoke`) before it
        // silently runs the full 50-session sweep instead.
        eprintln!(
            "error: unexpected argument '{}' — this binary takes options only \
             (--smoke, --faults, --threads N, --duration S, --kmax a,b, \
             --seeds a,b, --intensity a,b, --transport rap,bbr,nada,tcp, \
             --trace lte,bloat,diurnal,bonded, --out DIR, --obs DIR)",
            args.command
        );
        std::process::exit(2);
    }
    // An option the selected mode never reads is a usage error, not a
    // silent fallback: `--smoke` alone always checks 2 threads against 1
    // and writes no summaries, and only `--faults` sweeps intensities.
    let (faults, smoke) = (args.flag("faults"), args.flag("smoke"));
    let (mode, unread): (&str, &[&str]) = match (faults, smoke) {
        (true, _) => ("--faults", &[]),
        (false, true) => ("--smoke", &["threads", "out", "intensity"]),
        (false, false) => ("the default Table 1+2", &["intensity"]),
    };
    if let Some(key) = unread.iter().find(|k| args.options.contains_key(**k)) {
        eprintln!("error: --{key} is not read in {mode} mode");
        std::process::exit(2);
    }
    // Each intensity is one cell of the suite, whose domain is [0, 1]:
    // anything above clamps onto the 1.0 cell and anything else runs the
    // baseline, under labels that claim otherwise.
    let outside = |v: &&str| v.parse::<f64>().is_ok_and(|i| !(0.0..=1.0).contains(&i));
    let intensities = args.options.get("intensity").map_or("", String::as_str);
    if let Some(bad) = intensities.split(',').map(str::trim).find(outside) {
        eprintln!("error: --intensity {bad} is outside [0, 1]");
        std::process::exit(2);
    }
    // A K_max the QA controller refuses would panic every worker that
    // builds a cell with it; refuse it here with the controller's reason.
    let kmax = args.options.get("kmax").map_or("", String::as_str);
    for k in kmax.split(',').filter_map(|v| v.trim().parse::<u32>().ok()) {
        if let Err(e) = ScenarioConfig::t1(k, 0.0, 0).qa.validated() {
            eprintln!("error: --kmax {k}: {e}");
            std::process::exit(2);
        }
    }
    let obs_dir = args.options.get("obs").map(std::path::PathBuf::from);
    if obs_dir.is_some() {
        laqa_obs::set_enabled(true);
        laqa_obs::flight::set_enabled(true);
    }
    let result = if faults {
        cmd_faults(&args)
    } else if smoke {
        cmd_smoke(&args)
    } else {
        cmd_tables(&args)
    };
    let result = result.and_then(|()| match &obs_dir {
        Some(dir) => export_obs(dir),
        None => Ok(()),
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Write the accumulated obs snapshot to `dir` (`metrics.json`) plus
/// the flight-recorder trace (`flight.json`).
fn export_obs(dir: &std::path::Path) -> Result<(), AnyError> {
    laqa_obs::set_enabled(false);
    laqa_obs::flight::set_enabled(false);
    let snap = laqa_obs::snapshot();
    snap.write_dir(dir)?;
    println!(
        "obs: wrote snapshot to {} ({} counters, {} histograms) — \
         render with `laqa obs-report --dir {}`",
        dir.display(),
        snap.counters.len(),
        snap.histograms.len(),
        dir.display(),
    );
    let flight = laqa_obs::flight::snapshot_flight();
    if !flight.records.is_empty() {
        std::fs::write(dir.join("flight.json"), flight.to_json().to_compact())?;
        println!(
            "obs: wrote flight.json ({} records on {} tracks, {} evicted) — \
             convert with `laqa obs-trace --dir {}`",
            flight.records.len(),
            flight.session_ids().len(),
            flight.evicted,
            dir.display(),
        );
        if flight.evicted > 0 {
            eprintln!(
                "warning: the flight recorder evicted {} records — the timeline is \
                 truncated; re-run with a larger LAQA_OBS_FLIGHT_RING to keep them",
                flight.evicted
            );
        }
    }
    Ok(())
}

type AnyError = Box<dyn std::error::Error>;

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Assert the sweep reproduces bit-identically on a different thread
/// count: 2 when `reference` ran on 1, else 1.
fn check_replay(spec: &CampaignSpec, reference: &CampaignResult) -> Result<(), AnyError> {
    let replay = run_campaign(spec, if reference.threads == 1 { 2 } else { 1 });
    if replay.fingerprint() != reference.fingerprint() {
        return Err(format!(
            "NON-DETERMINISM: fingerprint {:016x} with {} threads vs {:016x} with {}",
            replay.fingerprint(),
            replay.threads,
            reference.fingerprint(),
            reference.threads,
        )
        .into());
    }
    println!(
        "replay check: {} sessions, fingerprint {:016x} identical at {} and {} threads",
        spec.len(),
        reference.fingerprint(),
        reference.threads,
        replay.threads,
    );
    Ok(())
}

/// Seconds-long sweep with a cross-thread replay check.
fn cmd_smoke(args: &Args) -> Result<(), AnyError> {
    let duration: f64 = args.get("duration", 8.0)?;
    let transports = parse_transports(args)?;
    let traces = parse_traces(args)?;
    let k_values: Vec<u32> = args.get_list("kmax", &[2, 4])?;
    let seeds: Vec<u64> = args.get_list("seeds", &[7, 21])?;
    let spec = expand_traces(
        expand_transports(
            CampaignSpec::grid(&[TestKind::T1], &k_values, &seeds, duration),
            &transports,
        ),
        &traces,
    );
    let result = run_campaign(&spec, 2);
    println!("{}", result.table());
    if transports.len() > 1 {
        println!("{}", interop_table(&result, &transports));
    }
    if !traces.is_empty() {
        println!("{}", hostile_table(&result, &traces));
    }
    check_replay(&spec, &result)?;
    println!("smoke ok: {} sessions in {:.2}s", spec.len(), result.wall_secs);
    Ok(())
}

/// Fault-injection intensity sweep: the `faults_suite` campaign. Reports
/// the hardening metrics (recovery time after drops, layer-change rate,
/// base-layer starvation) per intensity and cross-checks determinism the
/// same way every other mode does.
fn cmd_faults(args: &Args) -> Result<(), AnyError> {
    let smoke = args.flag("smoke");
    let threads: usize = args.get("threads", if smoke { 2 } else { default_threads() })?;
    let duration: f64 = args.get("duration", if smoke { 12.0 } else { 45.0 })?;
    let default_intensities: &[f64] = if smoke {
        &[0.0, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let intensities: Vec<f64> = args.get_list("intensity", default_intensities)?;
    let default_seeds: &[u64] = if smoke { &[7] } else { &[7, 21, 42] };
    let seeds: Vec<u64> = args.get_list("seeds", default_seeds)?;
    let k_values: Vec<u32> = args.get_list("kmax", &[2])?;
    let transports = parse_transports(args)?;
    let traces = parse_traces(args)?;
    let spec = expand_traces(
        expand_transports(
            CampaignSpec::faults_grid(&[TestKind::T1], &k_values, &intensities, &seeds, duration),
            &transports,
        ),
        &traces,
    );
    println!(
        "faults_suite: {} sessions ({duration:.0}s each) on {threads} threads, \
         intensities {intensities:?}",
        spec.len()
    );
    let result = run_campaign(&spec, threads);
    println!("{}", result.table());

    let mut tbl = Table::new(
        "fault suite: stability vs intensity (mean over seeds)",
        &["intensity", "chg/s", "recovery", "starved B", "stalls", "drops"],
    );
    for &i in &intensities {
        let cells: Vec<&SessionResult> = result
            .sessions
            .iter()
            .filter(|s| s.spec.fault_intensity.unwrap_or(0.0) == i)
            .collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&SessionResult) -> f64| -> f64 {
            cells.iter().map(|s| f(s)).sum::<f64>() / n
        };
        let recoveries: Vec<f64> = cells.iter().filter_map(|s| s.recovery_secs_mean).collect();
        let recovery = if recoveries.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.2}s",
                recoveries.iter().sum::<f64>() / recoveries.len() as f64
            )
        };
        tbl.row(vec![
            format!("{i:.2}"),
            format!("{:.3}", mean(&|s| s.layer_change_rate)),
            recovery,
            format!("{:.0}", mean(&|s| s.base_starved_bytes)),
            format!("{:.1}", mean(&|s| s.stalls as f64)),
            format!("{:.1}", mean(&|s| s.drops as f64)),
        ]);
    }
    println!("{}", tbl.render());
    if transports.len() > 1 {
        println!("{}", interop_table(&result, &transports));
    }
    if !traces.is_empty() {
        println!("{}", hostile_table(&result, &traces));
    }
    check_replay(&spec, &result)?;

    if let Some(dir) = args.options.get("out") {
        let dir = std::path::PathBuf::from(dir);
        for summary in result.summaries() {
            let name = summary.experiment.replace('/', "_");
            summary.write_json(dir.join(format!("{name}.json")))?;
        }
        println!("wrote {} summaries to {}", result.sessions.len(), dir.display());
    }
    println!(
        "faults ok: {} sessions in {:.2}s",
        spec.len(),
        result.wall_secs
    );
    Ok(())
}

/// The full Table 1 + Table 2 sweep as one campaign.
fn cmd_tables(args: &Args) -> Result<(), AnyError> {
    let threads: usize = args.get("threads", default_threads())?;
    let duration: f64 = args.get("duration", 90.0)?;
    let seeds: Vec<u64> = args.get_list("seeds", &[7, 21, 42, 77, 99])?;
    let k_values: Vec<u32> = args.get_list("kmax", &[2, 3, 4, 5, 8])?;
    let transports = parse_transports(args)?;
    let traces = parse_traces(args)?;
    let spec = expand_traces(
        expand_transports(
            CampaignSpec::grid(&TestKind::ALL, &k_values, &seeds, duration),
            &transports,
        ),
        &traces,
    );
    println!(
        "running {} sessions ({duration:.0}s simulated each) on {threads} threads...",
        spec.len()
    );
    let result = run_campaign(&spec, threads);
    println!("{}", result.table());

    let headers: Vec<String> = k_values.iter().map(|k| format!("K_max={k}")).collect();
    let mut header_refs: Vec<&str> = vec!["test"];
    header_refs.extend(headers.iter().map(String::as_str));

    // With several transports each gets its own Table 1/2 pair (a
    // cross-transport mean would compare nothing meaningful); the plain
    // RAP sweep keeps the exact titles the paper uses.
    let print_tables = |sub: &CampaignResult, suffix: &str| {
        let mut t1 = Table::new(
            &*format!("Table 1{suffix}: buffering efficiency e (mean over drop events)"),
            &header_refs,
        );
        for &test in &TestKind::ALL {
            let mut row = vec![test.label().to_string()];
            for &k in &k_values {
                row.push(pct(sub.mean_metric(test, k, |s| s.efficiency)));
            }
            t1.row(row);
        }
        println!("{}", t1.render());

        let mut t2 = Table::new(
            &*format!("Table 2{suffix}: avoidable drops / quality changes (mean per run)"),
            &header_refs,
        );
        for &test in &TestKind::ALL {
            let mut row = vec![test.label().to_string()];
            for &k in &k_values {
                let avoid = pct(sub.mean_metric(test, k, |s| s.avoidable_drops));
                let changes = sub.mean_metric(test, k, |s| Some(s.quality_changes as f64));
                row.push(format!("{avoid} / {:.1}", changes.unwrap_or(0.0)));
            }
            t2.row(row);
        }
        println!("{}", t2.render());
    };
    if transports.len() > 1 {
        for &t in &transports {
            let sub = CampaignResult {
                sessions: result
                    .sessions
                    .iter()
                    .filter(|s| s.spec.transport == t)
                    .cloned()
                    .collect(),
                threads: result.threads,
                wall_secs: 0.0,
                merge_secs: 0.0,
            };
            print_tables(&sub, &format!(" [{}]", t.label()));
        }
        println!("{}", interop_table(&result, &transports));
    } else {
        print_tables(&result, "");
    }
    if !traces.is_empty() {
        println!("{}", hostile_table(&result, &traces));
    }
    check_replay(&spec, &result)?;

    let dir = match args.options.get("out") {
        Some(d) => std::path::PathBuf::from(d),
        None => outdir("campaign"),
    };
    for summary in result.summaries() {
        let name = summary.experiment.replace('/', "_");
        summary.write_json(dir.join(format!("{name}.json")))?;
    }
    println!(
        "wrote {} summaries to {} (campaign fingerprint {:016x}, {:.1}s wall)",
        result.sessions.len(),
        dir.display(),
        result.fingerprint(),
        result.wall_secs,
    );
    Ok(())
}
