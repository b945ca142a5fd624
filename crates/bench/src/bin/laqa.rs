//! `laqa` — command-line driver for the quality-adaptation toolkit.
//!
//! ```text
//! laqa sim    [--test t1|t2] [--kmax N] [--duration S] [--seed N]
//!             [--red] [--loss P] [--retransmit N] [--csv DIR]
//! laqa states [--rate R] [--layers N] [--c C] [--slope S] [--kmax K]
//! laqa bands  [--deficit D] [--layers N] [--c C] [--slope S]
//!             [--exp-base B --exp-factor F]
//! laqa obs-report [--dir DIR]
//! laqa obs-trace  [--dir DIR] [--out FILE]
//! ```

use laqa_bench::cli::Args;
use laqa_bench::{ascii_plot, window_mean};
use laqa_core::geometry::band_allocation_into;
use laqa_core::nonlinear::{nl_band_allocation, LayerRates};
use laqa_core::StateSequence;
use laqa_sim::{run_scenario, QueueKind, RedConfig, ScenarioConfig};
use laqa_trace::{Recorder, Table};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Options per subcommand (the usage block above); anything else —
    // including every option of an unknown subcommand — is rejected.
    // `sim --red` is the only bare flag; the rest carry a value.
    let (flags, valued): (&[&str], &[&str]) = match raw.first().map(String::as_str) {
        Some("sim") => (
            &["red"],
            &[
                "test",
                "kmax",
                "duration",
                "seed",
                "loss",
                "retransmit",
                "csv",
            ],
        ),
        Some("states") => (&[], &["rate", "layers", "c", "slope", "kmax"]),
        Some("bands") => (
            &[],
            &["deficit", "layers", "c", "slope", "exp-base", "exp-factor"],
        ),
        Some("obs-report") => (&[], &["dir"]),
        Some("obs-trace") => (&[], &["dir", "out"]),
        _ => (&[], &[]),
    };
    let args = match Args::parse(raw, flags, valued) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "sim" => cmd_sim(&args),
        "states" => cmd_states(&args),
        "bands" => cmd_bands(&args),
        "obs-report" => cmd_obs_report(&args),
        "obs-trace" => cmd_obs_trace(&args),
        "help" | "--help" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("error: unknown subcommand '{other}'\n");
            usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "laqa — layered quality adaptation toolkit

subcommands:
  sim         run the paper's T1/T2 workload in the simulator
  states      print the monotone buffer-state path for an operating point
  bands       print the optimal per-layer buffer bands for a deficit
  obs-report  render an observability snapshot written by campaign --obs DIR
  obs-trace   convert a flight-recorder trace (flight.json in --obs DIR)
              to Chrome trace-event JSON for Perfetto / chrome://tracing"
    );
}

type AnyError = Box<dyn std::error::Error>;

/// A value its option cannot take is a usage error like any other: say
/// which option and exit 2 before anything runs.
fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `--key` (or `default`), which must be finite and `> 0` — or `>= 0`
/// when `zero_ok`.
fn positive(args: &Args, key: &str, default: f64, zero_ok: bool) -> Result<f64, AnyError> {
    let v: f64 = args.get(key, default)?;
    if !(v.is_finite() && (v > 0.0 || (zero_ok && v == 0.0))) {
        let bound = if zero_ok { ">= 0" } else { "> 0" };
        usage_error(format!("--{key} must be finite and {bound}, got {v}"));
    }
    Ok(v)
}

/// `--layers` (default 5): the base layer always exists.
fn layers(args: &Args) -> Result<usize, AnyError> {
    let n: usize = args.get("layers", 5)?;
    if n == 0 {
        usage_error("--layers must be >= 1".to_string());
    }
    Ok(n)
}

fn cmd_sim(args: &Args) -> Result<(), AnyError> {
    let test: String = args.get("test", "t1".to_string())?;
    let k_max: u32 = args.get("kmax", 2)?;
    let duration = positive(args, "duration", 40.0, false)?;
    let seed: u64 = args.get("seed", 7)?;
    let mut cfg = match test.as_str() {
        "t1" => ScenarioConfig::t1(k_max, duration, seed),
        "t2" => ScenarioConfig::t2(k_max, duration, seed),
        other => return Err(format!("unknown --test '{other}' (t1|t2)").into()),
    };
    if let Err(e) = cfg.qa.clone().validated() {
        usage_error(format!("--kmax {k_max}: {e}"));
    }
    if args.flag("red") {
        cfg.dumbbell.queue_kind = QueueKind::Red(RedConfig::for_queue(cfg.dumbbell.queue_packets));
    }
    let loss: f64 = args.get("loss", 0.0)?;
    if !(0.0..=1.0).contains(&loss) {
        usage_error(format!("--loss {loss} is outside [0, 1]"));
    }
    cfg.dumbbell.loss_rate = loss;
    cfg.retransmit_protect = args.get("retransmit", 0)?;

    println!(
        "running {test} for {duration:.0}s (K_max={k_max}, seed={seed}, {:?})...",
        cfg.dumbbell.queue_kind
    );
    let out = run_scenario(&cfg);
    println!("tx rate : {}", ascii_plot(&out.traces.tx_rate, 64));
    println!("layers  : {}", ascii_plot(&out.traces.n_active, 64));
    println!("queue   : {}", ascii_plot(&out.queue_trace, 64));
    println!();
    println!(
        "mean layers (steady) : {:.2}",
        window_mean(&out.traces.n_active, duration * 0.3, duration).unwrap_or(0.0)
    );
    println!("quality changes      : {}", out.metrics.quality_changes());
    println!("backoffs             : {}", out.backoffs);
    println!("efficiency           : {:?}", out.metrics.efficiency());
    println!("base stalls          : {}", out.metrics.stalls());
    println!("bottleneck drops     : {}", out.bottleneck.dropped);

    if let Some(dir) = args.options.get("csv") {
        let mut rec = Recorder::new();
        rec.insert(out.traces.tx_rate.clone());
        rec.insert(out.traces.n_active.clone());
        rec.insert(out.queue_trace.clone());
        for ts in &out.traces.buffer {
            rec.insert(ts.clone());
        }
        rec.write_csv_dir(dir)?;
        println!("wrote CSVs to {dir}");
    }
    Ok(())
}

/// Load the `metrics.json` written by `campaign --obs DIR` and print
/// it as aligned tables.
fn cmd_obs_report(args: &Args) -> Result<(), AnyError> {
    let dir: String = args.get("dir", "target/obs".to_string())?;
    let path = std::path::Path::new(&dir);
    let snap = laqa_obs::Snapshot::read_dir(path)
        .map_err(|e| format!("reading obs snapshot from {dir}: {e}"))?;
    print!("{}", snap.render());
    if snap.is_empty() {
        println!("(snapshot is empty — was the run executed with --obs and obs enabled?)");
    }
    Ok(())
}

/// Convert the `flight.json` flight-recorder trace written by
/// `campaign --obs DIR` into Chrome trace-event JSON, then re-parse and
/// validate the written file (span balance, one non-empty track per
/// session in `flight.json`) so a malformed or empty export fails loudly
/// (`crates/bench/tests/cli.rs` drives the round trip).
fn cmd_obs_trace(args: &Args) -> Result<(), AnyError> {
    let dir: String = args.get("dir", "target/obs".to_string())?;
    let out: String = args.get("out", format!("{dir}/trace.json"))?;
    let flight_path = std::path::Path::new(&dir).join("flight.json");
    let text = std::fs::read_to_string(&flight_path).map_err(|e| {
        format!(
            "reading {}: {e} (was the run executed with --obs so the flight recorder exported?)",
            flight_path.display()
        )
    })?;
    let raw = laqa_trace::parse_json(&text).map_err(|e| format!("parsing flight.json: {e}"))?;
    let trace = laqa_obs::FlightTrace::from_json(&raw)?;
    let chrome = trace.to_chrome();
    std::fs::write(&out, chrome.to_compact()).map_err(|e| format!("writing {out}: {e}"))?;

    // Validate what actually landed on disk, end to end.
    let back = laqa_trace::parse_json(&std::fs::read_to_string(&out)?)
        .map_err(|e| format!("re-parsing {out}: {e}"))?;
    let stats = laqa_trace::validate_chrome(&back).map_err(|e| format!("invalid export: {e}"))?;

    let mut tbl = Table::new("trace tracks", &["track", "events"]);
    for t in stats.tracks.values() {
        tbl.row(vec![t.name.clone(), t.events.to_string()]);
    }
    println!("{}", tbl.render());
    println!(
        "wrote {out}: {} events ({} spans, {} instants, {} counter samples) on {} tracks",
        stats.events,
        stats.spans,
        stats.instants,
        stats.counters,
        stats.tracks.len(),
    );
    let sessions = trace.session_ids().len();
    if sessions == 0 || stats.session_tracks() != sessions {
        return Err(format!(
            "export has {} non-empty session tracks for {sessions} sessions — \
             was the flight recorder enabled during the run?",
            stats.session_tracks()
        )
        .into());
    }
    Ok(())
}

fn cmd_states(args: &Args) -> Result<(), AnyError> {
    let rate = positive(args, "rate", 60_000.0, false)?;
    let n = layers(args)?;
    let c = positive(args, "c", 10_000.0, false)?;
    let slope = positive(args, "slope", 12_500.0, false)?;
    let k_max: u32 = args.get("kmax", 5)?;
    let seq = StateSequence::build(rate, n, c, slope, k_max);
    println!("k1 = {}", seq.k1);
    let mut headers = vec!["state".to_string(), "k".to_string(), "total".to_string()];
    for i in 0..n {
        headers.push(format!("L{i}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut tbl = Table::new("monotone buffer-state path", &header_refs);
    for st in &seq.states {
        let mut row = vec![
            format!("{}", st.scenario),
            st.k.to_string(),
            format!("{:.0}", st.total()),
        ];
        for i in 0..n {
            row.push(format!("{:.0}", st.per_layer[i]));
        }
        tbl.row(row);
    }
    println!("{}", tbl.render());
    Ok(())
}

fn cmd_bands(args: &Args) -> Result<(), AnyError> {
    let d0 = positive(args, "deficit", 25_000.0, true)?;
    let n = layers(args)?;
    let slope = positive(args, "slope", 12_500.0, false)?;
    // `--exp-base` selects the exponential spacing, which has no `--c`;
    // the linear one has no `--exp-factor`.
    let exponential = args.options.contains_key("exp-base");
    let (unread, branch) = if exponential {
        ("c", "with --exp-base")
    } else {
        ("exp-factor", "without --exp-base")
    };
    if args.options.contains_key(unread) {
        usage_error(format!("--{unread} is not read {branch}"));
    }
    let shares = if exponential {
        let exp_base = positive(args, "exp-base", 0.0, false)?;
        let factor = positive(args, "exp-factor", 2.0, false)?;
        let rates =
            LayerRates::exponential(n, exp_base, factor).ok_or("invalid exponential spacing")?;
        println!("layer rates: {:?}", rates.rates());
        nl_band_allocation(&rates, n, d0, slope)
    } else {
        let c = positive(args, "c", 10_000.0, false)?;
        let mut shares = Vec::new();
        band_allocation_into(d0, c, slope, n, &mut shares);
        shares
    };
    let total: f64 = shares.iter().sum();
    let mut tbl = Table::new(
        format!("optimal bands for deficit {d0:.0} B/s"),
        &["layer", "bytes", "% of total"],
    );
    for (i, &s) in shares.iter().enumerate() {
        tbl.row(vec![
            format!("L{i}"),
            format!("{s:.0}"),
            format!("{:.1}%", 100.0 * s / total.max(1e-9)),
        ]);
    }
    println!("{}", tbl.render());
    Ok(())
}
