//! `laqa` — command-line driver for the quality-adaptation toolkit.
//!
//! ```text
//! laqa sim    [--test t1|t2] [--kmax N] [--duration S] [--seed N]
//!             [--red] [--loss P] [--csv DIR]
//! laqa states [--rate R] [--layers N] [--c C] [--slope S] [--kmax K]
//! laqa bands  [--deficit D] [--layers N] [--c C] [--slope S]
//! laqa campaign   [--smoke] [--faults] [--duration S] [--kmax LIST]
//!                 [--seeds LIST] [--threads N] [--intensity LIST]
//!                 [--transport LIST] [--trace LIST] [--out DIR] [--obs DIR]
//! laqa figures    [--only ID] [--out DIR] [--check]
//! ```
//!
//! A command line a subcommand cannot honour is an [`ArgError`]: `laqa`
//! prints it with the usage text and exits 2. Any other error exits 1.

use laqa_bench::campaign::{self, check_kmax};
use laqa_bench::cli::{ArgError, Args};
use laqa_bench::figures::{self, FIGURES};
use laqa_bench::{ascii_plot, window_mean};
use laqa_core::geometry::band_allocation_into;
use laqa_core::{StateSequence, MAX_LAYERS};
use laqa_sim::{run_scenario, QueueKind, RedConfig, ScenarioConfig};
use laqa_trace::{write_csvs, Table, TimeSeries};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [only] = raw.as_slice() {
        if ["help", "--help", "-h"].contains(&only.as_str()) {
            print!("{}", usage());
            return;
        }
    }
    // Options per subcommand (the usage block above); anything else —
    // including every option of an unknown subcommand — is rejected.
    let (flags, valued): (&[&str], &[&str]) = match raw.first().map(String::as_str) {
        Some("sim") => (
            &["red"],
            &["test", "kmax", "duration", "seed", "loss", "csv"],
        ),
        Some("states") => (&[], &["rate", "layers", "c", "slope", "kmax"]),
        Some("bands") => (&[], &["deficit", "layers", "c", "slope"]),
        Some("campaign") => (
            &["smoke", "faults"],
            &[
                "threads",
                "duration",
                "kmax",
                "seeds",
                "intensity",
                "transport",
                "trace",
                "out",
                "obs",
            ],
        ),
        Some("figures") => (&["check"], &["only", "out"]),
        _ => (&[], &[]),
    };
    let result = Args::parse(raw, flags, valued)
        .map_err(AnyError::from)
        .and_then(|args| match args.command.as_str() {
            "sim" => cmd_sim(&args),
            "states" => cmd_states(&args),
            "bands" => cmd_bands(&args),
            "campaign" => campaign::cmd(&args),
            "figures" => cmd_figures(&args),
            other => Err(usage_error(format!("unknown subcommand '{other}'"))),
        });
    if let Err(e) = result {
        eprintln!("error: {e}");
        if e.is::<ArgError>() {
            eprint!("\n{}", usage());
            std::process::exit(2);
        }
        std::process::exit(1);
    }
}

/// The usage text: `laqa help`, `--help` and `-h` print it and exit 0; a
/// usage error prints it after the error and exits 2.
fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    format!(
        "laqa — layered quality adaptation toolkit

subcommands:
  sim         run the paper's T1/T2 workload in the simulator
  states      print the monotone buffer-state path for an operating point
  bands       print the optimal per-layer buffer bands for a deficit
  campaign    sweep T1/T2 sessions in parallel and check the sweep replays
              bit-identically at another thread count; by default the
              paper's Tables 1-2 grid (--smoke: seconds-long; --faults:
              fault-intensity sweep, --intensity in [0, 1]); lists are
              comma-separated (--kmax 2,4 --transport rap,tcp --trace lte);
              --out DIR writes one summary per session, --obs DIR the
              counter report (report.txt) and the flight recorder's
              Chrome trace for Perfetto / chrome://tracing (trace.json)
  figures     regenerate the paper's figures, ablations and Tables 1-2: each
              report to DIR/ID.out and its CSV/JSON under DIR/ID/ (--out DIR,
              default results/); --check compares the reports with
              DIR/ID.out and their files with those under DIR/ID/
              instead, and writes nothing there
              --only ID, one of: {}
",
        ids.join(" ")
    )
}

type AnyError = Box<dyn std::error::Error>;

/// A command line the subcommand cannot honour, said in `msg`.
fn usage_error(msg: String) -> AnyError {
    ArgError::Usage(msg).into()
}

/// `--key` (or `default`), which must be finite and `> 0` — or `>= 0`
/// when `zero_ok`.
fn positive(args: &Args, key: &str, default: f64, zero_ok: bool) -> Result<f64, AnyError> {
    let v: f64 = args.get(key, default)?;
    if !(v.is_finite() && (v > 0.0 || (zero_ok && v == 0.0))) {
        let bound = if zero_ok { ">= 0" } else { "> 0" };
        return Err(usage_error(format!(
            "--{key} must be finite and {bound}, got {v}"
        )));
    }
    Ok(v)
}

/// `--layers` (default 5): the base layer always exists, and no encoding
/// has more than the controller's `MAX_LAYERS`.
fn layers(args: &Args) -> Result<usize, AnyError> {
    let n: usize = args.get("layers", 5)?;
    if !(1..=MAX_LAYERS).contains(&n) {
        return Err(usage_error(format!(
            "--layers must be >= 1 and <= {MAX_LAYERS}, got {n}"
        )));
    }
    Ok(n)
}

/// `laqa figures`: every figure, or the one `--only` names, written to
/// `--out` or checked against it.
fn cmd_figures(args: &Args) -> Result<(), AnyError> {
    let selected = match args.options.get("only") {
        None => &FIGURES[..],
        Some(only) => match FIGURES.iter().position(|&(id, _)| id == only) {
            Some(i) => &FIGURES[i..=i],
            None => return Err(usage_error(format!("unknown figure '{only}'"))),
        },
    };
    let out: std::path::PathBuf = args.get("out", "results".into())?;
    if args.flag("check") {
        figures::check(selected, &out)
    } else {
        figures::write(selected, &out)
    }
}

fn cmd_sim(args: &Args) -> Result<(), AnyError> {
    let test: String = args.get("test", "t1".to_string())?;
    let k_max: u32 = args.get("kmax", 2)?;
    let duration = positive(args, "duration", 40.0, false)?;
    let seed: u64 = args.get("seed", 7)?;
    let mut cfg = match test.as_str() {
        "t1" => ScenarioConfig::t1(k_max, duration, seed),
        "t2" => ScenarioConfig::t2(k_max, duration, seed),
        other => return Err(usage_error(format!("unknown --test '{other}' (t1|t2)"))),
    };
    check_kmax(k_max)?;
    if args.flag("red") {
        cfg.dumbbell.queue_kind = QueueKind::Red(RedConfig::for_queue(cfg.dumbbell.queue_packets));
    }
    let loss: f64 = args.get("loss", 0.0)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(usage_error(format!("--loss {loss} is outside [0, 1]")));
    }
    cfg.dumbbell.loss_rate = loss;

    println!(
        "running {test} for {duration:.0}s (K_max={k_max}, seed={seed}, {:?})...",
        cfg.dumbbell.queue_kind
    );
    let out = run_scenario(&cfg);
    let (tx_rate, n_active) = (&out.traces.tx_rate, &out.traces.n_active);
    println!("tx rate : {}", ascii_plot(tx_rate, 64));
    println!("layers  : {}", ascii_plot(n_active, 64));
    println!("queue   : {}", ascii_plot(&out.queue_trace, 64));
    println!();
    println!(
        "mean layers (steady) : {:.2}",
        window_mean(n_active, duration * 0.3, duration).unwrap_or(0.0)
    );
    println!("quality changes      : {}", out.metrics.quality_changes());
    println!("backoffs             : {}", out.backoffs);
    println!("efficiency           : {:?}", out.metrics.efficiency());
    println!("base stalls          : {}", out.metrics.stalls());
    println!("bottleneck drops     : {}", out.bottleneck.dropped);

    if let Some(dir) = args.options.get("csv") {
        let traces = out.traces;
        let ticks = [traces.tx_rate, traces.n_active, out.queue_trace];
        let series: Vec<TimeSeries> = ticks.into_iter().chain(traces.buffer).collect();
        write_csvs(dir, &series)?;
        println!("wrote CSVs to {dir}");
    }
    Ok(())
}

fn cmd_states(args: &Args) -> Result<(), AnyError> {
    let rate = positive(args, "rate", 60_000.0, false)?;
    let n = layers(args)?;
    let c = positive(args, "c", 10_000.0, false)?;
    let slope = positive(args, "slope", 12_500.0, false)?;
    let k_max: u32 = args.get("kmax", 5)?;
    check_kmax(k_max)?;
    let mut seq = StateSequence::build(rate, n, c, slope, k_max);
    println!("k1 = {}", seq.k1);
    let mut headers = vec!["state".to_string(), "k".to_string(), "total".to_string()];
    for i in 0..n {
        headers.push(format!("L{i}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut tbl = Table::new("monotone buffer-state path", &header_refs);
    for st in seq.path().iter() {
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
    let c = positive(args, "c", 10_000.0, false)?;
    let mut shares = Vec::new();
    band_allocation_into(d0, c, slope, n, &mut shares);
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
