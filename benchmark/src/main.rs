//! `laqa-benchmark`: the repository's end-to-end and per-layer benchmark,
//! measured from outside the workspace. See `benchmark/README.md`.
//!
//! ```text
//! laqa-benchmark run [--seed N] [--workload NAME] [--passes N | --seconds S]
//!                    [--trace 0|1] [--smoke] [--out DIR]
//! laqa-benchmark compare DIR_A DIR_B
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child process
//! of its own (so peak RSS and lazy statics do not bleed from one to the
//! next). With `--workload` it runs that one in this process and ends its
//! standard output with the result line the driver reads.

mod alloc;
mod compare;
mod controllers;
mod host;
mod kernels;
mod metrics;
mod qa_fluid;
mod report;
mod run;
mod sim;
mod spans;
mod spec;
mod stack_loop;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{RunOpts, Trace};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed every documented number was taken at. A claim must also hold
/// on seed 4242, which nothing in this package was tuned on.
const DEFAULT_SEED: u64 = 1999;

const USAGE: &str = "usage:
  laqa-benchmark run [--seed N] [--workload tables|hostile|stack_loop|qa_fluid]
                     [--passes N | --seconds S] [--trace 0|1] [--smoke] [--out DIR]
  laqa-benchmark compare DIR_A DIR_B";

#[derive(Debug)]
struct RunArgs {
    opts: RunOpts,
    workload: Option<String>,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        opts: RunOpts {
            seed: DEFAULT_SEED,
            passes: None,
            seconds: None,
            trace: Trace::Both,
            smoke: false,
        },
        workload: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--workload" => parsed.workload = Some(value.clone()),
            "--passes" => parsed.opts.passes = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad());
                }
                parsed.opts.seconds = Some(secs);
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::Only,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if !workload::WORKLOADS.iter().any(|(n, _)| n == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(parsed)
}

/// One workload in this process. Returns whether its outputs were correct.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let report =
        run::run_workload(name, &args.opts).ok_or_else(|| format!("unknown workload {name:?}"))?;
    report::print_human(&report);
    report::write_files(&report, &args.opts, &args.out)
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    // Last line of standard output: what the driver parses.
    println!("{}", report::result_line(&report));
    Ok(report.correct())
}

/// Every workload, each in its own child process running `run --workload`.
fn run_all(raw_args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for (name, _) in workload::WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .args(raw_args)
            .args(["--workload", name])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    println!(
        "== all workloads {}",
        if all_correct {
            "correct"
        } else {
            "NOT all correct"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match &parsed.workload {
                Some(name) => run_one(name, &parsed),
                None => run_all(rest),
            })
        }
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare::compare(rest[0].as_ref(), rest[1].as_ref())
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("laqa-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_run(&args("--workload hostile --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("hostile"));
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.seconds, Some(20.0));
        assert_eq!(a.opts.trace, Trace::Only);
        assert!(!a.opts.smoke);
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let a = parse_run(&[]).unwrap();
        assert_eq!(a.opts.seed, DEFAULT_SEED);
        assert_eq!(a.opts.trace, Trace::Both);
        assert_eq!(a.out, PathBuf::from("benchmark/out"));
        assert!(a.workload.is_none() && a.opts.passes.is_none());
    }

    #[test]
    fn bad_arguments_are_named() {
        assert!(parse_run(&args("--workload nope"))
            .unwrap_err()
            .contains("nope"));
        assert!(parse_run(&args("--seed x")).unwrap_err().contains("--seed"));
        assert!(parse_run(&args("--trace 2"))
            .unwrap_err()
            .contains("--trace"));
        assert!(parse_run(&args("--seconds 0"))
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse_run(&args("--seed"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_run(&args("--frobnicate 1"))
            .unwrap_err()
            .contains("unknown flag"));
    }
}
