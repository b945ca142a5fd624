//! Host stamp and process accounting read from `/proc`. Every output file
//! carries the stamp so numbers are never compared across hardware.

use std::process::Command;

use laqa_trace::JsonValue;

/// Worker threads the host offers (what `campaign.speedup_nproc` runs on).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `{nproc, cpu_model, rustc, git_commit}`; a field that cannot be read
/// (no `git` checkout, no `/proc`) says `unknown` rather than failing.
pub fn stamp() -> JsonValue {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    JsonValue::Obj(vec![
        ("nproc".to_string(), JsonValue::Num(nproc() as f64)),
        ("cpu_model".to_string(), JsonValue::Str(cpu)),
        (
            "rustc".to_string(),
            JsonValue::Str(first_line_of("rustc", &["--version"])),
        ),
        (
            "git_commit".to_string(),
            JsonValue::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 without `/proc`.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15 at the kernel's 100 Hz clock); 0 without `/proc`.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields count from
    // after its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}
