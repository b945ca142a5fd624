//! The paper's figures and the ablations, one function each, and the
//! driver `laqa figures` runs them with.
//!
//! A figure prints its report to a writer, writes its CSVs under its
//! directory and returns its run summaries. The driver does the rest
//! once: it makes `<out>/<id>/`, writes the summaries there, and saves
//! the report with a trailing `wrote <out>/<id>` line as `<out>/<id>.out`
//! — or, in check mode, runs into a scratch directory and compares the
//! report with the committed `<out>/<id>.out` and every file it wrote
//! with the committed one under `<out>/<id>/`.

use laqa_trace::{RunSummary, Table};
use std::error::Error;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

mod ablations;
mod extensions;
mod paper;

/// A figure: prints its report to the writer, writes its CSVs under the
/// directory (which exists) and returns its run summaries, which the
/// driver writes there (see `write_summaries`).
pub type FigureFn = fn(&Path, &mut dyn Write) -> io::Result<Vec<RunSummary>>;

/// Every figure by id, in the order `laqa figures` runs them. `tables` is
/// Tables 1–2: `laqa campaign` with no options.
pub const FIGURES: [(&str, FigureFn); 14] = [
    ("fig01", paper::fig01),
    ("fig02", paper::fig02),
    ("fig05", paper::fig05),
    ("fig10", paper::fig10),
    ("fig11", paper::fig11),
    ("fig12", paper::fig12),
    ("fig13", paper::fig13),
    ("fig14", paper::fig14),
    ("ablation_allocation", ablations::allocation),
    ("ablation_monotone", ablations::monotone),
    ("ablation_red", extensions::red),
    ("ablation_smoothing", ablations::smoothing),
    ("ablation_window_cc", extensions::window_cc),
    ("tables", crate::campaign::tables),
];

/// Print `tbl` and write it as `dir/file`.
fn table(w: &mut dyn Write, dir: &Path, file: &str, tbl: &Table) -> io::Result<()> {
    writeln!(w, "{}", tbl.render())?;
    fs::write(dir.join(file), tbl.to_csv())
}

/// Write each summary under `dir`: one named `<id>` as `summary.json`,
/// one named `<id>/<part>` as `summary_<part>.json` (`-` and `/` in the
/// part become `_`).
pub(crate) fn write_summaries(dir: &Path, summaries: &[RunSummary]) -> io::Result<()> {
    for summary in summaries {
        let file = match summary.experiment.split_once('/') {
            Some((_, part)) => format!("summary_{}.json", part.replace(['-', '/'], "_")),
            None => "summary.json".to_string(),
        };
        summary.write_json(dir.join(file))?;
    }
    Ok(())
}

/// Run one figure into `dir` and write its summaries there; returns its
/// report.
fn report(run: FigureFn, dir: &Path) -> io::Result<String> {
    fs::create_dir_all(dir)?;
    let mut text = Vec::new();
    write_summaries(dir, &run(dir, &mut text)?)?;
    String::from_utf8(text).map_err(io::Error::other)
}

/// Run each figure into `<out>/<id>/`, print its report and save it as
/// `<out>/<id>.out`.
pub fn write(figures: &[(&str, FigureFn)], out: &Path) -> Result<(), Box<dyn Error>> {
    for &(id, run) in figures {
        let dir = out.join(id);
        let text = format!("{}wrote {}\n", report(run, &dir)?, dir.display());
        print!("{text}");
        fs::write(out.join(format!("{id}.out")), text)?;
    }
    Ok(())
}

/// Run each figure into a scratch directory and compare its report with
/// `<out>/<id>.out`, then the files it wrote with those under `<out>/<id>/`:
/// the same names, equal bytes. The error names the first figure that
/// differs, the first file of it that does, and its first differing line.
pub fn check(figures: &[(&str, FigureFn)], out: &Path) -> Result<(), Box<dyn Error>> {
    let scratch = std::env::temp_dir().join(format!("laqa-figures-{}", std::process::id()));
    let checked = figures.iter().try_for_each(|&(id, run)| {
        let path = out.join(format!("{id}.out"));
        let want = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let got = report(run, &scratch.join(id)).map_err(|e| format!("{id}: {e}"))?;
        if let Some(diff) = first_difference(&want, &got) {
            return Err(differs(id, &path, diff));
        }
        let dir = out.join(id);
        let files = check_files(id, &dir, &scratch.join(id))?;
        println!(
            "{id}: matches {} and the {files} file(s) under {}",
            path.display(),
            dir.display()
        );
        Ok(())
    });
    let _ = fs::remove_dir_all(&scratch);
    Ok(checked?)
}

/// Compare every file under `want` with the one of the same name under
/// `got`; returns how many there are.
fn check_files(id: &str, want: &Path, got: &Path) -> Result<usize, String> {
    let names = |dir: &Path| file_names(dir).map_err(|e| format!("{}: {e}", dir.display()));
    let (committed, written) = (names(want)?, names(got)?);
    if let Some(name) = written.iter().find(|n| !committed.contains(n)) {
        return Err(format!("{id} wrote {name}, which {} lacks", want.display()));
    }
    for name in &committed {
        let path = want.join(name);
        if !written.contains(name) {
            return Err(format!("{id} did not write {}", path.display()));
        }
        let read = |p: &Path| fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
        let (a, b) = (read(&path)?, read(&got.join(name))?);
        if a != b {
            let (a, b) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
            let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
            let endings = "(the line endings differ)";
            let diff = first_line_difference(&a, &b).unwrap_or((a.len(), endings, endings));
            return Err(differs(id, &path, diff));
        }
    }
    Ok(committed.len())
}

/// The names of the entries of `dir`, sorted.
fn file_names(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        names.push(entry?.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

/// `id differs from <path> at line N` with both sides of that line.
fn differs(id: &str, path: &Path, (line, want, got): (usize, &str, &str)) -> String {
    format!(
        "{id} differs from {} at line {line}:\n  committed: {want}\n  printed:   {got}",
        path.display()
    )
}

/// Line number (from 1) and both sides of the first line where `want`,
/// less its trailing `wrote` line, and `got` differ.
fn first_difference<'a>(want: &'a str, got: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let mut want: Vec<&str> = want.lines().collect();
    if want.last().is_some_and(|l| l.starts_with("wrote ")) {
        want.pop();
    }
    let got: Vec<&str> = got.lines().collect();
    first_line_difference(&want, &got)
}

/// Line number (from 1) and both sides of the first line where `want` and
/// `got` differ.
fn first_line_difference<'a>(
    want: &[&'a str],
    got: &[&'a str],
) -> Option<(usize, &'a str, &'a str)> {
    let line = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    let side = |lines: &[&'a str]| lines.get(line).copied().unwrap_or("(no line)");
    Some((line + 1, side(want), side(got)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_ignores_only_the_wrote_line() {
        let want = "a\nb 1\nwrote results/x\n";
        assert_eq!(first_difference(want, "a\nb 1\n"), None);
        assert_eq!(first_difference(want, "a\nb 2\n"), Some((2, "b 1", "b 2")));
        assert_eq!(
            first_difference(want, "a\nb 1\nc\n"),
            Some((3, "(no line)", "c"))
        );
        assert_eq!(first_difference("a\n", ""), Some((1, "a", "(no line)")));
    }
}
