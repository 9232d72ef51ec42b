//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a library function here, driven by a binary that
//! prints its table. Timing lives in the separate `hwm_perf` package; the
//! binaries' `--profile` spans break a run down by phase. The mapping to
//! the paper:
//!
//! | Paper artifact | Function | Binary |
//! |----------------|----------|--------|
//! | Table 1 (area overhead) | [`tables::table1`] | `table1` |
//! | Table 2 (delay/power overhead) | [`tables::table2`] | `table2` |
//! | Table 3 (brute-force attempts) | [`table3::run`] | `table3` |
//! | Table 4 (black-hole overhead) | [`tables::table4`] | `table4` |
//! | Figure 8a/8b (overhead vs size + fit) | [`figures::fig8`] | `fig8` |
//! | Eq. 1 / §4.2 sizing, §7.3 key diversity | [`analysis`] | `analysis` |
//! | DAC 2001 passive metering (supplementary) | [`passive_exp`] | `passive` |
//! | §6 attack resilience | `hwm_attacks::run_all` | `attack_table` |
//! | design-choice ablations (DESIGN.md §6) | [`ablations`] | `ablations` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod analysis;
pub mod cluster;
pub mod figures;
pub mod fit;
pub mod monitor;
pub mod parallel;
pub mod passive_exp;
pub mod run;
pub mod serve;
pub mod sim;
pub mod table3;
pub mod tables;

use std::fmt::Write as _;

/// Renders rows of (label, cells) as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Every flag the binary has asked for: its name, and whether it takes a
/// value. [`positional_args`] refuses any flag missing here.
static ASKED: std::sync::Mutex<Vec<(String, bool)>> = std::sync::Mutex::new(Vec::new());

fn ask(name: &str, valued: bool) {
    let mut asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
    asked.push((name.to_string(), valued));
}

/// The value after `--flag` in `std::env::args`; `None` when the flag is
/// absent. A flag given as the last argument, or followed by another
/// flag (an argument starting with `--`), has no value: that is a usage
/// error, so the binary names the flag on stderr and exits with status 2
/// instead of running as if the flag were absent or taking the next
/// flag for its value.
pub fn arg_value(name: &str) -> Option<String> {
    ask(name, true);
    let mut args = std::env::args().skip(1);
    args.position(|a| a == name)?;
    match args.next() {
        Some(value) if !value.starts_with("--") => Some(value),
        Some(flag) => usage_error(&format!("{name} wants a value, got the flag {flag:?}")),
        None => usage_error(&format!("{name} wants a value, got nothing")),
    }
}

/// Parses the numeric value of a `--flag value` option from
/// `std::env::args`; `None` when the flag is absent. A flag given without
/// a value, or with one that does not parse as `T`, is a usage error:
/// the binary names the flag on stderr and exits with status 2 instead
/// of falling back to a default.
pub fn num_arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let value = arg_value(name)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(&format!("{name} wants a number, got {value:?}")),
    }
}

/// Prints `message` on stderr after the binary's name and exits with
/// status 2, the usage-error status of every bench binary.
fn usage_error(message: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let program = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |p| p.to_string_lossy().into_owned());
    eprintln!("{program}: {message}");
    std::process::exit(2);
}

/// Writes an output artifact (`--metrics-out`, `--traces-out`, …),
/// creating its parent directory. A failure is a warning on stderr,
/// naming `what` and the path: the run's results on stdout still stand.
pub fn write_artifact(path: impl AsRef<std::path::Path>, what: &str, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, contents)
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write {what} to {}: {e}", path.display());
    }
}

/// Whether a bare `--flag` is present in `std::env::args`.
pub fn flag_present(name: &str) -> bool {
    ask(name, false);
    std::env::args().any(|a| a == name)
}

/// The arguments that are neither a flag the binary asked for through
/// [`arg_value`], [`num_arg`] or [`flag_present`] nor the value of one,
/// in order. Call it once every flag has been read and before any work:
/// an argument starting with `--` that no read asked for is a misspelled
/// or retired flag, and a flag given twice has two values of which the
/// reads saw only the first, so for either the binary names the flag on
/// stderr and exits with status 2 instead of running.
pub fn positional_args() -> Vec<String> {
    let asked = ASKED.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut rest = Vec::new();
    let mut seen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match asked.iter().find(|(n, _)| *n == arg) {
            Some((_, valued)) => {
                if seen.contains(&arg) {
                    usage_error(&format!("flag {arg:?} given twice"));
                }
                if *valued {
                    args.next();
                }
                seen.push(arg);
            }
            None if arg.starts_with("--") => usage_error(&format!("unknown flag {arg:?}")),
            None => rest.push(arg),
        }
    }
    rest
}

/// Refuses every argument the binary did not ask for: an unknown flag
/// (see [`positional_args`]) or a stray value exits with status 2,
/// naming it. Every bench binary but `profile`, which takes trace paths,
/// calls this once its flags are read and before any work.
pub fn reject_unknown_args() {
    if let Some(arg) = positional_args().first() {
        usage_error(&format!("unexpected argument {arg:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("long-name"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
