//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a library function here, driven by a binary (for the
//! printed table) and by a Criterion bench (for timing). The mapping to the
//! paper:
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
pub mod cache;
pub mod cluster;
pub mod figures;
pub mod fit;
pub mod meta;
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

/// Parses a `--flag value` style option from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Parses the numeric value of a `--flag value` option from
/// `std::env::args`; `None` when the flag is absent. A flag given without
/// a value, or with one that does not parse as `T`, is a usage error:
/// the binary names the flag on stderr and exits with status 2 instead
/// of falling back to a default.
pub fn num_arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    args.position(|a| a == name)?;
    let value = args.next();
    if let Some(v) = value.as_deref().and_then(|s| s.parse().ok()) {
        return Some(v);
    }
    let program = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |p| p.to_string_lossy().into_owned());
    let got = value.map_or("nothing".to_string(), |s| format!("{s:?}"));
    eprintln!("{program}: {name} wants a number, got {got}");
    std::process::exit(2);
}

/// Whether a bare `--flag` is present in `std::env::args`.
pub fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Prints the synthesis-cache counters to stderr when `--cache-stats` was
/// passed — stderr so the table on stdout stays byte-identical.
pub fn report_cache_stats() {
    if flag_present("--cache-stats") {
        eprintln!("{}", cache::stats());
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
