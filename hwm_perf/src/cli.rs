//! Strict command-line parsing: an unknown flag, a missing value or a
//! malformed number is an error (exit 2 with usage), never a silent
//! default.

use crate::report::WORKLOADS;
use std::path::PathBuf;

/// Usage text printed with `--help` and on every parse error.
pub const USAGE: &str = "\
usage: hwm_perf [--workload NAME]... [--seed N] [--seconds N] [--trace 0|1]
                [--repeats N] [--json PATH] [--layers] [--trace-out PATH]
                [--check PATH] [--curve] [--quick]

  --workload NAME   run only this workload (repeatable; default: all of
                    table3_15ff, activate_15ff, register_18ff, cluster_2x1)
  --seed N          workload seed (default 2024)
  --seconds N       measuring budget per workload and repeat (default 20)
  --trace 0|1       1 = also replay every layer under hwm-trace spans and
                    report per-layer metrics on the last line (default 0)
  --repeats N       repeat each workload's passes N times (default 1)
  --json PATH       write every metric's samples and spread as JSON
  --layers          same as --trace 1
  --trace-out PATH  write the layer replay's span summary as JSONL
                    (implies --layers)
  --check PATH      exit 1 when a gated median is worse than the baseline
                    in PATH (hwm_perf/baseline.json) by more than its bound
  --curve           after the workloads, sweep activate_15ff open loop at
                    1250, 2500, 3750, 5000 and 6250 req/s (diagnostic only)
  --quick           tiny sizes for tests: every check on, numbers meaningless
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workloads to run, in the order given (all four when none named).
    pub workloads: Vec<&'static str>,
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget per workload and repeat, in seconds.
    pub seconds: u64,
    /// Run the per-layer replay and report per-layer metrics.
    pub layers: bool,
    /// Pass-loop repetitions.
    pub repeats: usize,
    /// Full JSON report destination.
    pub json: Option<PathBuf>,
    /// Span-summary JSONL destination.
    pub trace_out: Option<PathBuf>,
    /// Baseline to check medians against.
    pub check: Option<PathBuf>,
    /// Run the open-loop latency-vs-load sweep.
    pub curve: bool,
    /// Tiny sizes (tests).
    pub quick: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workloads: Vec::new(),
            seed: 2024,
            seconds: 20,
            layers: false,
            repeats: 1,
            json: None,
            trace_out: None,
            check: None,
            curve: false,
            quick: false,
        }
    }
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the benchmark.
    Run(Options),
    /// Print usage and exit 0.
    Help,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
}

fn positive(flag: &str, value: &str) -> Result<u64, String> {
    match number::<u64>(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut o = Options::default();
    let mut trace: Option<bool> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "-h" | "--help" => return Ok(Command::Help),
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .find(|w| *w == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                if !o.workloads.contains(&known) {
                    o.workloads.push(known);
                }
            }
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => o.seconds = positive(flag, value()?)?,
            "--repeats" => o.repeats = positive(flag, value()?)? as usize,
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--json" => o.json = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--check" => o.check = Some(PathBuf::from(value()?)),
            "--layers" => o.layers = true,
            "--curve" => o.curve = true,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.trace_out.is_some() {
        o.layers = true;
    }
    match trace {
        Some(false) if o.layers => {
            return Err("--trace 0 conflicts with --layers / --trace-out".to_string())
        }
        Some(on) => o.layers |= on,
        None => {}
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(Command::Run(o))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run(s: &str) -> Options {
        match parse(&args(s)) {
            Ok(Command::Run(o)) => o,
            other => panic!("{s:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn defaults_run_every_workload() {
        let o = run("");
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert_eq!(
            (o.seed, o.seconds, o.repeats, o.layers),
            (2024, 20, 1, false)
        );
    }

    #[test]
    fn single_workload_flags_parse() {
        let o = run("--workload register_18ff --seed 7 --seconds 3 --trace 1");
        assert_eq!(o.workloads, vec!["register_18ff"]);
        assert_eq!((o.seed, o.seconds, o.layers), (7, 3, true));
        assert!(!run("--trace 0").layers);
        assert!(run("--trace-out t.jsonl").layers);
    }

    #[test]
    fn malformed_input_is_refused() {
        for bad in [
            "--seed abc",
            "--seed -1",
            "--repeats 0",
            "--seconds 0",
            "--json",
            "--workload nope",
            "--trace 2",
            "--trace 0 --layers",
            "--frobnicate",
            "extra",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
        assert_eq!(parse(&args("--help")), Ok(Command::Help));
    }
}
