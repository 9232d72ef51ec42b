//! The benchmark binary end to end: strict flag parsing, and a `--quick`
//! run of all four workloads with every check on.

use hwm_jsonio::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hwm_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hwm_perf"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("stdout has a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_keys(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn malformed_flags_exit_2_with_usage_and_no_result() {
    for args in [
        &["--seed", "abc"][..],
        &["--repeats", "0"],
        &["--json"],
        &["--workload", "table4"],
        &["--frobnicate"],
    ] {
        let out = hwm_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
    let help = hwm_perf(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("--workload NAME"));
}

#[test]
fn quick_runs_pass_every_check_and_report_the_declared_metrics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hwm_perf_quick");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json = dir.join("report.json");
    let trace = dir.join("trace.jsonl");
    let bench = benchmark_json();

    // Every workload with the layer replay: per-layer metrics on the last line.
    let out = hwm_perf(&[
        "--quick",
        "--seconds",
        "1",
        "--seed",
        "11",
        "--json",
        json.to_str().expect("utf-8 path"),
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let result = last_line(&out);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(
        metric_keys(&result),
        names(bench.get("per_layer").expect("per_layer"))
    );
    for w in names(bench.get("workloads").expect("workloads")) {
        assert!(stdout.contains(&format!("== {w} (")), "no block for {w}");
    }
    assert_eq!(stdout.matches("residual (end to end - layers)").count(), 4);
    let report = Json::parse(&std::fs::read_to_string(&json).expect("--json written"))
        .expect("report parses");
    match report.get("workloads") {
        Some(Json::Obj(w)) => assert_eq!(w.len(), 4),
        other => panic!("report workloads: {other:?}"),
    }
    let spans = std::fs::read_to_string(&trace).expect("--trace-out written");
    assert!(spans.starts_with("{\"type\":\"run\""), "{spans:.80}");
    assert!(spans.contains("register_18ff/service.registry_append"));

    // One workload with the trace off: gated end-to-end medians, unprefixed.
    let out = hwm_perf(&[
        "--quick",
        "--workload",
        "register_18ff",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let result = last_line(&out);
    assert_eq!(
        metric_keys(&result),
        names(bench.get("end_to_end").expect("end_to_end"))
    );

    assert!(
        !Path::new(".hwm_perf_tmp").exists(),
        "the scratch journals must be removed"
    );
}
