//! Flags are strict: a value that does not parse, a flag given without
//! a value or with another flag where its value goes, a flag given
//! twice, a flag the binary does not know and a stray value all exit
//! with status 2 and name the argument instead of running with a
//! default. A run writes nothing but stdout and stderr unless an output
//! flag asks for a file.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let serve_bench = env!("CARGO_BIN_EXE_serve_bench");
    let crash_sim = env!("CARGO_BIN_EXE_crash_sim");
    let cases: [(&str, &[&str]); 16] = [
        (table1, &["--small", "--seed", "abc"]),
        (table1, &["--small", "--jobs", "abc"]),
        (table1, &["--small", "--jobs"]),
        (table1, &["--small", "--trace-out"]),
        // A flag given twice: the reads see only the first value.
        (table1, &["--small", "--seed", "1", "--seed", "2"]),
        (table1, &["--small", "--profile", "--profile"]),
        (serve_bench, &["--journal"]),
        (serve_bench, &["--pipeline", "0"]),
        (serve_bench, &["--flush", "sync"]),
        (serve_bench, &["--flush", "group-commit:0"]),
        // Unknown flags: a misspelling, a retired flag, a flag of the
        // other mode.
        (table1, &["--small", "--sed", "7"]),
        (crash_sim, &["--cache-stats"]),
        (crash_sim, &["--kinds", "torn-write", "--cache-stats"]),
        (crash_sim, &["--campaign", "clone", "--crashes", "2"]),
        (env!("CARGO_BIN_EXE_hwm_monitor"), &["--once", "--interval-ms", "5"]),
        (env!("CARGO_BIN_EXE_hwm_traces"), &["--input", "spans.jsonl", "--bogus"]),
    ];
    for (binary, args) in cases {
        let out = Command::new(binary).args(args).output().expect("spawn");
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
        assert!(out.stdout.is_empty(), "{binary} {args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{binary} {args:?}: {stderr}");
    }
}

/// A value no flag takes is refused before anything runs, and named.
#[test]
fn stray_values_exit_2() {
    for args in [&["--small", "7"][..], &["7", "--small"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("spawn table1");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "table1 {args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("\"7\""), "{args:?}: {stderr}");
    }
}

/// A valued flag followed by another flag has no value: the run is
/// refused, naming the valued flag, and writes no file named after the
/// flag that followed it.
#[test]
fn a_flag_is_never_taken_as_a_value() {
    let dir = std::env::temp_dir().join(format!("hwm-bench-flag-value-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--small", "--trace-out", "--profile"])
        .current_dir(&dir)
        .output()
        .expect("spawn table1");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "table1 printed a table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace-out"), "{stderr}");
    assert!(left.is_empty(), "table1 wrote {left:?}");
}

/// A fault kind `crash_sim` does not know, such as the retired TCP-only
/// `delayed-accept`, is refused before anything runs, and named.
#[test]
fn unknown_fault_kind_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_crash_sim"))
        .args(["--kinds", "delayed-accept"])
        .output()
        .expect("spawn crash_sim");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "crash_sim printed a report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("delayed-accept"), "{stderr}");
}

#[test]
fn a_bench_run_writes_only_stdout_and_stderr() {
    let dir = std::env::temp_dir().join(format!("hwm-bench-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--small", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("spawn table1");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "table1 printed no table");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        left.is_empty(),
        "table1 wrote into its working directory: {left:?}"
    );
}
