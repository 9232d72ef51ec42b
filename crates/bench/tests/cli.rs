//! Flags are strict: a value that does not parse, or a flag given without
//! a value, exits with status 2 and names the flag instead of running
//! with a default. A run writes nothing but stdout and stderr unless an
//! output flag asks for a file.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let serve_bench = env!("CARGO_BIN_EXE_serve_bench");
    let cases: [(&str, &[&str]); 6] = [
        (table1, &["--small", "--seed", "abc"]),
        (table1, &["--small", "--jobs", "abc"]),
        (table1, &["--small", "--jobs"]),
        (table1, &["--small", "--trace-out"]),
        (serve_bench, &["--journal"]),
        (serve_bench, &["--pipeline", "0"]),
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
