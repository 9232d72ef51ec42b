//! Numeric flags are strict: a value that does not parse, or a flag
//! given without a value, exits with status 2 and names the flag instead
//! of running with a default.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2() {
    let cases: [&[&str]; 3] = [
        &["--small", "--seed", "abc"],
        &["--small", "--jobs", "abc"],
        &["--small", "--jobs"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("spawn table1");
        assert_eq!(out.status.code(), Some(2), "table1 {args:?}");
        assert!(out.stdout.is_empty(), "table1 {args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "table1 {args:?}: {stderr}");
    }
}
