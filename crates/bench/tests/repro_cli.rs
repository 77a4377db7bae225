//! Argument handling of the `repro` binary.

use std::process::Command;

#[test]
fn exp_without_a_value_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--exp")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no experiment may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn unknown_experiment_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "nosuch"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'nosuch'"),
        "stderr: {stderr}"
    );
}
