//! Argument handling of the `repro` binary, and its artifact list.

use std::collections::BTreeSet;
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

#[test]
fn every_committed_artifact_has_a_registry_row_and_back() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let listed: BTreeSet<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| line.split_whitespace().nth(1))
        .filter(|artifact| *artifact != "-")
        .map(|artifact| format!("BENCH_{artifact}.json"))
        .collect();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let committed: BTreeSet<String> = std::fs::read_dir(root)
        .expect("repository root")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_A") && name.ends_with(".json"))
        .collect();
    assert_eq!(listed, committed, "repro --list vs committed artifacts");
}
