//! One validator for every `BENCH_A*.json` artifact: each registry row's
//! check runs on the committed file, on a doctored copy (which it must
//! reject), and, for the ablations cheap enough to run here (A07–A09), on
//! a fresh run.

use sagegpu_bench::artifact::{Ablation, ABLATIONS, ARTIFACT_DIR};
use serde_json::Value;
use std::path::Path;

fn ablation(artifact: &str) -> &'static Ablation {
    ABLATIONS
        .iter()
        .find(|a| a.artifact == artifact)
        .unwrap_or_else(|| panic!("no registry row for {artifact}"))
}

fn committed(a: &Ablation) -> Value {
    let path = a.path(Path::new(ARTIFACT_DIR));
    let text = std::fs::read_to_string(&path).expect("committed artifact; run `repro --exp <id>`");
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_artifacts_pass_their_checks() {
    for a in &ABLATIONS {
        let violations = a.check(&committed(a));
        assert!(violations.is_empty(), "{}: {violations:#?}", a.artifact);
    }
}

#[test]
fn fresh_runs_pass_their_checks() {
    std::thread::scope(|s| {
        for artifact in ["A07", "A08", "A09"] {
            s.spawn(move || {
                let a = ablation(artifact);
                let violations = a.check(&a.run());
                assert!(violations.is_empty(), "{artifact}: {violations:#?}");
            });
        }
    });
}

/// Sets a top-level member of an artifact, writes it out and reads it back,
/// as a committed file would be.
fn doctored(artifact: &str, key: &str, x: Value) -> Value {
    let mut v = committed(ablation(artifact));
    match &mut v {
        Value::Object(fields) => fields.insert(key.to_owned(), x),
        _ => panic!("{artifact} is not an object"),
    };
    serde_json::from_str(&serde_json::to_string_pretty(&v).expect("writes")).expect("parses")
}

#[test]
fn checks_reject_a_doctored_bound() {
    // (artifact, member, doctored JSON value): the check must report a
    // violated bound that names the member.
    let cases = [
        ("A07", "gcn_identical", "false"),
        ("A08", "overlap_win_at_4", "0.99"),
        ("A09", "rag_launch_reduction", "3.9"),
        ("A10", "hier_bucketed_exposed_fraction_at_8", "0.3"),
        ("A11", "identity_exact", "false"),
        ("A12", "sharded_identical", "false"),
        ("A13", "qps_ratio_25_zipf", "0.4"),
        ("A13", "title", "\"renamed\""),
    ];
    for (artifact, key, x) in cases {
        let v = doctored(artifact, key, serde_json::from_str(x).expect("case"));
        let violations = ablation(artifact).check(&v);
        assert!(
            violations.iter().any(|m| m.contains(key)),
            "{artifact}: doctored {key} not caught; got {violations:#?}"
        );
    }
    // A NaN headline is written as null, and null fails its bound.
    let v = doctored("A12", "memory_reduction", Value::Number(f64::NAN));
    assert!(v["memory_reduction"].is_null());
    let violations = ablation("A12").check(&v);
    assert!(violations.iter().any(|m| m.contains("memory_reduction")));
}

#[test]
fn a_failed_write_is_an_error() {
    let a = ablation("A07");
    let missing = Path::new(ARTIFACT_DIR).join("no-such-dir");
    assert!(a.publish(&missing, &committed(a)).is_err());
    assert!(!a.path(&missing).exists());
}
