//! Tests for the trace perf-regression gate library: the committed goldens
//! must exist and pass against freshly recorded traces, and doctored
//! metrics (slower schedule, extra submission, newly exposed comm) must
//! fail `check_gate` under the pinned tolerances.

use sagegpu_bench::gate::{
    check_gate, gate_config_path, golden_path, metrics_for, GateMetrics, GateTolerances,
    GATED_WORKLOADS,
};
use sagegpu_core::gpu::trace::{replay, TraceV1, WhatIf};

fn golden_metrics(stem: &str) -> GateMetrics {
    let path = golden_path(stem);
    let trace = TraceV1::read_file(&path).unwrap_or_else(|e| {
        panic!(
            "golden {stem} unreadable at {} ({e}); run `trace_gate --bless`",
            path.display()
        )
    });
    metrics_for(&trace)
}

#[test]
fn committed_goldens_pass_against_fresh_recordings() {
    let tol = GateTolerances::default();
    for (name, stem, record) in GATED_WORKLOADS {
        let golden = golden_metrics(stem);
        let current = metrics_for(&record());
        let violations = check_gate(&golden, &current, &tol);
        assert!(
            violations.is_empty(),
            "{name} gate failed against its own golden: {violations:?}"
        );
        // The simulator is deterministic, so the match is exact, not
        // merely within tolerance.
        assert_eq!(golden, current, "{name} recording drifted from the golden");
    }
}

#[test]
fn golden_traces_rewrite_to_the_same_json() {
    // Pins the `TraceV1` schema: a renamed key, a `null` written where a
    // key is omitted (`pricing`), or a reordered array all differ here.
    for (name, stem, _) in GATED_WORKLOADS {
        let path = golden_path(stem);
        let committed = std::fs::read_to_string(&path).expect("golden is readable");
        let rewritten = TraceV1::read_file(&path)
            .unwrap_or_else(|e| panic!("golden {stem}: {e}"))
            .to_json();
        assert!(
            serde_json::from_str(&rewritten).unwrap() == serde_json::from_str(&committed).unwrap(),
            "{name}: rewriting the golden changed its JSON"
        );
    }
}

#[test]
fn golden_traces_identity_replay_exactly() {
    for (name, stem, _) in GATED_WORKLOADS {
        let trace =
            TraceV1::read_file(golden_path(stem)).unwrap_or_else(|e| panic!("golden {stem}: {e}"));
        let rep = replay(&trace, &WhatIf::default()).expect("identity replay");
        assert_eq!(
            rep.sim_time_ns, trace.sim_time_ns,
            "{name} sim-time drifted"
        );
        assert_eq!(
            rep.submissions,
            trace.submissions(),
            "{name} submissions drifted"
        );
        assert_eq!(
            rep.kernel_launches, trace.kernel_launches,
            "{name} launch count drifted"
        );
    }
}

#[test]
fn ten_percent_slower_schedule_fails_the_gate() {
    let golden = golden_metrics("gcn_epoch");
    let doctored = GateMetrics {
        sim_time_ns: golden.sim_time_ns + golden.sim_time_ns / 10,
        ..golden.clone()
    };
    let violations = check_gate(&golden, &doctored, &GateTolerances::default());
    assert_eq!(
        violations.len(),
        1,
        "expected exactly the sim-time violation"
    );
    assert!(
        violations[0].contains("sim-time regressed"),
        "{violations:?}"
    );
}

#[test]
fn unexplained_speedup_also_fails_the_gate() {
    let golden = golden_metrics("gcn_epoch");
    let doctored = GateMetrics {
        sim_time_ns: golden.sim_time_ns - golden.sim_time_ns / 10,
        ..golden.clone()
    };
    let violations = check_gate(&golden, &doctored, &GateTolerances::default());
    assert_eq!(violations.len(), 1);
    assert!(
        violations[0].contains("sim-time improved"),
        "{violations:?}"
    );
}

#[test]
fn one_extra_submission_fails_the_gate() {
    let golden = golden_metrics("gcn_epoch");
    let doctored = GateMetrics {
        submissions: golden.submissions + 1,
        ..golden.clone()
    };
    let violations = check_gate(&golden, &doctored, &GateTolerances::default());
    assert_eq!(
        violations.len(),
        1,
        "expected exactly the submission violation"
    );
    assert!(
        violations[0].contains("submission count changed"),
        "{violations:?}"
    );
}

#[test]
fn exposed_comm_growth_is_tolerated_up_to_the_pin() {
    let golden = golden_metrics("gcn_epoch");
    let tol = GateTolerances::default();
    let nudged = GateMetrics {
        exposed_comm_fraction: golden.exposed_comm_fraction + 0.01,
        ..golden.clone()
    };
    assert!(check_gate(&golden, &nudged, &tol).is_empty());
    let blown = GateMetrics {
        exposed_comm_fraction: golden.exposed_comm_fraction + 0.03,
        ..golden.clone()
    };
    let violations = check_gate(&golden, &blown, &tol);
    assert_eq!(violations.len(), 1);
    assert!(
        violations[0].contains("exposed-comm fraction grew"),
        "{violations:?}"
    );
    // One-sided: shrinking exposed comm never fails.
    let improved = GateMetrics {
        exposed_comm_fraction: 0.0,
        ..golden.clone()
    };
    assert!(check_gate(&golden, &improved, &tol).is_empty());
}

#[test]
fn tolerance_parsing_handles_defaults_and_unknown_fields() {
    let d = GateTolerances::default();
    assert_eq!(d.sim_time_rel, 0.01);
    assert_eq!(d.exposed_comm_abs, 0.02);
    // Missing fields fall back to defaults; unknown fields are ignored.
    let t = GateTolerances::from_json(r#"{"sim_time_rel_tol": 0.05, "future_knob": 7}"#)
        .expect("parses");
    assert_eq!(t.sim_time_rel, 0.05);
    assert_eq!(t.exposed_comm_abs, d.exposed_comm_abs);
    let empty = GateTolerances::from_json("{}").expect("parses");
    assert_eq!(empty, d);
    // The defaults round-trip through the parser, and written out they
    // parse to exactly the committed gate.json.
    let committed = GateTolerances::from_json(&d.to_json()).expect("round-trips");
    assert_eq!(committed, d);
    let golden = std::fs::read_to_string(gate_config_path()).expect("gate.json");
    assert_eq!(
        serde_json::from_str(&d.to_json()),
        serde_json::from_str(&golden)
    );
    assert!(GateTolerances::from_json("not json").is_err());
}
