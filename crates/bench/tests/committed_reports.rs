//! The committed benchmark reports must stay valid under their own
//! validators: each file parses as one JSON document with the expected
//! row count, and a truncated copy is rejected.

use std::path::Path;

fn committed(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("mage-bench lives at <workspace>/crates/bench");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Checks `validate` accepts `rel` with `rows` rows and rejects the same
/// file cut short by its closing brace.
fn check<T>(rel: &str, rows: usize, validate: fn(&str) -> Result<Vec<T>, String>) {
    let json = committed(rel);
    let parsed = validate(&json).unwrap_or_else(|e| panic!("{rel}: {e}"));
    assert_eq!(parsed.len(), rows, "{rel}: row count");
    let cut = json.trim_end().trim_end_matches('}');
    assert!(validate(cut).is_err(), "{rel}: truncated copy accepted");
}

#[test]
fn hotloop_reports_validate() {
    check(
        "BENCH_hotloop.json",
        9,
        mage_bench::hotloop::validate_report,
    );
    check(
        "crates/bench/baseline/hotloop_baseline.json",
        9,
        mage_bench::hotloop::validate_report,
    );
}

#[test]
fn scale_report_validates() {
    check(
        "BENCH_scale.json",
        4,
        mage_bench::scale_bench::validate_report,
    );
}

#[test]
fn policies_report_validates() {
    check(
        "BENCH_policies.json",
        30,
        mage_workloads::ablation::validate_report,
    );
}
