//! The committed benchmark reports are goldens. Each file must pass its
//! own validator (and a truncated copy must not), and a fresh run must
//! reproduce it: the paper claims byte for byte, the scale sweep's model
//! fields exactly and its peak RSS within a bound.

use std::path::Path;
use std::process::Command;

use mage_sim::json::{self, Value};

/// Peak RSS a fresh scale point may reach, as a multiple of the
/// committed value. Host noise in VmHWM is a few percent; a leak that
/// keeps a machine alive roughly doubles it.
const RSS_BOUND: f64 = 1.25;

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
fn scale_report_validates() {
    check(
        "BENCH_scale.json",
        4,
        mage_bench::scale_bench::validate_report,
    );
}

#[test]
fn paper_report_validates() {
    check(
        "BENCH_paper.json",
        mage_bench::paper::claims().len(),
        mage_bench::paper::validate_report,
    );
}

/// `json` with row `id`'s measured value replaced by `value`.
fn with_measured(json: &str, id: &str, value: f64) -> String {
    let row = format!("\"id\": \"{id}\"");
    json.lines()
        .map(|line| {
            if !line.contains(&row) {
                return line.to_string();
            }
            let (head, tail) = line.split_once("\"measured\": ").expect("measured member");
            let rest = &tail[tail.find(',').expect("member after measured")..];
            format!("{head}\"measured\": {value:?}{rest}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Moving any row's measured value to the other side of its tolerance,
/// with `holds` left as committed, must fail validation.
#[test]
fn paper_report_rejects_a_value_across_its_tolerance() {
    use mage_bench::paper::{passes, validate_report};
    let json = committed("BENCH_paper.json");
    for row in validate_report(&json).expect("committed report validates") {
        let across = match (row.comparison.as_str(), &row.tolerance[..], row.holds) {
            (">" | "<", &[t], true) | (">=" | "<=" | "==", &[t], false) => t,
            (">=", &[t], true) | ("<", &[t], false) => t - 1e-9,
            ("<=" | "==", &[t], true) | (">", &[t], false) => t + 1e-9,
            ("in", &[_, hi], true) => hi,
            ("in", &[lo, _], false) => lo,
            _ => panic!("{}: unexpected comparison", row.id),
        };
        let passed = passes(&row.comparison, &row.tolerance, across);
        assert_eq!(
            passed,
            Some(!row.holds),
            "{}: {across} is not across",
            row.id
        );
        let moved = with_measured(&json, &row.id, across);
        assert_ne!(moved, json, "{}: measured value not replaced", row.id);
        assert!(
            validate_report(&moved).is_err(),
            "{}: measured {across} accepted with holds {}",
            row.id,
            row.holds
        );
    }
}

/// Every claim is virtual time, so any change that moves one figure cell
/// a claim reads shows up here.
#[test]
fn paper_claims_reproduce_committed_report() {
    use mage_bench::paper::{render_json, run_claims};
    assert_eq!(
        render_json(&run_claims(None)),
        committed("BENCH_paper.json"),
        "the paper claims no longer reproduce BENCH_paper.json; regenerate it with \
         `cargo run --release -p mage-bench --bin paper` only for a change meant to \
         move virtual metrics, and say which rows moved"
    );
}

/// Runs the `scale` binary and compares each point with the committed
/// one: `model` must match exactly, `host.peak_rss_kb` within
/// [`RSS_BOUND`]. Wall time is not checked.
#[test]
fn scale_sweep_reproduces_committed_model() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_scale.json");
    let run = Command::new(env!("CARGO_BIN_EXE_scale"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("start the scale binary");
    assert!(
        run.status.success(),
        "scale exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let fresh = std::fs::read_to_string(&out).expect("read the fresh scale report");

    let committed = json::parse(&committed("BENCH_scale.json")).expect("committed report parses");
    let fresh = json::parse(&fresh).expect("fresh report parses");
    let old_points = committed.array_at("points").expect("committed points");
    let new_points = fresh.array_at("points").expect("fresh points");
    assert_eq!(old_points.len(), new_points.len(), "scale point count");
    for (old, new) in old_points.iter().zip(new_points) {
        let id = old.str_at("id").expect("committed point id");
        assert_eq!(new.str_at("id"), Ok(id), "scale point order");
        assert_eq!(
            new.get("model"),
            old.get("model"),
            "{id}: model fields differ from BENCH_scale.json"
        );
        let rss = |p: &Value| {
            p.get("host")
                .and_then(|h| h.u64_at("peak_rss_kb").ok())
                .expect("host.peak_rss_kb")
        };
        let bound = rss(old) as f64 * RSS_BOUND;
        assert!(
            rss(new) as f64 <= bound,
            "{id}: peak RSS {} KiB exceeds {RSS_BOUND}× the committed {} KiB",
            rss(new),
            rss(old)
        );
    }
}
