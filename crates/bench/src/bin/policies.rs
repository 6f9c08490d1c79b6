//! Emits `BENCH_policies.json` at the repo root: the committed
//! eviction-policy ablation (policy × workload × local-memory fraction;
//! see `mage_workloads::ablation`).
//!
//! ```sh
//! cargo run --release -p mage-bench --bin policies
//! ```
//!
//! Flags:
//! * `--out <path>` — output path (default: `<repo>/BENCH_policies.json`).
//!
//! Every metric is virtual-time, so the report is bit-reproducible
//! across hosts; `tests/committed_reports.rs` regenerates it and compares
//! it with the committed file byte for byte. The run asserts that
//! S3-FIFO wins at least one `(workload, fraction)` group on re-fault
//! rate — the claim the committed report exists to document.

use std::path::{Path, PathBuf};

use mage_workloads::ablation::{render_json, run_ablation, s3fifo_win_cells, validate_report};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("mage-bench lives at <workspace>/crates/bench")
        .to_path_buf()
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            other => {
                eprintln!("policies: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| workspace_root().join("BENCH_policies.json"));

    eprintln!("policies: running the ablation cube...");
    let cells = run_ablation();

    let json = render_json(&cells);
    validate_report(&json).expect("emitted report must validate against its own schema");
    let wins = s3fifo_win_cells(&cells);
    assert!(
        !wins.is_empty(),
        "the ablation must show S3-FIFO winning at least one cell on re-fault rate"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_policies.json");

    for c in &cells {
        eprintln!(
            "  {:13} {:9} frac={:.2}  {:>8.3} Mops  {:>7} faults  {:>6} refaults  rate={:.4}",
            c.policy, c.workload, c.local_frac, c.mops, c.major_faults, c.re_faults, c.re_fault_rate
        );
    }
    eprintln!(
        "policies: {} cells, S3-FIFO re-fault wins in {:?} -> {}",
        cells.len(),
        wins,
        out_path.display()
    );
    print!("{json}");
}
