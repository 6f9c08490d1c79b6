//! Emits `BENCH_scale.json` at the repo root: the committed
//! terabyte-scale/256-core scale trajectory (see
//! `mage_bench::scale_bench`).
//!
//! ```sh
//! cargo run --release -p mage-bench --bin scale
//! ```
//!
//! Flags:
//! * `--out <path>` — output path (default: `<repo>/BENCH_scale.json`).
//!
//! Each point runs in a child process of this binary, so its peak RSS
//! is its own and not heap left over from earlier points. The parent
//! starts the child as `scale --point <id>`; the child runs that one
//! point and prints its JSON row on stdout. `--point` is this private
//! parent–child protocol, not a user option.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mage_bench::scale_bench::{point_ids, render_json, run_point, validate_report};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("mage-bench lives at <workspace>/crates/bench")
        .to_path_buf()
}

/// Runs point `id` in a fresh child process and returns its JSON row.
fn point_in_child(id: &str) -> String {
    let exe = std::env::current_exe().expect("locate the scale executable");
    let out = Command::new(exe)
        .args(["--point", id])
        .stderr(Stdio::inherit())
        .output()
        .expect("start a scale point process");
    assert!(
        out.status.success(),
        "scale point {id} failed ({})",
        out.status
    );
    String::from_utf8(out.stdout).expect("point row is UTF-8")
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--point" => {
                let id = args.next().expect("--point needs an id");
                let p = run_point(&id).unwrap_or_else(|| panic!("unknown scale point {id}"));
                eprintln!(
                    "  {:26} {:>16} cap  {:>9} touched  {:>9} meta  {:>9.1} ms  {:>9} KiB peak",
                    p.id,
                    p.model.capacity_pages,
                    p.model.touched_pages,
                    p.model.metadata_entries,
                    p.wall_ms,
                    p.peak_rss_kb,
                );
                println!("{}", p.to_json());
                return;
            }
            other => {
                eprintln!("scale: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| workspace_root().join("BENCH_scale.json"));

    eprintln!("scale: running {} scale points...", point_ids().count());
    let rows: Vec<String> = point_ids().map(point_in_child).collect();
    let json = render_json(&rows);
    validate_report(&json).expect("emitted report must hold the O(touched) metadata bound");
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    eprintln!("scale: -> {}", out_path.display());
    print!("{json}");
}
