//! Runs the paper's evaluation from the figure table in
//! `mage_bench::paper`.
//!
//! ```sh
//! cargo run --release -p mage-bench --bin paper              # → BENCH_paper.json
//! cargo run --release -p mage-bench --bin paper -- fig18b    # → target/experiments/fig18b.csv
//! cargo run --release -p mage-bench --bin paper -- all       # every figure at paper size
//! ```
//!
//! With no figure ids, every claim is measured at reduced size and the
//! rows are written to `BENCH_paper.json` at the repo root. With ids,
//! those specs run at paper size, in paper order; each prints its CSV
//! and writes it to `target/experiments/<id>.csv`. An id selects the spec
//! of that name and every spec named `<id>_…` (`fig12` selects
//! `fig12_map` and `fig12_reduce`); `all` selects every spec.
//!
//! Flags:
//! * `--out <path>` — the report path (default: `<repo>/BENCH_paper.json`),
//!   or with figure ids the CSV directory (default:
//!   `<repo>/target/experiments`).
//! * `--seed <n>` — run every experiment with seed `n` instead of the
//!   committed ones (42 for batch and memcached runs, 7 for open-loop
//!   runs), to check that a verdict holds across seeds. Write the report
//!   elsewhere with `--out`: `BENCH_paper.json` is the default seeds'.

use std::path::{Path, PathBuf};

use mage_bench::paper::{render_json, run_claims, validate_report, Lab, Scale};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("mage-bench lives at <workspace>/crates/bench")
        .to_path_buf()
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut seed = None;
    let mut figures = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            "--seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = Some(n),
                None => {
                    eprintln!("paper: --seed needs an integer");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("paper: unknown flag {flag}");
                std::process::exit(2);
            }
            id => figures.push(id.to_string()),
        }
    }

    if figures.is_empty() {
        let out = out.unwrap_or_else(|| workspace_root().join("BENCH_paper.json"));
        let rows = run_claims(seed);
        let json = render_json(&rows);
        validate_report(&json).expect("emitted report must validate against its own schema");
        std::fs::write(&out, &json).expect("write BENCH_paper.json");
        for r in &rows {
            let verdict = if r.holds { "holds" } else { "DOES NOT HOLD" };
            let (id, measured, cmp, tol) = (&r.id, r.measured, &r.comparison, &r.tolerance);
            eprintln!("  {id:52} {measured:>12.4} {cmp} {tol:?}: {verdict}");
        }
        eprintln!("paper: {} claims -> {}", rows.len(), out.display());
        return;
    }

    let mut lab = Lab::new(Scale::Paper, seed);
    let ids = lab.ids();
    let selects = |f: &str, id: &str| f == "all" || id == f || id.starts_with(&format!("{f}_"));
    if let Some(f) = figures
        .iter()
        .find(|f| !ids.iter().any(|id| selects(f, id)))
    {
        eprintln!("paper: unknown figure {f}; known: {}", ids.join(" "));
        std::process::exit(2);
    }
    let selected = ids
        .into_iter()
        .filter(|id| figures.iter().any(|f| selects(f, id)));
    let dir = out.unwrap_or_else(|| workspace_root().join("target").join("experiments"));
    std::fs::create_dir_all(&dir).expect("create the CSV directory");
    for id in selected.collect::<Vec<_>>() {
        let csv = lab.csv(id);
        print!("\n{csv}");
        let path = dir.join(format!("{id}.csv"));
        std::fs::write(&path, csv).expect("write the CSV");
        println!("-> {}", path.display());
    }
}
