//! CLI for simlint: `cargo run -p simlint [paths...]`.
//!
//! With no arguments, lints every `crates/*/src` tree of the workspace
//! this binary was built from. With arguments, lints exactly those files
//! or directories (used by the fixture tests). Exits non-zero iff any
//! violation is found.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut violations = Vec::new();
    let scanned;
    if args.is_empty() {
        let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("simlint lives at <workspace>/crates/simlint")
            .to_path_buf();
        match simlint::lint_workspace(&workspace_root) {
            Ok(v) => violations = v,
            Err(e) => {
                eprintln!("simlint: cannot scan {}: {e}", workspace_root.display());
                return ExitCode::from(2);
            }
        }
        scanned = "workspace".to_string();
    } else {
        let roots: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
        for root in &roots {
            match simlint::lint_tree(root) {
                Ok(v) => violations.extend(v),
                Err(e) => {
                    eprintln!("simlint: cannot read {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            }
        }
        scanned = format!("{} tree(s)", roots.len());
    }

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        eprintln!("simlint: clean ({scanned} scanned)");
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
